"""Known answers for every benchmark job, written by hand.

Each answer says what the qlie CLI must return and why: a theorem or a
construction.  None was captured from a qlie run.  An answer holds

* ``exit``: the required exit code (0 pass, 1 a check failed, 2 malformed input);
* ``checks``: required check statuses by name; ``"*"`` applies to every check
  the report lists, named entries override it;
* ``dimension`` (optional): the required ``data.dimension`` of an invariants report;
* ``why``: the reason.
"""

from __future__ import annotations

from math import comb

ALL_PASS = {"*": "pass"}


def _answer(exit_code, checks, why, **extra):
    out = {"exit": exit_code, "checks": dict(checks), "why": why}
    out.update(extra)
    return out


def invariants_semisimple(summands: int) -> dict:
    return _answer(
        0,
        ALL_PASS,
        "for semisimple g, dim (Sym^2 g)^g = dim (Lambda^3 g)^g = number of simple "
        "summands (one Killing form / one Cartan 3-form each, no mixed invariants "
        "since g_i^{g_i} = 0)",
        dimension=summands,
    )


def invariants_abelian(n: int, module: str) -> dict:
    dim = comb(n + 1, 2) if module == "sym2" else comb(n, 3)
    return _answer(0, ALL_PASS, "ad = 0 on an abelian algebra, so the whole module is invariant",
                   dimension=dim)


ANSWERS = {
    "check-lie/pass": _answer(
        0, ALL_PASS, "matrix commutators (sl_n), [p_i, q_i] = z (Heisenberg) and the zero "
        "bracket satisfy Jacobi"),
    "check-lie/mutated": _answer(
        1, {"lie-axioms": "fail"}, "the mutated bracket has a nonzero Jacobiator by "
        "construction (gen.jacobi_breaking)"),
    "check-qlb/standard": _answer(
        0, ALL_PASS, "delta = c d(r0) is a coboundary (a cocycle) and r0 = sum e_a ^ f_a "
        "solves the modified CYBE, so co-Jacobi holds with phi = 0 for every c"),
    "check-qlb/noncocycle": _answer(
        1, {"cocycle": "fail", "cojacobi": "pass", "compat": "pass"},
        "delta(h) = e ^ f alone: delta([e, f]) = e ^ f but e.delta(f) - f.delta(e) = 0, "
        "so delta is not a cocycle; [delta, delta] = 0 and phi = 0 keep the other two"),
    "check-qlb/invariant-phi": _answer(
        0, ALL_PASS, "with delta = 0 the axioms reduce to ad-invariance of phi; phi is a "
        "top form of a unimodular algebra, a 3-form containing the centre, or any 3-form "
        "of an abelian algebra"),
    "check-qlb/noninvariant-phi": _answer(
        1, {"cocycle": "pass", "cojacobi": "fail", "compat": "pass"},
        "delta = 0 and phi = p1 ^ p2 ^ q2: q1.phi = -z ^ p2 ^ q2 != 0, so d phi != 0"),
    "twist": _answer(
        0, ALL_PASS, "a twist of a quasi-Lie bialgebra is a quasi-Lie bialgebra"),
    "casimir-phi": _answer(
        0, ALL_PASS, "for an invariant t in Sym^2 g, (g, 0, phi_t) is a quasi-Lie "
        "bialgebra (Drinfeld): phi_t is invariant because t is"),
    "induce": _answer(
        0, ALL_PASS, "the Borel subalgebra is coisotropic for the trace form (b-perp = n "
        "in b), so coisotropic induction yields a quasi-Lie bialgebra on b"),
    "verify-morphism": _answer(
        0, ALL_PASS, "for a coisotropic subalgebra and an invariant Casimir the induction "
        "map is a morphism (the invariance identities hold)"),
    "cybe/standard": _answer(
        0, ALL_PASS, "the Drinfeld-Jimbo r-matrix solves the CYBE and r + r21 is the "
        "invariant trace Casimir; on abelian and central data every bracket vanishes"),
    "cybe/ef-only": _answer(
        1, {"cybe": "fail", "symmetric-part-invariant": "fail"},
        "CYBE(e (x) f) = -e (x) h (x) f != 0, and (e f + f e)/2 is not ad-invariant"),
    "dynamical/ev": _answer(
        0, ALL_PASS, "the rational Etingof-Varchenko r-matrix sum 2/a(x) e_a ^ f_a solves "
        "the CDYBE with zero coupling, is h-equivariant and has symmetric part 0"),
    "dynamical/ev-scaled": _answer(
        1, {"cdybe": "fail", "lambda-form": "fail", "criteria-agree": "pass",
            "symmetric-part-constant": "pass", "symmetric-part-invariant": "pass"},
        "for s r with r a solution the CDYBE residual is (s^2 - s) CYBE(r) = 2 CYBE(r) != 0 "
        "at s = 2; equivariance is linear so it still holds, and the lambda-form residual "
        "is the CDYBE residual up to the factor 4 embedding, so both fail and agree"),
    "double/bialgebra": _answer(
        0, ALL_PASS, "the Drinfeld double of a Lie bialgebra is a Manin triple that "
        "returns the bialgebra"),
    "double/noncocycle": _answer(
        1, {"double-jacobi": "fail"},
        "the bracket on g + g* satisfies Jacobi only if delta is a 1-cocycle, and "
        "delta(h) = e ^ f is not"),
    "triple-check/hyperbolic": _answer(
        0, ALL_PASS, "abelian d = g + g* with the hyperbolic pairing: both halves are "
        "isotropic subalgebras of half dimension and complementary"),
    "triple-check/identity": _answer(
        1, {"quadratic": "pass", "g-lagrangian": "fail", "gstar-lagrangian": "fail",
            "complementary": "pass"},
        "the identity pairing is invariant on an abelian algebra but no nonzero "
        "coordinate subspace is isotropic for it"),
    "std-triple": _answer(
        0, ALL_PASS, "b+ x_h b- is a Lagrangian complement of the diagonal in g + g with "
        "the form (x, -x); the induced bialgebra is the standard one"),
    "mc-residual/standard": _answer(
        0, ALL_PASS, "Maurer-Cartan elements of Pol(Bg, 1) are exactly quasi-Lie "
        "bialgebra structures, and (c d r0, 0) is one (see check-qlb/standard)"),
    "mc-residual/noncocycle": _answer(
        1, {"maurer-cartan": "fail"},
        "the weight-2 part of dx + [x, x]/2 is d delta, nonzero for a non-cocycle"),
    "mc-residual/casimir": _answer(
        0, ALL_PASS, "an invariant Casimir t has d t = 0 and [t, t] = 0 in Pol(Bg, 2) "
        "(t has no g* part to contract), so it is Maurer-Cartan"),
    "mc-residual/invariant-phi": _answer(
        0, ALL_PASS, "(0, phi) with phi invariant is a quasi-Lie bialgebra, hence Maurer-Cartan"),
    "mc-residual/noninvariant-phi": _answer(
        1, {"maurer-cartan": "fail"},
        "(0, phi) with d phi != 0 is not a quasi-Lie bialgebra, so not Maurer-Cartan"),
    # malformed inputs: the CLI contract maps every one of them to exit code 2
    "malformed/bad-json": _answer(2, {"*": "error"}, "the algebra file is not valid JSON"),
    "malformed/unknown-label": _answer(
        2, {"*": "error"}, "a tensor entry names a label outside the basis"),
    "malformed/wrong-signature": _answer(
        2, {"*": "error"}, "--phi gets a sym2 tensor where wedge3 is required"),
    "malformed/zero-denominator": _answer(
        2, {"*": "error"}, "a structure constant reads 1/0"),
    "malformed/non-list-component": _answer(
        2, {"*": "error"}, "a bracket component is a bare number, not a [label, coef] pair"),
    "malformed/missing-file": _answer(2, {"*": "error"}, "the input file does not exist"),
    "malformed/singular-rmatrix": _answer(
        2, {"*": "error"}, "an r-matrix coefficient reads 1/(x-x), a zero denominator"),
}


def lookup(kind: str, **params) -> dict:
    """The answer for a job kind; invariants answers depend on the algebra."""
    if kind == "invariants/semisimple":
        return invariants_semisimple(params["summands"])
    if kind == "invariants/abelian":
        return invariants_abelian(params["n"], params["module"])
    return ANSWERS[kind]


def verdict_matches(answer: dict, facts: dict) -> bool:
    """True when a job's observed facts agree with its known answer."""
    if facts.get("error") is not None or facts["exit"] != answer["exit"]:
        return False
    statuses = facts["checks"]
    if not statuses:
        return False
    default = answer["checks"].get("*")
    for name, status in statuses.items():
        want = answer["checks"].get(name, default)
        if want is not None and status != want:
            return False
    named = [n for n in answer["checks"] if n != "*"]
    if any(n not in statuses for n in named):
        return False
    if "dimension" in answer and facts.get("dimension") != answer["dimension"]:
        return False
    return True


def crash_is_wrong(answer: dict) -> bool:
    """A raised exception on valid input is a wrong verdict; on malformed input (exit 2) the
    verdict is only missing: the job fails, but the known answer is not contradicted."""
    return answer["exit"] != 2
