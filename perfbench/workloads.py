"""Job lists of the four benchmark workloads, generated from a seed.

`build(workload, seed, directory)` writes every input file into
`directory` and returns the job list.  A job is a dict with its id, kind,
the qlie argv (file names relative to `directory`), its input files and
its known answer.  Every job gets its own relabeled copy of each input, so
no two jobs of a workload read the same file contents.

Standard library only; nothing here imports qlie.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from typing import Dict, List

import answers
import gen

WORKLOADS = ("invariants", "dynamical", "bialgebra", "cli-batch")
CLI_BATCH_ROUNDS = 6


class Builder:
    def __init__(self, directory: str, rng: random.Random):
        self.dir = directory
        self.rng = rng
        self.jobs: List[dict] = []

    # -- plumbing -----------------------------------------------------------

    def _next_id(self) -> str:
        return f"j{len(self.jobs):03d}"

    def _write(self, jid: str, role: str, content) -> str:
        name = f"{jid}_{role}.json"
        text = content if isinstance(content, str) else gen.dump(content)
        with open(os.path.join(self.dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        return name

    def _add(self, jid, kind: str, argv: List[str], inputs: List[str], answer: dict, largest=False):
        self.jobs.append({
            "id": jid or self._next_id(),
            "kind": kind,
            "argv": argv,
            "inputs": inputs,
            "answer": answer,
            "largest": largest,
        })

    def _start(self, g: gen.Alg):
        jid = self._next_id()
        rel = gen.Relabel(g, self.rng)
        return jid, rel, self._write(jid, "g", rel.lie_doc())

    def _tensor(self, jid, rel, role, signature, entries, **extra):
        return self._write(jid, role, rel.tensor_doc(signature, entries, **extra))

    # -- one method per job template ----------------------------------------

    def check_lie(self, g: gen.Alg, mutated=False):
        jid = self._next_id()
        rel = gen.Relabel(g, self.rng)
        doc = rel.lie_doc(gen.jacobi_breaking(g) if mutated else g)
        f = self._write(jid, "g", doc)
        kind = "check-lie/mutated" if mutated else "check-lie/pass"
        self._add(jid, kind, ["check-lie", f], [f], answers.lookup(kind))

    def check_qlb(self, g: gen.Alg, kind: str, delta: Dict, phi: Dict):
        jid, rel, f = self._start(g)
        d = self._tensor(jid, rel, "delta", "cobracket", delta)
        p = self._tensor(jid, rel, "phi", "wedge3", phi)
        self._add(jid, kind, ["check-qlb", f, "--delta", d, "--phi", p], [f, d, p],
                  answers.lookup(kind))

    def twist(self, g: gen.Alg, delta: Dict):
        jid, rel, f = self._start(g)
        d = self._tensor(jid, rel, "delta", "cobracket", delta)
        p = self._tensor(jid, rel, "phi", "wedge3", {})
        lam = self._tensor(jid, rel, "lambda", "wedge2", gen.random_wedge(self.rng, range(g.dim), 2))
        self._add(jid, "twist", ["twist", f, "--delta", d, "--phi", p, "--lambda", lam],
                  [f, d, p, lam], answers.lookup("twist"))

    def casimir_phi(self, g: gen.Alg, casimir: Dict):
        jid, rel, f = self._start(g)
        c = self._tensor(jid, rel, "casimir", "sym2", casimir)
        self._add(jid, "casimir-phi", ["casimir-phi", f, "--casimir", c], [f, c],
                  answers.lookup("casimir-phi"))

    def coisotropic(self, g: gen.Alg, command: str, sub: List[int], casimir: Dict):
        jid, rel, f = self._start(g)
        c = self._tensor(jid, rel, "casimir", "sym2", casimir)
        labels = rel.labels(sorted(sub, key=rel.pos.get))
        self._add(jid, command, [command, f, "--sub", ",".join(labels), "--casimir", c],
                  [f, c], answers.lookup(command))

    def cybe(self, g: gen.Alg, kind: str, r: Dict):
        jid, rel, f = self._start(g)
        rf = self._tensor(jid, rel, "r", "gg", r)
        self._add(jid, kind, ["cybe", f, "--r", rf], [f, rf], answers.lookup(kind))

    def dynamical(self, g: gen.Alg, scale=1, largest=False, coefficient=None):
        jid, rel, f = self._start(g)
        entries, names, locus = gen.ev_rmatrix(g, scale)
        if coefficient is not None:  # overwrite one entry with a malformed coefficient
            entries[next(iter(entries))] = coefficient
        perm = list(range(len(names)))
        self.rng.shuffle(perm)
        variables = [names[k] for k in perm]
        sub = [rel.lab(g.meta["cartan"][k]) for k in perm]
        self.rng.shuffle(locus)
        rf = self._tensor(jid, rel, "r", "gg", entries, vars=variables, locus=locus)
        if coefficient is not None:
            kind = "malformed/singular-rmatrix"
        else:
            kind = "dynamical/ev" if scale == 1 else "dynamical/ev-scaled"
        argv = ["dynamical", f, "--sub", ",".join(sub), "--r", rf, "--vars", ",".join(variables)]
        self._add(jid, kind, argv, [f, rf], answers.lookup(kind), largest)

    def double(self, g: gen.Alg, kind: str, delta: Dict):
        jid, rel, f = self._start(g)
        d = self._tensor(jid, rel, "delta", "cobracket", delta)
        self._add(jid, kind, ["double", f, "--delta", d], [f, d], answers.lookup(kind))

    def triple_check(self, g: gen.Alg, identity: bool):
        """g abelian of even dimension; first half against second half."""
        jid, rel, f = self._start(g)
        half = g.dim // 2

        def pairing(i, j):
            if identity:
                return int(i == j)
            return int(abs(i - j) == half)

        matrix = [[str(pairing(rel.order[p], rel.order[q])) for q in range(g.dim)]
                  for p in range(g.dim)]
        m = self._write(jid, "pairing", {"matrix": matrix})
        lo = rel.labels(sorted(range(half), key=rel.pos.get))
        hi = rel.labels(sorted(range(half, g.dim), key=rel.pos.get))
        kind = "triple-check/identity" if identity else "triple-check/hyperbolic"
        self._add(jid, kind, ["triple-check", f, "--g", ",".join(lo), "--gstar", ",".join(hi),
                         "--pairing", m], [f, m], answers.lookup(kind))

    def std_triple(self, algebra: str):
        self._add(None, "std-triple", ["std-triple", "--algebra", algebra], [], answers.lookup("std-triple"))

    def invariants(self, g: gen.Alg, module: str, answer: dict, largest=False):
        jid, rel, f = self._start(g)
        self._add(jid, "invariants", ["invariants", f, "--module", module], [f], answer, largest)

    def mc_shift1(self, g: gen.Alg, kind: str, delta: Dict, phi: Dict, largest=False):
        jid, rel, f = self._start(g)
        d = self._tensor(jid, rel, "delta", "cobracket", delta)
        p = self._tensor(jid, rel, "phi", "wedge3", phi)
        self._add(jid, kind, ["mc-residual", f, "--shift", "1", "--delta", d, "--phi", p],
                  [f, d, p], answers.lookup(kind), largest)

    def mc_shift2(self, g: gen.Alg, casimir: Dict):
        jid, rel, f = self._start(g)
        c = self._tensor(jid, rel, "casimir", "sym2", casimir)
        self._add(jid, "mc-residual/casimir", ["mc-residual", f, "--shift", "2", "--casimir", c],
                  [f, c], answers.lookup("mc-residual/casimir"))

    def malformed(self, g: gen.Alg, what: str):
        """sl2-based malformed inputs; each must exit 2 under the CLI contract."""
        kind = "malformed/" + what
        answer = answers.lookup(kind)
        if what == "singular-rmatrix":
            self.dynamical(g, coefficient="1/(x1-x1)")
            return
        jid = self._next_id()
        rel = gen.Relabel(g, self.rng)
        doc = rel.lie_doc()
        if what == "bad-json":
            text = gen.dump(doc)
            f = self._write(jid, "g", text[: len(text) // 2])
            self._add(jid, kind, ["check-lie", f], [f], answer)
        elif what in ("zero-denominator", "non-list-component"):
            bracket = doc["brackets"][0]
            if what == "zero-denominator":
                bracket[2][0][1] = "1/0"
            else:
                bracket[2] = [7]
            f = self._write(jid, "g", doc)
            self._add(jid, kind, ["check-lie", f], [f], answer)
        elif what == "missing-file":
            f = f"{jid}_missing.json"
            self._add(jid, kind, ["check-lie", f], [f], answer)
        else:
            f = self._write(jid, "g", doc)
            delta = rel.tensor_doc("cobracket", gen.standard_cobracket(g, Fraction(1)))
            phi = rel.tensor_doc("wedge3", {})
            if what == "unknown-label":
                delta["entries"][0]["idx"][1] = "zz0"
            else:  # wrong-signature
                phi = rel.tensor_doc("sym2", gen.trace_casimir(g))
            d = self._write(jid, "delta", delta)
            p = self._write(jid, "phi", phi)
            self._add(jid, kind, ["check-qlb", f, "--delta", d, "--phi", p], [f, d, p], answer)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _invariants(b: Builder):
    sl2, sl3, sl4 = gen.sl(2), gen.sl(3), gen.sl(4)
    s32 = gen.direct_sum(sl3, sl2)
    for g, summands in ((sl2, 1), (sl3, 1), (s32, 2)):
        for module in ("sym2", "wedge3"):
            b.invariants(g, module, answers.lookup("invariants/semisimple", summands=summands))
    b.invariants(sl4, "sym2", answers.lookup("invariants/semisimple", summands=1), largest=True)


def _dynamical(b: Builder):
    for n in (3, 4, 5):
        b.dynamical(gen.sl(n), largest=(n == 5))
    b.dynamical(gen.sl(4), scale=2)


def _bialgebra(b: Builder):
    g = gen.sl(3)
    rng = b.rng
    b.mc_shift1(g, "mc-residual/standard", gen.standard_cobracket(g, gen.random_nonzero(rng)),
                {}, largest=True)
    b.mc_shift1(g, "mc-residual/standard", gen.standard_cobracket(g, gen.random_nonzero(rng)),
                {})
    casimir = gen.trace_casimir(g)
    b.mc_shift2(g, casimir)
    b.check_qlb(g, "check-qlb/standard", gen.standard_cobracket(g, gen.random_nonzero(rng)),
                {})
    b.twist(g, gen.standard_cobracket(g, gen.random_nonzero(rng)))
    b.casimir_phi(g, casimir)
    borel = list(g.meta["cartan"]) + [e for _, _, e, _ in g.meta["roots"]]
    b.coisotropic(g, "induce", borel, casimir)
    b.coisotropic(g, "verify-morphism", borel, casimir)
    b.double(g, "double/bialgebra", gen.standard_cobracket(g, gen.random_nonzero(rng)))
    b.std_triple("sl3")
    b.cybe(g, "cybe/standard", gen.standard_r(g))


def _cli_round(b: Builder, first: bool):
    rng = b.rng
    sl2, h3, h5, a4 = gen.sl(2), gen.heisenberg(3), gen.heisenberg(5), gen.abelian(4)
    h, e, f = sl2.index("h1"), sl2.index("e1_2"), sl2.index("f1_2")
    noncocycle = {(h, e, f): Fraction(1)}
    casimir = gen.trace_casimir(sl2)
    one = answers.lookup("invariants/semisimple", summands=1)
    # sl2: every subcommand, with pass/fail pairs
    b.check_lie(sl2)
    b.check_lie(sl2, mutated=True)
    b.check_qlb(sl2, "check-qlb/standard", gen.standard_cobracket(sl2, gen.random_nonzero(rng)), {})
    b.check_qlb(sl2, "check-qlb/noncocycle", noncocycle, {})
    b.check_qlb(sl2, "check-qlb/invariant-phi", {}, {(h, e, f): gen.random_nonzero(rng)})
    b.twist(sl2, gen.standard_cobracket(sl2, gen.random_nonzero(rng)))
    b.casimir_phi(sl2, casimir)
    b.coisotropic(sl2, "induce", [h, e], casimir)
    b.coisotropic(sl2, "verify-morphism", [h, e], casimir)
    b.cybe(sl2, "cybe/standard", gen.standard_r(sl2))
    b.cybe(sl2, "cybe/ef-only", {(e, f): Fraction(1)})
    b.dynamical(sl2)
    b.dynamical(sl2, scale=2)
    b.double(sl2, "double/bialgebra", gen.standard_cobracket(sl2, gen.random_nonzero(rng)))
    b.double(sl2, "double/noncocycle", noncocycle)
    b.invariants(sl2, "sym2", one)
    b.invariants(sl2, "wedge3", one)
    b.mc_shift1(sl2, "mc-residual/standard", gen.standard_cobracket(sl2, gen.random_nonzero(rng)), {})
    b.mc_shift1(sl2, "mc-residual/noncocycle", noncocycle, {})
    b.mc_shift2(sl2, casimir)
    if first:  # std-triple takes no input file, so it runs once
        b.std_triple("sl2")
    # Heisenberg algebras: phi = p ^ q ^ z type forms are invariant since z is central
    p, q, z = h3.index("p1"), h3.index("q1"), h3.index("z")
    b.check_lie(h3)
    b.check_lie(h3, mutated=True)
    b.check_qlb(h3, "check-qlb/invariant-phi", {}, {(p, q, z): gen.random_nonzero(rng)})
    b.casimir_phi(h3, {(z, z): gen.random_nonzero(rng)})
    b.cybe(h3, "cybe/standard", {(z, z): gen.random_nonzero(rng)})
    b.double(h3, "double/bialgebra", {})
    b.mc_shift1(h3, "mc-residual/invariant-phi", {}, {(p, q, z): gen.random_nonzero(rng)})
    p1, p2, q1, q2, z = (h5.index(x) for x in ("p1", "p2", "q1", "q2", "z"))
    b.check_lie(h5)
    b.check_lie(h5, mutated=True)
    b.check_qlb(h5, "check-qlb/invariant-phi", {}, {(p1, q1, z): gen.random_nonzero(rng)})
    b.check_qlb(h5, "check-qlb/noninvariant-phi", {}, {(p1, p2, q2): gen.random_nonzero(rng)})
    b.mc_shift1(h5, "mc-residual/invariant-phi", {}, {(p1, q1, z): gen.random_nonzero(rng)})
    b.mc_shift1(h5, "mc-residual/noninvariant-phi", {}, {(p1, p2, q2): gen.random_nonzero(rng)})
    # abelian4: every tensor is invariant and every bracket vanishes
    nats = list(range(4))
    b.check_lie(a4)
    b.check_lie(a4, mutated=True)
    b.check_qlb(a4, "check-qlb/invariant-phi", {}, gen.random_wedge(rng, nats, 3))
    b.twist(a4, {})
    pairs = rng.sample([(i, j) for i in nats for j in nats], 8)
    b.cybe(a4, "cybe/standard", {key: gen.random_nonzero(rng) for key in pairs})
    b.double(a4, "double/bialgebra", {})
    b.triple_check(a4, identity=False)
    b.triple_check(a4, identity=True)
    for module in ("sym2", "wedge3"):
        b.invariants(a4, module, answers.lookup("invariants/abelian", n=4, module=module))
    # malformed inputs
    for what in ("bad-json", "unknown-label", "wrong-signature", "zero-denominator",
                 "non-list-component", "missing-file", "singular-rmatrix"):
        b.malformed(sl2, what)


def _cli_batch(b: Builder):
    for i in range(CLI_BATCH_ROUNDS):
        _cli_round(b, first=(i == 0))
    # the slowest job of the list: the CDYBE residual path of the scaled sl2 r-matrix
    next(j for j in b.jobs if j["kind"] == "dynamical/ev-scaled")["largest"] = True


BUILDERS = {
    "invariants": _invariants,
    "dynamical": _dynamical,
    "bialgebra": _bialgebra,
    "cli-batch": _cli_batch,
}


def build(workload: str, seed: int, directory: str) -> List[dict]:
    """Write the inputs of `workload` for `seed` into `directory`; return its jobs."""
    if workload not in BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    os.makedirs(directory, exist_ok=True)
    b = Builder(directory, random.Random(f"{workload}:{seed}"))
    BUILDERS[workload](b)
    if not any(j["largest"] for j in b.jobs):
        raise ValueError(f"workload {workload} names no largest job")
    with open(os.path.join(directory, "jobs.json"), "w", encoding="utf-8") as fh:
        json.dump(b.jobs, fh, indent=1, sort_keys=True)
    return b.jobs
