"""Sparse exact cochains on a Lie algebra, and every tensor on it.

One container, `CECochain`, an element of C^k(g, M): k antisymmetric dual
slots plus the slots of a module M built from the adjoint action
(TRIVIAL, ADJOINT, WEDGE(p), SYM(p), TENSOR(p)).  Tensors on g are the
degree-0 cochains: a p-multivector is `CECochain(g, 0, WEDGE(p))`, stored
on strictly increasing keys, an element of Sym^p g is
`CECochain(g, 0, SYM(p))`, and a plain p-tensor, with no slot symmetry, is
`CECochain(g, 0, TENSOR(p))`; (co)brackets are cochains of higher degree.
A cochain reads its Lie algebra only through ``g.dim`` and
``g.same_structure``, so the algebras themselves live in `lie`.

The ConventionLedger pins every embedding and sign choice the rest of
the library depends on; a single instance is stamped into every CLI
report, and each of its entries has a test in tests/test_ledger.py that
computes the convention it states on sl2 and sl3.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import permutations
from math import factorial, prod
from typing import Callable, Dict, Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple

from .errors import InputError
from .scalars import Scalar, combine, is_zero


class ConventionLedger(NamedTuple):
    """Fixed record of embedding, sign and normalization choices.

    All numeric calibration constants below were determined once on sl2
    by exact computation; the test named test_ledger_<entry> re-computes
    each entry on sl2 and sl3.
    casimir_vs_induced is the factor `qlb.casimir_to_phi` applies to the
    structure a Casimir induces on h = g; it is exact for every invariant
    Casimir, since [c_12, c_23] is then totally antisymmetric and 4 times
    the induced tensor with its first two slots swapped.  It also carries
    the scale of the coisotropic induction formula, which the tests pin on
    every basis-aligned coisotropic subalgebra of sl3, of the double of
    sl2 and of sl2 (+) sl2.
    """

    wedge_embedding: str = "signed permutation sum, no 1/p! factor"
    sym_embedding: str = "distinct permutation sum, no normalization"
    alt_normalization: str = "full signed S_p sum, no 1/p! factor"
    ce_sign: str = "d x (xi) = [x, xi] on degree 0 (negative of the classical alternating sum)"
    big_bracket_pairing: str = "[e^i, e_j] = +delta^i_j for every shift"
    schouten_convention: str = "schouten(a, b) = -[a, d b] in the big bracket; equals the Lie bracket on vectors"
    twist_square: str = "twist uses phi' = phi + [delta, lambda] - 1/2 [lambda, d lambda]"
    # cybe(embed(2*lambda) + c) == kappa_cybe * embed(lambda_form_residual)
    # with lambda_form_residual = 1/2 [[lambda, lambda]] + 1/4 D
    #                             + lambda_form_phi_coeff * casimir_to_phi(c),
    # D = sum_a h_a ^ d r / d x_a the h-derivative of r (see rmatrix)
    kappa_cybe: str = "4"
    lambda_form_phi_coeff: str = "3/2"
    # casimir_to_phi output = casimir_vs_induced * (induced phi at h = g)
    casimir_vs_induced: str = "2/3"

    def to_dict(self) -> Dict[str, str]:
        return self._asdict()


LEDGER = ConventionLedger()

# the calibration constants as numbers, read from the stamped strings
KAPPA_CYBE = Fraction(LEDGER.kappa_cybe)
LAMBDA_FORM_PHI_COEFF = Fraction(LEDGER.lambda_form_phi_coeff)
CASIMIR_VS_INDUCED = Fraction(LEDGER.casimir_vs_induced)


def _sort_with_sign(idx: Sequence[int]) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """Insertion sort counting transpositions; None on repeated index."""
    items = list(idx)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j] < items[j - 1]:
            items[j], items[j - 1] = items[j - 1], items[j]
            sign = -sign
            j -= 1
    for a, b in zip(items, items[1:]):
        if a == b:
            return None
    return sign, tuple(items)


def canonical_terms(
    canon: Callable[[Sequence[int]], Optional[Tuple[int, tuple]]],
    entries: Iterable[Tuple[Sequence[int], Scalar]],
) -> Iterator[Tuple[tuple, Scalar]]:
    """Signed canonical (key, coefficient) terms of raw entries.

    Zero coefficients are dropped before canon sees their index; entries
    that canon maps to None (a repeated antisymmetric index) vanish.
    """
    for idx, coef in entries:
        if is_zero(coef):
            continue
        res = canon(idx)
        if res is not None:
            # multiplying by +1 would rebuild a RationalFunction's numerator
            yield res[1], coef if res[0] == 1 else res[0] * coef


# module descriptors for coefficient systems built from the adjoint action
TRIVIAL = ("triv",)
ADJOINT = ("adjoint",)


def WEDGE(p: int):
    return ("wedge", p)


def SYM(p: int):
    return ("sym", p)


def TENSOR(p: int):
    return ("tensor", p)


def multiplicity_factorial(key: Sequence[int]) -> int:
    """Product of the factorials of the multiplicities of the entries of key."""
    return prod(factorial(key.count(v)) for v in set(key))


KNOWN_MODULES = ("triv", "adjoint", "wedge", "sym", "tensor")


def module_slots(module) -> int:
    """The number of module slots of a cochain's key: 0 for TRIVIAL, 1 for
    ADJOINT, p for WEDGE(p), SYM(p) and TENSOR(p)."""
    return module[1] if len(module) > 1 else int(module == ADJOINT)


def _cochain_canon(module, key) -> Optional[Tuple[int, Tuple[tuple, tuple]]]:
    """The signed canonical form of a (down, up) key of a cochain valued in
    module: the down slots and WEDGE(p) slots sorted with a sign, SYM(p)
    slots sorted, TENSOR(p) slots as they are; None when a repeated
    antisymmetric index kills it."""
    down, up = key
    if not down and module[0] == "tensor":
        return 1, key
    res = _sort_with_sign(down)
    if res is None:
        return None
    sign, down = res
    if module[0] == "wedge":
        res = _sort_with_sign(up)
        if res is None:
            return None
        sign, up = sign * res[0], res[1]
    elif module[0] == "sym":
        up = sorted(up)
    return sign, (down, tuple(up))


class CECochain:
    """Element of C^k(g, M): k antisymmetric dual slots plus module slots.

    ``data`` maps canonical (down, up) keys to nonzero coefficients.
    Immutable by convention."""

    def __init__(self, g, k: int, module, data=None):
        if not module or module[0] not in KNOWN_MODULES:
            raise InputError(f"unsupported module {module!r}")
        self.g = g
        self.k = k
        self.module = module
        clean: Dict[Tuple[tuple, tuple], Scalar] = {}
        if data:
            slots = module_slots(module)
            for (down, up), coef in data.items():
                down, up = tuple(down), tuple(up)
                if len(up) != slots:
                    raise InputError(f"key {(down, up)} has {len(up)} module indices, {module} takes {slots}")
                if not all(0 <= i < g.dim for i in down + up):
                    raise InputError(f"key {(down, up)} has an index outside 0..{g.dim - 1}")
                if len(down) != k or list(down) != sorted(set(down)):
                    raise InputError("down indices must be strictly increasing")
                if _cochain_canon(module, (down, up)) != (1, (down, up)):
                    raise InputError(f"module indices {up} are not canonical for {module}")
                if not is_zero(coef):
                    clean[(down, up)] = coef
        self.data = clean

    @classmethod
    def build(cls, g, k, module, entries) -> "CECochain":
        return cls(g, k, module)._from_terms(canonical_terms(partial(_cochain_canon, module), entries))

    def _from_terms(self, terms) -> "CECochain":
        x = CECochain.__new__(CECochain)
        x.g, x.k, x.module, x.data = self.g, self.k, self.module, combine(terms)
        return x

    def same_shape(self, other: "CECochain") -> bool:
        return (
            self.k == other.k
            and tuple(self.module) == tuple(other.module)
            and self.g.same_structure(other.g)
        )

    def items(self):
        return self.data.items()

    def is_zero(self) -> bool:
        return not self.data

    def support_size(self) -> int:
        return len(self.data)

    def _binary(self, other: "CECochain", flip: int) -> "CECochain":
        if not self.same_shape(other):
            raise InputError("cochain shape mismatch")
        return self._from_terms(
            list(self.data.items()) + [(k, flip * v) for k, v in other.data.items()]
        )

    def __add__(self, other: "CECochain") -> "CECochain":
        return self._binary(other, 1)

    def __sub__(self, other: "CECochain") -> "CECochain":
        return self._binary(other, -1)

    def scale(self, c: Scalar) -> "CECochain":
        return self._from_terms((k, c * v) for k, v in self.data.items())

    def __neg__(self) -> "CECochain":
        return self.scale(Fraction(-1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CECochain):
            return NotImplemented
        return self.same_shape(other) and (self - other).is_zero()

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v}" for k, v in sorted(self.data.items()))
        return f"CECochain(k={self.k}, module={self.module}, {{{inner}}})"


# the names perfbench/tracer.py imports for its tensors.max_support counter;
# they go when ROADMAP item 1 takes the tracer in hand
Multivector = SparseTensor = CECochain


def embed_wedge(x: CECochain) -> CECochain:
    """A WEDGE(p) cochain x1^...^xp -> the TENSOR(p) cochain summed over
    permutations with signs, no 1/p! factor."""
    p = x.module[1]
    entries = []
    for ((), key), coef in x.data.items():
        for perm in permutations(range(p)):
            res = _sort_with_sign(perm)
            sgn = res[0] if res else 1
            entries.append((((), tuple(key[i] for i in perm)), sgn * coef))
    return CECochain.build(x.g, 0, TENSOR(p), entries)
