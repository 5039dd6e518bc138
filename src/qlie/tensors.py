"""Sparse exact tensors on a fixed finite-dimensional space.

Slots carry a variance ("up" for the space itself, "down" for its dual)
and are organized into symmetry groups (none / antisymmetric /
symmetric).  Storage keeps one canonically ordered representative per
orbit: strictly increasing tuples inside antisymmetric groups, weakly
increasing inside symmetric ones.  Reading a non-canonical tuple returns
the signed canonical value.

The ConventionLedger pins every embedding and sign choice the rest of
the library depends on; a single instance is stamped into every CLI
report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import InputError
from .scalars import Scalar, combine, is_zero

UP = "up"
DOWN = "down"


@dataclass(frozen=True)
class ConventionLedger:
    """Fixed record of embedding, sign and normalization choices.

    All numeric calibration constants below were determined once on sl2
    by exact computation and are re-verified on sl3 by the test suite.
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
    gauge_orientation: str = "gauge ODE checked as d alpha/dt = D lambda + [alpha, lambda] in the stored structure maps"
    # cybe(embed(2*lambda) + c) == kappa_cybe * embed(lambda_form_residual)
    # with lambda_form_residual = 1/2 schouten(lambda,lambda) + Alt(d_dR lambda)
    #                             + lambda_form_phi_coeff * casimir_to_phi(c)
    kappa_cybe: str = "4"
    lambda_form_phi_coeff: str = "3/2"
    # casimir_to_phi output = casimir_vs_induced * (induced phi at h = g)
    casimir_vs_induced: str = "2/3"

    def to_dict(self) -> Dict[str, str]:
        return {
            "wedge_embedding": self.wedge_embedding,
            "sym_embedding": self.sym_embedding,
            "alt_normalization": self.alt_normalization,
            "ce_sign": self.ce_sign,
            "big_bracket_pairing": self.big_bracket_pairing,
            "schouten_convention": self.schouten_convention,
            "twist_square": self.twist_square,
            "gauge_orientation": self.gauge_orientation,
            "kappa_cybe": self.kappa_cybe,
            "lambda_form_phi_coeff": self.lambda_form_phi_coeff,
            "casimir_vs_induced": self.casimir_vs_induced,
        }


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
            yield res[1], res[0] * coef


class SparseVector:
    """Linear structure shared by the sparse containers.

    ``data`` maps canonical keys to nonzero coefficients.  Subclasses
    supply ``same_shape(other)``, ``_from_terms(terms)`` (a vector of the
    same shape summed from canonical terms) and the ``_mismatch`` message.
    """

    data: Dict[tuple, Scalar]
    _mismatch = "shape mismatch"

    def items(self):
        return self.data.items()

    def is_zero(self) -> bool:
        return not self.data

    def support_size(self) -> int:
        return len(self.data)

    def _binary(self, other, flip: int):
        if not self.same_shape(other):
            raise InputError(self._mismatch)
        return self._from_terms(
            list(self.data.items()) + [(k, flip * v) for k, v in other.data.items()]
        )

    def __add__(self, other):
        return self._binary(other, 1)

    def __sub__(self, other):
        return self._binary(other, -1)

    def scale(self, c: Scalar):
        return self._from_terms((k, c * v) for k, v in self.data.items())

    def __neg__(self):
        return self.scale(Fraction(-1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.same_shape(other) and (self - other).is_zero()


@dataclass(frozen=True)
class SlotGroup:
    kind: str  # "none" | "anti" | "sym"
    slots: Tuple[int, ...]


class Signature:
    """Shape of a sparse tensor: dimension, variances, symmetry groups."""

    def __init__(self, dim: int, variances: Sequence[str], groups: Sequence[SlotGroup]):
        self.dim = dim
        self.variances = tuple(variances)
        self.groups = tuple(groups)
        seen: List[int] = []
        for g in self.groups:
            if g.kind not in ("none", "anti", "sym"):
                raise InputError(f"unknown symmetry kind {g.kind!r}")
            for s in g.slots:
                if s in seen:
                    raise InputError("slot listed in two symmetry groups")
                seen.append(s)
            if len({self.variances[s] for s in g.slots}) > 1:
                raise InputError("symmetry group mixes variances")
        if sorted(seen) != list(range(len(self.variances))):
            raise InputError("symmetry groups must cover all slots exactly once")

    @property
    def arity(self) -> int:
        return len(self.variances)

    def canonicalize(self, idx: Sequence[int]) -> Optional[Tuple[int, Tuple[int, ...]]]:
        if len(idx) != self.arity:
            raise InputError("index tuple has wrong arity")
        for i in idx:
            if not 0 <= i < self.dim:
                raise InputError("index out of range")
        out = list(idx)
        sign = 1
        for g in self.groups:
            sub = [out[s] for s in g.slots]
            if g.kind == "anti":
                res = _sort_with_sign(sub)
                if res is None:
                    return None
                sgn, sub = res
                sign *= sgn
            elif g.kind == "sym":
                sub = tuple(sorted(sub))
            else:
                sub = tuple(sub)
            for s, v in zip(g.slots, sub):
                out[s] = v
        return sign, tuple(out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Signature)
            and self.dim == other.dim
            and self.variances == other.variances
            and self.groups == other.groups
        )

    def __repr__(self) -> str:
        return f"Signature(dim={self.dim}, variances={self.variances}, groups={self.groups})"


def plain_signature(dim: int, arity: int, variance: str = UP) -> Signature:
    return Signature(
        dim,
        [variance] * arity,
        [SlotGroup("none", (i,)) for i in range(arity)],
    )


class SparseTensor(SparseVector):
    """Immutable-by-convention sparse tensor with exact coefficients."""

    _mismatch = "tensor signature mismatch"

    def __init__(self, sig: Signature, data: Optional[Dict[Tuple[int, ...], Scalar]] = None):
        self.sig = sig
        clean: Dict[Tuple[int, ...], Scalar] = {}
        if data:
            for idx, coef in data.items():
                if is_zero(coef):
                    continue
                res = sig.canonicalize(idx)
                if res is None:
                    raise InputError(f"repeated index {idx} in antisymmetric group")
                sgn, key = res
                if key != tuple(idx):
                    raise InputError(f"non-canonical index tuple {idx} in tensor constructor")
                if sgn != 1:
                    raise InputError("canonical representative must carry sign +1")
                clean[key] = coef
        self.data = clean

    @classmethod
    def build(cls, sig: Signature, entries: Iterable[Tuple[Sequence[int], Scalar]]) -> "SparseTensor":
        """Accumulate arbitrary (index, coefficient) contributions."""
        return cls(sig)._from_terms(canonical_terms(sig.canonicalize, entries))

    def _from_terms(self, terms) -> "SparseTensor":
        t = SparseTensor.__new__(SparseTensor)
        t.sig, t.data = self.sig, combine(terms)
        return t

    def same_shape(self, other: "SparseTensor") -> bool:
        return self.sig == other.sig

    def get(self, idx: Sequence[int]) -> Scalar:
        res = self.sig.canonicalize(idx)
        if res is None:
            return Fraction(0)
        sgn, key = res
        coef = self.data.get(key)
        if coef is None:
            return Fraction(0)
        return sgn * coef

    def expanded_items(self):
        """Iterate over all distinct index tuples in each symmetry orbit."""
        for key, coef in self.data.items():
            seen = set()
            positions_by_group = [g.slots for g in self.sig.groups]
            kinds = [g.kind for g in self.sig.groups]

            def orbits(i, current, sign):
                if i == len(positions_by_group):
                    tup = tuple(current)
                    if tup not in seen:
                        seen.add(tup)
                        yield tup, sign
                    return
                slots = positions_by_group[i]
                if kinds[i] == "none" or len(slots) == 1:
                    yield from orbits(i + 1, current, sign)
                    return
                vals = [key[s] for s in slots]
                for perm in permutations(range(len(vals))):
                    arranged = [vals[p] for p in perm]
                    if kinds[i] == "anti":
                        res = _sort_with_sign(perm)
                        psign = res[0] if res else 1
                    else:
                        psign = 1
                    nxt = list(current)
                    for s, v in zip(slots, arranged):
                        nxt[s] = v
                    yield from orbits(i + 1, nxt, sign * psign)

            yield from ((tup, sgn * coef) for tup, sgn in orbits(0, list(key), 1))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v}" for k, v in sorted(self.data.items()))
        return f"SparseTensor({{{inner}}})"


class Multivector(SparseVector):
    """Element of the p-th exterior power, stored on increasing tuples."""

    _mismatch = "multivector shape mismatch"

    def __init__(self, dim: int, p: int, data: Optional[Dict[Tuple[int, ...], Scalar]] = None):
        self.dim = dim
        self.p = p
        clean: Dict[Tuple[int, ...], Scalar] = {}
        if data:
            for idx, coef in data.items():
                idx = tuple(idx)
                if len(idx) != p:
                    raise InputError("multivector entry of wrong arity")
                if list(idx) != sorted(set(idx)):
                    raise InputError("multivector keys must be strictly increasing")
                if not is_zero(coef):
                    clean[idx] = coef
        self.data = clean

    @classmethod
    def build(cls, dim: int, p: int, entries: Iterable[Tuple[Sequence[int], Scalar]]) -> "Multivector":
        return cls(dim, p)._from_terms(canonical_terms(_sort_with_sign, entries))

    def _from_terms(self, terms) -> "Multivector":
        mv = Multivector.__new__(Multivector)
        mv.dim, mv.p, mv.data = self.dim, self.p, combine(terms)
        return mv

    def same_shape(self, other: "Multivector") -> bool:
        return (self.dim, self.p) == (other.dim, other.p)

    @classmethod
    def zero(cls, dim: int, p: int) -> "Multivector":
        return cls(dim, p, {})

    @classmethod
    def basis(cls, dim: int, idx: Sequence[int]) -> "Multivector":
        return cls.build(dim, len(idx), [(tuple(idx), Fraction(1))])

    def get(self, idx: Sequence[int]) -> Scalar:
        res = _sort_with_sign(idx)
        if res is None:
            return Fraction(0)
        sgn, key = res
        return sgn * self.data.get(key, Fraction(0))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v}" for k, v in sorted(self.data.items()))
        return f"Multivector(p={self.p}, {{{inner}}})"


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Exterior product; bilinear, graded-commutative, associative."""
    if a.dim != b.dim:
        raise InputError("wedge of multivectors over different spaces")
    entries = []
    for ka, va in a.data.items():
        for kb, vb in b.data.items():
            entries.append((ka + kb, va * vb))
    return Multivector.build(a.dim, a.p + b.p, entries)


def embed_wedge(mv: Multivector) -> SparseTensor:
    """x1^...^xp -> sum over permutations with signs, no 1/p! factor."""
    sig = plain_signature(mv.dim, mv.p, UP)
    entries = []
    for key, coef in mv.data.items():
        for perm in permutations(range(mv.p)):
            res = _sort_with_sign(perm)
            sgn = res[0] if res else 1
            entries.append((tuple(key[i] for i in perm), sgn * coef))
    return SparseTensor.build(sig, entries)


def alt_tensor(t: SparseTensor) -> SparseTensor:
    """Full signed antisymmetrization over all slots, no normalization."""
    if any(g.kind != "none" for g in t.sig.groups):
        raise InputError("alt expects a plain tensor")
    arity = t.sig.arity
    entries = []
    for key, coef in t.data.items():
        for perm in permutations(range(arity)):
            res = _sort_with_sign(perm)
            sgn = res[0] if res else 1
            entries.append((tuple(key[i] for i in perm), sgn * coef))
    return SparseTensor.build(plain_signature(t.sig.dim, arity, t.sig.variances[0]), entries)
