"""The Fraction-only polynomials and rational functions, kept as an oracle.

`qlie.scalars.Polynomial` once stored every coefficient as a
``fractions.Fraction`` and summed terms through `scalars.combine`, which
starts each key from ``Fraction(0)``.  The library now keeps integral
coefficients as ``int`` and forms a Fraction only where a division
happens.  These are the earlier classes, unchanged apart from their
imports, for the tests to compare against: the same factored
denominators, the same reduction, and Fraction arithmetic throughout.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, Hashable, Iterable, Optional, Tuple, Union

from qlie.errors import InputError

Exponents = Tuple[int, ...]
_ZERO = Fraction(0)


def combine(terms: Iterable[Tuple[Hashable, Fraction]], acc: Optional[dict] = None) -> dict:
    """`scalars.combine` as it was: each key's sum starts from Fraction(0)."""
    out = {} if acc is None else acc
    for key, coef in terms:
        value = out.get(key, _ZERO) + coef
        if value == 0:
            out.pop(key, None)
        else:
            out[key] = value
    return out


class Polynomial:
    """Multivariate polynomial over Q with a fixed variable tuple."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Tuple[str, ...], terms: Dict[Exponents, Fraction] | None = None):
        self.vars = tuple(variables)
        clean: Dict[Exponents, Fraction] = {}
        if terms:
            for exps, c in terms.items():
                c = Fraction(c)
                if c:
                    key = tuple(exps)
                    if len(key) != len(self.vars):
                        raise InputError("exponent tuple does not match variable count")
                    clean[key] = c
        self.terms = clean

    @classmethod
    def _of(cls, variables: Tuple[str, ...], terms: Dict[Exponents, Fraction]) -> "Polynomial":
        """Wrap terms that are already clean: nonzero Fractions on exponent
        tuples of the right length."""
        p = object.__new__(cls)
        p.vars = variables
        p.terms = terms
        return p

    @classmethod
    def const(cls, variables: Tuple[str, ...], value) -> "Polynomial":
        value = Fraction(value)
        if not value:
            return cls(variables, {})
        return cls(variables, {(0,) * len(variables): value})

    @classmethod
    def var(cls, variables: Tuple[str, ...], name: str) -> "Polynomial":
        idx = variables.index(name)
        exps = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls(variables, {exps: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise InputError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def _check(self, other: "Polynomial") -> None:
        if self.vars != other.vars:
            raise InputError("polynomials over different variable tuples")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return Polynomial._of(self.vars, combine(other.terms.items(), dict(self.terms)))

    def __neg__(self) -> "Polynomial":
        return Polynomial._of(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        pairs = other.terms.items()
        return Polynomial._of(
            self.vars,
            combine(
                (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
                for e1, c1 in self.terms.items()
                for e2, c2 in pairs
            ),
        )

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        if not c:
            return Polynomial._of(self.vars, {})
        return Polynomial._of(self.vars, {e: v * c for e, v in self.terms.items()})

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise InputError("negative power of a polynomial")
        out = Polynomial.const(self.vars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        # the support alone: cheap, and equal polynomials share it
        return hash((self.vars, frozenset(self.terms)))

    def leading(self) -> Tuple[Exponents, Fraction]:
        """Leading term in lex order on exponent tuples."""
        exps = max(self.terms)
        return exps, self.terms[exps]

    def derivative(self, var_index: int) -> "Polynomial":
        return Polynomial._of(
            self.vars,
            combine(
                (
                    tuple(e - 1 if i == var_index else e for i, e in enumerate(exps)),
                    c * exps[var_index],
                )
                for exps, c in self.terms.items()
                if exps[var_index]
            ),
        )

    def exact_div(self, divisor: "Polynomial") -> Union["Polynomial", None]:
        """Return self / divisor if the division is exact, else None."""
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = dict(self.terms)
        quo: Dict[Exponents, Fraction] = {}
        dexp, dcoef = divisor.leading()
        while rem:
            # the lex-leading term of rem falls at every step, so each
            # quotient exponent is new
            rexp = max(rem)
            qexp = tuple(a - b for a, b in zip(rexp, dexp))
            if any(e < 0 for e in qexp):
                return None
            qc = rem[rexp] / dcoef
            quo[qexp] = qc
            combine(
                (
                    (tuple(a + b for a, b in zip(e, qexp)), -qc * c)
                    for e, c in divisor.terms.items()
                ),
                rem,
            )
        return Polynomial._of(self.vars, quo)

    def content_monomial(self) -> Exponents:
        """Largest monomial dividing every term (zero tuple if constant-free)."""
        if not self.terms:
            return (0,) * len(self.vars)
        mins = [min(e[i] for e in self.terms) for i in range(len(self.vars))]
        return tuple(mins)

    def shift_down(self, mono: Exponents) -> "Polynomial":
        return Polynomial._of(
            self.vars, {tuple(a - b for a, b in zip(e, mono)): c for e, c in self.terms.items()}
        )

    def rational_content(self) -> Fraction:
        """Positive rational c with self = c * (integer-primitive polynomial)."""
        if not self.terms:
            return Fraction(1)
        num = 0
        den = 1
        for c in self.terms.values():
            num = gcd(num, abs(c.numerator))
            den = den * c.denominator // gcd(den, c.denominator)
        return Fraction(num, den)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
            c = self.terms[exps]
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v for v, e in zip(self.vars, exps) if e
            )
            if mono:
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
            else:
                parts.append(str(c))
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out

    __repr__ = __str__


# ---------------------------------------------------------------------------
# factored denominators: {normalised factor: exponent}
# ---------------------------------------------------------------------------

Factors = Dict[Polynomial, int]


def _normalised_factors(p: Polynomial) -> Tuple[Fraction, Factors]:
    """Split a nonzero p as c * prod(f ** e) over normalised factors f: one
    per variable of p's content monomial, and the rest of p divided by its
    signed rational content unless that rest is constant."""
    n = len(p.vars)
    mono = p.content_monomial()
    factors: Factors = {
        Polynomial._of(p.vars, {tuple(int(j == i) for j in range(n)): Fraction(1)}): e
        for i, e in enumerate(mono)
        if e
    }
    if any(mono):
        p = p.shift_down(mono)
    c = p.rational_content()
    if p.leading()[1] < 0:
        c = -c
    if not p.is_constant():
        factors[p.scale(1 / c)] = 1
    return c, factors


def _times(p: Polynomial, factors: Factors) -> Polynomial:
    """p * prod(f ** e)."""
    for f, e in factors.items():
        for _ in range(e):
            p = p * f
    return p


def _reduce(num: Polynomial, factors: Factors) -> Tuple[Polynomial, Factors]:
    """Exact-divide num by each factor for as long as it divides."""
    if num.is_zero():
        return num, {}
    kept: Factors = {}
    for f, e in factors.items():
        while e:
            q = num.exact_div(f)
            if q is None:
                kept[f] = e
                break
            num, e = q, e - 1
    return num, kept


def _over_lcm(
    a: "RationalFunction", b: "RationalFunction"
) -> Tuple[Polynomial, Polynomial, Factors]:
    """Numerators of a and b over the lcm of their exponent vectors, and that lcm."""
    if a.factors == b.factors:
        return a.num, b.num, a.factors
    lcm = dict(a.factors)
    for f, e in b.factors.items():
        if e > lcm.get(f, 0):
            lcm[f] = e
    return (
        _times(a.num, {f: e - a.factors.get(f, 0) for f, e in lcm.items()}),
        _times(b.num, {f: e - b.factors.get(f, 0) for f, e in lcm.items()}),
        lcm,
    )


class RationalFunction:
    """Numerator polynomial over a multiset of normalised denominator factors."""

    __slots__ = ("vars", "num", "factors")

    def __init__(self, num: Polynomial, den: Polynomial):
        if num.vars != den.vars:
            raise InputError("numerator and denominator over different variables")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        c, factors = _normalised_factors(den)
        self.vars = num.vars
        self.num, self.factors = _reduce(num.scale(1 / c), factors)

    @classmethod
    def _of(cls, num: Polynomial, factors: Factors) -> "RationalFunction":
        """num / prod(f ** e) for a reduced pair."""
        r = object.__new__(cls)
        r.vars = num.vars
        r.num = num
        r.factors = factors
        return r

    @classmethod
    def const(cls, variables: Tuple[str, ...], value) -> "RationalFunction":
        return cls._of(Polynomial.const(variables, value), {})

    @classmethod
    def var(cls, variables: Tuple[str, ...], name: str) -> "RationalFunction":
        return cls._of(Polynomial.var(variables, name), {})

    @property
    def den(self) -> Polynomial:
        """The expanded denominator: primitive, positive lex-leading coefficient."""
        return _times(Polynomial.const(self.vars, 1), self.factors)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return not self.factors and self.num.is_constant()

    def constant_value(self) -> Fraction:
        if self.factors:
            raise InputError("rational function is not constant")
        return self.num.constant_value()

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            if other.vars != self.vars:
                raise InputError("rational functions over different variables")
            return other
        if isinstance(other, (int, Fraction)):
            return RationalFunction.const(self.vars, other)
        raise TypeError(f"cannot combine RationalFunction with {type(other)!r}")

    def __add__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        if o.is_zero():
            return self
        if self.is_zero():
            return o
        a, b, lcm = _over_lcm(self, o)
        return RationalFunction._of(*_reduce(a + b, lcm))

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction._of(-self.num, self.factors)

    def __sub__(self, other) -> "RationalFunction":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RationalFunction":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "RationalFunction":
        if isinstance(other, (int, Fraction)):
            # a nonzero constant changes no divisibility
            if not other:
                return RationalFunction.const(self.vars, 0)
            return RationalFunction._of(self.num.scale(other), self.factors)
        o = self._coerce(other)
        factors = dict(self.factors)
        for f, e in o.factors.items():
            factors[f] = factors.get(f, 0) + e
        return RationalFunction._of(*_reduce(self.num * o.num, factors))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        c, factors = _normalised_factors(o.num)
        for f, e in self.factors.items():
            factors[f] = factors.get(f, 0) + e
        num = _times(self.num.scale(1 / c), o.factors)
        return RationalFunction._of(*_reduce(num, factors))

    def __rtruediv__(self, other) -> "RationalFunction":
        return self._coerce(other) / self

    def __pow__(self, k: int) -> "RationalFunction":
        if k < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return (1 / self) ** (-k)
        factors = {f: e * k for f, e in self.factors.items()}
        return RationalFunction._of(*_reduce(self.num**k, factors))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.const(self.vars, other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if self.vars != other.vars:
            return False
        a, b, _ = _over_lcm(self, other)
        return a == b

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.vars, "ratfun"))

    def derivative(self, name: str) -> "RationalFunction":
        """d(num / prod f^e) over prod f^(e+1) for the factors f that move:
        num' prod f - num sum_k e_k f_k' prod_(j != k) f_j."""
        i = self.vars.index(name)
        moving = []
        for f, e in self.factors.items():
            df = f.derivative(i)
            if not df.is_zero():
                moving.append((f, e, df))
        total = _times(self.num.derivative(i), {f: 1 for f, _, _ in moving})
        for k, (_, e, df) in enumerate(moving):
            others = {g: 1 for j, (g, _, _) in enumerate(moving) if j != k}
            total = total - _times(self.num * df.scale(e), others)
        factors = dict(self.factors)
        for f, _, _ in moving:
            factors[f] += 1
        return RationalFunction._of(*_reduce(total, factors))

    def __str__(self) -> str:
        if not self.factors:
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__
