"""Exact scalars: rationals and multivariate rational functions.

Rationals are plain ``fractions.Fraction`` (lowest terms, positive
denominator, courtesy of the stdlib).  A polynomial over a fixed ordered
variable tuple stores each coefficient as an ``int`` when it is integral
and as a Fraction otherwise, so sums and products of integral terms (the
numerators 2 and root-hyperplane factors x_i - x_j of the dynamical
r-matrices) form no Fraction; `exact_div` takes an exact int quotient as
an int and forms ``Fraction(a, b)`` only for the others.  What leaves a
polynomial is unchanged:
`constant_value` is a Fraction, and ``2`` and ``Fraction(2)`` print alike.

A polynomial keys each term by one int that packs its exponent vector.
Each variable takes a 32-bit field, variable 0 the most significant one,
so the order of the keys is the lex order of the exponent tuples and the
largest key is the lex-leading term that `exact_div` and the factor
normalisation divide by.  A monomial product is one int addition, and a
one-term factor only shifts the other factor's keys.  The top bit of
every field is a guard bit that no stored key sets: exponents stay below
2^31, so adding two fields never carries into the next one.  `exact_div`
forms a quotient key as ``((r | G) - d) ^ G`` over the guard mask G; a
field that borrows clears its guard bit, and a guard bit left in the
result means d does not divide r.  An exponent of 2^31 or more, given to
the constructor or reached by a product, is an `InputError` (inputs are
at most 1 MiB, so a parsed degree stays far below it).  The guard mask of
n fields is built once per n, on first use, into a table.  `terms` shows
the terms as {exponent tuple: coefficient}, a new dict on each read.  No
polynomial changes its terms once built, so each keeps its hash, that of
its variables and its set of keys, in a slot once it is first taken:
factor dicts hash their keys on every lookup.

A rational function is a numerator polynomial over a multiset of
normalised denominator factors, ``num / prod(f ** e)``.  A normalised
factor is either a single variable or a non-constant polynomial with no
monomial factor, divided by its rational content and signed so that its
lex-leading coefficient is positive.  Every polynomial that is divided by
(by ``/``, by the ``RationalFunction(num, den)`` constructor, hence by
the parser) is split as ``c * x^m * q``: the constant c goes into the
numerator, each variable of the monomial x^m becomes a factor and so does
q.  The factors are not factored further and no multivariate gcd is
taken.  Instead:

* ``+`` brings both sides over the lcm of their exponent vectors (one
  walk over both factor dicts gives the lcm and both cofactors), ``*``
  adds the exponent vectors, and ``d(f^-e) = -e f' f^-(e+1)`` gives the
  derivative;
* the reduction then exact-divides the numerator by each factor for as
  long as it divides, lowering that factor's exponent.  A nonzero
  constant numerator (the 2 and 4 of the dynamical r-matrices) is not
  divided at all: no non-constant factor divides it.

Normalised factors need not be coprime (x - 1 and x^2 - 1 are two keys),
so the reduced form of a product or a sum depends on the order of its
operands and of the factors: (x-1)/(x^2-1) * (x+1)/(x-1) reduces to
1/(x-1), the other order to (x+1)/(x^2-1).  The callers keep every
operation in a fixed order so that printed results are reproducible.

The poles of the dynamical r-matrices checked here lie on a few root
hyperplanes, so denominators stay products of powers of a few factors and
sums do not swell.  The representation is not canonical (the factors x+y
and x^2+2xy+y^2 are different keys), so equality is decided by bringing
both sides over the lcm and comparing numerators, never by sampling.  The
expanded denominator ``den`` is primitive with a positive lex-leading
coefficient; a value is constant exactly when it has no factors left,
since the reduction cancels every factor of a constant quotient.

`scalar_text` prints a scalar for a report, as ``str`` does, and prints
an integer past the interpreter's digit limit for ``str`` (4300 by
default) exactly too, in pieces; a polynomial prints its coefficients
with it.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import comb, gcd, lcm, log10, prod
from typing import Callable, Dict, Hashable, Iterable, Optional, Sequence, Tuple, Union

from .errors import InputError

Exponents = Tuple[int, ...]

# integer exponent literals in a scalar expression are capped: x^99999999
# or 2^99999999 would take seconds to expand before anything could check it
MAX_EXPONENT = 64
# so is the total degree of a power's result, since nested powers multiply:
# ((x+y+1)^8)^8 has degree 64, and (x+y+1)^64 takes about ten times as long
# to expand as (x+y+1)^32
MAX_POWER_DEGREE = 32
# and, for degree-0 bases such as ((2^64)^64)^64, the size of its
# coefficients: at most the digits of the longest integer literal int()
# reads (Python's default of 4300 where no limit is set); products,
# quotients and sums are held to the same estimate, since
# (10^64)^64*(10^64)^64 and (10^64)^64+1/(10^64)^64 take two accepted
# powers past it
_DEFAULT_LITERAL_DIGITS = 4300
# a product, quotient or power may form at most this many terms before
# like terms are collected, counted from bounds on the sizes of its
# factors: (x+y+z+1)^12*(x+y+z+1)^12 forms 207,025 and takes over a
# second, (x+y+1)^32 forms about 26,000 and takes a quarter of one
MAX_TERMS_FORMED = 100_000
# parentheses and unary signs nest at most this deep: a level of
# parentheses is four frames of the recursive parser, and ((...1...)) 250
# deep met the interpreter's recursion limit
MAX_NESTING = 100


Coef = Union[int, Fraction]  # a polynomial coefficient: int when integral


def _exact(c) -> Coef:
    """c as an int when it is integral, else as a Fraction; an int or a
    non-integral Fraction is returned as it is."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


# str() refuses an int of more digits than the interpreter's limit (4300 by
# default, and never below 640), so `scalar_text` prints a longer one in
# pieces of at most _SAFE_BITS bits, about 570 digits each
_SAFE_BITS = 1900


def _int_text(n: int) -> str:
    """The decimal digits of n, exactly, at any size."""
    if n.bit_length() <= _SAFE_BITS:
        return str(n)
    if n < 0:
        return "-" + _int_text(-n)
    k = int(n.bit_length() * log10(2)) // 2
    high, low = divmod(n, 10**k)
    return _int_text(high) + _int_text(low).zfill(k)


def scalar_text(x) -> str:
    """A scalar as report text: what str(x) gives, also past the digit limit
    of str(), where str() raises."""
    if type(x) is int:
        return _int_text(x)
    if type(x) is Fraction:
        num = _int_text(x.numerator)
        return num if x.denominator == 1 else f"{num}/{_int_text(x.denominator)}"
    return str(x)  # a RationalFunction prints its coefficients with scalar_text


# packed exponent keys (see the module docstring): variable i of n starts at
# bit _FIELD * (n - 1 - i), and the top bit of each field is its guard bit
_FIELD = 32
_FIELD_MASK = (1 << _FIELD) - 1
_EXPONENT_LIMIT = 1 << (_FIELD - 1)


class _GuardTable(dict):
    """The guard bits of n fields, at n: each mask is built on first use."""

    def __missing__(self, n: int) -> int:
        self[n] = mask = ((1 << (_FIELD * n)) - 1) // _FIELD_MASK << (_FIELD - 1)
        return mask


_guard = _GuardTable().__getitem__


def _shifts(n: int) -> range:
    """Where the field of each of n variables starts, variable 0 highest."""
    return range(_FIELD * (n - 1), -1, -_FIELD)


def _pack(exps: Sequence[int]) -> int:
    for e in exps:
        if not 0 <= e < _EXPONENT_LIMIT:
            raise InputError(f"exponent {e} is outside 0 .. {_EXPONENT_LIMIT - 1}")
    return sum(e << s for e, s in zip(exps, _shifts(len(exps))))


def _unpack(key: int, n: int) -> Exponents:
    return tuple(key >> s & _FIELD_MASK for s in _shifts(n))


def _check_guards(keys: Iterable[int], n: int) -> None:
    """Refuse a sum of keys that set a guard bit: an exponent at the limit."""
    if any(map(_guard(n).__and__, keys)):
        raise InputError(f"a polynomial exponent reached {_EXPONENT_LIMIT}")


def _poly_sum(terms: Iterable[Tuple[int, Coef]], acc: Optional[Dict[int, Coef]] = None) -> Dict[int, Coef]:
    """Sum (key, coefficient) terms into acc (a new dict by default),
    each key from int 0; zero sums are dropped and integral ones stored as
    ints."""
    out: Dict[int, Coef] = {} if acc is None else acc
    for key, c in terms:
        v = out.get(key, 0) + c
        if not v:
            out.pop(key, None)
        elif type(v) is Fraction and v.denominator == 1:
            out[key] = v.numerator
        else:
            out[key] = v
    return out


class Polynomial:
    """Multivariate polynomial over Q with a fixed variable tuple, its terms
    kept as {packed exponent key: coefficient}."""

    __slots__ = ("vars", "_terms", "_hash")

    def __init__(self, variables: Tuple[str, ...], terms: Dict[Exponents, Coef] | None = None):
        self.vars = tuple(variables)
        clean: Dict[int, Coef] = {}
        if terms:
            for exps, c in terms.items():
                c = _exact(c)
                if c:
                    exps = tuple(exps)
                    if len(exps) != len(self.vars):
                        raise InputError("exponent tuple does not match variable count")
                    clean[_pack(exps)] = c
        self._terms = clean

    @classmethod
    def _of(cls, variables: Tuple[str, ...], terms: Dict[int, Coef]) -> "Polynomial":
        """Wrap terms that are already clean: nonzero coefficients, ints when
        integral, on packed keys with no guard bit set."""
        p = object.__new__(cls)
        p.vars = variables
        p._terms = terms
        return p

    @property
    def terms(self) -> Dict[Exponents, Coef]:
        """The terms as {exponent tuple: coefficient}, a new dict."""
        n = len(self.vars)
        return {_unpack(k, n): c for k, c in self._terms.items()}

    @classmethod
    def const(cls, variables: Tuple[str, ...], value) -> "Polynomial":
        value = _exact(value)
        if not value:
            return cls._of(tuple(variables), {})
        return cls._of(tuple(variables), {0: value})

    @classmethod
    def var(cls, variables: Tuple[str, ...], name: str) -> "Polynomial":
        variables = tuple(variables)
        return cls._of(variables, {1 << _shifts(len(variables))[variables.index(name)]: 1})

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not any(self._terms)

    def constant_value(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_constant():
            raise InputError("polynomial is not constant")
        return Fraction(next(iter(self._terms.values())))

    def _check(self, other: "Polynomial") -> None:
        if self.vars != other.vars:
            raise InputError("polynomials over different variable tuples")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return Polynomial._of(self.vars, _poly_sum(other._terms.items(), dict(self._terms)))

    def __neg__(self) -> "Polynomial":
        return Polynomial._of(self.vars, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        a, b = self._terms, other._terms
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            # a one-term factor shifts the other's keys, which stay distinct
            (kb, cb), = b.items()
            out = {}
            for k, c in a.items():
                v = c * cb
                out[k + kb] = v.numerator if type(v) is Fraction and v.denominator == 1 else v
        else:
            pairs = b.items()
            out = _poly_sum((k1 + k2, c1 * c2) for k1, c1 in a.items() for k2, c2 in pairs)
        _check_guards(out, len(self.vars))
        return Polynomial._of(self.vars, out)

    def scale(self, c) -> "Polynomial":
        c = _exact(c)
        if not c:
            return Polynomial._of(self.vars, {})
        return Polynomial._of(self.vars, {k: _exact(v * c) for k, v in self._terms.items()})

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
        return self.vars == other.vars and self._terms == other._terms

    def __hash__(self):
        # the support alone, and equal polynomials share it; taken once,
        # since no polynomial changes its terms once built
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash((self.vars, frozenset(self._terms)))
            return h

    def leading(self) -> Tuple[Exponents, Coef]:
        """Leading term in lex order on exponent tuples: the largest key."""
        key = max(self._terms)
        return _unpack(key, len(self.vars)), self._terms[key]

    def derivative(self, var_index: int) -> "Polynomial":
        shift = _shifts(len(self.vars))[var_index]
        one = 1 << shift
        return Polynomial._of(
            self.vars,
            _poly_sum(
                (k - one, c * (k >> shift & _FIELD_MASK))
                for k, c in self._terms.items()
                if k >> shift & _FIELD_MASK
            ),
        )

    def exact_div(self, divisor: "Polynomial") -> Union["Polynomial", None]:
        """Return self / divisor if the division is exact, else None."""
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        guard = _guard(len(self.vars))
        rem = dict(self._terms)
        quo: Dict[int, Coef] = {}
        dkey = max(divisor._terms)
        dcoef = divisor._terms[dkey]
        dterms = divisor._terms.items()
        while rem:
            # the lex-leading term of rem falls at every step, so each
            # quotient key is new
            rkey = max(rem)
            if rkey & guard:
                # a sum of a quotient and a divisor key reached the limit
                raise InputError(f"a polynomial exponent reached {_EXPONENT_LIMIT}")
            qkey = ((rkey | guard) - dkey) ^ guard
            if qkey & guard:  # a field borrowed: dkey does not divide rkey
                return None
            rc = rem[rkey]
            if type(rc) is int and type(dcoef) is int and not rc % dcoef:
                qc = rc // dcoef
            else:
                qc = _exact(Fraction(rc, dcoef))
            quo[qkey] = qc
            _poly_sum(((k + qkey, -qc * c) for k, c in dterms), rem)
        return Polynomial._of(self.vars, quo)

    def content_monomial(self) -> Exponents:
        """Largest monomial dividing every term (zero tuple if constant-free)."""
        keys, n = self._terms, len(self.vars)
        if not keys or 0 in keys:
            return (0,) * n
        return tuple(min(k >> s & _FIELD_MASK for k in keys) for s in _shifts(n))

    def shift_down(self, mono: Exponents) -> "Polynomial":
        """self / x^mono for a monomial that divides every term."""
        key = _pack(mono)
        return Polynomial._of(self.vars, {k - key: c for k, c in self._terms.items()})

    def rational_content(self) -> Fraction:
        """Positive rational c with self = c * (integer-primitive polynomial)."""
        if not self._terms:
            return Fraction(1)
        num = 0
        den = 1
        for c in self._terms.values():
            num = gcd(num, abs(c.numerator))
            den = den * c.denominator // gcd(den, c.denominator)
        return Fraction(num, den)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        terms = self.terms
        for exps in sorted(terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
            c = terms[exps]
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v for v, e in zip(self.vars, exps) if e
            )
            if mono:
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{scalar_text(c)}*{mono}")
            else:
                parts.append(scalar_text(c))
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
    mono = p.content_monomial()
    factors: Factors = {
        Polynomial._of(p.vars, {1 << s: 1}): e for s, e in zip(_shifts(len(p.vars)), mono) if e
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
    """Exact-divide num by each factor for as long as it divides.  No
    non-constant factor divides a nonzero constant, so a constant num keeps
    every factor with a positive exponent."""
    if num.is_zero():
        return num, {}
    if len(num._terms) == 1 and 0 in num._terms:
        return num, {f: e for f, e in factors.items() if e}
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
    """Numerators of a and b over the lcm of their exponent vectors, and that lcm.
    One walk over a's factors, then b's, forms the lcm and the cofactors
    lcm / a and lcm / b, each in the lcm's order."""
    fa, fb = a.factors, b.factors
    if fa == fb:
        return a.num, b.num, fa
    lcm: Factors = {}
    up_a: Factors = {}
    up_b: Factors = {}
    for f, ea in fa.items():
        eb = fb.get(f, 0)
        if eb > ea:
            lcm[f] = eb
            up_a[f] = eb - ea
        else:
            lcm[f] = ea
            if ea > eb:
                up_b[f] = ea - eb
    for f, eb in fb.items():
        if f not in fa:
            lcm[f] = up_a[f] = eb
    return _times(a.num, up_a), _times(b.num, up_b), lcm


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

    def __bool__(self) -> bool:
        return bool(self.num._terms)

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


Scalar = Union[Fraction, RationalFunction]


def is_zero(s: Scalar) -> bool:
    if isinstance(s, RationalFunction):
        return s.is_zero()
    return s == 0


# ---------------------------------------------------------------------------
# sparse combinations: dicts from keys to nonzero scalars
# ---------------------------------------------------------------------------

Sparse = Dict[Hashable, Scalar]


def combine(terms: Iterable[Tuple[Hashable, Scalar]], acc: Optional[Sparse] = None) -> Sparse:
    """Sum (key, coefficient) terms into acc (a new dict by default),
    dropping every key whose sum is zero; returns acc.  A key's first term
    is stored as it is, an int as a Fraction: the value Fraction(0) + coef
    would have, without the addition."""
    out: Sparse = {} if acc is None else acc
    for key, coef in terms:
        value = out.get(key)
        if value is None:
            value = Fraction(coef) if type(coef) is int else coef
        else:
            value = value + coef
        if is_zero(value):
            out.pop(key, None)
        else:
            out[key] = value
    return out


def vec_add(a: Sparse, b: Sparse, scale: Scalar = Fraction(1)) -> Sparse:
    """a + scale * b as a new sparse dict."""
    return combine(((k, scale * c) for k, c in b.items()), dict(a))


def vec_scale(a: Sparse, c: Scalar) -> Sparse:
    """c * a as a new sparse dict."""
    if is_zero(c):
        return {}
    return {k: c * v for k, v in a.items()}


# Integer-numerator sums: the terms of a sum are taken over a common
# denominator L (`common_denominator`), their int numerators are summed per
# key in a plain dict (`add_term`), and each key is divided once (`over`).


def common_denominator(coefs: Sequence[Scalar]) -> Tuple[int, Callable[[Scalar], Scalar]]:
    """(L, numerator): when every coefficient is a Fraction, L is the lcm of
    their denominators and numerator(c) the int L c; else L = 1 and
    numerator(c) is c itself, so RationalFunction coefficients take the
    same loops."""
    if all(isinstance(c, Fraction) for c in coefs):
        L = lcm(*(c.denominator for c in coefs))
        return L, lambda c: c.numerator * (L // c.denominator)
    return 1, lambda c: c


def add_term(acc: Sparse, key: Hashable, c: Scalar) -> None:
    """acc[key] += c, dropping a zero sum as `combine` does; a key's first
    term is stored as it is."""
    v = acc.get(key)
    v = c if v is None else v + c
    if v:
        acc[key] = v
    else:
        acc.pop(key, None)


def over(acc: Sparse, den: int) -> Sparse:
    """Each sum of acc divided by den: one Fraction per key, or, for a
    RationalFunction sum, one scaling by 1/den."""
    return {
        m: (v if den == 1 else v * Fraction(1, den)) if isinstance(v, RationalFunction) else Fraction(v, den)
        for m, v in acc.items()
    }


# ---------------------------------------------------------------------------
# expression parser: +, -, *, /, ^ with integer exponents, parentheses,
# integer literals and declared variable names; no decimal points
# ---------------------------------------------------------------------------

class _Tokens:
    def __init__(self, text: str):
        self.items = self._lex(text)
        self.pos = 0

    @staticmethod
    def _lex(text: str):
        text = text.replace("−", "-")
        out = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch in "+-*/^()":
                out.append(ch)
                i += 1
            elif ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                if j < len(text) and text[j] == ".":
                    raise InputError("decimal literals are not allowed; use exact rationals")
                try:
                    out.append(("int", int(text[i:j])))
                except ValueError as exc:  # past the digit limit, or a digit like "²"
                    raise InputError(
                        f"integer literal {text[i:j][:12]!r} cannot be read: {exc}"
                    ) from None
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                out.append(("name", text[i:j]))
                i = j
            else:
                raise InputError(f"unexpected character {ch!r} in scalar expression")
        return out

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise InputError("unexpected end of scalar expression")
        self.pos += 1
        return tok


def _total_degree(x: Scalar) -> int:
    """The larger total degree of numerator and denominator; 0 for a Fraction."""
    if not isinstance(x, RationalFunction):
        return 0

    def deg(p: Polynomial) -> int:
        return max((sum(e) for e in p.terms), default=0)

    return max(deg(x.num), sum(deg(f) * e for f, e in x.factors.items()))


def _fraction_bits(x: Scalar) -> Tuple[int, int]:
    """The largest bit lengths of a numerator and of a denominator among x's
    rational coefficients."""
    if isinstance(x, RationalFunction):
        coefs = [c for p in (x.num, *x.factors) for c in p._terms.values()]
    else:
        coefs = [x]
    return (
        max((c.numerator.bit_length() for c in coefs), default=0),
        max((c.denominator.bit_length() for c in coefs), default=0),
    )


def _coefficient_bits(x: Scalar) -> int:
    """The largest bit length of a numerator or denominator among x's rational coefficients."""
    return max(_fraction_bits(x))


def _sum_bits(x: Scalar, y: Scalar) -> int:
    """The bits of a/b + c/d = (a d + c b) / (b d): the larger of |a| |d| and
    |c| |b| plus one bit for the carry, or |b| |d| if that is larger."""
    (a, b), (c, d) = _fraction_bits(x), _fraction_bits(y)
    return max(max(a + d, c + b) + 1, b + d)


def _check_digits(what: str, bits: int) -> None:
    """Reject a result whose coefficients are estimated at `bits` bits when that
    is more digits than the longest integer literal int() reads."""
    digits = int(bits * log10(2)) + 1
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or _DEFAULT_LITERAL_DIGITS
    if digits > limit:
        raise InputError(
            f"{what} with coefficients of about {digits} digits is above the "
            f"{limit}-digit limit for integer literals"
        )


def _sizes(x: Scalar) -> Tuple[int, int]:
    """The terms of x's numerator and a bound on those of its expanded denominator."""
    if not isinstance(x, RationalFunction):
        return 1, 1
    return len(x.num._terms), prod(len(f._terms) ** e for f, e in x.factors.items())


def _power_size(x: Scalar, k: int) -> int:
    """A bound on the size of x^k (k >= 0): the monomials of the multinomial
    expansion of the larger of its numerator and denominator, and those of
    its degree."""
    n = len(x.vars) if isinstance(x, RationalFunction) else 0
    return min(comb(max(_sizes(x)) + k - 1, k), comb(n + k * _total_degree(x), n))


def _power_terms_formed(x: Scalar, k: int) -> int:
    """The terms that Polynomial.__pow__ forms for x^k by repeated squaring,
    each multiplication counted as the product of its factors' _power_size."""
    formed, done, step = 0, 0, 1
    while k:
        if k & 1:
            formed += _power_size(x, done) * _power_size(x, step)
            done += step
        k >>= 1
        if k:
            formed += _power_size(x, step) ** 2
            step *= 2
    return formed


def _check_terms(what: str, formed: int) -> None:
    if formed > MAX_TERMS_FORMED:
        raise InputError(
            f"{what} forming about {formed} terms is above the {MAX_TERMS_FORMED}-term limit"
        )


def parse_scalar(text: str, variables: Tuple[str, ...] = ()) -> Scalar:
    """Parse an exact scalar expression.

    With an empty variable tuple the result is a Fraction; otherwise a
    RationalFunction over the declared variables.
    """
    variables = tuple(variables)
    # a short plain ASCII integer literal, read as the tokenizer would read
    # it (a leading "-" negates it); a long one goes to the tokenizer, which
    # reports a literal past int()'s digit limit
    digits = text[1:] if text[:1] == "-" else text
    if 0 < len(digits) <= 18 and digits.isascii() and digits.isdigit():
        value = int(text)
        return RationalFunction.const(variables, value) if variables else Fraction(value)
    toks = _Tokens(text)
    depth = 0

    def atom():
        nonlocal depth
        tok = toks.next()
        if tok in ("(", "-", "+"):
            depth += 1
            if depth > MAX_NESTING:
                raise InputError(f"scalar expression nested over {MAX_NESTING} deep")
            if tok == "(":
                v = expr()
                if toks.next() != ")":
                    raise InputError("unbalanced parentheses in scalar expression")
            else:
                v = -power() if tok == "-" else power()
            depth -= 1
            return v
        if isinstance(tok, tuple) and tok[0] == "int":
            if variables:
                return RationalFunction.const(variables, tok[1])
            return Fraction(tok[1])
        if isinstance(tok, tuple) and tok[0] == "name":
            if tok[1] not in variables:
                raise InputError(f"unknown variable {tok[1]!r} in scalar expression")
            return RationalFunction.var(variables, tok[1])
        raise InputError(f"unexpected token {tok!r} in scalar expression")

    def power():
        base = atom()
        if toks.peek() == "^":
            toks.next()
            sign = 1
            tok = toks.next()
            if tok == "-":
                sign = -1
                tok = toks.next()
            if not (isinstance(tok, tuple) and tok[0] == "int"):
                raise InputError("exponent must be an integer literal")
            if tok[1] > MAX_EXPONENT:
                raise InputError(
                    f"exponent {sign * tok[1]} is above {MAX_EXPONENT} in absolute value"
                )
            degree = tok[1] * _total_degree(base)
            if degree > MAX_POWER_DEGREE:
                raise InputError(f"a power of total degree {degree} is above {MAX_POWER_DEGREE}")
            _check_digits("a power", tok[1] * _coefficient_bits(base))
            _check_terms("a power", _power_terms_formed(base, tok[1]))
            return base ** (sign * tok[1])
        return base

    def term():
        v = power()
        while toks.peek() in ("*", "/"):
            op = toks.next()
            rhs = power()
            what = "a product" if op == "*" else "a quotient"
            _check_digits(what, _coefficient_bits(v) + _coefficient_bits(rhs))
            # a * b multiplies the numerators, a / b a's numerator by b's denominator
            (num, _), (rnum, rden) = _sizes(v), _sizes(rhs)
            _check_terms(what, num * (rnum if op == "*" else rden))
            v = v * rhs if op == "*" else v / rhs
        return v

    def expr():
        v = term()
        while toks.peek() in ("+", "-"):
            op = toks.next()
            rhs = term()
            _check_digits("a sum" if op == "+" else "a difference", _sum_bits(v, rhs))
            v = v + rhs if op == "+" else v - rhs
        return v

    try:
        value = expr()
    except ZeroDivisionError:
        raise InputError(f"division by zero in scalar expression {text!r}") from None
    if toks.peek() is not None:
        raise InputError(f"trailing input in scalar expression at token {toks.peek()!r}")
    return value
