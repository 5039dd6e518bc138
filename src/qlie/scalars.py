"""Exact scalars: rationals and multivariate rational functions.

Rationals are plain ``fractions.Fraction`` (lowest terms, positive
denominator, courtesy of the stdlib).  Rational functions are pairs of
multivariate polynomials with Fraction coefficients over a fixed ordered
variable tuple.  Equality of rational functions is decided by
cross-multiplication and polynomial identity, never by sampling.
Reduction strips rational content and common monomial factors; a full
multivariate gcd is deliberately not attempted since nothing downstream
needs it for correctness.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, Tuple, Union

from .errors import InputError

Exponents = Tuple[int, ...]


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
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            s = terms.get(exps, Fraction(0)) + c
            if s:
                terms[exps] = s
            else:
                terms.pop(exps, None)
        return Polynomial(self.vars, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms: Dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(key, Fraction(0)) + c1 * c2
                if s:
                    terms[key] = s
                else:
                    terms.pop(key, None)
        return Polynomial(self.vars, terms)

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        return Polynomial(self.vars, {e: v * c for e, v in self.terms.items()})

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise InputError("negative power of a polynomial")
        out = Polynomial.const(self.vars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def leading(self) -> Tuple[Exponents, Fraction]:
        """Leading term in lex order on exponent tuples."""
        exps = max(self.terms)
        return exps, self.terms[exps]

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def derivative(self, var_index: int) -> "Polynomial":
        terms: Dict[Exponents, Fraction] = {}
        for exps, c in self.terms.items():
            k = exps[var_index]
            if k:
                key = tuple(e - 1 if i == var_index else e for i, e in enumerate(exps))
                s = terms.get(key, Fraction(0)) + c * k
                if s:
                    terms[key] = s
                else:
                    terms.pop(key, None)
        return Polynomial(self.vars, terms)

    def evaluate(self, point: Dict[str, Fraction]) -> Fraction:
        total = Fraction(0)
        for exps, c in self.terms.items():
            v = c
            for name, e in zip(self.vars, exps):
                if e:
                    v *= Fraction(point[name]) ** e
            total += v
        return total

    def exact_div(self, divisor: "Polynomial") -> Union["Polynomial", None]:
        """Return self / divisor if the division is exact, else None."""
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = Polynomial(self.vars, dict(self.terms))
        quo: Dict[Exponents, Fraction] = {}
        dexp, dcoef = divisor.leading()
        while rem.terms:
            rexp, rcoef = rem.leading()
            qexp = tuple(a - b for a, b in zip(rexp, dexp))
            if any(e < 0 for e in qexp):
                return None
            qc = rcoef / dcoef
            quo[qexp] = quo.get(qexp, Fraction(0)) + qc
            rem = rem - divisor * Polynomial(self.vars, {qexp: qc})
        return Polynomial(self.vars, quo)

    def content_monomial(self) -> Exponents:
        """Largest monomial dividing every term (zero tuple if constant-free)."""
        if not self.terms:
            return (0,) * len(self.vars)
        mins = [min(e[i] for e in self.terms) for i in range(len(self.vars))]
        return tuple(mins)

    def shift_down(self, mono: Exponents) -> "Polynomial":
        return Polynomial(
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


class RationalFunction:
    """Quotient of two polynomials over the same variable tuple."""

    __slots__ = ("vars", "num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if num.vars != den.vars:
            raise InputError("numerator and denominator over different variables")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.vars = num.vars
        self.num, self.den = self._reduce(num, den)

    @staticmethod
    def _reduce(num: Polynomial, den: Polynomial) -> Tuple[Polynomial, Polynomial]:
        if num.is_zero():
            return num, Polynomial.const(num.vars, 1)
        m_num = num.content_monomial()
        m_den = den.content_monomial()
        common = tuple(min(a, b) for a, b in zip(m_num, m_den))
        if any(common):
            num = num.shift_down(common)
            den = den.shift_down(common)
        c_den = den.rational_content()
        _, lead = den.leading()
        if lead < 0:
            c_den = -c_den
        num = num.scale(Fraction(1) / c_den)
        den = den.scale(Fraction(1) / c_den)
        # cheap full cancellation when one side literally divides the other
        q = num.exact_div(den)
        if q is not None:
            return q, Polynomial.const(num.vars, 1)
        return num, den

    @classmethod
    def const(cls, variables: Tuple[str, ...], value) -> "RationalFunction":
        return cls(Polynomial.const(variables, value), Polynomial.const(variables, 1))

    @classmethod
    def var(cls, variables: Tuple[str, ...], name: str) -> "RationalFunction":
        return cls(Polynomial.var(variables, name), Polynomial.const(variables, 1))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Fraction:
        return self.num.constant_value() / self.den.constant_value()

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
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunction":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RationalFunction":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        return RationalFunction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other) -> "RationalFunction":
        return self._coerce(other) / self

    def __pow__(self, k: int) -> "RationalFunction":
        if k >= 0:
            return RationalFunction(self.num**k, self.den**k)
        if self.is_zero():
            raise ZeroDivisionError("negative power of zero")
        return RationalFunction(self.den ** (-k), self.num ** (-k))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.const(self.vars, other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if self.vars != other.vars:
            return False
        return (self.num * other.den - other.num * self.den).is_zero()

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.vars, "ratfun"))

    def derivative(self, name: str) -> "RationalFunction":
        i = self.vars.index(name)
        g = self.num.derivative(i) * self.den - self.num * self.den.derivative(i)
        q = g.exact_div(self.den)
        if q is not None:
            return RationalFunction(q, self.den)
        return RationalFunction(g, self.den * self.den)

    def evaluate(self, point: Dict[str, Fraction]) -> Fraction:
        d = self.den.evaluate(point)
        if d == 0:
            raise ZeroDivisionError("evaluation at a pole")
        return self.num.evaluate(point) / d

    def __str__(self) -> str:
        if self.den.is_constant() and self.den.constant_value() == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__


Scalar = Union[Fraction, RationalFunction]


def is_zero(s: Scalar) -> bool:
    if isinstance(s, RationalFunction):
        return s.is_zero()
    return s == 0


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
                out.append(("int", int(text[i:j])))
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


def parse_scalar(text: str, variables: Tuple[str, ...] = ()) -> Scalar:
    """Parse an exact scalar expression.

    With an empty variable tuple the result is a Fraction; otherwise a
    RationalFunction over the declared variables.
    """
    toks = _Tokens(text)
    variables = tuple(variables)

    def atom():
        tok = toks.next()
        if tok == "(":
            v = expr()
            if toks.next() != ")":
                raise InputError("unbalanced parentheses in scalar expression")
            return v
        if tok == "-":
            return -power()
        if tok == "+":
            return power()
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
            return base ** (sign * tok[1])
        return base

    def term():
        v = power()
        while toks.peek() in ("*", "/"):
            op = toks.next()
            rhs = power()
            v = v * rhs if op == "*" else v / rhs
        return v

    def expr():
        v = term()
        while toks.peek() in ("+", "-"):
            op = toks.next()
            rhs = term()
            v = v + rhs if op == "+" else v - rhs
        return v

    value = expr()
    if toks.peek() is not None:
        raise InputError(f"trailing input in scalar expression at token {toks.peek()!r}")
    return value
