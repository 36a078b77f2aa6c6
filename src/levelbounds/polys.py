"""Sparse multivariate polynomial arithmetic over a prime field.

Polynomials live in F_p[x1..xn] with p prime (default 101).  Exponent
vectors are plain int tuples and the graded reverse lexicographic order
is the ambient term order throughout the package.  A Poly stores a
sorted tuple of its nonzero terms in canonical form: terms sorted
strictly descending, coefficients reduced to 1..p-1.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

from .errors import UsageError

DEFAULT_CHAR = 101

# is_prime trial-divides up to sqrt(p), so a huge p would stall without a
# word (about 1.5e9 steps at 2^61 - 1); larger characteristics are refused.
MAX_CHAR = 2**31
E_CHAR_RANGE = "E_CHAR_RANGE"


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# monomials: exponent tuples, combined by map over an operator, which
# runs without a generator frame per component


def mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(map(operator.add, a, b))


def mono_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


def mono_deg(a: tuple) -> int:
    return sum(a)


def drl_key(a: tuple) -> tuple:
    """Sort key realizing degrevlex: higher key means larger monomial.

    Ties in total degree are broken by the rightmost differing exponent,
    smaller exponent winning, which the negated reversed tuple encodes.
    """
    return (sum(a), tuple(-e for e in reversed(a)))


# ---------------------------------------------------------------------------
# rings and polynomials


@dataclass(frozen=True)
class PolyRing:
    """The polynomial ring F_p[x1..xn]; cheap value object."""

    nvars: int
    char: int = DEFAULT_CHAR

    def __post_init__(self):
        if self.nvars < 0:
            raise UsageError("variable count must be nonnegative")
        if self.char >= MAX_CHAR:
            raise UsageError(f"{E_CHAR_RANGE}: characteristic {self.char} is not below 2^31")
        if not is_prime(self.char):
            raise UsageError(f"characteristic {self.char} is not prime")

    def zero(self) -> "Poly":
        return Poly(self, ())

    def one(self) -> "Poly":
        return self.const(1)

    def const(self, c: int) -> "Poly":
        c %= self.char
        if c == 0:
            return Poly(self, ())
        return Poly(self, (((0,) * self.nvars, c),))

    def var(self, i: int) -> "Poly":
        """The variable x(i+1), zero-indexed."""
        if not 0 <= i < self.nvars:
            raise UsageError(f"variable index {i} out of range for {self.nvars} variables")
        e = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Poly(self, ((e, 1),))

    def variables(self) -> tuple:
        return tuple(self.var(i) for i in range(self.nvars))

    def from_dict(self, d: dict) -> "Poly":
        terms = []
        for e, c in d.items():
            c %= self.char
            if c:
                terms.append((tuple(e), c))
        terms.sort(key=lambda t: drl_key(t[0]), reverse=True)
        return Poly(self, tuple(terms))


class Poly:
    """Immutable polynomial in canonical form.

    terms: tuple of (exponent tuple, coefficient) sorted strictly
    descending in degrevlex, coefficients in 1..p-1.  The hash is kept
    once computed: R keys what it owns by tuples of Polys.
    """

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolyRing, terms: tuple):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and mono_deg(self.terms[0][0]) == 0)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_deg(e) for e, _ in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        d = mono_deg(self.terms[0][0])
        return all(mono_deg(e) == d for e, _ in self.terms)

    def leading_monomial(self) -> tuple:
        if not self.terms:
            raise UsageError("zero polynomial has no leading term")
        return self.terms[0][0]

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Poly"):
        if not isinstance(other, Poly):
            raise UsageError(f"expected Poly, got {type(other).__name__}")
        if other.ring != self.ring:
            raise UsageError("polynomials from different rings")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        d = dict(self.terms)
        p = self.ring.char
        for e, c in other.terms:
            v = (d.get(e, 0) + c) % p
            if v:
                d[e] = v
            else:
                d.pop(e, None)
        return self.ring.from_dict(d)

    def __neg__(self) -> "Poly":
        p = self.ring.char
        return Poly(self.ring, tuple((e, p - c) for e, c in self.terms))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        p = self.ring.char
        d: dict = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = mono_mul(e1, e2)
                v = (d.get(e, 0) + c1 * c2) % p
                if v:
                    d[e] = v
                else:
                    d.pop(e, None)
        return self.ring.from_dict(d)

    def scale(self, c: int) -> "Poly":
        p = self.ring.char
        c %= p
        if c == 0:
            return self.ring.zero()
        return Poly(self.ring, tuple((e, (k * c) % p) for e, k in self.terms))

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise UsageError("negative powers are not defined")
        out = self.ring.one()
        for _ in range(k):
            out = out * self
        return out

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.ring, self.terms)))
            return self._hash

    def __repr__(self):
        return f"Poly({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


# ---------------------------------------------------------------------------
# text form: "3*x1^2*x2 + 100*x3^3", variables x1..xn, coefficients 0..p-1

_TOKEN = re.compile(r"\s*(?:(\d+)|x(\d+)|(\^)|(\*)|(\+)|(-)|(\S))")


def _int_literal(digits: str) -> int:
    # int() refuses more digits than sys.get_int_max_str_digits() allows
    try:
        return int(digits)
    except ValueError:
        raise UsageError(f"integer literal of {len(digits)} digits is too long") from None


def parse_poly(text: str, ring: PolyRing) -> Poly:
    """Parse the CLI polynomial syntax into a canonical Poly."""
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.group(7) is not None:
            raise UsageError(f"unexpected character {m.group(7)!r} in polynomial {text!r}")
        if m.group(1) is not None:
            tokens.append(("int", _int_literal(m.group(1))))
        elif m.group(2) is not None:
            tokens.append(("var", _int_literal(m.group(2))))
        elif m.group(3):
            tokens.append(("pow", None))
        elif m.group(4):
            tokens.append(("mul", None))
        elif m.group(5):
            tokens.append(("plus", None))
        elif m.group(6):
            tokens.append(("minus", None))
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def take(kind):
        nonlocal pos
        if peek() != kind:
            raise UsageError(f"malformed polynomial {text!r}")
        tok = tokens[pos]
        pos += 1
        return tok[1]

    def parse_factor() -> Poly:
        if peek() == "int":
            return ring.const(take("int"))
        if peek() == "var":
            idx = take("var")
            if not 1 <= idx <= ring.nvars:
                raise UsageError(f"variable x{idx} out of range, ring has {ring.nvars} variables")
            exp = 1
            if peek() == "pow":
                take("pow")
                exp = take("int")
                if exp < 0:
                    raise UsageError("negative exponent")
            e = tuple(exp if j == idx - 1 else 0 for j in range(ring.nvars))
            return Poly(ring, ((e, 1),))
        raise UsageError(f"malformed polynomial {text!r}")

    def parse_term() -> Poly:
        out = parse_factor()
        while peek() == "mul":
            take("mul")
            out = out * parse_factor()
        return out

    if not tokens:
        raise UsageError("empty polynomial text")
    sign = 1
    if peek() == "minus":
        take("minus")
        sign = -1
    elif peek() == "plus":
        take("plus")
    result = parse_term().scale(sign)
    while peek() in ("plus", "minus"):
        op = peek()
        take(op)
        result = result + parse_term().scale(1 if op == "plus" else -1)
    if pos != len(tokens):
        raise UsageError(f"trailing tokens in polynomial {text!r}")
    return result


def format_poly(f: Poly) -> str:
    """Canonical text form, inverse to parse_poly on canonical input."""
    if f.is_zero():
        return "0"
    parts = []
    for e, c in f.terms:
        factors = []
        if c != 1 or mono_deg(e) == 0:
            factors.append(str(c))
        for i, k in enumerate(e):
            if k == 1:
                factors.append(f"x{i + 1}")
            elif k > 1:
                factors.append(f"x{i + 1}^{k}")
        parts.append("*".join(factors))
    return " + ".join(parts)
