"""Ideal calculus in F_p[x1..xn]: reduced bases and derived operations.

Everything routes through the rank one case of the module engine, under
its one term order.  The degrevlex reduced Groebner basis is the
canonical form of an ideal, and an intersection is one relative syzygy
computation in P^2, not an elimination under a block order.  Dimension
theory here is combinatorial: the Krull dimension comes from independent
variable subsets of the initial ideal, and minimal primes of monomial
ideals are minimal vertex covers of the generator supports.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import Sequence

from .errors import UnsupportedInputError, UsageError
from .gbcore import module_gb, pack, reducer, relative_syzygies, submodule_nf, unpack
from .polys import Poly, PolyRing

# Both enumerations below walk every subset of a variable set, so the set
# size is capped; minimal primes also filter all covers pairwise.
_KRULL_VAR_CAP = 16
_MINPRIMES_VAR_CAP = 12
E_VAR_CAP = "E_VAR_CAP"


def _poly_to_vec(f: Poly, pos: int = 0) -> dict:
    return {pack(pos, e): c for e, c in f.terms}


def _vec_to_poly(ring: PolyRing, v: dict) -> Poly:
    """The polynomial of an engine vector at position 0, such as a normal form.

    The packed order at one position is degrevlex, and the engine's
    coefficients lie in 1..p-1, so sorting the packed terms gives the
    canonical term tuple.
    """
    n = ring.nvars
    return Poly(ring, tuple((unpack(t, n)[1], c) for t, c in sorted(v.items(), reverse=True)))


class IdealData:
    """A homogeneous ideal of P with its lazily computed reduced basis.

    Instances are immutable; the basis and its reducer are computed once,
    on first use.
    """

    def __init__(self, ring: PolyRing, gens: Sequence[Poly]):
        self.ring = ring
        clean = []
        for f in gens:
            if not isinstance(f, Poly) or f.ring != ring:
                raise UsageError("ideal generators must come from the ambient ring")
            if f.is_zero():
                continue
            if not f.is_homogeneous():
                raise UsageError(f"non-homogeneous generator: {f}")
            clean.append(f)
        self.gens = tuple(clean)

    @cached_property
    def gb(self) -> tuple:
        """Reduced degrevlex Groebner basis, monic, descending leads."""
        gb = module_gb([_poly_to_vec(f) for f in self.gens], self.ring.nvars, self.ring.char)
        return tuple(_vec_to_poly(self.ring, v) for v in gb)

    @cached_property
    def _reducer(self):
        return reducer([_poly_to_vec(g) for g in self.gb], self.ring.nvars, self.ring.char)

    def normal_form(self, f: Poly) -> Poly:
        if f.ring is not self.ring and f.ring != self.ring:
            raise UsageError("polynomial from a different ring")
        if not self.gb:
            return f
        return _vec_to_poly(self.ring, submodule_nf(_poly_to_vec(f), self._reducer))

    def contains(self, f: Poly) -> bool:
        return self.normal_form(f).is_zero()

    def is_zero(self) -> bool:
        return not self.gb

    def is_proper(self) -> bool:
        return not any(g.is_constant() and not g.is_zero() for g in self.gb)

    def is_monomial(self) -> bool:
        return all(len(g.terms) == 1 for g in self.gb)

    def leading_monomials(self) -> tuple:
        return tuple(g.leading_monomial() for g in self.gb)

    def __eq__(self, other) -> bool:
        return isinstance(other, IdealData) and self.ring == other.ring and self.gb == other.gb

    def __hash__(self):
        return hash((self.ring, self.gb))

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.gens) or "0"
        return f"IdealData({inside})"


def ideal(ring: PolyRing, gens: Sequence[Poly]) -> IdealData:
    return IdealData(ring, gens)


def zero_ideal(ring: PolyRing) -> IdealData:
    return IdealData(ring, ())


# ---------------------------------------------------------------------------
# intersection


def ideal_intersection(I: IdealData, J: IdealData) -> IdealData:
    """I meet J as {a : a*(e0 + e1) in I*e0 + J*e1}, one relative syzygy.

    The relations come out as the reduced basis of I meet J, monic and
    in descending lead order, so the result takes them as its gb
    without a second Groebner run.
    """
    if I.ring != J.ring:
        raise UsageError("ideals from different rings")
    ring = I.ring
    zero = (0,) * ring.nvars
    untracked = [_poly_to_vec(f) for f in I.gens] + [_poly_to_vec(g, 1) for g in J.gens]
    syz, _ = relative_syzygies([{pack(0, zero): 1, pack(1, zero): 1}], untracked,
                               rank=2, nvars=ring.nvars, p=ring.char)
    result = IdealData(ring, [_vec_to_poly(ring, v) for v in syz])
    result.__dict__["gb"] = result.gens  # fills the cached property
    return result


# ---------------------------------------------------------------------------
# combinatorial dimension theory


def krull_dim(I: IdealData) -> int:
    """Krull dimension of P/I; the unit ideal reports -1.

    The dimension is the largest size of a variable subset S such that
    no leading monomial of the reduced basis is supported inside S.  All
    supports lie in the set U of variables that occur in some leading
    monomial, so only subsets of U are walked and the variables outside
    U are added to every S.  More than _KRULL_VAR_CAP variables in U is
    refused.
    """
    if not I.is_proper():
        return -1
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in I.leading_monomials()]
    used = sorted(frozenset().union(*supports))
    if len(used) > _KRULL_VAR_CAP:
        raise UnsupportedInputError(
            f"{E_VAR_CAP}: Krull dimension enumeration capped at {_KRULL_VAR_CAP} "
            f"variables in leading monomials, got {len(used)}"
        )
    outside = I.ring.nvars - len(used)
    for size in range(len(used), -1, -1):
        for combo in combinations(used, size):
            s = frozenset(combo)
            if not any(sup <= s for sup in supports):
                return outside + size
    return outside


def monomial_minimal_primes(I: IdealData) -> list:
    """Minimal primes of a monomial ideal, as frozensets of variable indices.

    These are the minimal vertex covers of the hypergraph of generator
    supports; the zero ideal yields the single empty prime.
    """
    if not I.is_monomial():
        raise UnsupportedInputError("minimal primes are only computed for monomial ideals")
    if not I.is_proper():
        raise UsageError("the unit ideal has no minimal primes")
    if I.ring.nvars > _MINPRIMES_VAR_CAP:
        raise UnsupportedInputError(
            f"{E_VAR_CAP}: minimal prime enumeration capped at {_MINPRIMES_VAR_CAP} variables"
        )
    if I.is_zero():
        return [frozenset()]
    edges = {frozenset(i for i, e in enumerate(m) if e) for m in I.leading_monomials()}
    edges = [e for e in edges if not any(other < e for other in edges)]
    universe = sorted(set().union(*edges))
    covers = []
    for size in range(len(universe) + 1):
        for combo in combinations(universe, size):
            s = frozenset(combo)
            if all(s & e for e in edges):
                covers.append(s)
    minimal = [c for c in covers if not any(other < c for other in covers)]
    return sorted(minimal, key=lambda s: (len(s), sorted(s)))
