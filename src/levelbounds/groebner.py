"""Ideal calculus in F_p[x1..xn]: reduced bases and derived operations.

Everything routes through the rank one case of the module engine, under
its one term order.  The degrevlex reduced Groebner basis is the
canonical form of an ideal, and an intersection is one relative syzygy
computation in P^2, not an elimination under a block order.  Dimension
theory here is combinatorial, one walk over the vertex covers of a
hypergraph of monomial supports: the Krull dimension is n less the
smallest cover for the leading monomials of the reduced basis, and the
minimal primes of a monomial ideal are the minimal covers for its
generators.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import Sequence

from .errors import UnsupportedInputError, UsageError
from .gbcore import module_gb, polyvec_from_vec, reducer, relative_syzygies, submodule_nf, vector
from .polys import Poly, PolyRing

# The cover walk below may visit every subset of a variable set, so the
# set size is capped; minimal primes also filter all covers pairwise.
_KRULL_VAR_CAP = 16
_MINPRIMES_VAR_CAP = 12
E_VAR_CAP = "E_VAR_CAP"


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
        gb = module_gb([vector(f) for f in self.gens], self.ring.nvars, self.ring.char)
        return tuple(polyvec_from_vec(self.ring, 1, v)[0] for v in gb)

    @cached_property
    def _reducer(self):
        return reducer([vector(g) for g in self.gb], self.ring.nvars, self.ring.char)

    def normal_form(self, f: Poly) -> Poly:
        if f.ring is not self.ring and f.ring != self.ring:
            raise UsageError("polynomial from a different ring")
        if not self.gb:
            return f
        return polyvec_from_vec(self.ring, 1, submodule_nf(vector(f), self._reducer))[0]

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
    one = ring.one()
    untracked = [vector(f) for f in I.gens] + [vector(g, 1) for g in J.gens]
    syz, _ = relative_syzygies([vector(one) | vector(one, 1)], untracked,
                               rank=2, nvars=ring.nvars, p=ring.char)
    result = IdealData(ring, [polyvec_from_vec(ring, 1, v)[0] for v in syz])
    result.__dict__["gb"] = result.gens  # fills the cached property
    return result


# ---------------------------------------------------------------------------
# combinatorial dimension theory


def _supports(I: IdealData) -> set:
    """The variable supports of I's leading monomials, as frozensets of indices."""
    return {frozenset(i for i, e in enumerate(m) if e) for m in I.leading_monomials()}


def _covers(edges, universe: list):
    """The subsets of universe that meet every edge, in increasing size."""
    for size in range(len(universe) + 1):
        for combo in combinations(universe, size):
            s = frozenset(combo)
            if all(s & e for e in edges):
                yield s


def krull_dim(I: IdealData) -> int:
    """Krull dimension of P/I; the unit ideal reports -1.

    The dimension is the largest size of a variable subset S inside
    which no leading monomial of the reduced basis is supported, that is
    n less the smallest size of a cover, a complement of such an S: a
    set meeting every support.  The set U of variables that occur in
    some leading monomial is a cover, so only subsets of U are walked.
    More than _KRULL_VAR_CAP variables in U is refused.
    """
    if not I.is_proper():
        return -1
    supports = _supports(I)
    used = sorted(frozenset().union(*supports))
    if len(used) > _KRULL_VAR_CAP:
        raise UnsupportedInputError(
            f"{E_VAR_CAP}: Krull dimension enumeration capped at {_KRULL_VAR_CAP} "
            f"variables in leading monomials, got {len(used)}"
        )
    return I.ring.nvars - len(next(_covers(supports, used)))


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
    edges = _supports(I)
    edges = [e for e in edges if not any(other < e for other in edges)]
    covers = list(_covers(edges, sorted(set().union(*edges))))
    minimal = [c for c in covers if not any(other < c for other in covers)]
    return sorted(minimal, key=lambda s: (len(s), sorted(s)))
