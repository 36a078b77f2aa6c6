"""Graded quotient rings R = F_p[x1..xn]/J.

J must be homogeneous and proper, so R is graded with R_0 = k and the
irrelevant maximal ideal generated by the variable images.  Elements of
R are represented by their normal forms modulo J, and vectors of R^rank
by their normal forms modulo J*R^rank.  The ring computes what it
derives from J once and keeps it (owned): J*R^rank's division structure
per rank, the ideal (gens) + J per generator tuple, which is read
wherever R/I is, and the Koszul complexes, sequence maps, conormal
relations, free ranks and trimmed sequences built over R per sequence
tuple.
"""

from __future__ import annotations

from .errors import UsageError
from .gbcore import pack, reducer
from .groebner import IdealData, krull_dim, zero_ideal
from .polys import Poly, PolyRing

E_UNIT_IDEAL = "E_UNIT_IDEAL"


class UnitIdealError(UsageError):
    """An ideal expands to the unit ideal of R, so R/I is zero."""


class QuotientRing:
    """P/J for a homogeneous proper ideal J of P = F_p[x1..xn]."""

    def __init__(self, defining: IdealData):
        if not defining.is_proper():
            raise UsageError("defining ideal must be proper")
        self.poly_ring = defining.ring
        self.defining = defining
        self._owned: dict = {}

    @classmethod
    def free(cls, ring: PolyRing) -> "QuotientRing":
        """The polynomial ring itself, as the quotient by zero."""
        return cls(zero_ideal(ring))

    @property
    def nvars(self) -> int:
        return self.poly_ring.nvars

    @property
    def char(self) -> int:
        return self.poly_ring.char

    def nf(self, f: Poly) -> Poly:
        """Canonical representative of f mod J."""
        return self.defining.normal_form(f)

    def defining_multiples(self, rank: int) -> list:
        """J's basis at each position in turn: J * P^rank's reduced basis, in module_gb's order."""
        return [{pack(k, e): c for e, c in g.terms} for k in range(rank) for g in self.defining.gb]

    def owned(self, key: tuple, build):
        """What R keeps under key, made by build() on the first request."""
        if key not in self._owned:
            self._owned[key] = build()
        return self._owned[key]

    def module_reducer(self, rank: int):
        """The division structure of J * R^rank, built once per rank.

        J's reduced basis sits at every position, so the normal form of a
        vector against it is the ring normal form of each component.
        """
        return self.owned(("reducer", rank),
                          lambda: reducer(self.defining_multiples(rank), self.nvars, self.char))

    def extension(self, gens) -> IdealData:
        """(gens) + J, kept per generator tuple (J itself for none).

        E_UNIT_IDEAL refuses gens whose R/(gens)R is zero.
        """
        key = tuple(gens)
        if not key:
            return self.defining
        total = self.owned(("extension", key),
                           lambda: IdealData(self.poly_ring, key + self.defining.gens))
        if not total.is_proper():
            raise UnitIdealError(f"{E_UNIT_IDEAL}: I expands to the unit ideal, R/I is zero")
        return total

    def is_zero_elem(self, f: Poly) -> bool:
        return self.nf(f).is_zero()

    def dim(self) -> int:
        return krull_dim(self.defining)

    def maximal_ideal_gens(self) -> tuple:
        """Images of the variables; zero images are dropped."""
        out = []
        for v in self.poly_ring.variables():
            if not self.is_zero_elem(v):
                out.append(v)
        return tuple(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, QuotientRing) and self.defining == other.defining

    def __hash__(self):
        return hash(self.defining)

    def __repr__(self):
        if self.defining.is_zero():
            return f"QuotientRing(F_{self.char}[x1..x{self.nvars}])"
        return f"QuotientRing(F_{self.char}[x1..x{self.nvars}] / {self.defining!r})"
