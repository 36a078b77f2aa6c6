"""Graded quotient rings R = F_p[x1..xn]/J with degreewise bases.

J must be homogeneous and proper, so R is graded with R_0 = k and the
irrelevant maximal ideal generated by the variable images.  Monomial
bases of graded pieces come from the initial ideal of J; they are the
backbone of every degreewise linear algebra computation.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .errors import UsageError
from .groebner import IdealData, krull_dim, zero_ideal
from .polys import Poly, PolyRing, drl_key, mono_divides


class QuotientRing:
    """P/J for a homogeneous proper ideal J of P = F_p[x1..xn]."""

    def __init__(self, defining: IdealData):
        if not defining.is_proper():
            raise UsageError("defining ideal must be proper")
        self.poly_ring = defining.ring
        self.defining = defining
        self._basis_cache: dict = {}

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

    def monomial_basis(self, d: int) -> tuple:
        """Monomials of degree d surviving in R, descending degrevlex."""
        if d < 0:
            return ()
        key = d
        if key not in self._basis_cache:
            lts = self.defining.leading_monomials()
            out = []
            n = self.nvars
            for combo in combinations_with_replacement(range(n), d):
                e = [0] * n
                for i in combo:
                    e[i] += 1
                e = tuple(e)
                if not any(mono_divides(m, e) for m in lts):
                    out.append(e)
            out.sort(key=drl_key, reverse=True)
            self._basis_cache[key] = tuple(out)
        return self._basis_cache[key]

    def __eq__(self, other) -> bool:
        return isinstance(other, QuotientRing) and self.defining == other.defining

    def __hash__(self):
        return hash(self.defining)

    def __repr__(self):
        if self.defining.is_zero():
            return f"QuotientRing(F_{self.char}[x1..x{self.nvars}])"
        return f"QuotientRing(F_{self.char}[x1..x{self.nvars}] / {self.defining!r})"
