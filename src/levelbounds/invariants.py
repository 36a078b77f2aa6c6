"""Ring and ideal invariants feeding the level bounds.

Dimension, depth, embedding dimension, height and bigheight, Lech
independence, free rank of the conormal module, and the parameter-sequence
test.  Each reads R/I through the ring's I + J.  Depth goes through
Koszul homology on a chosen generating set; the value does not depend on
the choice.  The conormal relations are the kernel of R's sequence map
R^n -> R, which is also the Koszul complex's d_1, from that map's own
run; R keeps them and their free rank per sequence tuple, so Lech
independence, the invariant report and FRANK share one computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .complexes import koszul_complex, sequence_map
from .errors import InternalInconsistencyError, UnsupportedInputError, UsageError
from .groebner import IdealData, ideal, krull_dim, monomial_minimal_primes
from .modules import FreeModule, ModMap, frank, syzygies
from .polys import Poly
from .rings import QuotientRing, UnitIdealError


def depth_ideal(I: IdealData, R: QuotientRing):
    """n - sup{ i : H_i(f; R) != 0 } for the given generators f of I.

    Returns math.inf when I expands to the unit ideal of R, matching the
    convention that the ideal then admits arbitrarily long sequences.
    """
    if I.ring != R.poly_ring:
        raise UsageError("ideal and ring live over different polynomial rings")
    try:
        R.extension(I.gens)
    except UnitIdealError:
        return math.inf
    gens = list(I.gens)
    K = koszul_complex(gens, R)
    for i in range(K.hi, -1, -1):
        if not K.homology(i).is_zero:
            return len(gens) - i
    raise InternalInconsistencyError("Koszul homology vanished entirely for a proper ideal")


def depth_ring(R: QuotientRing):
    """Depth of R itself: the maximal ideal case of depth_ideal."""
    return depth_ideal(ideal(R.poly_ring, list(R.maximal_ideal_gens())), R)


def dims(I: IdealData, R: QuotientRing) -> tuple:
    """(dim R, dim R/I), both as Krull dimensions in the ambient ring."""
    return R.dim(), krull_dim(R.extension(I.gens))


def edim(R: QuotientRing) -> int:
    """Embedding dimension: vars minus the linear forms in the defining gb."""
    linear = sum(1 for g in R.defining.gb if g.degree() == 1)
    return R.nvars - linear


def _heights_over_quotient(I: IdealData, R: QuotientRing) -> list:
    if not (I.is_monomial() and R.defining.is_monomial()):
        raise UnsupportedInputError("height computations require monomial input ideals")
    big_primes = monomial_minimal_primes(R.extension(I.gens))
    small_primes = monomial_minimal_primes(R.defining)
    heights = []
    for p_big in big_primes:
        inside = [q for q in small_primes if q <= p_big]
        # every minimal prime of I+J contains J, hence some minimal cover of J
        heights.append(max(len(p_big - q) for q in inside))
    return heights


def height_monomial(I: IdealData, R: QuotientRing) -> int:
    """Height of I in R = P/J for monomial I and J (smallest chain bound)."""
    return min(_heights_over_quotient(I, R))


def bigheight_monomial(I: IdealData, R: QuotientRing) -> int:
    """Largest height of a minimal prime over I in R = P/J, monomial case."""
    return max(_heights_over_quotient(I, R))


def conormal_relations(seq: Sequence[Poly], R: QuotientRing) -> ModMap:
    """The relations of I/I^2 over S = R/I, for I = (seq), kept by R per sequence tuple.

    They are the syzygies of the seq entries: the kernel half of the run
    of R's sequence map, which is also d_1 of koszul_complex(seq, R),
    read over S: J-normalised for the defining ideal I + J of S.
    """
    def build():
        syz = syzygies(sequence_map(seq, R))
        S = QuotientRing(R.extension(seq))
        return ModMap(FreeModule(S, syz.source.twists), FreeModule(S, syz.target.twists), syz.cols)

    return R.owned(("conormal", tuple(seq)), build)


def lech_independent(seq: Sequence[Poly], R: QuotientRing) -> bool:
    """Is the surjection (R/I)^n -> I/I^2 an isomorphism, I = (seq)?

    Decided on generators: every syzygy of seq over R must have all of
    its coordinates inside I, that is vanish over R/I.
    """
    return conormal_relations(seq, R).is_zero()


def frank_conormal(seq: Sequence[Poly], R: QuotientRing) -> int:
    """Free rank of I/I^2 as a module over R/I, I = (seq), kept by R per sequence tuple.

    Generators are the sequence entries with their degrees as twists;
    relations are the syzygies of the sequence over R, read mod I.
    """
    return R.owned(("frank", tuple(seq)), lambda: frank(conormal_relations(seq, R)))


def is_psop(seq: Sequence[Poly], R: QuotientRing) -> bool:
    """Does dimension drop by exactly len(seq) modulo the sequence?"""
    for f in seq:
        if f.is_zero() or not f.is_homogeneous() or f.degree() < 1:
            raise UsageError("parameter test needs homogeneous entries of positive degree")
    return R.dim() - krull_dim(R.extension(seq)) == len(seq)


@dataclass
class InvariantReport:
    """Everything the bounds consume, filled as far as the inputs allow."""

    dim_R: int
    depth_R: object
    edim: int
    dim_RmodI: Optional[int] = None
    depth_I: Optional[object] = None
    height: Optional[int] = None
    bigheight: Optional[int] = None
    lech_independent: Optional[bool] = None
    frank_conormal: Optional[int] = None
    is_psop: Optional[bool] = None

    def as_dict(self) -> dict:
        def enc(v):
            if v is math.inf:
                return "infinity"
            return v

        return {
            "dim_R": self.dim_R,
            "depth_R": enc(self.depth_R),
            "edim": self.edim,
            "dim_RmodI": self.dim_RmodI,
            "depth_I": enc(self.depth_I),
            "height": self.height,
            "bigheight": self.bigheight,
            "lech_independent": self.lech_independent,
            "frank_conormal": self.frank_conormal,
            "is_psop": self.is_psop,
        }


def invariant_report(
    R: QuotientRing,
    I: Optional[IdealData] = None,
    seq: Optional[Sequence[Poly]] = None,
) -> InvariantReport:
    report = InvariantReport(dim_R=R.dim(), depth_R=depth_ring(R), edim=edim(R))
    if I is not None:
        report.dim_RmodI = dims(I, R)[1]
        report.depth_I = depth_ideal(I, R)
        if I.is_monomial() and R.defining.is_monomial():
            report.height = height_monomial(I, R)
            report.bigheight = bigheight_monomial(I, R)
    if seq is not None:
        # one syzygy run, kept by R, answers both
        report.lech_independent = lech_independent(seq, R)
        report.frank_conormal = frank_conormal(seq, R)
        report.is_psop = is_psop(seq, R)
    return report
