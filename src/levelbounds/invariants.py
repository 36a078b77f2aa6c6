"""Ring and ideal invariants feeding the level bounds.

Dimension, depth, embedding dimension, Lech independence, free rank of
the conormal module, and the parameter-sequence test.  All depth
computations go through Koszul homology on a chosen generating set; the
value does not depend on the choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .complexes import koszul_complex
from .errors import InternalInconsistencyError, UsageError
from .groebner import (
    E_UNIT_IDEAL,
    IdealData,
    bigheight_monomial,
    height_monomial,
    ideal,
    ideal_sum,
    krull_dim,
)
from .modules import FreeModule, ModMap, frank, syzygies
from .polys import Poly
from .rings import QuotientRing


def depth_ideal(I: IdealData, R: QuotientRing):
    """n - sup{ i : H_i(f; R) != 0 } for the given generators f of I.

    Returns math.inf when I expands to the unit ideal of R, matching the
    convention that the ideal then admits arbitrarily long sequences.
    """
    if I.ring != R.poly_ring:
        raise UsageError("ideal and ring live over different polynomial rings")
    total = ideal_sum(I, R.defining)
    if not total.is_proper():
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
    total = ideal_sum(I, R.defining)
    if not total.is_proper():
        raise UsageError(f"{E_UNIT_IDEAL}: I expands to the unit ideal, R/I is zero")
    return R.dim(), krull_dim(total)


def edim(R: QuotientRing) -> int:
    """Embedding dimension: vars minus the linear forms in the defining gb."""
    linear = sum(1 for g in R.defining.gb if g.degree() == 1)
    return R.nvars - linear


def _conormal_relations(seq: Sequence[Poly], R: QuotientRing) -> ModMap:
    """The syzygies of seq over R read over S = R/(seq): relations of I/I^2 over S.

    The 1 x n map sends e_j to seq[j] with twist deg seq[j] (0 for a
    zero entry); its syzygies, as a map over S, are J-normalised for the
    defining ideal I + J of S.
    """
    I = ideal(R.poly_ring, list(seq))
    total = ideal_sum(I, R.defining)
    if not total.is_proper():
        raise UsageError("sequence generates the unit ideal")
    source = FreeModule(R, tuple(max(f.degree(), 0) for f in seq))
    syz = syzygies(ModMap.from_rows(source, FreeModule(R, (0,)), [seq]))
    S = QuotientRing(total)
    return ModMap(FreeModule(S, syz.source.twists), FreeModule(S, syz.target.twists), syz.cols)


def lech_independent(seq: Sequence[Poly], R: QuotientRing) -> bool:
    """Is the surjection (R/I)^n -> I/I^2 an isomorphism, I = (seq)?

    Decided on generators: every syzygy of seq over R must have all of
    its coordinates inside I, that is vanish over R/I.
    """
    return _conormal_relations(seq, R).is_zero()


def frank_conormal(seq: Sequence[Poly], R: QuotientRing) -> int:
    """Free rank of I/I^2 as a module over R/I, I = (seq).

    Generators are the sequence entries with their degrees as twists;
    relations are the syzygies of the sequence over R, read mod I.
    """
    return frank(_conormal_relations(seq, R))


def is_psop(seq: Sequence[Poly], R: QuotientRing) -> bool:
    """Does dimension drop by exactly len(seq) modulo the sequence?"""
    for f in seq:
        if f.is_zero() or not f.is_homogeneous() or f.degree() < 1:
            raise UsageError("parameter test needs homogeneous entries of positive degree")
    I = ideal(R.poly_ring, list(seq))
    quotient_dim = krull_dim(ideal_sum(I, R.defining))
    return R.dim() - quotient_dim == len(seq)


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
            report.height = height_monomial(I, R.defining)
            report.bigheight = bigheight_monomial(I, R.defining)
    if seq is not None:
        # one syzygy run answers both lech_independent and frank_conormal
        rels = _conormal_relations(seq, R)
        report.lech_independent = rels.is_zero()
        report.frank_conormal = frank(rels)
        report.is_psop = is_psop(seq, R)
    return report
