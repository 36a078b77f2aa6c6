"""Finite free chain complexes over R: Koszul, Hom, homology, minimality.

Complexes are stored with internal homological degrees 0..length-1 and a
recorded shift, so the lowest internal degree is always 0.  Differentials
are degree zero maps and the composite of consecutive differentials is
checked to vanish at construction time.  Homology H_i is a Subquotient of
F_i: the kernel generators of d_i that lie outside D = im d_(i+1) +
J*F_i, with the reduced basis of D; no presentation of it is built.
Each differential d_i gets one cached elimination run: its kernel goes to
H_i, and the basis of im d_i + J*F_(i-1) it holds goes to H_(i-1).

Koszul complexes built here carry their defining sequence as metadata;
Hom complexes of two tagged Koszul complexes inherit the concatenated
sequence, which level bounds exploit (the Hom of Koszul complexes is a
shifted Koszul complex on the concatenation).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from .errors import UnsupportedInputError, UsageError
from .gbcore import vec_add_scaled
from .groebner import E_VAR_CAP
from .modules import (
    FreeModule,
    ModMap,
    SubmoduleGB,
    Subquotient,
    kernel_and_image,
    subquotient,
    transpose_map,
)
from .polys import Poly
from .rings import QuotientRing


@dataclass(frozen=True)
class KoszulTag:
    """Marks a complex as a sum of shifts of the Koszul complex on seq."""

    seq: tuple


class ChainComplex:
    """A finite complex of twisted free modules with degree zero maps."""

    def __init__(
        self,
        ring: QuotientRing,
        modules: Sequence[FreeModule],
        diffs: Sequence[ModMap],
        shift: int = 0,
        koszul: Optional[KoszulTag] = None,
    ):
        if not modules:
            raise UsageError("a complex needs at least one module")
        if len(diffs) != len(modules) - 1:
            raise UsageError("expected one differential per adjacent pair")
        for m in modules:
            if m.ring != ring:
                raise UsageError("module over a different ring")
        for i, d in enumerate(diffs, start=1):
            if d.degree != 0:
                raise UsageError("differentials must have internal degree zero")
            if d.source != modules[i] or d.target != modules[i - 1]:
                raise UsageError(f"differential {i} does not match adjacent modules")
        for i in range(2, len(modules)):
            if not diffs[i - 2].compose(diffs[i - 1]).is_zero():
                raise UsageError(f"differentials at {i} do not compose to zero")
        self.ring = ring
        self.modules = tuple(modules)
        self.diffs = tuple(diffs)
        self.shift = shift
        self.koszul = koszul
        self._homology: dict = {}
        self._runs: dict = {}

    @property
    def hi(self) -> int:
        return len(self.modules) - 1

    def diff(self, i: int) -> ModMap:
        """The differential F_i -> F_(i-1), for 1 <= i <= hi."""
        if not 1 <= i <= self.hi:
            raise UsageError(f"no differential at {i}")
        return self.diffs[i - 1]

    def nonzero_degrees(self) -> list:
        return [i for i in range(len(self.modules)) if self.modules[i].rank > 0]

    def is_zero_complex(self) -> bool:
        return not self.nonzero_degrees()

    def is_minimal(self) -> bool:
        return all(d.entries_in_maximal_ideal() for d in self.diffs)

    def _run(self, i: int) -> tuple:
        """kernel_and_image(d_i), computed once."""
        if i not in self._runs:
            self._runs[i] = kernel_and_image(self.diff(i))
        return self._runs[i]

    def homology(self, i: int) -> Subquotient:
        """Run i's kernel over run i + 1's image; basis vectors at 0, J*F_hi on top."""
        if not 0 <= i <= self.hi:
            raise UsageError(f"degree {i} outside 0..{self.hi}")
        if i not in self._homology:
            free = self.modules[i]
            numer = self._run(i)[0] if i else [free.basis_vector(k) for k in range(free.rank)]
            denom = self._run(i + 1)[1] if i < self.hi else SubmoduleGB(free, [])
            self._homology[i] = subquotient(free, numer, denom)
        return self._homology[i]

    def __repr__(self):
        ranks = ", ".join(str(m.rank) for m in self.modules)
        return f"ChainComplex(ranks=[{ranks}], shift={self.shift})"


# ---------------------------------------------------------------------------
# Koszul complexes

# A Koszul complex on m elements has total rank 2^m, so the sequence
# length is capped.
_KOSZUL_CAP = 10


def koszul_complex(seq: Sequence[Poly], ring: QuotientRing) -> ChainComplex:
    """The Koszul complex on seq over R, basis e_S ordered lex in each degree.

    The differential takes e_S for S = (i_1 < .. < i_k) to the
    alternating sum of f_(i_j) e_(S minus i_j) with sign +1 on the first
    entry.  Sequence entries must be nonzero homogeneous polynomials of
    positive degree; their images in R may vanish.  More than
    _KOSZUL_CAP entries is refused.
    """
    if len(seq) > _KOSZUL_CAP:
        raise UnsupportedInputError(
            f"{E_VAR_CAP}: Koszul complexes capped at {_KOSZUL_CAP} elements "
            f"(rank 2^{_KOSZUL_CAP}), got {len(seq)}"
        )
    elems = []
    for f in seq:
        if not isinstance(f, Poly) or f.ring != ring.poly_ring:
            raise UsageError("sequence entries must come from the ambient ring")
        if f.is_zero() or not f.is_homogeneous() or f.degree() < 1:
            raise UsageError(f"sequence entry must be homogeneous of positive degree: {f}")
        elems.append(f)
    n = len(elems)
    p = ring.char
    degs = [f.degree() for f in elems]
    subsets = [list(combinations(range(n), k)) for k in range(n + 1)]
    modules = []
    for k in range(n + 1):
        twists = tuple(sum(degs[i] for i in s) for s in subsets[k])
        modules.append(FreeModule(ring, twists))
    diffs = []
    for k in range(1, n + 1):
        index = {s: idx for idx, s in enumerate(subsets[k - 1])}
        cols = []
        for s in subsets[k]:
            col = {}
            for j, i in enumerate(s):
                row = index[s[:j] + s[j + 1:]]
                for e, c in elems[i].terms:
                    col[(row, e)] = p - c if j % 2 else c
            cols.append(col)
        diffs.append(ModMap(modules[k], modules[k - 1], cols))
    nf_seq = tuple(ring.nf(f) for f in elems)
    return ChainComplex(ring, modules, diffs, koszul=KoszulTag(seq=nf_seq))


# ---------------------------------------------------------------------------
# minimalization


def _find_unit(mats: list):
    """(i, a, b, u) for the first unit u at (row a, column b) of mats[i]."""
    for i, cols in enumerate(mats):
        units = [(a, b, c) for b, col in enumerate(cols) for (a, e), c in col.items()
                 if not any(e)]
        if units:
            return (i, *min(units))
    return None


def _drop_row(col: dict, a: int) -> dict:
    """col without row a, the rows below a moved up one."""
    return {(r - (r > a), e): c for (r, e), c in col.items() if r != a}


def cancel_units(p: int, twists: list, mats: list) -> None:
    """Strip unit entries from a chain of matrices by Gaussian cancellation.

    mats[i] maps the free module with twists twists[i + 1] to the one
    with twists twists[i], as a list of column vectors {(row,
    exponents): coefficient} with homogeneous entries.  A unit is a term
    with all-zero exponents: a constant entry u at (a, b) of mats[i]
    splits off an exact summand.  Basis b of twists[i + 1] and a of
    twists[i] are removed, each column c of mats[i] with entry f at row
    a becomes c - (f / u) * column b, mats[i + 1] loses row b and
    mats[i - 1] loses column a.  Pivots are taken first in (matrix,
    row, column) order until every entry lies in m.  Entries are not
    J-reduced here: an entry is a unit or not whatever its
    representative, and ModMap reduces the result.  Works in place.
    """
    while True:
        hit = _find_unit(mats)
        if hit is None:
            return
        i, a, b, u = hit
        pivot = mats[i][b]
        uinv = pow(u, p - 2, p)
        new_cols = []
        for c, col in enumerate(mats[i]):
            if c == b:
                continue
            f = [(e, k) for (r, e), k in col.items() if r == a]
            if f:
                col = dict(col)
                for e, k in f:
                    vec_add_scaled(col, -k * uinv, e, pivot, p)
            new_cols.append(_drop_row(col, a))
        mats[i] = new_cols
        if i + 1 < len(mats):
            mats[i + 1] = [_drop_row(col, b) for col in mats[i + 1]]
        if i - 1 >= 0:
            del mats[i - 1][a]
        del twists[i + 1][b]
        del twists[i][a]


def minimalize(C: ChainComplex) -> ChainComplex:
    """Strip unit entries by Gaussian cancellation on the complex.

    Each unit entry of a differential splits off an exact summand (see
    cancel_units); zero modules left at either end are trimmed.  The
    result is homotopy equivalent to C and has all entries in m.  A
    complex with nothing to cancel or trim is returned as it is, with
    its cached homology runs.
    """
    if C.is_minimal() and (C.hi == 0 or (C.modules[0].rank and C.modules[-1].rank)):
        return C
    ring = C.ring
    twists = [list(m.twists) for m in C.modules]
    mats = [list(d.cols) for d in C.diffs]
    cancel_units(ring.char, twists, mats)

    # trim zero modules at both ends, keeping at least one module
    lo_trim = 0
    while lo_trim < len(twists) - 1 and not twists[lo_trim]:
        lo_trim += 1
    hi_trim = len(twists)
    while hi_trim - 1 > lo_trim and not twists[hi_trim - 1]:
        hi_trim -= 1
    twists = twists[lo_trim:hi_trim]
    mats = mats[lo_trim : hi_trim - 1]
    modules = [FreeModule(ring, tuple(t)) for t in twists]
    diffs = [ModMap(modules[k + 1], modules[k], mat) for k, mat in enumerate(mats)]
    return ChainComplex(ring, modules, diffs, shift=C.shift + lo_trim, koszul=C.koszul)


# ---------------------------------------------------------------------------
# Hom complexes

# Hom(F, G) has rank rank(F) * rank(G), which for two Koszul complexes is
# 2^(m+n); the product is capped.  In-process `level` runs of Hom of
# Koszul complexes over F_101[x1..x6] on a 2-core host took 0.08, 0.24,
# 0.9, 3.3 and 10.7 s at ranks 2^8 to 2^12, so the cap matches the rank
# 2^10 of the largest Koszul complex.
_HOM_RANK_CAP = 2**10


def hom_complex(F: ChainComplex, G: ChainComplex) -> ChainComplex:
    """Hom(F, G) with differential d(phi) = dG o phi - (-1)^|phi| phi o dF.

    Degree i collects the maps F_j -> G_(j+i); the basis is ordered by
    (j, source index, target index).  When both inputs are tagged Koszul
    complexes the result is tagged with the concatenated sequence, which
    it is isomorphic to up to shift via Koszul self-duality.  A rank
    above _HOM_RANK_CAP is refused before any basis is built.
    """
    if F.ring != G.ring:
        raise UsageError("complexes over different rings")
    rank = sum(m.rank for m in F.modules) * sum(m.rank for m in G.modules)
    if rank > _HOM_RANK_CAP:
        raise UnsupportedInputError(
            f"{E_VAR_CAP}: Hom complexes capped at rank {_HOM_RANK_CAP}, got {rank}"
        )
    ring = F.ring
    lo_h = -F.hi
    hi_h = G.hi
    if hi_h < lo_h:
        raise UsageError("empty Hom range")
    basis = {}
    twists = {}
    for i in range(lo_h, hi_h + 1):
        items = []
        tw = []
        for j in range(F.hi + 1):
            gi = j + i
            if not 0 <= gi <= G.hi:
                continue
            for u in range(F.modules[j].rank):
                for v in range(G.modules[gi].rank):
                    items.append((j, u, v))
                    tw.append(G.modules[gi].twists[v] - F.modules[j].twists[u])
        basis[i] = items
        twists[i] = tuple(tw)
    modules = {i: FreeModule(ring, twists[i]) for i in range(lo_h, hi_h + 1)}
    p = ring.char
    dF_rows = [transpose_map(d).cols for d in F.diffs]
    diffs = []
    for i in range(lo_h + 1, hi_h + 1):
        tgt_index = {t: idx for idx, t in enumerate(basis[i - 1])}
        sign = -1 if i % 2 == 0 else 1  # -(-1)^i
        cols = []
        # dG lands in block j and dF in block j + 1, so no two terms meet
        for j, u, v in basis[i]:
            col = {}
            if j + i >= 1:
                for (w, e), c in G.diffs[j + i - 1].cols[v].items():
                    r = tgt_index.get((j, u, w))
                    if r is not None:
                        col[(r, e)] = c
            if j + 1 <= F.hi:
                for (q, e), c in dF_rows[j][u].items():
                    r = tgt_index.get((j + 1, q, v))
                    if r is not None:
                        col[(r, e)] = sign * c % p
            cols.append(col)
        diffs.append(ModMap(modules[i], modules[i - 1], cols))
    mods = [modules[i] for i in range(lo_h, hi_h + 1)]
    tag = None
    if F.koszul is not None and G.koszul is not None:
        tag = KoszulTag(seq=F.koszul.seq + G.koszul.seq)
    return ChainComplex(ring, mods, diffs, shift=G.shift - F.shift + lo_h, koszul=tag)
