"""Finite free chain complexes over R: Koszul, Hom, homology, minimality.

Complexes are stored with homological degrees 0..length-1: a level does
not change under a shift, so none is recorded.  Maps have degree zero,
and their grading is in the twists.  A differential is checked when it
is built, a list of maps at construction and a Koszul d_k on its first
read: its composite with each neighbour already built must vanish.
Homology H_i is a Subquotient of F_i: the kernel generators of d_i that
lie outside D = im d_(i+1) + J*F_i, with the reduced basis of D; no
presentation of it is built.  Each differential d_i owns one elimination
run: its kernel goes to H_i (and, for a Koszul d_1, to the conormal
bound), and the basis of im d_i + J*F_(i-1) it holds goes to H_(i-1);
on top, J's basis at each position is already the reduced basis of
J*F_hi.

Differentials hold packed vectors, as every map does: a Koszul entry is
packed once per sequence entry and moved to its row by one addition,
and unit cancellation reads a unit as a term of degree zero and drops a
row by moving the rows below it up one position.

Koszul complexes carry their defining sequence, which level bounds read,
and the ring keeps one per sequence tuple.  Every entry of a Koszul d_k
is 0 or plus or minus a J-normal entry of d_1, so minimality, and
whether d_k is zero, are read off d_1 alone.  The only Hom built is that
of two Koszul complexes, and by Koszul self-duality it is the Koszul
complex on the concatenated sequence up to a shift, which no level
reads; hom_complex returns exactly that complex.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Optional, Sequence, Union

from .errors import UnsupportedInputError, UsageError
from .gbcore import degree, pack, position, position_shift, vec_add_scaled, vector
from .groebner import E_VAR_CAP
from .modules import (
    FreeModule,
    ModMap,
    SubmoduleGB,
    Subquotient,
    subquotient,
)
from .polys import Poly
from .rings import QuotientRing


class ChainComplex:
    """A finite complex of twisted free modules.

    diffs is the list d_1..d_hi, built and checked at construction, or
    a function k -> d_k that builds each differential on its first read.
    A differential is checked when it is built: it must map F_k to
    F_(k-1) and compose to zero with each neighbour already built.
    koszul is the sequence of a Koszul complex, set by koszul_complex
    alone as bounds read it in place of the maps, or None.
    """

    def __init__(
        self,
        ring: QuotientRing,
        modules: Sequence[FreeModule],
        diffs: Union[Sequence[ModMap], Callable[[int], ModMap]],
    ):
        if not modules:
            raise UsageError("a complex needs at least one module")
        for m in modules:
            if m.ring != ring:
                raise UsageError("module over a different ring")
        self.ring = ring
        self.modules = tuple(modules)
        self.koszul: Optional[tuple] = None
        self._homology: dict = {}
        self._diffs: dict = {}
        if callable(diffs):
            self._make = diffs
        else:
            if len(diffs) != len(modules) - 1:
                raise UsageError("expected one differential per adjacent pair")
            self._make = lambda k: diffs[k - 1]
            for k in range(1, self.hi + 1):
                self.diff(k)

    @property
    def hi(self) -> int:
        return len(self.modules) - 1

    @property
    def diffs(self) -> tuple:
        """d_1..d_hi, each built and checked on its first read."""
        return tuple(map(self.diff, range(1, self.hi + 1)))

    def diff(self, i: int) -> ModMap:
        """The differential F_i -> F_(i-1), for 1 <= i <= hi."""
        if not 1 <= i <= self.hi:
            raise UsageError(f"no differential at {i}")
        if i not in self._diffs:
            d = self._make(i)
            if d.source != self.modules[i] or d.target != self.modules[i - 1]:
                raise UsageError(f"differential {i} does not match adjacent modules")
            below, above = self._diffs.get(i - 1), self._diffs.get(i + 1)
            if below is not None and not below.compose(d).is_zero():
                raise UsageError(f"differentials at {i} do not compose to zero")
            if above is not None and not d.compose(above).is_zero():
                raise UsageError(f"differentials at {i + 1} do not compose to zero")
            self._diffs[i] = d
        return self._diffs[i]

    def nonzero_degrees(self) -> list:
        return [i for i in range(len(self.modules)) if self.modules[i].rank > 0]

    def is_zero_complex(self) -> bool:
        return not self.nonzero_degrees()

    def is_minimal(self) -> bool:
        """Every entry of every differential lies in m; read off d_1 for a Koszul complex."""
        top = min(self.hi, 1) if self.koszul is not None else self.hi
        return all(self.diff(k).entries_in_maximal_ideal() for k in range(1, top + 1))

    def homology(self, i: int) -> Subquotient:
        """d_i's kernel over d_(i+1)'s image; basis vectors at 0, J*F_hi on top."""
        if not 0 <= i <= self.hi:
            raise UsageError(f"degree {i} outside 0..{self.hi}")
        if i not in self._homology:
            free = self.modules[i]
            numer = (self.diff(i).kernel_and_image[0] if i
                     else [free.basis_vector(k) for k in range(free.rank)])
            denom = (self.diff(i + 1).kernel_and_image[1] if i < self.hi
                     else SubmoduleGB(free, self.ring.defining_multiples(free.rank)))
            self._homology[i] = subquotient(free, numer, denom)
        return self._homology[i]

    def __repr__(self):
        ranks = ", ".join(str(m.rank) for m in self.modules)
        return f"ChainComplex(ranks=[{ranks}])"


# ---------------------------------------------------------------------------
# Koszul complexes

# A Koszul complex on m elements has total rank 2^m, so the sequence
# length is capped.
_KOSZUL_CAP = 10


def check_koszul_length(m: int) -> None:
    """Refuse a Koszul complex on more than _KOSZUL_CAP elements."""
    if m > _KOSZUL_CAP:
        raise UnsupportedInputError(
            f"{E_VAR_CAP}: Koszul complexes capped at {_KOSZUL_CAP} elements "
            f"(rank 2^{_KOSZUL_CAP}), got {m}"
        )


def sequence_map(seq: Sequence[Poly], ring: QuotientRing) -> ModMap:
    """R's 1 x n map sending e_j to seq[j], with twist deg seq[j] (0 for a zero entry).

    Built once per sequence tuple: it is d_1 of koszul_complex(seq, R),
    and the conormal relations read the kernel half of its run.
    """
    seq = tuple(seq)

    def build():
        source = FreeModule(ring, tuple(max(f.degree(), 0) for f in seq))
        return ModMap.from_rows(source, FreeModule(ring, (0,)), [seq])

    return ring.owned(("sequence", seq), build)


def check_koszul_sequence(seq: Sequence[Poly], ring: QuotientRing) -> None:
    """Refuse what no Koszul complex over R is built on.

    Entries must be nonzero homogeneous polynomials of positive degree
    from R's ambient ring; their images in R may vanish.  More than
    _KOSZUL_CAP entries is refused.
    """
    check_koszul_length(len(seq))
    for f in seq:
        if not isinstance(f, Poly) or f.ring != ring.poly_ring:
            raise UsageError("sequence entries must come from the ambient ring")
        if f.is_zero() or not f.is_homogeneous() or f.degree() < 1:
            raise UsageError(f"sequence entry must be homogeneous of positive degree: {f}")


def koszul_complex(seq: Sequence[Poly], ring: QuotientRing) -> ChainComplex:
    """R's Koszul complex on seq, basis e_S ordered lex in each degree.

    The differential takes e_S for S = (i_1 < .. < i_k) to the
    alternating sum of f_(i_j) e_(S minus i_j) with sign +1 on the first
    entry, and d_1 is R's sequence_map.  seq must pass
    check_koszul_sequence.  After the check, R returns its complex for
    the tuple, so callers share its runs and homology: its modules are
    built on the first request, and each d_k on its first read, checked
    then against its built neighbours.
    """
    check_koszul_sequence(seq, ring)
    elems = tuple(seq)
    return ring.owned(("koszul", elems), lambda: _build_koszul(elems, ring))


def _build_koszul(elems: tuple, ring: QuotientRing) -> ChainComplex:
    n = len(elems)
    p, nvars = ring.char, ring.nvars
    # each entry's terms packed once at position 0, then moved to their row
    packed = [vector(f) for f in elems]
    degs = [f.degree() for f in elems]
    subsets = [list(combinations(range(n), k)) for k in range(n + 1)]
    modules = [FreeModule(ring, tuple(sum(degs[i] for i in s) for s in subsets[k]))
               for k in range(n + 1)]

    def diff(k: int) -> ModMap:
        if k == 1:
            return sequence_map(elems, ring)
        index = {s: idx for idx, s in enumerate(subsets[k - 1])}
        cols = []
        for s in subsets[k]:
            col = {}
            for j, i in enumerate(s):
                shift = position_shift(index[s[:j] + s[j + 1:]], nvars)
                for u, c in packed[i].items():
                    col[u + shift] = p - c if j % 2 else c
            cols.append(col)
        return ModMap(modules[k], modules[k - 1], cols)

    K = ChainComplex(ring, modules, diff)
    K.koszul = elems
    return K


# ---------------------------------------------------------------------------
# minimalization


def _find_unit(mats: list, nvars: int):
    """(i, a, b, u) for the first unit u at (row a, column b) of mats[i]."""
    for i, cols in enumerate(mats):
        units = [(position(t, nvars), b, c) for b, col in enumerate(cols)
                 for t, c in col.items() if not degree(t, nvars)]
        if units:
            return (i, *min(units))
    return None


def _drop_row(col: dict, a: int, nvars: int) -> dict:
    """col without row a, the rows below a moved up one.

    The packed terms of row a lie in [floor, floor + up), for floor the
    shift to row a and up the shift one row back, and those of the rows
    below a lie under floor.
    """
    floor, up = position_shift(a, nvars), position_shift(-1, nvars)
    return {(t + up if t < floor else t): c for t, c in col.items()
            if not floor <= t < floor + up}


def cancel_units(p: int, nvars: int, twists: list, mats: list) -> None:
    """Strip unit entries from a chain of matrices by Gaussian cancellation.

    mats[i] maps the free module with twists twists[i + 1] to the one
    with twists twists[i], as a list of packed column vectors in nvars
    variables with homogeneous entries.  A unit is a term of degree
    zero: a constant entry u at (a, b) of mats[i]
    splits off an exact summand.  Basis b of twists[i + 1] and a of
    twists[i] are removed, each column c of mats[i] with entry f at row
    a becomes c - (f / u) * column b, mats[i + 1] loses row b and
    mats[i - 1] loses column a.  Pivots are taken first in (matrix,
    row, column) order until every entry lies in m.  Entries are not
    J-reduced here: an entry is a unit or not whatever its
    representative, and ModMap reduces the result.  A multiple of the
    pivot column keeps each row's degree, as the entries are
    homogeneous.  Works in place.
    """
    zero = (0,) * nvars
    while True:
        hit = _find_unit(mats, nvars)
        if hit is None:
            return
        i, a, b, u = hit
        pivot = mats[i][b]
        uinv = pow(u, p - 2, p)
        unit_at_a = pack(a, zero)
        new_cols = []
        for c, col in enumerate(mats[i]):
            if c == b:
                continue
            f = [(t, k) for t, k in col.items() if position(t, nvars) == a]
            if f:
                col = dict(col)
                for t, k in f:
                    vec_add_scaled(col, -k * uinv, t - unit_at_a, pivot, p)
            new_cols.append(_drop_row(col, a, nvars))
        mats[i] = new_cols
        if i + 1 < len(mats):
            mats[i + 1] = [_drop_row(col, b, nvars) for col in mats[i + 1]]
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
    its cached homology and its maps' runs; R's Koszul complexes are
    such, as their entries lie in m and their end modules have rank 1,
    and C.is_minimal() reads d_1 alone for them, so none of their other
    differentials is built here.  A rebuilt complex carries no sequence.
    """
    if C.is_minimal() and (C.hi == 0 or (C.modules[0].rank and C.modules[-1].rank)):
        return C
    ring = C.ring
    twists = [list(m.twists) for m in C.modules]
    mats = [list(d.cols) for d in C.diffs]
    cancel_units(ring.char, ring.nvars, twists, mats)

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
    return ChainComplex(ring, modules, diffs)


# ---------------------------------------------------------------------------
# Hom complexes


def hom_complex(F: ChainComplex, G: ChainComplex) -> ChainComplex:
    """Hom(K(a), K(b)) for two Koszul complexes, built as K(a, b).

    By Koszul self-duality Hom(K(a), K(b)) = K(a)^* (x) K(b) is the
    Koszul complex on a then b, shifted down by len(a) and twisted by
    deg(a) = sum of deg a_i.  The result is R's koszul_complex(a + b)
    itself, with its maps, checks and homology.  Its degrees and twists
    are K(a, b)'s, which are Hom's moved up by len(a) and deg(a); no
    certificate reads either, and level, homology vanishing, torsion and
    free rank do not depend on them.  The sequences are the ones given,
    not their normal forms, so an entry lying in J is accepted.  A
    complex without a sequence is refused, and so are more than
    _KOSZUL_CAP elements together.
    """
    if F.ring != G.ring:
        raise UsageError("complexes over different rings")
    if F.koszul is None or G.koszul is None:
        raise UsageError("Hom is built only between Koszul complexes")
    return koszul_complex(F.koszul + G.koszul, F.ring)
