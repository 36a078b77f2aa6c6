"""Graded modules over R = P/J: free modules, maps and submodule calculus.

A vector of a free module is the Groebner engine's dict from packed
terms to coefficients, in J-normal form, from the map column or
elimination run that makes it to the checks that read it.  Polynomials
cross into vectors only through the engine's vector (from_rows, the
colon's tracked coordinates, the exponent proof) and back only through
its polyvec_from_vec (the dense view and evidence strings), and a basis
vector is one packed term; in between, moving a term to another
position and multiplying it by a monomial are additions on the packed
int, and a constant term is one of degree zero.  A map keeps the image
of each source basis vector as one such vector.  Every operation
(syzygies, kernels, colons, torsion, Hom, free rank) reduces to the
relative syzygy primitive of the Groebner engine, with J folded in by
appending J-multiples of the ambient basis.
A submodule handle holds a reduced basis that some run already made
(the image half of a map's kernel run, the relation half of a colon
step), so no handle runs Groebner itself, and a map makes that run once.
Kernels and torsion submodules come back as generator vectors, which is
what their callers read.  A subquotient, homology among them, stays in
its ambient free module: generator vectors modulo a reduced basis of the
denominator, with no presentation built.  Both torsion checks take one
route: the exponent proof, then the stable colon where it fails.

Degree bookkeeping is strict: free modules carry twists, a basis element
of twist t has degree t, and every term of a map column j at position i
must have degree twist_source(j) - twist_target(i).  Reading that degree
also refuses the engine's degree cap, so a product that a composite or
a cancellation forms is checked before any map keeps it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from . import linalg
from .errors import UsageError
from .gbcore import (degree, pack, polyvec_from_vec, position, position_shift, reducer,
                     relative_syzygies, submodule_nf, unpack, vec_add_scaled, vector)
from .polys import Poly
from .rings import QuotientRing


# ---------------------------------------------------------------------------
# free modules and maps


@dataclass(frozen=True)
class FreeModule:
    ring: QuotientRing
    twists: tuple

    @property
    def rank(self) -> int:
        return len(self.twists)

    def basis_vector(self, j: int) -> dict:
        return {pack(j, (0,) * self.ring.nvars): 1}


class ModMap:
    """A degree zero map between twisted free modules over R.

    cols[j] is the image of source basis j as a J-normal vector of the
    target.  The constructor checks every packed term of a column
    (degree below the engine's cap, position in range, degree
    twist_source(j) - twist_target(position)) and reduces the column
    modulo J*target, so callers may pass any representatives with
    coefficients in 1..p-1.
    """

    def __init__(self, source: FreeModule, target: FreeModule, cols: Sequence):
        if source.ring != target.ring:
            raise UsageError("map between modules over different rings")
        self.source = source
        self.target = target
        ring = source.ring
        if len(cols) != source.rank:
            raise UsageError(f"{len(cols)} columns do not match source rank {source.rank}")
        nvars, rank, twists = ring.nvars, target.rank, target.twists
        for j, col in enumerate(cols):
            want = source.twists[j]
            for t in col:
                d, i = degree(t, nvars), position(t, nvars)
                if not (0 <= i < rank and d == want - twists[i]):
                    raise UsageError(f"column {j}: term {unpack(t, nvars)} needs a row below "
                                     f"{rank} and degree {want} - twist(row)")
        basis = ring.module_reducer(rank)
        self.cols = tuple(submodule_nf(col, basis) if col else {} for col in cols)

    @classmethod
    def from_rows(cls, source: FreeModule, target: FreeModule, rows: Sequence):
        """The map whose entry (i, j) is the polynomial rows[i][j]."""
        rows = tuple(tuple(row) for row in rows)
        if len(rows) != target.rank or any(len(r) != source.rank for r in rows):
            raise UsageError(
                f"matrix shape {len(rows)}x{'x'.join(str(len(r)) for r in rows[:1]) or '0'} "
                f"does not match target rank {target.rank}, source rank {source.rank}"
            )
        poly_ring = source.ring.poly_ring
        cols: list = [{} for _ in range(source.rank)]
        for i, row in enumerate(rows):
            for j, f in enumerate(row):
                if f.ring is not poly_ring and f.ring != poly_ring:
                    raise UsageError("matrix entry from a different ring")
                cols[j].update(vector(f, i))
        return cls(source, target, cols)

    @property
    def ring(self) -> QuotientRing:
        return self.source.ring

    @property
    def rows(self) -> tuple:
        """The dense matrix of polynomials, zeros filled in."""
        P, rank = self.ring.poly_ring, self.target.rank
        columns = [polyvec_from_vec(P, rank, v) for v in self.cols]
        return tuple(zip(*columns)) if columns else ((),) * rank

    @cached_property
    def kernel_and_image(self) -> tuple:
        """ker as nonzero J-normal source vectors, and im + J*target as a handle.

        One relative syzygy run on the columns, made once, gives both
        halves: the image basis is that run's own module_gb output.  A
        zero map makes no run: the run would return every source basis
        vector, then J's reduced basis at each target position, which
        is what homology also reads at the top degree.
        """
        ring, rank = self.ring, self.target.rank
        if self.is_zero():
            return ([self.source.basis_vector(j) for j in range(self.source.rank)],
                    SubmoduleGB(self.target, ring.defining_multiples(rank)))
        raw, image = relative_syzygies(self.cols, ring.defining_multiples(rank), rank=rank,
                                       nvars=ring.nvars, p=ring.char)
        return _nonzero_normal(self.source, raw), SubmoduleGB(self.target, image)

    def is_zero(self) -> bool:
        return not any(self.cols)

    def entries_in_maximal_ideal(self) -> bool:
        n = self.ring.nvars
        return all(degree(t, n) for col in self.cols for t in col)

    def compose(self, other: "ModMap") -> "ModMap":
        """self after other.

        Column j of the result sums c * x^e times column k of self over
        the terms c * x^e at position k of other's column j, so only the
        products that exist are formed; the constructor checks and
        J-normalises it.  Subtracting the packed x^0 at position k from
        the term gives the shift that multiplies by x^e.
        """
        if other.target != self.source:
            raise UsageError("maps are not composable")
        p, n = self.ring.char, self.ring.nvars
        zero = (0,) * n
        cols = []
        for other_col in other.cols:
            acc: dict = {}
            for u, c in other_col.items():
                k = position(u, n)
                vec_add_scaled(acc, c, u - pack(k, zero), self.cols[k], p)
            cols.append(acc)
        return ModMap(other.source, self.target, cols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModMap)
            and self.source == other.source
            and self.target == other.target
            and self.cols == other.cols
        )

    def __repr__(self):
        return f"ModMap({self.target.rank}x{self.source.rank})"


@dataclass(frozen=True, eq=False)
class SubmoduleGB:
    """A submodule of P^rank containing J * ambient, held by its reduced basis.

    gb is the basis in module_gb's order, from a run that already made
    it: the handle runs no Groebner itself.
    """

    free: FreeModule
    gb: list

    @cached_property
    def _reducer(self):
        ring = self.free.ring
        return reducer(self.gb, ring.nvars, ring.char)

    def nf(self, v: dict) -> dict:
        return submodule_nf(v, self._reducer)

    def contains(self, v: dict) -> bool:
        return not self.nf(v)


# ---------------------------------------------------------------------------
# syzygies and kernels


def _nonzero_normal(free: FreeModule, vecs: Sequence[dict]) -> list:
    """The vectors of free reduced modulo J*free, zeros dropped."""
    basis = free.ring.module_reducer(free.rank)
    return [w for w in (submodule_nf(v, basis) for v in vecs) if w]


def syzygies(phi: ModMap) -> ModMap:
    """The kernel of phi, as a map onto it whose columns generate all R-relations.

    A column's twist is read off its first term; the ModMap constructor
    checks that every term has the same degree.
    """
    kernel = phi.kernel_and_image[0]
    source, n = phi.source, phi.ring.nvars
    twists = tuple(source.twists[position(t, n)] + degree(t, n)
                   for t in (next(iter(v)) for v in kernel))
    return ModMap(FreeModule(phi.ring, twists), source, kernel)


@dataclass(frozen=True, eq=False)
class Subquotient:
    """Generators outside D, and the reduced basis of D; equal only to itself."""

    free: FreeModule
    gens: tuple
    denom: SubmoduleGB

    @property
    def is_zero(self) -> bool:
        return not self.gens


def subquotient(free: FreeModule, numerators: Sequence[dict], denom: SubmoduleGB) -> Subquotient:
    """(span(numerators) + D) / D inside free, for D held by its reduced basis handle.

    D contains J*free, as every SubmoduleGB does.  The numerators must be
    J-normal: those outside D are kept as the generators.
    """
    gens = tuple(v for v in numerators if not denom.contains(v))
    return Subquotient(free, gens, denom)


# ---------------------------------------------------------------------------
# Hom, torsion


def transpose_map(phi: ModMap) -> ModMap:
    """The dual map between dual free modules (negated twists)."""
    ring = phi.ring
    dual_source = FreeModule(ring, tuple(-t for t in phi.target.twists))
    dual_target = FreeModule(ring, tuple(-t for t in phi.source.twists))
    n = ring.nvars
    cols: list = [{} for _ in range(phi.target.rank)]
    for j, col in enumerate(phi.cols):
        for t, c in col.items():
            i = position(t, n)
            cols[i][t + position_shift(j - i, n)] = c
    return ModMap(dual_source, dual_target, cols)


def _colon_submodule(free: FreeModule, n_gb: SubmoduleGB, ideal_gens: Sequence[Poly]) -> SubmoduleGB:
    """(N : I) inside free, for N given by a reduced basis handle.

    Uses the stacked trick: g lies in the colon iff (f_1 g, .., f_t g)
    lies in N + .. + N, which is one relative syzygy computation in
    P^(rank*t) with the candidate coordinates tracked.  Its syzygy half
    is the reduced basis of the colon in module_gb's order, as for
    ideal_intersection, and the colon holds J*free because N does.
    """
    ring = free.ring
    r, n = free.rank, ring.nvars
    t = len(ideal_gens)
    if t == 0:
        raise UsageError("colon by an empty generator list")
    tracked = [{u: c for i, f in enumerate(ideal_gens) for u, c in vector(f, i * r + k).items()}
               for k in range(r)]
    blocks = [position_shift(i * r, n) for i in range(t)]
    untracked = [{u + shift: c for u, c in g.items()} for g in n_gb.gb for shift in blocks]
    syz, _ = relative_syzygies(tracked, untracked, rank=r * t, nvars=ring.nvars, p=ring.char)
    return SubmoduleGB(free, syz)


def _stable_colon(n_gb: SubmoduleGB, ideal_gens: Sequence[Poly]) -> SubmoduleGB:
    """The union of the chain (N : I^s), from a reduced basis of N.

    Iterates N -> (N : I) until the reduced basis is stable.
    """
    current = n_gb
    while True:
        step = _colon_submodule(n_gb.free, current, ideal_gens)
        if step.gb == current.gb:
            return current
        current = step


# Largest power s of f the exponent proof tries before the colon loop
# takes over.  Koszul homology H(x; R) is killed by (x), so its checks
# pass at s = 1; a few more steps cost little next to one colon step.
_EXPONENT_CAP = 4


def _kills_by_exponent(n_gb: SubmoduleGB, vectors: Sequence[dict], f: Poly) -> bool:
    """True when f^s * v lies in N for every v and some s <= _EXPONENT_CAP.

    Iterates w <- nf(f * w) from w = v.  Since N is a submodule,
    nf(f * nf(f^(s-1) v)) = nf(f^s v), so w reaching zero proves that
    f^s kills the class of v, with s the witness.  False says only that
    the cap ran out.  f * w is formed on packed terms, x^e less the
    packed 1 being the shift by x^e, and the normal form against N,
    whose basis may be empty, checks each of its terms against the
    degree cap.
    """
    p, one = n_gb.free.ring.char, pack(0, (0,) * n_gb.free.ring.nvars)
    shifts = [(u - one, c) for u, c in vector(f).items()]
    for w in vectors:
        for _ in range(_EXPONENT_CAP):
            fw: dict = {}
            for shift, c in shifts:
                vec_add_scaled(fw, c, shift, w, p)
            w = n_gb.nf(fw)
            if not w:
                break
        if w:
            return False
    return True


def _torsion_closure(n_gb: SubmoduleGB, vectors: Sequence[dict], fs: Sequence[Poly]):
    """None when the exponent proof passes for each f in fs, else a stable colon.

    The one route of both torsion checks, and of their exponent witness.
    At the first f that fails, the colon by it and the f after it is
    taken: for vectors spanning F mod N that is (N : (fs)^infinity), as
    f^s F in N and g I'^a in N give g (f, I')^(a + s) in N.
    """
    for k, f in enumerate(fs):
        if not _kills_by_exponent(n_gb, vectors, f):
            return _stable_colon(n_gb, fs[k:])
    return None


def _nonzero_gens(ring: QuotientRing, I) -> list:
    """The J-normal forms of the generators of I, zeros dropped."""
    return [g for g in (ring.nf(g) for g in I.gens) if not g.is_zero()]


def gamma_torsion(n_gb: SubmoduleGB, I) -> list:
    """Generators of the I-power torsion submodule of M = F / N.

    N is given by its reduced basis handle.  Each generator is a
    J-normal vector of F outside N; with N they span the preimage
    (N : I^infinity) of Gamma_I(M).  When the exponent proof passes for
    every generator of I (vacuously when all lie in J), Gamma_I(M) = M
    and the candidates are the basis vectors: the reduced basis of F,
    the closure of a torsion module, so both routes give the same list.
    Otherwise the closure's reduced basis gives them, J-normalised: a
    basis element need not be J-normal (x^2 over k[x,y,z]/(x^2 + y^2)).
    As N contains J*F and J lies in m, the pass keeps membership in N
    and constant terms, which the witness test reads; it fixes only the
    printed witness.  Candidates that lie in N are dropped.
    """
    free = n_gb.free
    basis = [free.basis_vector(k) for k in range(free.rank)]
    closure = _torsion_closure(n_gb, basis, _nonzero_gens(free.ring, I))
    candidates = basis if closure is None else _nonzero_normal(free, closure.gb)
    return [v for v in candidates if not n_gb.contains(v)]


def is_power_torsion(H: Subquotient, I) -> bool:
    """True when every element of H is killed by a power of I.

    Checked through the torsion closure, one generator f of I at a time,
    against the reduced basis of the denominator D; the first f that
    fails ends it.  A passing exponent proof is f^s * H = 0, with s as
    witness.  Otherwise H is f-power torsion exactly when the stable
    colon (D : f^infinity) holds every generator.
    """
    for f in _nonzero_gens(H.free.ring, I):
        closure = _torsion_closure(H.denom, H.gens, [f])
        if closure is not None and not all(map(closure.contains, H.gens)):
            return False
    return True


# ---------------------------------------------------------------------------
# free rank


def frank(rels: ModMap) -> int:
    """Rank of the largest free direct summand of M = coker(rels).

    Equals the rank over k of the evaluation pairing between Hom(M, R)
    and the generators of M: an invertible r x r evaluation minor
    assembles a split surjection onto a rank r free module, and any free
    summand contributes such a minor.  The generators need not be
    minimal.  A redundant g_j = sum r_k g_k pairs with every functional
    as sum r_k(0) times the pairings of the g_k, so its column adds no
    rank.
    """
    # Hom_R(M, R) is the kernel of the transposed relations; a kernel
    # vector lists the values of a functional on the generators of M
    hom = transpose_map(rels).kernel_and_image[0]
    zero = (0,) * rels.ring.nvars
    pairing = [[vec.get(pack(j, zero), 0) for j in range(rels.target.rank)] for vec in hom]
    return linalg.rank(pairing, rels.ring.char)
