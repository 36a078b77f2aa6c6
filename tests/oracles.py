"""Degreewise linear algebra oracles, independent of the Groebner engine.

Everything here works one graded piece at a time: the degree d slice of
a homogeneous ideal is the row span of monomial multiples of its raw
generators, free modules get explicit (slot, monomial) coordinates, and
homology dimensions fall out of rank counting on the raw differential
matrices, and trim_by_membership trims a Koszul sequence by degreewise
ideal membership.  Nothing touches normal forms, Groebner bases or syzygy
computations, so agreement with the engine is a genuine cross-check.
The row reduction is this module's own, on numpy int64 matrices, and
rank_mod_p is a second one on Python ints; neither shares code with
linalg.rank.  One exception is the tuple-form reference Buchberger
(pot_key, reference_nf, reference_gb, buchberger_closed): it works on
(position, exponent tuple) terms under the engine's order, with none of
the engine's packed terms, so the packed core is compared against it.
Likewise dense_compose hands its product to the ModMap constructor, so
it checks which entry pairs ModMap.compose multiplies, not the
J-normalisation; dense_koszul checks the placement
and signs of the Koszul entries the same way, and dense_hom, built on
dense_compose, is the general Hom whose homology the Koszul-built Hom
of two Koszul complexes must match up to a twist.  annihilator, radical_membership,
span and torsion_generator_by_span are references of another kind: they
route through the engine by a different construction than the checks
they are compared with.  So is minimal_presentation, which prunes a
presented module (GradedModule) by unit cancellation for the frank and
Hilbert function references that read minimal generators; the engine's
frank reads any presentation.  The degreewise oracles read a vector as
a tuple of polynomials, one per position: polyvecs turns the engine's
dicts, map columns among them, into such tuples, and vec_from_polyvec
turns one back into a dict.  The engine keys its vectors by packed
terms; the tuple-form adapter (packed, unpacked and the tuple_ views of
module_gb, relative_syzygies, reducer and submodule_nf) is the one place
where tests convert between those and (position, exponents) terms.
ideal_sum is the plain sum of two ideals from their generators, for
tests that compare ideals; the engine takes I + J from its ring.
"""

import heapq
from itertools import combinations

import numpy as np

from levelbounds import gbcore
from levelbounds.complexes import cancel_units
from levelbounds.errors import UsageError
from levelbounds.gbcore import module_gb, relative_syzygies
from levelbounds.groebner import IdealData, ideal_intersection
from levelbounds.modules import FreeModule, ModMap, SubmoduleGB, gamma_torsion, polyvec_from_vec
from levelbounds.polys import Poly, drl_key, mono_lcm, mono_mul


# ---------------------------------------------------------------------------
# presented modules: coker(rels), and their minimal presentations


class GradedModule:
    """coker(rels) for rels mapping into the free module of generators."""

    def __init__(self, gens, rels):
        if rels.target != gens:
            raise UsageError("relations must land in the generator module")
        self.gens = gens
        self.rels = rels
        self._minimal = None

    @property
    def ring(self):
        return self.gens.ring

    def __repr__(self):
        return f"GradedModule(gens={self.gens.twists}, rels={self.rels.source.rank})"


def minimal_presentation(M):
    """Prune unit entries by pivoting until all relations lie in m.

    Each pivot removes one generator and one relation by the usual
    Gaussian cancellation; zero relation columns are dropped at the end.
    Idempotent, and preserves the degreewise Hilbert function.
    """
    if M._minimal is not None:
        return M._minimal
    ring = M.ring
    twists = [list(M.gens.twists), list(M.rels.source.twists)]
    mats = [list(M.rels.cols)]
    cancel_units(ring.char, ring.nvars, twists, mats)
    gen_twists, src_twists = twists
    gens = FreeModule(ring, tuple(gen_twists))
    rels = ModMap(FreeModule(ring, tuple(src_twists)), gens, mats[0])
    keep = [j for j, col in enumerate(rels.cols) if col]
    source = FreeModule(ring, tuple(src_twists[j] for j in keep))
    result = GradedModule(gens, ModMap(source, gens, [rels.cols[j] for j in keep]))
    result._minimal = result
    M._minimal = result
    return result


def polyvecs(free, vecs):
    """Dict vectors of free as tuples of polynomials, one per position."""
    return [polyvec_from_vec(free.ring.poly_ring, free.rank, v) for v in vecs]


def vec_from_polyvec(polys):
    out = {}
    for i, f in enumerate(polys):
        for e, c in f.terms:
            out[(i, e)] = c
    return packed(out)


def polyvec_degree(free, polys):
    """Homogeneous degree of a vector, None when it is zero."""
    deg = None
    for j, f in enumerate(polys):
        if f.is_zero():
            continue
        if not f.is_homogeneous():
            raise UsageError(f"component {j} is not homogeneous: {f}")
        d = f.degree() + free.twists[j]
        if deg is None:
            deg = d
        elif deg != d:
            raise UsageError("vector is not homogeneous across components")
    return deg


# ---------------------------------------------------------------------------
# dense F_p matrices: entries reduced mod p in int64, and elimination forms
# products of two residues, which is exact for p < 2^31


def as_matrix(rows, p):
    a = np.array(rows, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1) if a.size else a.reshape(0, 0)
    return a % p


def rref(a, p):
    """Row-reduced echelon form and pivot column list."""
    m = a.copy() % p
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        lead = r + nz[0]
        if lead != r:
            m[[r, lead]] = m[[lead, r]]
        m[r] = (m[r] * pow(int(m[r, c]), p - 2, p)) % p
        for other in range(rows):
            if other != r and m[other, c]:
                m[other] = (m[other] - m[other, c] * m[r]) % p
        pivots.append(c)
        r += 1
    return m, pivots


def matrix_rank(a, p):
    if a.size == 0:
        return 0
    return len(rref(a, p)[1])


def nullspace(a, p):
    """Basis of the right nullspace, rows of the returned matrix."""
    rows, cols = a.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if rows == 0:
        return np.eye(cols, dtype=np.int64)
    r, pivots = rref(a, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-r[i, fc]) % p
    return basis


# ---------------------------------------------------------------------------
# polynomial helpers the tests use and the package does not


def monomial(ring, exps):
    """x^exps in ring."""
    return ring.from_dict({tuple(exps): 1})


def monic(f):
    """f scaled to leading coefficient 1; zero stays zero."""
    if f.is_zero():
        return f
    return f.scale(pow(f.terms[0][1], f.ring.char - 2, f.ring.char))


def shift_mono(f, exps):
    """f * x^exps; a monomial multiple keeps the terms in order."""
    return Poly(f.ring, tuple((mono_mul(e, exps), c) for e, c in f.terms))


def as_dict(f):
    """The terms of f as {exponent tuple: coefficient}."""
    return dict(f.terms)


def monomials(nvars, d):
    """Exponent tuples of total degree d, in a fixed deterministic order."""
    if d < 0:
        return []
    if nvars == 0:
        return [()] if d == 0 else []
    out = []
    for e in range(d + 1):
        for rest in monomials(nvars - 1, d - e):
            out.append((e,) + rest)
    return out


def _coords(f, d, index):
    v = [0] * len(index)
    for e, c in f.terms:
        if sum(e) != d:
            raise ValueError("term of degree %d in a degree %d slot" % (sum(e), d))
        v[index[e]] = c
    return v


def ideal_rows(gens, nvars, d, p):
    """Rows spanning the degree d piece of the ideal of the given gens."""
    mons = monomials(nvars, d)
    index = {e: i for i, e in enumerate(mons)}
    rows = []
    for g in gens:
        if g.is_zero():
            continue
        k = d - g.degree()
        if k < 0:
            continue
        for m in monomials(nvars, k):
            rows.append(_coords(shift_mono(g, m), d, index))
    if not rows:
        return np.zeros((0, len(mons)), dtype=np.int64)
    return as_matrix(rows, p)


def ideal_piece_dim(gens, nvars, d, p):
    return matrix_rank(ideal_rows(gens, nvars, d, p), p)


def ring_piece_dim(j_gens, nvars, d, p):
    """dim over k of the degree d piece of the quotient by the j_gens."""
    return len(monomials(nvars, d)) - ideal_piece_dim(j_gens, nvars, d, p)


def in_ideal(f, gens):
    """Membership of a homogeneous f, by degreewise span comparison."""
    if f.is_zero():
        return True
    p = f.ring.char
    nvars = f.ring.nvars
    d = f.degree()
    index = {e: i for i, e in enumerate(monomials(nvars, d))}
    rows = ideal_rows(gens, nvars, d, p)
    fv = as_matrix([_coords(f, d, index)], p)
    return matrix_rank(np.vstack([rows, fv]), p) == matrix_rank(rows, p)


def trim_by_membership(seq, R):
    """seq's normal forms mod J, less the entries lying in the ideal of the rest, plus J.

    The membership scan, restarted after each drop, whose result the
    package's rank trim must equal.  in_ideal decides each membership
    degreewise on the given entries and J's generators, so no Groebner
    basis, normal form or syzygy is involved; R's normal form only
    reports the kept entries, as the package's trim does.
    """
    kept = list(seq)
    j_gens = list(R.defining.gens)
    changed = True
    while changed:
        changed = False
        for idx in range(len(kept)):
            if in_ideal(kept[idx], kept[:idx] + kept[idx + 1:] + j_gens):
                kept.pop(idx)
                changed = True
                break
    return tuple(R.nf(f) for f in kept)


def free_piece(twists, nvars, d):
    """(slot, monomial) basis of the degree d piece of a free module."""
    out = []
    for j, t in enumerate(twists):
        for m in monomials(nvars, d - t):
            out.append((j, m))
    return out


def submodule_rows(vectors, twists, nvars, d, p):
    """Degree d span of the submodule generated by homogeneous vectors.

    Each vector is a tuple of Poly entries; entry j of a vector of
    degree s must be homogeneous of degree s - twists[j] or zero.
    """
    basis = free_piece(twists, nvars, d)
    index = {bm: i for i, bm in enumerate(basis)}
    rows = []
    for vec in vectors:
        s = None
        for j, f in enumerate(vec):
            if not f.is_zero():
                s = f.degree() + twists[j]
                break
        if s is None:
            continue
        k = d - s
        if k < 0:
            continue
        for m in monomials(nvars, k):
            v = [0] * len(basis)
            for j, f in enumerate(vec):
                if f.is_zero():
                    continue
                for e, c in shift_mono(f, m).terms:
                    v[index[(j, e)]] = c
            rows.append(v)
    if not rows:
        return np.zeros((0, len(basis)), dtype=np.int64)
    return as_matrix(rows, p)


def ideal_sum(I, J):
    """I + J, from the two generator lists."""
    return IdealData(I.ring, I.gens + J.gens)


def krull_dim_all_subsets(I):
    """dim P/I for a proper monomial ideal I, read off its raw generators.

    The largest variable subset containing no generator's support,
    found by walking every subset of all n variables.
    """
    n = I.ring.nvars
    supports = [{i for i, e in enumerate(g.terms[0][0]) if e} for g in I.gens]
    for size in range(n, -1, -1):
        for s in combinations(range(n), size):
            if not any(sup <= set(s) for sup in supports):
                return size


def _jf_vectors(j_gens, rank, zero):
    out = []
    for j in range(rank):
        for g in j_gens:
            if g.is_zero():
                continue
            vec = [zero] * rank
            vec[j] = g
            out.append(tuple(vec))
    return out


def module_piece_dim(M, d):
    """dim over k of the degree d piece of a presented module."""
    ring = M.ring
    p, nvars = ring.char, ring.nvars
    twists = M.gens.twists
    basis = free_piece(twists, nvars, d)
    if not basis:
        return 0
    zero = ring.poly_ring.zero()
    vectors = _jf_vectors(ring.defining.gens, len(twists), zero)
    vectors += polyvecs(M.gens, M.rels.cols)
    rows = submodule_rows(vectors, twists, nvars, d, p)
    return len(basis) - matrix_rank(rows, p)


def _induced_rank(image_vectors, j_gens, twists, nvars, d, p, zero):
    """Degree d rank of the induced map into free/(defining ideal)."""
    w = submodule_rows(_jf_vectors(j_gens, len(twists), zero), twists, nvars, d, p)
    a = submodule_rows(image_vectors, twists, nvars, d, p)
    if a.shape[0] == 0:
        return 0
    return matrix_rank(np.vstack([w, a]), p) - matrix_rank(w, p)


def homology_dim(C, i, d):
    """dim over k of H_i(C) in degree d, straight from the matrices.

    dim H_i = dim(F_i/JF_i)_d - rank(d_i)_d - rank(d_{i+1})_d where the
    ranks are of the induced maps between the quotient pieces.
    """
    ring = C.ring
    p, nvars = ring.char, ring.nvars
    zero = ring.poly_ring.zero()
    jg = ring.defining.gens
    twists = C.modules[i].twists
    w = submodule_rows(_jf_vectors(jg, len(twists), zero), twists, nvars, d, p)
    quot = len(free_piece(twists, nvars, d)) - matrix_rank(w, p)
    r_in = 0
    if i + 1 <= C.hi:
        cols = polyvecs(C.modules[i], C.diffs[i].cols)
        r_in = _induced_rank(cols, jg, twists, nvars, d, p, zero)
    r_out = 0
    if i >= 1:
        out_twists = C.modules[i - 1].twists
        cols = polyvecs(C.modules[i - 1], C.diffs[i - 1].cols)
        r_out = _induced_rank(cols, jg, out_twists, nvars, d, p, zero)
    return quot - r_in - r_out


def _mult_matrix(ell, nvars, d, p):
    """Matrix of multiplication by ell from degree d to degree d + deg ell."""
    src = monomials(nvars, d)
    tgt = monomials(nvars, d + ell.degree())
    tindex = {e: i for i, e in enumerate(tgt)}
    m = np.zeros((len(tgt), len(src)), dtype=np.int64)
    for q, e in enumerate(src):
        for a, c in ell.terms:
            m[tindex[tuple(x + y for x, y in zip(e, a))], q] += c
    return m % p


def _killed_dim(j_gens, mults, nvars, d, p):
    """dim{f in P_d : m*f lies in the ideal piece, for every m in mults}.

    Solved as one nullspace: unknowns are the coordinates of f plus one
    auxiliary block per multiplier expressing membership of the image in
    the span of the ideal rows.
    """
    n_d = len(monomials(nvars, d))
    if n_d == 0:
        return 0
    blocks = []
    for ell in mults:
        a = _mult_matrix(ell, nvars, d, p)
        w = ideal_rows(j_gens, nvars, d + ell.degree(), p)
        blocks.append((a, w))
    rows_total = sum(a.shape[0] for a, _ in blocks)
    cols_total = n_d + sum(w.shape[0] for _, w in blocks)
    m = np.zeros((rows_total, cols_total), dtype=np.int64)
    r0, c0 = 0, n_d
    for a, w in blocks:
        m[r0:r0 + a.shape[0], :n_d] = a
        if w.shape[0]:
            m[r0:r0 + a.shape[0], c0:c0 + w.shape[0]] = (-w.T) % p
        r0 += a.shape[0]
        c0 += w.shape[0]
    ns = nullspace(m, p)
    if ns.shape[0] == 0:
        return 0
    return matrix_rank(np.ascontiguousarray(ns[:, :n_d]), p)


def _has_socle(P, j_gens, cap):
    xs = list(P.variables())
    for d in range(cap + 1):
        killed = _killed_dim(j_gens, xs, P.nvars, d, P.char)
        if killed > ideal_piece_dim(j_gens, P.nvars, d, P.char):
            return True
    return False


def _is_linear_nzd(P, j_gens, ell, cap):
    for d in range(cap + 1):
        killed = _killed_dim(j_gens, [ell], P.nvars, d, P.char)
        if killed > ideal_piece_dim(j_gens, P.nvars, d, P.char):
            return False
    return True


def depth_oracle(P, j_gens, cap=6):
    """Depth of P/(j_gens) by socle detection and linear NZD peeling.

    Exact for the rings exercised in the tests: their socle elements and
    zerodivisor witnesses all live in degree <= cap.  Each accepted
    linear form lies outside the current ideal, so the recursion adds an
    independent linear generator every step and must terminate.
    """
    if _has_socle(P, j_gens, cap):
        return 0
    xs = list(P.variables())
    candidates = list(xs)
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            candidates.append(xs[i] + xs[j])
            candidates.append(xs[i] - xs[j])
    for ell in candidates:
        if _is_linear_nzd(P, j_gens, ell, cap):
            return 1 + depth_oracle(P, list(j_gens) + [ell], cap)
    raise RuntimeError("no socle and no linear nonzerodivisor found")


def hom_eval_matrix(M):
    """Constant values of degree matched homs M -> ring on the generators.

    Expects a module whose relation matrix has no constant entries (a
    minimal presentation).  For each generator twist t the homs into the
    ring twisted by t are solved degreewise: the unknowns are polynomial
    coordinates for the generator images, constrained to send every
    relation column into the defining ideal.  Returns one row per basis
    solution; column j holds the constant coefficient of the image of
    generator j.  The rank of this matrix is the free rank.
    """
    ring = M.ring
    p, nvars = ring.char, ring.nvars
    gens = M.gens
    if not M.rels.entries_in_maximal_ideal():
        raise ValueError("presentation is not minimal")
    jg = [g for g in ring.defining.gens if not g.is_zero()]
    ncols = M.rels.source.rank
    eval_rows = []
    for t in sorted(set(gens.twists)):
        blocks = [monomials(nvars, tw - t) for tw in gens.twists]
        offsets = []
        pos = 0
        for b in blocks:
            offsets.append(pos)
            pos += len(b)
        nunk = pos
        if nunk == 0:
            continue
        pieces = []
        for c in range(ncols):
            col = [M.rels.rows[j][c] for j in range(gens.rank)]
            s = None
            for j, f in enumerate(col):
                if not f.is_zero():
                    s = f.degree() + gens.twists[j]
                    break
            if s is None:
                continue
            dd = s - t
            tgt = monomials(nvars, dd)
            tindex = {e: i for i, e in enumerate(tgt)}
            a = np.zeros((len(tgt), nunk), dtype=np.int64)
            for j, f in enumerate(col):
                if f.is_zero():
                    continue
                for q, m in enumerate(blocks[j]):
                    for e, cc in shift_mono(f, m).terms:
                        a[tindex[e], offsets[j] + q] += cc
            pieces.append((a % p, ideal_rows(jg, nvars, dd, p)))
        rows_total = sum(a.shape[0] for a, _ in pieces)
        cols_total = nunk + sum(w.shape[0] for _, w in pieces)
        m = np.zeros((rows_total, cols_total), dtype=np.int64)
        r0, c0 = 0, nunk
        for a, w in pieces:
            m[r0:r0 + a.shape[0], :nunk] = a
            if w.shape[0]:
                m[r0:r0 + a.shape[0], c0:c0 + w.shape[0]] = (-w.T) % p
            r0 += a.shape[0]
            c0 += w.shape[0]
        if rows_total == 0:
            ns = np.eye(nunk, dtype=np.int64)
        else:
            ns = nullspace(m, p)
        for v in ns:
            row = [0] * gens.rank
            for j, tw in enumerate(gens.twists):
                if tw == t:
                    row[j] = int(v[offsets[j]]) % p
            eval_rows.append(row)
    if not eval_rows:
        return np.zeros((0, gens.rank), dtype=np.int64)
    return as_matrix(eval_rows, p)


def frank_oracle(M):
    ring = M.ring
    mat = hom_eval_matrix(M)
    return matrix_rank(mat, ring.char)


def annihilator(M):
    """(0 : M) as an ideal of the ambient polynomial ring containing J.

    The intersection over the generators e_k of the colon ideals
    (N : e_k), each read off one relative syzygy computation.
    """
    ring = M.ring
    if M.gens.rank == 0:
        return IdealData(ring.poly_ring, (ring.poly_ring.one(),))
    u_vecs = list(M.rels.cols) + ring.defining_multiples(M.gens.rank)
    result = None
    zero = (0,) * ring.nvars
    for k in range(M.gens.rank):
        tracked = [packed({(k, zero): 1})]
        syz, _ = relative_syzygies(tracked, u_vecs, rank=M.gens.rank, nvars=ring.nvars, p=ring.char)
        gens = []
        for s in syz:
            f = ring.poly_ring.from_dict({e: c for (_, e), c in unpacked(s, ring.nvars).items()})
            if not f.is_zero():
                gens.append(f)
        colon = IdealData(ring.poly_ring, gens)
        result = colon if result is None else ideal_intersection(result, colon)
    return result


def span(free, vectors):
    """The handle of the submodule that vectors and J*free generate.

    Its basis comes from a module_gb run of its own, not from the run
    that made the vectors: the reference the engine's handles, which
    wrap a basis some run already made, are compared with.
    """
    vecs = [dict(v) for v in vectors if v] + free.ring.defining_multiples(free.rank)
    return SubmoduleGB(free, module_gb(vecs, free.ring.nvars, free.ring.char))


def torsion_generator_by_span(h0, I):
    """The first gamma_torsion candidate of H_0 = F_0/D outside D + m*F_0.

    Tests membership in a reduced basis of D plus every variable times
    every basis vector, with no appeal to minimality: the reference for
    the constant-term test of level._torsion_generator_witness.
    """
    free = h0.free
    P = free.ring.poly_ring
    vecs = list(h0.denom.gb)
    for x in P.variables():
        for j in range(free.rank):
            vecs.append(vec_from_polyvec([x if k == j else P.zero() for k in range(free.rank)]))
    handle = span(free, vecs)
    for c in gamma_torsion(h0.denom, I):
        if not handle.contains(c):
            return polyvec_from_vec(P, free.rank, c)
    return None


def radical_membership(f, I):
    """True when f lies in the radical of I (extra-variable unit trick)."""
    if f.ring != I.ring:
        raise UsageError("polynomial from a different ring")
    ring = I.ring
    p = ring.char
    vecs = [{(0, e + (0,)): c for e, c in g.terms} for g in I.gens]
    one_minus_yf: dict = {(0, (0,) * (ring.nvars + 1)): 1}
    for e, c in f.terms:
        t = (0, e + (1,))
        val = (one_minus_yf.get(t, 0) - c) % p
        if val:
            one_minus_yf[t] = val
        else:
            one_minus_yf.pop(t, None)
    vecs.append(one_minus_yf)
    gb = tuple_module_gb(vecs, p)
    for v in gb:
        if len(v) == 1:
            (pos, e), _ = next(iter(v.items()))
            if all(x == 0 for x in e):
                return True
    return False


def rank_mod_p(rows, p):
    """Rank over F_p by Gaussian elimination on plain Python integers."""
    m = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def lead_divisible_terms(vectors, key):
    """Terms of a module vector divisible by the lead of another vector.

    Vectors are dicts keyed by (position, exponent tuple) and key orders
    those terms.  Returns (i, j, term) for each term of vectors[i] that
    the leading term of vectors[j], j != i, divides: same position and
    exponents no larger in any variable.  A reduced basis yields [].
    """
    leads = [max(v, key=key) for v in vectors]
    out = []
    for i, v in enumerate(vectors):
        for pos, e in v:
            for j, (lpos, le) in enumerate(leads):
                if j != i and lpos == pos and all(a <= b for a, b in zip(le, e)):
                    out.append((i, j, (pos, e)))
    return out


# ---------------------------------------------------------------------------
# the tuple-form adapter: (position, exponents) terms on both sides of the
# engine's packed vectors


def packed(v):
    """A vector keyed by (position, exponents) as the engine's packed dict."""
    return {gbcore.pack(pos, e): c for (pos, e), c in v.items()}


def unpacked(v, nvars):
    """An engine vector in nvars variables keyed by (position, exponents), order kept."""
    return {gbcore.unpack(t, nvars): c for t, c in v.items()}


def polyvec_per_position(ring, rank, v):
    """A packed vector as one polynomial per position, each made by PolyRing.from_dict.

    The reference for gbcore.polyvec_from_vec: it sorts each position's
    terms by drl_key, where the engine sorts the packed ints once.
    """
    per = [{} for _ in range(rank)]
    for t, c in v.items():
        pos, e = gbcore.unpack(t, ring.nvars)
        per[pos][e] = c
    return tuple(ring.from_dict(d) for d in per)


def _nvars(vectors):
    """The exponent length of the first term among tuple-form vectors (0 for none)."""
    return next((len(e) for v in vectors for _, e in v), 0)


def tuple_module_gb(vectors, p):
    """gbcore.module_gb on tuple-form vectors."""
    vectors = list(vectors)
    n = _nvars(vectors)
    return [unpacked(g, n) for g in module_gb([packed(v) for v in vectors], n, p)]


def tuple_relative_syzygies(tracked, untracked, rank, nvars, p):
    """gbcore.relative_syzygies on tuple-form vectors."""
    halves = relative_syzygies([packed(v) for v in tracked], [packed(v) for v in untracked],
                               rank=rank, nvars=nvars, p=p)
    return tuple([unpacked(v, nvars) for v in half] for half in halves)


def tuple_reducer(gb, p, nvars=None):
    """gbcore.reducer on a tuple-form basis; nvars is needed only when gb is empty."""
    return gbcore.reducer([packed(g) for g in gb], _nvars(gb) if nvars is None else nvars, p)


def tuple_submodule_nf(v, basis):
    """gbcore.submodule_nf on a tuple-form vector, against a tuple_reducer basis."""
    return unpacked(gbcore.submodule_nf(packed(v), basis), _nvars([v]))


# ---------------------------------------------------------------------------
# the tuple-form reference Buchberger


def pot_key(term):
    """The engine's term order: position over term, earlier positions
    larger, degrevlex inside."""
    pos, e = term
    return (-pos,) + drl_key(e)


def mono_divides(a, b):
    """True when x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


def lead(v):
    return max(v, key=pot_key)


def add_scaled(target, c, shift, src, p):
    """target += c * x^shift * src in place, on tuple-form vectors."""
    for (pos, e), k in src.items():
        t = (pos, mono_mul(e, shift))
        val = (target.get(t, 0) + c * k) % p
        if val:
            target[t] = val
        else:
            target.pop(t, None)


def reference_nf(v, elems, p):
    """Remainder of v against the monic vectors elems, fully reduced.

    Each step cancels the largest term with the first of elems, in list
    order, whose lead divides it: the engine's first dividing lead in
    bucket order.
    """
    leads = [lead(g) for g in elems]
    work = dict(v)
    out = {}
    while work:
        t = max(work, key=pot_key)
        c = work.pop(t)
        hit = next((i for i, (pos, le) in enumerate(leads)
                    if pos == t[0] and mono_divides(le, t[1])), None)
        if hit is None:
            out[t] = c
            continue
        g = {u: k for u, k in elems[hit].items() if u != leads[hit]}
        add_scaled(work, p - c, tuple(a - b for a, b in zip(t[1], leads[hit][1])), g, p)
    return out


def reference_spair(f, g, p):
    """S-vector of two monic vectors whose leads share a position."""
    (_, ef), (_, eg) = lead(f), lead(g)
    m = mono_lcm(ef, eg)
    s = {}
    add_scaled(s, 1, tuple(a - b for a, b in zip(m, ef)), f, p)
    add_scaled(s, p - 1, tuple(a - b for a, b in zip(m, eg)), g, p)
    return s


def monic_vec(v, p):
    """v scaled to leading coefficient 1."""
    inv = pow(v[lead(v)], p - 2, p)
    return {t: c * inv % p for t, c in v.items()}


def reference_gb(vectors, p):
    """Reduced basis by plain Buchberger: every same-position pair, no criterion.

    Pairs are taken by ascending lcm degree.  Monic, sorted by
    descending lead, as module_gb returns it.
    """
    gens = []
    pairs = []  # heap of (lcm degree, i, j)

    def add(r):
        r = monic_vec(r, p)
        pos, e = lead(r)
        for i, g in enumerate(gens):
            if lead(g)[0] == pos:
                heapq.heappush(pairs, (sum(mono_lcm(lead(g)[1], e)), i, len(gens)))
        gens.append(r)

    for v in vectors:
        r = reference_nf(v, gens, p)
        if r:
            add(r)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        r = reference_nf(reference_spair(gens[i], gens[j], p), gens, p)
        if r:
            add(r)
    # no lead divides a later one, so a lead another lead divides is redundant
    leads = [lead(g) for g in gens]
    keep = [g for g, (pos, e) in zip(gens, leads)
            if not any(lp == pos and le != e and mono_divides(le, e) for lp, le in leads)]
    out = []
    for g in keep:
        others = [h for h in keep if h is not g]
        lt = lead(g)
        out.append({lt: 1, **reference_nf({t: c for t, c in g.items() if t != lt}, others, p)})
    return sorted(out, key=lambda g: pot_key(lead(g)), reverse=True)


def buchberger_closed(gb, p):
    """True when every same-position S-vector of gb reduces to zero.

    gb is a list of monic vectors.  Every pair whose leads share a
    position is formed, with no criterion, and reduced against gb by
    reference_nf: Buchberger's criterion, so a pair that module_gb
    skipped unsoundly shows here.
    """
    leads = [lead(g) for g in gb]
    return not any(reference_nf(reference_spair(gb[i], gb[j], p), gb, p)
                   for i, j in combinations(range(len(gb)), 2) if leads[i][0] == leads[j][0])


def dense_product(a_rows, b_rows, shape, zero):
    """The product of polynomial matrices of shapes (m, k) and (k, n), for shape (m, k, n).

    The dense triple loop over every index (i, j, k): each entry is the
    Poly sum of a[i][k] * b[k][j] over all k, with no skipping of zero
    factors and no reduction modulo J.
    """
    m, inner, n = shape
    rows = []
    for i in range(m):
        row = []
        for j in range(n):
            acc = zero
            for k in range(inner):
                acc = acc + a_rows[i][k] * b_rows[k][j]
            row.append(acc)
        rows.append(row)
    return rows


def dense_compose(a, b):
    """a after b by dense_product; ModMap then J-normalises the result."""
    shape = (a.target.rank, a.source.rank, b.source.rank)
    rows = dense_product(a.rows, b.rows, shape, a.ring.poly_ring.zero())
    return ModMap.from_rows(b.source, a.target, rows)


def dense_koszul(seq, ring):
    """The Koszul differentials on seq as dense J-normal matrices.

    Entry (rest, S) of d_k is (-1)^j f_(i_j) when rest is S with its
    j-th element i_j removed, and zero otherwise; subsets of each size
    are ordered lex.
    """
    zero = ring.poly_ring.zero()
    subsets = [list(combinations(range(len(seq)), k)) for k in range(len(seq) + 1)]
    mats = []
    for k in range(1, len(seq) + 1):
        mat = []
        for rest in subsets[k - 1]:
            row = []
            for s in subsets[k]:
                entry = zero
                for j, i in enumerate(s):
                    if s[:j] + s[j + 1:] == rest:
                        entry = ring.nf(seq[i].scale((-1) ** j))
                row.append(entry)
            mat.append(row)
        mats.append(mat)
    return mats


def dense_hom(F, G):
    """The differentials of Hom(F, G) as dense matrices, from d(phi) itself.

    Each basis map phi of degree i (entry 1 from basis u of F_j to basis
    v of G_(j+i)) is sent to dG o phi - (-1)^i phi o dF, both composites
    taken by dense_product on the matrices.  The entries of dG and dF
    are J-normal and phi picks one column or row of them, so the
    composites are J-normal too.  Column phi of the matrix then reads the
    entries of those composites off in the basis of degree i - 1, ordered
    by (j, source index, target index).
    """
    ring = F.ring
    P = ring.poly_ring

    def basis(i):
        return [(j, u, v) for j in range(F.hi + 1) if 0 <= j + i <= G.hi
                for u in range(F.modules[j].rank) for v in range(G.modules[j + i].rank)]

    mats = []
    for i in range(-F.hi + 1, G.hi + 1):
        lower = basis(i - 1)
        mat = [[P.zero()] * len(basis(i)) for _ in lower]
        for col, (j, u, v) in enumerate(basis(i)):
            src, tgt = F.modules[j].rank, G.modules[j + i].rank
            phi = [[P.one() if (a, b) == (v, u) else P.zero() for b in range(src)]
                   for a in range(tgt)]
            parts = []
            if j + i >= 1:
                dG = G.diff(j + i)
                shape = (dG.target.rank, tgt, src)
                parts.append((j, dense_product(dG.rows, phi, shape, P.zero()), 1))
            if j + 1 <= F.hi:
                dF = F.diff(j + 1)
                shape = (tgt, src, dF.source.rank)
                parts.append((j + 1, dense_product(phi, dF.rows, shape, P.zero()),
                              (-1) ** abs(i + 1)))
            for row, (jj, uu, ww) in enumerate(lower):
                for block, entries, sign in parts:
                    if jj == block:
                        mat[row][col] = mat[row][col] + entries[ww][uu].scale(sign)
        mats.append(mat)
    return mats
