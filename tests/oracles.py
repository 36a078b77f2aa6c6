"""Degreewise linear algebra oracles, independent of the Groebner engine.

Everything here works one graded piece at a time: the degree d slice of
a homogeneous ideal is the row span of monomial multiples of its raw
generators, free modules get explicit (slot, monomial) coordinates, and
homology dimensions fall out of rank counting on the raw differential
matrices.  Nothing touches normal forms, Groebner bases or syzygy
computations, so agreement with the engine is a genuine cross-check.
Only the shared F_p row reduction helpers are reused.  The exception is
buchberger_closed, which uses the engine's division on purpose: it
checks the pair selection of module_gb, not its reduction.  Likewise
dense_compose hands its product to the ModMap constructor, so it checks
which entry pairs ModMap.compose multiplies, not the J-normalisation.
"""

from itertools import combinations

import numpy as np

from levelbounds import linalg
from levelbounds.gbcore import _Basis, _spair, normal_form
from levelbounds.modules import ModMap


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
            rows.append(_coords(g.shift_mono(m), d, index))
    if not rows:
        return np.zeros((0, len(mons)), dtype=np.int64)
    return linalg.as_matrix(rows, p)


def ideal_piece_dim(gens, nvars, d, p):
    return linalg.rank(ideal_rows(gens, nvars, d, p), p)


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
    fv = linalg.as_matrix([_coords(f, d, index)], p)
    return linalg.rank(np.vstack([rows, fv]), p) == linalg.rank(rows, p)


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
                for e, c in f.shift_mono(m).terms:
                    v[index[(j, e)]] = c
            rows.append(v)
    if not rows:
        return np.zeros((0, len(basis)), dtype=np.int64)
    return linalg.as_matrix(rows, p)


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
    vectors += [tuple(M.rels.column(c)) for c in range(M.rels.source.rank)]
    rows = submodule_rows(vectors, twists, nvars, d, p)
    return len(basis) - linalg.rank(rows, p)


def _induced_rank(image_vectors, j_gens, twists, nvars, d, p, zero):
    """Degree d rank of the induced map into free/(defining ideal)."""
    w = submodule_rows(_jf_vectors(j_gens, len(twists), zero), twists, nvars, d, p)
    a = submodule_rows(image_vectors, twists, nvars, d, p)
    if a.shape[0] == 0:
        return 0
    return linalg.rank(np.vstack([w, a]), p) - linalg.rank(w, p)


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
    quot = len(free_piece(twists, nvars, d)) - linalg.rank(w, p)
    r_in = 0
    if i + 1 <= C.hi:
        cols = [tuple(C.diffs[i].column(c)) for c in range(C.modules[i + 1].rank)]
        r_in = _induced_rank(cols, jg, twists, nvars, d, p, zero)
    r_out = 0
    if i >= 1:
        out_twists = C.modules[i - 1].twists
        cols = [tuple(C.diffs[i - 1].column(c)) for c in range(C.modules[i].rank)]
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
    ns = linalg.nullspace(m, p)
    if ns.shape[0] == 0:
        return 0
    return linalg.rank(np.ascontiguousarray(ns[:, :n_d]), p)


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
    for row in M.rels.rows:
        for f in row:
            if f.constant_coeff() != 0:
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
                    for e, cc in f.shift_mono(m).terms:
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
            ns = linalg.nullspace(m, p)
        for v in ns:
            row = [0] * gens.rank
            for j, tw in enumerate(gens.twists):
                if tw == t:
                    row[j] = int(v[offsets[j]]) % p
            eval_rows.append(row)
    if not eval_rows:
        return np.zeros((0, gens.rank), dtype=np.int64)
    return linalg.as_matrix(eval_rows, p)


def frank_oracle(M):
    ring = M.ring
    mat = hom_eval_matrix(M)
    return linalg.rank(mat, ring.char)


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


def buchberger_closed(gb, p):
    """True when every same-position S-vector of gb reduces to zero.

    gb is a list of monic vectors.  Every pair whose leads share a
    position is formed, with no criterion, and reduced against a fresh
    division basis of gb: Buchberger's criterion, so a pair that
    module_gb skipped unsoundly shows here.
    """
    basis = _Basis(p)
    for g in gb:
        basis.add(g)
    leads = [lt for lt, _ in basis.elems]
    for i, j in combinations(range(len(gb)), 2):
        if leads[i][0] == leads[j][0]:
            s = _spair(leads[i], gb[i], leads[j], gb[j], p)
            if normal_form(s, basis):
                return False
    return True


def dense_compose(a, b):
    """a after b by the dense triple loop over every index (i, j, k).

    Each entry is the Poly sum of a[i][k] * b[k][j] over all k, with no
    skipping of zero factors; ModMap then J-normalises the result.
    """
    zero = a.ring.poly_ring.zero()
    rows = []
    for i in range(a.target.rank):
        row = []
        for j in range(b.source.rank):
            acc = zero
            for k in range(a.source.rank):
                acc = acc + a.rows[i][k] * b.rows[k][j]
            row.append(acc)
        rows.append(row)
    return ModMap(b.source, a.target, rows, degree=a.degree + b.degree)
