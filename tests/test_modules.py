"""Module calculus: maps, syzygies, kernels, subquotients, torsion, duals, frank.

The engine's vectors are dicts from (position, exponents) to
coefficient.  Presented modules, minimal presentations and polynomial
tuple vectors are the test references in oracles.py.
"""

import random
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from levelbounds import linalg, modules
from levelbounds.complexes import hom_complex, koszul_complex
from levelbounds.errors import UsageError
from levelbounds.gbcore import module_gb, reducer, submodule_nf
from levelbounds.groebner import ideal, ideal_intersection, zero_ideal
from levelbounds.modules import (FreeModule, ModMap, frank, gamma_torsion,
                                 is_power_torsion, polyvec_from_vec,
                                 subquotient, syzygies, transpose_map)
from levelbounds.polys import PolyRing
from levelbounds.rings import QuotientRing

import corpus
import oracles
from oracles import (GradedModule, minimal_presentation, packed, polyvec_degree, unpacked,
                     vec_from_polyvec)

P2 = PolyRing(2, 101)
X, Y = P2.variables()
R2 = QuotientRing.free(P2)
P3 = PolyRing(3, 101)


def coker(ring, gen_twists, rel_twists, rows):
    gens = FreeModule(ring, gen_twists)
    return GradedModule(gens, ModMap.from_rows(FreeModule(ring, rel_twists), gens, rows))


def test_free_module_basics():
    F = FreeModule(R2, (0, 1))
    assert F.rank == 2
    assert F.basis_vector(1) == packed({(1, (0, 0)): 1})


def test_modmap_validation():
    F = FreeModule(R2, (1,))
    G = FreeModule(R2, (0,))
    ModMap.from_rows(F, G, [[X]])
    with pytest.raises(UsageError):
        ModMap.from_rows(F, G, [[X, Y]])
    with pytest.raises(UsageError):
        ModMap.from_rows(F, G, [[X**2]])
    with pytest.raises(UsageError):
        ModMap.from_rows(F, G, [[X + P2.one()]])
    # entries are stored reduced; x^2 dies in k[x,y]/(x^2)
    Rq = QuotientRing(ideal(P2, [X**2]))
    phi = ModMap.from_rows(FreeModule(Rq, (2,)), FreeModule(Rq, (0,)), [[X**2]])
    assert phi.is_zero()


def test_modmap_columns_are_checked_term_by_term():
    F = FreeModule(R2, (1,))
    G2 = FreeModule(R2, (0, 0))
    x = (1, 0)
    assert ModMap(F, G2, [packed({(1, x): 1})]).cols == (packed({(1, x): 1}),)
    assert ModMap(F, G2, [packed({(1, x): 1})]).rows == ((P2.zero(),), (X,))
    assert ModMap(F, G2, [{}]).is_zero()
    bad_columns = [
        [],                              # no column for the one source basis vector
        [{(2, x): 1}],                   # past the target rank
        [{(-1, x): 1}],
        [{(0, (1,)): 1}],                # one exponent for two variables
        [{(0, (1, 0, 0)): 1}],           # three exponents
        [{(0, (2, 0)): 1}],              # degree 2 where twists 1 - 0 ask for 1
        [{(0, x): 1, (1, (0, 2)): 1}],   # one bad term in a good column
    ]
    for cols in bad_columns:
        with pytest.raises(UsageError):
            ModMap(F, G2, [packed(col) for col in cols])
    with pytest.raises(UsageError):      # a zero from another ring
        ModMap.from_rows(F, G2, [[X], [PolyRing(3, 101).zero()]])


def test_modmap_compose_degree():
    F2, F1, F0 = FreeModule(R2, (2,)), FreeModule(R2, (1,)), FreeModule(R2, (0,))
    a = ModMap.from_rows(F2, F1, [[X]])
    b = ModMap.from_rows(F1, F0, [[Y]])
    ba = b.compose(a)
    assert (ba.source, ba.target) == (F2, F0) and ba.rows[0][0] == X * Y
    with pytest.raises(UsageError):
        a.compose(b.compose(a))


def entries_of(phi):
    return [f for row in phi.rows for f in row]


def assert_j_normal(free, vecs):
    """Each vector is fixed by the normal form against J*free, and each of
    its components is the ring normal form of itself."""
    j_basis = reducer(free.ring.defining_multiples(free.rank), free.ring.nvars, free.ring.char)
    for v in vecs:
        assert v and submodule_nf(v, j_basis) == v
        assert all(free.ring.nf(f) == f for f in oracles.polyvecs(free, [v])[0])


def test_map_entries_are_normal():
    # compose, Koszul complexes and subquotient leave J-normalising to ModMap
    # or to their callers; every entry they hand out must still be normal,
    # and so must the vectors of kernels, homology and torsion generators
    reduced_something = False
    for C in corpus.build_corpus(8, seed=7):
        R = C.ring
        P = R.poly_ring
        for d in C.diffs:
            assert_j_normal(d.source, d.kernel_and_image[0])
        for i in range(C.hi + 1):
            H = C.homology(i)
            assert_j_normal(H.free, H.gens)
            for I in (ideal(P, [P.var(0)]), ideal(P, list(P.variables()))):
                assert_j_normal(H.free, gamma_torsion(H.denom, I))
        entries = []
        for d, e in zip(C.diffs, C.diffs[1:]):
            entries += entries_of(d.compose(e))
        for x in R.poly_ring.variables():
            for d in C.diffs:
                entries += entries_of(d.compose(corpus.diagonal_map(d.source, x)))
                raw = [[f * x for f in row] for row in d.rows]
                normal = [[R.nf(f) for f in row] for row in raw]
                reduced_something |= raw != normal
                source = FreeModule(R, tuple(t + 1 for t in d.source.twists))
                assert (ModMap.from_rows(source, d.target, raw)
                        == ModMap.from_rows(source, d.target, normal))
        K = koszul_complex([x * x for x in P.variables()], R)
        for phi in hom_complex(K, K).diffs:
            entries += entries_of(phi)
        assert all(R.nf(f) == f for f in entries)
    assert reduced_something


def row_syzygies(seq):
    """The syzygies of the 1 x n map with row seq, twists the entry degrees (0 for a zero)."""
    source = FreeModule(R2, tuple(max(f.degree(), 0) for f in seq))
    return syzygies(ModMap.from_rows(source, FreeModule(R2, (0,)), [seq]))


def test_syzygies_examples():
    syz = row_syzygies([X, Y])
    assert syz.source.rank == 1
    c = oracles.polyvecs(syz.target, syz.cols)[0]
    assert (c[0] * X + c[1] * Y).is_zero()
    assert {oracles.monic(c[0]), oracles.monic(c[1])} == {X, Y}
    syz2 = row_syzygies([X, X * Y])
    assert syz2.source.rank == 1
    c2 = oracles.polyvecs(syz2.target, syz2.cols)[0]
    # the unit entry betrays the redundant generator
    assert any(f.is_constant() and not f.is_zero() for f in c2)
    assert row_syzygies([X**2]).source.rank == 0
    # a zero vector gets twist 0; its relation e_0 is the only one
    # touching position 0, and the other is the Koszul relation of X, Y
    syz3 = row_syzygies([P2.zero(), X, Y])
    assert syz3.target.twists == (0, 1, 1)
    cols = oracles.polyvecs(syz3.target, syz3.cols)
    assert sorted(tuple(not f.is_zero() for f in c) for c in cols) == [
        (False, True, True), (True, False, False)]


def binary_form_coeffs(f, d):
    dd = oracles.as_dict(f)
    return [dd.get((i, d - i), 0) for i in range(d + 1)]


def forms_share_factor(f, g):
    # forced-degree Sylvester rank test for binary forms
    m, n = f.degree(), g.degree()
    a, b = binary_form_coeffs(f, m), binary_form_coeffs(g, n)
    rows = [[0] * s + a + [0] * (n - 1 - s) for s in range(n)]
    rows += [[0] * s + b + [0] * (m - 1 - s) for s in range(m)]
    return linalg.rank(rows, 101) < m + n


def binary_forms(max_deg=3):
    def for_degree(d):
        mons = oracles.monomials(2, d)
        return st.lists(
            st.tuples(st.sampled_from(mons), st.integers(1, 100)),
            min_size=1, max_size=3, unique_by=lambda t: t[0],
        ).map(lambda pairs: P2.from_dict(dict(pairs)))
    return st.integers(1, max_deg).flatmap(for_degree)


@given(binary_forms(), binary_forms())
def test_regular_pairs_have_one_syzygy(f, g):
    syz = row_syzygies([f, g])
    if forms_share_factor(f, g):
        assert syz.source.rank >= 1
    else:
        assert syz.source.rank == 1
        c = oracles.polyvecs(syz.target, syz.cols)[0]
        assert (c[0] * f + c[1] * g).is_zero()
        assert {oracles.monic(c[0]), oracles.monic(c[1])} == {oracles.monic(f), oracles.monic(g)}


def test_submodule_gb_membership():
    F = FreeModule(R2, (0,))
    xy = oracles.span(F, [vec_from_polyvec((X,)), vec_from_polyvec((Y,))])
    assert xy.contains(vec_from_polyvec((X * Y,)))
    assert not xy.contains(F.basis_vector(0))
    unit = oracles.span(F, [F.basis_vector(0)])
    assert unit.contains(F.basis_vector(0)) and unit.contains(vec_from_polyvec((X + Y,)))
    x_span = oracles.span(F, [vec_from_polyvec((X,))])
    assert not x_span.nf(vec_from_polyvec((X,)))
    assert x_span.nf(vec_from_polyvec((Y,))) == vec_from_polyvec((Y,))


def test_cached_reducers_match_fresh_bases():
    for C in corpus.build_corpus(8, seed=7):
        ring = C.ring
        p = ring.char
        J = ring.defining
        n = ring.nvars
        j_gb = [unpacked(vec_from_polyvec((g,)), n) for g in J.gb]
        for d in C.diffs:
            handle = oracles.span(d.target, d.cols[:1])
            handle_gb = [unpacked(g, n) for g in handle.gb]
            for col in oracles.polyvecs(d.target, d.cols):
                for x in ring.poly_ring.variables():
                    shifted = tuple(f * x for f in col)
                    for f in shifted:
                        want = oracles.reference_nf(unpacked(vec_from_polyvec((f,)), n), j_gb, p)
                        assert J.normal_form(f) == polyvec_from_vec(ring.poly_ring, 1,
                                                                    packed(want))[0]
                    v = vec_from_polyvec(shifted)
                    assert unpacked(handle.nf(v), n) == oracles.reference_nf(unpacked(v, n),
                                                                            handle_gb, p)


def test_kernel_vanishes_after_inclusion():
    for C in corpus.build_corpus(8, seed=7):
        phi = C.diff(1)
        syz = syzygies(phi)
        assert syz.source.rank == len(phi.kernel_and_image[0])
        assert phi.compose(syz).is_zero()


def test_min_gens_examples():
    assert corpus.min_gens(corpus.free_module(FreeModule(R2, (0, 1, 3)))) == 3
    resfield = coker(R2, (0,), (1, 1), [[X, Y]])
    assert corpus.min_gens(resfield) == 1
    mp = minimal_presentation(resfield)
    assert {oracles.monic(f) for f in mp.rels.rows[0]} == {X, Y}
    # a unit relation entry folds one generator away
    folded = coker(R2, (0, 0), (0,), [[P2.one()], [P2.zero()]])
    assert corpus.min_gens(folded) == 1


def test_minimal_presentation_idempotent_and_hilbert_stable():
    for C in corpus.build_corpus(8, seed=7):
        for i in range(C.hi + 1):
            M = corpus.present(C.homology(i))
            mp = minimal_presentation(M)
            assert minimal_presentation(mp) is mp
            assert mp.rels.entries_in_maximal_ideal()
            for d in range(0, 7):
                assert oracles.module_piece_dim(mp, d) == oracles.module_piece_dim(M, d)


def test_hilbert_function_examples():
    resfield = coker(R2, (0,), (1, 1), [[X, Y]])
    assert [oracles.module_piece_dim(resfield, d) for d in range(3)] == [1, 0, 0]
    F = corpus.free_module(FreeModule(R2, (0, 1)))
    assert [oracles.module_piece_dim(F, d) for d in range(3)] == [1, 3, 5]


def test_direct_sum_hilbert_additive():
    A = coker(R2, (0,), (1, 1), [[X, Y]])
    B = corpus.free_module(FreeModule(R2, (1,)))
    S = corpus.direct_sum(A, B)
    dim = oracles.module_piece_dim
    for d in range(5):
        assert dim(S, d) == dim(A, d) + dim(B, d)


def hom_degrees(M):
    """Degrees of the generators of Hom(M, R), one kernel vector each."""
    dual = transpose_map(M.rels)
    return [polyvec_degree(dual.source, v)
            for v in oracles.polyvecs(dual.source, dual.kernel_and_image[0])]


def test_hom_into_ring_examples():
    free1 = corpus.free_module(FreeModule(R2, (0,)))
    assert hom_degrees(free1) == [0]
    resfield = coker(R2, (0,), (1, 1), [[X, Y]])
    assert hom_degrees(resfield) == []
    twisted = corpus.free_module(FreeModule(R2, (-1,)))
    assert hom_degrees(twisted) == [1]


def test_transpose_is_an_involution():
    F1, F0 = FreeModule(R2, (1, 2)), FreeModule(R2, (0,))
    phi = ModMap.from_rows(F1, F0, [[X, Y**2]])
    tt = transpose_map(transpose_map(phi))
    assert tt.rows == phi.rows
    assert tt.source.twists == phi.source.twists


def test_annihilator_examples():
    I = ideal(P2, [X**2, X * Y])
    M = coker(R2, (0,), (2, 2), [[X**2, X * Y]])
    assert frozenset(oracles.annihilator(M).gb) == frozenset(I.gb)
    free1 = corpus.free_module(FreeModule(R2, (0,)))
    assert oracles.annihilator(free1).is_zero()
    H1 = corpus.present(koszul_complex([X, X * Y], R2).homology(1))
    assert oracles.annihilator(H1).normal_form(X).is_zero()
    none = corpus.free_module(FreeModule(R2, ()))
    assert not oracles.annihilator(none).is_proper()


def gamma_module(M, I):
    """Gamma_I(M) presented from its generators."""
    gens = gamma_torsion(corpus.as_subquotient(M).denom, I)
    return corpus.present(subquotient(M.gens, gens, corpus.as_subquotient(M).denom))


def test_gamma_torsion_examples():
    Ix = ideal(P2, [X])
    torsion = coker(R2, (0,), (1,), [[X]])
    G = gamma_module(torsion, Ix)
    for d in range(4):
        assert oracles.module_piece_dim(G, d) == oracles.module_piece_dim(torsion, d)
    free1 = corpus.free_module(FreeModule(R2, (0,)))
    assert gamma_torsion(corpus.as_subquotient(free1).denom, Ix) == []
    assert gamma_module(free1, Ix).gens.rank == 0
    sub = coker(R2, (0,), (3,), [[X**2 * Y]])
    Gs = gamma_module(sub, Ix)
    assert [oracles.module_piece_dim(Gs, d) for d in range(5)] == [0, 1, 2, 2, 2]


def torsion_cases():
    Rart = QuotientRing(ideal(P2, [X**2, X * Y, Y**2]))
    return [
        (coker(R2, (0,), (1,), [[X]]), ideal(P2, [X]), True),
        (coker(R2, (0,), (1,), [[X]]), ideal(P2, [Y]), False),
        (corpus.free_module(FreeModule(R2, (0,))), ideal(P2, [X]), False),
        (coker(R2, (0,), (2, 2, 2), [[X**2, X * Y, Y**2]]), ideal(P2, [X, Y]), True),
        (coker(R2, (0,), (3,), [[X**2 * Y]]), ideal(P2, [X]), False),
        (corpus.present(koszul_complex([X, X * Y], R2).homology(1)), ideal(P2, [X, X * Y]), True),
        (corpus.free_module(FreeModule(Rart, (0,))), ideal(P2, [X, Y]), True),
    ]


@pytest.mark.parametrize("case", range(len(torsion_cases())))
def test_power_torsion_agrees_with_radical_route(case):
    M, I, want = torsion_cases()[case]
    direct = is_power_torsion(corpus.as_subquotient(M), I)
    ann = oracles.annihilator(M)
    via_radical = all(oracles.radical_membership(g, ann) for g in I.gens)
    assert direct == via_radical == want


def colon_route_torsion(H, I):
    """is_power_torsion by the colon loop alone, one generator at a time."""
    gens = modules._nonzero_gens(H.free.ring, I)
    return all(modules._stable_colon(H.denom, [f]).contains(g) for f in gens for g in H.gens)


def colon_route_gamma(M, I):
    """gamma_torsion by the colon loop alone (all of M when I lies in J)."""
    free = M.gens
    gens = modules._nonzero_gens(M.ring, I)
    if gens:
        stable = modules._stable_colon(corpus.as_subquotient(M).denom, gens)
        numerators = modules._nonzero_normal(free, stable.gb)
    else:
        numerators = [free.basis_vector(k) for k in range(free.rank)]
    return subquotient(free, numerators, corpus.as_subquotient(M).denom)


def assert_torsion_checks_match_colon_route(M, I):
    H = corpus.as_subquotient(M)
    want = colon_route_torsion(H, I)
    assert is_power_torsion(H, I) == want
    assert gamma_torsion(H.denom, I) == list(colon_route_gamma(M, I).gens)
    return want


def x1_line():
    """K(x1) over k[x1..x9]/(x1 x2, .., x1 x9), and I = (x2^2, .., x9^2).

    H_0 = R/(x1) is not I-power torsion, and no generator of I passes
    the exponent proof on it.
    """
    P9 = PolyRing(9, 101)
    x1, *rest = P9.variables()
    R = QuotientRing(ideal(P9, [x1 * x for x in rest]))
    return koszul_complex([x1], R), ideal(P9, [x**2 for x in rest])


def exponent_cases():
    """(M, I, torsion, proven by exponent) around the exponent proof.

    The torsion_cases, each positive one within the cap; coker(x^d) for
    f = x, which needs s = d, on both sides of the cap; coker(x) for
    (x, y), where x passes and y does not; an ideal inside J, whose
    generators all vanish in R; R/(y^2 z) over k[x,y,z]/(x^2 + y^2)
    for (z), whose stable colon has the reduced basis {x^2, y^2}: x^2 is
    not J-normal, so gamma_torsion returns [100 y^2, y^2] only because
    it J-normalises that basis; and H_0 of x1_line, not torsion for
    eight generators.
    """
    cap = modules._EXPONENT_CAP

    def line(d):
        return coker(R2, (0,), (d,), [[X**d]])

    Ix = ideal(P2, [X])
    Rart = QuotientRing(ideal(P2, [X**2, X * Y, Y**2]))
    x, y, z = P3.variables()
    Rsq = QuotientRing(ideal(P3, [x**2 + y**2]))
    return [(M, I, want, want) for M, I, want in torsion_cases()] + [
        (corpus.free_module(FreeModule(Rart, (0, 1))), ideal(P2, [X**2, X * Y]), True, True),
        (line(cap), Ix, True, True),
        (line(cap + 1), Ix, True, False),
        (line(cap + 2), Ix, True, False),
        (line(1), ideal(P2, [X, Y]), False, False),
        (coker(Rsq, (0,), (3,), [[y**2 * z]]), ideal(P3, [z]), False, False),
        (corpus.present(x1_line()[0].homology(0)), x1_line()[1], False, False),
    ]


@pytest.mark.parametrize("case", range(len(exponent_cases())))
def test_torsion_checks_agree_with_colon_route(case, monkeypatch):
    M, I, want, by_exponent = exponent_cases()[case]
    steps = 0
    colon = modules._colon_submodule

    def counted(*args):
        nonlocal steps
        steps += 1
        return colon(*args)

    monkeypatch.setattr(modules, "_colon_submodule", counted)
    assert is_power_torsion(corpus.as_subquotient(M), I) == want
    assert (steps == 0) == by_exponent
    assert assert_torsion_checks_match_colon_route(M, I) == want


def test_power_torsion_colons_one_generator_at_a_time(monkeypatch):
    # the first generator's stable colon misses the generator of H_0, so
    # the check ends after one colon step, by that generator alone; a
    # colon by all eight at once is gamma_torsion's route, and
    # colon_route_gamma its reference
    K, I = x1_line()
    steps = []
    colon = modules._colon_submodule

    def counted(free, n_gb, ideal_gens):
        steps.append(len(ideal_gens))
        return colon(free, n_gb, ideal_gens)

    monkeypatch.setattr(modules, "_colon_submodule", counted)
    assert not is_power_torsion(K.homology(0), I)
    assert steps == [1]


def test_defining_multiples_are_the_reduced_basis_of_j_times_the_free_module():
    rings = {C.ring for C in corpus.build_corpus()}
    for n in range(3, 8):
        P = PolyRing(n, 101)
        xs = P.variables()
        rings.add(QuotientRing(ideal_intersection(ideal(P, [xs[0]]), ideal(P, list(xs[1:])))))
    a, b = P2.variables()
    rings |= {QuotientRing(ideal(P2, [a * a, a * b, b**3])), QuotientRing(ideal(P2, [a * b])),
              QuotientRing(ideal(P2, [a * a, a * b])), x1_line()[0].ring}
    for R in rings:
        for rank in range(1, 6):
            assert module_gb(R.defining_multiples(rank), R.nvars, R.char) == R.defining_multiples(rank)


@pytest.mark.parametrize("case", range(len(exponent_cases())))
def test_colon_step_basis_is_the_basis_of_its_span(case):
    # the syzygy half of each colon run is the reduced basis of the colon,
    # which a module_gb run of its own, with J*F added again, reproduces;
    # checked along the whole chain, by all generators and by each alone
    M, I = exponent_cases()[case][:2]
    gens = modules._nonzero_gens(M.ring, I)
    for fs in ([gens] if gens else []) + [[f] for f in gens]:
        current = corpus.as_subquotient(M).denom
        while True:
            step = modules._colon_submodule(M.gens, current, fs)
            assert step.gb == oracles.span(M.gens, step.gb).gb
            if step.gb == current.gb:
                break
            current = step


def corpus_ideal(data, C, M):
    """An ideal the module comes with: variable powers, the entries of
    the first differential, or (0 : M)."""
    P = C.ring.poly_ring
    kind = data.draw(st.sampled_from(["variables", "entries", "annihilator"]))
    if kind == "variables":
        picks = data.draw(st.lists(st.tuples(st.integers(0, P.nvars - 1), st.integers(1, 3)),
                                   min_size=1, max_size=3))
        return ideal(P, [P.variables()[v] ** a for v, a in picks])
    if kind == "entries":
        return ideal(P, [e for row in C.diff(1).rows for e in row if not e.is_zero()])
    return ideal(P, oracles.annihilator(M).gb)


def corpus_modules():
    """The nonzero homology modules of the corpus, with their complexes."""
    return [(C, C.homology(i)) for C in corpus.build_corpus(8, seed=7)
            for i in range(C.hi + 1) if not C.homology(i).is_zero]


@given(st.data())
def test_torsion_checks_match_colon_route_on_corpus(data):
    # a lowered cap hands more positive answers to the fallback; each
    # check runs on the ambient homology and on its presentation
    C, H = data.draw(st.sampled_from(corpus_modules()))
    cap = data.draw(st.sampled_from([0, 1, modules._EXPONENT_CAP]))
    with mock.patch.object(modules, "_EXPONENT_CAP", cap):
        M = corpus.present(H)
        I = corpus_ideal(data, C, M)
        want = assert_torsion_checks_match_colon_route(M, I)
        assert is_power_torsion(H, I) == colon_route_torsion(H, I) == want


def frank_catalog():
    """(M, frank M) as built, before any pruning."""
    kfield = QuotientRing(ideal(P2, [X, Y]))
    resfield = coker(R2, (0,), (1, 1), [[X, Y]])
    cases = [
        (corpus.free_module(FreeModule(R2, (0, 1))), 2),
        (resfield, 0),
        (corpus.free_module(FreeModule(kfield, (1, 1))), 2),
        (corpus.direct_sum(corpus.free_module(FreeModule(R2, (0,))), resfield), 1),
        (corpus.present(koszul_complex([X, X * Y], R2).homology(1)), 0),
        (corpus.direct_sum(
            corpus.free_module(FreeModule(R2, (-1,))),
            corpus.free_module(FreeModule(R2, (2,)))), 2),
    ]
    return cases


def test_frank_examples_and_oracle():
    for M, want in frank_catalog():
        got = frank(M.rels)
        assert got == want
        assert oracles.frank_oracle(minimal_presentation(M)) == want
        assert got <= max(corpus.min_gens(M), 0)


def with_redundant_generator(M):
    """M with a generator e' = x*e_0 appended, and the relation e' - x*e_0."""
    ring = M.ring
    P = ring.poly_ring
    t = M.gens.twists[0] + 1
    gens = FreeModule(ring, M.gens.twists + (t,))
    source = FreeModule(ring, M.rels.source.twists + (t,))
    x = P.var(0)
    rows = [list(row) + [x.scale(-1) if i == 0 else P.zero()] for i, row in enumerate(M.rels.rows)]
    rows.append([P.zero()] * M.rels.source.rank + [P.one()])
    return GradedModule(gens, ModMap.from_rows(source, gens, rows))


def test_frank_reads_non_minimal_presentations():
    # a redundant generator g_j = sum r_k g_k pairs as sum r_k(0) times
    # the g_k, so frank needs no pruning: the catalog as built, each with
    # one more redundant generator, and the corpus homology presentations
    # and differential cokernels that carry a unit entry
    cases = [M for M, _ in frank_catalog()]
    cases += [with_redundant_generator(M) for M in cases if M.gens.rank]
    presented = [corpus.present(C.homology(i)) for C in corpus.build_corpus()
                 for i in range(C.hi + 1)]
    presented += [GradedModule(d.target, d) for C in corpus.build_corpus() for d in C.diffs]
    with_units = [M for M in presented if not M.rels.entries_in_maximal_ideal()]
    assert with_units
    for M in cases + with_units:
        mp = minimal_presentation(M)
        assert frank(M.rels) == frank(mp.rels) == oracles.frank_oracle(mp)


def has_invertible_minor(mat, r, p):
    if r == 0:
        return True
    if mat.shape[0] < r or mat.shape[1] < r:
        return False
    for rs in combinations(range(mat.shape[0]), r):
        for cs in combinations(range(mat.shape[1]), r):
            if oracles.matrix_rank(np.ascontiguousarray(mat[np.ix_(rs, cs)]), p) == r:
                return True
    return False


def test_frank_is_split_surjection_rank_on_small_modules():
    # brute force over constant minors of the evaluation pairing: an
    # invertible r x r minor is exactly a split surjection onto a rank r
    # free summand, and its absence over the full degree matched hom
    # space rules one out
    for M, want in frank_catalog():
        if corpus.min_gens(M) > 2:
            continue
        mat = oracles.hom_eval_matrix(minimal_presentation(M))
        best = 0
        for r in range(min(mat.shape) if mat.size else 0, 0, -1):
            if has_invertible_minor(mat, r, 101):
                best = r
                break
        assert best == want == frank(M.rels)


def test_frank_shifts_under_free_summand():
    for M, want in frank_catalog()[:4]:
        S = corpus.direct_sum(corpus.free_module(FreeModule(M.ring, (0,))), M)
        assert frank(S.rels) == 1 + want


def test_rank_matches_integer_oracle_at_largest_char():
    # 2^31 - 1 is the largest prime PolyRing accepts; products of two
    # residues come close to the int64 limit of the numpy oracle there.
    # The engine's rank is checked against both oracles, at p = 2 and
    # p = 101 too, and on the degenerate shapes.
    def check(rows, p):
        want = oracles.rank_mod_p(rows, p)
        assert linalg.rank(rows, p) == want
        assert oracles.matrix_rank(oracles.as_matrix(rows, p), p) == want
        return want

    for p in (2, 101, 2**31 - 1):
        assert check([], p) == 0
        assert check([[]], p) == 0
        assert check([[0, 0, 0], [0, 0, 0]], p) == 0
        assert check([[p, 2 * p], [0, -p]], p) == 0
    assert check([[1, 1], [1, -1]], 2) == 1
    assert check([[1, 1], [1, -1]], 101) == 2
    p = 2**31 - 1
    rng = np.random.default_rng(31)
    for _ in range(200):
        u = [int(x) for x in rng.integers(0, p, 2)]
        v = [int(x) for x in rng.integers(0, p, 3)]
        check([[a * b % p for b in v] for a in u], p)
    for q in (2, 101, p):
        for _ in range(100):
            a = [[int(x) for x in row] for row in rng.integers(0, q, (4, 2))]
            b = [[int(x) for x in row] for row in rng.integers(0, q, (2, 5))]
            check([[sum(a[i][k] * b[k][j] for k in range(2)) % q for j in range(5)]
                   for i in range(4)], q)
        for _ in range(100):
            check([[int(x) for x in row] for row in rng.integers(0, q, (5, 5))], q)


def test_polyvec_degree():
    F = FreeModule(R2, (0, 1))
    assert polyvec_degree(F, (X, P2.one())) == 1
    assert polyvec_degree(F, (P2.zero(), P2.zero())) is None
    with pytest.raises(UsageError):
        polyvec_degree(F, (X, X))


def test_zero_map_and_zero_module():
    F = FreeModule(R2, (0,))
    z = corpus.diagonal_map(F, P2.zero())
    assert z.is_zero()
    assert corpus.min_gens(corpus.free_module(FreeModule(R2, ()))) == 0
    assert corpus.min_gens(corpus.free_module(F)) != 0


# ---------------------------------------------------------------------------
# sparse compose against the dense triple loop

COMPOSE_RINGS = [
    R2,
    QuotientRing.free(P3),
    QuotientRing.free(PolyRing(1, 101)),
    # products of J-normal entries can land in J and must vanish
    QuotientRing(ideal(P2, [X ** 2])),
    QuotientRing(ideal(P2, [X * Y - Y ** 2])),
    QuotientRing(ideal(P3, [P3.var(0) * P3.var(1), P3.var(2) ** 2])),
]


def random_map(rng, source, target, blank_row=None, blank_col=None):
    P = source.ring.poly_ring
    density = rng.choice([0.0, 0.3, 0.7, 1.0])
    rows = []
    for i, tt in enumerate(target.twists):
        row = []
        for j, ts in enumerate(source.twists):
            d = ts - tt
            if d < 0 or i == blank_row or j == blank_col:
                row.append(P.zero())
            else:
                row.append(corpus.random_homogeneous(rng, P, d, density))
        rows.append(row)
    return ModMap.from_rows(source, target, rows)


def assert_compose_matches_dense(a, b):
    got = a.compose(b)
    assert got == oracles.dense_compose(a, b)
    assert (got.source, got.target) == (b.source, a.target)


def test_compose_in_quotient_vanishes_when_products_fall_into_j():
    R = QuotientRing(ideal(P2, [X ** 2]))
    F = FreeModule(R, (0,))
    G = FreeModule(R, (1,))
    a = ModMap.from_rows(G, F, [[X]])
    b = ModMap.from_rows(FreeModule(R, (2,)), G, [[X]])
    assert not a.is_zero() and not b.is_zero()
    assert a.compose(b).is_zero()
    assert_compose_matches_dense(a, b)


def test_zero_entries_and_disjoint_supports_cost_no_normal_form(monkeypatch):
    R = QuotientRing(ideal(P2, [X ** 2]))
    calls = []
    nf = modules.submodule_nf
    monkeypatch.setattr(modules, "submodule_nf", lambda v, basis: calls.append(v) or nf(v, basis))
    F = FreeModule(R, (0,) * 64)
    z = P2.zero()
    assert ModMap.from_rows(F, F, [[z] * 64 for _ in range(64)]).is_zero()
    assert calls == []
    # a is nonzero only in column 1 and b only in row 0, so no product meets
    F1, F2, F_1 = (FreeModule(R, (t,) * 64) for t in (1, 2, -1))
    a_rows = [[X if j == 1 else z for j in range(64)] for _ in range(64)]
    b_rows = [[Y if i == 0 else z for _ in range(64)] for i in range(64)]
    a = ModMap.from_rows(F1, F, a_rows)
    b = ModMap.from_rows(F2, F1, b_rows)
    b_after_a = ModMap.from_rows(F, F_1, b_rows)
    calls.clear()
    assert a.compose(b).is_zero() and calls == []
    # the other order meets in every index, and its one column is normalised
    assert b_after_a.compose(a).cols[1] == packed({(0, (1, 1)): 64}) and len(calls) == 1


@given(st.data())
def test_compose_matches_dense_on_random_maps(data):
    ring = data.draw(st.sampled_from(COMPOSE_RINGS))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    ranks = [data.draw(st.integers(0, 3)) for _ in range(3)]
    da, db = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 1))
    # a of degree da and b of degree db, folded into the source twists
    source, middle, target = (FreeModule(ring, tuple(rng.randrange(0, 3) + lift
                                                     for _ in range(r)))
                              for r, lift in zip(ranks, (da + db, da, 0)))
    # a blanked row of a and column of b give zero rows and columns
    blank_row = data.draw(st.one_of(st.none(), st.integers(0, 2)))
    blank_col = data.draw(st.one_of(st.none(), st.integers(0, 2)))
    a = random_map(rng, middle, target, blank_row=blank_row)
    b = random_map(rng, source, middle, blank_col=blank_col)
    assert_compose_matches_dense(a, b)


@given(st.data())
def test_compose_matches_dense_on_corpus_differentials(data):
    C = data.draw(st.sampled_from(corpus.build_corpus(8, seed=7)))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    i = data.draw(st.integers(1, C.hi))
    d = C.diff(i)
    if i + 1 <= C.hi:
        assert_compose_matches_dense(d, C.diff(i + 1))
    ring = C.ring
    # the maps' degrees are folded into the twists of before and after
    lift, drop = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1))
    before = FreeModule(ring, tuple(rng.randrange(0, 4) + lift
                                    for _ in range(rng.randrange(0, 4))))
    after = FreeModule(ring, tuple(rng.randrange(-2, 1) - drop
                                   for _ in range(rng.randrange(0, 4))))
    assert_compose_matches_dense(d, random_map(rng, before, d.source))
    assert_compose_matches_dense(random_map(rng, d.target, after), d)


ZERO_MAP_RINGS = [R2, QuotientRing(ideal(P2, [X**2, X * Y])), QuotientRing(ideal(P2, [X**2 + Y**2]))]


@pytest.mark.parametrize("ring", ZERO_MAP_RINGS, ids=["free", "monomial", "non_monomial"])
@pytest.mark.parametrize("m, n", [(m, n) for m in range(4) for n in range(4)])
def test_kernel_and_image_of_a_zero_map_needs_no_run(ring, m, n, monkeypatch):
    # the run on no nonzero column returns every source basis vector as
    # a relation, and J's basis at each target position as the image
    source, target = FreeModule(ring, tuple(range(m))), FreeModule(ring, tuple(range(n)))
    phi = ModMap(source, target, [{}] * m)
    raw, image = modules.relative_syzygies(phi.cols, ring.defining_multiples(n), rank=n,
                                           nvars=ring.nvars, p=ring.char)
    want = modules._nonzero_normal(source, raw)
    assert want == raw

    def no_run(*args, **kwargs):
        raise AssertionError("a zero map made a relative syzygy run")

    monkeypatch.setattr(modules, "relative_syzygies", no_run)
    kernel, handle = phi.kernel_and_image
    assert [list(v.items()) for v in kernel] == [list(v.items()) for v in want]
    assert [list(g.items()) for g in handle.gb] == [list(g.items()) for g in image]
    assert handle.free == target
