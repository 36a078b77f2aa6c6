"""Chain complexes: Koszul construction, homology, minimalization, Hom."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from levelbounds import complexes, gbcore, modules
from levelbounds.complexes import ChainComplex, hom_complex, koszul_complex, minimalize
from levelbounds.errors import UnsupportedInputError, UsageError
from levelbounds.groebner import E_VAR_CAP, ideal, zero_ideal
from levelbounds.invariants import lech_independent
from levelbounds.level import level_interval
from levelbounds.modules import FreeModule, ModMap, is_power_torsion
from levelbounds.polys import PolyRing, parse_poly
from levelbounds.rings import QuotientRing

import corpus
import oracles

P1 = PolyRing(1, 101)
P2 = PolyRing(2, 101)
P3 = PolyRing(3, 101)
T = P1.var(0)
X, Y = P2.variables()
R1 = QuotientRing.free(P1)
R2 = QuotientRing.free(P2)


def test_koszul_shape():
    x1, x2, x3 = P3.variables()
    K = koszul_complex([x1, x2, x3], QuotientRing.free(P3))
    assert [m.rank for m in K.modules] == [1, 3, 3, 1]
    assert [m.twists for m in K.modules] == [(0,), (1, 1, 1), (2, 2, 2), (3,)]
    mixed = koszul_complex([x1, x2**2], QuotientRing.free(P3))
    assert [m.twists for m in mixed.modules] == [(0,), (1, 2), (3,)]
    assert mixed.koszul == (x1, x2**2)
    empty = koszul_complex([], R2)
    assert empty.hi == 0 and empty.modules[0].rank == 1
    assert not empty.homology(0).is_zero


def rows_of(phi):
    return [list(r) for r in phi.rows]


def total_rank(C):
    return sum(m.rank for m in C.modules)


def test_koszul_matrices_two_variables():
    K = koszul_complex([X, Y], R2)
    assert rows_of(K.diff(1)) == [[X, Y]]
    assert rows_of(K.diff(2)) == [[Y.scale(-1)], [X]]
    assert total_rank(K) == 4
    assert K.is_minimal()


def test_koszul_rejects_bad_entries():
    with pytest.raises(UsageError):
        koszul_complex([P2.zero()], R2)
    with pytest.raises(UsageError):
        koszul_complex([P2.one()], R2)
    with pytest.raises(UsageError):
        koszul_complex([X + P2.one()], R2)


def test_complex_validation():
    F0, F1, F2 = (FreeModule(R1, (d,)) for d in (0, 1, 2))
    mul = lambda s, t: ModMap.from_rows(s, t, [[T]])
    with pytest.raises(UsageError):
        ChainComplex(R1, [F0, F1, F2], [mul(F1, F0), mul(F2, F1)])
    # the same square of maps is a genuine complex once t^2 dies
    Rq = QuotientRing(ideal(P1, [T**2]))
    G0, G1, G2 = (FreeModule(Rq, (d,)) for d in (0, 1, 2))
    mulq = lambda s, t: ModMap.from_rows(s, t, [[T]])
    C = ChainComplex(Rq, [G0, G1, G2], [mulq(G1, G0), mulq(G2, G1)])
    assert C.hi == 2
    with pytest.raises(UsageError):
        ChainComplex(R1, [F0, F1], [])
    with pytest.raises(UsageError):
        ChainComplex(R1, [F0, F1], [mul(F2, F1)])


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("first", ["below", "flipped"])
def test_a_flipped_sign_fails_the_square_check_in_either_order(k, first):
    # K(x1, x2, x3) built lazily with one sign of d_k flipped: reading
    # d_(k-1) and d_k, whichever comes first, refuses the second, and
    # the refused map is not kept
    R3 = QuotientRing.free(P3)
    K = koszul_complex(list(P3.variables()), R3)
    d = K.diff(k)
    cols = [dict(c) for c in d.cols]
    t = next(iter(cols[0]))
    cols[0][t] = 101 - cols[0][t]
    bad = ModMap(d.source, d.target, cols)
    C = ChainComplex(R3, K.modules, lambda i: bad if i == k else K.diff(i))
    C.diff(k - 1 if first == "below" else k)
    with pytest.raises(UsageError, match="do not compose to zero"):
        C.diff(k if first == "below" else k - 1)
    assert set(C._diffs) == {k - 1 if first == "below" else k}
    with pytest.raises(UsageError, match="do not compose to zero"):
        C.diffs


def test_regular_sequence_resolves_the_quotient():
    K = koszul_complex([X, Y], R2)
    assert not K.homology(0).is_zero
    assert corpus.min_gens(corpus.present(K.homology(0))) == 1
    assert K.homology(1).is_zero
    assert K.homology(2).is_zero
    assert homology_support(K) == [0]


def homology_support(C):
    return [i for i in range(C.hi + 1) if not C.homology(i).is_zero]


def test_zerodivisor_shows_up_in_h1():
    Rxy = QuotientRing(ideal(P2, [X * Y]))
    K = koszul_complex([X], Rxy)
    H1 = K.homology(1)
    assert not H1.is_zero
    dims = [oracles.module_piece_dim(corpus.present(H1), d) for d in range(5)]
    assert dims == [0, 0, 1, 1, 1]
    assert dims == [oracles.homology_dim(K, 1, d) for d in range(5)]


def test_homology_denominator_is_the_image_half_of_the_next_run():
    for C in corpus.build_corpus():
        for i in range(C.hi):
            assert C.homology(i).denom.gb == oracles.span(C.modules[i], C.diff(i + 1).cols).gb


def test_one_elimination_run_per_differential(monkeypatch):
    # k tracked runs for the k differentials and nothing else: no
    # separate Groebner run for any image, and none for J*F_hi at the top
    calls = {"relative_syzygies": 0, "module_gb": 0}

    def counting(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    counting(modules, "relative_syzygies")
    counting(gbcore, "module_gb")
    seq = [X, Y, X + Y]
    K = koszul_complex(seq, QuotientRing(ideal(P2, [X * Y])))
    first = [K.homology(i) for i in range(K.hi, -1, -1)]
    assert calls == {"relative_syzygies": len(seq), "module_gb": len(seq)}
    assert [K.homology(i) for i in range(K.hi, -1, -1)] == first
    assert calls == {"relative_syzygies": len(seq), "module_gb": len(seq)}


def test_redundant_generator_homology():
    K = koszul_complex([X, X * Y], R2)
    H1 = K.homology(1)
    assert corpus.min_gens(corpus.present(H1)) == 1
    assert oracles.annihilator(corpus.present(H1)).normal_form(X).is_zero()
    assert is_power_torsion(H1, ideal(P2, [X, X * Y]))


@pytest.mark.parametrize("jgens,seq", [
    ([], [("x1",), ("x1*x2",)]),
    ([("x1*x2",)], [("x1",)]),
    ([("x1^2",)], [("x1",), ("x2",)]),
])
def test_koszul_homology_matches_oracle(jgens, seq):
    J = ideal(P2, [parse_poly(s[0], P2) for s in jgens]) if jgens else zero_ideal(P2)
    R = QuotientRing(J)
    K = koszul_complex([parse_poly(s[0], P2) for s in seq], R)
    for i in range(K.hi + 1):
        for d in range(6):
            got = oracles.module_piece_dim(corpus.present(K.homology(i)), d)
            assert got == oracles.homology_dim(K, i, d)


def test_positive_koszul_homology_is_torsion():
    cases = [
        (zero_ideal(P2), [X, X * Y]),
        (ideal(P2, [X * Y]), [X]),
        (ideal(P2, [X**2]), [X, Y]),
        (ideal(P2, [X**2, X * Y]), [X + Y]),
    ]
    for J, seq in cases:
        R = QuotientRing(J)
        K = koszul_complex(seq, R)
        I = ideal(P2, seq)
        for i in range(1, K.hi + 1):
            H = K.homology(i)
            if not H.is_zero:
                assert is_power_torsion(H, I)


def test_top_nonvanishing_is_permutation_invariant():
    for seq in ([X, X * Y], [X**2, Y**2], [X, Y, X + Y]):
        K1 = koszul_complex(seq, R2)
        K2 = koszul_complex(list(reversed(seq)), R2)
        tops = [max(homology_support(K), default=-1) for K in (K1, K2)]
        assert tops[0] == tops[1]


def identity_summand_complex():
    F0 = FreeModule(R2, (0, 0))
    F1 = FreeModule(R2, (1, 1, 0))
    F2 = FreeModule(R2, (2,))
    d1 = ModMap.from_rows(F1, F0, [[X, Y, P2.zero()], [P2.zero(), P2.zero(), P2.one()]])
    d2 = ModMap.from_rows(F2, F1, [[Y.scale(-1)], [X], [P2.zero()]])
    return ChainComplex(R2, [F0, F1, F2], [d1, d2])


def test_minimalize_cancels_identity_summand():
    C = identity_summand_complex()
    assert not C.is_minimal()
    M = minimalize(C)
    K = koszul_complex([X, Y], R2)
    assert [m.rank for m in M.modules] == [1, 2, 1]
    assert rows_of(M.diff(1)) == rows_of(K.diff(1))
    assert rows_of(M.diff(2)) == rows_of(K.diff(2))
    assert M.is_minimal()


def test_minimalize_of_exact_identity_is_zero():
    F = FreeModule(R2, (0,))
    C = ChainComplex(R2, [F, F], [ModMap.from_rows(F, F, [[P2.one()]])])
    M = minimalize(C)
    assert M.is_zero_complex()
    assert total_rank(M) == 0


def test_minimalize_keeps_minimal_complexes():
    K = koszul_complex([X, Y], R2)
    M = minimalize(K)
    assert [m.twists for m in M.modules] == [m.twists for m in K.modules]
    assert all(rows_of(M.diff(i)) == rows_of(K.diff(i)) for i in (1, 2))
    assert total_rank(minimalize(M)) == total_rank(M)


def test_minimalize_returns_a_minimal_complex_itself():
    # R's Koszul complexes, one with an entry in J and the Hom K(a, a)
    # among them, have entries in m and rank-one ends, so each comes back
    # as it is; padded with a zero module on top and tagged by hand with
    # the sequence, one is rebuilt, and a rebuilt complex carries none
    K = koszul_complex([X, Y], R2)
    RJ = QuotientRing(ideal(P2, [X * Y]))
    for C in (K, koszul_complex([X, X * Y], RJ), hom_complex(K, K)):
        H0 = C.homology(0)
        assert minimalize(C) is C and minimalize(C).homology(0) is H0
        top, none = C.modules[-1], FreeModule(C.ring, ())
        padded = ChainComplex(C.ring, list(C.modules) + [none],
                              list(C.diffs) + [ModMap(none, top, [])])
        padded.koszul = C.koszul
        assert minimalize(padded).koszul is None


def test_minimalize_shortcut_keeps_level_intervals_over_corpus():
    # a zero module on top makes minimalize trim and rebuild, so the
    # padded complex takes the rebuilding path to the same minimal complex
    for C in corpus.build_corpus():
        top, none = C.modules[-1], FreeModule(C.ring, ())
        padded = ChainComplex(C.ring, list(C.modules) + [none],
                              list(C.diffs) + [ModMap(none, top, [])])
        assert minimalize(padded) is not padded
        if C.is_minimal() and C.modules[0].rank and top.rank:
            assert minimalize(C) is C
        assert level_interval(C).as_dict() == level_interval(padded).as_dict()


def random_sequence(rng, P, most):
    seq = []
    for _ in range(rng.randrange(0, most + 1)):
        f = corpus.random_homogeneous(rng, P, rng.randrange(1, 3))
        if not f.is_zero():
            seq.append(f)
    return seq


@given(st.data())
def test_koszul_matches_dense_oracle_on_corpus(data):
    C = data.draw(st.sampled_from(corpus.build_corpus(8, seed=7)))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    seq = random_sequence(rng, C.ring.poly_ring, 2)
    K = koszul_complex(seq, C.ring)
    assert [d.rows for d in K.diffs] == [tuple(map(tuple, m))
                                         for m in oracles.dense_koszul(seq, C.ring)]


def dense_hom_complex(F, G):
    """Hom(F, G) from oracles.dense_hom, with twist G(v) - F(u) at basis (j, u, v)."""
    modules = []
    for i in range(-F.hi, G.hi + 1):
        twists = tuple(G.modules[j + i].twists[v] - F.modules[j].twists[u]
                       for j in range(F.hi + 1) if 0 <= j + i <= G.hi
                       for u in range(F.modules[j].rank)
                       for v in range(G.modules[j + i].rank))
        modules.append(FreeModule(F.ring, twists))
    diffs = [ModMap.from_rows(modules[k + 1], modules[k], mat)
             for k, mat in enumerate(oracles.dense_hom(F, G))]
    return ChainComplex(F.ring, modules, diffs)


def assert_hom_is_koszul_on_both(a, b, ring):
    """hom_complex(K(a), K(b)) has the homology of the general Hom, twisted by deg(a)."""
    Ka, Kb = koszul_complex(a, ring), koszul_complex(b, ring)
    dense, H = dense_hom_complex(Ka, Kb), hom_complex(Ka, Kb)
    assert [m.rank for m in H.modules] == [m.rank for m in dense.modules]
    shift = sum(f.degree() for f in a)
    top = shift + sum(f.degree() for f in b)
    for i in range(H.hi + 1):
        for d in range(-shift, top + 3):
            assert oracles.homology_dim(dense, i, d) == oracles.homology_dim(H, i, d + shift)


@given(st.data())
def test_hom_matches_the_general_hom_on_corpus(data):
    C = data.draw(st.sampled_from(corpus.build_corpus(8, seed=7)))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    P = C.ring.poly_ring
    assert_hom_is_koszul_on_both(random_sequence(rng, P, 2), random_sequence(rng, P, 2), C.ring)


def test_hom_matches_the_general_hom_with_an_entry_in_the_ideal():
    # x1^2 lies in J, so its normal form is 0, which koszul_complex refuses
    x1, x2 = P2.variables()
    R = QuotientRing(ideal(P2, [x1**2, x1 * x2]))
    assert_hom_is_koszul_on_both([x1**2], [x1 * x2, x2], R)
    assert_hom_is_koszul_on_both([x2, x1**2], [x1**2], R)
    assert hom_complex(koszul_complex([x1**2], R), koszul_complex([x2], R)).koszul == (x1**2, x2)


def test_minimalize_preserves_homology():
    # A minimal complex has H_0 != 0 at its lowest nonzero module, by
    # Nakayama, which level_interval relies on.  So M starts at C's first
    # nonzero homology, and the degrees line up there.
    for C in corpus.build_corpus(10, seed=11):
        M = minimalize(C)
        assert M.is_zero_complex() or M.is_minimal()
        assert M.is_zero_complex() or not M.homology(0).is_zero
        nonzero = [i for i in range(C.hi + 1) if not C.homology(i).is_zero]
        for i in range(C.hi + 1):
            before = corpus.present(C.homology(i))
            inner = i - nonzero[0] if nonzero else i
            if 0 <= inner <= M.hi:
                after = corpus.present(M.homology(inner))
                for d in range(5):
                    assert oracles.module_piece_dim(before, d) == oracles.module_piece_dim(after, d)
            else:
                for d in range(5):
                    assert oracles.module_piece_dim(before, d) == 0


def test_hom_out_of_the_ring_is_the_identity():
    # the ring is the Koszul complex on the empty sequence
    K = koszul_complex([X, Y], R2)
    assert hom_complex(koszul_complex([], R2), K) is K


def test_hom_into_the_ring_dualizes():
    K = koszul_complex([X, Y], R2)
    H = hom_complex(K, koszul_complex([], R2))
    assert [m.rank for m in H.modules] == [1, 2, 1]
    # internal twists are K(x, y)'s, which are those of Hom(K, R) plus deg(x) + deg(y)
    assert [tuple(t - 2 for t in m.twists) for m in H.modules] == [(-2,), (-1, -1), (0,)]
    # entries of the dual differentials are transposes up to sign
    flat = lambda phi: {oracles.monic(f) for row in phi.rows for f in row if not f.is_zero()}
    assert flat(H.diff(1)) == {X, Y}
    assert flat(H.diff(2)) == {X, Y}


def test_hom_tag_only_survives_when_both_sides_tagged():
    K = koszul_complex([X], R2)
    assert hom_complex(K, K).koszul == (X, X)
    # a complex without a sequence is refused on either side
    S = ChainComplex(R2, [FreeModule(R2, (0,))], [])
    for F, G in ((K, S), (S, K), (S, S)):
        with pytest.raises(UsageError, match="between Koszul complexes"):
            hom_complex(F, G)
    other = koszul_complex([X], QuotientRing(ideal(P2, [X**2])))
    with pytest.raises(UsageError, match="different rings"):
        hom_complex(K, other)


def test_hom_self_koszul_line():
    K = koszul_complex([T], R1)
    H = hom_complex(K, K)
    # K(x1, x1), whose degrees are Hom's moved up by one
    assert [m.rank for m in H.modules] == [1, 2, 1]
    assert [m.twists for m in H.modules] == [(0,), (1, 1), (2,)]
    assert H.koszul == (T, T)
    assert rows_of(H.diff(1)) == [[T, T]]
    assert rows_of(H.diff(2)) == [[T.scale(-1)], [T]]
    zero_pattern = [H.homology(i).is_zero for i in range(3)]
    assert zero_pattern == [False, False, True]
    for i in range(3):
        for d in range(4):
            got = oracles.module_piece_dim(corpus.present(H.homology(i)), d)
            assert got == oracles.homology_dim(H, i, d)


def test_hom_rank_cap_refuses_before_building(monkeypatch):
    P = PolyRing(6, 101)
    R = QuotientRing.free(P)
    xs = P.variables()
    F = koszul_complex(list(xs), R)
    G = koszul_complex(list(xs[:5]), R)
    assert complexes._KOSZUL_CAP < len(xs) + 5
    # the inputs exist; the refusal must come before any module of the Hom

    def no_modules(*args):
        raise AssertionError("hom_complex built a module before refusing")

    monkeypatch.setattr(complexes, "FreeModule", no_modules)
    with pytest.raises(UnsupportedInputError, match=E_VAR_CAP):
        hom_complex(F, G)


def test_hom_rank_cap_is_inclusive(monkeypatch):
    K1 = koszul_complex([X], R2)
    K2 = koszul_complex([X, Y], R2)
    monkeypatch.setattr(complexes, "_KOSZUL_CAP", 2)
    assert [m.rank for m in hom_complex(K1, K1).modules] == [1, 2, 1]
    with pytest.raises(UnsupportedInputError, match="2 elements .rank 2.2., got 3"):
        hom_complex(K2, K1)


def test_a_single_module_complex_has_its_module_as_homology():
    C = ChainComplex(R2, [FreeModule(R2, (3,))], [])
    assert C.hi == 0
    assert math.inf not in C.modules[0].twists
    assert not C.homology(0).is_zero


def test_the_ring_keeps_one_koszul_complex_per_sequence():
    x1, x2, _ = P3.variables()
    R = QuotientRing(ideal(P3, [x1 * x2]))
    K = koszul_complex([x1, x2], R)
    assert koszul_complex([x1, x2], R) is K and koszul_complex((x1, x2), R) is K
    # an equal ring keeps its own
    assert koszul_complex([x1, x2], QuotientRing(ideal(P3, [x1 * x2]))) is not K


def test_a_hom_is_the_rings_koszul_complex(monkeypatch):
    x1, x2, x3 = P3.variables()
    R = QuotientRing(ideal(P3, [x1 * x2]))
    a, b = [x1, x2], [x3, x1**2]
    whole = koszul_complex(a + b, R)
    Ka, Kb = koszul_complex(a, R), koszul_complex(b, R)
    # K(a + b)'s d-squared check ran when it was built; the Hom runs none
    monkeypatch.setattr(ModMap, "compose", None)
    assert hom_complex(Ka, Kb) is whole
    assert hom_complex(Ka, Kb) is whole


def test_the_koszul_d1_is_the_map_lech_reads():
    x1, x2, x3 = P3.variables()
    R = QuotientRing(ideal(P3, [x1 * x2]))
    seq = [x1, x2 + x3]
    d1 = koszul_complex(seq, R).diff(1)
    assert d1 is complexes.sequence_map(seq, R)
    assert "kernel_and_image" not in vars(d1)
    assert not lech_independent(seq, R)
    assert "kernel_and_image" in vars(d1)


@pytest.mark.parametrize("seq", [
    [X, 3], [X, [Y]], [X, P2.zero()], [X, X + Y**2], [X] * 11,
], ids=["not_poly", "unhashable", "zero", "inhomogeneous", "too_long"])
def test_koszul_refusals_come_before_the_ring_is_asked(seq, monkeypatch):
    R = QuotientRing.free(P2)

    def asked(*args):
        raise AssertionError("the ring was asked before the entries were checked")

    monkeypatch.setattr(R, "owned", asked)
    with pytest.raises(UsageError):
        koszul_complex(seq, R)
