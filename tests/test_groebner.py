"""Ideal arithmetic: bases, membership, intersection, radical, dimension."""

import random
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from levelbounds import gbcore, groebner, modules
from levelbounds.cli import run_session
from levelbounds.complexes import koszul_complex
from levelbounds.errors import UnsupportedInputError, UsageError
from levelbounds.gbcore import E_DEGREE_CAP
from levelbounds.groebner import (E_VAR_CAP, IdealData, ideal, ideal_intersection,
                                  krull_dim, monomial_minimal_primes, zero_ideal)
from levelbounds.invariants import bigheight_monomial, height_monomial
from levelbounds.level import verify_factorization_example
from levelbounds.modules import FreeModule, ModMap, SubmoduleGB, gamma_torsion
from levelbounds.polys import PolyRing, mono_lcm, mono_mul, parse_poly
from levelbounds.rings import QuotientRing
from levelbounds.session import parse_session

import corpus
import oracles
from oracles import (ideal_sum, mono_divides, pot_key, tuple_module_gb, tuple_reducer,
                     tuple_submodule_nf)

P2 = PolyRing(2, 101)
P3 = PolyRing(3, 101)
P4 = PolyRing(4, 101)
X, Y = P2.variables()
X1, X2, X3 = P3.variables()
SESSIONS = Path(__file__).parent.parent / "perfbench" / "sessions"


def gb_set(I):
    return frozenset(I.gb if isinstance(I, IdealData) else I)


def test_reduced_gb_examples():
    assert gb_set(ideal(P2, [X**2, X * Y]).gb) == {X**2, X * Y}
    assert gb_set(ideal(P2, [X + Y, X - Y]).gb) == {X, Y}
    assert gb_set(ideal(P2, [X**2, X * Y, X]).gb) == {X}
    assert gb_set(ideal(P3, [X1 * X2, X1 * X3])) == {X1 * X2, X1 * X3}


def test_normal_form_examples():
    I = ideal(P3, [X1 * X2])
    assert I.normal_form(X1**2 * X2).is_zero()
    J = ideal(P3, [X1 * X2, X1 * X3])
    assert J.normal_form(X1**2) == X1**2
    assert J.normal_form(X1 * (X2 + X3)).is_zero()
    assert not J.normal_form(X1**2).is_zero()


def test_normal_form_over_the_free_ring_returns_its_input():
    f = X ** 2 + X * Y.scale(3)
    R = QuotientRing.free(P2)
    assert R.nf(f) is f
    vec = {(0, e): c for e, c in f.terms}
    assert P2.from_dict({e: c for (_, e), c in
                         tuple_submodule_nf(vec, tuple_reducer([], 101, nvars=2)).items()}) == f
    # over a quotient the reducer runs, and nf is still a normal form mod J
    rng = random.Random(5)
    quotients = [C.ring.defining for C in corpus.build_corpus(8, seed=7) if C.ring.defining.gb]
    assert quotients
    for J in quotients:
        for d in range(1, 4):
            g = corpus.random_homogeneous(rng, J.ring, d)
            r = J.normal_form(g)
            assert oracles.in_ideal(g - r, list(J.gens))
            assert not any(mono_divides(lead, e) for lead in J.leading_monomials()
                           for e, _ in r.terms)


def test_ideal_validation():
    with pytest.raises(UsageError):
        ideal(P2, [X**2 + X])
    with pytest.raises(UsageError):
        ideal(P2, [X1 * X2])
    # degree zero constants are homogeneous, so a unit ideal is expressible
    assert not ideal(P2, [P2.one()]).is_proper()
    assert zero_ideal(P2).is_zero()


def test_intersection_examples():
    A = ideal_intersection(ideal(P3, [X1]), ideal(P3, [X2, X3]))
    assert gb_set(A) == {X1 * X2, X1 * X3}
    I = ideal(P2, [X**2, X * Y])
    assert gb_set(ideal_intersection(I, I)) == gb_set(I)
    B = ideal_intersection(ideal(P2, [X**2]), ideal(P2, [Y**2]))
    assert gb_set(B) == {X**2 * Y**2}


def test_quotient_and_saturation():
    # the saturation (x^2 y : x^oo) = (y), read off the x-power torsion
    # of P/(x^2 y): its generators are the stable colon numerators
    R = QuotientRing.free(P2)
    F = FreeModule(R, (0,))
    T = gamma_torsion(oracles.span(F, [oracles.vec_from_polyvec((X**2 * Y,))]), ideal(P2, [X]))
    assert gb_set(ideal(P2, [v[0] for v in oracles.polyvecs(F, T)])) == {Y}


def test_radical_membership_examples():
    I = ideal(P2, [X**2])
    assert oracles.radical_membership(X, I)
    assert not oracles.radical_membership(Y, I)
    J = ideal(P2, [X**2, Y**2])
    assert oracles.radical_membership(X + Y, J)
    # direct witness: the cube already lies in the ideal
    assert J.normal_form((X + Y) ** 3).is_zero()
    assert not J.normal_form((X + Y) ** 2).is_zero()


def test_krull_dim_examples():
    assert krull_dim(ideal(P3, [X1 * X2, X1 * X3])) == 2
    assert krull_dim(zero_ideal(P3)) == 3
    assert krull_dim(ideal(P3, [X1, X2, X3])) == 0
    assert krull_dim(ideal(P2, [P2.one()])) == -1
    assert krull_dim(ideal(P3, [X1 * X2])) == 2
    assert krull_dim(ideal(P3, [X1**2, X1 * X2 + X2**2])) == 1


def test_krull_dim_skips_unused_variables():
    # 2^22 subsets of all variables, 2^12 of those in a leading monomial
    P = PolyRing(22, 101)
    I = ideal(P, P.variables()[:12])
    start = time.perf_counter()
    assert krull_dim(I) == 10
    assert time.perf_counter() - start < 1.0


def test_variable_caps_carry_a_code():
    P = PolyRing(17, 101)
    with pytest.raises(UnsupportedInputError, match=E_VAR_CAP):
        krull_dim(ideal(P, P.variables()))
    assert krull_dim(ideal(P, P.variables()[:16])) == 1
    P13 = PolyRing(13, 101)
    with pytest.raises(UnsupportedInputError, match=E_VAR_CAP):
        monomial_minimal_primes(ideal(P13, P13.variables()[:1]))


def test_monomial_minimal_primes():
    mp = monomial_minimal_primes(ideal(P3, [X1 * X2, X1 * X3]))
    assert set(mp) == {frozenset({0}), frozenset({1, 2})}
    assert monomial_minimal_primes(ideal(P3, [X1, X2, X3])) == [frozenset({0, 1, 2})]
    assert set(monomial_minimal_primes(ideal(P2, [X * Y]))) == {frozenset({0}), frozenset({1})}
    assert monomial_minimal_primes(zero_ideal(P2)) == [frozenset()]
    with pytest.raises(UnsupportedInputError):
        monomial_minimal_primes(ideal(P2, [X + Y]))
    with pytest.raises(UsageError):
        monomial_minimal_primes(ideal(P2, [P2.one()]))


def test_height_examples():
    P4 = PolyRing(4, 101)
    v = list(P4.variables())
    meet = ideal_intersection(ideal(P4, [v[0]]), ideal(P4, v[1:]))
    free = QuotientRing.free(P4)
    assert height_monomial(meet, free) == 1
    assert bigheight_monomial(meet, free) == 3
    # same ideal read over the quotient by itself: everything collapses
    rest = ideal(P4, v[1:])
    assert height_monomial(rest, QuotientRing(meet)) == 0
    assert bigheight_monomial(rest, QuotientRing(meet)) == 0
    two = ideal(P2, [X, Y])
    assert height_monomial(two, QuotientRing.free(P2)) == 2
    assert bigheight_monomial(two, QuotientRing.free(P2)) == 2
    with pytest.raises(UnsupportedInputError):
        height_monomial(ideal(P2, [X + Y]), QuotientRing.free(P2))
    with pytest.raises(UsageError):
        bigheight_monomial(ideal(P2, [P2.one()]), QuotientRing.free(P2))


def homogeneous_polys(ring, min_deg=1, max_deg=3):
    def build(args):
        d, pairs = args
        return ring.from_dict(dict(pairs))
    def for_degree(d):
        mons = oracles.monomials(ring.nvars, d)
        return st.tuples(
            st.just(d),
            st.lists(st.tuples(st.sampled_from(mons), st.integers(1, ring.char - 1)),
                     min_size=1, max_size=4, unique_by=lambda t: t[0]))
    return st.integers(min_deg, max_deg).flatmap(for_degree).map(build)


def homogeneous_ideals(ring):
    return st.lists(homogeneous_polys(ring), min_size=1, max_size=3).map(
        lambda gs: ideal(ring, gs))


def monomial_ideals(ring, max_gens=3):
    def build(exps):
        return ideal(ring, [oracles.monomial(ring, e) for e in exps])
    mons = [e for d in (1, 2, 3) for e in oracles.monomials(ring.nvars, d)]
    return st.lists(st.sampled_from(mons), min_size=1, max_size=max_gens).map(build)


@given(homogeneous_ideals(P2), homogeneous_polys(P2, min_deg=1, max_deg=4))
def test_membership_matches_degreewise_oracle(I, f):
    assert I.normal_form(f).is_zero() == oracles.in_ideal(f, I.gens)


@given(homogeneous_ideals(P2), st.randoms(use_true_random=False))
def test_gb_canonical_under_generator_permutation(I, rng):
    gens = list(I.gens)
    rng.shuffle(gens)
    assert gb_set(ideal(P2, gens)) == gb_set(I)


@given(monomial_ideals(P2), monomial_ideals(P2))
def test_monomial_intersection_is_pairwise_lcm(A, B):
    got = gb_set(ideal_intersection(A, B))
    lcms = [oracles.monomial(P2, mono_lcm(a.leading_monomial(), b.leading_monomial()))
            for a in A.gens for b in B.gens]
    assert got == gb_set(ideal(P2, lcms).gb)


@given(monomial_ideals(P3), monomial_ideals(P3))
def test_height_at_most_bigheight(I, J):
    h = height_monomial(I, QuotientRing(J))
    bh = bigheight_monomial(I, QuotientRing(J))
    assert 0 <= h <= bh


@given(monomial_ideals(P3))
def test_monomial_dimension_via_covers(I):
    assert krull_dim(I) == 3 - height_monomial(I, QuotientRing.free(P3))


@given(monomial_ideals(P4))
def test_krull_dim_matches_all_subsets(I):
    assert krull_dim(I) == oracles.krull_dim_all_subsets(I)


@given(homogeneous_ideals(P2), homogeneous_polys(P2))
def test_normal_form_is_idempotent_and_member_shift(I, f):
    r = I.normal_form(f)
    assert I.normal_form(r) == r
    assert I.normal_form(f - r).is_zero()


@given(homogeneous_ideals(P2))
def test_sum_and_intersection_bracketing(I):
    # I is squeezed between I meet I and I plus I
    assert gb_set(ideal_sum(I, I)) == gb_set(I)
    assert gb_set(ideal_intersection(I, I)) == gb_set(I)


@given(homogeneous_ideals(P3), homogeneous_ideals(P3))
def test_intersection_matches_degreewise_oracle(I, J):
    # dim (I meet J)_d = dim I_d + dim J_d - dim (I + J)_d, and every
    # generator lies in both ideals
    meet = ideal_intersection(I, J)
    for d in range(6):
        dims = [oracles.ideal_piece_dim(gens, 3, d, 101)
                for gens in (meet.gens, I.gens, J.gens, I.gens + J.gens)]
        assert dims[0] == dims[1] + dims[2] - dims[3]
    for g in meet.gens:
        assert oracles.in_ideal(g, I.gens) and oracles.in_ideal(g, J.gens)


@given(homogeneous_ideals(P3), homogeneous_ideals(P3))
def test_intersection_hands_over_its_reduced_basis(I, J):
    # the relations of the one elimination run are the reduced basis, so
    # the result holds them as its gb before anything asks for it
    meet = ideal_intersection(I, J)
    assert "gb" in vars(meet)
    assert meet.gb == IdealData(P3, meet.gens).gb


def homogeneous_vectors(nvars, rank):
    """Raw vectors of P^rank whose terms all have one total degree."""
    def for_degree(d):
        terms = [(pos, e) for pos in range(rank) for e in oracles.monomials(nvars, d)]
        return st.lists(st.tuples(st.sampled_from(terms), st.integers(1, 100)),
                        min_size=1, max_size=4, unique_by=lambda t: t[0]).map(dict)
    return st.integers(1, 3).flatmap(for_degree)


# The engine has one term order; the tests read leads with it.
KEYS = pytest.mark.parametrize("key", [pot_key], ids=["pot_key"])


def mixed_vectors(nvars, rank):
    """Homogeneous vectors of P^rank, some with every term at one position."""
    def at_position(pos_and_vec):
        pos, v = pos_and_vec
        return {(pos, e): c for (_, e), c in v.items()}
    single = st.tuples(st.integers(0, rank - 1), homogeneous_vectors(nvars, 1)).map(at_position)
    return st.one_of(homogeneous_vectors(nvars, rank), single)


def test_interreduction_passes_only_the_tails_a_later_lead_reaches(monkeypatch):
    # the run adds x1*x3 + 27*x3^2, then x3^2 (from the third input) and
    # x1^2 (from the second), each reduced against those before it; only
    # the first tail holds a term that a later lead divides
    P = PolyRing(3, 101)
    fs = [parse_poly(s, P) for s in ("x1*x3 + 27*x3^2", "x1^2 + 4*x1*x3", "x1*x3 + 78*x3^2")]
    seen = []
    real = gbcore._interreduce

    def spy(basis):
        before = {lt: dict(v) for lt, v in basis.elems}
        out = real(basis)
        seen.append((before, out))
        return out

    monkeypatch.setattr(gbcore, "_interreduce", spy)
    gb = tuple_module_gb([{(0, e): c for e, c in f.terms} for f in fs], 101)
    x1, _, x3 = P.variables()
    assert gb == [{(0, e): c for e, c in f.terms} for f in (x1**2, x1 * x3, x3**2)]
    (before, out), = seen
    assert len(before) == len(out) == 3
    assert sum(v != before[max(v)] for v in out) == 1


@KEYS
@given(rank=st.integers(1, 2), data=st.data())
def test_module_gb_is_reduced_and_order_free(key, rank, data):
    vecs = data.draw(st.lists(homogeneous_vectors(3, rank), min_size=1, max_size=4))
    rng = data.draw(st.randoms(use_true_random=False))
    gb = tuple_module_gb(vecs, 101)
    shuffled = list(vecs)
    rng.shuffle(shuffled)
    assert tuple_module_gb(shuffled, 101) == gb
    assert all(v[max(v, key=key)] == 1 for v in gb)
    assert oracles.lead_divisible_terms(gb, key) == []


@KEYS
@given(rank=st.integers(1, 3), data=st.data())
def test_module_gb_is_closed_under_all_spairs(key, rank, data):
    vecs = data.draw(st.lists(mixed_vectors(3, rank), min_size=1, max_size=5))
    gb = tuple_module_gb(vecs, 101)
    assert oracles.buchberger_closed(gb, 101)
    basis = tuple_reducer(gb, 101)
    assert all(not tuple_submodule_nf(v, basis) for v in vecs)


@given(rank=st.integers(1, 2), data=st.data())
def test_relative_syzygies_image_half_is_the_span_basis(rank, data):
    # pot_key ranks the ambient block above the tracking block, so the
    # ambient-led elements of the tracked run project onto the reduced
    # basis of tracked + untracked, element for element and in order
    tracked = data.draw(st.lists(homogeneous_vectors(3, rank), min_size=1, max_size=3))
    untracked = data.draw(st.lists(homogeneous_vectors(3, rank), max_size=3))
    _, image = oracles.tuple_relative_syzygies(tracked, untracked, rank=rank, nvars=3, p=101)
    assert image == tuple_module_gb(tracked + untracked, 101)


@KEYS
def test_coprime_leads_at_two_positions_still_pair(key):
    # x*e0 + e1 and y*e0 have coprime leads, yet their S-vector y*e1 is
    # not zero modulo them: the product criterion needs single positions.
    u = {(0, (1, 0)): 1, (1, (0, 0)): 1}
    v = {(0, (0, 1)): 1}
    gb = tuple_module_gb([u, v], 101)
    assert any(max(g, key=key)[0] == 1 for g in gb)
    assert oracles.buchberger_closed(gb, 101)


def single_terms(nvars, rank):
    """Single-term vectors of P^rank, as a monomial submodule is seeded."""
    mons = [(pos, e) for pos in range(rank)
            for d in (1, 2, 3) for e in oracles.monomials(nvars, d)]
    return st.tuples(st.sampled_from(mons), st.integers(1, 100)).map(lambda t: dict([t]))


@given(rank=st.integers(1, 3), data=st.data())
def test_module_gb_on_many_single_terms_matches_plain_buchberger(rank, data):
    # two single terms are never paired; every pair with a longer element
    # still is, and plain Buchberger forms every pair
    singles = data.draw(st.lists(single_terms(3, rank), min_size=2, max_size=8))
    others = data.draw(st.lists(mixed_vectors(3, rank), max_size=3))
    vecs = data.draw(st.permutations(singles + others))
    assert tuple_module_gb(vecs, 101) == oracles.reference_gb(vecs, 101)


@contextmanager
def module_gb_inputs():
    """The vectors of every module_gb call made inside the block, through either binding.

    They are recorded in tuple form, through the oracles' adapter.
    """
    seen = []
    real = gbcore.module_gb

    def spy(vectors, nvars, p):
        vectors = list(vectors)
        seen.append(([oracles.unpacked(v, nvars) for v in vectors], p))
        return real(vectors, nvars, p)

    gbcore.module_gb = groebner.module_gb = spy
    try:
        yield seen
    finally:
        gbcore.module_gb = groebner.module_gb = real


@pytest.mark.parametrize("name", ["family_a.session", "family_b.session"])
def test_a_session_makes_each_groebner_run_once(name):
    # the tasks of a session share the ring's Koszul complexes, sequence
    # maps and conormal relations, and (no generators) + J is J itself,
    # so no two runs start from the same vectors; module_gb drops zero
    # vectors and sorts its seed, so neither tells two inputs apart
    text = (SESSIONS / name).read_text(encoding="utf-8")
    with module_gb_inputs() as seen:
        code, _ = run_session(parse_session(text), machine=True)
    assert code == 0
    inputs = [(p, tuple(sorted(tuple(sorted(v.items())) for v in vecs if v)))
              for vecs, p in seen]
    repeats = Counter(inputs)
    assert {k: n for k, n in repeats.items() if n > 1} == {}


@given(data=st.data())
def test_koszul_runs_over_a_monomial_quotient_match_plain_buchberger(data):
    # each run embeds the tracked Koszul columns beside J's basis at
    # every position: single terms dense at every position
    J = data.draw(monomial_ideals(P3))
    seq = data.draw(st.lists(homogeneous_polys(P3, max_deg=2), min_size=1, max_size=3))
    K = koszul_complex(seq, QuotientRing(J))
    # a zero differential makes no run (test_kernel_and_image_of_a_zero_map_needs_no_run)
    nonzero = [d for d in K.diffs if not d.is_zero()]
    assume(nonzero)
    d = data.draw(st.sampled_from(nonzero))
    with module_gb_inputs() as seen:
        d.kernel_and_image
    assert len(seen) == 1
    vecs, p = seen[0]
    assert sum(len(v) == 1 for v in vecs) >= len(J.gb) * d.target.rank
    assert tuple_module_gb(vecs, p) == oracles.reference_gb(vecs, p)


def sparse_exponents(nvars):
    """Exponent tuples that are mostly zero, so supports often differ."""
    return st.lists(st.sampled_from([0, 0, 0, 1, 2]), min_size=nvars, max_size=nvars).map(tuple)


@KEYS
@given(data=st.data())
def test_find_reducer_returns_the_first_dividing_lead(key, data):
    # the division scan cancels each term with the first element of its
    # position whose lead divides it, so even against a set that is no
    # Groebner basis the remainder is the reference's term for term
    nvars = data.draw(st.integers(1, 12))
    exps = sparse_exponents(nvars)
    terms = st.tuples(st.integers(0, 1), exps)
    vecs = st.dictionaries(terms, st.integers(1, 100), min_size=1, max_size=3)
    elems = data.draw(st.lists(vecs.map(lambda v: oracles.monic_vec(v, 101)), max_size=12))
    basis = tuple_reducer(elems, 101, nvars)
    queries = data.draw(st.lists(st.dictionaries(terms, st.integers(1, 100), max_size=3),
                                 max_size=6))
    for g in elems:
        pos, le = max(g, key=key)
        queries.append({(pos, mono_mul(le, data.draw(exps))): data.draw(st.integers(1, 100))})
    for v in queries:
        assert tuple_submodule_nf(v, basis) == oracles.reference_nf(v, elems, 101)


def exponent_pairs(nvars):
    return st.tuples(sparse_exponents(nvars), sparse_exponents(nvars))


@given(st.integers(0, 3), st.integers(1, 12).flatmap(exponent_pairs))
def test_cached_term_functions_are_transparent(pos, pair):
    e, g = pair
    t = (pos, e)
    packed = gbcore._pack(t)
    assert packed == gbcore._pack.__wrapped__(t)
    assert gbcore._unpack(packed, len(e)) == gbcore._unpack.__wrapped__(packed, len(e)) == t
    assert gbcore._layout(len(e)) == gbcore._layout.__wrapped__(len(e))
    # a multiple is one addition away, whatever the position
    assert gbcore._pack((pos, mono_mul(e, g))) - packed == gbcore._pack((0, g)) - gbcore._pack(
        (0, (0,) * len(e)))


def wide_exponents(nvars):
    """Exponent tuples with small and with field-sized entries."""
    entry = st.one_of(st.integers(0, 3), st.integers(0, 2 ** 40))
    return st.lists(entry, min_size=nvars, max_size=nvars).map(tuple)


@given(st.integers(1, 12).flatmap(
    lambda n: st.tuples(*[st.tuples(st.integers(0, 5), wide_exponents(n))] * 2,
                        wide_exponents(n))))
def test_packed_terms_agree_with_the_tuple_forms(terms):
    a, b, s = terms
    n = len(s)
    pa, pb = gbcore._pack(a), gbcore._pack(b)
    # the int order is the engine's term order
    assert (pa < pb) == (pot_key(a) < pot_key(b)) and (pa == pb) == (a == b)
    # unpacking gives the term back
    assert gbcore._unpack(pa, n) == a and gbcore._unpack(pb, n) == b
    # a product is the packed term plus the packed shift
    shift = gbcore._pack((0, s)) - gbcore._pack((0, (0,) * n))
    assert gbcore._unpack(pa + shift, n) == (a[0], mono_mul(a[1], s))
    assert pa + shift == gbcore._pack((a[0], mono_mul(a[1], s)))
    # divisibility: the guarded subtraction on the exponent fields, and
    # through the engine, a lead at b's position that divides b cancels it
    _, low, guard, _ = gbcore._layout(n)
    assert ((((pa & low) | guard) - (pb & low)) & guard == guard) == mono_divides(a[1], b[1])
    lead_at_b = {(b[0], a[1]): 1}
    gone = not tuple_submodule_nf({b: 1}, tuple_reducer([lead_at_b], 101))
    assert gone == mono_divides(a[1], b[1])


def packed_vectors(ring, rank):
    """Packed vectors of P^rank with terms of mixed degree, coefficients in 1..p-1."""
    exps = st.lists(st.integers(0, 3), min_size=ring.nvars, max_size=ring.nvars).map(tuple)
    terms = st.tuples(st.integers(0, rank - 1), exps)
    return st.dictionaries(terms, st.integers(1, ring.char - 1), max_size=10).map(oracles.packed)


@settings(max_examples=150)
@given(st.integers(1, 4), st.sampled_from([2, 3, 101]), st.integers(1, 4), st.data())
def test_polyvec_from_vec_matches_the_per_position_route(nvars, p, rank, data):
    P = PolyRing(nvars, p)
    v = data.draw(packed_vectors(P, rank))
    assert gbcore.polyvec_from_vec(P, rank, v) == oracles.polyvec_per_position(P, rank, v)
    # vector and polyvec_from_vec are inverse at one position
    k = data.draw(st.integers(0, rank - 1))
    f = oracles.polyvec_per_position(P, 1, data.draw(packed_vectors(P, 1)))[0]
    back = gbcore.polyvec_from_vec(P, rank, gbcore.vector(f, k))
    assert back[k] == f
    assert all(g.is_zero() for i, g in enumerate(back) if i != k)


@contextmanager
def narrow_fields():
    """8-bit packed fields, so the degree cap is 2^6 = 64."""
    caches = (gbcore._layout, gbcore._pack, gbcore._unpack)
    width = gbcore._W
    gbcore._W = 8
    for f in caches:
        f.cache_clear()
    try:
        yield 64
    finally:
        gbcore._W = width
        for f in caches:
            f.cache_clear()


@pytest.mark.parametrize("vecs", [
    # an S-vector term of degree 64: caught when normal_form pops it
    [{(0, (1, 0)): 1, (1, (0, 63)): 1}, {(0, (0, 1)): 1}],
    # a pair whose lcm has degree 80: caught when the lcm is packed
    [{(0, (40, 1, 0)): 1, (0, (0, 0, 41)): 1}, {(0, (1, 40, 0)): 1, (0, (0, 0, 41)): 1}],
    # an input term of degree 64: caught when it is packed
    [{(0, (32, 32)): 1}],
], ids=["popped", "lcm", "input"])
def test_degree_cap_refuses_terms_that_reach_it(vecs):
    with narrow_fields(), pytest.raises(UnsupportedInputError, match=E_DEGREE_CAP):
        tuple_module_gb(vecs, 101)


def test_two_single_terms_form_no_pair_and_build_no_lcm():
    # the lcm has degree 80, but the S-vector of two single terms is
    # zero, so the pair is never formed and its lcm never packed
    vecs = [{(0, (40, 1)): 1}, {(0, (1, 40)): 1}]
    with narrow_fields():
        assert tuple_module_gb(vecs, 101) == vecs


# Packed vectors leave the engine and come back: a composite map's
# entries and the products of the exponent proof are formed outside it,
# over the free ring, where the normal form against J has no basis to
# reduce by.  Each must still be refused at the cap, never kept wrapped.

def test_degree_cap_refuses_a_composite_of_composites():
    with narrow_fields() as cap:
        R = QuotientRing.free(P2)
        F0, F1, F2, F3 = (FreeModule(R, (t,)) for t in (0, 31, cap - 1, 2 * cap - 2))
        a = ModMap.from_rows(F1, F0, [[X**31]])
        b = ModMap.from_rows(F2, F1, [[X**(cap - 32)]])
        c = ModMap.from_rows(F3, F2, [[Y**(cap - 1)]])
        ab = a.compose(b)  # x^63, one below the cap
        assert ab.rows == ((X**(cap - 1),),)
        with pytest.raises(UnsupportedInputError, match=E_DEGREE_CAP):
            ab.compose(c)  # x^63 * y^63, degree 126 < 2^7: formed whole, then refused


@pytest.mark.parametrize("power", [40, 70], ids=["product", "factor"])
def test_degree_cap_refuses_the_exponent_proof_over_the_free_ring(power):
    # N = 0: x^40 * e_0 passes, and x^80 * e_0 reaches the cap on the
    # second step; x^70 is refused as soon as its shift is packed
    with narrow_fields():
        F = FreeModule(QuotientRing.free(P2), (0,))
        with pytest.raises(UnsupportedInputError, match=E_DEGREE_CAP):
            modules._kills_by_exponent(SubmoduleGB(F, []), [F.basis_vector(0)], X**power)


def test_degree_cap_comes_before_the_twist_check_of_a_column():
    # a packed x^70, made by one addition from checked parts, in a column
    # whose twists ask for degree 0: the cap is named, not the twist
    with narrow_fields():
        F = FreeModule(QuotientRing.free(P2), (0,))
        term = gbcore.pack(0, (40, 0)) + gbcore.pack(0, (30, 0)) - gbcore.pack(0, (0, 0))
        with pytest.raises(UnsupportedInputError, match=E_DEGREE_CAP):
            ModMap(F, F, [{term: 1}])


def test_degree_cap_refuses_a_matrix_entry_at_the_cap():
    with narrow_fields() as cap:
        R = QuotientRing.free(P2)
        source = FreeModule(R, (cap,))
        with pytest.raises(UnsupportedInputError, match=E_DEGREE_CAP):
            ModMap.from_rows(source, FreeModule(R, (0,)), [[X**cap]])


@given(rank=st.integers(1, 3), data=st.data())
def test_narrow_fields_below_the_cap_match_the_reference(rank, data):
    vecs = data.draw(st.lists(mixed_vectors(3, rank), min_size=1, max_size=5))
    with narrow_fields() as cap:
        # a power well into the 8-bit fields, with room for the lcms
        vecs.append({(rank - 1, (0, 0, cap - 24)): 1})
        assert tuple_module_gb(vecs, 101) == oracles.reference_gb(vecs, 101)


def test_factorization_example_spair_count(monkeypatch):
    """The number of S-pairs module_gb forms for one fixed input.

    Pair selection is deterministic, so the count is a regression
    oracle: a change to the pair criteria, or to which module bases the
    callers build, moves it, and the pin is updated only together with
    such a change.
    """
    count = 0
    spair = gbcore._spair

    def counted(*args):
        nonlocal count
        count += 1
        return spair(*args)

    monkeypatch.setattr(gbcore, "_spair", counted)
    assert verify_factorization_example(5).passed
    assert count == 54


def test_factorization_example_colon_steps(monkeypatch):
    """Every torsion check of one fixed input is answered by exponent.

    The positive-degree Koszul homology is killed by the ideal itself,
    so the exponent proof settles each check and the colon loop, the
    fallback, takes no step.
    """
    steps = 0
    colon = modules._colon_submodule

    def counted(*args):
        nonlocal steps
        steps += 1
        return colon(*args)

    monkeypatch.setattr(modules, "_colon_submodule", counted)
    assert verify_factorization_example(5).passed
    assert steps == 0


def test_equal_ideals_do_not_share_a_reducer():
    I = ideal(P2, [X**2, X * Y])
    J = ideal(P2, [X * Y, X**2])
    assert I == J
    f = X**2 * Y + Y**3
    assert I.normal_form(f) == J.normal_form(f) == Y**3
    assert I._reducer is not J._reducer
