"""Level intervals and their certificates."""

import pytest
from hypothesis import given, settings, strategies as st

from levelbounds import complexes, groebner, linalg, modules, session
from levelbounds.cli import run_session
from levelbounds.complexes import ChainComplex, hom_complex, koszul_complex, minimalize
from levelbounds.errors import UsageError
from levelbounds.groebner import ideal, ideal_intersection
from levelbounds.level import (_homology_parts, _torsion_generator_witness, check_torsion_dim,
                               lb_frank_koszul, lb_gap, level_interval, trim_koszul_sequence,
                               ub_edim_koszul, ub_length, ub_koszul_trim,
                               verify_factorization_example)
from levelbounds.modules import FreeModule, ModMap, is_power_torsion
from levelbounds.polys import PolyRing, format_poly
from levelbounds.rings import QuotientRing

import corpus
import oracles

P1 = PolyRing(1, 101)
P2 = PolyRing(2, 101)
P3 = PolyRing(3, 101)
T = P1.var(0)
X, Y = P2.variables()
X1, X2, X3 = P3.variables()
R2 = QuotientRing.free(P2)
R3 = QuotientRing.free(P3)


def certmap(report):
    out = {}
    for c in report.certificates:
        out.setdefault(c.kind, c)
    return out


def test_regular_koszul_level():
    K = koszul_complex([X, Y], R2)
    rep = level_interval(K, I=ideal(P2, [X, Y]))
    assert (rep.lower, rep.upper, rep.exact) == (3, 3, True)
    cm = certmap(rep)
    assert cm["GAP"].value == 3 and cm["GAP"].evidence == {"a": 0, "b": 2}
    assert cm["TORSION_DIM"].value == 3
    assert cm["FRANK"].value == 3
    assert cm["LENGTH_UB"].value == 3
    assert cm["EDIM_UB"].value == 3
    assert cm["KOSZUL_TRIM"].value == 3
    d = rep.as_dict()
    assert d["exact"] is True
    sides = {c["kind"]: c["bound"] for c in d["certificates"]}
    assert sides["GAP"] == "lower" and sides["LENGTH_UB"] == "upper"


def test_lech_sequence_reaches_full_level():
    K = koszul_complex([X**2, Y**2], R2)
    rep = level_interval(K, I=ideal(P2, [X**2, Y**2]))
    assert (rep.lower, rep.upper, rep.exact) == (3, 3, True)
    assert certmap(rep)["FRANK"].value == 3
    assert certmap(rep)["GAP"].value == 3


def test_artinian_maximal_ideal_level():
    RA = QuotientRing(ideal(P2, [X**2, X * Y, Y**3]))
    K = koszul_complex([X, Y], RA)
    rep = level_interval(K, I=ideal(P2, [X, Y]))
    assert (rep.lower, rep.upper, rep.exact) == (3, 3, True)
    cm = certmap(rep)
    # the homology gap stalls at 2 here; frank is what closes the gap
    assert cm["GAP"].value == 2
    assert cm["FRANK"].value == 3
    assert cm["FRANK"].evidence["frank_conormal"] == 2


def test_truncated_variable_level():
    R1q = QuotientRing(ideal(P1, [T**2]))
    K = koszul_complex([T], R1q)
    rep = level_interval(K)
    assert (rep.lower, rep.upper, rep.exact) == (2, 2, True)
    cm = certmap(rep)
    assert cm["GAP"].value == 2 and cm["GAP"].evidence == {"a": 0, "b": 1}


def test_gap_certificate_cases():
    K = koszul_complex([X1], R3)
    cert = lb_gap(minimalize(K))
    assert cert.value == 2 and cert.evidence == {"a": 0, "b": 1}
    single = ChainComplex(R2, [FreeModule(R2, (0,))], [])
    assert lb_gap(minimalize(single)) is None
    with pytest.raises(UsageError):
        lb_gap(_nonminimal())


def ascending_gap(F):
    """(value, a, b) of the largest gap by the upward scan over every b, first b on ties."""
    best = None
    for b in range(1, F.hi + 1):
        if F.diffs[b - 1].is_zero():
            continue
        a = next((a for a in range(b - 1, -1, -1) if not F.homology(a).is_zero), None)
        if a is not None and (best is None or b - a + 1 > best[0]):
            best = (b - a + 1, a, b)
    return best


def test_gap_scan_matches_the_upward_scan_on_corpus():
    for C in corpus.build_corpus(8, seed=7):
        M = minimalize(C)
        cert = lb_gap(M)
        want = ascending_gap(M)
        got = None if cert is None else (cert.value, cert.evidence["a"], cert.evidence["b"])
        assert got == want


def test_gap_scan_stops_before_the_homology_no_larger_gap_needs():
    # Hom(K(x1..x4), K(x1..x4)) over k[x1..x5] is K on eight entries, with
    # H_0..H_4 nonzero: d_8 gives the gap 5 from a = 4, and below b = 4
    # no gap can reach 5, so H_1 and H_2 are never computed.  The copy
    # carries no sequence, so its own homology is read, not the trim's
    P5 = PolyRing(5, 101)
    R5 = QuotientRing.free(P5)
    K = koszul_complex(list(P5.variables()[:4]), R5)
    hom = hom_complex(K, K)
    H = ChainComplex(R5, hom.modules, hom.diffs)
    cert = lb_gap(H)
    assert (cert.value, cert.evidence) == (5, {"a": 4, "b": 8})
    assert 1 not in H._homology and 2 not in H._homology
    assert ascending_gap(H) == (5, 4, 8)


def _nonminimal():
    F = FreeModule(R2, (0,))
    return ChainComplex(R2, [F, F], [ModMap.from_rows(F, F, [[P2.one()]])])


def test_frank_certificate_values():
    assert lb_frank_koszul(koszul_complex([X, X * Y], R2)).value == 2
    assert lb_frank_koszul(koszul_complex([X**2, Y**2], R2)).value == 3
    cert = lb_frank_koszul(koszul_complex([X1], R3))
    assert cert.value == 2 and cert.evidence["seq"] == ["x1"]
    # the empty sequence has no d_1 and a zero conormal module
    assert lb_frank_koszul(koszul_complex([], R2)).evidence == {"frank_conormal": 0, "seq": []}


def test_frank_reads_the_kernel_that_homology_took(monkeypatch):
    # x1 lies in (x2, x1 + x2), so the homology is read off K(x2, x1 + x2):
    # two runs for its two differentials, one for FRANK's conormal
    # relations, the kernel of the full complex's d_1, and one for
    # FRANK's dual
    calls = []
    real = modules.relative_syzygies

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(modules, "relative_syzygies", counted)
    seq = [X, Y, X + Y]
    rep = level_interval(koszul_complex(seq, QuotientRing(ideal(P2, [X * Y]))),
                         I=ideal(P2, seq))
    assert len(calls) == 4
    assert certmap(rep)["FRANK"].evidence == {"frank_conormal": 2, "seq": ["x1", "x2", "x1 + x2"]}


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_split_hom_runs_only_the_first_differential():
    # family A's hom(K(x1..x4), K(x1..x4)) is K on eight entries (rank
    # 256); its homology is read off K(x1..x4), so of its own
    # differentials only d_1 runs, for FRANK's conormal relations
    P5 = PolyRing(5, 101)
    R5 = QuotientRing.free(P5)
    K = koszul_complex(list(P5.variables()[:4]), R5)
    H = hom_complex(K, K)
    rep = level_interval(H)
    assert list(H._diffs) == [1] and "kernel_and_image" in vars(H.diff(1))
    assert not H._homology
    assert list(_homology_parts(H)(4)) == [K.homology(0)]
    assert certmap(rep)["GAP"].evidence == {"a": 4, "b": 8}


def test_a_sequence_that_drops_nothing_is_its_own_base(monkeypatch):
    # the reader's parts of H_0 are K's own H_0, and one run on each of
    # d_1 and d_2 serves all: the trim, H_1 and FRANK read d_1's kernel,
    # made while the reader is set up, and no second complex is built
    P = PolyRing(2, 101)
    x, y = P.variables()
    K = koszul_complex([x, y], QuotientRing.free(P))
    runs = _count_calls(monkeypatch, modules, "relative_syzygies")
    built = _count_calls(monkeypatch, complexes.ChainComplex, "__init__")
    assert list(_homology_parts(K)(0)) == [K.homology(0)]
    rep = level_interval(K, I=ideal(P, [x, y]))
    assert (rep.lower, rep.upper) == (3, 3)
    assert len(runs) == 2 and not built
    assert set(K._homology) == {0, 1, 2}


# Koszul complexes with one redundant entry injected: a scaled copy of an
# entry, a combination of the entries, or a member of J, at any
# position, over a free or monomial quotient in 2 or 3 variables.
@st.composite
def _redundant_koszul(draw):
    nvars, p = draw(st.integers(2, 3)), draw(st.sampled_from([2, 3, 101]))
    P = PolyRing(nvars, p)

    def form(d):
        mons = draw(st.lists(st.sampled_from(list(oracles.monomials(nvars, d))),
                             min_size=1, max_size=2, unique=True))
        return P.from_dict({e: draw(st.integers(1, p - 1)) for e in mons})

    def monomial(d):
        return P.from_dict({draw(st.sampled_from(list(oracles.monomials(nvars, d)))): 1})

    J = draw(st.lists(st.sampled_from(list(oracles.monomials(nvars, 2))), max_size=2, unique=True))
    R = QuotientRing(ideal(P, [P.from_dict({e: 1}) for e in J]))
    base = draw(st.lists(st.integers(1, 2).map(form), min_size=1, max_size=2))
    def scalar(low):
        return P.from_dict({(0,) * nvars: draw(st.integers(low, p - 1))})

    kind = draw(st.sampled_from(["copy", "combination", "defining"]))
    y = scalar(1) * draw(st.sampled_from(base))
    if kind == "defining" and J:
        y = monomial(draw(st.integers(0, 1))) * P.from_dict({draw(st.sampled_from(J)): 1})
    elif kind == "combination":
        top = max(f.degree() for f in base) + draw(st.integers(0, 1))
        total = P.from_dict({})
        for f in base:
            total = total + scalar(0) * monomial(top - f.degree()) * f
        y = total if not total.is_zero() else y
    at = draw(st.integers(0, len(base)))
    seq = base[:at] + [y] + base[at:]
    I = draw(st.sampled_from([None, ideal(P, seq), ideal(P, list(P.variables()[:1]))]))
    return R, seq, I


@given(_redundant_koszul())
def test_split_homology_matches_the_direct_path(case):
    R, seq, I = case
    K = koszul_complex(seq, R)
    rep = level_interval(K, I=I)
    cm = certmap(rep)
    assert cm["KOSZUL_TRIM"].evidence["dropped_count"] >= 1
    # the copy carries no sequence, so lb_gap and check_torsion_dim read
    # its own homology
    direct = ChainComplex(R, K.modules, K.diffs)
    gap = lb_gap(direct)
    td = None if I is None else check_torsion_dim(direct, I)
    for kind, cert in (("GAP", gap), ("TORSION_DIM", td)):
        assert (cm[kind].as_dict() if kind in cm else None) == (cert and cert.as_dict())


# Sequences over a free, monomial or non-monomial quotient in 2 to 4
# variables, with up to two entries injected at any position: a scaled
# copy, a combination of the entries, a multiple of an entry plus a
# member of J, or a member of J itself, zero mod J.
@st.composite
def _trim_case(draw):
    nvars, p = draw(st.integers(2, 4)), draw(st.sampled_from([2, 3, 101]))
    P = PolyRing(nvars, p)

    def form(d, terms):
        mons = draw(st.lists(st.sampled_from(list(oracles.monomials(nvars, d))),
                             min_size=1, max_size=terms, unique=True))
        return P.from_dict({e: draw(st.integers(1, p - 1)) for e in mons})

    def monomial(d):
        return P.from_dict({draw(st.sampled_from(list(oracles.monomials(nvars, d)))): 1})

    quotient = draw(st.sampled_from(["free", "monomial", "forms"]))
    J = []
    if quotient == "monomial":
        J = draw(st.lists(st.integers(1, 2).map(monomial), min_size=1, max_size=2))
    elif quotient == "forms":
        J = draw(st.lists(st.integers(1, 2).map(lambda d: form(d, 3)), min_size=1, max_size=2))
    R = QuotientRing(ideal(P, J))
    seq = draw(st.lists(st.integers(1, 2).map(lambda d: form(d, 3)), min_size=1, max_size=3))
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["copy", "combination", "plus_member", "member"]))
        f = draw(st.sampled_from(seq))
        y = f.scale(draw(st.integers(1, p - 1)))
        top = max(g.degree() for g in seq) + draw(st.integers(0, 1))
        if kind == "combination":
            total = P.zero()
            for g in seq:
                total = total + monomial(top - g.degree()).scale(draw(st.integers(0, p - 1))) * g
            y = total if not total.is_zero() else y
        elif kind in ("plus_member", "member") and J:
            g = draw(st.sampled_from(J))
            member = monomial(top - g.degree()) * g if top >= g.degree() else g
            y = member if kind == "member" else monomial(member.degree() - f.degree()) * y + member
            y = y if not y.is_zero() else member
        seq.insert(draw(st.integers(0, len(seq))), y)
    return R, seq


@settings(max_examples=150)
@given(_trim_case())
def test_rank_trim_matches_the_membership_scan(case):
    R, seq = case
    assert trim_koszul_sequence(seq, R) == oracles.trim_by_membership(seq, R)


@settings(max_examples=80)
@given(_trim_case(), st.data())
def test_koszul_differentials_built_on_read_match_the_eager_build(case, data):
    # minimality and lb_gap's zero test read d_1 alone; every other d_k,
    # built in any order, is the dense oracle's matrix
    R, seq = case
    K = koszul_complex(seq, R)
    minimal = K.is_minimal()
    zero = K.diff(1).is_zero()
    assert set(K._diffs) == {1}
    eager = oracles.dense_koszul(seq, R)
    for k in data.draw(st.permutations(range(1, K.hi + 1))):
        assert K.diff(k).rows == tuple(map(tuple, eager[k - 1]))
    assert minimal == all(d.entries_in_maximal_ideal() for d in K.diffs)
    assert all(K.diff(b).is_zero() == zero for b in range(1, K.hi + 1))


def test_a_self_hom_level_task_builds_only_the_first_differential():
    s = session.parse_session(
        "[ring]\nvars = 5\n\n[seq S4]\nelems = x1, x2, x3, x4\n\n"
        "[task level]\ncomplex = hom(koszul(S4), koszul(S4))\n")
    code, out = run_session(s, machine=True)
    assert code == 0 and '"lower": 5' in out
    S4 = tuple(s.ring.poly_ring.variables()[:4])
    H = koszul_complex(S4 + S4, s.ring)
    assert H.hi == 8 and list(H._diffs) == [1]


def test_the_suite_torsion_trim_makes_the_run_h1_reads(monkeypatch):
    # the suite's K(x1x2, .., x1x4) over the free ring drops nothing: its
    # trim makes d_1's run and no ideal run, and H_1 reuses that kernel,
    # so the one further run it needs is d_2's
    P = PolyRing(4, 101)
    R = QuotientRing.free(P)
    K = koszul_complex(list(ideal_intersection(ideal(P, [P.var(0)]),
                                               ideal(P, list(P.variables()[1:]))).gens), R)
    runs = _count_calls(monkeypatch, modules, "relative_syzygies")
    ideal_runs = _count_calls(monkeypatch, groebner, "module_gb")
    assert trim_koszul_sequence(K.koszul, R) == K.koszul
    assert len(runs) == 1 and not ideal_runs
    assert runs[0][0] == K.diff(1).cols
    K.homology(1)
    assert len(runs) == 2 and runs[1][0] == K.diff(2).cols and not ideal_runs


def test_trim_refuses_what_the_koszul_complex_refuses():
    for seq in ([X + Y**2], [P2.zero()], [P2.one()], [X1], [X] * 11):
        with pytest.raises(UsageError) as trimmed:
            trim_koszul_sequence(seq, R2)
        with pytest.raises(UsageError) as built:
            koszul_complex(seq, R2)
        assert str(trimmed.value) == str(built.value)


def test_the_trim_reads_normal_forms_off_the_sequence_map(monkeypatch):
    # x1*x2 + x3^2 is not J-normal over k[x1,x2,x3]/(x1*x2); the kept
    # entries come from the row of the sequence map, reduced when that
    # map was built, so the trim makes no ideal normal form of its own
    R = QuotientRing(ideal(P3, [X1 * X2]))
    seq = [X1 * X2 + X3**2, X1]
    normal_forms = _count_calls(monkeypatch, groebner.IdealData, "normal_form")
    kept = trim_koszul_sequence(seq, R)
    assert kept == (X3**2, X1) and not normal_forms
    assert kept == complexes.sequence_map(seq, R).rows[0]


def test_the_factorization_example_reads_its_own_homology(monkeypatch):
    # K(x2..x5) drops nothing, so its positive homology is checked on K
    # itself: no trim is kept and no rank is taken, and the five runs
    # are the ring's intersection and d_1..d_4
    P = PolyRing(5, 101)
    xs = P.variables()
    runs = [_count_calls(monkeypatch, m, "relative_syzygies") for m in (groebner, modules)]
    ranks = _count_calls(monkeypatch, linalg, "rank")
    R = QuotientRing(ideal_intersection(ideal(P, [xs[0]]), ideal(P, list(xs[1:]))))
    assert verify_factorization_example(5, ring=R).passed
    assert sum(map(len, runs)) == 5 and not ranks
    assert [key for key in R._owned if key[0] == "trim"] == []


# Koszul complexes on one to three forms over a free or form quotient in
# 2 or 3 variables, with an ideal I: the sequence, a variable, the
# maximal ideal or a random form.
@st.composite
def _koszul_with_ideal(draw):
    nvars, p = draw(st.integers(2, 3)), draw(st.sampled_from([2, 3, 101]))
    P = PolyRing(nvars, p)

    def form(d):
        mons = draw(st.lists(st.sampled_from(list(oracles.monomials(nvars, d))),
                             min_size=1, max_size=3, unique=True))
        return P.from_dict({e: draw(st.integers(1, p - 1)) for e in mons})

    J = draw(st.lists(st.integers(1, 2).map(form), max_size=2))
    R = QuotientRing(ideal(P, J))
    seq = draw(st.lists(st.integers(1, 2).map(form), min_size=1, max_size=3))
    gens = draw(st.sampled_from([seq, list(P.variables()[:1]), list(P.variables()),
                                 [form(draw(st.integers(1, 2)))]]))
    return R, seq, ideal(P, gens)


@settings(max_examples=60)
@given(_koszul_with_ideal())
def test_koszul_torsion_dim_follows_its_bottom_homology(case):
    # Koszul homology is killed by (seq), so TORSION_DIM holds exactly
    # when H_0 = R/(seq) is nonzero and I-power torsion, and then every
    # positive-degree check it records passed
    R, seq, I = case
    K = koszul_complex(seq, R)
    td = check_torsion_dim(K, I)
    h0 = K.homology(0)
    assert (td is not None) == (not h0.is_zero and is_power_torsion(h0, I))
    if td is not None:
        assert all(c["power_torsion"] for c in td.evidence["torsion_checks"])


def test_upper_bound_certificates():
    K = koszul_complex([X, Y], R2)
    assert ub_length(minimalize(K)).value == 3
    assert ub_length(minimalize(ChainComplex(R2, [FreeModule(R2, (0,))], []))).value == 1
    Rx2 = QuotientRing(ideal(P2, [X**2]))
    assert ub_edim_koszul(Rx2).value == 3
    cert = ub_koszul_trim([X, Y, X * Y], R2)
    assert cert.value == 3 and cert.evidence["dropped_count"] == 1


def test_trim_sequences():
    fmt = lambda seq: [format_poly(f) for f in seq]
    assert fmt(trim_koszul_sequence([X, Y, X * Y], R2)) == ["x1", "x2"]
    assert fmt(trim_koszul_sequence([X * Y, X], R2)) == ["x1"]
    assert fmt(trim_koszul_sequence([X, X**2], R2)) == ["x1"]
    assert fmt(trim_koszul_sequence([X, Y], R2)) == ["x1", "x2"]
    RB = QuotientRing(ideal_intersection(ideal(P3, [X1]), ideal(P3, [X2, X3])))
    assert fmt(trim_koszul_sequence([X1, X1], RB)) == ["x1"]


def test_edim_bound_can_beat_length():
    Rx2 = QuotientRing(ideal(P2, [X**2]))
    K = koszul_complex([X, Y, X * Y], Rx2)
    rep = level_interval(K)
    cm = certmap(rep)
    assert cm["LENGTH_UB"].value == 4
    assert cm["EDIM_UB"].value == 3
    assert rep.upper == 3
    assert (rep.lower, rep.upper) == (3, 3)


def test_torsion_dim_certificate():
    meet = ideal_intersection(ideal(P3, [X1]), ideal(P3, [X2, X3]))
    K = minimalize(koszul_complex(list(meet.gens), R3))
    cert = check_torsion_dim(K, meet)
    assert cert is not None
    assert cert.value == 2
    assert cert.evidence["dim_R"] == 3 and cert.evidence["dim_RmodI"] == 2
    assert all(t["power_torsion"] for t in cert.evidence["torsion_checks"])
    assert cert.evidence["torsion_generator"]


def test_torsion_dim_hypotheses_can_fail():
    # H_0 = R itself is torsion free over a domain, so no certificate
    single = minimalize(ChainComplex(R3, [FreeModule(R3, (0,))], []))
    assert check_torsion_dim(single, ideal(P3, [X1])) is None
    with pytest.raises(UsageError):
        check_torsion_dim(_nonminimal(), ideal(P2, [X]))
    with pytest.raises(UsageError):
        K = minimalize(koszul_complex([X], R2))
        check_torsion_dim(K, ideal(P2, [P2.one()]))


def test_torsion_generator_witness_matches_span_route():
    # a minimal complex has D inside m*F_0, so the constant-term test
    # and membership in D + m*F_0 pick the same candidate
    for C in corpus.build_corpus():
        h0 = minimalize(C).homology(0)
        if h0.is_zero:
            continue
        P = C.ring.poly_ring
        v = P.variables()
        for I in (ideal(P, list(v)), ideal(P, [v[0]]), ideal(P, [v[-1] ** 2])):
            assert _torsion_generator_witness(h0, I) == oracles.torsion_generator_by_span(h0, I)


def test_torsion_dim_is_generator_independent():
    I1 = ideal(P2, [X, Y])
    I2 = ideal(P2, [X, Y, X + Y])
    K = minimalize(koszul_complex([X, Y], R2))
    c1 = check_torsion_dim(K, I1)
    c2 = check_torsion_dim(K, I2)
    assert c1.value == c2.value == 3


@pytest.mark.parametrize("n", [3, 4, 5])
def test_remark_interval_avoids_variable_count(n):
    P = PolyRing(n, 101)
    v = list(P.variables())
    meet = ideal_intersection(ideal(P, [v[0]]), ideal(P, v[1:]))
    K = koszul_complex([v[0]], QuotientRing.free(P))
    rep = level_interval(K, I=meet)
    assert (rep.lower, rep.upper, rep.exact) == (2, 2, True)
    assert all(c.value != n for c in rep.certificates)


def test_hom_self_interval():
    meet = ideal_intersection(ideal(P3, [X1]), ideal(P3, [X2, X3]))
    RB = QuotientRing(meet)
    K = koszul_complex([X1], RB)
    H = hom_complex(K, K)
    rep = level_interval(H, I=ideal(P3, [X1]))
    assert (rep.lower, rep.upper, rep.exact) == (2, 2, True)
    cm = certmap(rep)
    assert cm["GAP"].value == 2
    assert cm["KOSZUL_TRIM"].value == 2
    assert cm["KOSZUL_TRIM"].evidence["dropped_count"] == 1
    assert cm["LENGTH_UB"].value == 3


def test_zero_complex_interval():
    rep = level_interval(_nonminimal())
    assert (rep.lower, rep.upper, rep.exact) == (0, 0, True)
    kinds = [c.kind for c in rep.certificates]
    assert kinds == ["LENGTH_UB"]
    assert rep.certificates[0].value == 0


def test_psop_koszul_is_exact_at_one_more():
    for m in (1, 2, 3):
        K = koszul_complex([P3.var(i) for i in range(m)], R3)
        rep = level_interval(K, I=ideal(P3, [P3.var(i) for i in range(m)]))
        assert (rep.lower, rep.upper, rep.exact) == (m + 1, m + 1, True)


def test_factorization_example():
    names = ["alpha_chain_map", "beta_chain_map", "composite_is_x1", "positive_homology_torsion"]
    for n in range(3, 9):
        rep = verify_factorization_example(n)
        assert rep.passed and bool(rep)
        assert [(c["name"], c["ok"]) for c in rep.as_dict()["checks"]] == [
            (name, True) for name in names]
        free = verify_factorization_example(n, ring=QuotientRing.free(PolyRing(n, 101)))
        assert not free.passed
        failed = [c["name"] for c in free.as_dict()["checks"] if not c["ok"]]
        assert failed == ["beta_chain_map"]
    with pytest.raises(UsageError):
        verify_factorization_example(2)


def test_no_interval_inverts_on_corpus_sample():
    for C in corpus.build_corpus(8, seed=23):
        rep = level_interval(C)
        assert 0 <= rep.lower <= rep.upper


def test_report_dict_shape():
    K = koszul_complex([X], R2)
    d = level_interval(K, label="probe").as_dict()
    assert d["label"] == "probe"
    assert set(d) == {"label", "lower", "upper", "exact", "certificates"}
    for c in d["certificates"]:
        assert set(c) == {"kind", "value", "bound", "evidence"}
        assert c["bound"] in ("lower", "upper")
