"""Acceptance gate: one test per advertised guarantee.

Run with -v to get a single pass/fail line per criterion.  Each test
restates its claim in the docstring and checks it end to end through
the public API, with the independent oracles from oracles.py wherever
a second route exists.
"""

import pytest

from levelbounds.complexes import hom_complex, koszul_complex, minimalize
from levelbounds.groebner import ideal, ideal_intersection
from levelbounds.invariants import bigheight_monomial, depth_ring, dims
from levelbounds.level import (check_torsion_dim, level_interval,
                               verify_factorization_example)
from levelbounds.polys import PolyRing
from levelbounds.rings import QuotientRing

import corpus
import oracles


def _meet(P):
    xs = P.variables()
    return ideal_intersection(ideal(P, [xs[0]]), ideal(P, list(xs[1:])))


def test_criterion_01_parameter_sequence_level_is_length_plus_one():
    """K(x1..xm) over k[x1..xn] has exact level m + 1 for all m <= n <= 4."""
    for n in range(1, 5):
        P = PolyRing(n, 101)
        xs = P.variables()
        R = QuotientRing.free(P)
        for m in range(1, n + 1):
            seq = list(xs[:m])
            rep = level_interval(koszul_complex(seq, R), I=ideal(P, seq))
            assert (rep.lower, rep.upper, rep.exact) == (m + 1, m + 1, True), \
                f"n={n} m={m}: got [{rep.lower},{rep.upper}]"


def test_criterion_02_lech_independent_sequences_reach_full_level():
    """Maximal-ideal generators of an Artinian quotient and a regular pair
    both get exact level 3, certified by free rank 3 of the conormal data."""
    P = PolyRing(2, 101)
    x, y = P.variables()
    RA = QuotientRing(ideal(P, [x**2, x * y, y**3]))
    for R, seq in ((RA, [x, y]), (QuotientRing.free(P), [x**2, y**2])):
        rep = level_interval(koszul_complex(seq, R), I=ideal(P, seq))
        assert (rep.lower, rep.upper, rep.exact) == (3, 3, True)
        franks = [c for c in rep.certificates if c.kind == "FRANK"]
        assert franks and franks[0].value == 3


@pytest.mark.parametrize("n", [3, 4, 5])
def test_criterion_03_torsion_dim_certificate_on_intersection_ideal(n):
    """On K(gens I) for I = (x1) meet (x2..xn), the dimension-gap
    certificate fires with value dim R - dim R/I + 1 = 2 and all torsion
    hypotheses verified."""
    P = PolyRing(n, 101)
    I = _meet(P)
    K = minimalize(koszul_complex(list(I.gens), QuotientRing.free(P)))
    cert = check_torsion_dim(K, I)
    assert cert is not None and cert.value == 2
    assert cert.evidence["dim_R"] - cert.evidence["dim_RmodI"] == 1
    assert all(t["power_torsion"] for t in cert.evidence["torsion_checks"])
    assert cert.evidence["torsion_generator"]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_criterion_04_split_union_family_invariants(n):
    """I = (x1) meet (x2..xn) in the free ring: dimension drops by exactly
    1 while bigheight is n - 1."""
    P = PolyRing(n, 101)
    I = _meet(P)
    R = QuotientRing.free(P)
    d_R, d_RI = dims(I, R)
    assert d_R - d_RI == 1
    assert bigheight_monomial(I, R) == n - 1


@pytest.mark.parametrize("n", [3, 4, 5])
def test_criterion_05_quotient_family_invariants(n):
    """Over R = k[x1..xn]/((x1) meet (x2..xn)) with I = (x2..xn): dimension
    drops by n - 2 while bigheight is 0."""
    P = PolyRing(n, 101)
    xs = P.variables()
    meet = _meet(P)
    RB = QuotientRing(meet)
    IB = ideal(P, list(xs[1:]))
    d_R, d_RI = dims(IB, RB)
    assert d_R - d_RI == n - 2
    assert bigheight_monomial(IB, RB) == 0


@pytest.mark.parametrize("n", [3, 4, 5])
def test_criterion_06_level_two_interval_avoids_bigheight_value(n):
    """level K(x1) = [2,2] exact even when measured against the
    intersection ideal, and no certificate carries the value
    bigheight + 1 = n."""
    P = PolyRing(n, 101)
    xs = P.variables()
    rep = level_interval(koszul_complex([xs[0]], QuotientRing.free(P)), I=_meet(P))
    assert (rep.lower, rep.upper, rep.exact) == (2, 2, True)
    assert all(c.value != n for c in rep.certificates)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_criterion_07_torsion_factorization_and_endomorphism_level(n):
    """The explicit chain-map factorization through torsion verifies for
    each n, and the endomorphism complex of K(x1) over the intersection
    quotient has exact level 2."""
    assert verify_factorization_example(n).passed
    P = PolyRing(n, 101)
    xs = P.variables()
    RB = QuotientRing(_meet(P))
    K = koszul_complex([xs[0]], RB)
    rep = level_interval(hom_complex(K, K), I=ideal(P, [xs[0]]))
    assert (rep.lower, rep.upper, rep.exact) == (2, 2, True)


def test_criterion_08_depth_matches_degreewise_oracle():
    """Koszul-homology depth equals the socle-and-nonzerodivisor oracle on
    the three reference quotients, with values 2, 1, 0."""
    P = PolyRing(2, 101)
    x, y = P.variables()
    cases = [([], 2), ([x * y], 1), ([x**2, x * y], 0)]
    for j_gens, want in cases:
        R = QuotientRing(ideal(P, j_gens)) if j_gens else QuotientRing.free(P)
        engine = depth_ring(R)
        oracle = oracles.depth_oracle(P, j_gens)
        assert engine == oracle == want, f"J={j_gens}: {engine} vs {oracle}"


def test_criterion_09_homology_matches_row_reduction_oracle_on_corpus():
    """For every complex in the randomized corpus and every homological
    degree, the Hilbert function of the Groebner-route homology, read
    from a presentation of the ambient subquotient, agrees with the row-reduction oracle on the raw
    differentials in degrees 0..6."""
    complexes = corpus.build_corpus()
    assert len(complexes) >= 20
    for idx, C in enumerate(complexes):
        for i in range(len(C.modules)):
            H = corpus.present(C.homology(i))
            for d in range(7):
                engine = oracles.module_piece_dim(H, d)
                oracle = oracles.homology_dim(C, i, d)
                assert engine == oracle, \
                    f"complex {idx}, H_{i}, degree {d}: {engine} vs {oracle}"


def test_criterion_10_no_interval_inversion_over_corpus():
    """Every corpus complex gets a well-ordered certified interval; the
    lower bound never exceeds the upper bound."""
    for idx, C in enumerate(corpus.build_corpus()):
        rep = level_interval(C)  # InternalInconsistencyError would fail here
        assert rep.lower <= rep.upper, f"complex {idx}: [{rep.lower},{rep.upper}]"
        assert rep.lower >= 0
