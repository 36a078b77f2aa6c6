"""Ring and sequence invariants: depth, dimension, Lech independence, frank."""

import math

import pytest

from levelbounds import gbcore, groebner
from levelbounds.errors import UnsupportedInputError, UsageError
from levelbounds.gbcore import E_DEGREE_CAP
from levelbounds.groebner import ideal, ideal_intersection, zero_ideal
from levelbounds.invariants import (InvariantReport, bigheight_monomial, depth_ideal,
                                    depth_ring, dims, edim, frank_conormal,
                                    height_monomial, invariant_report, is_psop,
                                    lech_independent)
from levelbounds.polys import PolyRing, parse_poly
from levelbounds.rings import QuotientRing

import oracles

P2 = PolyRing(2, 101)
P3 = PolyRing(3, 101)
X, Y = P2.variables()
R2 = QuotientRing.free(P2)

DEPTH_TRIO = [
    ([], 2),
    ([X * Y], 1),
    ([X**2, X * Y], 0),
]


@pytest.mark.parametrize("jgens,want", DEPTH_TRIO)
def test_depth_ring_trio(jgens, want):
    R = QuotientRing(ideal(P2, jgens)) if jgens else R2
    assert depth_ring(R) == want
    assert oracles.depth_oracle(P2, jgens) == want


def test_depth_ideal_examples():
    m = ideal(P2, [X, Y])
    assert depth_ideal(m, R2) == 2
    Rxy = QuotientRing(ideal(P2, [X * Y]))
    assert depth_ideal(m, Rxy) == 1
    assert depth_ideal(ideal(P2, [X]), R2) == 1
    # an ideal expanding to the unit ideal has depth +infinity
    assert depth_ideal(ideal(P2, [P2.one()]), R2) == math.inf


def test_depth_is_infinite_only_for_the_unit_ideal():
    # the unit ideal reads as +infinity; any other refusal of I + J
    # propagates instead of passing for it
    with pytest.raises(UnsupportedInputError, match=E_DEGREE_CAP):
        depth_ideal(ideal(P2, [parse_poly(f"x1^{2 ** 62}", P2)]), R2)


def test_ring_computes_each_extension_once():
    R = QuotientRing(ideal(P2, [X * Y]))
    total = R.extension([X, Y])
    # equal generators, built afresh, give back the same object
    assert R.extension((P2.var(0), P2.var(1))) is total
    assert total.gb == ideal(P2, [X, Y]).gb
    # another generator tuple is another entry, for the same ideal
    swapped = R.extension([Y, X])
    assert swapped is not total and swapped == total
    assert R.extension([X * X]) == ideal(P2, [X * X, X * Y])


def test_invariant_report_runs_groebner_once_on_the_ideal_of_the_sequence(monkeypatch):
    # x^2 + y^2 is not J-normal over k[x,y]/(x^2): the conormal relations
    # and the parameter test must read R/I from the same (seq) + J entry
    R = QuotientRing(ideal(P2, [X**2]))
    runs = []
    real = gbcore.module_gb

    def spy(vectors, nvars, p):
        runs.append(vectors)
        return real(vectors, nvars, p)

    monkeypatch.setattr(gbcore, "module_gb", spy)
    monkeypatch.setattr(groebner, "module_gb", spy)
    report = invariant_report(R, seq=[X**2 + Y**2])
    assert (report.lech_independent, report.frank_conormal, report.is_psop) == (True, 1, True)
    # depth of R: m + J and the two Koszul kernels; the sequence map's
    # kernel; (seq) + J
    assert len(runs) == 5


def test_heights_refuse_the_unit_ideal_with_its_code():
    for height in (height_monomial, bigheight_monomial):
        with pytest.raises(UsageError, match="^E_UNIT_IDEAL:"):
            height(ideal(P2, [P2.one()]), R2)
    # over a quotient the refusal reads I + J, not I alone
    Rx = QuotientRing(ideal(P2, [X]))
    assert height_monomial(ideal(P2, [Y]), Rx) == 1


def test_depth_is_generator_independent():
    redundant = ideal(P2, [X, Y, X + Y, X**2])
    plain = ideal(P2, [X, Y])
    for jgens, _ in DEPTH_TRIO:
        R = QuotientRing(ideal(P2, jgens)) if jgens else R2
        assert depth_ideal(redundant, R) == depth_ideal(plain, R)


def test_depth_at_most_dim():
    for jgens, want in DEPTH_TRIO:
        R = QuotientRing(ideal(P2, jgens)) if jgens else R2
        assert want <= R.dim()


def test_dims_examples():
    x1, x2, x3 = P3.variables()
    meet = ideal_intersection(ideal(P3, [x1]), ideal(P3, [x2, x3]))
    R3 = QuotientRing.free(P3)
    assert dims(meet, R3) == (3, 2)
    RB = QuotientRing(meet)
    assert dims(ideal(P3, [x2, x3]), RB) == (2, 1)
    assert dims(ideal(P2, [X, Y]), R2) == (2, 0)
    with pytest.raises(UsageError):
        dims(ideal(P2, [P2.one()]), R2)


def test_edim_examples():
    assert edim(R2) == 2
    P3z = PolyRing(3, 101)
    z = P3z.var(2)
    assert edim(QuotientRing(ideal(P3z, [z]))) == 2
    assert edim(QuotientRing(ideal(P2, [X**2]))) == 2
    v = P3z.variables()
    assert edim(QuotientRing(ideal(P3z, [v[2], v[0] + v[1]]))) == 1


def test_lech_independent_examples():
    assert lech_independent([X**2, Y**2], R2)
    assert not lech_independent([X, X * Y], R2)
    Rart = QuotientRing(ideal(P2, [X**2, X * Y, Y**2]))
    assert lech_independent([X, Y], Rart)
    with pytest.raises(UsageError):
        lech_independent([P2.one()], R2)


def test_frank_conormal_examples():
    assert frank_conormal([X**2, Y**2], R2) == 2
    assert frank_conormal([X, X * Y], R2) == 1
    assert frank_conormal([X], R2) == 1
    assert frank_conormal([X, Y], R2) == 2


def test_lech_forces_full_frank():
    cases = [
        ([X**2, Y**2], R2),
        ([X, Y], R2),
        ([X, Y], QuotientRing(ideal(P2, [X**2, X * Y, Y**2]))),
        ([P3.var(0)], QuotientRing.free(P3)),
    ]
    for seq, R in cases:
        assert lech_independent(seq, R)
        assert frank_conormal(seq, R) == len(seq)


def test_is_psop_examples():
    assert is_psop([X, Y], R2)
    assert is_psop([X * Y], R2)
    assert not is_psop([X, X * Y], R2)
    with pytest.raises(UsageError):
        is_psop([X + P2.one()], R2)
    with pytest.raises(UsageError):
        is_psop([P2.zero()], R2)


def test_invariant_report_families():
    P4 = PolyRing(4, 101)
    v = list(P4.variables())
    meet = ideal_intersection(ideal(P4, [v[0]]), ideal(P4, v[1:]))
    repA = invariant_report(QuotientRing.free(P4), I=meet)
    assert isinstance(repA, InvariantReport)
    d = repA.as_dict()
    assert (d["dim_R"], d["dim_RmodI"]) == (4, 3)
    assert d["bigheight"] == 3 and d["height"] == 1
    assert d["depth_R"] == 4 and d["edim"] == 4
    repB = invariant_report(QuotientRing(meet), I=ideal(P4, v[1:]), seq=v[1:])
    b = repB.as_dict()
    assert (b["dim_R"], b["dim_RmodI"]) == (3, 1)
    assert b["bigheight"] == 0 and b["height"] == 0
    assert b["lech_independent"] is False
    assert b["frank_conormal"] == 0
    assert b["is_psop"] is False
    # height entries only make sense when both ideals are monomial
    repC = invariant_report(R2, I=ideal(P2, [X + Y]))
    c = repC.as_dict()
    assert c["height"] is None and c["bigheight"] is None


def test_report_serializes_infinite_depth():
    rep = invariant_report(R2)
    rep.depth_I = math.inf
    assert rep.as_dict()["depth_I"] == "infinity"
    with pytest.raises(UsageError):
        invariant_report(R2, I=ideal(P2, [P2.one()]))


def test_height_bounded_by_dimension_drop():
    x1, x2, x3 = P3.variables()
    meet = ideal_intersection(ideal(P3, [x1]), ideal(P3, [x2, x3]))
    R3 = QuotientRing.free(P3)
    dr, dq = dims(meet, R3)
    rep = invariant_report(R3, I=meet)
    assert rep.height is not None and rep.height <= dr - dq
    # strict on the quotient family: height 0 against a drop of n - 2
    RB = QuotientRing(meet)
    rest = ideal(P3, [x2, x3])
    drb, dqb = dims(rest, RB)
    repB = invariant_report(RB, I=rest)
    assert repB.height == 0 < drb - dqb
