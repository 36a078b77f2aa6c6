"""Polynomial arithmetic, the monomial order, and the text format."""

import pytest
from hypothesis import given, strategies as st

from levelbounds.errors import UsageError
from levelbounds.polys import PolyRing, drl_key, format_poly, parse_poly

import oracles

P2 = PolyRing(2, 101)
P3 = PolyRing(3, 101)
X, Y = P2.variables()


def all_monomials(nvars, max_deg):
    out = []
    for d in range(max_deg + 1):
        out.extend(oracles.monomials(nvars, d))
    return out


def polys(ring, max_deg=3):
    mons = all_monomials(ring.nvars, max_deg)
    return st.dictionaries(
        st.sampled_from(mons), st.integers(0, ring.char - 1), max_size=5
    ).map(ring.from_dict)


def test_ring_validation():
    with pytest.raises(UsageError):
        PolyRing(-1, 101)
    with pytest.raises(UsageError):
        PolyRing(2, 10)
    with pytest.raises(UsageError):
        P2.var(2)


def test_parse_examples():
    f = parse_poly("3*x1^2*x2 + 100*x3^3", P3)
    assert oracles.as_dict(f) == {(2, 1, 0): 3, (0, 0, 3): 100}
    g = parse_poly(" x1*x2 + 2*x2^2 ", P2)
    assert g == X * Y + (Y**2).scale(2)
    assert parse_poly("-x1 + x1", P2).is_zero()
    assert parse_poly("0", P2).is_zero()
    assert parse_poly("7", P2) == P2.const(7)


@pytest.mark.parametrize("bad", [
    "x9", "x1 +", "x1^", "x1 @ x2", "", "  ", "x1^-2", "x1 x2", "(x1)",
])
def test_parse_rejects(bad):
    with pytest.raises(UsageError):
        parse_poly(bad, P2)


@given(polys(P2))
def test_format_parse_roundtrip(f):
    assert parse_poly(format_poly(f), P2) == f


def test_format_conventions():
    assert format_poly(P2.zero()) == "0"
    assert format_poly(X) == "x1"
    assert format_poly(X.scale(-1)) == "100*x1"
    assert format_poly(P2.const(5)) == "5"
    assert format_poly(X**2 + Y) == "x1^2 + x2"


def test_arithmetic_examples():
    assert (X + Y) * (X - Y) == X**2 - Y**2
    assert X.scale(100) + X.scale(2) == X
    assert (X - X).is_zero()
    assert oracles.as_dict(X * Y) == {(1, 1): 1}
    assert (X + Y) ** 2 == X**2 + (X * Y).scale(2) + Y**2
    assert oracles.monic(X) == oracles.monic(X.scale(7))
    with pytest.raises(UsageError):
        X ** (-1)


def test_degree_and_homogeneity():
    assert P2.zero().degree() == -1
    assert (X**2 * Y).degree() == 3
    assert (X**2 + X * Y).is_homogeneous()
    assert not (X**2 + X).is_homogeneous()
    assert P2.zero().is_homogeneous()


def test_order_examples():
    # degrevlex in two variables: x^2 > xy > y^2, and degree wins first
    assert drl_key((2, 0)) > drl_key((1, 1))
    assert drl_key((1, 1)) > drl_key((0, 2))
    assert drl_key((1, 0)) < drl_key((0, 2))
    assert drl_key((1, 1)) == drl_key((1, 1))
    # the pair where degrevlex and deglex disagree: y^2 beats xz
    assert drl_key((1, 0, 1)) < drl_key((0, 2, 0))


mono2 = st.tuples(st.integers(0, 4), st.integers(0, 4))


@given(mono2, mono2, mono2)
def test_order_is_a_monomial_order(a, b, c):
    # total, antisymmetric, multiplicative, with 1 as least element
    ka, kb, kc = drl_key(a), drl_key(b), drl_key(c)
    assert (ka == kb) == (a == b)
    if ka > kb and kb > kc:
        assert ka > kc
    if ka > kb:
        shifted = tuple(u + v for u, v in zip(a, c)), tuple(u + v for u, v in zip(b, c))
        assert drl_key(shifted[0]) > drl_key(shifted[1])
    assert ka >= drl_key((0, 0))


@given(polys(P2), polys(P2), polys(P2))
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + P2.zero() == f
    assert f * P2.one() == f
    assert (f - f).is_zero()


@given(polys(P2))
def test_canonical_term_form(f):
    ks = [drl_key(e) for e, _ in f.terms]
    assert ks == sorted(ks, reverse=True)
    assert all(0 < c < 101 for _, c in f.terms)
    if not f.is_zero():
        assert f.leading_monomial() == f.terms[0][0]


@given(polys(P2), polys(P2))
def test_leading_term_is_multiplicative(f, g):
    if f.is_zero() or g.is_zero():
        assert (f * g).is_zero()
    else:
        lm = tuple(a + b for a, b in zip(f.leading_monomial(), g.leading_monomial()))
        assert (f * g).leading_monomial() == lm


@given(polys(P2), polys(P2))
def test_hash_is_kept_and_matches_the_value(f, g):
    copy = P2.from_dict(dict(f.terms))
    assert copy is not f and copy == f
    assert hash(f) == hash(f) == hash((f.ring, f.terms)) == hash(copy)
    if f == g:
        assert hash(f) == hash(g)
    for name in ("ring", "terms", "_hash"):
        with pytest.raises(AttributeError):
            setattr(f, name, None)
    assert hash(f) == hash((f.ring, f.terms))
