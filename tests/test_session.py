"""Session file grammar: happy paths and diagnostic codes."""

import pytest

from levelbounds import session
from levelbounds.groebner import ideal, ideal_intersection, zero_ideal
from levelbounds.polys import E_CHAR_RANGE, PolyRing, format_poly
from levelbounds.session import (E_NOT_HOMOGENEOUS, E_NOT_PRIME, E_SYNTAX,
                                 E_UNKNOWN_NAME, SessionError,
                                 parse_ideal_expression, parse_sequence,
                                 parse_session)

P3 = PolyRing(3, 101)


def test_minimal_session():
    s = parse_session("[ring]\nvars = 2\n")
    assert s.char == 101 and s.ring.nvars == 2
    assert s.ring.defining.is_zero()
    assert s.ideals == {} and s.seqs == {} and s.tasks == []


FULL = """\
# comment at top

[ring]
p = 101
vars = 3
quotient = meet(A, B)   # trailing comment

[ideal A]
gens = x1

[ideal B]
gens = x2, x3

[seq S]
elems = x1

[task koszul-level]
seq = S
ideal = A

[task level]
complex = hom(koszul(S), koszul(S))

[task lech]
seq = S

[task factorization-example]
n = 3

[task paper-suite]
n = 4

[task invariants]
ideal = B
"""


def test_full_session():
    s = parse_session(FULL)
    x1, x2, x3 = P3.variables()
    assert s.ring.nvars == 3 and s.char == 101
    assert s.ideals["A"] == ideal(P3, [x1])
    assert s.ideals["B"] == ideal(P3, [x2, x3])
    expected = ideal_intersection(ideal(P3, [x1]), ideal(P3, [x2, x3]))
    assert s.ring.defining == expected
    assert [format_poly(f) for f in s.seqs["S"]] == ["x1"]
    kinds = [t.kind for t in s.tasks]
    assert kinds == ["koszul-level", "level", "lech",
                     "factorization-example", "paper-suite", "invariants"]
    kl, lv, lc, fe, ps, inv = s.tasks
    assert (kl.seq_name, kl.ideal_name) == ("S", "A")
    assert lv.complex_spec == ("hom", "S", "S")
    assert lc.seq_name == "S"
    assert fe.n == 3 and ps.n == 4
    assert inv.ideal_name == "B"


def test_quotient_may_reference_later_ideal():
    text = "[ring]\nvars = 2\nquotient = A\n\n[ideal A]\ngens = x1*x2\n"
    s = parse_session(text)
    x1, x2 = PolyRing(2, 101).variables()
    assert s.ring.defining == ideal(PolyRing(2, 101), [x1 * x2])


def test_meet_semicolon_separator():
    text = ("[ring]\nvars = 3\n\n[ideal M]\n"
            "gens = meet(x1*x2, x1*x3; x2)\n")
    s = parse_session(text)
    x1, x2, x3 = P3.variables()
    left = ideal(P3, [x1 * x2, x1 * x3])
    assert s.ideals["M"] == ideal_intersection(left, ideal(P3, [x2]))


@pytest.mark.parametrize("expr", ["meet(meet(x1; x2), x3)", "meet(x3, meet(x1; x2))"])
def test_nested_meet_semicolon_does_not_split_the_outer_meet(expr):
    # the ; inside the inner meet leaves the outer one to split on commas
    s = parse_session(f"[ring]\nvars = 3\n\n[ideal M]\ngens = {expr}\n")
    x1, x2, x3 = P3.variables()
    inner = ideal_intersection(ideal(P3, [x1]), ideal(P3, [x2]))
    assert s.ideals["M"] == ideal_intersection(inner, ideal(P3, [x3]))
    assert s.ideals["M"] == ideal(P3, [x1 * x2 * x3])


def test_meet_nesting_is_capped():
    def nested(depth):
        expr = "x1"
        for _ in range(depth):
            expr = f"meet({expr}; x2)"
        return f"[ring]\nvars = 3\n\n[ideal M]\ngens = {expr}\n"

    cap = session._MEET_DEPTH_CAP
    x1, x2, _ = P3.variables()
    assert parse_session(nested(cap)).ideals["M"] == ideal(P3, [x1 * x2])
    with pytest.raises(SessionError) as info:
        parse_session(nested(cap + 1))
    assert info.value.code == E_SYNTAX and info.value.line == 5


def test_name_starting_with_meet_is_a_reference():
    text = ("[ring]\nvars = 2\nquotient = meetA\n\n[ideal meetA]\ngens = x1\n\n"
            "[ideal M]\ngens = meet (meetA; x2)\n")
    s = parse_session(text)
    x1, x2 = PolyRing(2, 101).variables()
    assert s.ring.defining == ideal(PolyRing(2, 101), [x1])
    assert s.ideals["M"] == ideal(PolyRing(2, 101), [x1 * x2])


def test_variable_looking_names_parse_as_polynomials():
    # a reference spelled like x<digits> is always the polynomial,
    # even when an ideal of the same name exists
    text = ("[ring]\nvars = 2\n\n[ideal x1]\ngens = x2\n\n"
            "[ideal C]\ngens = meet(x1; x2)\n")
    s = parse_session(text)
    x1, x2 = PolyRing(2, 101).variables()
    assert s.ideals["C"] == ideal_intersection(
        ideal(PolyRing(2, 101), [x1]), ideal(PolyRing(2, 101), [x2]))


def test_zero_ideal_literal():
    s = parse_session("[ring]\nvars = 2\n\n[ideal Z]\ngens = 0\n")
    assert s.ideals["Z"] == zero_ideal(PolyRing(2, 101))


BAD_CASES = [
    ("[ideal A]\ngens = x1\n", E_SYNTAX, 1),              # no [ring]
    ("[ring]\np = 10\nvars = 2\n", E_NOT_PRIME, 2),
    ("[ring]\nvars = 2\n\n[ideal A]\ngens = x1 + x1^2\n", E_NOT_HOMOGENEOUS, 5),
    ("[ring]\nvars = 2\n\n[task koszul-level]\nseq = S\n", E_UNKNOWN_NAME, 5),
    ("[ring]\nvars = 2\n\n[task invariants]\nideal = A\n", E_UNKNOWN_NAME, 5),
    ("vars = 2\n", E_SYNTAX, 1),                           # before any section
    ("[bogus]\n", E_SYNTAX, 1),
    ("[ring]\nvars = 2\nvars = 3\n", E_SYNTAX, 3),         # duplicate key
    ("[ring]\nvars = 2\n\n[ideal A]\ngens = x1\n\n[ideal A]\ngens = x2\n",
     E_SYNTAX, 7),
    ("[ring]\nvars = 2\nflavor = mild\n", E_SYNTAX, 3),    # unknown ring key
    ("[ring]\np = 101\n", E_SYNTAX, 1),                    # missing vars
    ("[ring]\nvars = 0\n", E_SYNTAX, 2),
    ("[ring]\nvars = two\n", E_SYNTAX, 2),
    ("[ring]\nvars = 2\nquotient = x1, x2, 1\n", E_SYNTAX, 3),  # unit quotient
    ("[ring]\nvars = 2\n\n[task bake-bread]\n", E_SYNTAX, 4),
    ("[ring]\nvars = 2\n\n[task lech]\nn = 3\n", E_SYNTAX, 5),  # key not allowed
    ("[ring]\nvars = 2\n\n[task lech]\n", E_SYNTAX, 4),    # missing seq
    ("[ring]\nvars = 2\n\n[task level]\nideal = A\n", E_UNKNOWN_NAME, 5),
    ("[ring]\nvars = 2\n\n[task paper-suite]\n", E_SYNTAX, 4),  # missing n
    ("[ring]\nvars = 2\n\n[seq S]\nelems = koszul(x1)\n", E_SYNTAX, 5),
    ("[ring]\nvars = 2\n\n[ideal A]\ngens = x1,,x2\n", E_SYNTAX, 5),
    ("[ring]\nvars = 2\n\n[ideal A]\ngens = meet x1, x2\n", E_SYNTAX, 5),
    ("[ring]\nvars = 2\n\n[ideal A]\ngens = meet(x1)\n", E_SYNTAX, 5),
    ("[ring]\nvars = 2\n\n[ideal A]\n", E_SYNTAX, 4),      # ideal needs gens
    ("[ring]\nvars = 2\n\n[ideal]\ngens = x1\n", E_SYNTAX, 4),  # nameless ideal
    ("[ring oops]\nvars = 2\n", E_SYNTAX, 1),
    ("[ring]\nvars = 2\n[ring]\nvars = 2\n", E_SYNTAX, 3),
    ("[ring]\nvars = 2\n\n[task level]\ncomplex = cone(S)\n", E_SYNTAX, 5),
]


@pytest.mark.parametrize("text,code,line", BAD_CASES)
def test_diagnostics(text, code, line):
    with pytest.raises(SessionError) as info:
        parse_session(text)
    assert info.value.code == code
    assert info.value.line == line
    assert f"(line {line}," in str(info.value)


@pytest.mark.parametrize("p", [2**31, 4294967311, 2**61 - 1])
def test_characteristic_out_of_range(p):
    # 2^61 - 1 is prime: the range check must come before trial division
    with pytest.raises(SessionError) as info:
        parse_session(f"[ring]\nvars = 2\np = {p}\n")
    assert info.value.code == E_CHAR_RANGE and info.value.line == 3


def test_largest_characteristic_is_accepted():
    assert parse_session("[ring]\nvars = 2\np = 2147483647\n").char == 2**31 - 1


def test_unknown_seq_in_complex_expr():
    text = "[ring]\nvars = 2\n\n[task level]\ncomplex = koszul(Q)\n"
    with pytest.raises(SessionError) as info:
        parse_session(text)
    assert info.value.code == E_UNKNOWN_NAME and info.value.line == 5


def test_inline_wrappers_omit_position():
    x1, x2 = PolyRing(2, 101).variables()
    P = PolyRing(2, 101)
    assert parse_ideal_expression(P, "x1, x2") == ideal(P, [x1, x2])
    assert parse_sequence(P, "x1*x2") == (x1 * x2,)
    with pytest.raises(SessionError) as info:
        parse_ideal_expression(P, "MYSTERY")
    assert info.value.code == E_UNKNOWN_NAME
    assert "(line" not in str(info.value)
    with pytest.raises(SessionError) as info:
        parse_sequence(P, "x1 + x1^2")
    assert info.value.code == E_NOT_HOMOGENEOUS
    assert "(line" not in str(info.value)


def test_parse_sequence_list():
    P2 = PolyRing(2, 101)
    x1, x2 = P2.variables()
    assert parse_sequence(P2, "x1, x2^2, x1*x2") == (x1, x2**2, x1 * x2)
    with pytest.raises(SessionError) as info:
        parse_sequence(P2, "")
    assert info.value.code == E_SYNTAX


def test_error_column_points_past_equals():
    with pytest.raises(SessionError) as info:
        parse_session("[ring]\np = 10\nvars = 2\n")
    assert info.value.col == 4
