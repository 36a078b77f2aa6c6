"""Byte-for-byte regression guard on the machine output of the CLI.

The files under tests/golden hold the --machine output of the README
quick-start commands, of the built-in suite at n = 3 and n = 5 (the
largest size the benchmark's suite workload runs), of a session
file that drives the Groebner core through its callers, of one whose
Koszul sequences repeat entries modulo the others, of one whose Hom of
a Koszul complex with itself sits at the sequence cap, and of the two
benchmark session files (read from perfbench/sessions, never written).  They are a
drift detector, not a correctness oracle: a change that alters any
certificate, evidence field or pivot order shows up here as a diff.
"""

from pathlib import Path

import pytest

from levelbounds.cli import main

GOLDEN = Path(__file__).parent / "golden"
SESSIONS = Path(__file__).parent.parent / "perfbench" / "sessions"

CASES = [
    ("paper_suite_n3.jsonl", ["paper-suite", "--n", "3"]),
    ("paper_suite_n5.jsonl", ["paper-suite", "--n", "5"]),
    ("koszul_free.jsonl", ["koszul", "--vars", "2", "--seq", "x1, x2"]),
    (
        "koszul_artinian.jsonl",
        ["koszul", "--vars", "2", "--quotient", "x1^2, x1*x2, x2^3", "--seq", "x1, x2"],
    ),
    (
        "invariants_meet.jsonl",
        ["invariants", "--vars", "3", "--quotient", "meet(x1; x2, x3)", "--ideal", "x2, x3"],
    ),
    ("groebner_session.jsonl", ["run", str(GOLDEN / "groebner_session.session")]),
    ("koszul_split.jsonl", ["run", str(GOLDEN / "koszul_split.session")]),
    ("koszul_self_hom.jsonl", ["run", str(GOLDEN / "koszul_self_hom.session")]),
    ("family_a.jsonl", ["run", str(SESSIONS / "family_a.session")]),
    ("family_b.jsonl", ["run", str(SESSIONS / "family_b.session")]),
]


@pytest.mark.parametrize("name, argv", CASES, ids=[c[0] for c in CASES])
def test_machine_output_matches_golden(name, argv, capsys):
    code = main(argv + ["--machine"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")
