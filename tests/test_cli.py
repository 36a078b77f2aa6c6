"""Command line behavior: exit codes, output schema, determinism."""

import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations_with_replacement

import pytest
from hypothesis import example, given, settings, strategies as st

from levelbounds import cli, modules, session, suite
from levelbounds.cli import SCHEMA, main
from levelbounds.errors import InternalInconsistencyError

SESSION = """\
[ring]
vars = 3
quotient = meet(A, B)

[ideal A]
gens = x1

[ideal B]
gens = x2, x3

[seq S]
elems = x1

[task invariants]
ideal = A

[task koszul-level]
seq = S
ideal = A

[task level]
complex = hom(koszul(S), koszul(S))

[task lech]
seq = S
"""


@pytest.fixture
def session_file(tmp_path):
    f = tmp_path / "probe.session"
    f.write_text(SESSION)
    return str(f)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_human_output(session_file, capsys):
    code, out, err = run_cli(capsys, ["run", session_file])
    assert code == 0 and err == ""
    assert "== task 1: invariants ==" in out
    assert "== task 4: lech ==" in out
    # x1 is a zerodivisor modulo the intersection ideal
    assert "lech S: dependent" in out
    assert "level hom(koszul(S),koszul(S)): [2, 2] exact" in out


def test_run_machine_schema(session_file, capsys):
    code, out, _ = run_cli(capsys, ["run", session_file, "--machine"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    for i, line in enumerate(lines):
        rec = json.loads(line)
        assert set(rec) == {"schema", "index", "task", "ok", "result"}
        assert rec["schema"] == SCHEMA
        assert rec["index"] == i and rec["ok"] is True
        # sorted-keys canonical form: decoding and re-encoding is identity
        assert line == json.dumps(rec, sort_keys=True)
    assert json.loads(lines[3])["result"]["lech_independent"] is False


def test_machine_output_is_deterministic(session_file, capsys):
    _, first, _ = run_cli(capsys, ["run", session_file, "--machine"])
    _, second, _ = run_cli(capsys, ["run", session_file, "--machine"])
    assert first == second
    # set iteration order must not leak into the bytes
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "levelbounds.cli", "run", session_file, "--machine"],
            capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 0
        assert proc.stdout == first


def test_parallel_flag_is_usage_error(session_file, capsys):
    with pytest.raises(SystemExit) as info:
        main(["run", session_file, "--parallel"])
    assert info.value.code == 2


def _inverted(*args, **kwargs):
    raise InternalInconsistencyError("lower bound 3 exceeds upper bound 2")


def test_interval_inversion_exits_three(session_file, monkeypatch, capsys):
    monkeypatch.setattr(suite, "level_interval", _inverted)
    monkeypatch.setattr(cli, "level_interval", _inverted)
    code, _, err = run_cli(capsys, ["paper-suite", "--n", "3"])
    assert code == 3 and err.startswith("internal inconsistency:")
    code, _, err = run_cli(capsys, ["run", session_file, "--machine"])
    assert code == 3 and err.startswith("internal inconsistency:")


def test_failing_task_exits_one(tmp_path, capsys):
    f = tmp_path / "bad.session"
    f.write_text("[ring]\nvars = 2\n\n[task factorization-example]\nn = 2\n")
    code, out, _ = run_cli(capsys, ["run", str(f), "--machine"])
    assert code == 1
    rec = json.loads(out.strip())
    assert rec["ok"] is False and "error" in rec["result"]


def test_missing_file_exits_two(capsys):
    code, _, err = run_cli(capsys, ["run", "/nonexistent/path.session"])
    assert code == 2 and err.startswith("error:")


def test_file_that_is_not_utf8_exits_two_with_position(tmp_path, capsys):
    f = tmp_path / "latin1.session"
    f.write_bytes(b"[ring]\nvars = 2\nquotient = x1 \xff\n")
    code, out, err = run_cli(capsys, ["run", str(f)])
    assert code == 2 and out == ""
    assert err.startswith("error: E_SYNTAX:") and "(line 3, column 15)" in err


def test_bad_inline_sequence_exits_two(capsys):
    code, _, err = run_cli(capsys, ["koszul", "--vars", "2", "--seq", "x1 + x1^2"])
    assert code == 2 and "E_NOT_HOMOGENEOUS" in err


def test_composite_char_exits_two(capsys):
    for argv in (["koszul", "--vars", "2", "--seq", "x1", "--char", "10"],
                 ["paper-suite", "--n", "3", "--char", "4"]):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == "" and err.startswith("error: E_NOT_PRIME:")


@pytest.mark.parametrize("argv", [
    ["invariants", "--vars", "0"],
    ["invariants", "--vars", "-1"],
    ["koszul", "--vars", "2", "--seq", ""],
    ["invariants", "--vars", "2", "--ideal", ""],
    ["invariants", "--vars", "2", "--seq", " "],
])
def test_refused_argument_exits_two_with_syntax_code(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == "" and err.startswith("error: E_SYNTAX:")


@pytest.fixture
def int_digit_limit():
    # the interpreter's default limit, whatever the environment sets
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


LONG = "1" * 5000


@pytest.mark.parametrize("poly", [f"{LONG}*x1", f"x{LONG}", f"x1^{LONG}"],
                         ids=["coefficient", "variable-index", "exponent"])
def test_integer_literal_past_the_digit_limit_exits_two_with_syntax_code(
        tmp_path, capsys, int_digit_limit, poly):
    # int() refuses a literal of more than 4,300 digits with ValueError
    code, out, err = run_cli(capsys, ["koszul", "--vars", "2", "--seq", poly])
    assert code == 2 and out == "" and err.startswith("error: E_SYNTAX:")
    f = tmp_path / "long.session"
    f.write_text(f"[ring]\nvars = 2\n\n[seq S]\nelems = {poly}\n\n[task koszul-level]\nseq = S\n")
    code, out, err = run_cli(capsys, ["run", str(f)])
    assert code == 2 and out == "" and err.startswith("error: E_SYNTAX:") and "(line 5," in err


def test_large_char_exits_two_with_range_code(capsys):
    code, out, err = run_cli(
        capsys, ["koszul", "--vars", "2", "--seq", "x1", "--char", "4294967311"]
    )
    assert code == 2 and out == "" and "E_CHAR_RANGE" in err


def test_large_char_in_session_file_exits_two(tmp_path, capsys):
    path = tmp_path / "big.session"
    path.write_text("[ring]\np = 4294967311\nvars = 2\n\n[seq S]\nelems = x1\n\n"
                    "[task koszul-level]\nseq = S\n")
    code, out, err = run_cli(capsys, ["run", str(path)])
    assert code == 2 and out == "" and "E_CHAR_RANGE" in err and "(line 2," in err


def test_too_many_variables_exit_two_with_cap_code(capsys):
    quotient = ", ".join(f"x{i}" for i in range(1, 18))
    code, out, err = run_cli(capsys, ["invariants", "--vars", "17", "--quotient", quotient])
    assert code == 2 and out == "" and "E_VAR_CAP" in err


def test_koszul_on_eleven_elements_exits_two_with_cap_code(capsys):
    # the depth of the free ring needs the Koszul complex on all 11
    # variables, of rank 2^11, which is refused before it is built
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["invariants", "--vars", "11"])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and "E_VAR_CAP" in err and "Koszul" in err


def test_hom_of_two_nine_element_koszul_complexes_fails_with_cap_code(tmp_path, capsys):
    # each Koszul complex has rank 2^9, within its own cap, but their
    # Hom is the Koszul complex on all 18 elements, refused before any
    # of it is built
    elems = ", ".join(f"x{i}" for i in range(1, 10))
    f = tmp_path / "hom.session"
    f.write_text(f"[ring]\nvars = 9\n\n[seq S]\nelems = {elems}\n\n"
                 "[task level]\ncomplex = hom(koszul(S), koszul(S))\n")
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, ["run", str(f), "--machine"])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    rec = json.loads(out.strip())
    assert rec["ok"] is False and "E_VAR_CAP" in rec["result"]["error"]


def test_factorization_example_past_the_koszul_cap_fails_alone(tmp_path, capsys):
    # K(x2..xn) has n - 1 elements; n = 100000 is refused before the
    # ring on n variables is built, so it costs neither time nor memory.
    # The memory-limited child runs first: a regression fails there, not
    # in this process.
    f = tmp_path / "big.session"
    f.write_text("[ring]\nvars = 2\n\n[task factorization-example]\nn = 3\n\n"
                 "[task factorization-example]\nn = 100000\n")

    def limit_memory():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    proc = subprocess.run(
        [sys.executable, "-m", "levelbounds.cli", "run", str(f), "--machine"],
        capture_output=True, text=True, preexec_fn=limit_memory, timeout=30,
    )
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    small, big = map(json.loads, proc.stdout.splitlines())
    assert small["ok"] is True and big["ok"] is False
    assert big["result"]["error"] == (
        "E_VAR_CAP: Koszul complexes capped at 10 elements (rank 2^10), got 99999")
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, ["run", str(f), "--machine"])
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == proc.stdout


def test_nested_meet_quotient(capsys):
    code, out, err = run_cli(
        capsys, ["invariants", "--vars", "3", "--quotient", "meet(meet(x1; x2), x3)"]
    )
    assert code == 0 and err == ""
    assert "  dim_R = 2" in out


def test_deeply_nested_meet_exits_two_with_syntax_code(tmp_path, capsys):
    # the parser recurses once per level; a nesting far past the cap is
    # refused before any intersection, not left to exhaust the stack
    quotient = "x1"
    for _ in range(1300):
        quotient = f"meet({quotient}; x2)"
    f = tmp_path / "deep.session"
    f.write_text(f"[ring]\nvars = 2\nquotient = {quotient}\n\n[task invariants]\n")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["run", str(f)])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: E_SYNTAX:") and "nested" in err and "(line 3," in err


def test_variable_count_over_the_cap_exits_two_with_cap_code(tmp_path, capsys):
    over = session._VARS_CAP + 1
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["koszul", "--vars", str(over), "--seq", "x1"])
    assert code == 2 and out == "" and err.startswith("error: E_VAR_CAP:")
    f = tmp_path / "wide.session"
    f.write_text("[ring]\nvars = 100000\n\n[seq S]\nelems = x1\n\n"
                 "[task koszul-level]\nseq = S\n")
    code, out, err = run_cli(capsys, ["run", str(f)])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and err.startswith("error: E_VAR_CAP:")
    assert "(line 2," in err
    # the cap itself is accepted
    code, out, _ = run_cli(capsys, ["koszul", "--vars", str(session._VARS_CAP), "--seq", "x1"])
    assert code == 0 and out.startswith("level koszul(x1): [2, 2] exact")


def test_unit_quotient_exits_two(capsys):
    code, _, err = run_cli(
        capsys, ["invariants", "--vars", "2", "--quotient", "x1, x2, 1"]
    )
    assert code == 2 and "unit ideal" in err


def test_unit_ideal_exits_two_with_one_code(tmp_path, capsys):
    # I + J = (1) makes R/I zero: both verbs refuse it with one code
    for argv in (["koszul", "--vars", "2", "--seq", "x1", "--ideal", "1"],
                 ["invariants", "--vars", "2", "--ideal", "1"]):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == "" and err.startswith("error: E_UNIT_IDEAL:")
    # in a session file each such task fails alone, with the code in its error
    f = tmp_path / "unit.session"
    f.write_text("[ring]\nvars = 2\n\n[ideal U]\ngens = 1\n\n[seq S]\nelems = x1\n\n"
                 "[task koszul-level]\nseq = S\nideal = U\n\n[task invariants]\nideal = U\n\n"
                 "[task koszul-level]\nseq = S\n")
    code, out, _ = run_cli(capsys, ["run", str(f), "--machine"])
    records = [json.loads(line) for line in out.splitlines()]
    assert code == 1 and [rec["ok"] for rec in records] == [False, False, True]
    assert all(rec["result"]["error"].startswith("E_UNIT_IDEAL:") for rec in records[:2])


def test_no_verb_is_argparse_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_paper_suite_passes(capsys):
    code, out, _ = run_cli(capsys, ["paper-suite", "--n", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines)
    assert lines[-1].startswith("PASS suite n=3 p=101:")


def test_paper_suite_machine(capsys):
    code, out, _ = run_cli(capsys, ["paper-suite", "--n", "3", "--machine"])
    assert code == 0
    rec = json.loads(out)
    assert set(rec) == {"schema", "task", "result"}
    assert rec["task"] == "paper-suite"
    assert rec["result"]["passed"] is True
    assert all(c["ok"] for c in rec["result"]["checks"])


def test_paper_suite_bad_n_exits_two(capsys):
    code, _, err = run_cli(capsys, ["paper-suite", "--n", "2"])
    assert code == 2 and "3 <= n <= 6" in err


def test_n_out_of_range_exits_two_with_one_code(tmp_path, capsys):
    code, out, err = run_cli(capsys, ["paper-suite", "--n", "7"])
    assert code == 2 and out == "" and err.startswith("error: E_N_RANGE:")
    # in a session file each such task fails alone, with the code in its error
    f = tmp_path / "range.session"
    f.write_text("[ring]\nvars = 2\n\n[task factorization-example]\nn = 2\n\n"
                 "[task paper-suite]\nn = 7\n\n[task factorization-example]\nn = 3\n")
    code, out, _ = run_cli(capsys, ["run", str(f), "--machine"])
    records = [json.loads(line) for line in out.splitlines()]
    assert code == 1 and [rec["ok"] for rec in records] == [False, False, True]
    assert all(rec["result"]["error"].startswith("E_N_RANGE:") for rec in records[:2])


def test_koszul_verb(capsys):
    code, out, _ = run_cli(capsys, ["koszul", "--vars", "2", "--seq", "x1, x2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "level koszul(x1, x2): [3, 3] exact"
    assert any("FRANK" in line and "lower" in line for line in lines)
    assert any("LENGTH_UB" in line and "upper" in line for line in lines)


def test_koszul_verb_machine(capsys):
    code, out, _ = run_cli(
        capsys, ["koszul", "--vars", "2", "--quotient", "x1^2", "--seq", "x1", "--machine"]
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["task"] == "koszul"
    assert (rec["result"]["lower"], rec["result"]["upper"]) == (2, 2)


@pytest.mark.parametrize("nvars,quotient,seq", [
    ("2", "x1", "x1, x2"),
    ("2", "x1^2", "x1^2, x2"),
    ("3", "x1*x2", "x1*x2, x3"),
])
def test_koszul_on_an_entry_that_vanishes_in_the_ring(capsys, nvars, quotient, seq):
    code, out, err = run_cli(
        capsys, ["koszul", "--vars", nvars, "--quotient", quotient, "--seq", seq]
    )
    assert code == 0 and err == ""
    assert out.splitlines()[0] == f"level koszul({seq}): [2, 2] exact"


def test_session_tasks_on_a_sequence_with_a_zero_entry(tmp_path, capsys):
    # the tasks run on the sequences of a file; a zero entry is refused
    # where its sequence is parsed, before any task runs
    f = tmp_path / "zero.session"
    head = "[ring]\nvars = 2\nquotient = x1\n\n[seq S]\nelems = x1, x2\n\n"
    tasks = "[task koszul-level]\nseq = S\n\n[task level]\ncomplex = koszul(S)\n"
    f.write_text(head + tasks)
    code, out, _ = run_cli(capsys, ["run", str(f)])
    assert code == 0
    assert out.count("level koszul(S): [2, 2] exact") == 2
    f.write_text(head + "[seq Z]\nelems = 0, x1\n\n" + tasks + "\n[task lech]\nseq = Z\n")
    code, out, err = run_cli(capsys, ["run", str(f)])
    assert code == 2 and out == ""
    assert err.startswith("error: E_CONSTANT_ENTRY:") and "(line 9," in err


@pytest.mark.parametrize("seq", ["x1, 0", "0", "x1, 3", "x2^0"])
def test_constant_sequence_entry_exits_two_with_one_code(tmp_path, capsys, seq):
    for verb in ("koszul", "invariants"):
        code, out, err = run_cli(capsys, [verb, "--vars", "2", "--seq", seq])
        assert code == 2 and out == "" and err.startswith("error: E_CONSTANT_ENTRY:")
    f = tmp_path / "constant.session"
    f.write_text(f"[ring]\nvars = 2\n\n[seq S]\nelems = {seq}\n\n[task koszul-level]\nseq = S\n")
    code, out, err = run_cli(capsys, ["run", str(f)])
    assert code == 2 and out == ""
    assert err.startswith("error: E_CONSTANT_ENTRY:") and "(line 5," in err


def test_degree_at_the_cap_exits_two_with_cap_code(tmp_path, capsys):
    # a packed term holds its degree in a 64-bit field, capped at 2^62
    big = f"x1^{2 ** 62}"
    code, out, err = run_cli(capsys, ["koszul", "--vars", "2", "--seq", big])
    assert code == 2 and out == "" and err.startswith("error: E_DEGREE_CAP:")
    # in a session file the task fails alone, with the code in its error
    f = tmp_path / "deep.session"
    f.write_text(f"[ring]\nvars = 2\n\n[seq B]\nelems = {big}\n\n[seq S]\nelems = x1\n\n"
                 "[task koszul-level]\nseq = B\n\n[task koszul-level]\nseq = S\n")
    code, out, _ = run_cli(capsys, ["run", str(f), "--machine"])
    records = [json.loads(line) for line in out.splitlines()]
    assert code == 1 and [rec["ok"] for rec in records] == [False, True]
    assert records[0]["result"]["error"].startswith("E_DEGREE_CAP:")
    # one below the cap is accepted
    code, out, _ = run_cli(capsys, ["koszul", "--vars", "2", "--seq", f"x1^{2 ** 62 - 1}"])
    assert code == 0 and out.startswith(f"level koszul(x1^{2 ** 62 - 1}): [2, 2] exact")


def test_invariants_verb(capsys):
    code, out, _ = run_cli(
        capsys, ["invariants", "--vars", "2", "--ideal", "x1, x2"]
    )
    assert code == 0
    assert out.startswith("invariants:")
    assert "  dim_R = 2" in out
    assert "  depth_I = 2" in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "levelbounds.cli", "paper-suite", "--n", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines()[-1].startswith("PASS suite")


# Each one-shot verb is a session of one task; its result must be the
# result of that task in a session file.
PARITY = [
    pytest.param(
        ["koszul", "--vars", "2", "--seq", "x1, x2"],
        "[ring]\nvars = 2\n\n[seq S]\nelems = x1, x2\n\n[task koszul-level]\nseq = S\n",
        id="koszul-free",
    ),
    pytest.param(
        ["koszul", "--vars", "2", "--quotient", "x1^2, x1*x2, x2^3", "--seq", "x1, x2"],
        "[ring]\nvars = 2\nquotient = x1^2, x1*x2, x2^3\n\n[seq S]\nelems = x1, x2\n\n"
        "[task koszul-level]\nseq = S\n",
        id="koszul-artinian",
    ),
    pytest.param(
        ["invariants", "--vars", "3", "--quotient", "meet(x1; x2, x3)", "--ideal", "x2, x3"],
        "[ring]\nvars = 3\nquotient = meet(x1; x2, x3)\n\n[ideal I]\ngens = x2, x3\n\n"
        "[task invariants]\nideal = I\n",
        id="invariants-meet",
    ),
    pytest.param(
        ["paper-suite", "--n", "3"], "[ring]\nvars = 1\n\n[task paper-suite]\nn = 3\n",
        id="paper-suite",
    ),
]


@pytest.mark.parametrize("argv, text", PARITY)
def test_one_shot_verb_matches_its_session_task(tmp_path, capsys, argv, text):
    code, out, _ = run_cli(capsys, argv + ["--machine"])
    assert code == 0
    one_shot = json.loads(out)
    assert one_shot["task"] == argv[0]
    f = tmp_path / "one.session"
    f.write_text(text)
    code, out, _ = run_cli(capsys, ["run", str(f), "--machine"])
    assert code == 0
    task = json.loads(out)
    assert task["ok"] is True
    # the label names the sequence: its text on the command line, S in the file
    for rec in (one_shot, task):
        rec["result"].pop("label", None)
    assert one_shot["result"] == task["result"]


# Session files for the exit-code fuzz: sections built from the grammar,
# then up to three pieces of noise inserted anywhere.  Rings have at most
# 3 variables; the tasks are invariants, lech, a Koszul level, the level
# of hom(koszul(S), koszul(S)), which always splits, and the
# factorization example and suite at sizes inside and outside their
# ranges (E_N_RANGE, and E_VAR_CAP at n = 12), so each example takes
# well under a second.
_POLYS = st.lists(
    st.sampled_from(["x1", "x2", "x3", "x1*x2", "x2^2", "2*x3", "x1 + x3", "0"]),
    min_size=1, max_size=3,
).map(", ".join)
_IDEAL = st.one_of(
    _POLYS,
    st.tuples(_POLYS, _POLYS).map(lambda ab: f"meet({ab[0]}; {ab[1]})"),
    st.sampled_from(["A", "0"]),
)
_RING = st.tuples(
    st.sampled_from(["", "", "p = 2\n", "p = 101\n", "p = 10\n"]),
    st.sampled_from(["vars = 3", "vars = 3", "vars = 2", "vars = 1", "vars = 0"]),
    st.one_of(st.just(""), _IDEAL.map("\nquotient = {}".format)),
).map(lambda parts: "[ring]\n" + "".join(parts))
_TASKS = st.lists(
    st.sampled_from(["[task invariants]", "[task invariants]\nideal = B",
                     "[task invariants]\nseq = S", "[task lech]\nseq = S",
                     "[task koszul-level]\nseq = S\nideal = B",
                     "[task level]\ncomplex = hom(koszul(S), koszul(S))"]
                    + [f"[task factorization-example]\nn = {n}" for n in (2, 3, 12)]
                    + [f"[task paper-suite]\nn = {n}" for n in (0, 3, 7)]),
    min_size=1, max_size=3,
)
_NOISE = st.one_of(
    st.sampled_from(["x4", "x1^", "meet(", ")", ";", ",", "=", "#", "\n", "[task", "]",
                     "vars = 3", "\u00e9", "\u2028", "\x85", "\x00"]),
    st.text(max_size=4),
)
_SESSION = st.tuples(
    _RING,
    _POLYS.map("[ideal A]\ngens = {}".format),
    _IDEAL.map("[ideal B]\ngens = {}".format),
    _POLYS.map("[seq S]\nelems = {}".format),
    _TASKS.map("\n".join),
).map("\n".join)


def _insert_noise(text: str, noise: list) -> str:
    for at, piece in noise:
        at %= len(text) + 1
        text = text[:at] + piece + text[at:]
    return text


_NOISY_SESSION = st.tuples(
    _SESSION, st.lists(st.tuples(st.integers(0, 300), _NOISE), max_size=3)
).map(lambda parts: _insert_noise(*parts))


def _exit_code_contract_holds(path, data: bytes) -> None:
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["run", str(path)])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error:")


@settings(max_examples=150)
@given(data=st.binary(max_size=200))
def test_run_on_arbitrary_bytes_keeps_the_exit_code_contract(tmp_path_factory, data):
    _exit_code_contract_holds(tmp_path_factory.getbasetemp() / "bytes.session", data)


_SPLIT_SESSION = ("[ring]\nvars = 3\nquotient = x1*x2\n[ideal B]\ngens = x1, x2\n"
                  "[seq S]\nelems = x1, x2, x1 + x2\n[task koszul-level]\nseq = S\nideal = B\n"
                  "[task level]\ncomplex = hom(koszul(S), koszul(S))\n")


@settings(max_examples=150)
@given(text=_NOISY_SESSION)
@example(text=_SPLIT_SESSION)
@example(text="[ring]\nvars = 2\n[task factorization-example]\nn = 12\n"
              "[task paper-suite]\nn = 0\n[task paper-suite]\nn = 7\n")
def test_run_on_noisy_session_text_keeps_the_exit_code_contract(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "noisy.session"
    _exit_code_contract_holds(path, text.encode("utf-8"))


# Koszul tasks for the colon fuzz: 2 or 3 variables, and a quotient,
# sequence and ideal of nonzero forms of degree 1 or 2.  Many ideals
# leave the homology non-torsion, which only the colon loop can decide.
def _forms(nvars):
    def of_degree(d):
        monomials = ["*".join(f"x{i}" for i in m)
                     for m in combinations_with_replacement(range(1, nvars + 1), d)]
        terms = st.lists(st.tuples(st.integers(1, 100), st.sampled_from(monomials)),
                         min_size=1, max_size=3, unique_by=lambda t: t[1])
        return terms.map(lambda ts: " + ".join(f"{c}*{m}" for c, m in ts))
    return st.lists(st.integers(1, 2).flatmap(of_degree), min_size=1, max_size=3).map(", ".join)


_KOSZUL_ARGS = st.integers(2, 3).flatmap(lambda n: st.tuples(
    st.just(str(n)), st.one_of(st.just("0"), _forms(n)), _forms(n), _forms(n)))


def test_koszul_fuzz_keeps_the_contract_through_the_colon_fallback(monkeypatch):
    steps = 0
    colon = modules._colon_submodule

    def counted(*args):
        nonlocal steps
        steps += 1
        return colon(*args)

    monkeypatch.setattr(modules, "_colon_submodule", counted)

    # K(x1) over k[x1, x2] with I = (x2): H_0 = k[x2] is not I-torsion
    @example(("2", "0", "x1", "x2"))
    @settings(max_examples=40, deadline=None)
    @given(args=_KOSZUL_ARGS)
    def check(args):
        nvars, quotient, seq, ideal = args
        argv = ["koszul", "--vars", nvars, "--quotient", quotient, "--seq", seq,
                "--ideal", ideal, "--machine"]
        runs = []
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            assert time.perf_counter() - start < 10.0
            assert code in (0, 2)
            if code == 2:
                assert re.match(r"error: E_[A-Z_]+: ", err.getvalue())
            runs.append((code, out.getvalue()))
        assert runs[0] == runs[1]

    check()
    assert steps > 0


# Level tasks on Hom complexes: 2 or 3 variables, hom(koszul(A), koszul(B))
# with 1 to 3 monomial or binomial entries of degree 1 or 2 in each of A
# and B, p in {2, 3, 101}, and a free or monomial quotient.
def _monomials(nvars, d):
    return ["*".join(f"x{i}" for i in m)
            for m in combinations_with_replacement(range(1, nvars + 1), d)]


def _hom_entries(nvars, p):
    def of_degree(d):
        terms = st.lists(st.tuples(st.integers(1, p - 1), st.sampled_from(_monomials(nvars, d))),
                         min_size=1, max_size=2, unique_by=lambda t: t[1])
        return terms.map(lambda ts: " + ".join(f"{c}*{m}" for c, m in ts))
    return st.lists(st.integers(1, 2).flatmap(of_degree), min_size=1, max_size=3).map(", ".join)


def _hom_session(nvars, p):
    monomial_quotient = st.lists(st.integers(1, 2).flatmap(
        lambda d: st.sampled_from(_monomials(nvars, d))), min_size=1, max_size=3).map(", ".join)
    return st.tuples(st.one_of(st.just("0"), monomial_quotient),
                     _hom_entries(nvars, p), _hom_entries(nvars, p)).map(
        lambda qab: (f"[ring]\np = {p}\nvars = {nvars}\nquotient = {qab[0]}\n\n"
                     f"[seq A]\nelems = {qab[1]}\n\n[seq B]\nelems = {qab[2]}\n\n"
                     "[task level]\ncomplex = hom(koszul(A), koszul(B))\n"))


_HOM_SESSIONS = st.tuples(st.integers(2, 3), st.sampled_from([2, 3, 101])).flatmap(
    lambda np_: _hom_session(*np_))


@settings(max_examples=40, deadline=None)
@given(text=_HOM_SESSIONS)
def test_level_fuzz_on_hom_complexes_keeps_the_contract(text):
    start = time.perf_counter()
    try:
        code, out = cli.run_session(session.parse_session(text), machine=True)
    except session.SessionError as exc:
        code, out = 2, ""
        assert re.match(r"E_[A-Z_]+", str(exc))
    assert time.perf_counter() - start < 10.0
    assert code in (0, 1, 2)
    for line in out.splitlines():
        record = json.loads(line)
        if record["ok"]:
            assert record["result"]["lower"] <= record["result"]["upper"]
        else:
            assert "Traceback" not in record["result"]["error"]
