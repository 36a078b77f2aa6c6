"""Command line: session runner and one-shot verbs, machine output.

The one-shot verbs koszul, invariants and paper-suite are sessions of
one task: each builds a Session from its arguments, with the ring
checked by session.build_ring as a [ring] section is, and runs it
through the executor that run uses for every task of a session file.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 internal
inconsistency (a certified lower bound exceeded an upper bound, which
must never happen).  Machine output is one schema-versioned JSON record
per task, with sorted keys, so identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .complexes import hom_complex, koszul_complex
from .errors import InternalInconsistencyError, UsageError
from .groebner import ideal
from .invariants import invariant_report, lech_independent
from .level import level_interval, verify_factorization_example
from .polys import DEFAULT_CHAR
from .session import (E_SYNTAX, Session, SessionError, TaskSpec, build_ring,
                      parse_ideal_expression, parse_sequence, parse_session)
from .suite import run_suite

SCHEMA = "levelbounds/1"


def _level_report_lines(rep) -> list:
    flag = "exact" if rep.exact else "open"
    lines = [f"level {rep.label}: [{rep.lower}, {rep.upper}] {flag}"]
    for c in rep.certificates:
        side = "lower" if c.is_lower else "upper"
        lines.append(f"  {c.kind:<12} {side:<5} {c.value}")
    return lines


def _invariant_lines(rep) -> list:
    lines = ["invariants:"]
    for key, value in rep.as_dict().items():
        if value is None:
            continue
        lines.append(f"  {key} = {value}")
    return lines


def _complex(session: Session, spec: tuple) -> tuple:
    """The complex of koszul(A) or hom(koszul(A), koszul(B)), and its label."""
    F = [koszul_complex(list(session.seqs[name]), session.ring) for name in spec[1:]]
    if spec[0] == "koszul":
        return F[0], f"koszul({spec[1]})"
    return hom_complex(*F), f"hom(koszul({spec[1]}),koszul({spec[2]}))"


def _execute_task(session: Session, spec: TaskSpec) -> tuple:
    """Compute one task as (ok, human text, result record).

    This is the only code that computes a task result; a UsageError
    propagates to the caller.
    """
    R = session.ring
    if spec.kind == "invariants":
        rep = invariant_report(
            R, I=session.ideals.get(spec.ideal_name), seq=session.seqs.get(spec.seq_name)
        )
        return True, "\n".join(_invariant_lines(rep)), rep.as_dict()
    if spec.kind in ("koszul-level", "level"):
        F, label = _complex(session, spec.complex_spec or ("koszul", spec.seq_name))
        I = session.ideals.get(spec.ideal_name)
        if I is None and spec.kind == "koszul-level":
            I = ideal(R.poly_ring, list(session.seqs[spec.seq_name]))
        rep = level_interval(F, I=I, label=label)
        return True, "\n".join(_level_report_lines(rep)), rep.as_dict()
    if spec.kind == "lech":
        value = lech_independent(session.seqs[spec.seq_name], R)
        text = f"lech {spec.seq_name}: {'independent' if value else 'dependent'}"
        return True, text, {"seq": spec.seq_name, "lech_independent": value}
    if spec.kind == "factorization-example":
        fr = verify_factorization_example(spec.n, session.char)
        lines = [f"factorization example n={spec.n}: {'PASS' if fr.passed else 'FAIL'}"]
        for name, ok in fr.checks:
            lines.append(f"  {name}: {'ok' if ok else 'FAILED'}")
        return fr.passed, "\n".join(lines), fr.as_dict()
    if spec.kind == "paper-suite":
        sr = run_suite(spec.n, session.char)
        return sr.passed, "\n".join(sr.lines()), sr.as_dict()
    raise UsageError(f"unhandled task kind {spec.kind!r}")


def run_session(session: Session, machine: bool = False):
    """Execute all tasks; output is buffered and emitted in order.

    A task whose input is refused fails alone, with the error as its result.
    """
    blocks = []
    failed = False
    for index, spec in enumerate(session.tasks):
        try:
            ok, human, record = _execute_task(session, spec)
        except UsageError as exc:
            ok, human, record = False, f"task {spec.kind} failed: {exc}", {"error": str(exc)}
        failed = failed or not ok
        if machine:
            rec = {"schema": SCHEMA, "index": index, "task": spec.kind, "ok": ok, "result": record}
            blocks.append(json.dumps(rec, sort_keys=True))
        else:
            blocks.append(f"== task {index + 1}: {spec.kind} ==\n{human}")
    text = "\n".join(blocks) if machine else "\n\n".join(blocks)
    return (1 if failed else 0), text


def _run_one_task(args, session: Session) -> int:
    ok, human, record = _execute_task(session, session.tasks[0])
    if args.machine:
        print(json.dumps({"schema": SCHEMA, "task": args.verb, "result": record}, sort_keys=True))
    else:
        print(human)
    return 0 if ok else 1


def _ring(char: int, nvars: int, quotient: str = "0"):
    return build_ring({"p": (char, 0, 1), "vars": (nvars, 0, 1), "quotient": (quotient, 0, 1)})


def _cmd_run(args) -> int:
    try:
        with open(args.file, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read session file: {exc}")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = data[:exc.start].split(b"\n")
        raise SessionError(E_SYNTAX, "session file is not UTF-8 text", len(lines), len(lines[-1]) + 1)
    code, output = run_session(parse_session(text), machine=args.machine)
    print(output)
    return code


def _cmd_paper_suite(args) -> int:
    # the suite builds its own rings; one variable is the least ring a
    # session file can declare for its paper-suite task
    session = Session(_ring(args.char, 1), tasks=[TaskSpec("paper-suite", n=args.n)])
    return _run_one_task(args, session)


def _cmd_ring_task(args) -> int:
    """koszul (a koszul-level task) and invariants over --char, --vars, --quotient."""
    R = _ring(args.char, args.vars, args.quotient)
    P = R.poly_ring
    ideals = {} if args.ideal is None else {args.ideal: parse_ideal_expression(P, args.ideal)}
    seqs = {} if args.seq is None else {args.seq: parse_sequence(P, args.seq)}
    spec = TaskSpec(args.kind, seq_name=args.seq, ideal_name=args.ideal)
    return _run_one_task(args, Session(R, ideals, seqs, [spec]))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levelbounds",
        description="certified level bounds for perfect complexes over graded quotients",
    )
    machine = argparse.ArgumentParser(add_help=False)
    machine.add_argument("--machine", action="store_true", help="JSON records instead of tables")
    char = argparse.ArgumentParser(add_help=False)
    char.add_argument("--char", type=int, default=DEFAULT_CHAR)
    ring = argparse.ArgumentParser(add_help=False)
    ring.add_argument("--vars", type=int, required=True)
    ring.add_argument("--quotient", default="0")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", parents=[machine], help="execute a session file")
    p_run.add_argument("file")
    p_run.set_defaults(fn=_cmd_run)

    p_suite = sub.add_parser("paper-suite", parents=[char, machine],
                             help="run the built-in example battery")
    p_suite.add_argument("--n", type=int, required=True)
    p_suite.set_defaults(fn=_cmd_paper_suite)

    p_koszul = sub.add_parser("koszul", parents=[ring, char, machine],
                              help="level interval of a Koszul complex")
    p_koszul.add_argument("--seq", required=True)
    p_koszul.add_argument("--ideal")
    p_koszul.set_defaults(fn=_cmd_ring_task, kind="koszul-level")

    p_inv = sub.add_parser("invariants", parents=[ring, char, machine],
                           help="ring, ideal, and sequence invariants")
    p_inv.add_argument("--ideal")
    p_inv.add_argument("--seq")
    p_inv.set_defaults(fn=_cmd_ring_task, kind="invariants")
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
