"""Batch front end: session runner, one-shot verbs, machine output.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 internal
inconsistency (a certified lower bound exceeded an upper bound, which
must never happen).  Machine output is one schema-versioned JSON record
per task, with sorted keys, so identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional

from .complexes import hom_complex, koszul_complex
from .errors import InternalInconsistencyError, UsageError
from .groebner import ideal
from .invariants import invariant_report
from .level import level_interval, verify_factorization_example
from .polys import DEFAULT_CHAR, PolyRing
from .rings import QuotientRing
from .session import Session, TaskSpec, parse_ideal_expression, parse_sequence, parse_session
from .suite import run_suite

SCHEMA = "levelbounds/1"


@dataclass
class TaskOutcome:
    index: int
    kind: str
    ok: bool
    human: str
    record: dict


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


def _execute_task(session: Session, spec: TaskSpec, index: int) -> TaskOutcome:
    R = session.ring
    P = R.poly_ring
    try:
        if spec.kind == "invariants":
            I = session.ideals[spec.ideal_name] if spec.ideal_name else None
            seq = session.seqs[spec.seq_name] if spec.seq_name else None
            rep = invariant_report(R, I=I, seq=seq)
            return TaskOutcome(
                index, spec.kind, True, "\n".join(_invariant_lines(rep)), rep.as_dict()
            )
        if spec.kind == "koszul-level":
            seq = session.seqs[spec.seq_name]
            I = (
                session.ideals[spec.ideal_name]
                if spec.ideal_name
                else ideal(P, list(seq))
            )
            rep = level_interval(
                koszul_complex(list(seq), R), I=I, label=f"koszul({spec.seq_name})"
            )
            return TaskOutcome(
                index, spec.kind, True, "\n".join(_level_report_lines(rep)), rep.as_dict()
            )
        if spec.kind == "level":
            F = _build_complex(session, spec.complex_spec)
            I = session.ideals[spec.ideal_name] if spec.ideal_name else None
            rep = level_interval(F, I=I, label=_complex_label(spec.complex_spec))
            return TaskOutcome(
                index, spec.kind, True, "\n".join(_level_report_lines(rep)), rep.as_dict()
            )
        if spec.kind == "lech":
            from .invariants import lech_independent

            seq = session.seqs[spec.seq_name]
            value = lech_independent(seq, R)
            text = f"lech {spec.seq_name}: {'independent' if value else 'dependent'}"
            return TaskOutcome(
                index,
                spec.kind,
                True,
                text,
                {"seq": spec.seq_name, "lech_independent": value},
            )
        if spec.kind == "factorization-example":
            fr = verify_factorization_example(spec.n, session.char)
            lines = [f"factorization example n={spec.n}: {'PASS' if fr.passed else 'FAIL'}"]
            for name, ok in fr.checks:
                lines.append(f"  {name}: {'ok' if ok else 'FAILED'}")
            return TaskOutcome(index, spec.kind, fr.passed, "\n".join(lines), fr.as_dict())
        if spec.kind == "paper-suite":
            sr = run_suite(spec.n, session.char)
            return TaskOutcome(index, spec.kind, sr.passed, "\n".join(sr.lines()), sr.as_dict())
        raise UsageError(f"unhandled task kind {spec.kind!r}")
    except UsageError as exc:
        return TaskOutcome(
            index, spec.kind, False, f"task {spec.kind} failed: {exc}", {"error": str(exc)}
        )


def _build_complex(session: Session, spec: tuple):
    R = session.ring
    if spec[0] == "koszul":
        return koszul_complex(list(session.seqs[spec[1]]), R)
    if spec[0] == "hom":
        F = koszul_complex(list(session.seqs[spec[1]]), R)
        G = koszul_complex(list(session.seqs[spec[2]]), R)
        return hom_complex(F, G)
    raise UsageError(f"unknown complex spec {spec!r}")


def _complex_label(spec: tuple) -> str:
    if spec[0] == "koszul":
        return f"koszul({spec[1]})"
    return f"hom(koszul({spec[1]}),koszul({spec[2]}))"


def run_session(session: Session, machine: bool = False):
    """Execute all tasks; output is buffered and emitted in order."""
    outcomes = [_execute_task(session, spec, i) for i, spec in enumerate(session.tasks)]
    blocks = []
    for out in outcomes:
        if machine:
            rec = {
                "schema": SCHEMA,
                "index": out.index,
                "task": out.kind,
                "ok": out.ok,
                "result": out.record,
            }
            blocks.append(json.dumps(rec, sort_keys=True))
        else:
            header = f"== task {out.index + 1}: {out.kind} =="
            blocks.append(header + "\n" + out.human)
    text = "\n".join(blocks) if machine else "\n\n".join(blocks)
    code = 0 if all(o.ok for o in outcomes) else 1
    return code, text


def _ring_from_args(args) -> QuotientRing:
    P = PolyRing(args.vars, args.char)
    defining = parse_ideal_expression(P, args.quotient)
    if not defining.is_proper():
        raise UsageError("quotient is the unit ideal")
    return QuotientRing(defining)


def _cmd_run(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read session file: {exc}")
    session = parse_session(text)
    code, output = run_session(session, machine=args.machine)
    print(output)
    return code


def _cmd_paper_suite(args) -> int:
    result = run_suite(args.n, args.char)
    if args.machine:
        print(json.dumps({"schema": SCHEMA, "task": "paper-suite", "result": result.as_dict()}, sort_keys=True))
    else:
        print("\n".join(result.lines()))
    return 0 if result.passed else 1


def _cmd_koszul(args) -> int:
    R = _ring_from_args(args)
    P = R.poly_ring
    seq = parse_sequence(P, args.seq)
    I = parse_ideal_expression(P, args.ideal) if args.ideal else ideal(P, list(seq))
    rep = level_interval(koszul_complex(list(seq), R), I=I, label=f"koszul({args.seq})")
    if args.machine:
        print(json.dumps({"schema": SCHEMA, "task": "koszul", "result": rep.as_dict()}, sort_keys=True))
    else:
        print("\n".join(_level_report_lines(rep)))
    return 0


def _cmd_invariants(args) -> int:
    R = _ring_from_args(args)
    P = R.poly_ring
    I = parse_ideal_expression(P, args.ideal) if args.ideal else None
    seq = parse_sequence(P, args.seq) if args.seq else None
    rep = invariant_report(R, I=I, seq=seq)
    if args.machine:
        print(json.dumps({"schema": SCHEMA, "task": "invariants", "result": rep.as_dict()}, sort_keys=True))
    else:
        print("\n".join(_invariant_lines(rep)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levelbounds",
        description="certified level bounds for perfect complexes over graded quotients",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="execute a session file")
    p_run.add_argument("file")
    p_run.add_argument("--machine", action="store_true", help="JSON records instead of tables")
    p_run.set_defaults(fn=_cmd_run)

    p_suite = sub.add_parser("paper-suite", help="run the built-in example battery")
    p_suite.add_argument("--n", type=int, required=True)
    p_suite.add_argument("--char", type=int, default=DEFAULT_CHAR)
    p_suite.add_argument("--machine", action="store_true")
    p_suite.set_defaults(fn=_cmd_paper_suite)

    p_koszul = sub.add_parser("koszul", help="level interval of a Koszul complex")
    p_koszul.add_argument("--vars", type=int, required=True)
    p_koszul.add_argument("--quotient", default="0")
    p_koszul.add_argument("--seq", required=True)
    p_koszul.add_argument("--ideal")
    p_koszul.add_argument("--char", type=int, default=DEFAULT_CHAR)
    p_koszul.add_argument("--machine", action="store_true")
    p_koszul.set_defaults(fn=_cmd_koszul)

    p_inv = sub.add_parser("invariants", help="ring, ideal, and sequence invariants")
    p_inv.add_argument("--vars", type=int, required=True)
    p_inv.add_argument("--quotient", default="0")
    p_inv.add_argument("--ideal")
    p_inv.add_argument("--seq")
    p_inv.add_argument("--char", type=int, default=DEFAULT_CHAR)
    p_inv.add_argument("--machine", action="store_true")
    p_inv.set_defaults(fn=_cmd_invariants)
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
