"""Line-oriented session files: ring, named ideals and sequences, tasks.

Grammar (one statement per line, # comments, blank lines ignored):

    [ring]
    p = 101            # optional, default 101, must be a prime below 2^31
    vars = 3
    quotient = meet(A, B)   # optional ideal expression, default 0

    [ideal NAME]
    gens = x1*x2, x1*x3     # or meet(A, B) over earlier ideal names

    [seq NAME]
    elems = x1, x2

    [task koszul-level]     # kinds: invariants | koszul-level | level |
    seq = NAME              #   lech | factorization-example | paper-suite
    ideal = NAME

The quotient expression may reference any ideal defined in the file;
ideal-to-ideal references must point at earlier definitions.  Errors
carry a stable diagnostic code plus line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from .errors import UsageError
from .groebner import IdealData, ideal, ideal_intersection, zero_ideal
from .polys import DEFAULT_CHAR, E_CHAR_RANGE, MAX_CHAR, PolyRing, is_prime, parse_poly
from .rings import QuotientRing

E_SYNTAX = "E_SYNTAX"
E_UNKNOWN_NAME = "E_UNKNOWN_NAME"
E_NOT_HOMOGENEOUS = "E_NOT_HOMOGENEOUS"
E_NOT_PRIME = "E_NOT_PRIME"

TASK_KINDS = (
    "invariants",
    "koszul-level",
    "level",
    "lech",
    "factorization-example",
    "paper-suite",
)

_TASK_KEYS = {
    "invariants": {"ideal", "seq"},
    "koszul-level": {"seq", "ideal"},
    "level": {"complex", "ideal"},
    "lech": {"seq"},
    "factorization-example": {"n"},
    "paper-suite": {"n"},
}

_HEADER_RE = re.compile(r"^\[\s*(ring|ideal|seq|task)(?:\s+([A-Za-z0-9_-]+))?\s*\]$")
_KEYVAL_RE = re.compile(r"^([a-z]+)\s*=\s*(.*)$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class SessionError(UsageError):
    """Parse or validation failure with a stable code and position."""

    def __init__(self, code: str, message: str, line: int, col: int = 1):
        pos = f" (line {line}, column {col})" if line else ""
        super().__init__(f"{code}: {message}{pos}")
        self.code = code
        self.line = line
        self.col = col


@dataclass
class TaskSpec:
    kind: str
    line: int
    seq_name: Optional[str] = None
    ideal_name: Optional[str] = None
    complex_spec: Optional[tuple] = None
    n: Optional[int] = None


@dataclass
class Session:
    char: int
    nvars: int
    ring: QuotientRing
    ideals: dict = field(default_factory=dict)
    seqs: dict = field(default_factory=dict)
    tasks: list = field(default_factory=list)


class _Section:
    def __init__(self, kind, name, line):
        self.kind = kind
        self.name = name
        self.line = line
        self.entries = {}  # key -> (value, line, col)


def _split_sections(text: str) -> list:
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            m = _HEADER_RE.match(stripped)
            if not m:
                raise SessionError(E_SYNTAX, f"bad section header {stripped!r}", lineno)
            kind, name = m.group(1), m.group(2)
            if kind in ("ideal", "seq") and not name:
                raise SessionError(E_SYNTAX, f"[{kind}] needs a name", lineno)
            if kind == "ring" and name:
                raise SessionError(E_SYNTAX, "[ring] takes no name", lineno)
            if kind == "task" and not name:
                raise SessionError(E_SYNTAX, "[task] needs a kind", lineno)
            current = _Section(kind, name, lineno)
            sections.append(current)
            continue
        if current is None:
            raise SessionError(E_SYNTAX, "statement before any section", lineno)
        m = _KEYVAL_RE.match(stripped)
        if not m:
            raise SessionError(E_SYNTAX, f"expected key = value, got {stripped!r}", lineno)
        key, value = m.group(1), m.group(2).strip()
        if key in current.entries:
            raise SessionError(E_SYNTAX, f"duplicate key {key!r}", lineno)
        col = raw.index("=") + 2
        current.entries[key] = (value, lineno, col)
    return sections


def _split_top_level(text: str, seps: str) -> list:
    parts = []
    depth = 0
    buf = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and ch in seps:
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    parts.append("".join(buf))
    return parts


def _parse_poly_list(ring: PolyRing, text: str, line: int, col: int) -> list:
    polys = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise SessionError(E_SYNTAX, "empty entry in polynomial list", line, col)
        try:
            f = parse_poly(chunk, ring)
        except UsageError as exc:
            raise SessionError(E_SYNTAX, str(exc), line, col) from exc
        if not f.is_homogeneous():
            raise SessionError(E_NOT_HOMOGENEOUS, f"{chunk!r} is not homogeneous", line, col)
        polys.append(f)
    return polys


def _parse_ideal_expr(ring: PolyRing, text: str, names: dict, line: int, col: int) -> IdealData:
    """0 | NAME | meet(expr, expr) | comma-separated polynomials.

    meet arguments may be separated by ; to disambiguate inline
    polynomial lists that themselves contain commas.  Only a ; outside
    any parentheses counts; without one the arguments split on commas.
    """
    text = text.strip()
    if text == "0":
        return zero_ideal(ring)
    if re.match(r"meet\s*\(", text):
        inner = text[4:].strip()
        if not inner.endswith(")"):
            raise SessionError(E_SYNTAX, "meet needs a closing parenthesis", line, col)
        body = inner[1:-1]
        parts = _split_top_level(body, ";")
        if len(parts) < 2:
            parts = _split_top_level(body, ",")
        if len(parts) < 2:
            raise SessionError(E_SYNTAX, "meet needs at least two arguments", line, col)
        acc = _parse_ideal_expr(ring, parts[0], names, line, col)
        for part in parts[1:]:
            acc = ideal_intersection(acc, _parse_ideal_expr(ring, part, names, line, col))
        return acc
    if _NAME_RE.match(text) and not re.match(r"^x\d+$", text):
        if text not in names:
            raise SessionError(E_UNKNOWN_NAME, f"ideal {text!r} is not defined", line, col)
        return names[text]
    return ideal(ring, _parse_poly_list(ring, text, line, col))


def _require_int(entries: dict, key: str, section_line: int) -> tuple:
    if key not in entries:
        raise SessionError(E_SYNTAX, f"missing {key!r}", section_line)
    value, line, col = entries[key]
    try:
        return int(value), line, col
    except ValueError:
        raise SessionError(E_SYNTAX, f"{key} must be an integer, got {value!r}", line, col)


def parse_session(text: str) -> Session:
    sections = _split_sections(text)
    ring_sections = [s for s in sections if s.kind == "ring"]
    if not ring_sections:
        raise SessionError(E_SYNTAX, "missing [ring] section", 1)
    if len(ring_sections) > 1:
        raise SessionError(E_SYNTAX, "more than one [ring] section", ring_sections[1].line)
    ring_sec = ring_sections[0]
    for key in ring_sec.entries:
        if key not in ("p", "vars", "quotient"):
            raise SessionError(E_SYNTAX, f"unknown ring key {key!r}", ring_sec.entries[key][1])

    if "p" in ring_sec.entries:
        p, pline, pcol = _require_int(ring_sec.entries, "p", ring_sec.line)
        if p >= MAX_CHAR:
            raise SessionError(E_CHAR_RANGE, f"p = {p} is not below 2^31", pline, pcol)
        if not is_prime(p):
            raise SessionError(E_NOT_PRIME, f"p = {p} is not prime", pline, pcol)
    else:
        p = DEFAULT_CHAR
    nvars, vline, vcol = _require_int(ring_sec.entries, "vars", ring_sec.line)
    if nvars < 1:
        raise SessionError(E_SYNTAX, "vars must be at least 1", vline, vcol)
    P = PolyRing(nvars, p)

    ideals = {}
    for sec in sections:
        if sec.kind != "ideal":
            continue
        if sec.name in ideals:
            raise SessionError(E_SYNTAX, f"ideal {sec.name!r} defined twice", sec.line)
        for key in sec.entries:
            if key != "gens":
                raise SessionError(E_SYNTAX, f"unknown ideal key {key!r}", sec.entries[key][1])
        if "gens" not in sec.entries:
            raise SessionError(E_SYNTAX, "ideal needs gens", sec.line)
        value, line, col = sec.entries["gens"]
        ideals[sec.name] = _parse_ideal_expr(P, value, ideals, line, col)

    seqs = {}
    for sec in sections:
        if sec.kind != "seq":
            continue
        if sec.name in seqs:
            raise SessionError(E_SYNTAX, f"seq {sec.name!r} defined twice", sec.line)
        for key in sec.entries:
            if key != "elems":
                raise SessionError(E_SYNTAX, f"unknown seq key {key!r}", sec.entries[key][1])
        if "elems" not in sec.entries:
            raise SessionError(E_SYNTAX, "seq needs elems", sec.line)
        value, line, col = sec.entries["elems"]
        seqs[sec.name] = tuple(_parse_poly_list(P, value, line, col))

    if "quotient" in ring_sec.entries:
        value, line, col = ring_sec.entries["quotient"]
        defining = _parse_ideal_expr(P, value, ideals, line, col)
        if not defining.is_proper():
            raise SessionError(E_SYNTAX, "quotient is the unit ideal", line, col)
    else:
        defining = zero_ideal(P)
    try:
        ring = QuotientRing(defining)
    except UsageError as exc:
        raise SessionError(E_SYNTAX, str(exc), ring_sec.line) from exc

    tasks = []
    for sec in sections:
        if sec.kind != "task":
            continue
        kind = sec.name
        if kind not in TASK_KINDS:
            raise SessionError(E_SYNTAX, f"unknown task kind {kind!r}", sec.line)
        allowed = _TASK_KEYS[kind]
        for key in sec.entries:
            if key not in allowed:
                raise SessionError(
                    E_SYNTAX, f"key {key!r} not allowed in task {kind!r}", sec.entries[key][1]
                )
        spec = TaskSpec(kind=kind, line=sec.line)
        if "seq" in sec.entries:
            value, line, col = sec.entries["seq"]
            if value not in seqs:
                raise SessionError(E_UNKNOWN_NAME, f"seq {value!r} is not defined", line, col)
            spec.seq_name = value
        if "ideal" in sec.entries:
            value, line, col = sec.entries["ideal"]
            if value not in ideals:
                raise SessionError(E_UNKNOWN_NAME, f"ideal {value!r} is not defined", line, col)
            spec.ideal_name = value
        if "complex" in sec.entries:
            value, line, col = sec.entries["complex"]
            spec.complex_spec = _parse_complex_expr(value, seqs, line, col)
        if "n" in sec.entries:
            spec.n = _require_int(sec.entries, "n", sec.line)[0]
        if kind in ("koszul-level", "lech") and spec.seq_name is None:
            raise SessionError(E_SYNTAX, f"task {kind!r} needs seq", sec.line)
        if kind == "level" and spec.complex_spec is None:
            raise SessionError(E_SYNTAX, "task 'level' needs complex", sec.line)
        if kind in ("factorization-example", "paper-suite") and spec.n is None:
            raise SessionError(E_SYNTAX, f"task {kind!r} needs n", sec.line)
        tasks.append(spec)

    return Session(char=p, nvars=nvars, ring=ring, ideals=ideals, seqs=seqs, tasks=tasks)


def parse_ideal_expression(ring: PolyRing, text: str) -> IdealData:
    """Inline form of the ideal grammar, for command-line arguments."""
    return _parse_ideal_expr(ring, text, {}, 0, 1)


def parse_sequence(ring: PolyRing, text: str) -> tuple:
    """Inline comma-separated homogeneous polynomial list."""
    return tuple(_parse_poly_list(ring, text, 0, 1))


_KOSZUL_RE = re.compile(r"^koszul\(\s*([A-Za-z_][A-Za-z0-9_]*)\s*\)$")
_HOM_RE = re.compile(
    r"^hom\(\s*koszul\(\s*([A-Za-z_][A-Za-z0-9_]*)\s*\)\s*,"
    r"\s*koszul\(\s*([A-Za-z_][A-Za-z0-9_]*)\s*\)\s*\)$"
)


def _parse_complex_expr(text: str, seqs: dict, line: int, col: int) -> tuple:
    """koszul(NAME) or hom(koszul(NAME), koszul(NAME))."""
    text = text.strip()
    m = _KOSZUL_RE.match(text)
    if m:
        name = m.group(1)
        if name not in seqs:
            raise SessionError(E_UNKNOWN_NAME, f"seq {name!r} is not defined", line, col)
        return ("koszul", name)
    m = _HOM_RE.match(text)
    if m:
        a, b = m.group(1), m.group(2)
        for name in (a, b):
            if name not in seqs:
                raise SessionError(E_UNKNOWN_NAME, f"seq {name!r} is not defined", line, col)
        return ("hom", a, b)
    raise SessionError(E_SYNTAX, f"bad complex expression {text!r}", line, col)
