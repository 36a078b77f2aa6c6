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

build_ring is the one check of ring input: parse_session calls it on the
[ring] section, and the command line on --char, --vars and --quotient,
so both entry points refuse the same inputs with the same codes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional

from .errors import UsageError
from .groebner import E_VAR_CAP, IdealData, ideal, ideal_intersection, zero_ideal
from .polys import DEFAULT_CHAR, E_CHAR_RANGE, MAX_CHAR, PolyRing, is_prime, parse_poly
from .rings import QuotientRing

E_SYNTAX = "E_SYNTAX"
E_UNKNOWN_NAME = "E_UNKNOWN_NAME"
E_NOT_HOMOGENEOUS = "E_NOT_HOMOGENEOUS"
E_NOT_PRIME = "E_NOT_PRIME"
E_CONSTANT_ENTRY = "E_CONSTANT_ENTRY"

# task kind -> (the keys it allows, the one it needs)
_TASKS = {
    "invariants": ({"ideal", "seq"}, None),
    "koszul-level": ({"seq", "ideal"}, "seq"),
    "level": ({"complex", "ideal"}, "complex"),
    "lech": ({"seq"}, "seq"),
    "factorization-example": ({"n"}, "n"),
    "paper-suite": ({"n"}, "n"),
}

# `koszul --vars n --seq x1` on the free ring took 0.23, 0.24, 0.31,
# 0.79, 2.2 and 6.2 s at n = 16, 32, 64, 128, 200 and 300 on a 2-core
# host, and ran out of memory at n = 100000, so the count is capped.
_VARS_CAP = 64
# The ideal parser recurses once per nested meet, and about a thousand
# levels exhaust the interpreter stack, so deeper nesting is refused.
_MEET_DEPTH_CAP = 64

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
    seq_name: Optional[str] = None
    ideal_name: Optional[str] = None
    complex_spec: Optional[tuple] = None
    n: Optional[int] = None


@dataclass
class Session:
    ring: QuotientRing
    ideals: dict = field(default_factory=dict)
    seqs: dict = field(default_factory=dict)
    tasks: list = field(default_factory=list)

    @property
    def char(self) -> int:
        return self.ring.char


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


def _parse_poly_list(ring: PolyRing, text: str, line: int, col: int, sequence: bool = False) -> list:
    """Homogeneous polynomials; a sequence entry must also have positive degree."""
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
        if sequence and f.is_constant():
            raise SessionError(E_CONSTANT_ENTRY, f"sequence entry {chunk!r} is a constant", line, col)
        polys.append(f)
    return polys


def _parse_ideal_expr(ring: PolyRing, text: str, names: dict, line: int, col: int) -> IdealData:
    """0 | NAME | meet(expr, expr) | comma-separated polynomials.

    meet arguments may be separated by ; to disambiguate inline
    polynomial lists that themselves contain commas.  Only a ; outside
    any parentheses counts; without one the arguments split on commas.
    Parentheses nested deeper than _MEET_DEPTH_CAP are refused before
    any intersection is computed.
    """
    text = text.strip()
    if max(accumulate((ch == "(") - (ch == ")") for ch in text), default=0) > _MEET_DEPTH_CAP:
        raise SessionError(E_SYNTAX, f"meet nested deeper than {_MEET_DEPTH_CAP} levels", line, col)
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
        return names[_defined(names, "ideal", text, line, col)]
    return ideal(ring, _parse_poly_list(ring, text, line, col))


def _require_int(entries: dict, key: str, section_line: int) -> tuple:
    if key not in entries:
        raise SessionError(E_SYNTAX, f"missing {key!r}", section_line)
    value, line, col = entries[key]
    try:
        return int(value), line, col
    except ValueError:
        raise SessionError(E_SYNTAX, f"{key} must be an integer, got {value!r}", line, col)


def _defined(names: dict, kind: str, name: str, line: int, col: int) -> str:
    if name not in names:
        raise SessionError(E_UNKNOWN_NAME, f"{kind} {name!r} is not defined", line, col)
    return name


def _check_keys(sec: _Section, allowed) -> None:
    for key, (_, line, _) in sec.entries.items():
        if key not in allowed:
            raise SessionError(E_SYNTAX, f"unknown {sec.kind} key {key!r}", line)


def _named_sections(sections: list, kind: str, key: str):
    """(name, value, line, col) of each [kind NAME] section, whose one key is key."""
    seen = set()
    for sec in sections:
        if sec.kind != kind:
            continue
        if sec.name in seen:
            raise SessionError(E_SYNTAX, f"{kind} {sec.name!r} defined twice", sec.line)
        _check_keys(sec, (key,))
        if key not in sec.entries:
            raise SessionError(E_SYNTAX, f"{kind} needs {key}", sec.line)
        seen.add(sec.name)
        yield (sec.name, *sec.entries[key])


def build_ring(entries: dict, line: int = 0, define_names=None) -> QuotientRing:
    """Check p and vars, then build F_p[x1..xn] modulo the quotient ideal.

    entries maps p, vars and quotient to (value, line, col) as a [ring]
    section holds them; p and quotient are optional.  vars runs from 1
    to _VARS_CAP.  Line 0 leaves the position out of errors, for
    command-line arguments.  define_names(P) parses the named ideals
    that the quotient may reference.
    """
    if "p" in entries:
        p, pline, pcol = _require_int(entries, "p", line)
        if p >= MAX_CHAR:
            raise SessionError(E_CHAR_RANGE, f"p = {p} is not below 2^31", pline, pcol)
        if not is_prime(p):
            raise SessionError(E_NOT_PRIME, f"p = {p} is not prime", pline, pcol)
    else:
        p = DEFAULT_CHAR
    nvars, vline, vcol = _require_int(entries, "vars", line)
    if nvars < 1:
        raise SessionError(E_SYNTAX, "vars must be at least 1", vline, vcol)
    if nvars > _VARS_CAP:
        raise SessionError(E_VAR_CAP, f"vars capped at {_VARS_CAP}, got {nvars}", vline, vcol)
    P = PolyRing(nvars, p)
    names = define_names(P) if define_names else {}
    value, qline, qcol = entries.get("quotient", ("0", line, 1))
    defining = _parse_ideal_expr(P, value, names, qline, qcol)
    if not defining.is_proper():
        raise SessionError(E_SYNTAX, "quotient is the unit ideal", qline, qcol)
    return QuotientRing(defining)


def parse_session(text: str) -> Session:
    sections = _split_sections(text)
    ring_sections = [s for s in sections if s.kind == "ring"]
    if not ring_sections:
        raise SessionError(E_SYNTAX, "missing [ring] section", 1)
    if len(ring_sections) > 1:
        raise SessionError(E_SYNTAX, "more than one [ring] section", ring_sections[1].line)
    ring_sec = ring_sections[0]
    _check_keys(ring_sec, ("p", "vars", "quotient"))

    ideals = {}

    def define_ideals(P: PolyRing) -> dict:
        for name, value, line, col in _named_sections(sections, "ideal", "gens"):
            ideals[name] = _parse_ideal_expr(P, value, ideals, line, col)
        return ideals

    ring = build_ring(ring_sec.entries, ring_sec.line, define_ideals)
    seqs = {
        name: tuple(_parse_poly_list(ring.poly_ring, value, line, col, sequence=True))
        for name, value, line, col in _named_sections(sections, "seq", "elems")
    }

    tasks = []
    for sec in sections:
        if sec.kind != "task":
            continue
        if sec.name not in _TASKS:
            raise SessionError(E_SYNTAX, f"unknown task kind {sec.name!r}", sec.line)
        allowed, needed = _TASKS[sec.name]
        spec = TaskSpec(sec.name)
        for key, (value, line, col) in sec.entries.items():
            if key not in allowed:
                raise SessionError(E_SYNTAX, f"key {key!r} not allowed in task {sec.name!r}", line)
            if key == "seq":
                spec.seq_name = _defined(seqs, "seq", value, line, col)
            elif key == "ideal":
                spec.ideal_name = _defined(ideals, "ideal", value, line, col)
            elif key == "complex":
                spec.complex_spec = _parse_complex_expr(value, seqs, line, col)
            else:
                spec.n = _require_int(sec.entries, "n", sec.line)[0]
        if needed and needed not in sec.entries:
            raise SessionError(E_SYNTAX, f"task {sec.name!r} needs {needed}", sec.line)
        tasks.append(spec)

    return Session(ring, ideals, seqs, tasks)


def parse_ideal_expression(ring: PolyRing, text: str) -> IdealData:
    """Inline form of the ideal grammar, for command-line arguments."""
    return _parse_ideal_expr(ring, text, {}, 0, 1)


def parse_sequence(ring: PolyRing, text: str) -> tuple:
    """Inline comma-separated list of homogeneous polynomials of positive degree."""
    return tuple(_parse_poly_list(ring, text, 0, 1, sequence=True))


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
        return ("koszul", _defined(seqs, "seq", m.group(1), line, col))
    m = _HOM_RE.match(text)
    if m:
        return ("hom", *(_defined(seqs, "seq", name, line, col) for name in m.groups()))
    raise SessionError(E_SYNTAX, f"bad complex expression {text!r}", line, col)
