"""Every top-level name in the package has a caller outside the tests.

The package surface is what the command line, the session format and
the scripts use.  A module-level def or class whose name appears nowhere
in src/ or scripts/ except in its own definition is dead code, unless it
is one of the references the tests compare the engine against.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "levelbounds"

# kept in src/ only as references for tests: is_power_torsion is checked
# against the first two, and the degreewise oracles use nullspace
TEST_REFERENCES = {"annihilator", "radical_membership", "nullspace"}


def _sources():
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    return {path: path.read_text(encoding="utf-8").splitlines() for path in paths}


def _uncalled_names():
    sources = _sources()
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse("\n".join(sources[path]))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            own = range(node.lineno - 1, node.end_lineno)
            used = any(
                word.search(line)
                for other, lines in sources.items()
                for k, line in enumerate(lines)
                if not (other == path and k in own)
            )
            if not used and node.name not in TEST_REFERENCES:
                out.append(f"{path.name}:{node.name}")
    return out


def test_every_top_level_name_has_a_caller():
    assert _uncalled_names() == []
