"""The package is the product surface and needs nothing outside stdlib.

The package surface is what the command line, the session format and
the scripts use.  A module-level def, class or assigned name, other
than a dunder, whose name appears nowhere in src/ or scripts/ except in
its own definition is dead code, and so is a method of a package class,
other than a dunder, whose attribute access .name appears nowhere there
outside its own definition; the references the tests compare the
engine against, and the helpers only the tests call, live in tests/.
Every name a package module imports is used in that module, and no
package module imports or reads another one's underscore name, so each
private helper stays inside the module that owns it.  Polynomials and
packed vectors meet only in gbcore: no other module walks a
polynomial's terms, and none but polys builds one from a dict.  The
command line loads no third-party module.  And the benchmark tracer in
perfbench/, which wraps package functions by name, still finds every
name it wraps and reports every per-layer metric of BENCHMARK.json.
"""

import ast
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "levelbounds"


def _sources():
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    return {path: path.read_text(encoding="utf-8").splitlines() for path in paths}


def _used(sources, path, node, pattern):
    """Does pattern match a line of src/ or scripts/ outside node's own lines?"""
    word = re.compile(pattern)
    own = range(node.lineno - 1, node.end_lineno)
    return any(
        word.search(line)
        for other, lines in sources.items()
        for k, line in enumerate(lines)
        if not (other == path and k in own)
    )


def _uncalled_names():
    sources = _sources()
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse("\n".join(sources[path]))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                out += [f"{path.name}:{name}" for name in names
                        if not (name.startswith("__") and name.endswith("__"))
                        and not _used(sources, path, node, rf"\b{re.escape(name)}\b")]
                continue
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not _used(sources, path, node, rf"\b{re.escape(node.name)}\b"):
                out.append(f"{path.name}:{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            methods = [item for item in node.body if isinstance(item, ast.FunctionDef)]
            for item in methods:
                if item.name.startswith("__") and item.name.endswith("__"):
                    continue
                if not _used(sources, path, item, rf"\.{re.escape(item.name)}\b"):
                    out.append(f"{path.name}:{node.name}.{item.name}")
    return out


def test_every_top_level_name_has_a_caller():
    assert _uncalled_names() == []


def _unused_imports():
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                # "import a.b" binds a
                imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        out += [f"{path.name}:{name}" for name in sorted(imported - used)]
    return out


def test_every_imported_name_is_used():
    assert _unused_imports() == []


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _borrowed_private_names():
    """path:line name for each underscore name a package module takes from another."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        siblings = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or not (node.level or node.module == "levelbounds"):
                continue
            if node.module in (None, "levelbounds"):  # from . import x binds the module x
                siblings.update(alias.asname or alias.name for alias in node.names)
            else:
                out += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                        if _private(alias.name)]
        out += [f"{path.name}:{node.lineno} {node.value.id}.{node.attr}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and _private(node.attr)]
    return out


def test_no_module_borrows_another_modules_private_name():
    assert _borrowed_private_names() == []


def test_only_the_ring_builds_an_ideal_plus_its_defining_ideal():
    # I + J has one home, QuotientRing.extension: no other package module
    # reads J's generators, and none defines an ideal sum of its own
    readers = [path.name for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "rings.py" and ".defining.gens" in path.read_text(encoding="utf-8")]
    assert readers == []
    defined = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef) and node.name == "ideal_sum"]
    assert defined == []


def _crossings():
    """path:line of each term walk of a polynomial outside polys and gbcore, and
    of each from_dict call outside polys."""
    walks, built = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "polys.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, (ast.For, ast.comprehension)) and path.name != "gbcore.py"
                    and isinstance(node.iter, ast.Attribute) and node.iter.attr == "terms"):
                walks.append(f"{path.name}:{node.iter.lineno}")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "from_dict"):
                built.append(f"{path.name}:{node.lineno}")
    return sorted(walks), sorted(built)


def test_only_the_engine_crosses_between_polynomials_and_vectors():
    # a polynomial's terms are packed only by gbcore.vector, and a
    # vector becomes polynomials only through gbcore.polyvec_from_vec
    assert _crossings() == ([], [])


def test_cli_imports_only_the_standard_library():
    # modules that site start-up hooks load before the import are not counted
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import levelbounds.cli\n"
        "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    loaded = ast.literal_eval(out)
    assert "levelbounds" in loaded
    assert [m for m in loaded if m not in sys.stdlib_module_names and m != "levelbounds"] == []


def test_benchmark_tracer_reports_every_per_layer_metric():
    # the tracer runs in a child interpreter, so its wrappers never
    # patch this process
    probe = (
        "import json\n"
        "from levelbounds import level, suite\n"
        "from tracer import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "assert level.verify_factorization_example(5).passed\n"
        "assert suite.run_suite(3).passed\n"
        "print(json.dumps({'notes': tracer.notes, 'metrics': tracer.metrics()}))\n"
    )
    path = os.pathsep.join([str(PACKAGE.parent), str(ROOT / "perfbench")])
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    report = json.loads(out.strip().splitlines()[-1])
    assert report["notes"] == []
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # the overhead ratio is computed by the runner, not by the tracer
    names = [m["name"] for m in bench["per_layer"] if m["name"] != "trace.overhead_ratio"]
    metrics = report["metrics"]
    assert [name for name in names if name not in metrics] == []
    assert [name for name in names if not math.isfinite(metrics[name])] == []
    # work moved off a wrapped name must fail here, not zero a metric
    homology_path = ["modules.subquotient.calls", "gbcore.relative_syzygies.calls",
                     "complexes.homology.computed"]
    assert [name for name in homology_path if not metrics.get(name, 0) > 0] == []
