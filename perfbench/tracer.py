"""Outside-in per-layer tracer for levelbounds.

The tracer wraps functions and methods of the package by name, after the
package is imported and before the workload runs.  A wrapped function is
replaced in every ``levelbounds.*`` module namespace that bound it by
name (``from .gbcore import module_gb`` makes a second binding), and a
method is replaced on its class.  Nothing in the package itself changes.

Each span records its calls, its total time (outermost activations only,
so recursion is not counted twice) and its self time (its duration minus
the time covered by traced child spans).  Work counters come from hooks
on a few spans (``SPAN_COUNTERS``) and from counting-only wrappers
(``COUNTERS``).

A target that no longer exists under its name is skipped with a note;
the metrics built on it are then absent from the report, and the run
goes on.
"""

from __future__ import annotations

import importlib
import sys
import time

# (span name, module, attribute path).  Polynomial arithmetic and
# QuotientRing.nf are not wrapped: Poly operations are too fine-grained
# to time one by one, so their cost shows as the self time of their
# callers, and QuotientRing.nf only forwards to IdealData.normal_form.
SPANS = [
    ("gbcore.module_gb", "levelbounds.gbcore", "module_gb"),
    ("gbcore.normal_form", "levelbounds.gbcore", "normal_form"),
    ("gbcore.submodule_nf", "levelbounds.gbcore", "submodule_nf"),
    ("gbcore.relative_syzygies", "levelbounds.gbcore", "relative_syzygies"),
    ("groebner.IdealData.normal_form", "levelbounds.groebner", "IdealData.normal_form"),
    ("groebner.krull_dim", "levelbounds.groebner", "krull_dim"),
    ("groebner.ideal_intersection", "levelbounds.groebner", "ideal_intersection"),
    ("linalg.rank", "levelbounds.linalg", "rank"),
    ("modules.ModMap.init", "levelbounds.modules", "ModMap.__init__"),
    ("modules.ModMap.compose", "levelbounds.modules", "ModMap.compose"),
    ("modules.subquotient", "levelbounds.modules", "subquotient"),
    ("modules.is_power_torsion", "levelbounds.modules", "is_power_torsion"),
    ("modules.gamma_torsion", "levelbounds.modules", "gamma_torsion"),
    ("modules.frank", "levelbounds.modules", "frank"),
    ("complexes.ChainComplex.init", "levelbounds.complexes", "ChainComplex.__init__"),
    ("complexes.homology", "levelbounds.complexes", "ChainComplex.homology"),
    ("complexes.hom_complex", "levelbounds.complexes", "hom_complex"),
    ("complexes.minimalize", "levelbounds.complexes", "minimalize"),
    ("invariants.depth_ideal", "levelbounds.invariants", "depth_ideal"),
    ("invariants.lech_independent", "levelbounds.invariants", "lech_independent"),
    ("invariants.frank_conormal", "levelbounds.invariants", "frank_conormal"),
    ("level.level_interval", "levelbounds.level", "level_interval"),
    ("level.check_torsion_dim", "levelbounds.level", "check_torsion_dim"),
    ("level.ub_koszul_trim", "levelbounds.level", "ub_koszul_trim"),
    ("level.verify_factorization_example", "levelbounds.level", "verify_factorization_example"),
    ("session.parse_session", "levelbounds.session", "parse_session"),
    ("cli.run_session", "levelbounds.cli", "run_session"),
]

# Work counters kept on a span, filled by the hooks in Tracer._post_hooks.
SPAN_COUNTERS = {
    "gbcore.module_gb": "basis_out",
    "complexes.homology": "computed",
    "modules.ModMap.init": "entries",
}

# Counting-only wrappers (no span): module_gb forms each S-pair with
# _spair, and the colon loops of gamma_torsion and is_power_torsion share
# the colon step _colon_submodule.
COUNTERS = [
    ("gbcore._spair", "levelbounds.gbcore", "_spair"),
    ("modules._colon_submodule", "levelbounds.modules", "_colon_submodule"),
]


class Span:
    __slots__ = ("calls", "self_s", "total_s", "active", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.active = 0
        self.extra = {}


def _resolve(module_name: str, path: str):
    """(owner, attribute name, current value) or None when missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        value = owner.__dict__.get(name)
    else:
        value = getattr(owner, name, None)
    if value is None or not callable(value):
        return None
    return owner, name, value


def _rebind(owner, name: str, original, wrapper) -> None:
    """Replace original on owner, and in every package namespace holding it."""
    setattr(owner, name, wrapper)
    if isinstance(owner, type):
        return
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "levelbounds" or mod_name.startswith("levelbounds.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


class Tracer:
    def __init__(self):
        self.spans: dict = {}
        self.counts: dict = {}
        self.notes: list = []
        self._stack: list = []
        self._last_spair = None
        self.spair_reductions = 0
        self.spair_zero = 0

    # -- installation -------------------------------------------------

    def install(self) -> None:
        hooks = self._post_hooks()
        for span_name, module_name, path in SPANS:
            found = _resolve(module_name, path)
            if found is None:
                self.notes.append(f"{span_name}: {module_name}.{path} not found, metrics absent")
                continue
            owner, name, original = found
            span = self.spans[span_name] = Span()
            if span_name in SPAN_COUNTERS:
                span.extra[SPAN_COUNTERS[span_name]] = 0
            wrapper = self._span_wrapper(original, span, hooks.get(span_name))
            _rebind(owner, name, original, wrapper)
        for count_name, module_name, path in COUNTERS:
            found = _resolve(module_name, path)
            if found is None:
                self.notes.append(f"{count_name}: {module_name}.{path} not found, metrics absent")
                continue
            owner, name, original = found
            self.counts[count_name] = 0
            _rebind(owner, name, original, self._count_wrapper(original, count_name))

    def _span_wrapper(self, fn, span: Span, post):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span.calls += 1
            span.active += 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                span.active -= 1
                span.self_s += dt - frame[0]
                if span.active == 0:
                    span.total_s += dt
                if stack:
                    stack[-1][0] += dt
            if post is not None:
                post(span, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _count_wrapper(self, fn, count_name: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[count_name] += 1
            result = fn(*args, **kwargs)
            if count_name == "gbcore._spair":
                self._last_spair = result
            return result

        counted.__wrapped__ = fn
        counted.__name__ = getattr(fn, "__name__", "counted")
        return counted

    # -- counters fed by span results ---------------------------------

    def _post_hooks(self) -> dict:
        def module_gb(span, args, result):
            span.extra["basis_out"] += len(result)

        def normal_form(span, args, result):
            # module_gb reduces each S-pair right after forming it; only
            # those reductions count towards the S-pair zero ratio.
            if args and args[0] is self._last_spair and self._last_spair is not None:
                self._last_spair = None
                self.spair_reductions += 1
                if not result:
                    self.spair_zero += 1

        seen_homology = set()

        def homology(span, args, result):
            # ChainComplex.homology caches per degree; a result not seen
            # before was computed by this call.
            if result not in seen_homology:
                seen_homology.add(result)
                span.extra["computed"] += 1

        def modmap_init(span, args, result):
            m = args[0]
            span.extra["entries"] += m.source.rank * m.target.rank

        return {
            "gbcore.module_gb": module_gb,
            "gbcore.normal_form": normal_form,
            "complexes.homology": homology,
            "modules.ModMap.init": modmap_init,
        }

    # -- report -------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values by metric name; BENCHMARK.json gives their units."""
        out = {}
        for span_name, span in self.spans.items():
            out[f"{span_name}.calls"] = span.calls
            out[f"{span_name}.self_s"] = span.self_s
            out[f"{span_name}.total_s"] = span.total_s
            for key, value in span.extra.items():
                out[f"{span_name}.{key}"] = value
        if "gbcore._spair" in self.counts and "gbcore.normal_form" in self.spans:
            out["gbcore.spairs"] = self.counts["gbcore._spair"]
            out["gbcore.spair_zero_ratio"] = (
                self.spair_zero / self.spair_reductions if self.spair_reductions else 0.0
            )
        if "modules._colon_submodule" in self.counts:
            out["modules.colon_steps"] = self.counts["modules._colon_submodule"]
        return out
