"""Per-layer tracing of previsio from outside the program.

The tracer replaces each traced public function with a wrapper that
opens a span around the call.  A function is one object that several
modules may bind (``checkers.solve``, ``extensions.solve`` and
``lp.solve`` are the same ``solve``), so every binding in every loaded
``previsio`` module is replaced, including values of module-level
dicts such as the CLI's notion table.  A function that no longer
exists is reported as absent instead of failing the run.

Spans are aggregated as they close, per span name: calls, total time
and self time (the span's duration minus the time of the spans it
opened).  Counts are read from arguments and results at the same
boundaries.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# (span name, module, attribute); "Class.method" names a classmethod
SPANS = (
    ("cli.run", "previsio.cli", "run"),
    ("jsonio.load", "previsio.jsonio", "load_problem"),
    ("jsonio.dump", "previsio.jsonio", "verdict_to_json"),
    ("jsonio.dump", "previsio.jsonio", "dump_bundle"),
    ("model.build", "previsio.model", "Assessment.build"),
    ("conglomerability.generate", "previsio.conglomerability", "definetti_example"),
    ("conglomerability.generate", "previsio.conglomerability", "walley_666_example"),
    ("checkers.check", "previsio.checkers", "check_w_coherence"),
    ("checkers.check", "previsio.checkers", "check_aul"),
    ("checkers.check", "previsio.checkers", "check_convex"),
    ("checkers.check", "previsio.checkers", "check_df_precise_conditional"),
    ("checkers.expand", "previsio.checkers", "expanded_elements"),
    ("gains.gain", "previsio.gains", "gain"),
    ("extensions.extend", "previsio.extensions", "extend"),
    ("envelopes.credal", "previsio.envelopes", "credal_polytope"),
    ("lp.solve", "previsio.lp", "solve"),
    ("lp.cert", "previsio.lp", "verify_farkas"),
    ("lp.cert", "previsio.lp", "satisfies"),
    ("lp.cert", "previsio.lp", "verify_ray"),
)


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self: float = 0.0


@dataclass
class Counts:
    """Values read at span boundaries.  All are exact counts except
    `recheck_s`, the time of checks called from `extend`."""

    lp_pivots: int = 0
    lp_pivots_max: int = 0
    lp_rows: int = 0
    lp_cols: int = 0
    lp_den_bits_max: int = 0
    lp_outcomes: dict[str, int] = field(default_factory=dict)
    lp_from_extensions: int = 0
    check_lp_count: int = 0
    rechecks: int = 0
    recheck_s: float = 0.0
    vertices: int = 0
    halfspaces: int = 0


def _den_bits(outcome: Any) -> int:
    values = list(getattr(outcome, "point", ()))
    if hasattr(outcome, "value"):
        values.append(outcome.value)
    return max((v.denominator.bit_length() for v in values), default=0)


class Tracer:
    def __init__(self, spans=SPANS) -> None:
        self.spans = spans
        self.stats: dict[str, SpanStats] = {}
        self.counts = Counts()
        self.absent: dict[str, str] = {}  # "module.attribute" -> reason
        self.enabled = True
        self._stack: list[list] = []  # [name, start, child time]
        self._active: dict[str, int] = {}
        self._undo: list[Callable[[], None]] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._active[name] = self._active.get(name, 0) + 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> float:
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self._active[name] -= 1
        stats = self.stats.setdefault(name, SpanStats())
        stats.calls += 1
        stats.total += duration
        stats.self += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def _observe(self, name: str, args: tuple, result: Any, duration: float) -> None:
        c = self.counts
        if name == "lp.solve":
            pivots = getattr(result, "pivots", 0)
            c.lp_pivots += pivots
            c.lp_pivots_max = max(c.lp_pivots_max, pivots)
            program = args[0] if args else None
            c.lp_rows += len(getattr(program, "constraints", ()))
            c.lp_cols += len(getattr(program, "objective", ()))
            c.lp_den_bits_max = max(c.lp_den_bits_max, _den_bits(result))
            kind = type(result).__name__.lower()
            c.lp_outcomes[kind] = c.lp_outcomes.get(kind, 0) + 1
            if self._active.get("extensions.extend") and not self._active.get("checkers.check"):
                c.lp_from_extensions += 1
        elif name == "checkers.check":
            c.check_lp_count += getattr(result, "lp_count", 0)
            if self._active.get("extensions.extend") and not self._active.get("checkers.check"):
                c.rechecks += 1
                c.recheck_s += duration
        elif name == "envelopes.credal":
            c.vertices += len(getattr(result, "vertices", ()))
            c.halfspaces += len(getattr(result, "constraints", ()))

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._exit()
            tracer._observe(name, args, result, duration)
            return result

        traced.traced_span = name
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "previsio" or key.startswith("previsio."))
        ]
        for name, module_name, attribute in self.spans:
            label = f"{module_name}.{attribute}"
            module = sys.modules.get(module_name)
            if module is None:
                self.absent[label] = f"module {module_name} is not loaded"
                continue
            if "." in attribute:
                self._install_classmethod(name, module, attribute, label)
                continue
            fn = getattr(module, attribute, None)
            if not callable(fn):
                self.absent[label] = f"{module_name} has no function {attribute}"
                continue
            if hasattr(fn, "traced_span"):
                continue  # an alias of a function traced above
            self._rebind(fn, self._wrap(name, fn), modules)

    def _rebind(self, fn: Callable, wrapper: Callable, modules: list) -> None:
        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is fn:
                    self._set(namespace, key, fn, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is fn:
                            self._set(value, k, fn, wrapper)

    def _set(self, mapping: dict, key: Any, old: Any, new: Any) -> None:
        mapping[key] = new
        self._undo.append(lambda: mapping.__setitem__(key, old))

    def _install_classmethod(self, name: str, module, attribute: str, label: str) -> None:
        class_name, method = attribute.split(".")
        cls = getattr(module, class_name, None)
        descriptor = vars(cls).get(method) if cls is not None else None
        if not isinstance(descriptor, classmethod):
            self.absent[label] = f"{class_name}.{method} is not a classmethod"
            return
        wrapped = classmethod(self._wrap(name, descriptor.__func__))
        setattr(cls, method, wrapped)
        self._undo.append(lambda: setattr(cls, method, descriptor))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results -----------------------------------------------------------

    def snapshot(self) -> tuple[dict[str, SpanStats], Counts]:
        stats = {k: SpanStats(v.calls, v.total, v.self) for k, v in self.stats.items()}
        c = self.counts
        counts = Counts(**{**vars(c), "lp_outcomes": dict(c.lp_outcomes)})
        return stats, counts


# per-layer time metrics: metric name -> span name (self time)
SELF_TIMES = {
    "lp.self_s": "lp.solve",
    "lp.cert_s": "lp.cert",
    "checkers.self_s": "checkers.check",
    "checkers.expand_s": "checkers.expand",
    "gains.self_s": "gains.gain",
    "extensions.self_s": "extensions.extend",
    "envelopes.self_s": "envelopes.credal",
    "jsonio.load_s": "jsonio.load",
    "jsonio.dump_s": "jsonio.dump",
    "cli.self_s": "cli.run",
    "model.build_s": "model.build",
    "conglomerability.generate_s": "conglomerability.generate",
}


def layer_metrics(
    stats: dict[str, SpanStats], counts: Counts, ops: int, wall: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over `ops` operations that took `wall` traced
    seconds (set-up included).  Per-op and per-call values are exact
    ratios of exact counts."""

    def calls(span: str) -> int:
        return stats[span].calls if span in stats else 0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    solves = calls("lp.solve")
    outcomes = counts.lp_outcomes
    bounded = outcomes.get("optimal", 0) + outcomes.get("infeasible", 0)
    out: dict[str, tuple[float, str]] = {
        "lp.solves": (ratio(solves, ops), "count/op"),
        "lp.pivots": (ratio(counts.lp_pivots, ops), "count/op"),
        "lp.pivots_max": (counts.lp_pivots_max, "count"),
        "lp.rows_mean": (ratio(counts.lp_rows, solves), "count"),
        "lp.cols_mean": (ratio(counts.lp_cols, solves), "count"),
        "lp.den_bits_max": (counts.lp_den_bits_max, "bit"),
        "lp.optimal": (ratio(outcomes.get("optimal", 0), ops), "count/op"),
        "lp.infeasible": (ratio(outcomes.get("infeasible", 0), ops), "count/op"),
        "lp.unbounded": (ratio(outcomes.get("unbounded", 0), ops), "count/op"),
        "lp.useful_ratio": (ratio(bounded, solves), "1"),
        "checkers.calls": (ratio(calls("checkers.check"), ops), "count/op"),
        "checkers.lp_per_check": (ratio(counts.check_lp_count, calls("checkers.check")), "count"),
        "gains.calls": (ratio(calls("gains.gain"), ops), "count/op"),
        "extensions.calls": (ratio(calls("extensions.extend"), ops), "count/op"),
        "extensions.lp_solves": (ratio(counts.lp_from_extensions, ops), "count/op"),
        "extensions.recheck_calls": (ratio(counts.rechecks, ops), "count/op"),
        "envelopes.calls": (ratio(calls("envelopes.credal"), ops), "count/op"),
        "envelopes.vertices": (ratio(counts.vertices, calls("envelopes.credal")), "count"),
        "envelopes.halfspaces": (ratio(counts.halfspaces, calls("envelopes.credal")), "count"),
    }
    times = {m: (stats[s].self if s in stats else 0.0) for m, s in SELF_TIMES.items()}
    times["extensions.recheck_s"] = counts.recheck_s
    for metric, seconds in times.items():
        out[metric] = (seconds, "s")
        out[metric[: -len("_s")] + "_share"] = (ratio(seconds, wall), "1")
    return out


# metric-name prefix -> the spans it needs; the longest prefix applies
REQUIRES = {
    "lp.": ("lp.solve",),
    "lp.cert": ("lp.cert",),
    "checkers.": ("checkers.check",),
    "checkers.expand": ("checkers.expand",),
    "gains.": ("gains.gain",),
    "extensions.": ("extensions.extend",),
    "extensions.lp_solves": ("extensions.extend", "lp.solve"),
    "extensions.recheck": ("extensions.extend", "checkers.check"),
    "envelopes.": ("envelopes.credal",),
    "jsonio.load": ("jsonio.load",),
    "jsonio.dump": ("jsonio.dump",),
    "cli.": ("cli.run",),
    "model.": ("model.build",),
    "conglomerability.": ("conglomerability.generate",),
}


def absent_metrics(tracer: Tracer, names) -> dict[str, str]:
    """Metric name -> reason, for metrics that need a span none of whose
    functions could be installed."""
    installed = {
        name for name, module, attribute in tracer.spans
        if f"{module}.{attribute}" not in tracer.absent
    }
    out = {}
    for metric in names:
        prefix = max((p for p in REQUIRES if metric.startswith(p)), key=len, default=None)
        missing = [s for s in REQUIRES.get(prefix, ()) if s not in installed]
        if missing:
            labels = [
                f"{module}.{attribute}" for name, module, attribute in tracer.spans
                if name in missing
            ]
            out[metric] = "; ".join(tracer.absent.get(label, label) for label in labels)
    return out
