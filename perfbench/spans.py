"""Span recorder for the traced run, and the per-layer metrics derived from it.

``Recorder.install`` wraps the public functions of each ``scce`` module and
patches the wrapper into every ``scce`` namespace that holds the original, so
calls through ``from ... import`` bindings (``inference.estimate_panel``,
``cli.load_panel_csv``, ...) are seen too. ``PanelData`` is a class, so its
``__post_init__``, which every construction runs, is wrapped instead.
``uninstall`` restores every original attribute.

Each thread keeps its own stack of open spans. A span opened on a thread with
no open span of its own (a bootstrap or Monte Carlo pool thread) takes as
parent the innermost open span of the thread running the op, which is the
call that submitted the work. Spans stay in memory until the run writes them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import astuple, dataclass

TRACED = {
    "panel": ("PanelData", "load_panel_csv", "cross_sectional_average"),
    "sieve": ("build_sieve_matrix",),
    "estimators": ("scce_estimate", "ccep_estimate", "ccemg_estimate", "annihilate",
                   "estimate_panel"),
    "inference": ("hac_covariance", "linearity_test", "bootstrap_ci", "adf_test"),
    "simulate": ("generate_panel", "monte_carlo_run"),
    "cli": ("main",),
}

OP = "op"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float = 0.0
    ok: bool = True


class Recorder:
    def __init__(self):
        self.ops: list[list[Span]] = []
        self._spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._op_stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        outer = stack or self._op_stack
        span = Span(next(self._ids), outer[-1].id if outer else None, name,
                    threading.get_ident(), time.perf_counter())
        stack.append(span)
        return span

    def _close(self, span: Span, ok: bool) -> None:
        span.end = time.perf_counter()
        span.ok = ok
        self._stack().pop()
        self._spans.append(span)

    def traced(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                self._close(span, ok)
        return wrapper

    def run_op(self, op, *args):
        """Run one op under a root span; its spans become one entry of ``ops``."""
        self._spans = []
        self._op_stack = self._stack()
        root = self._open(OP)
        ok = False
        try:
            result = op(*args)
            ok = True
            return result
        finally:
            self._close(root, ok)
            self._op_stack = []
            self.ops.append(self._spans)

    def _patch(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "scce" or name.startswith("scce.")]
        for layer, names in TRACED.items():
            module = importlib.import_module(f"scce.{layer}")
            for name in names:
                original = getattr(module, name)
                if isinstance(original, type):
                    self._patch(original, "__post_init__",
                                self.traced(f"{layer}.{name}", original.__post_init__))
                    continue
                wrapper = self.traced(f"{layer}.{name}", original)
                for mod in modules:
                    for attr in [a for a, v in vars(mod).items() if v is original]:
                        self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def dump(self) -> list[list[list]]:
        """Per op, one row per span in Span field order; times from the op's start."""
        out = []
        for spans in self.ops:
            t0 = min(s.start for s in spans)
            out.append([[*astuple(s)[:4], s.start - t0, s.end - t0, s.ok] for s in spans])
        return out


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(children[s.id], s.start, s.end)
            for s in spans}


def op_metrics(spans: list[Span], threads: int) -> dict[str, float]:
    """Per-layer metrics of one traced op."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    calls, self_s, total_s = defaultdict(int), defaultdict(float), defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += selfs[s.id]
        total_s[s.name] += s.end - s.start

    def children_named(parent_name: str, name: str) -> list[Span]:
        return [s for s in spans if s.name == name and s.parent is not None
                and by_id[s.parent].name == parent_name]

    def useful_ratio(parent_name: str) -> float:
        tries = children_named(parent_name, "estimators.estimate_panel")
        return sum(s.ok for s in tries) / len(tries) if tries else 0.0

    boot_wall = total_s["inference.bootstrap_ci"]
    boot_busy = sum(s.end - s.start
                    for s in children_named("inference.bootstrap_ci", "estimators.estimate_panel"))
    m = {
        "estimators.scce_estimate.calls": calls["estimators.scce_estimate"],
        "estimators.scce_estimate.self_s": self_s["estimators.scce_estimate"],
        "estimators.ccep_estimate.self_s": self_s["estimators.ccep_estimate"],
        "estimators.ccemg_estimate.self_s": self_s["estimators.ccemg_estimate"],
        "estimators.annihilate.self_s": self_s["estimators.annihilate"],
        "estimators.estimate_panel.calls": calls["estimators.estimate_panel"],
        "estimators.estimate_panel.total_s": total_s["estimators.estimate_panel"],
        "inference.hac_covariance.self_s": self_s["inference.hac_covariance"],
        "inference.linearity_test.self_s": self_s["inference.linearity_test"],
        "inference.bootstrap_ci.self_s": self_s["inference.bootstrap_ci"],
        "inference.bootstrap_ci.total_s": boot_wall,
        "inference.bootstrap_ci.useful_ratio": useful_ratio("inference.bootstrap_ci"),
        "inference.bootstrap_ci.parallel_eff":
            boot_busy / (boot_wall * threads) if boot_wall else 0.0,
        "inference.adf_test.self_s": self_s["inference.adf_test"],
        "panel.PanelData.calls": calls["panel.PanelData"],
        "panel.cross_sectional_average.calls": calls["panel.cross_sectional_average"],
        "panel.cross_sectional_average.self_s": self_s["panel.cross_sectional_average"],
        "panel.load_panel_csv.calls": calls["panel.load_panel_csv"],
        "panel.load_panel_csv.self_s": self_s["panel.load_panel_csv"],
        "sieve.build_sieve_matrix.calls": calls["sieve.build_sieve_matrix"],
        "sieve.build_sieve_matrix.self_s": self_s["sieve.build_sieve_matrix"],
        "simulate.generate_panel.calls": calls["simulate.generate_panel"],
        "simulate.generate_panel.self_s": self_s["simulate.generate_panel"],
        "simulate.monte_carlo_run.self_s": self_s["simulate.monte_carlo_run"],
        "simulate.monte_carlo_run.useful_ratio": useful_ratio("simulate.monte_carlo_run"),
        "cli.main.self_s": self_s["cli.main"],
    }
    for layer in TRACED:
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
    return m


def layer_metrics(recorder: Recorder, threads: int,
                  factors: list[float]) -> dict[str, float]:
    """Median over the traced ops of each per-op metric; times are scaled by
    each op's speed factor (see speed.py)."""
    per_op = []
    for spans, factor in zip(recorder.ops, factors):
        m = op_metrics(spans, threads)
        per_op.append({k: v * factor if k.endswith("_s") else v for k, v in m.items()})
    return {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
