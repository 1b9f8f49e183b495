"""Per-layer tracing of orlnorm from outside the package.

The tracer wraps public functions of the six modules (planar, orlicz,
spaces, engine, verify, cli) under every name that refers to them: verify
and engine import generated_norm, modular, build_modulus_table and others
by name, so wrapping only the defining module would miss most calls.

Spans (name, start, end, parent span, op id) are kept in memory and
written out once the run ends.  A span's self time is its duration minus
the time its child spans cover.  The two hottest leaf methods,
OrliczFunction.evaluate and PlanarNorm.evaluate, get counts only; their
time falls into the calling span's self time.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

SUITE_IDS = ("T1", "T2", "L1", "L2", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "R2", "R3")


class Patcher:
    """Replaces an object under every name that refers to it in the loaded
    orlnorm modules (and, for methods, in the defining class)."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, old, new, owner=None) -> int:
        holders = [mod for name, mod in list(sys.modules.items())
                   if name == "orlnorm" or name.startswith("orlnorm.")]
        if owner is not None:
            holders.append(owner)
        replaced = 0
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is old:
                    self._undo.append((holder, attr, value))
                    setattr(holder, attr, new)
                    replaced += 1
        if replaced == 0:
            raise RuntimeError(f"no orlnorm name refers to {old!r}")
        return replaced

    def restore(self) -> None:
        while self._undo:
            holder, attr, value = self._undo.pop()
            setattr(holder, attr, value)


class Tracer:
    """In-memory span recorder with per-name call, total and self-time sums."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id = array("q")
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.norm_evaluations: list[int] = []
        self.table_builds: list[tuple[int, str, float]] = []  # inside verify: (op, p, resolution)
        self.in_verify = False
        self.op = -1
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0

    def span(self, name: str, fn, note=None):
        """Wrap fn so each call records a span; note(args, kwargs, result)
        runs after a call that returned."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self.calls[name] += 1
                self.total[name] += dur
                self.self_s[name] += dur - frame[1]
                self.span_id.append(sid)
                self.span_name.append(nid)
                self.span_parent.append(parent)
                self.span_op.append(self.op)
                self.span_start.append(t0)
                self.span_end.append(t1)
            if note is not None:
                note(args, kwargs, result)
            return result
        return traced

    def counted(self, name: str, fn, points=None):
        """Wrap fn with a call counter (and a point counter); no span."""
        calls = self.calls
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if points is not None:
                counts[name + ".points"] += points(args, kwargs)
            return fn(*args, **kwargs)
        return wrapper

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\top\n")
            fh.writelines(
                f"{s}\t{names[n]}\t{a:.9f}\t{b:.9f}\t{p}\t{o}\n"
                for s, n, a, b, p, o in zip(self.span_id, self.span_name, self.span_start,
                                            self.span_end, self.span_parent, self.span_op))

    def suite_norm_calls(self) -> Counter:
        """generated_norm spans under each verify.<ID> span, by suite id."""
        names = self.names
        parent_of = dict(zip(self.span_id, self.span_parent))
        name_of = dict(zip(self.span_id, (names[n] for n in self.span_name)))
        out: Counter = Counter()
        for sid, name in name_of.items():
            if name != "engine.generated_norm":
                continue
            up = parent_of[sid]
            while up != -1:
                label = name_of.get(up, "")
                if label.startswith("verify.") and label[7:] in SUITE_IDS:
                    out[label[7:]] += 1
                    break
                up = parent_of[up]
        return out


def install(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap the public functions of the six layers under every alias."""
    import orlnorm.cli as cli
    import orlnorm.engine as engine
    import orlnorm.orlicz as orlicz
    import orlnorm.planar as planar
    import orlnorm.spaces as spaces
    import orlnorm.verify as verify

    def wrap(module, attr, name, note=None):
        fn = getattr(module, attr)
        patcher.replace(fn, tracer.span(name, fn, note))

    def count_method(cls, attr, name, points=None):
        fn = vars(cls)[attr]
        patcher.replace(fn, tracer.counted(name, fn, points), owner=cls)

    def note_norm(args, kwargs, result):
        tracer.norm_evaluations.append(result.evaluations)

    def note_modular(args, kwargs, result):
        x = args[1] if len(args) > 1 else kwargs["x"]
        tracer.counts["spaces.modular.atoms"] += len(x.values)

    table_sig = inspect.signature(planar.build_modulus_table)

    def note_table(args, kwargs, result):
        if not tracer.in_verify:
            return
        bound = table_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        p = bound.arguments["p"]
        tracer.table_builds.append((tracer.op, repr(p.descriptor()),
                                    float(bound.arguments["resolution"])))

    def array_points(args, kwargs):
        return int(np.size(args[1]))

    wrap(engine, "generated_norm", "engine.generated_norm", note_norm)
    wrap(engine, "luxemburg_norm", "engine.luxemburg_norm")
    wrap(engine, "orlicz_dual_norm", "engine.orlicz_dual_norm")
    wrap(engine, "lemma_bounds_check", "engine.lemma_bounds_check")
    wrap(spaces, "modular", "spaces.modular", note_modular)
    wrap(spaces, "modular_on_grid", "spaces.modular_on_grid")
    wrap(orlicz, "young_conjugate_many", "orlicz.young_conjugate_many")
    wrap(orlicz, "delta2_check", "orlicz.delta2_check")
    wrap(orlicz, "strict_convexity_probe", "orlicz.strict_convexity_probe")
    wrap(planar, "modulus_diagnostics", "planar.modulus_diagnostics")
    wrap(planar, "build_modulus_table", "planar.build_modulus_table", note_table)
    wrap(planar, "strictly_monotone_probe", "planar.strictly_monotone_probe")
    wrap(cli, "main", "cli.main")
    count_method(orlicz.OrliczFunction, "evaluate", "orlicz.evaluate")
    count_method(orlicz.OrliczFunction, "evaluate_array", "orlicz.evaluate_array", array_points)
    count_method(planar.PlanarNorm, "evaluate", "planar.evaluate")
    count_method(planar.PlanarNorm, "evaluate_many", "planar.evaluate_many", array_points)

    # Each suite runs through its own public run_suites([id]) call so it
    # gets its own span; the workload asserts that the concatenated reports
    # equal the --all reports byte for byte.
    run_suites = verify.run_suites
    per_suite = {tid: tracer.span(f"verify.{tid}", run_suites) for tid in SUITE_IDS}

    def run_suites_one_by_one(ids, phi, p, space, **kwargs):
        reports = []
        tracer.in_verify = True
        try:
            for tid in SUITE_IDS:
                if tid in ids:
                    reports += per_suite[tid]([tid], phi, p, space, **kwargs)
        finally:
            tracer.in_verify = False
        return reports

    patcher.replace(run_suites, tracer.span("verify.run_suites", run_suites_one_by_one))


def layer_metrics(tracer: Tracer, reports_trials: int, cli_output_bytes: int,
                  traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Every per-layer metric, as {name: (value, unit)}."""
    calls, total, self_s, counts = tracer.calls, tracer.total, tracer.self_s, tracer.counts
    m: dict[str, tuple[float, str]] = {}

    def timed(name: str, with_calls: bool = True) -> None:
        if with_calls:
            m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.s"] = (total[name], "s")

    timed("engine.generated_norm")
    m["engine.generated_norm.self_s"] = (self_s["engine.generated_norm"], "s")
    n_norm = calls["engine.generated_norm"]
    m["engine.generated_norm.us_per_call"] = (
        1e6 * total["engine.generated_norm"] / n_norm if n_norm else 0.0, "us")
    evals = tracer.norm_evaluations
    m["engine.evals_per_norm"] = (sum(evals) / len(evals) if evals else 0.0, "count")
    m["engine.evals_per_norm.max"] = (max(evals) if evals else 0, "count")
    timed("engine.luxemburg_norm")
    timed("engine.orlicz_dual_norm")
    m["engine.lemma_bounds_check.calls"] = (calls["engine.lemma_bounds_check"], "count")

    timed("spaces.modular")
    m["spaces.modular.atoms"] = (counts["spaces.modular.atoms"], "count")
    timed("spaces.modular_on_grid")

    m["orlicz.evaluate.calls"] = (calls["orlicz.evaluate"], "count")
    m["orlicz.evaluate_array.calls"] = (calls["orlicz.evaluate_array"], "count")
    m["orlicz.evaluate_array.points"] = (counts["orlicz.evaluate_array.points"], "count")
    timed("orlicz.young_conjugate_many")
    timed("orlicz.delta2_check")
    timed("orlicz.strict_convexity_probe", with_calls=False)

    m["planar.evaluate.calls"] = (calls["planar.evaluate"], "count")
    m["planar.evaluate_many.calls"] = (calls["planar.evaluate_many"], "count")
    m["planar.evaluate_many.points"] = (counts["planar.evaluate_many.points"], "count")
    timed("planar.modulus_diagnostics")
    timed("planar.build_modulus_table")
    timed("planar.strictly_monotone_probe", with_calls=False)

    suite_norms = tracer.suite_norm_calls()
    for tid in SUITE_IDS:
        m[f"verify.{tid}.s"] = (total[f"verify.{tid}"], "s")
        m[f"verify.{tid}.norm_calls"] = (suite_norms[tid], "count")
    m["verify.trials"] = (reports_trials, "count")
    builds = tracer.table_builds
    distinct = set(builds)
    m["verify.table_builds"] = (len(builds), "count")
    m["verify.table_builds_per_distinct"] = (len(builds) / len(distinct) if distinct else 0.0, "1")

    timed("cli.main")
    m["cli.self_s"] = (self_s["cli.main"], "s")
    m["cli.output_bytes"] = (cli_output_bytes, "bytes")

    m["trace.overhead_ratio"] = (traced_wall_s / untraced_wall_s, "1")
    covered = sum(self_s.values())
    m["trace.accounted_ratio"] = (covered / traced_wall_s, "1")
    return m
