"""orlnorm benchmark: one command, four workloads, every metric with its unit.

    python3 perfbench/run.py --workload norm-stream [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it imports orlnorm from ./src and
nothing else.  With --trace 0 it reports the end-to-end metrics, measured
with the layer trace off; with --trace 1 it reports the per-layer metrics of
a separate traced round and writes the spans to perfbench/out/.  The last
line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the exit code is 0 only when
every output passed its oracle.

The load comes from this one process with BLAS/OpenMP threads capped at 1.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# The caps must be in the environment before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the caps)
from probe import HostProbe  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919   # kept out of tuning; a claimed gain must also hold on it
SETUP_REPEATS = 15
WORKLOADS = ("norm-stream", "norm-wide", "verify-catalog", "tables")

# A fresh interpreter: import orlnorm and build the catalog objects.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import orlnorm
orlnorm.catalog_orlicz_functions()
orlnorm.catalog_planar_norms()
orlnorm.strictly_monotone_planar_norms()
print(time.perf_counter() - t0)
"""


def measure_setup_s(probe: HostProbe) -> tuple[float, float]:
    """Median set-up time over fresh interpreters, after one warm-up that
    fills the bytecode cache: in reference seconds, each scaled by probes
    taken just before and after its interpreter, and in plain seconds."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    scaled, plain = [], []
    for i in range(SETUP_REPEATS + 1):
        probe.tick()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        probe.tick()
        if i:
            plain.append(float(done.stdout))
            scaled.append(plain[-1] * probe.scale())
    return statistics.median(scaled), statistics.median(plain)


class PieceClock:
    """Times every call of the short public functions that make up most of a
    round: generated_norm and modulus_diagnostics, under each of their names.
    One pair of clock reads per call, after a host probe when one is due;
    the layer trace stays off."""

    def __init__(self, patcher, probe: HostProbe) -> None:
        import orlnorm.engine
        import orlnorm.planar

        self.op = -1
        self.probe = probe
        self.samples: list[tuple[str, int, float, float]] = []  # (function, op, seconds, scale)
        for fn in (orlnorm.engine.generated_norm, orlnorm.planar.modulus_diagnostics):
            patcher.replace(fn, self._timed(fn))

    def _timed(self, fn):
        name = fn.__name__

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self.probe.tick()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.samples.append((name, self.op, dt, self.probe.scale()))
        return timed


def one_round(work, marker, probe: HostProbe, between=None):
    """Run every op of the round once: per-op wall times (s), the probe's
    scale at the end of each op and the outputs.  marker (a PieceClock or a
    Tracer) learns which op is running; between() runs after each op,
    outside its time, and so do the probes, whose time is taken out of an
    op they ran inside."""
    from workloads import attempt

    times, scales, outputs = [], [], []
    for i in range(len(work.ops)):
        marker.op = i
        probe.tick()
        spent = probe.spent
        t0 = time.perf_counter()
        outputs.append(attempt(work.run_op, i))
        times.append(time.perf_counter() - t0 - (probe.spent - spent))
        scales.append(probe.scale())
        if between is not None:
            between()
    return times, scales, outputs


class Rounds:
    """What the run keeps of its rounds: the first round's outputs, how
    often each op failed to reproduce them, each round's wall time, and,
    per round, each timed piece and each op's remainder outside its pieces
    in reference seconds (a few kB per round)."""

    def __init__(self) -> None:
        self.first: list | None = None
        self.count = 0
        self.mismatched: Counter = Counter()  # op index -> rounds that differed
        self.walls: list[float] = []
        self.rest_rows: list[np.ndarray] = []
        self.piece_rows: list[np.ndarray] = []
        self.norm_pieces: list[int] = []  # indices of generated_norm among the pieces

    def compare(self, outputs: list) -> None:
        """Count the round, and each op whose output differs from round one."""
        from workloads import same

        self.count += 1
        if self.first is None:
            self.first = outputs
            return
        for i, (a, b) in enumerate(zip(self.first, outputs)):
            if not same(a, b):
                self.mismatched[i] += 1

    def add(self, times: list[float], scales: list[float], outputs: list, samples: list) -> None:
        self.compare(outputs)
        self.walls.append(sum(times))
        rest = list(times)
        for _, op, dt, _ in samples:
            rest[op] -= dt
        pieces = np.array([dt * scale for _, _, dt, scale in samples])
        if self.piece_rows and len(pieces) != len(self.piece_rows[0]):
            raise RuntimeError("repeats of the same round made different numbers of calls")
        self.rest_rows.append(np.array(rest) * np.array(scales))
        self.piece_rows.append(pieces)
        self.norm_pieces = [k for k, (name, _, _, _) in enumerate(samples)
                            if name == "generated_norm"]

    def piece_medians(self, replayed: list | None) -> np.ndarray:
        """Each timed piece's median over the rounds (reference seconds).  A
        norm call that was also replayed outside the rounds takes its
        median over the rounds and the replays (`replayed`: reference ms
        per norm call, in call order)."""
        rows = np.vstack(self.piece_rows)
        medians = np.median(rows, axis=0)
        if replayed is not None:
            if len(replayed) != len(self.norm_pieces):
                raise RuntimeError("the replayed calls do not match the round's norm calls")
            for k, extra in zip(self.norm_pieces, replayed):
                medians[k] = np.median(np.concatenate([rows[:, k], np.asarray(extra) / 1e3]))
        return medians

    def wall(self, piece_medians: np.ndarray) -> float:
        """One round's wall time in reference seconds: the sum, over the
        round's pieces and over each op's remainder outside its pieces, of
        the median over the rounds."""
        return float(np.median(np.vstack(self.rest_rows), axis=0).sum() + piece_medians.sum())


def timed_rounds(work, deadline: float, clock: PieceClock) -> Rounds:
    """Repeat the round while the next one is expected to end before
    `deadline`, and at least twice."""
    rounds = Rounds()
    start = time.perf_counter()
    while True:
        clock.samples = []
        times, scales, outputs = one_round(work, clock, clock.probe, work.between_ops)
        rounds.add(times, scales, outputs, clock.samples)
        now = time.perf_counter()
        if rounds.count >= 2 and now + (now - start) / rounds.count > deadline:
            return rounds


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def context(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "orlnorm").glob("*.py")))
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": git_commit(), "src_lines": src_lines,
            "threads": os.environ["OMP_NUM_THREADS"]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload_name: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    import tracer as tr
    import workloads

    probe = HostProbe()
    setup_s, setup_plain_s = measure_setup_s(probe) if not trace else (None, None)
    work = workloads.make(workload_name, seed, probe)
    patcher = tr.Patcher()
    clock = PieceClock(patcher, probe)
    try:
        deadline = time.perf_counter() + seconds
        work.norm_stream()
        rounds = timed_rounds(work, deadline, clock)
        peak_mb = peak_rss_mb()
        work.norm_stream(until=deadline)
    finally:
        patcher.restore()
    pieces = rounds.piece_medians(work.replayed_norm_ms())

    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        spans = tr.Tracer()
        tr.install(spans, patcher)
        try:
            times, _, traced = one_round(work, spans, probe)
        finally:
            patcher.restore()
        spans.write(OUT_DIR / f"spans-{workload_name}-seed{seed}.tsv.gz")
        rounds.compare(traced)
        metrics = tr.layer_metrics(
            spans, reports_trials=work.trials(traced),
            cli_output_bytes=work.cli_output_bytes(traced),
            traced_wall_s=sum(times), untraced_wall_s=statistics.median(rounds.walls))

    attempted, failed, info = work.check(rounds.first, rounds.count, rounds.mismatched)
    info["rounds"] = len(rounds.walls)
    info["round_walls_s"] = [round(w, 6) for w in rounds.walls]
    info["probes"] = len(probe.times)
    info["probe_ms"] = 1e3 * statistics.median(probe.times)
    if not trace:
        norm_ms = work.norm_ms() or list(1e3 * pieces[rounds.norm_pieces])
        p50, p99 = percentile(norm_ms, 50), percentile(norm_ms, 99)
        info.update(norm_calls=len(norm_ms), norm_calls_beyond_p99=sum(1 for v in norm_ms if v > p99),
                    setup_plain_s=setup_plain_s)
        metrics = {"setup_s": (setup_s, "s"), "wall_s": (rounds.wall(pieces), "s"),
                   "norm_ms.p50": (p50, "ms"), "norm_ms.p99": (p99, "ms"),
                   "peak_rss_mb": (peak_mb, "MB")}
    info.update(attempted=attempted, failed=failed, failed_ratio=failed / attempted)
    return metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=int, default=20, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "orlnorm" / "__init__.py").is_file():
        print(f"error: no orlnorm sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import orlnorm
    if Path(orlnorm.__file__).resolve().parent != (SRC / "orlnorm").resolve():
        print(f"error: imported orlnorm from {orlnorm.__file__}, not {SRC}", file=sys.stderr)
        return 2

    ctx = context(args.workload, args.seed, args.seconds, args.trace)
    metrics, info = run(args.workload, args.seed, args.seconds, args.trace)
    correct = info["failed"] == 0
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"ops attempted={info['attempted']} failed={info['failed']} "
          f"failed_ratio={info['failed_ratio']:.6g}")
    print("context " + json.dumps(ctx, sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    result = {"correct": correct, "attempted": info["attempted"], "failed": info["failed"],
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"context": ctx, "info": info, **result}, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
