"""Benchmark of fourierdist: seeded workloads through the public library API.

Usage, from the repository root:

    python3 perfbench/run.py --workload scan-z6s3 --seed 0 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json): scan-z6s3, worked-pair,
checks.

A run makes the workload's inputs from ``--seed``, then repeats one batch of
work on them until ``--seconds`` of batch time is spent (at least three
batches).  The first batch's outputs go through independent checks outside
the timed region; every later batch must reproduce them exactly.

``--trace 0`` prints the end-to-end metrics: median batch wall and CPU time,
set-up time (median of several cold starts), peak memory, and the quality of
the outputs.  ``--trace 1`` wraps each layer's entry points (layertrace.py),
alternates untraced and traced batches, and prints the per-layer metrics with
the tracing overhead; it fails if a span its workload must reach recorded no
call.  The last line of standard output is the result as one JSON object;
the lines before it carry the environment and run details.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: the run is pinned to one CPU (so that the calibration
# kernel and the work share a core), and the optimizer's small blocks gain
# nothing from threads.  Set before anything imports numpy.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import calibrate  # noqa: E402 (imports numpy)
from setup_probe import WORKLOAD_GROUPS, build_groups  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_BATCHES = 3
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
# Spans every workload reaches: its set-up builds irrep tables.
COMMON_SPANS = ("irreps.irreps_of", "irreps.irrep_table_for")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_GROUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def peak_rss_mb():
    """Peak resident memory of this process (the set-up probes not included)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Clock:
    """Times a batch as segments separated by ``tick()`` calls.

    Each segment's wall and CPU seconds are scaled by the calibration kernel
    timed at its two ends (see calibrate.py); the raw sums are kept too.  A longer segment gets more kernel repeats,
    so that the kernel's own noise stays small next to the segment's.  The
    tracer, if any, is paused while the kernel runs.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self._start_repeats = 1     # as many as the previous batch's first segment got

    def _kernel(self, repeats):
        paused = self.tracer is not None and self.tracer.active
        if paused:
            self.tracer.active = False
        seconds = statistics.median(calibrate.kernel_seconds() for _ in range(repeats))
        if paused:
            self.tracer.active = True
        return seconds

    def start(self):
        self.wall = self.cpu = self.raw_wall = self.raw_cpu = 0.0
        self._last_kernel = self._kernel(self._start_repeats)
        self._first_segment = True
        self._wall0, self._cpu0 = time.perf_counter(), time.process_time()

    def tick(self):
        wall, cpu = time.perf_counter() - self._wall0, time.process_time() - self._cpu0
        repeats = calibrate.repeats_for(wall)
        if self._first_segment:
            self._start_repeats, self._first_segment = repeats, False
        kernel = self._kernel(repeats)
        scale = calibrate.REFERENCE_S / ((self._last_kernel + kernel) / 2)
        self.raw_wall += wall
        self.raw_cpu += cpu
        self.wall += wall * scale
        self.cpu += cpu * scale
        self._last_kernel = kernel
        self._wall0, self._cpu0 = time.perf_counter(), time.process_time()


def compare_with_reference(outcome, reference):
    """Later batches have the first batch's inputs, so must give its outputs;
    an operation that does inherits the first batch's verdict."""
    if len(outcome.ops) != len(reference.ops):
        for op in outcome.ops:
            op.failures.append("batch produced a different number of operations")
        return
    for op, ref in zip(outcome.ops, reference.ops):
        if op.digest != ref.digest:
            op.failures.append("output differs from the first batch's")
        else:
            op.failures += ref.failures


def run_batches(workload, seconds, tracer):
    """Repeat the workload's batch for ``seconds`` of batch time.

    With a tracer, batches alternate untraced / traced, starting untraced.
    Returns the batch records and the first batch's outcome.
    """
    batches, reference = [], None
    clock = Clock(tracer)
    spent = 0.0
    while len(batches) < MIN_BATCHES or spent + batches[-1]["raw_wall"] <= seconds:
        traced = tracer is not None and len(batches) % 2 == 1
        if traced:
            tracer.reset()
        clock.start()
        if traced:
            tracer.active = True
        out = workload.run(clock.tick)
        if traced:
            tracer.active = False
        clock.tick()
        spent += clock.raw_wall
        outcome = workload.collect(out)
        if reference is None:
            workload.verify(out, outcome)
            reference = outcome
        else:
            compare_with_reference(outcome, reference)
        batches.append({
            "wall": clock.wall, "cpu": clock.cpu, "traced": traced,
            "raw_wall": clock.raw_wall, "raw_cpu": clock.raw_cpu,
            "attempted": len(outcome.ops),
            "failed": sum(1 for op in outcome.ops if op.failures),
            "trace": tracer.snapshot() if traced else None,
        })
    return batches, reference


def quality_metrics(reference):
    """Output-quality metrics of the first batch; each is deterministic for a
    seed, and each is written so that it is never 0 on a healthy run."""
    metas = reference.metas
    unconverged = sum(1 for meta in metas if not meta.get("converged", False))
    exact = [op for op in reference.ops if op.value is not None and op.exact]
    values = [op.value for op in reference.ops if op.value is not None]
    return {
        "converged_share": 1.0 - unconverged / len(metas) if metas else 1.0,
        "exact_ratio_mean": (statistics.fmean(op.value / op.exact for op in exact)
                             if exact else 1.0),
        "value_mean": statistics.fmean(values) if values else 0.0,
    }, {"optimizer_metas": len(metas), "unconverged": unconverged,
        "exact_references": len(exact),
        "lb_shortfall": max((max(op.exact - op.value, 0.0) for op in exact), default=0.0)}


def setup_seconds(workload_name):
    """Median of several cold starts of the library for the workload, each
    scaled by the calibration kernel timed around it; also the raw times."""
    scaled, raw = [], []
    kernel = calibrate.kernel_seconds()
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload_name],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        raw.append(float(proc.stdout.strip().splitlines()[-1]))
        after = calibrate.kernel_seconds()
        scaled.append(raw[-1] * calibrate.REFERENCE_S / ((kernel + after) / 2))
        kernel = after
    return statistics.median(scaled), raw


def layer_metrics(setup, traced, overhead):
    """Per-layer figures for one set-up plus one batch: counts from the first
    traced batch, times as the median over the traced batches."""
    first = traced[0]

    def calls(name):
        return setup["calls"][name] + first["calls"][name]

    def count(key):
        return setup["counts"][key] + first["counts"][key]

    def seconds(name, kind="total"):
        return setup[kind][name] + statistics.median(t[kind][name] for t in traced)

    def share(part, whole):
        return part / whole if whole else 0.0

    maximize_calls = calls("optim.maximize")
    lookups = calls("irreps.irrep_table_for")
    metrics = {
        "irreps.irreps_of.s": (seconds("irreps.irreps_of"), "s"),
        "irreps.irreps_of.calls": (calls("irreps.irreps_of"), "count"),
        "irreps.cache_hit_ratio": (share(lookups - count("irreps.table_misses"), lookups),
                                   "ratio"),
        "search.enumerate.s": (seconds("search.enumerate"), "s"),
        "search.enumerate.bijections": (count("search.enumerate.bijections"), "count"),
        "homs.kernels.s": (seconds("homs.kernels"), "s"),
        "optim.linmap_build.s": (seconds("optim.linmap_build"), "s"),
        "homs.level_k_norm.s": (seconds("homs.level_k_norm"), "s"),
        "homs.level_k_norm.calls": (calls("homs.level_k_norm"), "count"),
        "homs.hom_norm_report.s": (seconds("homs.hom_norm_report"), "s"),
        "homs.cb_norm.s": (seconds("homs.cb_norm"), "s"),
        "homs.jordan_defect.s": (seconds("homs.jordan_defect"), "s"),
        "optim.maximize.s": (seconds("optim.maximize"), "s"),
        "optim.maximize.self_s": (seconds("optim.maximize", "self"), "s"),
        "optim.maximize.calls": (maximize_calls, "count"),
        "optim.best_source.identity": (count("optim.best_source.identity"), "count"),
        "optim.best_source.ascent": (count("optim.best_source.ascent"), "count"),
        "optim.best_source.sampling": (count("optim.best_source.sampling"), "count"),
        "optim.sampling_win_ratio": (share(count("optim.best_source.sampling"),
                                           maximize_calls), "ratio"),
        "kernel.svd.calls": (calls("kernel.svd"), "count"),
        "kernel.svd.s": (seconds("kernel.svd"), "s"),
        "kernel.svd.per_maximize": (share(calls("kernel.svd"), maximize_calls), "count"),
        "kernel.qr.calls": (calls("kernel.qr"), "count"),
        "kernel.qr.s": (seconds("kernel.qr"), "s"),
        "lemmas.verify_invmult.s": (seconds("lemmas.verify_invmult"), "s"),
        "lemmas.verify_unitmult.s": (seconds("lemmas.verify_unitmult"), "s"),
        "lemmas.verify_norm_gap.s": (seconds("lemmas.verify_norm_gap"), "s"),
        "fourier.dual_norm_witness.s": (seconds("fourier.dual_norm_witness"), "s"),
        "fourier.a_norm.s": (seconds("fourier.a_norm"), "s"),
        "trace.overhead": (overhead, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def trace_self_check(workload, setup, traced):
    """Problems with the trace: a span the workload must reach that recorded
    no call (a wrapper no longer on its caller's path), or call counts that
    differ between traced batches of identical inputs."""
    problems = [f"span {name} recorded no call"
                for name in COMMON_SPANS + workload.spans
                if setup["calls"][name] + traced[0]["calls"][name] == 0]
    for t in traced[1:]:
        if t["calls"] != traced[0]["calls"]:
            problems.append("call counts differ between traced batches")
            break
    return problems


def git_commit():
    """HEAD of the repository rooted here, or None outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(cpus_available):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    sources = sorted((SRC / "fourierdist").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "cpus_available": cpus_available,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def check_metric_names(metrics, declared):
    names = {m["name"]: m["unit"] for m in declared}
    printed = {name: m["unit"] for name, m in metrics.items()}
    if printed != names:
        raise RuntimeError(f"metrics {printed} do not match BENCHMARK.json {names}")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "fourierdist" / "__init__.py").is_file():
        print(f"perfbench: no fourierdist sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import fourierdist as fd
    if Path(fd.__file__).resolve().parent != SRC / "fourierdist":
        print(f"perfbench: imported fourierdist from {fd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import layertrace
    import workloads

    tracer = None
    if args.trace:
        tracer = layertrace.Tracer()
        layertrace.install(tracer, fd)
        tracer.active = True
    setup_start = time.perf_counter()
    build_groups(fd, args.workload)
    in_process_setup = time.perf_counter() - setup_start
    setup_trace = None
    if tracer is not None:
        tracer.active = False
        setup_trace = tracer.snapshot()
    workload = workloads.WORKLOADS[args.workload](fd, args.seed)
    # one CPU for the work, the calibration kernel and the set-up probes
    cpus_available = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    batches, reference = run_batches(workload, args.seconds, tracer)
    attempted = sum(b["attempted"] for b in batches)
    failed = sum(b["failed"] for b in batches)
    plain = [b for b in batches if not b["traced"]]
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "batches": len(batches),
        "batch_wall_s": [b["wall"] for b in batches],
        "batch_raw_wall_s": [b["raw_wall"] for b in batches],
        "batch_cpu_s": [b["cpu"] for b in batches],
        "in_process_setup_s": in_process_setup,
        "failures": [f"{op.label}: {'; '.join(op.failures)}"
                     for op in reference.ops if op.failures][:20],
    }
    if tracer is None:
        rss = peak_rss_mb()
        setup_s, setup_samples = setup_seconds(args.workload)
        quality, counts = quality_metrics(reference)
        detail.update(counts, setup_raw_s=setup_samples)
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(b["wall"] for b in plain), "s"),
            "cpu_s": (statistics.median(b["cpu"] for b in plain), "s"),
            "peak_rss_mb": (rss, "MB"),
            "ok_share": (1.0 - failed / attempted, "ratio"),
            "converged_share": (quality["converged_share"], "ratio"),
            "exact_ratio_mean": (quality["exact_ratio_mean"], "ratio"),
            "value_mean": (quality["value_mean"], "value"),
        }
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
        check_metric_names(metrics, declared["end_to_end"])
    else:
        traced = [b["trace"] for b in batches if b["traced"]]
        overhead = (statistics.median(b["wall"] for b in batches if b["traced"])
                    / statistics.median(b["wall"] for b in plain) - 1.0)
        problems = trace_self_check(workload, setup_trace, traced)
        if problems:
            print("perfbench: trace self-check failed: " + "; ".join(problems), file=sys.stderr)
            return 3
        metrics = layer_metrics(setup_trace, traced, overhead)
        check_metric_names(metrics, declared["per_layer"])

    print(json.dumps({"env": environment(cpus_available)}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
