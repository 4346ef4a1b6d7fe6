"""wvlab benchmark: one command, four seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; wvlab is imported from ./src.
One client drives the library (or, for cli-files, one `python -m
wvlab.cli` child at a time) in a closed loop, with BLAS pinned to one
thread. A run repeats passes over the workload's fixed mix for
--seconds (the first pass always completes). Every op's output is
checked against an independent reference computed at set-up; a
mismatch or an exception counts as a failed op and never stops the run.

Before every op the runner times a fixed reference kernel (interpreter
loop, small complex matmuls, a sweep over a 2 MB array). Each op's
latency is scaled by REF_KERNEL_MS over the median kernel time around
it, so the timing metrics read as if the host ran at its reference
speed; other tenants of a shared host slow the kernel and the op alike.
Each op's figure is the median of its scaled runs. Unscaled wall-clock
figures are logged, and reported by the traced run.

--trace 0 prints the end-to-end metrics. --trace 1 runs the same mix
untraced, then once more with every layer function wrapped, prints the
per-layer metrics and writes the spans to .bench_out/. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# Set-up (input generation, loading or writing files, warm-up) runs at
# least SETUP_MIN times, and more while the repeats total under
# SETUP_BUDGET_S, up to SETUP_MAX; setup_s reports the median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 2.0

# Interpreter start-ups timed per run, for setup_s and cli.import_ms.
START_SAMPLES = 3

# The reference kernel's median time on the VM the benchmark was built on
# (2 vCPUs, Python 3.11.7, numpy 2.4.6), and the number of kernel
# timings around an op whose median scales it.
REF_KERNEL_MS = 1.6
KERNEL_WINDOW = 9

# Spans written to the trace file; the per-layer numbers use all of them.
MAX_SPANS_WRITTEN = 100_000

END_TO_END = {
    "ref_ops_per_s": "1/s",
    "ref_op_ms.p50": "ms",
    "ref_op_ms.p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

# Per-layer metrics of the traced run: name -> unit. "calls" are mean
# calls per op; "self_ms" is the median over ops that made the call of
# the op's summed self time in that function.
PER_LAYER = {
    "scenario.from_dict.self_ms": "ms",
    "scenario.to_dict.calls": "count",
    "scenario.to_dict.self_ms": "ms",
    "scenario.json_in_bytes": "bytes",
    "twosv.weak_value.calls": "count",
    "twosv.weak_value.self_ms": "ms",
    "twosv.transition_amplitude.calls": "count",
    "twosv.transition_amplitude.self_ms": "ms",
    "twosv.evolve.self_ms": "ms",
    "twosv.retrodicted.self_ms": "ms",
    "qcore.apply.calls": "count",
    "qcore.apply.self_ms": "ms",
    "twosv.matvec_flops": "flop",
    "pointer.make_register.self_ms": "ms",
    "pointer.initial_state.self_ms": "ms",
    "pointer.couple_strong.calls": "count",
    "pointer.couple_strong.self_ms": "ms",
    "pointer.couple_weak.calls": "count",
    "pointer.couple_weak.self_ms": "ms",
    "pointer.postselect.self_ms": "ms",
    "pointer.composite_bytes": "bytes",
    "pointer.click_readout.self_ms": "ms",
    "pointer.pattern_amplitudes.self_ms": "ms",
    "readout.patterns_enumerated": "count",
    "readout.patterns_emitted": "count",
    "readout.pattern_yield": "frac",
    "readout.dense.pattern_yield": "frac",
    "readout.sparse.pattern_yield": "frac",
    "readout.dense.op_ms.p90": "ms",
    "readout.sparse.op_ms.p90": "ms",
    "runner.run_weak_values.self_ms": "ms",
    "runner.run_pointers.self_ms": "ms",
    "runner.disturbance_table.self_ms": "ms",
    "runner.simulate_reruns": "count",
    "runner.report_to_dict.self_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main.self_ms": "ms",
    "cli.render_text.self_ms": "ms",
    "cli.json_out_bytes": "bytes",
    "trace.overhead_frac": "frac",
    "wall.ops_per_s": "1/s",
    "wall.op_ms.p50": "ms",
    "wall.op_ms.p90": "ms",
    "host.kernel_ms": "ms",
}

# Computed from sizes, not measured.
COMPUTED = {
    "twosv.matvec_flops": "8 * d^2 * qcore.apply calls",
    "pointer.composite_bytes": "16 * d * 2^(pointers)",
    "readout.patterns_enumerated": "2^(strong pointers)",
}


def log(msg: str) -> None:
    print(msg, flush=True)


def percentile(values: list[float], q: float) -> float:
    """q-th percentile (0 < q < 100) by statistics.quantiles' default method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[int(q) - 1]


@functools.cache
def _kernel_inputs():
    import numpy as np  # after main() has pinned BLAS

    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    array = (rng.standard_normal(1 << 17) + 1j * rng.standard_normal(1 << 17)).reshape(8, 2, -1)
    return np, matrix, array


def kernel() -> float:
    """Time one run of the fixed reference kernel, in seconds.

    It does the three kinds of work wvlab's ops are made of: an
    interpreter loop building tuples and a dict (the readout's pattern
    loop), a chain of d=16 complex matmuls (the two-state engine), and
    sweeps over a 2 MB complex array (coupling and readout).
    """
    np, matrix, array = _kernel_inputs()
    t0 = time.perf_counter()
    table = {}
    for combo in itertools.product((0, 1), repeat=8):
        table[tuple(k for k, bit in enumerate(combo) if bit)] = float(sum(combo))
    m = matrix
    for _ in range(30):
        m = matrix @ m
        m = m / np.abs(m).max()
    (np.abs(array) ** 2).sum(axis=(0, 2))
    np.moveaxis(array, 1, 0).reshape(2, -1).sum(axis=1)
    return time.perf_counter() - t0


class Measurement:
    """Latencies and failures of the ops one phase ran."""

    def __init__(self, ops):
        self.ops = ops
        # (op index, op seconds, seconds of the kernel run just before it),
        # in the order the ops ran.
        self.runs: list[tuple[int, float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.passes = 0

    def record(self, i: int, seconds: float, kernel_s: float, problems: list) -> None:
        self.runs.append((i, seconds, kernel_s))
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{self.ops[i].label}: {problems[0]}")

    def samples(self, scaled: bool = True) -> list[list[float]]:
        """Each op's run latencies in seconds, scaled to the reference
        kernel time by the median of the KERNEL_WINDOW kernel timings
        centred on the run, or as measured."""
        out = [[] for _ in self.ops]
        kernels = [k for _, _, k in self.runs]
        half = KERNEL_WINDOW // 2
        for j, (i, seconds, _) in enumerate(self.runs):
            if scaled:
                lo = min(max(0, j - half), max(0, len(kernels) - KERNEL_WINDOW))
                seconds *= REF_KERNEL_MS / 1e3 / statistics.median(kernels[lo:lo + KERNEL_WINDOW])
            out[i].append(seconds)
        return out

    def op_ms(self, group: str | None = None, scaled: bool = True) -> list[float]:
        """Each op's latency: the median of its runs, in ms."""
        return [statistics.median(s) * 1e3 for s, op in zip(self.samples(scaled), self.ops)
                if s and group in (None, op.group)]

    def p(self, q: float, group: str | None = None) -> float:
        lat = self.op_ms(group)
        return percentile(lat, q) if lat else 0.0

    def kernel_ms(self) -> float:
        return statistics.median(k for _, _, k in self.runs) * 1e3


def run_op(op):
    """Run one op on the op clock; (seconds, output or None, problems)."""
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a failing op is a result, not an abort
        return time.perf_counter() - t0, None, [f"raised {type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - t0
    try:
        problems = op.check(out)
    except Exception as exc:
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    return elapsed, out, problems


def measure(ops, seconds: float) -> Measurement:
    """Passes over ops, in order, until `seconds` have gone by.

    The first pass always completes; after it the run stops at the first
    op boundary past the deadline, so every op runs once or more and the
    runs of each op are spread over the whole measurement.
    """
    m = Measurement(ops)
    deadline = time.perf_counter() + seconds
    while True:
        for i, op in enumerate(ops):
            if m.passes and time.perf_counter() >= deadline:
                return m
            kernel_s = kernel()
            elapsed, _, problems = run_op(op)
            m.record(i, elapsed, kernel_s, problems)
        m.passes += 1


def child_seconds(code: str) -> float:
    """Median wall time of `python -c code` started in the checkout."""
    env = dict(os.environ, PYTHONPATH="src")
    times = []
    for _ in range(START_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def set_up(workload) -> list[float]:
    times = []
    while len(times) < SETUP_MIN or (sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX):
        t0 = time.perf_counter()
        workload.build()
        workload.warm()
        times.append(time.perf_counter() - t0)
    return times


def timing(m: Measurement, prefix: str, scaled: bool) -> dict:
    """ops_per_s, op_ms.p50 and op_ms.p90 over the per-op latencies."""
    lat = m.op_ms(scaled=scaled)
    return {f"{prefix}ops_per_s": len(lat) / (sum(lat) / 1e3),
            f"{prefix}op_ms.p50": percentile(lat, 50),
            f"{prefix}op_ms.p90": percentile(lat, 90)}


def end_to_end(workload, ops, seconds: float, start_s: float, setup_times) -> tuple[dict, Measurement]:
    """Timing metrics over the fixed mix, each op at its median scaled latency.

    Each op runs in every pass, so its median is taken over runs spread
    across the whole measurement; a slow spell of the machine, or a
    single slow run, moves an op's figure only if it covers most of that
    op's runs. The mix has 100 ops, so the p90 has 10 ops beyond it.
    """
    m = measure(ops, seconds)
    values = {
        **timing(m, "ref_", scaled=True),
        "setup_s": start_s + statistics.median(setup_times),
        "peak_rss_mb": workload.peak_rss_mb(),
        "ok_frac": (m.attempted - m.failed) / m.attempted,
    }
    runs = [len(s) for s in m.samples()]
    log(f"samples: {len(ops)} ops, each at the median of its {min(runs)} to {max(runs)} runs "
        f"({m.attempted} runs; passes completed: {m.passes}); the p90 has "
        f"{len(ops) - int(0.9 * len(ops))} ops beyond it")
    wall = timing(m, "", scaled=False)
    log(f"unscaled: ops_per_s {wall['ops_per_s']:.4g}, op_ms.p50 {wall['op_ms.p50']:.4g}, "
        f"op_ms.p90 {wall['op_ms.p90']:.4g}; reference kernel median {m.kernel_ms():.4g} ms "
        f"(reference {REF_KERNEL_MS} ms)")
    log(f"setup: process start and imports {start_s:.3f} s, set-up repeats "
        + ", ".join(f"{t:.3f}" for t in setup_times) + " s")
    for group in sorted(set(op.group for op in ops)):
        glat = m.op_ms(group)
        log(f"{group}: {len(glat)} ops, median {statistics.median(glat):.3f} ms, "
            f"max {max(glat):.3f} ms")
    return values, m


def traced(workload, ops, seconds: float, seed: int, start_s: float) -> tuple[dict, Measurement, bool]:
    import spans

    replay_ops = workload.traced_ops(ops)
    # Untraced reference for the overhead: the same ops the traced pass runs.
    base = measure(ops, seconds) if replay_ops is ops else measure(replay_ops, 0)
    tracer = spans.Tracer()
    m = Measurement(replay_ops)
    loads = workload.load_ops()
    counts = {}
    with spans.installed(tracer):
        for k, op in enumerate(loads):
            with tracer.root(-1 - k):
                out = op.run()
            counts[-1 - k] = op.counts(out)
        for k, op in enumerate(replay_ops):
            kernel_s = kernel()
            with tracer.root(k):
                elapsed, out, problems = run_op(op)
            m.record(k, elapsed, kernel_s, problems)
            counts[k] = op.counts(out) if out is not None else {}
    rows = spans.per_op(tracer)
    op_rows = [rows.get(k, {"wall_ns": 0, "self_ns": {}, "calls": {}, "counters": {}})
               for k in range(len(replay_ops))]
    load_rows = [rows[-1 - k] for k in range(len(loads))]

    consistent = all(sum(r["self_ns"].values()) <= r["wall_ns"]
                     and min(r["self_ns"].values(), default=0) >= 0 for r in rows.values())

    metrics = layer_metrics(op_rows, load_rows, [counts[k] for k in range(len(replay_ops))],
                            [counts[-1 - k] for k in range(len(loads))],
                            [op.group for op in replay_ops])
    metrics["readout.dense.op_ms.p90"] = base.p(90, "dense")
    metrics["readout.sparse.op_ms.p90"] = base.p(90, "sparse")
    metrics["cli.import_ms"] = max(0.0, (start_s - child_seconds("pass")) * 1e3)
    metrics["trace.overhead_frac"] = m.p(50) / base.p(50) - 1.0
    metrics.update(timing(base, "wall.", scaled=False))
    metrics["host.kernel_ms"] = base.kernel_ms()

    write_trace(workload, seed, tracer, replay_ops, op_rows, counts, metrics, base, m, consistent)
    m.failed += base.failed
    m.problems = base.problems + m.problems
    m.attempted += base.attempted
    return metrics, m, consistent


def _median(xs) -> float:
    xs = list(xs)
    return float(statistics.median(xs)) if xs else 0.0


def layer_metrics(op_rows, load_rows, op_counts, load_counts, groups) -> dict:
    import spans

    n = len(op_rows)
    out = {}
    for mod, fn in spans.LAYER_FUNCTIONS:
        name = f"{mod}.{fn}"
        out[f"{name}.calls"] = sum(r["calls"].get(name, 0) for r in op_rows) / n
        out[f"{name}.self_ms"] = _median(r["self_ns"][name] / 1e6
                                         for r in op_rows + load_rows if name in r["calls"])
    out["runner.simulate_reruns"] = sum(r["counters"].get(spans.RERUN_COUNTER, 0)
                                        for r in op_rows) / n
    out["twosv.matvec_flops"] = _median(
        8 * c["dim"] ** 2 * r["calls"]["qcore.apply"]
        for r, c in zip(op_rows, op_counts) if "qcore.apply" in r["calls"] and "dim" in c)
    out["pointer.composite_bytes"] = _median(
        16 * c["composite_len"] for c in op_counts if c.get("composite_len"))
    runs = [(c, g) for c, g in zip(op_counts, groups) if "patterns_enumerated" in c]
    out["readout.patterns_enumerated"] = _median(c["patterns_enumerated"] for c, _ in runs)
    out["readout.patterns_emitted"] = _median(c["patterns_emitted"] for c, _ in runs)
    for key, sel in (("readout.pattern_yield", None), ("readout.dense.pattern_yield", "dense"),
                     ("readout.sparse.pattern_yield", "sparse")):
        chosen = [c for c, g in runs if sel in (None, g)]
        enumerated = sum(c["patterns_enumerated"] for c in chosen)
        out[key] = sum(c["patterns_emitted"] for c in chosen) / enumerated if enumerated else 0.0
    out["scenario.json_in_bytes"] = _median(
        c["json_in_bytes"] for c in op_counts + load_counts if c.get("json_in_bytes"))
    out["cli.json_out_bytes"] = _median(
        c["json_out_bytes"] for c in op_counts if c.get("json_out_bytes"))
    return out


def write_trace(workload, seed, tracer, ops, op_rows, counts, metrics, base, m, consistent):
    cols = tracer.columns()
    total = int(cols["id"].size)
    keep = min(total, MAX_SPANS_WRITTEN)
    names = ["id", "parent", "op", "name", "start_ns", "end_ns"]
    doc = {
        "workload": workload.name,
        "seed": seed,
        "trace.overhead_frac": metrics["trace.overhead_frac"],
        "untraced_op_ms.p50": base.p(50),
        "traced_op_ms.p50": m.p(50),
        "self_time_within_wall": consistent,
        "metrics": {k: {"value": metrics[k], "unit": u,
                        **({"computed": COMPUTED[k]} if k in COMPUTED else {})}
                    for k, u in PER_LAYER.items()},
        "ops": [
            {"op": k, "label": op.label, "group": op.group, "wall_ms": row["wall_ns"] / 1e6,
             "sizes": counts.get(k, {}),
             "self_ms": {n: v / 1e6 for n, v in row["self_ns"].items()},
             "calls": row["calls"], "counters": row["counters"]}
            for k, (op, row) in enumerate(zip(ops, op_rows))
        ],
        "spans": {
            "names": tracer.names,
            "columns": names,
            "total": total,
            "written": keep,
            "rows": [list(r) for r in zip(*(cols[c][:keep].tolist() for c in names))],
        },
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload.name}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    log(f"trace: {total} spans ({keep} written) -> {os.path.relpath(path, ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Pin BLAS before numpy loads, here and in every child process.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("WVLAB_TOLERANCE", None)
    # One CPU for the benchmark and its children, so the reference kernel
    # times the CPU every op runs on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if not os.path.isfile(os.path.join(SRC, "wvlab", "__init__.py")):
        print(f"error: no wvlab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import wvlab.cli

    if not os.path.realpath(wvlab.cli.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"error: wvlab imported from {wvlab.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, ROOT)
        # Process start plus imports, timed in fresh interpreters.
        start_s = child_seconds("import wvlab.cli")
        setup_times = set_up(workload)
        ops = workload.ops()
        # Inputs and references live for the whole run; keep them out of
        # the collector's way so its passes cost what the program makes.
        gc.collect()
        gc.freeze()
        log(f"workload {workload.name}, seed {args.seed}: {len(ops)} ops per pass")
        if args.trace:
            values, m, consistent = traced(workload, ops, args.seconds, args.seed, start_s)
            units = PER_LAYER
        else:
            values, m = end_to_end(workload, ops, args.seconds, start_s, setup_times)
            consistent = True
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in m.problems:
        log(f"FAILED {problem}")
    for name, unit in units.items():
        note = f"  (computed: {COMPUTED[name]})" if name in COMPUTED else ""
        log(f"{name:<36} {values[name]:>16.6g} {unit}{note}")
    result = {
        "correct": m.failed == 0 and consistent,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
