"""Run one lapspec benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout; it imports lapspec from ``src/`` there
and exits non-zero, printing no result, when that is missing. With
``--trace 0`` it sets up the inputs several times, repeats the workload's
pass until ``--seconds`` are spent, checks every output, and reports the
end-to-end metrics (medians over set-ups and passes). With ``--trace 1``
it alternates untraced and traced passes and reports the per-layer
metrics, including the tracing overhead. The last line of standard
output is one JSON object; a result file with the machine description,
every failure and, for traced runs, the spans goes to perfbench/out/.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "recall": "ratio",
    "precision": "ratio",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "graph.parse_s": "s",
    "graph.laplacian_s": "s",
    "graph.self_s": "s",
    "dynamics.simulate_s": "s",
    "dynamics.steps": "count",
    "dynamics.agent_steps": "count",
    "dynamics.us_per_step": "us",
    "dynamics.messages": "count",
    "dynamics.self_s": "s",
    "oracle.eig_s": "s",
    "oracle.rank_s": "s",
    "oracle.coeff_s": "s",
    "oracle.rank_wrong": "count",
    "oracle.self_s": "s",
    "estimation.estimate_s": "s",
    "estimation.estimates": "count",
    "estimation.ms_per_estimate": "ms",
    "estimation.lines": "count",
    "estimation.flag_false": "count",
    "estimation.errors": "count",
    "estimation.spectrogram_s": "s",
    "estimation.lambda_err_max": "rad/s",
    "estimation.self_s": "s",
    "cli.startup_s": "s",
    "cli.simulate_s": "s",
    "cli.estimate_s": "s",
    "cli.validate_s": "s",
    "cli.spectrogram_s": "s",
    "cli.rounds_s": "s",
    "cli.trace_write_s": "s",
    "cli.trace_read_s": "s",
    "cli.trace_mb": "MB",
    "cli.self_s": "s",
    "bench.self_s": "s",
    "bench.calib_ms": "ms",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("sweep", "agents", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def import_lapspec() -> None:
    """Import lapspec from the checkout's src/.

    OpenBLAS is limited to one thread first, for this process and the CLI
    processes it starts: its idle workers otherwise spin on the second of
    two cores and slow whatever runs next by a varying amount.
    """
    src = ROOT / "src"
    if not (src / "lapspec" / "__init__.py").is_file():
        sys.exit(f"error: {src}/lapspec not found; run from a lapspec checkout")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(src))
    import lapspec
    if Path(lapspec.__file__).resolve().parent != (src / "lapspec").resolve():
        sys.exit(f"error: imported lapspec from {lapspec.__file__}, not from {src}")


# Run in a fresh interpreter: time `import lapspec` (numpy included), then
# scale it by the median of five calibration samples taken right after.
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import lapspec; "
    "took = time.perf_counter() - start; import statistics; "
    "from perfbench.clock import REFERENCE_S, calibrate; "
    "print(took * REFERENCE_S / statistics.median(calibrate() for _ in range(5)))"
)


def import_seconds() -> list[float]:
    """`import lapspec` in SETUP_REPEATS fresh processes, in reference seconds.

    One import per run, in this process, spread too much to be part of
    setup_s; the median of several does not.
    """
    from perfbench.workloads import Cli

    return [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=Cli.env(),
                                 capture_output=True, text=True, check=True, timeout=60).stdout)
            for _ in range(SETUP_REPEATS)]


def blas_threads():
    """OpenBLAS thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
    }


@dataclass
class Pass:
    traced: bool
    wall: float       # speed-corrected operation time, reference seconds
    raw_wall: float   # the same operations in plain seconds
    calibrations: list
    ops: list
    counters: Counter
    spans: list
    fingerprints: dict


def run_passes(wl, state, seconds: float, tracer) -> list[Pass]:
    """Repeat the pass while the next one fits in the budget.

    With a Tracer, untraced and traced passes alternate and at least one of
    each runs. Outputs are fingerprinted after each pass, outside its wall
    time, so that the workload can drop large output files at once.
    """
    from perfbench.clock import Clock, sampling
    from perfbench.tracing import NullTracer, instrument
    from perfbench.workloads import Ctx

    passes = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        k = len(passes)
        on = tracer is not None and k % 2 == 1
        active = tracer if on else NullTracer()
        mark = active.mark()
        ctx = Ctx(Counter(), active, Clock())
        t0 = time.perf_counter()
        with sampling():
            with instrument(active) if on else nullcontext():
                with active.span("bench.pass"):
                    ops = wl.run_pass(state, k, ctx)
            ctx.clock.settle()
        elapsed = time.perf_counter() - t0
        fps = {op.name: "raised" if op.exc is not None else wl.fingerprint(op) for op in ops}
        wl.after_pass(k)
        # Later passes are checked by fingerprint only; dropping their outputs
        # keeps memory from growing with the number of passes that fit.
        passes.append(Pass(on, ctx.clock.reference_s, ctx.clock.raw_s, ctx.clock.calibrations,
                           ops if k == 0 else [], ctx.counters, active.spans[mark:], fps))
        longest = max(longest, elapsed)
        if tracer is not None and len(passes) < 2:
            continue
        if time.perf_counter() - start + longest > seconds:
            return passes


def check_passes(wl, state, passes: list[Pass], ledger) -> str:
    """Check the first pass in full; later passes must repeat it exactly.

    Each operation is recorded once, however many passes ran, so that
    `attempted` and `failed` depend on the seed only: an operation fails if
    its first-pass check fails or a later pass gives a different output.
    Returns a digest over the first pass's outputs (traces, estimates and
    files), identical across runs at one seed.
    """
    from perfbench import checks

    first = passes[0]
    truth = wl.truth(state, first.ops)
    problems = {}
    for op in first.ops:
        if op.exc is not None:
            problems[op.name] = checks.raised(op.exc)
        else:
            try:
                problems[op.name] = wl.check(op, state, truth, ledger)
            except (KeyError, ValueError, TypeError, IndexError, OSError) as exc:
                problems[op.name] = [("output", f"unreadable output: {type(exc).__name__}: {exc}")]
    for k, p in enumerate(passes[1:], 1):
        for name, fp in p.fingerprints.items():
            if first.fingerprints.get(name) != fp:
                problems.setdefault(name, []).append(
                    ("digest", f"pass {k} output differs from the first pass"))
    for name, probs in problems.items():
        ledger.record(name, probs)
    return hashlib.sha256("".join(first.fingerprints.values()).encode()).hexdigest()


def layer_metrics(passes: list[Pass], setup_spans, replay_spans, replay_counters, ledger) -> dict:
    from perfbench.tracing import layer_self_times, time_metrics

    traced = [p for p in passes if p.traced]
    samples = []
    for p in traced:
        spans = setup_spans + p.spans + replay_spans
        m = time_metrics(spans)
        m.update({f"{layer}.self_s": v for layer, v in layer_self_times(spans).items()})
        m["trace.spans"] = len(spans)
        samples.append(m)
    metrics = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    counts = traced[0].counters + replay_counters
    steps = counts["dynamics.steps"]
    estimates = counts["estimation.estimates"]
    metrics.update({
        "dynamics.steps": steps,
        "dynamics.agent_steps": counts["dynamics.agent_steps"],
        "dynamics.messages": counts["dynamics.messages"],
        "dynamics.us_per_step": 1e6 * metrics["dynamics.simulate_s"] / steps if steps else 0.0,
        "estimation.estimates": estimates,
        "estimation.lines": counts["estimation.lines"],
        "estimation.flag_false": counts["estimation.flag_false"],
        "estimation.errors": counts["estimation.errors"],
        "estimation.ms_per_estimate":
            1e3 * metrics["estimation.estimate_s"] / estimates if estimates else 0.0,
        "estimation.lambda_err_max": ledger.lambda_err_max,
        "oracle.rank_wrong": ledger.rank_wrong,
        "cli.trace_mb": counts["cli.trace_bytes"] / 1e6,
        "trace.overhead_s": statistics.median(p.wall for p in traced)
        - statistics.median(p.wall for p in passes if not p.traced),
        "bench.calib_ms": 1e3 * statistics.median(c for p in passes for c in p.calibrations),
    })
    return metrics


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) * 1024 / 1e6  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    args = parse_args(argv)
    import_lapspec()
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads

    work = OUT / f"work-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = {"sweep": workloads.Sweep, "agents": workloads.Agents, "cli": workloads.Cli}[args.workload](work)
    try:
        return measure(args, wl)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, wl) -> int:
    """Set up, run the passes, check them, and report; returns the exit code."""
    from perfbench import checks, workloads
    from perfbench.clock import Clock, sampling
    from perfbench.tracing import Tracer, instrument

    # One tracer for the whole traced run, so span ids are unique.
    tracer = Tracer() if args.trace else None
    setup_spans, replay_spans, replay_counters = [], [], Counter()
    setup_times, import_times = [], []
    if tracer is not None:
        with instrument(tracer), tracer.span("bench.setup"):
            state = wl.setup(args.seed)
        setup_spans = tracer.spans[:]
    else:
        import_times = import_seconds()
        for _ in range(SETUP_REPEATS):
            clock = Clock()
            with sampling():
                state = clock.run(wl.setup, args.seed)
                clock.settle()
            setup_times.append(clock.reference_s)

    passes = run_passes(wl, state, args.seconds, tracer)

    replay_ops = []
    if tracer is not None:
        mark = tracer.mark()
        with instrument(tracer), tracer.span("bench.replay"):
            replay_ops = wl.replay(state, workloads.Ctx(replay_counters, tracer, Clock()))
        replay_spans = tracer.spans[mark:]

    ledger = checks.Ledger()
    digest = check_passes(wl, state, passes, ledger)
    if replay_ops:
        wl.check_replay(replay_ops, passes[0].ops, ledger)
    unexpected = ledger.unexpected()

    if args.trace:
        metrics = layer_metrics(passes, setup_spans, replay_spans, replay_counters, ledger)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(import_times) + statistics.median(setup_times),
            "wall_s": statistics.median(p.wall for p in passes),
            "recall": ledger.hits / ledger.targets if ledger.targets else 0.0,
            "precision": 1.0 - ledger.spurious / ledger.lines if ledger.lines else 0.0,
            "success_ratio": 1.0 - ledger.failed / ledger.attempted,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END

    result = {
        "correct": not unexpected,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "args": vars(args),
        "machine": machine(),
        "result": result,
        "digest": digest,
        "import_times_s": import_times,
        "setup_times_s": setup_times,
        "passes": [{"traced": p.traced, "wall_s": p.wall, "raw_wall_s": p.raw_wall,
                    "calib_ms": 1e3 * statistics.median(p.calibrations)} for p in passes],
        "failures": [{"op": op, "problems": probs} for op, probs in ledger.failures],
        "unexpected": [op for op, _ in unexpected],
        "known_defects": checks.KNOWN_DEFECTS,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        stem.with_name(stem.name + "-spans.json").write_text(json.dumps(
            [{"id": s.sid, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
             for s in tracer.spans]) + "\n")

    kinds = Counter(kind for _, probs in ledger.failures for kind, _ in probs)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"digest={digest[:16]} failures={dict(kinds)}")
    for op, probs in unexpected:
        print(f"# UNEXPECTED {op}: {probs}")
    for k in units:
        print(f"{k:28s} {metrics[k]:>16.6g} {units[k]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
