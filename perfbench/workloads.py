"""The three workloads: sweep, agents and cli.

Each workload has four parts. ``setup`` builds the inputs from the seed
(timed as set-up). ``run_pass`` does the measured work once and returns
one Op per operation, in a fixed order. ``truth`` computes the oracle side
of the checks, and ``check`` turns one Op into a list of problems; both run
outside the timed span. Every pass does identical work, so the run checks
the first pass in full and compares later passes with it.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import lapspec
from lapspec import cli as ls_cli
from lapspec import dynamics as ls_dynamics
from lapspec import estimation as ls_estimation
from lapspec import graph as ls_graph
from lapspec import oracle as ls_oracle

from . import checks, inputs
from .clock import Clock

WINDOW = 50.0  # the paper's estimation window, seconds
SWITCHING_SEED = 11
P5_SEED = 12345
ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


@dataclass
class Op:
    name: str
    value: object = None
    exc: BaseException | None = None


@dataclass
class Ctx:
    """What a pass records into: layer counters, spans and the clock."""

    counters: Counter
    tracer: object
    clock: Clock


def attempt(ctx: Ctx, name: str, fn, *args, **kwargs) -> Op:
    """Run and time one operation; an exception is kept, never raised."""
    try:
        return Op(name, ctx.clock.run(fn, *args, **kwargs))
    except Exception as exc:  # recorded as a failed operation by the checks
        return Op(name, exc=exc)


def simulate(ctx: Ctx, name: str, schedule, init) -> Op:
    cfg = ls_dynamics.SimConfig(t_end=schedule.t_end)
    op = attempt(ctx, name, ls_dynamics.simulate, schedule, cfg, init)
    if op.exc is None:
        trace, messages = op.value
        steps = (trace.num_samples - 1) * cfg.steps_per_sample()
        ctx.counters["dynamics.steps"] += steps
        ctx.counters["dynamics.agent_steps"] += steps * trace.n
        ctx.counters["dynamics.messages"] += messages.total
    return op


def estimate(ctx: Ctx, name: str, trace, agent: int, n_max: int,
             t_start=None, t_end=None, window: float = WINDOW) -> Op:
    def run():
        sig = ls_estimation.SampledSignal.from_trace(trace, agent, t_start=t_start, t_end=t_end)
        cfg = ls_estimation.FreqEstimatorConfig(n_max=n_max, window=window)
        return ls_estimation.estimate_frequencies(sig, cfg)

    op = attempt(ctx, name, run)
    if op.exc is None:
        ctx.counters["estimation.estimates"] += 1
        ctx.counters["estimation.lines"] += op.value.n
        ctx.counters["estimation.flag_false"] += not op.value.flag
    else:
        ctx.counters["estimation.errors"] += 1
    return op


def observe(ctx: Ctx, name: str, lap: np.ndarray, agent: int) -> Op:
    row = np.zeros((1, lap.shape[0]))
    row[0, agent] = 1.0
    return attempt(ctx, name, ls_oracle.verify_rank_relation, lap, row)


def write_graph(g, path: Path):
    """Write an edge-list input and read it back the way the program does."""
    path.write_text(ls_graph.serialize_edge_list(g))
    return ls_graph.parse_edge_list(path.read_text())


def state_at(trace, t: float):
    """(x, z) at the first sample at or after t."""
    lo, _ = trace.sample_range(t, trace.times[-1])
    return trace.x[lo], trace.z[lo]


def fingerprint_value(value) -> str:
    """Digest of an in-process result, for pass-to-pass identity."""
    if isinstance(value, tuple) and isinstance(value[0], ls_dynamics.Trace):
        trace, messages = value
        return checks.array_digest(trace.times, trace.x, trace.z, messages.per_agent)
    if isinstance(value, ls_estimation.SpectrumEstimate):
        return json.dumps(value.to_dict(), sort_keys=True)
    if isinstance(value, ls_estimation.SpectrogramData):
        return checks.array_digest(value.magnitude, value.omega, value.time_centers)
    if isinstance(value, ls_oracle.ObservabilityReport):
        return repr((value.rank_laplacian, value.rank_system, value.relation_holds))
    raise TypeError(f"no fingerprint for {type(value).__name__}")


def check_simulation(op: Op, h: float) -> list[tuple[str, str]]:
    trace, messages = op.value
    return checks.check_messages(messages.per_agent, messages.total, checks.trace_segments(trace, h))


H = ls_dynamics.SimConfig(t_end=WINDOW).step_size()


class Workload:
    """Shared defaults; ``work`` is a scratch directory inside the checkout."""

    def __init__(self, work: Path) -> None:
        self.work = work

    def fingerprint(self, op: Op) -> str:
        return fingerprint_value(op.value)

    def after_pass(self, k: int) -> None:
        """Called once pass k is fingerprinted, outside its wall time."""

    def replay(self, state, ctx: Ctx) -> list[Op]:
        return []


class Sweep(Workload):
    """Multi-graph study: 12 random simple-spectrum graphs, one agent each.

    The sizes cycle through 3..10 rather than being drawn, so that every
    seed does about the same amount of work; the graphs and initial states
    are random.
    """

    name = "sweep"
    graphs = 12

    def setup(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        cases = []
        while len(cases) < self.graphs:
            g = inputs.simple_spectrum_graph(rng, 3 + len(cases) % 8)
            init = inputs.well_conditioned_init(g, rng)
            if init is None:
                continue  # no agent sees every line; redraw
            g = write_graph(g, self.work / f"sweep_{len(cases)}.txt")
            cases.append((g, init))
        return cases

    def run_pass(self, cases, k: int, ctx: Ctx) -> list[Op]:
        ops = []
        for i, (g, (x0, z0, agent)) in enumerate(cases):
            sim = simulate(ctx, f"sweep.{i}.simulate", ls_graph.TopologySchedule.single(g, WINDOW),
                           (x0, z0))
            ops.append(sim)
            if sim.exc is None:
                ops.append(estimate(ctx, f"sweep.{i}.estimate", sim.value[0], agent, g.n + 2))
        return ops

    def truth(self, cases, ops: list[Op]):
        return [ls_oracle.eigendecompose(g) for g, _ in cases]

    def check(self, op: Op, cases, truth, ledger) -> list[tuple[str, str]]:
        i, kind = op.name.split(".")[1:]
        g, (x0, z0, agent) = cases[int(i)]
        if kind == "simulate":
            return check_simulation(op, H)
        est = op.value
        return checks.score_estimate(ledger, est.lambdas, est.flag, truth[int(i)], x0, z0,
                                     agent, g.n + 2, WINDOW)


class Agents(Workload):
    """Decentralized use: every agent estimates its own spectrum.

    Estimation cost and the rank defect's reach vary a lot from one random
    n = 12 graph to the next, so six graphs, not two, keep a seed's total
    close to another's.
    """

    name = "agents"
    n = 12
    graphs = 6
    n_max = 14
    segment_n_max = 8  # the CLI default, as for estimate --per-segment
    stft = (64, 8)     # window and hop, samples

    def setup(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        nets = []
        for k in range(self.graphs):
            g = write_graph(inputs.simple_spectrum_graph(rng, self.n), self.work / f"agents_{k}.txt")
            nets.append((g, ls_dynamics.random_init(g.n, int(rng.integers(0, 2**31)))))
        path = SCENARIOS / "switching.json"
        schedule = ls_graph.parse_schedule(path.read_text(), base_dir=path.parent)
        return nets, schedule, ls_dynamics.random_init(schedule.n, SWITCHING_SEED)

    def run_pass(self, state, k: int, ctx: Ctx) -> list[Op]:
        nets, schedule, init = state
        ops = []
        for i, (g, x0z0) in enumerate(nets):
            sim = simulate(ctx, f"net{i}.simulate", ls_graph.TopologySchedule.single(g, WINDOW), x0z0)
            ops.append(sim)
            if sim.exc is None:
                ops += [estimate(ctx, f"net{i}.estimate.{a}", sim.value[0], a, self.n_max)
                        for a in range(g.n)]
            lap = ctx.clock.run(ls_graph.build_laplacian, g)
            ops += [observe(ctx, f"net{i}.rank.{a}", lap, a) for a in range(g.n)]
        sim = simulate(ctx, "switching.simulate", schedule, init)
        ops.append(sim)
        if sim.exc is None:
            trace = sim.value[0]
            for a in range(schedule.n):
                for s, seg in enumerate(schedule.segments):
                    ops.append(estimate(ctx, f"switching.estimate.{a}.{s}", trace, a,
                                        self.segment_n_max, seg.t_start, seg.t_end,
                                        seg.t_end - seg.t_start))
                ops.append(attempt(ctx, f"switching.spectrogram.{a}", ls_estimation.spectrogram,
                                   ls_estimation.SampledSignal.from_trace(trace, a), *self.stft))
        for s, seg in enumerate(schedule.segments):
            lap = ctx.clock.run(ls_graph.build_laplacian, seg.graph)
            ops += [observe(ctx, f"switching.rank.{a}.{s}", lap, a) for a in range(schedule.n)]
        return ops

    def truth(self, state, ops: list[Op]):
        nets, schedule, _ = state
        sim = next((op for op in ops if op.name == "switching.simulate"), None)
        return ([ls_oracle.eigendecompose(g) for g, _ in nets],
                [ls_oracle.eigendecompose(seg.graph) for seg in schedule.segments],
                sim.value[0] if sim is not None and sim.exc is None else None)

    def check(self, op: Op, state, truth, ledger) -> list[tuple[str, str]]:
        nets, schedule, _ = state
        net_decs, seg_decs, trace = truth
        part, kind, *idx = op.name.split(".")
        if kind == "simulate":
            return check_simulation(op, H)
        if part.startswith("net"):
            i, a = int(part[3:]), int(idx[0])
            dec = net_decs[i]
            if kind == "rank":
                return checks.check_rank_report(op.value, dec, a, ledger)
            x0, z0 = nets[i][1]
            return checks.score_estimate(ledger, op.value.lambdas, op.value.flag, dec, x0, z0, a,
                                         self.n_max, WINDOW)
        a = int(idx[0])
        if kind == "rank":
            return checks.check_rank_report(op.value, seg_decs[int(idx[1])], a, ledger)
        if kind == "spectrogram":
            return checks.check_spectrogram(op.value.magnitude, trace.x[:, a], *self.stft, rtol=1e-9)
        seg = schedule.segments[int(idx[1])]
        x, z = state_at(trace, seg.t_start)
        return checks.score_estimate(ledger, op.value.lambdas, op.value.flag, seg_decs[int(idx[1])],
                                     x, z, a, self.segment_n_max, seg.t_end - seg.t_start)


class Cli(Workload):
    """The command line as users run it: one fresh process per command.

    Each command runs as ``python -m perfbench.launch SAMPLES [arguments]``,
    which runs ``lapspec.cli`` as ``python -m lapspec.cli`` would and samples
    the host's speed inside the process (launch.py, Clock.run_child).
    """

    name = "cli"
    big_n = 2000
    big_max_deg = 8  # well under the Nyquist guard of 24 at the default rate
    command_timeout = 60.0

    def setup(self, seed: int):
        self.big_trace_digests = []
        rng = np.random.default_rng([seed, 3])
        path60 = self.work / "path60.txt"
        path60.write_text(ls_graph.serialize_edge_list(ls_graph.path_graph(60)))
        big = inputs.sparse_connected_graph(rng, self.big_n, self.big_max_deg)
        big_path = self.work / "big.txt"
        big_path.write_text(ls_graph.serialize_edge_list(big))
        return {
            "path60": path60,
            "path60_seed": int(rng.integers(0, 2**31)),
            "big": big,
            "big_path": big_path,
            "big_seed": int(rng.integers(0, 2**31)),
        }

    def commands(self, st, k: int) -> list[tuple[str, list[str]]]:
        d = self.work / f"pass{k}"
        p5, sw = str(SCENARIOS / "p5.txt"), str(SCENARIOS / "switching.json")
        return [
            ("version", ["--version"]),
            ("simulate.p5", ["simulate", p5, "--seed", str(P5_SEED), "--out-dir", str(d / "p5")]),
            ("estimate.p5", ["estimate", str(d / "p5" / "trace.csv"), "--agent", "0"]),
            ("validate.p5", ["validate", p5, "--agent", "2", "--seed", str(P5_SEED), "--t-end", "50"]),
            ("simulate.switching", ["simulate", sw, "--seed", str(SWITCHING_SEED),
                                    "--out-dir", str(d / "sw")]),
            ("estimate.switching", ["estimate", str(d / "sw" / "trace.csv"), "--agent", "1",
                                    "--per-segment", "--schedule", sw]),
            ("spectrogram.switching", ["spectrogram", str(d / "sw" / "trace.csv"), "--agent", "1",
                                       "--window-len", "64", "--hop", "8", "--out-dir", str(d / "sw")]),
            ("validate.switching", ["validate", sw, "--agent", "1", "--seed", str(SWITCHING_SEED)]),
            ("rounds.switching", ["rounds", sw]),
            ("validate.path60", ["validate", str(st["path60"]), "--agent", "0",
                                 "--seed", str(st["path60_seed"]), "--t-end", "50"]),
            ("simulate.big", ["simulate", str(st["big_path"]), "--seed", str(st["big_seed"]),
                              "--out-dir", str(d / "big")]),
            ("estimate.big", ["estimate", str(d / "big" / "trace.csv"), "--agent", "0"]),
        ]

    @staticmethod
    def env() -> dict:
        env = {k: v for k, v in os.environ.items() if k != "LAPSPEC_OUT_DIR"}
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        return env

    def run_pass(self, st, k: int, ctx: Ctx) -> list[Op]:
        env = self.env()
        ops = []
        samples = self.work / "samples.json"
        for name, args in self.commands(st, k):
            with ctx.tracer.span(f"cli.cmd.{name.split('.')[0]}"):
                try:
                    op = Op(name, ctx.clock.run_child(
                        samples, subprocess.run,
                        [sys.executable, "-m", "perfbench.launch", str(samples), *args],
                        cwd=ROOT, env=env, capture_output=True, text=True,
                        timeout=self.command_timeout))
                except Exception as exc:  # recorded as a failed operation by the checks
                    op = Op(name, exc=exc)
            op.value = (k, op.value)
            ops.append(op)
        d = self.work / f"pass{k}"
        ctx.counters["cli.trace_bytes"] += sum(
            (d / sub / "trace.csv").stat().st_size
            for sub in ("p5", "sw", "big") if (d / sub / "trace.csv").exists()
        )
        return ops

    def truth(self, st, ops: list[Op]):
        p5 = ls_graph.parse_edge_list((SCENARIOS / "p5.txt").read_text())
        p5_init = ls_dynamics.random_init(p5.n, P5_SEED)
        p5_trace, _ = ls_dynamics.simulate(ls_graph.TopologySchedule.single(p5, WINDOW),
                                           ls_dynamics.SimConfig(t_end=WINDOW), p5_init)
        path = SCENARIOS / "switching.json"
        sched = ls_graph.parse_schedule(path.read_text(), base_dir=path.parent)
        sw_init = ls_dynamics.random_init(sched.n, SWITCHING_SEED)
        sw_trace, _ = ls_dynamics.simulate(sched, ls_dynamics.SimConfig(t_end=sched.t_end), sw_init)
        path60 = ls_graph.path_graph(60)
        return {
            "p5": (p5, p5_init, p5_trace),
            "switching": (sched, sw_init, sw_trace),
            "path60": (path60, ls_dynamics.random_init(60, st["path60_seed"])),
            "big": st["big"],
        }

    @staticmethod
    def segment_truth(trace) -> list[dict]:
        out = []
        for span in trace.segments:
            x, z = state_at(trace, span.t_start)
            out.append({"dec": ls_oracle.eigendecompose(span.graph), "x": x, "z": z})
        return out

    def fingerprint(self, op: Op) -> str:
        k, proc = op.value
        parts = [str(proc.returncode), proc.stdout.replace(str(self.work / f"pass{k}"), "<out>")]
        out = self._out_dir(op, k)
        if out is not None:
            for f in sorted(out.glob("*.csv")) + sorted(out.glob("messages.json")):
                parts.append(checks.file_digest(f))
                if op.name == "simulate.big" and f.name == "trace.csv":
                    self.big_trace_digests.append(parts[-1])
        return "/".join(parts)

    def after_pass(self, k: int) -> None:
        # Drop the 64 MB trace before its dirty pages are written back during
        # the next pass; later passes are only compared by fingerprint.
        (self.work / f"pass{k}" / "big" / "trace.csv").unlink(missing_ok=True)
        if k > 0:
            shutil.rmtree(self.work / f"pass{k}", ignore_errors=True)

    def _out_dir(self, op: Op, k: int) -> Path | None:
        kind, _, case = op.name.partition(".")
        if kind not in ("simulate", "spectrogram"):
            return None
        return self.work / f"pass{k}" / {"p5": "p5", "switching": "sw", "big": "big"}[case]

    def check(self, op: Op, st, truth, ledger) -> list[tuple[str, str]]:
        k, proc = op.value
        if proc.returncode != 0:
            return [("exit", f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")]
        kind, _, case = op.name.partition(".")
        if kind == "version":
            ok = proc.stdout.strip() == f"lapspec {lapspec.__version__}"
            return [] if ok else [("output", f"version {proc.stdout.strip()!r}")]
        if kind == "rounds":
            sched = truth["switching"][0]
            delta = max(int(checks.degrees(seg.graph).max()) for seg in sched.segments)
            want = math.ceil(4 * delta * 2 * math.pi * ls_dynamics.DEFAULT_SAMPLE_RATE - 1e-9)
            got = json.loads(proc.stdout)["bound"]
            return [] if got == want else [("output", f"rounds bound {got} != {want}")]
        out = self._out_dir(op, k)
        if kind == "simulate":
            return self._check_simulate(case, out, truth)
        if kind == "spectrogram":
            trace = truth["switching"][2]
            mags = np.loadtxt(out / "spectrogram.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1:]
            return checks.check_spectrogram(mags, trace.x[:, 1], 64, 8, rtol=1e-7)
        payload = json.loads(proc.stdout)
        if kind == "validate":
            if case == "switching":
                sched, (x0, z0), trace = truth["switching"]
                segs = self.segment_truth(trace)
                agent = 1
            else:
                g, (x0, z0) = truth["path60"] if case == "path60" else truth["p5"][:2]
                segs = [{"dec": ls_oracle.eigendecompose(g), "x": x0, "z": z0}]
                agent = 2 if case == "p5" else 0
            return checks.check_validate(payload, segs, x0, z0, agent, ledger, n_max=8)
        if case == "p5":
            g, (x0, z0), _ = truth["p5"]
            est = payload["estimate"]
            return checks.score_estimate(ledger, est["lambda"], est["flag"],
                                         ls_oracle.eigendecompose(g), x0, z0, 0, 8, WINDOW)
        if case == "switching":
            problems = []
            segs = self.segment_truth(truth["switching"][2])
            for seg, t in zip(payload["per_segment"], segs):
                if "estimate" not in seg:
                    problems.append(("raised", seg.get("error", "no estimate")))
                    continue
                est = seg["estimate"]
                problems += checks.score_estimate(ledger, est["lambda"], est["flag"], t["dec"],
                                                  t["x"], t["z"], 1, 8, seg["t_end"] - seg["t_start"])
            return problems
        # estimate.big: the spectrum is denser than n_max, so only sanity is checked
        lam = np.asarray(payload["estimate"]["lambda"])
        top = 2 * int(checks.degrees(truth["big"]).max())
        if lam.size > 8 or np.any(lam < 0) or np.any(lam > top + checks.HIT_TOL):
            return [("estimate", f"lambdas {lam.tolist()} outside [0, {top}]")]
        return []

    def _check_simulate(self, case: str, out: Path, truth) -> list[tuple[str, str]]:
        messages = json.loads((out / "messages.json").read_text())
        if case == "big":
            cfg = ls_dynamics.SimConfig(t_end=WINDOW)
            segments = [(truth["big"], (cfg.num_samples() - 1) * cfg.steps_per_sample())]
        else:
            ref = truth["p5" if case == "p5" else "switching"][2]
            segments = checks.trace_segments(ref, H)
        problems = checks.check_messages(messages["per_agent"], messages["total"], segments)
        if case != "big":
            back = ls_cli.read_trace_csv(out / "trace.csv")
            if not all(np.array_equal(a, b) for a, b in
                       ((back.times, ref.times), (back.x, ref.x), (back.z, ref.z))):
                problems.append(("roundtrip", "trace CSV differs from the in-process trace"))
        return problems

    def replay(self, st, ctx: Ctx) -> list[Op]:
        """The 2000-agent path in-process, through the calls the CLI makes."""
        path = self.work / "replay" / "trace.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        parse = attempt(ctx, "replay.parse", ls_graph.parse_edge_list, st["big_path"].read_text())
        if parse.exc is not None:
            return [parse]
        g = parse.value
        sim = simulate(ctx, "replay.simulate", ls_graph.TopologySchedule.single(g, WINDOW),
                       ls_dynamics.random_init(g.n, st["big_seed"]))
        if sim.exc is not None:
            return [parse, sim]
        write = attempt(ctx, "replay.write", ls_cli.write_trace_csv, sim.value[0], path)
        read = attempt(ctx, "replay.read", ls_cli.read_trace_csv, path)
        ops = [parse, sim, write, read]
        if read.exc is None:
            back = read.value
            window = min(WINDOW, float(back.times[-1] - back.times[0]))
            ops.append(estimate(ctx, "replay.estimate", back, 0, 8, window=window))
        return ops

    def check_replay(self, ops: list[Op], first_pass: list[Op], ledger) -> None:
        """Round trip bit-exact, and the same trace file and estimate as the CLI."""
        cli = {op.name: op for op in first_pass}
        sim = next((op for op in ops if op.name == "replay.simulate"), None)
        trace = sim.value[0] if sim is not None and sim.exc is None else None
        for op in ops:
            problems = checks.raised(op.exc)
            if op.exc is None and op.name == "replay.simulate":
                problems += check_simulation(op, H)
            elif op.exc is None and op.name == "replay.write":
                if checks.file_digest(self.work / "replay" / "trace.csv") != self.big_trace_digests[0]:
                    problems.append(("digest", "in-process trace CSV differs from the CLI's"))
            elif op.exc is None and op.name == "replay.read":
                back = op.value
                if not all(np.array_equal(a, b) for a, b in
                           ((back.times, trace.times), (back.x, trace.x), (back.z, trace.z))):
                    problems.append(("roundtrip", "write/read of the trace CSV is not bit-exact"))
            elif op.exc is None and op.name == "replay.estimate":
                _, proc = cli["estimate.big"].value
                want = json.loads(proc.stdout)["estimate"] if proc.returncode == 0 else None
                if json.loads(json.dumps(op.value.to_dict())) != want:
                    problems.append(("replay", "in-process estimate differs from the CLI's"))
            ledger.record(op.name, problems)
