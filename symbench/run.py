"""Benchmark of the symrd command line, end to end and per layer.

    python3 symbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Requests go back to back, one client,
through symrd.cli.main with standard output and error captured; every
output is checked against symbench/refs.py.  Times are scaled to a
reference machine speed by calibration kernels timed next to them
(symbench/calibrate.py).  The last line printed is a
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  The exit
code is 0 when every output passed, 1 when one did not, and 2 when the
checkout has no symrd sources.  See symbench/README.md.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import calibrate
import checks
import inputs
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".symbench"
SETUP_SAMPLES = 9
# Calibration kernel of each workload (calibrate.py) and its runs before
# each request: a sweep request takes a few ms, a simulation about a second
# (sim-long) or a third of one (sim-wide).
KERNEL = {"sweep": ("python", 1), "certify": ("python", 1),
          "sim-long": ("long", 2), "sim-wide": ("wide", 3)}
SETUP_CODE = """import time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import symrd.cli
t2 = time.perf_counter()
print(t1 - t0, t2 - t1, symrd.cli.__file__)
"""


class Failure(Exception):
    """The benchmark cannot run here (no symrd sources, or another symrd)."""


def _inside_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def setup_sample() -> tuple[float, float]:
    """Import times of numpy and then symrd.cli in a fresh interpreter, in s."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise Failure(f"importing symrd.cli failed: {proc.stderr.strip()[-500:]}")
    t_numpy, t_symrd, path = proc.stdout.split()
    if not _inside_src(path):
        raise Failure(f"symrd.cli resolved to {path}, not to {SRC}")
    return float(t_numpy), float(t_symrd)


def scaled_setup_sample(cal: calibrate.Calibration) -> tuple[float, float, float]:
    """A set-up sample scaled by python-kernel runs around it; also its wall sum."""
    cal.sample(5)
    t_numpy, t_symrd = setup_sample()
    cal.sample(5)
    factor = cal.factor()
    return t_numpy * factor, t_symrd * factor, t_numpy + t_symrd


def import_symrd():
    sys.path.insert(0, str(SRC))
    import symrd.cli
    if not _inside_src(symrd.cli.__file__):
        raise Failure(f"symrd.cli resolved to {symrd.cli.__file__}, not to {SRC}")
    return symrd.cli


class Runner:
    """Sends the cases of a workload through cli.main and checks each output."""

    def __init__(self, main, cases, paths, seed):
        self.main, self.cases, self.paths, self.seed = main, cases, paths, seed
        self.requests = 0
        self.errors = []
        self.reference = {}        # case index -> (code, stdout, stderr), sweeps only

    def call(self, i, tracer=None):
        """One request; returns (exit code, stdout, stderr, spans, wall ns)."""
        argv = self.cases[i].argv(self.paths[i], self.requests, self.seed)
        self.requests += 1
        out, err = io.StringIO(), io.StringIO()
        code = None
        with redirect_stdout(out), redirect_stderr(err):
            root = tracer.begin("cli.request") if tracer else None
            start = time.perf_counter_ns()
            try:
                code = self.main(argv)
            except (Exception, SystemExit):
                traceback.print_exc()
            elapsed = time.perf_counter_ns() - start
            if tracer:
                tracer.end(root)
        return code, out.getvalue(), err.getvalue(), tracer.take() if tracer else None, elapsed

    def check(self, i, code, stdout, stderr) -> tuple[int, bool]:
        """Check one output; returns (items completed, hit the known fault)."""
        case = self.cases[i]
        # An item is one sampled source component (n L) of a simulation,
        # and one CSV grid row of a sweep.
        if case.command == "simulate":
            errors = checks.check_simulate(case, code, stdout, stderr)
            items = case.n * case.L if code == 0 else 0
        else:
            items = max(stdout.count("\n") - 1, 0)
            if i not in self.reference:
                errors = checks.check_sweep(case, code, stdout, stderr)
                self.reference[i] = (code, stdout, stderr)
            elif self.reference[i] != (code, stdout, stderr):
                # Sweeps are deterministic: later rounds repeat the first byte for byte.
                errors = ["output differs from the first round"]
            else:
                errors = []
        self.errors += [f"{case.name}: {m}" for m in errors]
        return items, checks.is_fault(case, code, stderr)

    def check_unit_copies(self) -> None:
        for i, case in enumerate(self.cases):
            if case.unit_of is not None:
                unit = case.unit_of
                errors = checks.check_unit_copy(self.cases[unit], self.reference[unit][1],
                                                case, self.reference[i][1])
                self.errors += [f"{case.name}: {m}" for m in errors]


def run(args) -> tuple[dict, dict]:
    cases = inputs.build(args.workload, args.seed)
    paths = inputs.write_specs(cases, OUT / "specs" / f"{args.workload}-seed{args.seed}")
    setup_cal = calibrate.Calibration("python")
    setup_cal.sample(3)
    setup = [scaled_setup_sample(setup_cal)]
    cli = import_symrd()
    runner = Runner(cli.main, cases, paths, args.seed)
    command = cases[0].command

    # Warm-up, not timed: one whole round (the outputs of sweeps become the
    # byte references of later rounds).
    for i in range(len(cases)):
        code, stdout, stderr, _, _ = runner.call(i)
        runner.check(i, code, stdout, stderr)
    if command == "sweep":
        runner.check_unit_copies()
    # Peak memory over a fixed amount of work, the set-up and the warm-up
    # round, before any calibration kernel has run: heap growth in later
    # rounds would make it depend on how many rounds the machine's speed
    # lets a run complete.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    kernel, kernel_reps = KERNEL[args.workload]
    cal = calibrate.Calibration(kernel)
    cal.sample(5)
    cal.factor()

    tracer = spans.Tracer() if args.trace else None
    totals, first_spans = spans.Totals(), []
    plain_ns, scaled_ns, traced_ns, rows, items, attempted, failed = [], [], [], 0, 0, 0, 0
    modules = {name: sys.modules[name] for name, _, _ in spans.TARGETS}
    start, rounds = time.perf_counter(), 0
    while True:
        # With --trace 1, rounds alternate untraced and traced, so the two
        # request medians give the tracing overhead under the same load.
        traced = tracer is not None and rounds % 2 == 1
        round_ns = []
        with spans.installed(tracer, modules) if traced else nullcontext():
            for i in range(len(cases)):
                cal.sample(kernel_reps)
                code, stdout, stderr, request_spans, elapsed = runner.call(i, tracer if traced else None)
                done, fault = runner.check(i, code, stdout, stderr)
                attempted += 1
                failed += fault
                if traced:
                    traced_ns.append(request_spans[0][2] - request_spans[0][1])
                    totals.add(request_spans)
                    rows += max(stdout.count("\n") - 1, 0)
                    if rounds == 1:
                        first_spans.append(request_spans)
                else:
                    round_ns.append(elapsed)
                    items += done
        factor = cal.factor()
        plain_ns += round_ns
        scaled_ns += [t * factor for t in round_ns]
        rounds += 1
        elapsed_s = time.perf_counter() - start
        # Set-up samples are spread over the run, between rounds, so that
        # they see the same machine as the requests do.
        if len(setup) < SETUP_SAMPLES and elapsed_s >= len(setup) * args.seconds / SETUP_SAMPLES:
            setup.append(scaled_setup_sample(setup_cal))
        if elapsed_s >= args.seconds and (tracer is None or rounds % 2 == 0):
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(scaled_setup_sample(setup_cal))
    numpy_s, symrd_s, wall_s = zip(*setup)

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(a + b for a, b in zip(numpy_s, symrd_s)), "s"),
            "request_ms_p50": (statistics.median(scaled_ns) / 1e6, "ref_ms"),
            "items_per_s": (items / (sum(scaled_ns) / 1e9), "1/ref_s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
    else:
        evals, solves = count_solver_evals(runner, modules)
        metrics = layer_metrics(totals, len(traced_ns), rows, traced_ns, plain_ns,
                                numpy_s, symrd_s, evals, solves)
        write_trace(args, first_spans, metrics)
    summary = {"workload": args.workload, "seed": args.seed, "rounds": rounds,
               "cases_per_round": len(cases), "timed_requests": len(plain_ns) + len(traced_ns),
               "wall_setup_s": statistics.median(wall_s),
               "wall_request_ms_p50": statistics.median(plain_ns) / 1e6,
               "kernel_ms": statistics.median(cal.samples) / 1e6,
               "errors": runner.errors[:20]}
    return {"correct": not runner.errors, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}, summary


def count_solver_evals(runner: Runner, modules: dict) -> tuple[int, int]:
    """One untimed round counting distortion_of calls and lambda_q solves."""
    ub = modules["symrd.upper_bound"]
    evals, solves = [0], [0]
    with spans.counting(ub, "distortion_of", evals), spans.counting(ub, "solve_lambda_q", solves):
        for i in range(len(runner.cases)):
            code, stdout, stderr, _, _ = runner.call(i)
            runner.check(i, code, stdout, stderr)
    return evals[0], solves[0]


def layer_metrics(t: spans.Totals, requests, rows, traced_ns, plain_ns,
                  numpy_s, symrd_s, evals, solves) -> dict:
    """Per-layer metrics from the traced rounds; a layer never called reads 0."""
    def per(total, count, scale):
        return total / count / scale if count else 0.0

    runs = t.count["simulate.run"]
    sim_parts = sum(t.total_ns[n] for n in ("simulate.rng", "model.eigenbasis", "simulate.logdet"))
    return {
        "upper_bound.solve_us": (per(t.total_ns["upper_bound.solve"], t.count["upper_bound.solve"], 1e3), "us"),
        "upper_bound.evals_per_solve": (per(evals, solves, 1), "count"),
        "upper_bound.solves_per_point": (per(t.count["upper_bound.solve"], rows, 1), "count"),
        "lower_bound.dispatch_us": (per(t.self_ns["lower_bound.dispatch"], t.count["lower_bound.dispatch"], 1e3), "us"),
        "lower_bound.calls_per_point": (per(t.count["lower_bound.dispatch"], rows, 1), "count"),
        "oracle.solve_us": (per(t.total_ns["oracle.solve"], t.count["oracle.solve"], 1e3), "us"),
        "asymptotics.eval_us": (per(t.self_ns["asymptotics.eval"], t.top_count["asymptotics.eval"], 1e3), "us"),
        "simulate.run_ms": (per(t.total_ns["simulate.run"], runs, 1e6), "ms"),
        "simulate.rng_ms": (per(t.total_ns["simulate.rng"], runs, 1e6), "ms"),
        "simulate.blocks": (per(t.count["simulate.rng"], runs, 1), "count"),
        "simulate.logdet_ms": (per(t.total_ns["simulate.logdet"], runs, 1e6), "ms"),
        "simulate.rest_ms": (per(t.total_ns["simulate.run"] - sim_parts, runs, 1e6), "ms"),
        "model.eigenbasis_ms": (per(t.total_ns["model.eigenbasis"], t.count["model.eigenbasis"], 1e6), "ms"),
        "model.parse_us": (per(t.total_ns["model.parse"], t.count["model.parse"], 1e3), "us"),
        "model.decompose_us": (per(t.total_ns["model.decompose"], t.count["model.decompose"], 1e3), "us"),
        "cli.request_ms": (statistics.median(traced_ns) / 1e6, "ms"),
        "cli.self_ms": (per(t.self_ns["cli.request"], requests, 1e6), "ms"),
        "cli.rows": (per(rows, requests, 1), "count"),
        "setup.numpy_import_s": (statistics.median(numpy_s), "s"),
        "setup.symrd_import_s": (statistics.median(symrd_s), "s"),
        "trace.overhead_ms": ((statistics.median(traced_ns) - statistics.median(plain_ns)) / 1e6, "ms"),
    }


def write_trace(args, first_spans: list, metrics: dict) -> None:
    """Spans of the first traced round, one JSON line each, then the metrics."""
    path = OUT / "trace" / f"{args.workload}-seed{args.seed}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for request, request_spans in enumerate(first_spans):
            for name, start, end, parent in request_spans:
                fh.write(json.dumps({"request": request, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")
        fh.write(json.dumps({"metrics": metrics}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "symrd" / "cli.py").is_file():
        print(f"error: no symrd sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result, summary = run(args)
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    line = json.dumps(result)
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**summary, **result}, indent=1) + "\n", encoding="utf-8")
    for message in summary["errors"]:
        print(f"check failed: {message}")
    print(json.dumps({k: v for k, v in summary.items() if k != "errors"}))
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
