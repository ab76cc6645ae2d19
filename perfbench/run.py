"""Benchmark of the SQ-DM reproduction: paper-scale quality, hardware and served sweeps.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1-quality --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all              # every workload, one summary each
    python3 perfbench/run.py --write-expected            # re-pin expected outputs

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` runs one fixed unit of work three times, each on a fresh
set-up: a discarded warm-up, an untraced baseline, and a run with wrappers
around each layer's public functions.  It reports per-layer metrics; its
spans are written to ``.perfbench/``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

The program is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
SPANS_DIR = ROOT / ".perfbench"

WORKLOAD_NAMES = ("table1-quality", "fig12-hardware", "sweep-http")
#: Set-ups per run before timing starts: at least this many, and at least
#: this much set-up time (each iteration after the first sets up afresh as
#: well); setup_s is the median of all of them.
SETUP_REPEATS = 5
SETUP_BUDGET_S = 1.0
#: Seeds ``--write-expected`` pins.
PINNED_SEEDS = range(16)
#: Layer spans must cover at least this share of load-thread wall-clock.
MIN_COVERAGE = 0.5
#: Tail percentiles considered, highest first; the reported one is the
#: highest with at least ten samples beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "nn.conv2d.calls": "count",
    "nn.conv2d.self_s": "s",
    "nn.im2col.self_s": "s",
    "nn.group_norm.self_s": "s",
    "nn.silu.self_s": "s",
    "nn.relu.self_s": "s",
    "nn.attention.self_s": "s",
    "quant.weight.calls": "count",
    "quant.weight.self_s": "s",
    "quant.act.self_s": "s",
    "diffusion.denoise.calls": "count",
    "diffusion.denoise.self_s": "s",
    "diffusion.fid.s": "s",
    "diffusion.adapt_relu.s": "s",
    "sparsity.collect_trace.self_s": "s",
    "sparsity.trace_to_workloads.s": "s",
    "scheduler.run_batched.calls": "count",
    "scheduler.run_batched.self_s": "s",
    "kernel.calls": "count",
    "kernel.entries": "count",
    "kernel.s": "s",
    "columnar.materialize.s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "fraction",
    "codec.encode.s": "s",
    "codec.decode.s": "s",
    "codec.bytes": "B",
    "service.queued_s": "s",
    "service.running_s": "s",
    "client.submit.s": "s",
    "client.wait.s": "s",
    "client.requests": "count",
    "client.idle_s": "s",
    "client.poll_useful_ratio": "fraction",
    "other.self_s": "s",
    "trace.overhead_frac": "fraction",
}

#: The issue's names for the generic end-to-end metrics, per workload.
ISSUE_NAMES = {
    "table1-quality": {"throughput_per_s": "quality_evals_per_s", "latency_p50_s": "evaluate_format_p50_s"},
    "fig12-hardware": {"throughput_per_s": "hw_evals_per_s", "latency_p50_s": "fig12_eval_p50_s"},
    "sweep-http": {
        "throughput_per_s": "design_points_per_s",
        "latency_p50_s": "sweep_p50_s",
        "latency_tail_s": "sweep_tail_s",
    },
}


def prepare_program() -> None:
    """Pin the environment and import the program from this checkout's ``src/``."""
    for var in ("REPRO_ARTIFACT_DIR", "REPRO_SIM_BACKEND", "REPRO_LOG", "REPRO_LOCKWATCH"):
        os.environ.pop(var, None)
    # One BLAS thread: FIDs and traces are then bitwise reproducible, and
    # the load stays within the workload's own threads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: repro imported from {repro.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def platform_probe() -> str:
    """Fingerprint of the floating-point kernels the outputs depend on.

    FIDs and traces are bitwise reproducible only under the same BLAS kernel
    and SIMD math functions, so pinned outputs are compared only on a
    platform whose probe matches the one they were written on.
    """
    import hashlib

    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 576))
    b = rng.standard_normal((2, 576, 96))
    digest = hashlib.sha256(np.__version__.encode())
    for out in (
        np.einsum("ok,bkp->bop", a, b, optimize=True),
        a @ a.T,
        np.linalg.eigvalsh(a @ a.T),
        np.exp(a),
        np.log1p(np.abs(a)),
        np.tanh(a),
    ):
        digest.update(np.ascontiguousarray(out).tobytes())
    return digest.hexdigest()[:16]


def tail_latency(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10:
            rank = min(n - 1, max(0, math.ceil(pct * n / 100) - 1))  # nearest rank
            return pct, ordered[rank]
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(workload: Any, setup_times: list[float]) -> Any:
    """Set up on the main thread, timed with its CPU time."""
    start = time.thread_time()
    state = workload.setup()
    setup_times.append(time.thread_time() - start)
    return state


def run_untraced(workload: Any, seconds: float) -> dict[str, Any]:
    setup_times: list[float] = []
    state = None
    try:
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_BUDGET_S:
            if state is not None:
                workload.close(state)
                state = None
            state = timed_setup(workload, setup_times)
        start = time.perf_counter()
        deadline = start + seconds
        iterations = []
        while True:
            iterations.append(workload.iteration(state, deadline))
            elapsed = time.perf_counter() - start
            # Start another iteration only if it should end within the run.
            if elapsed * (len(iterations) + 1) / len(iterations) > seconds:
                break
            if workload.fresh_state_per_iteration:
                workload.close(state)
                state = None
                state = timed_setup(workload, setup_times)
        detail, check_failures = workload.check(state, iterations)
    finally:
        if state is not None:
            workload.close(state)

    latencies = [lat for it in iterations for lat in it.latencies]
    rates = [it.units / it.busy_s for it in iterations if it.busy_s > 0]
    tail = tail_latency(latencies)
    failures = [f for it in iterations for f in it.failures] + check_failures
    attempted = sum(it.attempted for it in iterations)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "throughput_per_s": statistics.median(rates) if rates else 0.0,
        "latency_p50_s": statistics.median(latencies),
        "peak_rss_mb": peak_rss_mb(),
    }
    detail.update(
        {"iterations": len(iterations), "setups": len(setup_times), "operations": len(latencies)}
    )
    if tail is not None:
        detail["latency_tail_percentile"], detail["latency_tail_s"] = tail
    return {
        "metrics": metrics,
        "detail": detail,
        "attempted": attempted,
        "failures": failures,
    }


def run_traced(workload: Any, spans_path: Path) -> dict[str, Any]:
    from tracer import Tracer

    tracer = Tracer()

    def unit(traced: bool) -> tuple[Any, Any]:
        """One fixed unit of work on a fresh state, so every unit does the same work."""
        state = workload.setup()
        try:
            if not traced:
                return state, workload.iteration(state, None)
            with tracer:
                return state, workload.iteration(state, None)
        finally:
            workload.close(state)

    unit(traced=False)  # warm-up: first calls and lazy imports, discarded
    _, baseline = unit(traced=False)
    state, it = unit(traced=True)
    _, check_failures = workload.check(state, [baseline, it])
    SPANS_DIR.mkdir(exist_ok=True)
    tracer.dump(spans_path)

    spans = tracer.summary()

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0.0)

    load_wall = sum(end - start for _, start, end in it.load_threads)
    covered = sum(tracer.covered_seconds(t, start, end) for t, start, end in it.load_threads)
    other = load_wall - covered
    requests = span("client.request", "calls")
    polls = span("client.request", "polls")
    lookups = it.cache_hits + it.cache_misses
    metrics = {
        "nn.conv2d.calls": span("nn.conv2d", "calls"),
        "nn.conv2d.self_s": span("nn.conv2d", "self_s"),
        "nn.im2col.self_s": span("nn.im2col", "self_s"),
        "nn.group_norm.self_s": span("nn.group_norm", "self_s"),
        "nn.silu.self_s": span("nn.silu", "self_s"),
        "nn.relu.self_s": span("nn.relu", "self_s"),
        "nn.attention.self_s": span("nn.attention", "self_s"),
        "quant.weight.calls": span("quant.weight", "calls"),
        "quant.weight.self_s": span("quant.weight", "self_s"),
        "quant.act.self_s": span("quant.act", "self_s"),
        "diffusion.denoise.calls": span("diffusion.denoise", "calls"),
        "diffusion.denoise.self_s": span("diffusion.denoise", "self_s"),
        "diffusion.fid.s": span("diffusion.fid", "s"),
        "diffusion.adapt_relu.s": span("diffusion.adapt_relu", "s"),
        "sparsity.collect_trace.self_s": span("sparsity.collect_trace", "self_s"),
        "sparsity.trace_to_workloads.s": span("sparsity.trace_to_workloads", "s"),
        "scheduler.run_batched.calls": span("scheduler.run_batched", "calls"),
        "scheduler.run_batched.self_s": span("scheduler.run_batched", "self_s"),
        "kernel.calls": span("kernel", "calls"),
        "kernel.entries": span("kernel", "entries"),
        "kernel.s": span("kernel", "s"),
        "columnar.materialize.s": span("columnar.materialize", "s"),
        "cache.hits": float(it.cache_hits),
        "cache.misses": float(it.cache_misses),
        "cache.hit_ratio": it.cache_hits / lookups if lookups else 0.0,
        "codec.encode.s": span("codec.encode", "s"),
        "codec.decode.s": span("codec.decode", "s"),
        "codec.bytes": tracer.counters.get("codec.bytes", 0.0),
        "service.queued_s": it.service_queued_s,
        "service.running_s": it.service_running_s,
        "client.submit.s": span("client.submit", "s"),
        "client.wait.s": span("client.wait", "s"),
        "client.requests": requests,
        "client.idle_s": span("client.wait", "self_s"),
        "client.poll_useful_ratio": span("client.request", "terminal_polls") / polls if polls else 0.0,
        "other.self_s": other,
        "trace.overhead_frac": it.busy_s / baseline.busy_s - 1.0,
    }
    failures = baseline.failures + it.failures + check_failures
    coverage = covered / load_wall if load_wall else 0.0
    if coverage < MIN_COVERAGE:
        failures.append(f"layer spans cover {coverage:.1%} of load wall-clock (< {MIN_COVERAGE:.0%})")
    return {
        "metrics": metrics,
        "detail": {"coverage": coverage, "spans": len(tracer.spans), "spans_file": str(spans_path)},
        "attempted": baseline.attempted + it.attempted,
        "failures": failures,
    }


def run_workload(args: argparse.Namespace) -> int:
    prepare_program()
    from workloads import WORKLOADS

    expected = load_expected()
    if expected["platform"] != platform_probe():
        pinned, pinned_note = None, "no: written on another platform"
    else:
        pinned = expected["seeds"].get(str(args.seed), {}).get(args.workload)
        pinned_note = "yes" if pinned is not None else "no: seed not pinned"
    workload = WORKLOADS[args.workload](args.seed, pinned, expected["tolerances"])
    if args.trace:
        spans_path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        outcome = run_traced(workload, spans_path)
        units = PER_LAYER_UNITS
    else:
        outcome = run_untraced(workload, args.seconds)
        units = END_TO_END_UNITS
    outcome["detail"]["pinned_outputs"] = pinned_note

    failures = outcome["failures"]
    attempted = max(1, outcome["attempted"])
    failed = min(attempted, len(failures))
    print_summary(args, outcome, attempted, failed)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(outcome["metrics"][name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


def print_summary(args: argparse.Namespace, outcome: dict, attempted: int, failed: int) -> None:
    mode = "traced" if args.trace else "untraced"
    print(f"== {args.workload} seed={args.seed} ({mode})")
    metrics = outcome["metrics"]
    aliases = ISSUE_NAMES[args.workload]

    def label(name: str) -> str:
        return f"{name} ({aliases[name]})" if name in aliases else name

    if args.trace:
        for name, unit in PER_LAYER_UNITS.items():
            print(f"  {name:32s} {metrics[name]:.6g} {unit}")
    else:
        for name, unit in END_TO_END_UNITS.items():
            print(f"  {label(name):48s} {metrics[name]:.6g} {unit}")
    detail = dict(outcome["detail"])
    if "latency_tail_s" in detail:
        pct, tail = detail.pop("latency_tail_percentile"), detail.pop("latency_tail_s")
        print(f"  {label('latency_tail_s'):48s} {tail:.6g} s "
              f"(p{pct:g} of {detail['operations']} operations)")
    print(f"  {'error_rate':48s} {failed / attempted:.6g} fraction ({failed}/{attempted})")
    for key, value in detail.items():
        if isinstance(value, (int, float)):
            print(f"  {key:48s} {value:.6g}")
        elif isinstance(value, str):
            print(f"  {key:48s} {value}")
    for failure in outcome["failures"][:20]:
        print(f"  FAILED: {failure}")


def write_expected() -> int:
    """Pin every workload's outputs for :data:`PINNED_SEEDS` into ``expected.json``."""
    prepare_program()
    from workloads import WORKLOADS

    expected = {
        "about": "Pinned outputs per seed: Table I FIDs, Fig. 12 [cycles, energy pJ] "
        "per workload and configuration, and per-case [cycles, energy pJ] of the "
        "first sweep grids (baseline last); simulated totals must match exactly. "
        "Regenerate: python3 perfbench/run.py --write-expected",
        "platform": platform_probe(),
        "tolerances": {"fid": {"rel": 1e-9}},
        "seeds": {},
    }
    for seed in PINNED_SEEDS:
        started = time.perf_counter()
        expected["seeds"][str(seed)] = {
            name: cls(seed, None, expected["tolerances"]).expected_outputs()
            for name, cls in WORKLOADS.items()
        }
        print(f"seed {seed}: {time.perf_counter() - started:.1f} s", flush=True)
    # One line per seed and workload keeps the file short and its diffs readable.
    seeds = ",\n".join(
        f"  {json.dumps(seed)}: {{\n"
        + ",\n".join(
            f"   {json.dumps(name)}: {json.dumps(outputs, sort_keys=True)}"
            for name, outputs in per_seed.items()
        )
        + "\n  }"
        for seed, per_seed in expected["seeds"].items()
    )
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        handle.write(
            f'{{\n "about": {json.dumps(expected["about"])},\n'
            f' "platform": {json.dumps(expected["platform"])},\n'
            f' "tolerances": {json.dumps(expected["tolerances"])},\n'
            f' "seeds": {{\n{seeds}\n }}\n}}\n'
        )
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, so peak memory stays per workload."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        status |= subprocess.run(command, check=False).returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)
    if args.write_expected:
        return write_expected()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
