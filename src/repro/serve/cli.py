"""``repro`` — the command-line front end of the evaluation service.

Eight subcommands drive the fleet pipeline end to end against a persistent
artifact directory, so repeated invocations (and concurrent workers pointing
at the same directory) share sparsity traces, FID statistics and simulation
reports instead of recomputing them:

``repro sweep``
    Sweep accelerator-configuration knobs over a workload's quantized trace.
    The whole grid is submitted as *one* typed ``sweep_spec`` job; the
    service plans it server-side, coalesces the cases into cross-trace
    batched passes, and answers with per-case reports plus the dense
    baseline.  With ``--endpoint`` the same spec goes to a remote
    ``repro serve`` process as plain JSON, where grids from any number of
    clients coalesce through one single-flight scheduler and share one
    artifact store.  ``--executor`` picks the backend explicitly:
    ``inline``, ``service``, ``worker-pool`` or ``remote``.
``repro evaluate``
    The Fig. 12 hardware comparison for one workload, optionally with
    declarative quality (FID) specs fanned out to the process pool.
``repro serve``
    Run the evaluation service behind its HTTP front end
    (:mod:`repro.serve.http`) until interrupted.  ``--log-level`` turns on
    the structured JSON event log (access records, job lifecycle, spans).
``repro worker``
    A pull-based fleet worker (:mod:`repro.serve.worker`): registers with a
    ``repro serve --dispatch workers`` endpoint, long-polls for simulation
    tasks under a heartbeat-renewed lease and posts the reports back.
``repro top``
    Live terminal dashboard of a running server: polls ``GET /metrics`` and
    ``GET /jobs`` and renders queue depth, coalescing ratio, cache hit rate
    and p50/p95/p99 job latency (``--once`` for a single snapshot).
``repro cache``
    Inspect, wipe or evict from the artifact store.
``repro bench``
    Measure simulation/sweep/service throughput (:mod:`repro.core.bench`),
    optionally gating against a committed ``BENCH_<n>.json`` baseline.
``repro check``
    Run the AST invariant linter (:mod:`repro.devtools.astcheck`) over the
    tracked sources, optionally with the strict mypy gate (``--typing``).

Every command accepts ``--artifact-dir`` (default: the ``REPRO_ARTIFACT_DIR``
environment variable) and ``--json`` to write machine-readable results for CI.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Any, Sequence

from ..accelerator.config import AcceleratorConfig, dense_baseline_config, sqdm_config
from ..core.artifacts import (
    ARTIFACT_DIR_ENV_VAR,
    MAX_BYTES_ENV_VAR,
    TTL_ENV_VAR,
    ArtifactStore,
    artifact_store_at,
)
from ..core.execution import Executor, InlineExecutor
from ..core.pipeline import PipelineConfig, SQDMPipeline
from ..core.policy import mixed_precision_policy
from ..core.report_cache import ReportCache
from ..core.sparsity import trace_to_workloads
from ..workloads.models import workload_names
from .client import RemoteEvaluationClient
from .service import EvaluationService
from .specs import QualityJobSpec, SweepJobSpec
from .worker import WorkerPoolExecutor

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(AcceleratorConfig)} - {"name", "pe"}


def _parse_param(text: str) -> tuple[str, list[Any]]:
    """Parse ``--param name=v1,v2,...`` into a grid entry with typed values."""
    name, sep, values = text.partition("=")
    name = name.strip()
    if not sep or not values.strip():
        raise argparse.ArgumentTypeError(f"expected NAME=V1[,V2,...], got {text!r}")
    if name not in _CONFIG_FIELDS:
        raise argparse.ArgumentTypeError(
            f"unknown AcceleratorConfig field {name!r}; sweepable fields: "
            f"{sorted(_CONFIG_FIELDS)}"
        )

    def convert(raw: str) -> Any:
        raw = raw.strip()
        try:
            return int(raw)
        except ValueError:
            try:
                return float(raw)
            except ValueError:
                return raw

    return name, [convert(v) for v in values.split(",")]


def _add_common_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--artifact-dir",
        default=os.environ.get(ARTIFACT_DIR_ENV_VAR) or None,
        help="persistent artifact directory (default: $REPRO_ARTIFACT_DIR; "
        "omit both to run without persistence)",
    )
    parser.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="write results as JSON to PATH",
    )


def _add_scale_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", default="cifar10", choices=workload_names())
    parser.add_argument(
        "--resolution",
        type=int,
        default=None,
        help="override image resolution (smaller = faster)",
    )
    parser.add_argument("--sampling-steps", type=int, default=4)
    parser.add_argument("--trace-samples", type=int, default=1)
    parser.add_argument("--fid-samples", type=int, default=8)
    parser.add_argument("--reference-samples", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)


def _resolve_store(args: argparse.Namespace) -> ArtifactStore | None:
    return artifact_store_at(args.artifact_dir) if args.artifact_dir else None


def _build_pipeline(
    args: argparse.Namespace, store: ArtifactStore | None, cache: ReportCache
) -> SQDMPipeline:
    from ..workloads.models import load_workload

    config = PipelineConfig(
        num_fid_samples=args.fid_samples,
        num_reference_samples=args.reference_samples,
        num_sampling_steps=args.sampling_steps,
        num_trace_samples=args.trace_samples,
        seed=args.seed,
    )
    workload = load_workload(args.workload, resolution=args.resolution)
    return SQDMPipeline(workload=workload, config=config, artifacts=store, report_cache=cache)


def _cache_summary(cache: ReportCache, store: ArtifactStore | None) -> dict[str, Any]:
    summary: dict[str, Any] = {
        "memory_hits": cache.stats.hits,
        "disk_hits": cache.stats.disk_hits,
        "misses": cache.stats.misses,
        "hit_rate": cache.stats.hit_rate,
    }
    if store is not None:
        summary["store"] = store.summary()
        summary["store_hits"] = store.stats.hits
        summary["store_misses"] = store.stats.misses
    return summary


def _remote_cache_summary(before: dict[str, Any], after: dict[str, Any]) -> dict[str, Any]:
    """This invocation's share of the server's cache traffic, as before/after deltas.

    Shaped like :func:`_cache_summary` so CI asserts the same keys for the
    in-process and the remote paths; the server's absolute stats ride along
    under ``"server"``.
    """
    deltas = {
        key: after["cache"][key] - before["cache"][key]
        for key in ("memory_hits", "disk_hits", "misses")
    }
    requests = sum(deltas.values())
    served = deltas["memory_hits"] + deltas["disk_hits"]
    return {
        **deltas,
        "hit_rate": served / requests if requests else 0.0,
        "server": after,
    }


def _write_json(path: str | None, payload: dict[str, Any]) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)


#: ``--executor`` names of ``repro sweep``; ``repro evaluate`` takes all but ``remote``.
_EXECUTOR_NAMES = ("inline", "service", "worker-pool", "remote")


def _build_executor(
    name: str, cache: ReportCache, max_workers: int | None = None, endpoint: str | None = None
) -> Executor:
    """The executor ``--executor name`` selects, for the caller to close."""
    if name == "inline":
        return InlineExecutor(cache=cache)
    if name == "service":
        return EvaluationService(cache=cache, max_workers=max_workers)
    if name == "worker-pool":
        return WorkerPoolExecutor(num_workers=max_workers or 2, cache=cache)
    assert endpoint is not None
    return RemoteEvaluationClient(endpoint)


def _print_cache_line(cache: ReportCache, store: ArtifactStore | None) -> None:
    stats = cache.stats
    line = (
        f"report cache: {stats.hits} memory hits, {stats.disk_hits} disk hits, "
        f"{stats.misses} simulated ({stats.hit_rate:.0%} hit rate)"
    )
    if store is not None:
        line += f"; artifact store: {store.count()} artifacts at {store.root}"
    print(line)


# -- repro sweep ----------------------------------------------------------------


def _cmd_sweep(args: argparse.Namespace) -> int:
    from ..analysis.tables import format_table

    store = _resolve_store(args)
    cache = ReportCache(store=store)

    # One spec, one executor: the whole grid goes through the unified
    # execution API, so switching between inline execution, an in-process
    # service and a remote server is the choice of one --executor name.
    # Built first, before any pipeline/trace work, so a bad option or a
    # --endpoint/--executor contradiction fails in milliseconds.
    executor_name = args.executor or ("remote" if args.endpoint else "service")
    if executor_name == "remote" and not args.endpoint:
        print("--executor remote needs --endpoint URL", file=sys.stderr)
        return 2
    if args.endpoint and executor_name != "remote":
        # Refuse the contradiction rather than silently running locally while
        # the JSON report claims a server endpoint.
        print(
            f"--endpoint is only meaningful with the remote executor; drop it or "
            f"drop --executor {executor_name}",
            file=sys.stderr,
        )
        return 2
    try:
        executor = _build_executor(executor_name, cache, args.max_workers, args.endpoint)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    remote_stats_before: dict[str, Any] = {}
    if isinstance(executor, RemoteEvaluationClient):
        remote_stats_before = executor.cache_stats()

    with executor:
        pipeline = _build_pipeline(args, store, cache)

        grid = dict(args.params or [("sparsity_threshold", [0.1, 0.3, 0.5])])

        policy = mixed_precision_policy(pipeline.relu_unet(), relu=True)
        trace = pipeline.collect_trace(relu=True)
        quant_trace = trace_to_workloads(trace, policy)

        # The whole grid is one declarative sweep spec: the executor's
        # backend plans it, coalesces the cases with any other traffic,
        # and returns per-case reports plus the dense baseline; over HTTP
        # the spec travels as plain, versioned JSON.
        spec = SweepJobSpec(
            base=sqdm_config(),
            grid={name: list(values) for name, values in grid.items()},
            trace=quant_trace,
            baseline=dense_baseline_config(),
            backend=args.backend,
            name=f"sweep-{args.workload}",
        )
        outcome = executor.submit(spec).result()
        baseline = outcome.baseline
        reports = outcome.reports
        if isinstance(executor, RemoteEvaluationClient):
            cache_summary = _remote_cache_summary(remote_stats_before, executor.cache_stats())
        else:
            cache_summary = _cache_summary(cache, store)

    rows = []
    results = []
    for params, report in zip(outcome.params, reports):
        speedup = (
            baseline.total_cycles / report.total_cycles if report.total_cycles else float("inf")
        )
        rows.append(
            [
                *(params[name] for name in grid),
                f"{report.total_time_ms:.3f}",
                f"{report.total_energy.total_uj:.2f}",
                f"{speedup:.2f}x",
            ]
        )
        results.append(
            {
                "params": params,
                "total_cycles": report.total_cycles,
                "total_time_ms": report.total_time_ms,
                "total_energy_pj": report.total_energy.total_pj,
                "speedup_vs_dense_baseline": speedup,
            }
        )
    print(
        format_table(
            [*grid, "Latency (ms)", "Energy (uJ)", "Speed-up vs dense"],
            rows,
            title=f"{spec.name}: {spec.num_cases} design points on the quantized trace",
        )
    )
    if args.endpoint:
        print(
            f"served by {args.endpoint}: {cache_summary['misses']} simulated, "
            f"{cache_summary['memory_hits']} memory hits, "
            f"{cache_summary['disk_hits']} disk hits during this sweep"
        )
    else:
        _print_cache_line(cache, store)
    _write_json(
        args.json_path,
        {
            "command": "sweep",
            "workload": args.workload,
            "endpoint": args.endpoint,
            "executor": executor_name,
            "grid": {name: list(values) for name, values in grid.items()},
            "cases": results,
            "baseline_cycles": baseline.total_cycles,
            "cache": cache_summary,
        },
    )
    return 0


# -- repro evaluate -------------------------------------------------------------


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from ..analysis.tables import format_table

    store = _resolve_store(args)
    cache = ReportCache(store=store)
    pipeline = _build_pipeline(args, store, cache)

    quality_results: list[dict[str, Any]] = []
    with EvaluationService(cache=cache, process_workers=args.process_workers) as service:
        quality_jobs = [
            service.submit(
                QualityJobSpec(
                    workload=args.workload,
                    scheme=scheme,
                    resolution=args.resolution,
                    pipeline_overrides={
                        "num_fid_samples": args.fid_samples,
                        "num_reference_samples": args.reference_samples,
                        "num_sampling_steps": args.sampling_steps,
                        "num_trace_samples": args.trace_samples,
                        "seed": args.seed,
                    },
                    artifact_dir=args.artifact_dir,
                )
            )
            for scheme in args.quality or []
        ]
        # The hardware comparison goes through the unified execution API;
        # --executor service reuses this command's service (and its pools)
        # for the simulation jobs too, and leaves it open for the quality jobs.
        if args.executor == "service":
            evaluation = pipeline.evaluate_hardware(executor=service)
        else:
            with _build_executor(args.executor, cache) as hw_executor:
                evaluation = pipeline.evaluate_hardware(executor=hw_executor)
        quality_results = [job.result() for job in quality_jobs]

    print(
        format_table(
            ["Metric", "Value"],
            [
                ["Average activation sparsity", f"{evaluation.average_sparsity:.1%}"],
                ["Sparsity speed-up (vs dense baseline)", f"{evaluation.sparsity_speedup:.2f}x"],
                ["Sparsity energy saving", f"{evaluation.sparsity_energy_saving:.1%}"],
                ["Quantization speed-up (vs FP16)", f"{evaluation.quantization_speedup:.2f}x"],
                ["Total speed-up (vs FP16 dense)", f"{evaluation.total_speedup:.2f}x"],
                ["SQ-DM latency", f"{evaluation.sqdm_report.total_time_ms:.3f} ms"],
            ],
            title=f"Hardware evaluation: {args.workload}",
        )
    )
    if quality_results:
        print(
            format_table(
                ["Scheme", "FID", "Compute saving", "Memory saving"],
                [
                    [
                        q["scheme"],
                        f"{q['fid']:.2f}",
                        f"{q['compute_saving']:.1%}",
                        f"{q['memory_saving']:.1%}",
                    ]
                    for q in quality_results
                ],
                title="Quality (process-pool sampling jobs)",
            )
        )
    _print_cache_line(cache, store)
    _write_json(
        args.json_path,
        {
            "command": "evaluate",
            "workload": args.workload,
            "executor": args.executor,
            "hardware": {
                "average_sparsity": evaluation.average_sparsity,
                "sparsity_speedup": evaluation.sparsity_speedup,
                "sparsity_energy_saving": evaluation.sparsity_energy_saving,
                "quantization_speedup": evaluation.quantization_speedup,
                "total_speedup": evaluation.total_speedup,
                "sqdm_time_ms": evaluation.sqdm_report.total_time_ms,
            },
            "quality": quality_results,
            "cache": _cache_summary(cache, store),
        },
    )
    return 0


# -- repro serve ----------------------------------------------------------------


def _cmd_serve(args: argparse.Namespace) -> int:
    from ..core.telemetry import configure_event_log
    from .http import EvaluationHTTPServer

    if args.log_level:
        configure_event_log(level=args.log_level)
    store = None
    if args.artifact_dir:
        store = artifact_store_at(
            args.artifact_dir, max_bytes=args.max_bytes, ttl_seconds=args.ttl
        )
    cache = ReportCache(store=store)
    service = EvaluationService(
        cache=cache,
        max_workers=args.max_workers,
        process_workers=args.process_workers,
        worker_fleet=args.dispatch == "workers",
        lease_seconds=args.lease_seconds,
    )
    server = EvaluationHTTPServer(
        (args.host, args.port),
        service,
        store=store,
        max_request_bytes=args.max_request_bytes,
    )
    print(f"repro serve: listening on {server.endpoint}", flush=True)
    if service.fleet is not None:
        print(
            "repro serve: dispatching simulation jobs to pull workers "
            f"(lease {service.fleet.lease_seconds:g}s; start them with "
            f"`repro worker --endpoint {server.endpoint}`)",
            flush=True,
        )
    if store is not None:
        policy = f"max_bytes={store.max_bytes} ttl_seconds={store.ttl_seconds}"
        print(f"repro serve: artifact store at {store.root} ({policy})", flush=True)
    else:
        print(
            "repro serve: no artifact directory; results are not persisted "
            f"(pass --artifact-dir or set {ARTIFACT_DIR_ENV_VAR})",
            flush=True,
        )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("repro serve: shutting down")
    finally:
        server.server_close()
        service.close(cancel_queued=True)
    return 0


# -- repro worker ---------------------------------------------------------------


def _cmd_worker(args: argparse.Namespace) -> int:
    from .worker import run_worker

    return run_worker(
        args.endpoint,
        name=args.name,
        concurrency=args.concurrency,
        lease_seconds=args.lease_seconds,
        poll_seconds=args.poll_seconds,
        chaos_hold_seconds=args.chaos_hold_seconds,
    )


# -- repro top ------------------------------------------------------------------


def _cmd_top(args: argparse.Namespace) -> int:
    from .top import run_top

    return run_top(args.endpoint, interval=args.interval, once=args.once)


# -- repro cache ----------------------------------------------------------------


def _cmd_cache(args: argparse.Namespace) -> int:
    if not args.artifact_dir:
        print(
            f"no artifact directory: pass --artifact-dir or set {ARTIFACT_DIR_ENV_VAR}",
            file=sys.stderr,
        )
        return 2
    store = artifact_store_at(args.artifact_dir)
    if args.action == "wipe":
        removed = store.wipe(args.kind)
        print(f"removed {removed} artifact(s) from {store.root}")
        _write_json(args.json_path, {"command": "cache", "action": "wipe", "removed": removed})
        return 0
    if args.action == "evict":
        no_policy = (
            args.max_bytes is None
            and args.ttl is None
            and store.max_bytes is None
            and store.ttl_seconds is None
        )
        if no_policy:
            print(
                "no eviction policy: pass --max-bytes and/or --ttl (or set "
                f"{MAX_BYTES_ENV_VAR} / {TTL_ENV_VAR})",
                file=sys.stderr,
            )
            return 2
        result = store.evict(max_bytes=args.max_bytes, ttl_seconds=args.ttl)
        print(
            f"evicted {result.removed} artifact(s) "
            f"({result.reclaimed_bytes / 1024:.1f} KiB) from {store.root}; "
            f"{result.remaining_artifacts} artifact(s) "
            f"({result.remaining_bytes / 1024:.1f} KiB) remain"
        )
        _write_json(
            args.json_path,
            {"command": "cache", "action": "evict", **result.summary()},
        )
        return 0
    summary = store.summary()
    print(f"artifact store at {summary['root']}")
    for kind, info in summary["kinds"].items():
        print(f"  {kind:12s} {info['artifacts']:6d} artifact(s) {info['bytes'] / 1024:10.1f} KiB")
    print(
        f"  {'total':12s} {summary['total_artifacts']:6d} artifact(s) "
        f"{summary['total_bytes'] / 1024:10.1f} KiB"
    )
    _write_json(args.json_path, {"command": "cache", "action": "stats", **summary})
    return 0


# -- repro bench ----------------------------------------------------------------


def _cmd_bench(args: argparse.Namespace) -> int:
    from ..analysis.tables import format_table
    from ..core.bench import compare_to_baseline, load_baseline, run_bench

    result = run_bench(quick=args.quick, seed=args.seed)
    payload = result.as_dict()

    units = {
        "calibration_score": "(machine-speed proxy)",
        "sim_entries_per_sec": "entries/s",
        "sweep_wall_clock_s": "s",
        "per_config_sweep_wall_clock_s": "s",
        "cross_config_speedup": "x",
        "report_assembly_entries_per_sec": "entries/s",
        "sweep_peak_alloc_mb": "MiB",
        "service_jobs_per_sec": "jobs/s",
        "service_job_latency_p50_s": "s",
        "service_job_latency_p95_s": "s",
        "sim_entries_per_calib": "entries/s, calibrated",
        "sweep_wall_clock_calib": "s, calibrated",
    }
    mode = "quick" if args.quick else "full"
    print(
        format_table(
            ["Metric", "Value", "Unit"],
            [
                [name, f"{value:.4g}", units.get(name, "")]
                for name, value in result.metrics.items()
            ],
            title=f"repro bench ({mode} mode)",
        )
    )

    exit_code = 0
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read baseline {args.baseline}: {exc}", file=sys.stderr)
            return 2
        findings = compare_to_baseline(payload, baseline, tolerance=args.tolerance)
        if findings:
            print(
                f"regression vs {args.baseline} (tolerance {args.tolerance:.0%}):",
                file=sys.stderr,
            )
            for finding in findings:
                print(f"  {finding.describe()}", file=sys.stderr)
            exit_code = 1
        else:
            print(f"no regression vs {args.baseline} (tolerance {args.tolerance:.0%})")
        payload["baseline"] = {
            "path": args.baseline,
            "tolerance": args.tolerance,
            "regressions": [finding.describe() for finding in findings],
        }
    _write_json(args.json_path, payload)
    return exit_code


def _cmd_check(args: argparse.Namespace) -> int:
    from pathlib import Path

    from ..devtools.astcheck import (
        render_json,
        render_text,
        rule_catalogue,
        run_checks,
        tracked_python_files,
    )

    if args.list_rules:
        for info in rule_catalogue():
            print(f"{info.id}  {info.name:26s} [{info.severity}] {info.rationale}")
        return 0

    root = Path(args.root).resolve()
    if args.paths:
        files = [Path(path) for path in args.paths]
    else:
        files = tracked_python_files(root)
    try:
        report = run_checks(files, root=root, rules=args.rules or None)
    except ValueError as exc:
        print(f"repro check: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report, verbose=args.verbose))
    exit_code = 0 if report.ok else 1

    if args.typing:
        # mypy is a CI/lint extra, not a runtime dependency; skip gracefully
        # when it is not installed so `repro check --typing` works everywhere.
        import importlib.util
        import subprocess

        if importlib.util.find_spec("mypy") is None:
            print("repro check: mypy not installed; skipping typing gate", file=sys.stderr)
        else:
            outcome = subprocess.run(
                [sys.executable, "-m", "mypy", "--config-file", str(root / "mypy.ini")],
                cwd=root,
            )
            if outcome.returncode != 0:
                exit_code = exit_code or 1
    return exit_code


# -- entry point ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    from .http import DEFAULT_MAX_REQUEST_BYTES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="SQ-DM fleet evaluation service: sweeps, evaluations and the artifact cache.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser(
        "sweep", help="sweep accelerator knobs over a workload's quantized trace"
    )
    _add_scale_args(sweep)
    _add_common_args(sweep)
    sweep.add_argument(
        "--param",
        dest="params",
        action="append",
        type=_parse_param,
        metavar="NAME=V1,V2",
        help="AcceleratorConfig field and comma-separated values; repeat for a grid "
        "(default: sparsity_threshold=0.1,0.3,0.5)",
    )
    sweep.add_argument("--backend", default=None, help="simulation backend name")
    sweep.add_argument("--max-workers", type=int, default=None)
    sweep.add_argument(
        "--executor",
        default=None,
        choices=_EXECUTOR_NAMES,
        help="execution backend for the sweep spec (default: 'service', or "
        "'remote' when --endpoint is given)",
    )
    sweep.add_argument(
        "--endpoint",
        default=None,
        metavar="URL",
        help="submit jobs to a remote `repro serve` server (e.g. http://127.0.0.1:8035) "
        "instead of an in-process service (implies --executor remote)",
    )
    sweep.set_defaults(fn=_cmd_sweep)

    evaluate = sub.add_parser("evaluate", help="run the Fig. 12 hardware evaluation")
    _add_scale_args(evaluate)
    _add_common_args(evaluate)
    evaluate.add_argument(
        "--quality",
        nargs="*",
        default=None,
        metavar="SCHEME",
        help="also FID-evaluate these schemes (e.g. MXINT8 INT4-VSQ MP+ReLU) "
        "on the process pool",
    )
    evaluate.add_argument("--process-workers", type=int, default=None)
    evaluate.add_argument(
        "--executor",
        default="inline",
        choices=_EXECUTOR_NAMES[:-1],
        help="execution backend for the hardware-simulation jobs; 'service' "
        "reuses this command's evaluation service (default: %(default)s)",
    )
    evaluate.set_defaults(fn=_cmd_evaluate)

    serve = sub.add_parser(
        "serve", help="run the evaluation service behind its HTTP front end"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8035, help="0 picks a free port")
    serve.add_argument(
        "--artifact-dir",
        default=os.environ.get(ARTIFACT_DIR_ENV_VAR) or None,
        help="persistent artifact directory shared by all clients "
        f"(default: ${ARTIFACT_DIR_ENV_VAR})",
    )
    serve.add_argument("--max-workers", type=int, default=None)
    serve.add_argument("--process-workers", type=int, default=None)
    serve.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="artifact-store size cap; LRU eviction runs after every write "
        f"(default: ${MAX_BYTES_ENV_VAR})",
    )
    serve.add_argument(
        "--ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help=f"evict artifacts unused for this long (default: ${TTL_ENV_VAR})",
    )
    serve.add_argument(
        "--max-request-bytes",
        type=int,
        default=DEFAULT_MAX_REQUEST_BYTES,
        help="reject request bodies larger than this with HTTP 413 "
        "(default: %(default)s)",
    )
    serve.add_argument(
        "--log-level",
        default=None,
        choices=["off", "error", "info", "debug"],
        help="structured JSON event log on stderr: access records at info, "
        "job lifecycle and spans at debug (default: $REPRO_LOG, else off)",
    )
    serve.add_argument(
        "--dispatch",
        choices=["pool", "workers"],
        default="pool",
        help="simulation dispatch: 'pool' runs in this server's thread pool; "
        "'workers' queues tasks for pull-based `repro worker` processes with "
        "lease/heartbeat liveness (default: %(default)s)",
    )
    serve.add_argument(
        "--lease-seconds",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="with --dispatch workers: how long a claimed task survives "
        "without a heartbeat before it is requeued (default: %(default)s)",
    )
    serve.set_defaults(fn=_cmd_serve)

    worker = sub.add_parser(
        "worker",
        help="pull-based fleet worker for a `repro serve --dispatch workers` server",
    )
    worker.add_argument(
        "--endpoint",
        required=True,
        metavar="URL",
        help="base URL of the dispatching server",
    )
    worker.add_argument(
        "--name",
        default=None,
        help="fleet-visible identity; re-registering it after a restart "
        "retires the previous incarnation (default: hostname-pid)",
    )
    worker.add_argument(
        "--concurrency",
        type=int,
        default=1,
        help="puller threads / concurrent leases (default: %(default)s)",
    )
    worker.add_argument(
        "--lease-seconds",
        type=float,
        default=None,
        metavar="SECONDS",
        help="requested lease length; the server's answer is authoritative "
        "(default: the server's --lease-seconds)",
    )
    worker.add_argument(
        "--poll-seconds",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="long-poll window per claim request (default: %(default)s)",
    )
    worker.add_argument(
        "--chaos-hold-seconds",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="fault injection for chaos testing: hold each claimed task this "
        "long (heartbeating) before simulating, so a SIGKILL lands mid-lease",
    )
    worker.set_defaults(fn=_cmd_worker)

    top = sub.add_parser(
        "top", help="live dashboard of a running server (/metrics + /jobs)"
    )
    top.add_argument(
        "--endpoint",
        default="http://127.0.0.1:8035",
        metavar="URL",
        help="base URL of the `repro serve` server (default: %(default)s)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh period (default: %(default)s)",
    )
    top.add_argument(
        "--once", action="store_true", help="print one snapshot and exit (for scripts)"
    )
    top.set_defaults(fn=_cmd_top)

    cache = sub.add_parser("cache", help="inspect, wipe or evict from the artifact store")
    cache.add_argument("action", choices=["stats", "wipe", "evict"])
    cache.add_argument("--kind", default=None, help="restrict wipe to one artifact kind")
    cache.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="evict least-recently-used artifacts until the store fits this many bytes",
    )
    cache.add_argument(
        "--ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="evict artifacts unused for more than this many seconds",
    )
    _add_common_args(cache)
    cache.set_defaults(fn=_cmd_cache)

    bench = sub.add_parser(
        "bench", help="measure simulation/sweep/service throughput and gate regressions"
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="small fixed workload for CI gates (full mode is the default and "
        "uses a larger grid with more repeats)",
    )
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="committed BENCH_<n>.json to gate against (exit 1 on regression)",
    )
    bench.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed bad-direction drift on gated metrics (default: %(default)s)",
    )
    bench.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="write the benchmark payload (BENCH_<n>.json schema) to PATH",
    )
    bench.set_defaults(fn=_cmd_bench)

    check = sub.add_parser(
        "check", help="run the AST invariant linter (REP rules) over the tracked sources"
    )
    check.add_argument(
        "paths",
        nargs="*",
        help="files to check (default: all tracked Python files under src/)",
    )
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.add_argument(
        "--rule",
        dest="rules",
        action="append",
        metavar="REPnnn",
        help="run only this rule (repeatable; default: all rules)",
    )
    check.add_argument("--list-rules", action="store_true", help="print the rule catalogue")
    check.add_argument(
        "--root", default=".", help="repository root for file discovery and relative paths"
    )
    check.add_argument(
        "--verbose", action="store_true", help="also list suppressed findings with reasons"
    )
    check.add_argument(
        "--typing",
        action="store_true",
        help="additionally run the strict mypy gate (skipped when mypy is not installed)",
    )
    check.set_defaults(fn=_cmd_check)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    raise SystemExit(main())
