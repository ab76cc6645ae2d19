"""Vectorized-backend acceptance: equivalence and speed on the Fig. 12 trace.

The vectorized engine must reproduce the reference backend's report on the
real evaluation trace (the quantized CIFAR-10 trace behind Fig. 12) within
1e-9 relative tolerance, while executing ``run_trace`` at least an order of
magnitude faster than the reference controller loop
(``ReferenceBackend.run_trace``).  Timings use the minimum over several
runs, which is robust against scheduler noise on shared machines, and the
two sides alternate round by round so both see the same host phases.
"""

from __future__ import annotations

import pytest

from conftest import alternating_min_runtimes, run_once

from repro.accelerator import AcceleratorSimulator, ReferenceBackend, random_workload, sqdm_config
from repro.analysis.tables import format_table
from repro.core.bench import BenchWorkload, bench_grid
from repro.core.columnar import ensure_report
from repro.core.policy import mixed_precision_policy
from repro.core.report_cache import ReportCache
from repro.core.sparsity import trace_to_workloads
from repro.serve import BatchStats, SimulateJobSpec, run_batched

RTOL = 1e-9


def test_vectorized_backend_matches_and_outruns_reference(benchmark, ctx):
    pipeline = ctx.pipeline("cifar10")
    policy = mixed_precision_policy(pipeline.relu_unet(), relu=True)
    quant_trace = trace_to_workloads(ctx.trace("cifar10"), policy)

    # The eager controller loop itself: the facade would add the pack into a
    # batch and the materialization back, which is not reference work.
    reference = ReferenceBackend(sqdm_config())
    vectorized = AcceleratorSimulator(sqdm_config(), backend="vectorized")

    ref_report = reference.run_trace(quant_trace)
    vec_report = run_once(benchmark, lambda: vectorized.run_trace(quant_trace))

    # --- equivalence: 1e-9 relative on every reported quantity -------------
    assert vec_report.total_cycles == pytest.approx(ref_report.total_cycles, rel=RTOL)
    assert vec_report.total_macs == pytest.approx(ref_report.total_macs, rel=RTOL)
    assert vec_report.executed_macs == pytest.approx(ref_report.executed_macs, rel=RTOL)
    assert vec_report.average_load_imbalance() == pytest.approx(
        ref_report.average_load_imbalance(), rel=1e-8
    )
    for component, expected in ref_report.total_energy.as_dict().items():
        assert vec_report.total_energy.as_dict()[component] == pytest.approx(
            expected, rel=RTOL, abs=1e-9
        ), component

    # --- speed: >= 10x faster on the same trace ----------------------------
    ref_time, vec_time = alternating_min_runtimes(
        lambda: reference.run_trace(quant_trace),
        lambda: vectorized.run_trace(quant_trace),
        rounds=5,
        fast_per_round=5,
    )
    speedup = ref_time / vec_time

    print()
    print(
        format_table(
            ["Backend", "run_trace (ms)", "Speed-up"],
            [
                ["reference", f"{ref_time * 1e3:.2f}", "1.0x"],
                ["vectorized", f"{vec_time * 1e3:.2f}", f"{speedup:.1f}x"],
            ],
            title="Vectorized engine on the Fig. 12 (CIFAR-10, quantized) trace",
        )
    )

    assert speedup >= 10.0, f"vectorized backend only {speedup:.1f}x faster than reference"


def test_cross_config_sweep_fuses_kernel_calls_and_outruns_per_config(benchmark):
    """Acceptance for the cross-config kernel: a 16-config x 8-trace sweep
    dispatches through at most two batched kernel calls, runs >= 3x faster
    than a per-config loop of single-config runs, and every one of the 128
    reports stays within 1e-9 relative of the reference backend."""
    configs = bench_grid(BenchWorkload(num_configs=16))
    assert len(configs) == 16
    traces = [
        [
            [
                random_workload(
                    in_channels=8, out_channels=8, spatial=4, seed=seed, name="layer0"
                )
            ]
        ]
        for seed in range(8)
    ]

    # --- dispatch: the whole grid fuses into (at most) two kernel calls ----
    requests = [
        SimulateJobSpec(config, trace) for config in configs for trace in traces
    ]
    stats = BatchStats()
    reports = run_once(
        benchmark, lambda: run_batched(requests, cache=ReportCache(max_entries=256), stats=stats)
    )
    assert len(reports) == 128
    assert stats.kernel_calls <= 2, f"sweep fragmented into {stats.kernel_calls} kernel calls"
    assert stats.configs_simulated == 16 and stats.traces_simulated == 128

    # --- equivalence: every (config, trace) report matches the reference ---
    for request, report in zip(requests, map(ensure_report, reports)):
        ref = AcceleratorSimulator(request.config, backend="reference").run_trace(request.trace)
        assert report.total_cycles == pytest.approx(ref.total_cycles, rel=RTOL)
        assert report.executed_macs == pytest.approx(ref.executed_macs, rel=RTOL)
        for component, expected in ref.total_energy.as_dict().items():
            assert report.total_energy.as_dict()[component] == pytest.approx(
                expected, rel=RTOL, abs=1e-9
            ), (request.config.name, component)

    # --- speed: >= 3x over the per-config PR-2 path on the same sweep ------
    entries = [(config, traces) for config in configs]
    fused = AcceleratorSimulator(configs[0])

    def per_config() -> None:
        for config in configs:
            AcceleratorSimulator(config).run([(config, traces)]).report_lists()

    loop_time, fused_time = alternating_min_runtimes(
        per_config, lambda: fused.run(entries).report_lists(), rounds=5, fast_per_round=2
    )
    speedup = loop_time / fused_time

    print()
    print(
        format_table(
            ["Sweep path", "wall-clock (ms)", "Speed-up"],
            [
                ["per-config run loop", f"{loop_time * 1e3:.2f}", "1.0x"],
                ["cross-config kernel", f"{fused_time * 1e3:.2f}", f"{speedup:.1f}x"],
            ],
            title="16-config x 8-trace design-space sweep",
        )
    )
    assert speedup >= 3.0, f"cross-config kernel only {speedup:.1f}x faster"
