"""Accelerator co-design exploration (Fig. 9 / Fig. 12 style).

Uses the accelerator simulator directly — without running the neural network —
to explore hardware design points on synthetic workload traces: PE sizing,
dense-vs-heterogeneous organizations and the effect of workload sparsity.
This is the workflow a hardware architect would use to scale the design "to
meet specific latency and power requirements" (Sec. IV-D).

Each study is one list of :class:`~repro.serve.SimulateJobSpec` design
points sent through the batching scheduler (:func:`repro.serve.run_batched`),
which coalesces the points sharing an energy table and backend into one
batched pass over their (config x trace) grid, caches every result as a
one-trace columnar batch and hands those back in request order;
:func:`~repro.core.columnar.ensure_report` turns each into its report.  The
PE-scaling study varies ``pe``, a nested config rather than a sweepable
scalar knob, so it lists its configs instead of sending a
:class:`~repro.serve.SweepJobSpec` grid.

Usage::

    python examples/accelerator_codesign.py
"""

from __future__ import annotations

from repro.accelerator import (
    AcceleratorConfig,
    PEConfig,
    dense_baseline_config,
    random_workload,
    retime_trace_precision,
    sqdm_config,
)
from repro.analysis.tables import format_percentage, format_speedup, format_table
from repro.core.columnar import ensure_report
from repro.serve import SimulateJobSpec, run_batched


def build_trace(mean_sparsity: float, steps: int = 6, layers: int = 8):
    """A synthetic EDM-like trace: per-step conv layers with per-channel sparsity."""
    return [
        [
            random_workload(
                in_channels=64,
                out_channels=64,
                spatial=16,
                mean_sparsity=mean_sparsity,
                weight_bits=4,
                act_bits=4,
                seed=100 * step + layer,
                name=f"layer{layer}",
            )
            for layer in range(layers)
        ]
        for step in range(steps)
    ]


def main() -> None:
    trace = build_trace(mean_sparsity=0.65)
    fp16_trace = retime_trace_precision(trace, 16, 16)

    print("== Organization study: dense baseline vs heterogeneous DPE+SPE ==")
    fp16_dense, int4_dense, int4_sqdm = map(
        ensure_report,
        run_batched(
            [
                SimulateJobSpec(dense_baseline_config(), fp16_trace),
                SimulateJobSpec(dense_baseline_config(), trace),
                SimulateJobSpec(sqdm_config(), trace),
            ]
        ),
    )
    rows = [
        ["FP16, dense 2xDPE (baseline)", fp16_dense.total_time_ms, format_speedup(1.0), "-"],
        ["INT4, dense 2xDPE", int4_dense.total_time_ms,
         format_speedup(fp16_dense.total_cycles / int4_dense.total_cycles), "-"],
        ["INT4, 1xDPE + 1xSPE (SQ-DM)", int4_sqdm.total_time_ms,
         format_speedup(fp16_dense.total_cycles / int4_sqdm.total_cycles),
         format_percentage(1 - int4_sqdm.total_energy.total_pj / int4_dense.total_energy.total_pj)],
    ]
    print(
        format_table(
            [
                "Configuration",
                "Latency (ms)",
                "Speed-up vs FP16 dense",
                "Energy saving vs INT4 dense",
            ],
            rows,
        )
    )

    print("\n== Sensitivity to workload sparsity ==")
    sparsities = [0.3, 0.5, 0.65, 0.8]
    traces = [build_trace(mean_sparsity=mean_sparsity, steps=3) for mean_sparsity in sparsities]
    requests = [
        SimulateJobSpec(config, t)
        for t in traces
        for config in (dense_baseline_config(), sqdm_config())
    ]
    reports = [ensure_report(entry) for entry in run_batched(requests)]
    rows = [
        [
            format_percentage(mean_sparsity),
            format_speedup(dense.total_cycles / hetero.total_cycles),
            format_percentage(1 - hetero.total_energy.total_pj / dense.total_energy.total_pj),
        ]
        for mean_sparsity, dense, hetero in zip(sparsities, reports[0::2], reports[1::2])
    ]
    print(format_table(["Avg activation sparsity", "Speed-up vs dense", "Energy saving"], rows))

    print("\n== Scaling the PE array ==")
    multipliers = [64, 128, 256, 512]
    configs = [
        AcceleratorConfig(name=f"sqdm-{m}", num_dpe=1, num_spe=1, pe=PEConfig(multipliers=m))
        for m in multipliers
    ]
    entries = run_batched([SimulateJobSpec(config, trace) for config in configs])
    rows = [
        [m, report.total_time_ms, f"{report.total_energy.total_uj:.1f}"]
        for m, report in zip(multipliers, map(ensure_report, entries))
    ]
    print(format_table(["Multipliers per PE", "Latency (ms)", "Energy (uJ)"], rows))
    print(
        "\n(The architecture 'is scalable to meet specific latency and power requirements'"
        " — Sec. IV-D.)"
    )


if __name__ == "__main__":
    main()
