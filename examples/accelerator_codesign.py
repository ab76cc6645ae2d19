"""Accelerator co-design exploration (Fig. 9 / Fig. 12 style).

Uses the accelerator simulator directly — without running the neural network —
to explore hardware design points on synthetic workload traces: PE sizing,
dense-vs-heterogeneous organizations and the effect of workload sparsity.
This is the workflow a hardware architect would use to scale the design "to
meet specific latency and power requirements" (Sec. IV-D).

Design-point evaluations are independent, so the sparsity and PE-scaling
studies fan out through the declarative sweep runner
(:func:`repro.core.experiments.run_sweep`) over one shared
:class:`~repro.serve.EvaluationService` opened as a context manager — the
same sweeps would run inline (:class:`~repro.core.execution.InlineExecutor`)
or on a remote endpoint (:class:`~repro.serve.RemoteEvaluationClient`) by
swapping that one object.  The organization study
goes through the batching scheduler (:func:`repro.serve.run_batched`), which
coalesces the two dense-baseline traces into one cross-trace batched pass,
caches every result as a one-trace columnar batch and hands those back;
:func:`~repro.core.columnar.ensure_report` turns each into its report.

Usage::

    python examples/accelerator_codesign.py
"""

from __future__ import annotations

from repro.accelerator import (
    AcceleratorConfig,
    AcceleratorSimulator,
    PEConfig,
    dense_baseline_config,
    random_workload,
    retime_trace_precision,
    sqdm_config,
)
from repro.analysis.tables import format_percentage, format_speedup, format_table
from repro.core.columnar import ensure_report
from repro.core.experiments import SweepSpec, run_sweep
from repro.serve import EvaluationService, SimulateJobSpec, run_batched


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

    def sparsity_point(mean_sparsity: float) -> list[str]:
        t = build_trace(mean_sparsity=mean_sparsity, steps=3)
        dense = AcceleratorSimulator(dense_baseline_config()).run_trace(t)
        hetero = AcceleratorSimulator(sqdm_config()).run_trace(t)
        return [
            format_percentage(mean_sparsity),
            format_speedup(dense.total_cycles / hetero.total_cycles),
            format_percentage(1 - hetero.total_energy.total_pj / dense.total_energy.total_pj),
        ]

    # One evaluation service, context-managed, serves both studies below; its
    # thread pool fans the design points out.
    with EvaluationService() as service:
        sweep = run_sweep(
            sparsity_point,
            SweepSpec(name="sparsity-sensitivity", grid={"mean_sparsity": [0.3, 0.5, 0.65, 0.8]}),
            executor=service,
        )
        print(
            format_table(
                ["Avg activation sparsity", "Speed-up vs dense", "Energy saving"], sweep.values()
            )
        )

        print("\n== Scaling the PE array ==")

        def scaling_point(multipliers: int) -> list:
            config = AcceleratorConfig(
                name=f"sqdm-{multipliers}",
                num_dpe=1,
                num_spe=1,
                pe=PEConfig(multipliers=multipliers),
            )
            report = AcceleratorSimulator(config).run_trace(trace)
            return [multipliers, report.total_time_ms, f"{report.total_energy.total_uj:.1f}"]

        sweep = run_sweep(
            scaling_point,
            SweepSpec(name="pe-scaling", grid={"multipliers": [64, 128, 256, 512]}),
            executor=service,
        )
        print(format_table(["Multipliers per PE", "Latency (ms)", "Energy (uJ)"], sweep.values()))
    print(
        "\n(The architecture 'is scalable to meet specific latency and power requirements'"
        " — Sec. IV-D.)"
    )


if __name__ == "__main__":
    main()
