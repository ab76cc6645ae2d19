"""Ablations on the accelerator design choices (beyond the paper's figures).

Three design decisions of the SQ-DM accelerator are ablated on the CIFAR-10
quantized workload trace:

* **Heterogeneity** — 1 DPE + 1 SPE (SQ-DM) vs 2 DPEs (dense baseline) vs
  2 SPEs (all-sparse), at equal multiplier count.
* **Sparse-datapath quality** — sweep the SIGMA-like datapath's utilization
  derating to show how sensitive the speed-up is to the sparse engine design.
* **Precision assignment** — FP16 vs uniform INT8 vs uniform INT4 vs the
  mixed-precision trace produced by the SQ-DM policy.
"""

from __future__ import annotations

from conftest import run_once

from repro.accelerator import (
    AcceleratorConfig,
    AcceleratorSimulator,
    PEConfig,
    dense_baseline_config,
    retime_trace_precision,
    sqdm_config,
)
from repro.analysis.tables import format_speedup, format_table
from repro.core.policy import mixed_precision_policy
from repro.core.sparsity import trace_to_workloads


def test_ablation_accelerator_design_choices(benchmark, ctx):
    pipeline = ctx.pipeline("cifar10")

    def experiment():
        trace = ctx.trace("cifar10")
        policy = mixed_precision_policy(pipeline.workload.unet, relu=True)
        quant_trace = trace_to_workloads(trace, policy)
        fp16_trace = retime_trace_precision(quant_trace, 16, 16)
        int8_trace = retime_trace_precision(quant_trace, 8, 8)
        int4_trace = retime_trace_precision(quant_trace, 4, 4)

        baseline = AcceleratorSimulator(dense_baseline_config()).run_trace(quant_trace)

        organizations = {
            "2x DPE (dense baseline)": baseline,
            "1x DPE + 1x SPE (SQ-DM)": AcceleratorSimulator(sqdm_config()).run_trace(quant_trace),
            "2x SPE (all-sparse)": AcceleratorSimulator(
                AcceleratorConfig(name="all_sparse", num_dpe=0, num_spe=2)
            ).run_trace(quant_trace),
        }

        utilization = {}
        for derate in (0.6, 0.85, 1.0):
            config = AcceleratorConfig(
                name=f"spe_util_{derate}",
                num_dpe=1,
                num_spe=1,
                pe=PEConfig(sparse_utilization=derate),
            )
            utilization[derate] = AcceleratorSimulator(config).run_trace(quant_trace)

        precision = {
            "FP16": AcceleratorSimulator(dense_baseline_config()).run_trace(fp16_trace),
            "INT8": AcceleratorSimulator(dense_baseline_config()).run_trace(int8_trace),
            "INT4": AcceleratorSimulator(dense_baseline_config()).run_trace(int4_trace),
            "SQ-DM mixed precision": baseline,
        }
        return baseline, organizations, utilization, precision

    baseline, organizations, utilization, precision = run_once(benchmark, experiment)

    print()
    print(
        format_table(
            ["PE organization", "Speed-up vs dense baseline"],
            [
                [name, format_speedup(baseline.total_cycles / rep.total_cycles)]
                for name, rep in organizations.items()
            ],
            title="Ablation: PE organization (equal multiplier count)",
        )
    )
    print()
    print(
        format_table(
            ["Sparse datapath utilization", "Speed-up vs dense baseline"],
            [
                [derate, format_speedup(baseline.total_cycles / rep.total_cycles)]
                for derate, rep in utilization.items()
            ],
            title="Ablation: SIGMA-like datapath utilization derating",
        )
    )
    print()
    fp16_cycles = precision["FP16"].total_cycles
    print(
        format_table(
            ["Precision", "Speed-up vs FP16 dense"],
            [
                [name, format_speedup(fp16_cycles / rep.total_cycles)]
                for name, rep in precision.items()
            ],
            title="Ablation: uniform precisions vs the SQ-DM mixed-precision assignment",
        )
    )

    # Heterogeneous DPE+SPE clearly beats the dense organization.  (An
    # all-sparse array can look competitive in this analytical model when the
    # trace is very sparse, because the only dense-channel penalty modelled is
    # the utilization derate; the printed table reports it for comparison.)
    sqdm_cycles = organizations["1x DPE + 1x SPE (SQ-DM)"].total_cycles
    assert sqdm_cycles < organizations["2x DPE (dense baseline)"].total_cycles
    # Better sparse-datapath utilization monotonically improves the speed-up.
    assert utilization[1.0].total_cycles <= utilization[0.85].total_cycles
    assert utilization[0.85].total_cycles <= utilization[0.6].total_cycles
    # Precision ladder: INT8 ~2x, INT4 ~4x over FP16; mixed precision lands between the two.
    assert precision["INT8"].total_cycles > precision["INT4"].total_cycles
    assert precision["INT4"].total_cycles <= baseline.total_cycles <= precision["INT8"].total_cycles
