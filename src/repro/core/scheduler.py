"""Temporal sparsity update scheduling (Sec. IV-C, Fig. 11).

The per-channel dense/sparse classification must be refreshed as sampling
progresses because the sparsity pattern drifts across time steps.  The paper
analyses two knobs:

* the **sparsity threshold** separating dense from sparse channels — chosen
  at 30% to balance the dense and sparse PEs' execution time while keeping
  the sparse-group average sparsity around 70%; and
* the **update period** — how many time steps a classification is reused.
  More frequent updates track the drifting pattern better and therefore give
  higher speed-up; since the detector's cost is negligible and hidden behind
  compute, the paper updates every time step.

This module provides the sweep utilities behind those two analyses.  They
operate on accelerator workload traces (see
:func:`repro.core.sparsity.trace_to_workloads`) so they can be driven either
by real model traces or by synthetic ones.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..accelerator.config import AcceleratorConfig, dense_baseline_config, sqdm_config
from ..accelerator.detector import classify_channels
from ..accelerator.simulator import AcceleratorSimulator, WorkloadTrace, safe_speedup


@dataclass
class ThresholdAnalysisPoint:
    """Metrics of one candidate sparsity threshold (Fig. 11, left)."""

    threshold: float
    sparse_fraction: float
    sparse_group_sparsity: float
    dense_group_sparsity: float
    load_imbalance: float
    speedup: float


@dataclass
class UpdatePeriodPoint:
    """Speed-up achieved with one sparsity-update period (Fig. 11, right)."""

    update_period: int
    speedup: float
    updates_performed: int


def analyze_threshold(
    trace: WorkloadTrace,
    thresholds: list[float] | None = None,
    base_config: AcceleratorConfig | None = None,
) -> list[ThresholdAnalysisPoint]:
    """Sweep the dense/sparse threshold and report balance and speed-up.

    For each threshold the function reports the fraction of channels routed
    to the sparse PE, the average sparsity inside the sparse group (the
    paper reports ~70% at the chosen 30% threshold), the dense/sparse load
    imbalance, and the end-to-end speed-up versus the dense 2-DPE baseline.
    """
    if thresholds is None:
        thresholds = [round(t, 2) for t in np.arange(0.1, 0.95, 0.1)]
    base_config = base_config or sqdm_config()
    baseline_report = AcceleratorSimulator(
        dense_baseline_config(pe=base_config.pe)
    ).run_trace(trace)

    points = []
    for threshold in thresholds:
        config = replace(base_config, sparsity_threshold=float(threshold))
        report = AcceleratorSimulator(config).run_trace(trace)
        sparse_fractions = []
        sparse_sparsities = []
        dense_sparsities = []
        for step in trace:
            for workload in step:
                classification = classify_channels(workload.channel_sparsity, threshold)
                sparse_fractions.append(classification.sparse_fraction)
                sparse_sparsities.append(classification.sparse_group_sparsity)
                dense_sparsities.append(classification.dense_group_sparsity)
        points.append(
            ThresholdAnalysisPoint(
                threshold=float(threshold),
                sparse_fraction=float(np.mean(sparse_fractions)) if sparse_fractions else 0.0,
                sparse_group_sparsity=(
                    float(np.mean(sparse_sparsities)) if sparse_sparsities else 0.0
                ),
                dense_group_sparsity=float(np.mean(dense_sparsities)) if dense_sparsities else 0.0,
                load_imbalance=report.average_load_imbalance(),
                speedup=safe_speedup(baseline_report.total_cycles, report.total_cycles),
            )
        )
    return points


def best_threshold(points: list[ThresholdAnalysisPoint]) -> ThresholdAnalysisPoint:
    """The threshold with the highest speed-up (ties broken by lower imbalance)."""
    if not points:
        raise ValueError("no threshold points to choose from")
    return max(points, key=lambda p: (p.speedup, -p.load_imbalance))


def analyze_update_period(
    trace: WorkloadTrace,
    periods: list[int] | None = None,
    base_config: AcceleratorConfig | None = None,
) -> list[UpdatePeriodPoint]:
    """Sweep the sparsity-update period and report speed-up vs the dense baseline.

    With stale classifications, channels that turned dense stay on the SPE
    (slowing it down) and channels that turned sparse stay on the DPE
    (missing skip opportunities), so speed-up degrades as the period grows —
    the trend of Fig. 11 (right).
    """
    periods = periods if periods is not None else [1, 2, 4, 8, 16]
    base_config = base_config or sqdm_config()
    baseline_report = AcceleratorSimulator(
        dense_baseline_config(pe=base_config.pe)
    ).run_trace(trace)

    points = []
    for period in periods:
        config = replace(base_config, sparsity_update_period=int(period))
        report = AcceleratorSimulator(config).run_trace(trace)
        points.append(
            UpdatePeriodPoint(
                update_period=int(period),
                speedup=safe_speedup(baseline_report.total_cycles, report.total_cycles),
                updates_performed=report.detector_stats.updates_performed,
            )
        )
    return points


def detection_overhead_fraction(
    trace: WorkloadTrace, config: AcceleratorConfig | None = None
) -> float:
    """Fraction of total energy spent in the sparsity detector.

    Supports the paper's claim that the overhead of per-step sparsity updates
    is negligible compared to the overall computation cost.
    """
    config = config or sqdm_config()
    report = AcceleratorSimulator(config).run_trace(trace)
    total = report.total_energy.total_pj
    if total == 0:
        return 0.0
    return report.total_energy.detector_pj / total
