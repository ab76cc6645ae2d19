"""Vectorized simulation backend: whole-trace evaluation as batched array ops.

The reference backend pays one Python-level ``execute_layer`` call — dozens
of small NumPy operations and ``EnergyBreakdown`` additions — for every
layer of every time step.  On the paper's evaluation traces that per-layer
dispatch dominates the entire benchmark suite's runtime.

This engine removes it.  A :class:`~repro.accelerator.simulator.WorkloadTrace`
is flattened into ``(num_entries,)`` scalar arrays (one entry per layer per
time step) plus a padded ``(num_entries, max_channels)`` sparsity matrix, and
every quantity of the analytical model — dense/sparse channel grouping with
the temporal detector's update schedule, per-PE channel-chunk sizes, MAC /
cycle / energy tallies, NoC hop costs, global-buffer and DRAM traffic — is
computed for all entries at once.  Reports materialized from the result match
the reference backend's (same structure, per-layer results included) to
floating-point round-off: summation orders differ slightly, so totals agree
to ~1e-12 relative rather than bit-for-bit, well inside the 1e-9 equivalence
bound the test suite enforces.

Batching happens on two axes:

* *cross-trace*: N traces sharing one configuration are fused into a single
  pass;
* *cross-config*: the per-config scalar parameters (PE counts,
  thresholds, multiplier and packing factors, clocks, buffer capacities,
  NoC hop tables) are additionally stacked into arrays aligned with the
  flattened entry axis, so a whole design-space sweep — many
  configurations, each over many traces — is one NumPy pass.
  Configurations whose PE counts differ are padded to the widest PE axis in
  the batch and masked; every per-entry quantity stays row-independent, so
  each report is bit-identical to a solo run of that (config, trace) pair.

The kernel's native output is columnar:
:func:`run_config_traces_columnar` returns a
:class:`~repro.core.columnar.ColumnarReportBatch` — the whole result grid as
contiguous arrays plus offset tables, with **zero** per-entry Python object
construction; :meth:`VectorizedBackend.run` is a thin wrapper over it.
Two further hot-path savings ride on the same restructure:

* *unique-trace dedup*: a sweep points many configurations at the same
  trace objects, so workload-geometry extraction, the sparsity matrix and
  the detector schedule are computed once per **unique** trace at cell
  granularity and fanned out to (config, trace) entries by fancy-indexed
  gathers — value-copying, hence bit-identical to per-entry extraction.
* *detector schedules per (trace, period)*: the classification-refresh
  schedule depends only on the trace's (step, layer-name) sequence and the
  config's update period, so it is memoized per (unique trace, period)
  instead of re-walked per (config, trace) pair.

Intentional difference: per-PE :class:`ChannelGroupResult` lists are omitted
(``LayerExecutionResult.pe_results`` stays empty) — use
:meth:`ReferenceBackend.run_trace` when per-PE introspection is needed.
"""

from __future__ import annotations

import time

import numpy as np

from ...core.columnar import ColumnarReportBatch
from ...core.telemetry import COUNT_BUCKETS, get_registry
from ..config import AcceleratorConfig
from ..energy import DEFAULT_ENERGY_TABLE, EnergyTable
from ..noc import pe_hops
from ..workload import ConvLayerWorkload

# Kernel telemetry: how long each batched NumPy pass takes and how it was
# shaped (configs fused per call, flattened entry rows per call).
_KERNEL_SECONDS = get_registry().histogram(
    "repro_kernel_duration_seconds", "Wall time of one batched simulation kernel call."
)
_KERNEL_CONFIGS = get_registry().histogram(
    "repro_kernel_batch_configs",
    "Configurations fused into one kernel call.",
    buckets=COUNT_BUCKETS,
)
_KERNEL_ENTRIES = get_registry().histogram(
    "repro_kernel_batch_entries",
    "Flattened (config, trace, step, layer) rows per kernel call.",
    buckets=COUNT_BUCKETS,
)

#: Thresholds replicating the controller's degenerate classifications: a
#: dense-only array treats every channel as dense, a sparse-only array as
#: sparse (see :meth:`AcceleratorController.classify`).
_ALL_DENSE_THRESHOLD = 1.1
_ALL_SPARSE_THRESHOLD = -0.1


def _chunk_counts(
    totals: np.ndarray, parts: "np.ndarray | int", width: int | None = None
) -> np.ndarray:
    """Per-chunk sizes of ``np.array_split(range(n), p)`` for each (n, p) pair.

    ``array_split`` gives the first ``n % p`` chunks one extra element; this
    reproduces those sizes as a ``(len(totals), width)`` integer array without
    materializing any index lists.  ``parts`` is either one PE count shared by
    every row or a per-row array (the cross-config batch); rows whose count is
    below ``width`` are zero-padded on the right.
    """
    parts = np.asarray(parts, dtype=np.int64)
    per_row = parts.ndim > 0
    if width is None:
        width = int(parts.max(initial=0)) if per_row else int(parts)
    safe = np.maximum(parts, 1)
    base = totals // safe
    remainder = totals % safe
    chunk_index = np.arange(width)
    counts = base[:, None] + (chunk_index[None, :] < remainder[:, None])
    if per_row:
        counts = np.where(chunk_index[None, :] < parts[:, None], counts, 0)
    return counts


def _trace_schedule(
    trace: "list[list[ConvLayerWorkload]]", period: int
) -> "tuple[np.ndarray, int, int]":
    """Per-cell classification sources of one trace under one update period.

    Mirrors :class:`TemporalSparsityDetector`: a layer's classification is
    refreshed when first seen and whenever ``period`` time steps have elapsed
    since its last refresh; between refreshes the stale channel grouping
    (computed from the refresh step's sparsity) is reused while the *current*
    sparsity still drives the datapath work.  The schedule depends only on
    the trace's (time step, layer name, channel count) sequence and the
    period — not on which (config, trace) batch slot replays it — so the
    kernel computes it once per (unique trace, period) and offsets the
    returned trace-relative indices into each pair's entry range.  Every pair
    still carries its *own* detector state; sharing the schedule is pure
    memoization, bit-identical to walking each pair separately.

    Returns ``(source, updates_performed, channels_evaluated)`` with
    ``source[i]`` the trace-relative cell index whose sparsity sets cell
    ``i``'s dense/sparse split.
    """
    num_cells = sum(len(workloads) for workloads in trace)
    source = np.arange(num_cells, dtype=np.int64)
    last_update: dict[str, tuple[int, int]] = {}
    updates = 0
    channels = 0
    index = 0
    for time_step, workloads in enumerate(trace):
        for workload in workloads:
            previous = last_update.get(workload.name)
            if previous is None or time_step - previous[0] >= period:
                last_update[workload.name] = (time_step, index)
                updates += 1
                channels += workload.in_channels
            else:
                source[index] = previous[1]
            index += 1
    return source, updates, channels


def _front_compact(values: np.ndarray, mask: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each row's masked values packed into its first ``counts[i]`` columns.

    Values keep ascending column order (as ``np.flatnonzero`` yields them)
    and the rest of each row is zero; ``counts`` must be ``mask.sum(axis=1)``.
    Boolean indexing reads and writes in row-major order and row ``i`` has
    ``counts[i]`` slots on both sides, so every row's values land in its own
    leading columns — the same array a stable argsort of ``~mask`` gathers,
    without the sort.
    """
    packed = np.zeros(values.shape, dtype=values.dtype)
    packed[np.arange(values.shape[1]) < counts[:, None]] = values[mask]
    return packed


def _segment_sums(rows: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per-segment column sums with strictly sequential association.

    Accumulates ``((row0 + row1) + row2)...`` for each segment — the exact
    float operation sequence of the reference backend's per-step loop — by
    adding one row per still-open segment per iteration, vectorized across
    segments.  Because each segment's sum depends only on its own rows and
    length, the result is bit-identical no matter how the surrounding batch
    is shaped (fused sweep, per-config fleet partition, or solo run), which
    ``np.add.reduceat``'s pairwise trees are not.  Empty segments sum to 0.

    One fancy-indexed gather lays the rows out as ``(offset, segment)``
    slabs, zero-padded past each segment's end, and the loop adds one
    contiguous slab per offset — max(sizes) iterations, layers per step /
    steps per trace, both small.  The slabs hold max(sizes) rows for every
    segment, at most max/mean times ``rows``, far below the kernel's
    (entries x channels) matrices.  The padding is exact: a running sum that
    starts at +0.0 can never become -0.0, so adding +0.0 leaves it unchanged
    bit for bit.
    """
    width = int(sizes.max()) if len(sizes) else 0
    offsets = np.arange(width)
    present = offsets[:, None] < sizes[None, :]
    slabs = np.zeros((width, len(starts), rows.shape[1]), dtype=rows.dtype)
    slabs[present] = rows[(starts[None, :] + offsets[:, None])[present]]
    sums = np.zeros((len(starts), rows.shape[1]), dtype=rows.dtype)
    for slab in slabs:
        sums += slab
    return sums


def _zero_batch(
    entries: "list[tuple[AcceleratorConfig, list[list[list[ConvLayerWorkload]]]]]",
) -> ColumnarReportBatch:
    """An all-empty batch (no layer entries anywhere) with the input's shape."""
    trace_steps = np.array(
        [len(trace) for _, traces in entries for trace in traces], dtype=np.int64
    )
    num_traces = len(trace_steps)
    num_steps = int(trace_steps.sum())
    return ColumnarReportBatch(
        config_names=[config.name for config, _ in entries],
        clock_ghz=np.array([config.clock_ghz for config, _ in entries], dtype=np.float64),
        traces_per_config=np.array([len(traces) for _, traces in entries], dtype=np.int64),
        trace_steps=trace_steps,
        step_sizes=np.zeros(num_steps, dtype=np.int64),
        layer_names=[],
        layer_cycles=np.zeros(0),
        layer_energy=np.zeros((0, 7)),
        total_macs=np.zeros(0),
        executed_macs=np.zeros(0),
        dense_channels=np.zeros(0, dtype=np.int64),
        sparse_channels=np.zeros(0, dtype=np.int64),
        dense_cycles=np.zeros(0),
        sparse_cycles=np.zeros(0),
        step_totals=np.zeros((num_steps, 8)),
        trace_totals=np.zeros((num_traces, 8)),
        detector_updates=np.zeros(num_traces, dtype=np.int64),
        detector_channels=np.zeros(num_traces, dtype=np.int64),
    )


def run_config_traces_columnar(
    entries: "list[tuple[AcceleratorConfig, list[list[list[ConvLayerWorkload]]]]]",
    energy_table: EnergyTable | None = None,
) -> ColumnarReportBatch:
    """Timed wrapper over :func:`_run_config_traces_impl` (the actual kernel):
    records call duration and batch shape into the telemetry registry."""
    began = time.monotonic()
    try:
        return _run_config_traces_impl(entries, energy_table)
    finally:
        _KERNEL_SECONDS.observe(time.monotonic() - began)
        _KERNEL_CONFIGS.observe(len(entries))
        _KERNEL_ENTRIES.observe(
            sum(
                len(workloads)
                for _, traces in entries
                for trace in traces
                for workloads in trace
            )
        )


def _run_config_traces_impl(
    entries: "list[tuple[AcceleratorConfig, list[list[list[ConvLayerWorkload]]]]]",
    energy_table: EnergyTable | None = None,
) -> ColumnarReportBatch:
    """Execute a ``(config x trace)`` batch in one cross-config NumPy pass.

    ``entries`` pairs each :class:`AcceleratorConfig` with the traces to run
    on it; the result is one :class:`ColumnarReportBatch` covering the whole
    grid — no report objects are built here.  All (config, trace, time step,
    layer) cells are flattened into a single entry axis, per-config scalar
    parameters are gathered into arrays aligned with that axis, and per-PE
    quantities are padded to the widest PE count in the batch — so an entire
    sweep costs one batched pass instead of one per configuration.  Every
    report later materialized from the batch is bit-identical to a solo
    run of its (config, trace) pair: the per-entry math is
    row-independent, padding columns stay exactly zero, and each
    (config, trace) pair keeps its own detector schedule.

    All configurations in a batch must share ``energy_table``; the scheduler
    guarantees this by grouping requests on the table fingerprint.
    """
    table = energy_table or DEFAULT_ENERGY_TABLE
    configs = [config for config, _ in entries]

    # --- unique-trace cell tables ----------------------------------------
    # Sweeps run many configurations over the *same* trace objects, so all
    # config-independent per-layer work (geometry extraction, the sparsity
    # matrix, detector schedules) is done once per unique trace over a
    # "cell" axis — one cell per (step, layer) of each unique trace — and
    # fanned out to the (config, trace) entry axis by gathers below.
    unique_of: dict[int, int] = {}
    unique_traces: list[list[list[ConvLayerWorkload]]] = []
    pairs: list[tuple[int, int]] = []
    for config_idx, (_, traces) in enumerate(entries):
        for trace in traces:
            uidx = unique_of.get(id(trace))
            if uidx is None:
                uidx = unique_of.setdefault(id(trace), len(unique_traces))
                unique_traces.append(trace)
            pairs.append((config_idx, uidx))

    cell_workloads: list[ConvLayerWorkload] = []
    u_starts: list[int] = []
    u_sizes: list[int] = []
    u_step_sizes: list[np.ndarray] = []
    for trace in unique_traces:
        u_starts.append(len(cell_workloads))
        u_step_sizes.append(np.array([len(workloads) for workloads in trace], dtype=np.int64))
        for workloads in trace:
            cell_workloads.extend(workloads)
        u_sizes.append(len(cell_workloads) - u_starts[-1])

    pair_cfg = np.array([config_idx for config_idx, _ in pairs], dtype=np.int64).reshape(-1)
    pair_sizes = np.array([u_sizes[uidx] for _, uidx in pairs], dtype=np.int64).reshape(-1)
    entry_base = np.concatenate(([0], np.cumsum(pair_sizes)))
    num_entries = int(entry_base[-1])
    if num_entries == 0:
        return _zero_batch(entries)

    # Entry axis = concatenation of each pair's cell range, config-major then
    # trace-major (the batch's canonical order).
    cell_idx = np.concatenate(
        [
            np.arange(u_starts[uidx], u_starts[uidx] + u_sizes[uidx], dtype=np.int64)
            for _, uidx in pairs
        ]
    )
    cfg = np.repeat(pair_cfg, pair_sizes)
    step_sizes = (
        np.concatenate([u_step_sizes[uidx] for _, uidx in pairs])
        if pairs
        else np.zeros(0, dtype=np.int64)
    )
    trace_steps = np.array([len(u_step_sizes[uidx]) for _, uidx in pairs], dtype=np.int64)

    # --- per-config parameter rows, gathered onto the entry axis ----------
    num_dpe_c = np.array([c.num_dpe for c in configs], dtype=np.int64)
    num_spe_c = np.array([c.num_spe for c in configs], dtype=np.int64)
    threshold_c = np.array([c.sparsity_threshold for c in configs], dtype=np.float64)
    periods_c = np.array([c.sparsity_update_period for c in configs], dtype=np.int64)
    multipliers_c = np.array([c.pe.multipliers for c in configs], dtype=np.float64)
    sparse_util_c = np.array([c.pe.sparse_utilization for c in configs], dtype=np.float64)
    sparse_kmac_c = np.array([c.pe.sparse_overhead_per_kmac for c in configs], dtype=np.float64)
    overhead_c = np.array([c.pe.pipeline_overhead_cycles for c in configs], dtype=np.float64)
    noc_bw_c = np.array([c.noc_bandwidth_bytes_per_cycle for c in configs], dtype=np.float64)
    capacity_c = np.array([float(c.global_buffer_kib * 1024) for c in configs], dtype=np.float64)
    mixed_c = (num_dpe_c > 0) & (num_spe_c > 0)

    max_dpe = int(num_dpe_c.max())
    max_spe = int(num_spe_c.max())

    # Hop counts per (config, PE slot), slot-aligned with the padded per-PE
    # axes below: dense slots first, then sparse slots, zeros past each
    # config's real PE count (where the padded traffic is zero anyway).
    hops_c = np.zeros((len(configs), max_dpe + max_spe), dtype=np.float64)
    for config_idx, config in enumerate(configs):
        hops = pe_hops(np.arange(config.num_dpe + config.num_spe))
        hops_c[config_idx, : config.num_dpe] = hops[: config.num_dpe]
        hops_c[config_idx, max_dpe : max_dpe + config.num_spe] = hops[config.num_dpe :]

    dpe_e = num_dpe_c[cfg]
    spe_e = num_spe_c[cfg]

    # --- per-cell scalar arrays, gathered to entries ----------------------
    # One pass over each unique trace's workloads extracts the raw geometry;
    # every derived quantity (footprints, MAC counts) is then computed as
    # array math, reproducing the ConvLayerWorkload formulas exactly
    # (integer-valued float64 products are exact well past these
    # magnitudes).  The entry-axis gathers copy values verbatim, so entries
    # replaying the same trace under different configs are bit-identical to
    # extracting per entry.  The geometry goes through one flat list: NumPy
    # converts a flat list of ints far faster than a list of tuples.
    geometry: list[int] = []
    for w in cell_workloads:
        geometry += (
            w.in_channels,
            w.out_channels,
            w.kernel_size,
            w.out_height,
            w.out_width,
            w.weight_bits,
            w.act_bits,
        )
    num_cells = len(cell_workloads)
    raw = np.array(geometry, dtype=np.float64).reshape(num_cells, 7)
    in_channels_u = raw[:, 0].astype(np.int64)
    kernel_sq_u = raw[:, 2] * raw[:, 2]
    spatial_u = raw[:, 3] * raw[:, 4]
    op_bits_u = np.maximum(raw[:, 5], raw[:, 6]).astype(np.int64)
    macs_per_channel_u = raw[:, 1] * kernel_sq_u * spatial_u
    weight_bytes_total_u = raw[:, 1] * raw[:, 0] * kernel_sq_u * raw[:, 5] / 8.0
    output_bytes_u = raw[:, 1] * spatial_u * raw[:, 6] / 8.0
    input_bytes_full_u = raw[:, 0] * spatial_u * raw[:, 6] / 8.0
    total_macs_u = raw[:, 0] * macs_per_channel_u
    channels_div_u = np.maximum(raw[:, 0], 1.0)

    # MAC energy and lane packing per cell (few distinct precisions).
    mac_energy_u = np.empty(num_cells, dtype=np.float64)
    packing_u = np.empty(num_cells, dtype=np.float64)
    for bits in np.unique(op_bits_u):
        selected = op_bits_u == bits
        mac_energy_u[selected] = table.mac_energy(int(bits))
        packing_u[selected] = max(16.0 / float(bits), 1.0)

    # --- padded channel-sparsity matrix (per cell) ------------------------
    # One concatenate + fancy-index assignment fills every row at once; the
    # values are copied verbatim, so the fill is bit-identical to a per-row
    # Python loop.
    max_channels = max(1, int(in_channels_u.max()))
    sparsity_cell = np.zeros((num_cells, max_channels), dtype=np.float64)
    flat_sparsity = np.concatenate([w.channel_sparsity for w in cell_workloads], dtype=np.float64)
    rows = np.repeat(np.arange(num_cells), in_channels_u)
    starts_per_row = np.concatenate(([0], np.cumsum(in_channels_u)[:-1]))
    cols = np.arange(flat_sparsity.size) - np.repeat(starts_per_row, in_channels_u)
    sparsity_cell[rows, cols] = flat_sparsity
    valid_cell = np.arange(max_channels)[None, :] < in_channels_u[:, None]

    # Entry-axis views of the cell tables.
    out_channels = raw[cell_idx, 1]
    spatial = spatial_u[cell_idx]
    act_bits = raw[cell_idx, 6]
    macs_per_channel = macs_per_channel_u[cell_idx]
    weight_bytes_total = weight_bytes_total_u[cell_idx]
    output_bytes = output_bytes_u[cell_idx]
    input_bytes_full = input_bytes_full_u[cell_idx]
    total_macs = total_macs_u[cell_idx]
    channels_div = channels_div_u[cell_idx]
    mac_energy = mac_energy_u[cell_idx]
    sparsity_now = sparsity_cell[cell_idx]
    valid = valid_cell[cell_idx]

    dense_throughput = multipliers_c[cfg] * packing_u[cell_idx]
    sparse_throughput = dense_throughput * sparse_util_c[cfg]
    pipeline_overhead = overhead_c[cfg]

    # Per-entry classification thresholds: degenerate configurations force
    # an all-dense / all-sparse split regardless of the detector.
    threshold_e = np.where(
        spe_e == 0,
        _ALL_DENSE_THRESHOLD,
        np.where(dpe_e == 0, _ALL_SPARSE_THRESHOLD, threshold_c[cfg]),
    )

    # --- detector schedules -----------------------------------------------
    # Every (config, trace) pair of a batch carries its own detector state —
    # classifications never leak across traces or configurations, so batched
    # results match solo runs.  Degenerate configurations (all-dense or
    # all-sparse) bypass the detector entirely, exactly like the reference
    # controller.  ``source[i]`` is the entry whose sparsity sets entry
    # ``i``'s dense/sparse split (itself, unless a stale classification is
    # being reused).
    num_pairs = len(pairs)
    source = np.arange(num_entries, dtype=np.int64)
    detector_updates = np.zeros(num_pairs, dtype=np.int64)
    detector_channels = np.zeros(num_pairs, dtype=np.int64)
    schedules: dict[tuple[int, int], tuple[np.ndarray, int, int]] = {}
    detector_active = False
    for pair_idx, (config_idx, uidx) in enumerate(pairs):
        if not mixed_c[config_idx] or not u_sizes[uidx]:
            continue
        period = int(periods_c[config_idx])
        schedule = schedules.get((uidx, period))
        if schedule is None:
            schedule = schedules.setdefault(
                (uidx, period), _trace_schedule(unique_traces[uidx], period)
            )
        relative_source, updates, channels = schedule
        base = int(entry_base[pair_idx])
        source[base : base + relative_source.size] = base + relative_source
        detector_updates[pair_idx] = updates
        detector_channels[pair_idx] = channels
        detector_active = True

    sparsity_src = sparsity_now[source] if detector_active else sparsity_now
    sparse_mask = (sparsity_src >= threshold_e[:, None]) & valid
    num_sparse = sparse_mask.sum(axis=1)
    num_dense = in_channels_u[cell_idx] - num_sparse

    # --- dense PE chunks --------------------------------------------------
    if max_dpe:
        dense_counts = _chunk_counts(num_dense, dpe_e, max_dpe).astype(np.float64)
        dense_macs = dense_counts * macs_per_channel[:, None]
        dense_cycles_pe = dense_macs / dense_throughput[:, None] + pipeline_overhead[:, None] * (
            dense_macs > 0
        )
        dense_input_bytes = dense_counts * spatial[:, None] * act_bits[:, None] / 8.0
        dense_weight_bytes = weight_bytes_total[:, None] * (dense_counts / channels_div[:, None])
        dense_cycles = dense_cycles_pe.max(axis=1)
    else:
        dense_counts = np.zeros((num_entries, 0))
        dense_macs = dense_cycles_pe = dense_input_bytes = dense_weight_bytes = dense_counts
        dense_cycles = np.zeros(num_entries)

    # --- sparse PE chunks -------------------------------------------------
    if max_spe:
        # Densities of the sparse channels, compacted to the front of each
        # row, so array_split chunk sums become prefix-sum differences.
        compacted = _front_compact(1.0 - sparsity_now, sparse_mask, num_sparse)
        prefix = np.zeros((num_entries, max_channels + 1), dtype=np.float64)
        np.cumsum(compacted, axis=1, out=prefix[:, 1:])

        sparse_counts = _chunk_counts(num_sparse, spe_e, max_spe)
        chunk_ends = np.cumsum(sparse_counts, axis=1)
        chunk_starts = chunk_ends - sparse_counts
        entry_rows = np.arange(num_entries)[:, None]
        density_sums = prefix[entry_rows, chunk_ends] - prefix[entry_rows, chunk_starts]
        sparse_counts = sparse_counts.astype(np.float64)

        sparse_group_macs = sparse_counts * macs_per_channel[:, None]
        nonzero_fraction = np.divide(
            density_sums,
            sparse_counts,
            out=np.zeros_like(density_sums),
            where=sparse_counts > 0,
        )
        effective_macs = sparse_group_macs * nonzero_fraction
        sparse_cycles_pe = (
            effective_macs / sparse_throughput[:, None]
            + effective_macs / 1024.0 * sparse_kmac_c[cfg][:, None]
            + pipeline_overhead[:, None] * (sparse_group_macs > 0)
        )
        sparse_input_bytes = (
            density_sums * spatial[:, None] * act_bits[:, None] / 8.0
            + sparse_counts * spatial[:, None] / 8.0
        )
        sparse_weight_bytes = weight_bytes_total[:, None] * (sparse_counts / channels_div[:, None])
        sparse_cycles = sparse_cycles_pe.max(axis=1)
    else:
        empty = np.zeros((num_entries, 0))
        sparse_group_macs = effective_macs = sparse_cycles_pe = empty
        sparse_input_bytes = sparse_weight_bytes = empty
        sparse_cycles = np.zeros(num_entries)

    # --- per-entry roll-ups -----------------------------------------------
    executed_dense = dense_macs.sum(axis=1)
    executed_sparse = effective_macs.sum(axis=1)
    executed = executed_dense + executed_sparse

    # Per-PE GLB<->PE traffic (operands + partial-sum writeback), slot-padded
    # past each entry's real PE count so hop products and row maxima see
    # exact zeros there.
    valid_dpe = np.arange(max_dpe)[None, :] < dpe_e[:, None]
    valid_spe = np.arange(max_spe)[None, :] < spe_e[:, None]
    pe_bytes = np.concatenate(
        [
            np.where(
                valid_dpe, dense_input_bytes + dense_weight_bytes + output_bytes[:, None], 0.0
            ),
            np.where(
                valid_spe, sparse_input_bytes + sparse_weight_bytes + output_bytes[:, None], 0.0
            ),
        ],
        axis=1,
    )
    glb_bytes = pe_bytes.sum(axis=1)
    noc_cycles = pe_bytes.max(axis=1) / noc_bw_c[cfg]
    noc_pj = (pe_bytes * hops_c[cfg]).sum(axis=1) * table.noc_pj_per_byte_hop

    mac_pj = executed * mac_energy
    local_buffer_pj = glb_bytes * table.local_buffer_pj_per_byte
    global_buffer_pj = glb_bytes * table.global_buffer_pj_per_byte
    idle_pj = (
        dense_cycles_pe.sum(axis=1) + sparse_cycles_pe.sum(axis=1)
    ) * table.idle_pj_per_cycle_per_pe
    detector_pj = (dpe_e + spe_e) * out_channels * table.detector_pj_per_channel

    working_set = weight_bytes_total + input_bytes_full + output_bytes
    capacity = capacity_c[cfg]
    dram_pj = np.where(working_set > capacity, working_set - capacity, 0.0) * (
        table.dram_pj_per_byte
    )

    compute_cycles = np.maximum(dense_cycles, sparse_cycles)
    layer_cycles = np.maximum(compute_cycles, noc_cycles)

    # --- columnar roll-up -------------------------------------------------
    # The kernel's output stays columnar: per-layer columns plus segment-sum
    # totals, no report objects.  Per-step sums must use the reference
    # loop's *sequential* association ((l0 + l1) + l2)... so materialized
    # results are bit-identical to a solo run of the same trace, not merely
    # close.  ``np.add.reduceat`` does NOT guarantee that: it sums segments
    # pairwise, and its implicit final segment runs to the end of the array,
    # so the same step sums over a different tree depending on where it
    # lands in the batch — a one-ulp divergence between a fleet worker's
    # single-config partition and the fused sweep.  :func:`_segment_sums`
    # accumulates one row per segment per iteration instead: sequential
    # association per segment, vectorized across segments, and independent
    # of the surrounding batch shape.  Same shape one level up: per-trace
    # totals are sequential sums of the per-step rows.
    energy_stack = np.column_stack(
        [mac_pj, local_buffer_pj, global_buffer_pj, dram_pj, noc_pj, detector_pj, idle_pj]
    )
    step_ends = np.cumsum(step_sizes)
    step_starts = step_ends - step_sizes
    stacked = np.column_stack([layer_cycles, energy_stack])
    step_totals = _segment_sums(stacked, step_starts, step_sizes)
    trace_ends = np.cumsum(trace_steps)
    trace_starts = trace_ends - trace_steps
    trace_totals = _segment_sums(step_totals, trace_starts, trace_steps)

    cell_names = [w.name for w in cell_workloads]
    return ColumnarReportBatch(
        config_names=[config.name for config in configs],
        clock_ghz=np.array([config.clock_ghz for config in configs], dtype=np.float64),
        traces_per_config=np.array([len(traces) for _, traces in entries], dtype=np.int64),
        trace_steps=trace_steps,
        step_sizes=step_sizes,
        layer_names=[cell_names[j] for j in cell_idx.tolist()],
        layer_cycles=layer_cycles,
        layer_energy=energy_stack,
        total_macs=total_macs,
        executed_macs=executed,
        dense_channels=num_dense,
        sparse_channels=num_sparse,
        dense_cycles=dense_cycles,
        sparse_cycles=sparse_cycles,
        step_totals=step_totals,
        trace_totals=trace_totals,
        detector_updates=detector_updates,
        detector_channels=detector_channels,
    )


class VectorizedBackend:
    """Evaluates whole ``(config x trace)`` grids with batched NumPy operations."""

    name = "vectorized"

    def __init__(self, config: AcceleratorConfig, energy_table: EnergyTable | None = None):
        self.config = config
        self.energy_table = energy_table or DEFAULT_ENERGY_TABLE

    def run(
        self, entries: "list[tuple[AcceleratorConfig, list[list[list[ConvLayerWorkload]]]]]"
    ) -> ColumnarReportBatch:
        """Execute a ``(config x trace)`` grid in one cross-config kernel pass.

        The backend's own configuration does not constrain the batch — every
        entry carries its config — but all entries share this backend's
        energy table.
        """
        return run_config_traces_columnar(entries, self.energy_table)
