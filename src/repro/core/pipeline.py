"""End-to-end SQ-DM pipeline.

Ties the pieces of the co-design together, mirroring the paper's flow:

1. start from a (SiLU-based) EDM workload;
2. optionally adapt it to ReLU (Sec. III-B) via calibration;
3. apply a quantization policy (uniform Table I format, or the paper's
   mixed-precision schemes of Table II);
4. generate images and measure quality with the proxy FID;
5. trace the temporal per-channel activation sparsity during sampling;
6. run the trace through the accelerator simulator against the dense
   baseline and the FP16 reference, producing the speed-up / energy numbers
   of Figs. 1 and 12.

The :class:`SQDMPipeline` caches reference FID statistics and FP16 baseline
hardware runs per workload so parameter sweeps (Tables I/II, Fig. 3,
Fig. 11) do not redo shared work.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..accelerator.config import AcceleratorConfig, dense_baseline_config, sqdm_config
from ..accelerator.simulator import SimulationReport, relative_saving, safe_speedup
from ..diffusion.fid import FeatureStatistics, FIDEvaluator
from ..diffusion.finetune import adapt_to_relu, make_calibration_batch
from ..diffusion.sampler import SamplerConfig, sample
from ..diffusion.schedule import ScheduleConfig
from ..nn.unet import EDMUNet
from ..workloads.models import Workload, load_workload
from .artifacts import ArtifactStore, default_artifact_store
from .costs import CostSummary, cost_summary
from .policy import QuantizationPolicy, mixed_precision_policy, table1_policy
from .report_cache import ReportCache
from .sparsity import TemporalSparsityTrace, collect_sparsity_trace, trace_to_workloads

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .execution import Executor

#: Artifact-store namespaces used by the pipeline.
FID_STATS_ARTIFACT_KIND = "fid_stats"
TRACE_ARTIFACT_KIND = "trace"


def _policy_fingerprint(policy: QuantizationPolicy | None) -> str:
    """Stable digest of a policy's per-layer bit assignments (artifact keys)."""
    if policy is None:
        return "none"
    assignments = [
        (name, assignment.weight_bits, assignment.act_bits)
        for name, assignment in sorted(policy.assignments.items())
    ]
    return ArtifactStore.key_for(policy.name, str(policy.requires_relu), repr(assignments))


@dataclass
class PipelineConfig:
    """Evaluation-scale knobs shared by all experiments."""

    num_fid_samples: int = 24
    num_reference_samples: int = 512
    num_sampling_steps: int = 8
    num_trace_samples: int = 2
    zero_tolerance_rel: float = 1.0 / 30.0
    seed: int = 0

    def sampler_config(self) -> SamplerConfig:
        return SamplerConfig(
            schedule=ScheduleConfig(num_steps=self.num_sampling_steps), seed=self.seed
        )


@dataclass
class QuantizationEvaluation:
    """Quality + cost of one quantization scheme on one workload."""

    workload: str
    scheme: str
    fid: float
    costs: CostSummary
    relu_based: bool = False

    @property
    def compute_saving(self) -> float:
        return self.costs.compute_saving

    @property
    def memory_saving(self) -> float:
        return self.costs.memory_saving


@dataclass
class HardwareEvaluation:
    """Accelerator results for one workload under the SQ-DM policy."""

    workload: str
    sqdm_report: SimulationReport
    dense_baseline_report: SimulationReport
    fp16_dense_report: SimulationReport
    average_sparsity: float

    @property
    def sparsity_speedup(self) -> float:
        """Speed-up of DPE+SPE over the 2-DPE dense baseline at equal precision."""
        return safe_speedup(
            self.dense_baseline_report.total_cycles, self.sqdm_report.total_cycles
        )

    @property
    def sparsity_energy_saving(self) -> float:
        return relative_saving(
            self.dense_baseline_report.total_energy.total_pj,
            self.sqdm_report.total_energy.total_pj,
        )

    @property
    def quantization_speedup(self) -> float:
        """Speed-up of the quantized dense baseline over the FP16 dense baseline."""
        return safe_speedup(
            self.fp16_dense_report.total_cycles, self.dense_baseline_report.total_cycles
        )

    @property
    def total_speedup(self) -> float:
        """Total speed-up of SQ-DM over an FP16 dense accelerator (Fig. 12, bottom)."""
        return safe_speedup(self.fp16_dense_report.total_cycles, self.sqdm_report.total_cycles)


class SQDMPipeline:
    """Runs quality and hardware evaluations for one paper workload."""

    def __init__(
        self,
        workload_name: str = "cifar10",
        config: PipelineConfig | None = None,
        workload: Workload | None = None,
        artifacts: "ArtifactStore | None | str" = "auto",
        report_cache: ReportCache | None = None,
    ):
        self.config = config or PipelineConfig()
        self.workload = workload or load_workload(workload_name)
        self._artifacts_spec = artifacts
        self.report_cache = report_cache
        self._fid_evaluator: FIDEvaluator | None = None
        self._relu_unet: EDMUNet | None = None

    # -- shared infrastructure -------------------------------------------------

    @property
    def artifact_store(self) -> ArtifactStore | None:
        """Persistent store for FID statistics, traces and reports, if enabled.

        The default (``artifacts="auto"``) follows the ``REPRO_ARTIFACT_DIR``
        environment variable; pass an explicit :class:`ArtifactStore` or None
        to override.
        """
        if self._artifacts_spec == "auto":
            return default_artifact_store()
        return self._artifacts_spec

    @property
    def fid_evaluator(self) -> FIDEvaluator:
        """The proxy-FID evaluator with reference statistics materialized.

        Reference statistics are the expensive part (feature extraction over
        hundreds of images); with an artifact store enabled they are computed
        once per (workload, sample count, feature space) fleet-wide and
        loaded from disk everywhere else.
        """
        if self._fid_evaluator is None:
            evaluator = FIDEvaluator()
            store = self.artifact_store
            key = ArtifactStore.key_for(
                self.workload.name,
                repr(self.workload.image_shape),
                str(self.config.num_reference_samples),
                evaluator.extractor.fingerprint(),
            )
            stats = store.get(FID_STATS_ARTIFACT_KIND, key) if store is not None else None
            if isinstance(stats, FeatureStatistics):
                evaluator.set_reference_statistics(stats)
            else:
                computed = evaluator.set_reference(
                    self.workload.dataset.reference_samples(self.config.num_reference_samples)
                )
                if store is not None:
                    store.put(FID_STATS_ARTIFACT_KIND, key, computed)
            self._fid_evaluator = evaluator
        return self._fid_evaluator

    def relu_unet(self) -> EDMUNet:
        """The SiLU model adapted to ReLU (cached; Sec. III-B)."""
        if self._relu_unet is None:
            calibration = make_calibration_batch(
                self.workload.image_shape,
                batch_size=2,
                sigma_data=self.workload.dataset.sigma_data(),
                label_dim=self.workload.unet.config.label_dim,
                seed=self.config.seed,
            )
            self._relu_unet, _ = adapt_to_relu(self.workload.unet, calibration)
        return self._relu_unet

    def _base_model(self, relu: bool) -> EDMUNet:
        """The shared SiLU or ReLU model; policies are built from it, never applied to it."""
        return self.relu_unet() if relu else self.workload.unet

    def _model_for(self, relu: bool) -> EDMUNet:
        """A private copy of the base model for one evaluation to quantize and run."""
        return copy.deepcopy(self._base_model(relu))

    def _denoiser_for(self, model: EDMUNet):
        from ..diffusion.edm import EDMDenoiser

        return EDMDenoiser(model, prior=self.workload.dataset.prior)

    # -- quality evaluation ------------------------------------------------------

    def evaluate_policy(
        self, policy: QuantizationPolicy | None, scheme_name: str | None = None
    ) -> QuantizationEvaluation:
        """Generate images under a quantization policy and score them with FID."""
        relu = bool(policy is not None and policy.requires_relu)
        model = self._model_for(relu)
        if policy is not None:
            policy.apply(model)
        denoiser = self._denoiser_for(model)
        result = sample(
            denoiser,
            self.config.num_fid_samples,
            self.workload.image_shape,
            self.config.sampler_config(),
        )
        fid = self.fid_evaluator.fid(result.images)
        costs = cost_summary(model, policy)
        return QuantizationEvaluation(
            workload=self.workload.name,
            scheme=scheme_name or (policy.name if policy is not None else "FP32"),
            fid=fid,
            costs=costs,
            relu_based=relu,
        )

    def evaluate_format(self, format_name: str) -> QuantizationEvaluation:
        """Evaluate one Table I uniform format ("FP32", "INT8", "INT4-VSQ", ...)."""
        if format_name in ("FP32",):
            return self.evaluate_policy(None, scheme_name="FP32")
        policy = table1_policy(self._base_model(relu=False), format_name)
        return self.evaluate_policy(policy, scheme_name=format_name)

    def evaluate_mixed_precision(self, relu: bool) -> QuantizationEvaluation:
        """Evaluate Ours (MP-only) or Ours (MP+ReLU) from Table II."""
        policy = mixed_precision_policy(self._base_model(relu), relu=relu)
        return self.evaluate_policy(policy, scheme_name=policy.name)

    # -- sparsity + hardware evaluation --------------------------------------------

    def _trace_key(self, relu: bool, policy: QuantizationPolicy | None) -> str:
        """Artifact key covering every knob that shapes a sparsity trace."""
        return ArtifactStore.key_for(
            self.workload.name,
            repr(self.workload.image_shape),
            str(self.config.num_trace_samples),
            str(self.config.num_sampling_steps),
            repr(self.config.zero_tolerance_rel),
            str(self.config.seed),
            str(relu),
            _policy_fingerprint(policy),
        )

    def collect_trace(
        self, relu: bool = True, policy: QuantizationPolicy | None = None
    ) -> TemporalSparsityTrace:
        """Collect the temporal per-channel sparsity trace for this workload.

        Tracing replays the whole sampling trajectory, which dominates
        hardware-evaluation wall-clock; with an artifact store enabled the
        trace is persisted under a key covering the workload, the sampling
        knobs and the policy's bit assignments, so other processes reuse it.
        ``policy=None`` is resolved to the default mixed-precision policy
        *before* keying, so explicit and defaulted callers share one artifact.
        """
        if policy is None:
            policy = mixed_precision_policy(self._base_model(relu), relu=relu)
        store = self.artifact_store
        key = self._trace_key(relu, policy)
        if store is not None:
            cached = store.get(TRACE_ARTIFACT_KIND, key)
            if isinstance(cached, TemporalSparsityTrace):
                return cached
        model = self._model_for(relu)
        policy.apply(model)
        denoiser = self._denoiser_for(model)
        trace = collect_sparsity_trace(
            denoiser,
            self.workload.image_shape,
            self.config.sampler_config(),
            num_samples=self.config.num_trace_samples,
            zero_tolerance_rel=self.config.zero_tolerance_rel,
        )
        if store is not None:
            store.put(TRACE_ARTIFACT_KIND, key, trace)
        return trace

    def evaluate_hardware(
        self,
        trace: TemporalSparsityTrace | None = None,
        sqdm: AcceleratorConfig | None = None,
        baseline: AcceleratorConfig | None = None,
        executor: "Executor | None" = None,
    ) -> HardwareEvaluation:
        """Run the Fig. 12 comparison for this workload.

        The quantized trace (4-bit Conv blocks, 8-bit elsewhere, per the
        MP+ReLU policy) is executed on the SQ-DM accelerator and on the
        dense 2-DPE baseline; the same layer geometry at FP16 on the dense
        baseline provides the total-speed-up reference.

        The three simulations are submitted as typed specs through the
        unified execution API.  The default
        :class:`~repro.core.execution.InlineExecutor` batches them through
        one coalesced pass against the two-tier report cache: sweeps that
        vary only one configuration re-use the shared FP16 / dense-baseline
        runs (from memory or the artifact store), and the cache misses that
        do simulate share cross-trace batched passes.  Pass any other
        :class:`~repro.core.execution.Executor` (an ``EvaluationService``, a
        ``RemoteEvaluationClient``, ...) to route the same three jobs through
        a shared service or a remote server instead; a passed-in executor
        stays open.
        """
        from ..serve.specs import SimulateJobSpec
        from .execution import InlineExecutor

        policy = mixed_precision_policy(self._base_model(relu=True), relu=True)
        if trace is None:
            trace = self.collect_trace(relu=True, policy=policy)

        quant_trace = trace_to_workloads(trace, policy)
        fp16_trace = trace_to_workloads(trace, policy=None, default_bits=16)

        sqdm = sqdm or sqdm_config()
        baseline = baseline or dense_baseline_config()
        if executor is None:
            executor = InlineExecutor(cache=self.report_cache)
        handles = executor.map(
            [
                SimulateJobSpec(config=sqdm, trace=quant_trace),
                SimulateJobSpec(config=baseline, trace=quant_trace),
                SimulateJobSpec(config=baseline, trace=fp16_trace),
            ],
            labels=[
                f"fig12:{self.workload.name}:sqdm",
                f"fig12:{self.workload.name}:dense",
                f"fig12:{self.workload.name}:fp16",
            ],
        )
        sqdm_report, dense_report, fp16_report = [handle.result() for handle in handles]
        return HardwareEvaluation(
            workload=self.workload.name,
            sqdm_report=sqdm_report,
            dense_baseline_report=dense_report,
            fp16_dense_report=fp16_report,
            average_sparsity=trace.average_sparsity(),
        )
