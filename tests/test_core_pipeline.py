"""End-to-end pipeline tests (fast, reduced-scale versions of the paper's experiments)."""

from __future__ import annotations

import copy

import pytest

from repro.core.pipeline import PipelineConfig, SQDMPipeline, _policy_fingerprint
from repro.core.policy import mixed_precision_policy, table1_policy
from repro.quant.formats import TABLE1_FORMATS
from repro.workloads.models import load_workload


@pytest.fixture(scope="module")
def pipeline():
    config = PipelineConfig(
        num_fid_samples=6,
        num_reference_samples=128,
        num_sampling_steps=4,
        num_trace_samples=1,
        seed=0,
    )
    return SQDMPipeline(workload=load_workload("cifar10", resolution=8), config=config)


class TestQualityEvaluation:
    def test_fp32_equals_fp16_quality(self, pipeline):
        fp32 = pipeline.evaluate_format("FP32")
        fp16 = pipeline.evaluate_format("FP16")
        assert fp16.fid == pytest.approx(fp32.fid, rel=0.05)

    def test_int4_much_worse_than_fp32(self, pipeline):
        fp32 = pipeline.evaluate_format("FP32")
        int4 = pipeline.evaluate_format("INT4")
        assert int4.fid > 3 * fp32.fid

    def test_mxint8_better_than_int8(self, pipeline):
        int8 = pipeline.evaluate_format("INT8")
        mxint8 = pipeline.evaluate_format("MXINT8")
        assert mxint8.fid < int8.fid

    def test_int4_vsq_better_than_int4(self, pipeline):
        int4 = pipeline.evaluate_format("INT4")
        vsq = pipeline.evaluate_format("INT4-VSQ")
        assert vsq.fid < int4.fid

    def test_mixed_precision_better_than_vsq(self, pipeline):
        vsq = pipeline.evaluate_format("INT4-VSQ")
        mp = pipeline.evaluate_mixed_precision(relu=False)
        assert mp.fid < vsq.fid

    def test_relu_version_at_least_as_good_as_mp_only(self, pipeline):
        mp = pipeline.evaluate_mixed_precision(relu=False)
        mp_relu = pipeline.evaluate_mixed_precision(relu=True)
        assert mp_relu.fid <= mp.fid * 1.25

    def test_mixed_precision_savings_reported(self, pipeline):
        mp = pipeline.evaluate_mixed_precision(relu=True)
        assert 0.5 < mp.compute_saving < 0.75
        assert 0.5 < mp.memory_saving < 0.75

    def test_evaluation_metadata(self, pipeline):
        ev = pipeline.evaluate_mixed_precision(relu=True)
        assert ev.workload == "cifar10"
        assert ev.relu_based
        assert ev.scheme == "Ours (MP+ReLU)"


class TestOneModelCopy:
    """Policies are built from the shared base model; each evaluation copies it once."""

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda p: p.evaluate_format("INT8"),
            lambda p: p.evaluate_format("FP32"),
            lambda p: p.evaluate_mixed_precision(relu=False),
        ],
        ids=["INT8", "FP32", "MP-only"],
    )
    def test_evaluation_copies_the_model_once(self, pipeline, monkeypatch, evaluate):
        copies: list[bool] = []
        model_for = pipeline._model_for

        def spy(relu: bool):
            copies.append(relu)
            return model_for(relu)

        monkeypatch.setattr(pipeline, "_model_for", spy)
        evaluate(pipeline)
        assert len(copies) == 1

    def test_policy_from_base_equals_policy_from_copy(self, pipeline):
        silu, relu = pipeline.workload.unet, pipeline.relu_unet()
        builders = [(lambda m, f=f: table1_policy(m, f), silu) for f in TABLE1_FORMATS]
        builders += [
            (lambda m: mixed_precision_policy(m, relu=False), silu),
            (lambda m: mixed_precision_policy(m, relu=True), relu),
        ]
        for build, base in builders:
            from_base, from_copy = build(base), build(copy.deepcopy(base))
            assert from_base == from_copy, from_base.name
            assert _policy_fingerprint(from_base) == _policy_fingerprint(from_copy)


class TestHardwareEvaluation:
    @pytest.fixture(scope="class")
    def hardware(self, pipeline):
        return pipeline.evaluate_hardware()

    def test_sparsity_speedup_in_range(self, hardware):
        assert 1.2 < hardware.sparsity_speedup < 3.0

    def test_energy_saving_in_range(self, hardware):
        assert 0.25 < hardware.sparsity_energy_saving < 0.85

    def test_quantization_speedup_in_range(self, hardware):
        assert 2.0 < hardware.quantization_speedup <= 4.0

    def test_total_speedup_compounds(self, hardware):
        assert hardware.total_speedup > hardware.quantization_speedup
        assert hardware.total_speedup > hardware.sparsity_speedup
        assert hardware.total_speedup == pytest.approx(
            hardware.quantization_speedup * hardware.sparsity_speedup
            * hardware.dense_baseline_report.total_cycles
            / hardware.dense_baseline_report.total_cycles,
            rel=0.3,
        )

    def test_average_sparsity_in_paper_regime(self, hardware):
        assert 0.45 < hardware.average_sparsity < 0.9

    def test_relu_model_is_cached(self, pipeline):
        assert pipeline.relu_unet() is pipeline.relu_unet()
