"""Tests for the diffusion substrate: schedule, prior, EDM preconditioning and samplers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.diffusion.edm import EDMDenoiser, EDMPrecond, model_is_quantized, quantization_disabled
from repro.diffusion.prior import GaussianMixturePrior, make_smooth_templates
from repro.diffusion.sampler import SamplerConfig, sample, sample_euler
from repro.diffusion.schedule import (
    ScheduleConfig,
    karras_sigmas,
    linear_sigmas,
    num_model_evaluations,
)
from repro.core.sparsity import collect_sparsity_trace
from repro.quant import int4_spec, int8_spec
from repro.nn import functional as F
from repro.nn.layers import Conv2d, Linear


class TestSchedule:
    def test_karras_length(self):
        sigmas = karras_sigmas(ScheduleConfig(num_steps=18))
        assert len(sigmas) == 19

    def test_karras_monotonic_decreasing(self):
        sigmas = karras_sigmas(ScheduleConfig(num_steps=10))
        assert np.all(np.diff(sigmas) < 0)

    def test_karras_endpoints(self):
        cfg = ScheduleConfig(num_steps=10, sigma_min=0.002, sigma_max=80.0)
        sigmas = karras_sigmas(cfg)
        assert sigmas[0] == pytest.approx(80.0)
        assert sigmas[-2] == pytest.approx(0.002)
        assert sigmas[-1] == 0.0

    def test_single_step_schedule(self):
        sigmas = karras_sigmas(ScheduleConfig(num_steps=1))
        assert len(sigmas) == 2 and sigmas[0] == pytest.approx(80.0)

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            ScheduleConfig(num_steps=0)
        with pytest.raises(ValueError):
            ScheduleConfig(sigma_min=1.0, sigma_max=0.5)
        with pytest.raises(ValueError):
            ScheduleConfig(rho=0)

    def test_linear_sigmas(self):
        sigmas = linear_sigmas(5)
        assert len(sigmas) == 6 and sigmas[-1] == 0.0
        with pytest.raises(ValueError):
            linear_sigmas(0)

    def test_model_evaluation_count(self):
        cfg = ScheduleConfig(num_steps=18)
        assert num_model_evaluations(cfg, second_order=True) == 35
        assert num_model_evaluations(cfg, second_order=False) == 18


class TestGaussianMixturePrior:
    @pytest.fixture()
    def prior(self, rng):
        means = make_smooth_templates(3, (2, 4, 4), smoothness=2.0, amplitude=0.5, rng=rng)
        return GaussianMixturePrior(means=means, component_std=0.2, image_shape=(2, 4, 4))

    def test_sample_shape(self, prior, rng):
        assert prior.sample(5, rng).shape == (5, 2, 4, 4)

    def test_labels_one_hot(self, prior, rng):
        labels = prior.sample_labels(10, rng)
        assert labels.shape == (10, 3)
        assert np.allclose(labels.sum(axis=1), 1.0)

    def test_posterior_mean_at_high_noise_approaches_global_mean(self, prior, rng):
        x = rng.normal(size=(4, 2, 4, 4)) * 100
        posterior = prior.posterior_mean(x, sigma=1000.0)
        global_mean = np.average(prior.means, axis=0, weights=prior.weights).reshape(2, 4, 4)
        assert np.allclose(posterior, global_mean, atol=0.2)

    def test_posterior_mean_at_low_noise_keeps_input(self, prior, rng):
        x = prior.sample(3, rng)
        posterior = prior.posterior_mean(x, sigma=1e-4)
        assert np.allclose(posterior, x, atol=1e-3)

    def test_score_matches_posterior_identity(self, prior, rng):
        x = rng.normal(size=(2, 2, 4, 4))
        sigma = 0.7
        score = prior.score(x, sigma)
        posterior = prior.posterior_mean(x, sigma)
        assert np.allclose(score, (posterior - x) / sigma**2)

    def test_data_std_positive(self, prior):
        assert prior.data_std() > 0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            GaussianMixturePrior(means=np.zeros((2, 5)), component_std=0.1, image_shape=(1, 2, 2))
        with pytest.raises(ValueError):
            GaussianMixturePrior(means=np.zeros((2, 4)), component_std=-1.0, image_shape=(1, 2, 2))

    def test_weights_normalized(self):
        prior = GaussianMixturePrior(
            means=np.zeros((2, 4)),
            component_std=0.5,
            image_shape=(1, 2, 2),
            weights=np.array([2.0, 6.0]),
        )
        assert np.allclose(prior.weights, [0.25, 0.75])

    def test_templates_have_requested_amplitude(self, rng):
        templates = make_smooth_templates(2, (1, 8, 8), smoothness=3.0, amplitude=0.7, rng=rng)
        stds = templates.reshape(2, -1).std(axis=1)
        assert np.allclose(stds, 0.7, rtol=0.05)


class TestEDMPrecond:
    def test_coefficients_at_sigma_data(self):
        precond = EDMPrecond(sigma_data=0.5)
        assert precond.c_skip(0.5) == pytest.approx(0.5)
        assert precond.c_in(0.5) == pytest.approx(1.0 / np.sqrt(0.5))

    def test_c_skip_limits(self):
        precond = EDMPrecond(sigma_data=0.5)
        assert precond.c_skip(1e-6) == pytest.approx(1.0, abs=1e-6)
        assert precond.c_skip(1e6) == pytest.approx(0.0, abs=1e-6)

    def test_c_out_small_at_low_noise(self):
        precond = EDMPrecond(sigma_data=0.5)
        assert precond.c_out(1e-4) < 1e-3

    def test_c_noise_is_log(self):
        precond = EDMPrecond()
        assert precond.c_noise(1.0) == pytest.approx(0.0)


class TestDenoiserAndSampler:
    def test_plain_denoiser_output_shape(self, tiny_unet, rng):
        denoiser = EDMDenoiser(tiny_unet)
        x = rng.normal(size=(2, 3, 8, 8))
        assert denoiser.denoise(x, 1.0).shape == x.shape

    def test_hybrid_unquantized_returns_prior_mean(self, tiny_denoiser, tiny_dataset, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        out = tiny_denoiser.denoise(x, 0.5)
        expected = tiny_dataset.prior.posterior_mean(x, 0.5)
        assert np.allclose(out, expected)

    def test_hybrid_quantized_deviates_from_prior_mean(self, tiny_denoiser, tiny_dataset, rng):
        for _, module in tiny_denoiser.unet.named_modules():
            if isinstance(module, (Conv2d, Linear)):
                module.weight_spec = int4_spec()
                module.act_spec = int4_spec()
        x = rng.normal(size=(2, 3, 8, 8))
        out = tiny_denoiser.denoise(x, 0.5)
        expected = tiny_dataset.prior.posterior_mean(x, 0.5)
        assert not np.allclose(out, expected)

    def test_quantization_disabled_context(self, tiny_unet):
        conv = tiny_unet.conv_in
        conv.weight_spec = int8_spec()
        assert model_is_quantized(tiny_unet)
        with quantization_disabled(tiny_unet):
            assert not model_is_quantized(tiny_unet)
        assert model_is_quantized(tiny_unet)

    def test_network_evaluations_counted(self, tiny_denoiser, rng):
        before = tiny_denoiser.network_evaluations
        tiny_denoiser.denoise(rng.normal(size=(1, 3, 8, 8)), 1.0)
        assert tiny_denoiser.network_evaluations == before + 1

    def test_sample_shapes_and_counts(self, tiny_denoiser):
        cfg = SamplerConfig(schedule=ScheduleConfig(num_steps=4))
        result = sample(tiny_denoiser, 3, (3, 8, 8), cfg)
        assert result.images.shape == (3, 3, 8, 8)
        assert result.num_steps == 4
        assert result.network_evaluations == 7  # Heun: 2N - 1

    def test_euler_uses_fewer_evaluations(self, tiny_denoiser):
        cfg = SamplerConfig(schedule=ScheduleConfig(num_steps=4))
        result = sample_euler(tiny_denoiser, 2, (3, 8, 8), cfg)
        assert result.network_evaluations == 4

    def test_sampling_is_seeded(self, tiny_denoiser):
        cfg = SamplerConfig(schedule=ScheduleConfig(num_steps=3), seed=7)
        a = sample(tiny_denoiser, 2, (3, 8, 8), cfg).images
        b = sample(tiny_denoiser, 2, (3, 8, 8), cfg).images
        assert np.array_equal(a, b)

    def test_samples_approach_data_distribution(self, tiny_denoiser, tiny_dataset):
        cfg = SamplerConfig(schedule=ScheduleConfig(num_steps=8), seed=1)
        result = sample(tiny_denoiser, 16, tiny_dataset.image_shape, cfg)
        data = tiny_dataset.reference_samples(256)
        # Generated std should be within a factor ~2 of the data's.
        assert 0.4 < result.images.std() / data.std() < 2.5

    def test_step_callback_invoked_per_step(self, tiny_denoiser):
        steps = []
        cfg = SamplerConfig(schedule=ScheduleConfig(num_steps=5))
        sample(tiny_denoiser, 1, (3, 8, 8), cfg, step_callback=lambda i, s, x: steps.append((i, s)))
        assert len(steps) == 5
        assert steps[0][1] > steps[-1][1]


class TestUnquantizedForwardSkip:
    """Hybrid mode discards an unquantized forward, so it runs only while recording."""

    @pytest.fixture()
    def conv_calls(self, monkeypatch) -> list[tuple]:
        calls: list[tuple] = []
        conv2d = F.conv2d

        def spy(*args, **kwargs):
            calls.append(args[1].shape)
            return conv2d(*args, **kwargs)

        monkeypatch.setattr(F, "conv2d", spy)
        return calls

    def test_unquantized_denoise_is_the_prior_mean_without_a_forward(
        self, tiny_denoiser, tiny_dataset, conv_calls, rng
    ):
        x = rng.normal(size=(2, 3, 8, 8))
        before = tiny_denoiser.network_evaluations
        out = tiny_denoiser.denoise(x, 0.5)
        assert np.array_equal(out, tiny_dataset.prior.posterior_mean(x, 0.5))
        assert conv_calls == []
        assert tiny_denoiser.network_evaluations == before + 1

    def test_recording_model_runs_the_forward(self, tiny_denoiser, conv_calls, rng):
        unet = tiny_denoiser.unet
        unet.set_recording(True)
        tiny_denoiser.denoise(rng.normal(size=(2, 3, 8, 8)), 0.5)
        assert conv_calls
        assert unet.last_output is not None

    def test_one_recording_activation_runs_the_forward(self, tiny_denoiser, conv_calls, rng):
        unet = tiny_denoiser.unet
        act0 = unet.block_infos()[0].block.act0
        act0.recording = True
        tiny_denoiser.denoise(rng.normal(size=(2, 3, 8, 8)), 0.5)
        assert conv_calls
        assert act0.last_output is not None
        assert unet.last_output is None

    def test_sparsity_trace_of_unquantized_relu_model(self, tiny_unet, tiny_dataset):
        tiny_unet.set_activation("relu")
        denoiser = EDMDenoiser(tiny_unet, prior=tiny_dataset.prior)
        cfg = SamplerConfig(schedule=ScheduleConfig(num_steps=3))
        trace = collect_sparsity_trace(denoiser, tiny_dataset.image_shape, cfg, num_samples=1)
        fractions = np.concatenate([f for step in trace.steps for f in step.values()])
        assert trace.num_steps == 3
        assert np.any(fractions > 0)

    def test_quantized_denoise_runs_two_forwards(self, tiny_denoiser, conv_calls, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        EDMDenoiser(tiny_denoiser.unet).denoise(x, 0.5)
        one_forward = len(conv_calls)
        conv_calls.clear()
        tiny_denoiser.unet.conv_in.weight_spec = int8_spec()
        before = tiny_denoiser.network_evaluations
        tiny_denoiser.denoise(x, 0.5)
        assert one_forward > 0
        assert len(conv_calls) == 2 * one_forward
        assert tiny_denoiser.network_evaluations == before + 2
