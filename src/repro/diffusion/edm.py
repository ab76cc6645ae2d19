"""EDM preconditioning and the hybrid denoiser used by the reproduction.

EDM (Karras et al. 2022) wraps the raw network F_theta with preconditioning:

    D_theta(x; sigma) = c_skip(sigma) * x + c_out(sigma) * F_theta(c_in(sigma) * x; c_noise(sigma))

with

    c_skip  = sigma_data^2 / (sigma^2 + sigma_data^2)
    c_out   = sigma * sigma_data / sqrt(sigma^2 + sigma_data^2)
    c_in    = 1 / sqrt(sigma^2 + sigma_data^2)
    c_noise = ln(sigma) / 4

Because the reproduction has no pretrained checkpoint, the denoiser supports
a *hybrid* mode: the generation dynamics are driven by the analytically
optimal denoiser of a known synthetic data prior
(:class:`~repro.diffusion.prior.GaussianMixturePrior`), while the quantized
U-Net contributes exactly its quantization error

    D(x; sigma) = D_prior(x; sigma) + c_out(sigma) * (F_quant(...) - F_full(...))

so that every property the paper studies — error accumulation across time
steps, per-format degradation, block sensitivity, SiLU/ReLU activation
statistics and temporal per-channel sparsity — is produced by the real
network code path, while image fidelity in the unquantized limit is exact.

In that limit the injected error is zero, so the unquantized network is run
only when some module is recording its output (a sparsity trace or an
activation study reads it); otherwise the denoiser returns the prior's
posterior mean directly.  Either way the evaluation is counted in
``network_evaluations``, which counts the evaluations the modelled sampler
performs, not the forwards this process executes.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from ..nn.layers import Conv2d, Linear, Module
from ..nn.unet import EDMUNet
from .prior import GaussianMixturePrior


@dataclass(frozen=True)
class EDMPrecond:
    """EDM preconditioning coefficients for a given data standard deviation."""

    sigma_data: float = 0.5

    def c_skip(self, sigma: float) -> float:
        return self.sigma_data**2 / (sigma**2 + self.sigma_data**2)

    def c_out(self, sigma: float) -> float:
        return sigma * self.sigma_data / np.sqrt(sigma**2 + self.sigma_data**2)

    def c_in(self, sigma: float) -> float:
        return 1.0 / np.sqrt(sigma**2 + self.sigma_data**2)

    def c_noise(self, sigma: float) -> float:
        return float(np.log(max(sigma, 1e-12)) / 4.0)


@contextlib.contextmanager
def quantization_disabled(model: Module):
    """Temporarily strip all weight/activation quantization specs from a model."""
    saved: list[tuple[Module, object, object]] = []
    for module in model.modules():
        if isinstance(module, (Conv2d, Linear)):
            saved.append((module, module.weight_spec, module.act_spec))
            module.weight_spec = None
            module.act_spec = None
    try:
        yield model
    finally:
        for module, weight_spec, act_spec in saved:
            module.weight_spec = weight_spec
            module.act_spec = act_spec


def model_is_quantized(model: Module) -> bool:
    """True if any layer in the model has a quantization spec attached."""
    for module in model.modules():
        if isinstance(module, (Conv2d, Linear)):
            if module.weight_spec is not None or module.act_spec is not None:
                return True
    return False


class EDMDenoiser:
    """Preconditioned denoiser D(x; sigma) combining the U-Net and the analytic prior.

    Parameters
    ----------
    unet:
        The (possibly quantized, possibly ReLU-swapped) U-Net backbone.
    prior:
        Optional analytic data prior.  When provided, the denoiser runs in
        hybrid mode (see module docstring).  When omitted, the denoiser is
        the plain EDM preconditioning of the raw network.
    sigma_data:
        EDM's data standard deviation; defaults to the prior's if available.
    error_gain:
        Multiplier on the injected network quantization error in hybrid
        mode.  1.0 models a network whose quantization error directly
        perturbs its output, which is the EDM preconditioning behaviour.
    """

    def __init__(
        self,
        unet: EDMUNet,
        prior: GaussianMixturePrior | None = None,
        sigma_data: float | None = None,
        error_gain: float = 1.0,
    ):
        self.unet = unet
        self.prior = prior
        if sigma_data is None:
            sigma_data = prior.data_std() if prior is not None else 0.5
        self.precond = EDMPrecond(sigma_data=float(sigma_data))
        self.error_gain = float(error_gain)
        self.network_evaluations = 0

    # -- raw network call ----------------------------------------------------

    def _network(self, x: np.ndarray, sigma: float, labels: np.ndarray | None) -> np.ndarray:
        c_in = self.precond.c_in(sigma)
        c_noise = self.precond.c_noise(sigma)
        noise_cond = np.full(x.shape[0], c_noise)
        self.network_evaluations += 1
        return self.unet(c_in * x, noise_cond, labels)

    # -- public API ------------------------------------------------------------

    def denoise(self, x: np.ndarray, sigma: float, labels: np.ndarray | None = None) -> np.ndarray:
        """Evaluate D(x; sigma) for one batch of noisy images."""
        x = np.asarray(x, dtype=np.float64)
        sigma = float(sigma)
        if self.prior is None:
            f_x = self._network(x, sigma, labels)
            return self.precond.c_skip(sigma) * x + self.precond.c_out(sigma) * f_x

        d_prior = self.prior.posterior_mean(x, sigma)
        if not model_is_quantized(self.unet):
            # No quantization error to inject: the denoised estimate is the
            # analytic optimum.  The evaluation still counts (the accelerator
            # executes it), but the forward only runs when a module records
            # its output, e.g. for a sparsity trace.
            if any(module.recording for module in self.unet.modules()):
                self._network(x, sigma, labels)
            else:
                self.network_evaluations += 1
            return d_prior
        f_current = self._network(x, sigma, labels)
        with quantization_disabled(self.unet):
            f_reference = self._network(x, sigma, labels)
        error = f_current - f_reference
        return d_prior + self.error_gain * self.precond.c_out(sigma) * error

    def __call__(self, x: np.ndarray, sigma: float, labels: np.ndarray | None = None) -> np.ndarray:
        return self.denoise(x, sigma, labels)
