"""SQ-DM reproduction: diffusion models under aggressive quantization and temporal sparsity.

The package is organized by subsystem:

* :mod:`repro.quant` -- quantization data formats (INT4/UINT4/INT8, MXINT8,
  INT4-VSQ, the paper's INT4+FP8-scale format) and error metrics.
* :mod:`repro.nn` -- a NumPy DNN substrate with an EDM-style U-Net.
* :mod:`repro.diffusion` -- EDM preconditioning, samplers, synthetic
  datasets, proxy FID, and SiLU-to-ReLU adaptation.
* :mod:`repro.accelerator` -- a cycle-approximate model of the heterogeneous
  dense/sparse accelerator (DPE/SPE, channel-last memory mapping, temporal
  sparsity detector, 28 nm energy model).
* :mod:`repro.core` -- the SQ-DM co-design itself: mixed-precision policies,
  temporal sparsity traces, update scheduling, and the end-to-end pipeline.
* :mod:`repro.analysis` / :mod:`repro.workloads` -- experiment support and
  the four paper workloads.

Quick start::

    from repro.core import SQDMPipeline, PipelineConfig

    pipeline = SQDMPipeline("cifar10", PipelineConfig(num_fid_samples=16))
    quality = pipeline.evaluate_mixed_precision(relu=True)
    hardware = pipeline.evaluate_hardware()
    print(quality.fid, hardware.total_speedup)
"""

from . import accelerator, analysis, core, diffusion, nn, quant, workloads

__version__ = "0.10.0"

__all__ = [
    "__version__",
    "accelerator",
    "analysis",
    "core",
    "diffusion",
    "nn",
    "quant",
    "workloads",
]
