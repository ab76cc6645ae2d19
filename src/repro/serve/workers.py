"""The process-pool job function for sampling-bound evaluation work.

FID generation runs the NumPy U-Net sampler layer by layer from Python, so —
unlike the vectorized simulator — it holds the GIL for most of its runtime
and gains nothing from threads.  The evaluation service therefore runs a
:class:`~repro.serve.specs.QualityJobSpec` as :func:`evaluate_quality` of its
fields in a ``ProcessPoolExecutor``, which requires the function to live at
module level (picklable by reference) and to exchange only plain, picklable
values: a workload name and knob dicts in, a result dict out.  Each worker
process builds its own pipeline; the persistent artifact store
(``REPRO_ARTIFACT_DIR`` or the explicit ``artifact_dir`` argument) is what
lets workers share FID reference statistics and sparsity traces instead of
recomputing them.
"""

from __future__ import annotations

from typing import Any


def evaluate_quality(
    workload: str,
    scheme: str,
    resolution: int | None = None,
    pipeline_overrides: dict[str, Any] | None = None,
    artifact_dir: str | None = None,
) -> dict[str, Any]:
    """Generate images under one Table I/II scheme and score them with FID.

    ``scheme`` is a Table I format name ("FP32", "INT8", "MXINT8",
    "INT4-VSQ", ...) or one of the mixed-precision schemes ``"MP-only"`` /
    ``"MP+ReLU"``.  Returns a plain dict so results cross the process
    boundary without dragging model objects along.
    """
    from ..core.pipeline import PipelineConfig, SQDMPipeline
    from ..workloads.models import load_workload

    config = PipelineConfig(**(pipeline_overrides or {}))
    loaded = load_workload(workload, resolution=resolution)
    artifacts: Any = "auto"
    if artifact_dir:
        from ..core.artifacts import artifact_store_at

        artifacts = artifact_store_at(artifact_dir)
    pipeline = SQDMPipeline(workload=loaded, config=config, artifacts=artifacts)
    if scheme in ("MP-only", "MP+ReLU"):
        evaluation = pipeline.evaluate_mixed_precision(relu=scheme == "MP+ReLU")
    else:
        evaluation = pipeline.evaluate_format(scheme)
    return {
        "workload": evaluation.workload,
        "scheme": evaluation.scheme,
        "fid": evaluation.fid,
        "compute_saving": evaluation.compute_saving,
        "memory_saving": evaluation.memory_saving,
        "relu_based": evaluation.relu_based,
    }
