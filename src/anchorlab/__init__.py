"""anchorlab: a desk-scale laboratory for background-invariant representation training.

Modules:
    tensor      numpy-backed reverse-mode autodiff, optimizer, schedule
    encoders    planted and from-scratch encoders with unit-norm embeddings
    scene       synthetic worlds, masks, compositing, grouped datasets
    additivity  the linear-additivity probe
    anchors     anchor extraction and its decomposition diagnostics
    alignment   anchor-alignment training loops and controls
    evaluation  probes, group metrics, background-sensitivity index
    cli         experiment orchestration
    files       the whole-or-nothing file writer
"""

__version__ = "0.1.0"

from . import (  # noqa: F401
    additivity,
    alignment,
    anchors,
    cli,
    encoders,
    errors,
    evaluation,
    files,
    rng,
    scene,
    tensor,
)
