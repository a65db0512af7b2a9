"""paravox: desk-scale zero-shot TTS with parallel token streams.

Pipeline: speech features are quantized into parallel semantic and
acoustic residual-VQ streams; a dual-stream autoregressive transformer
generates top-layer token pairs from text plus a reference prompt; a
coupled non-autoregressive refiner fills in the detail layers; a
conditional flow-matching decoder renders mel frames.
"""

from .engine import Rng, Tensor

__version__ = "0.1.0"

__all__ = ["Tensor", "Rng", "__version__"]
