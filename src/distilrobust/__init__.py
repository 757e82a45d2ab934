"""Robust knowledge distillation for speech representations at desk scale:
online contamination with a progressive schedule, layer-wise distillation,
multi-task waveform enhancement, and a minimal autodiff core to train it all.
"""

__version__ = "0.1.0"
