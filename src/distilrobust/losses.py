"""Layer-wise distillation loss, waveform/spectral reconstruction losses, and
their weighted multi-task combination.

The distillation term sums, over the distilled layers and every frame, a
width-normalized L1 distance plus a log-sigmoid cosine term:

    sum_l sum_t [ (1/D) * ||h_t - s_t||_1  -  log sigmoid(cos(h_t, s_t)) ]

It is a sum, not a mean, so stacking utterances' frames sums their losses;
the trainer relies on this to take one call over a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import tensor as T
from .errors import ConfigError, NumericError, ParameterError, ShapeError
from .model import DISTILL_LAYERS

# value of one cosine term when student matches teacher exactly: -ln(sigmoid(1))
IDENTITY_COSINE_TERM = math.log(1.0 + math.exp(-1.0))


@dataclass(frozen=True)
class STFTParams:
    window_length: int = 400
    hop: int = 160
    fft_size: int = 512

    def __post_init__(self):
        if self.window_length < 1 or self.hop < 1:
            raise ParameterError("window_length and hop must be positive")
        if self.fft_size < self.window_length:
            raise ParameterError(f"fft_size {self.fft_size} < window_length "
                                 f"{self.window_length}")

    def window(self) -> np.ndarray:
        return _hann_cached(self.window_length)


@lru_cache(maxsize=8)
def _hann_cached(length: int) -> np.ndarray:
    w = T.hann_window(length)
    w.setflags(write=False)
    return w


@dataclass
class KDLossParts:
    """Distillation loss with its two addends kept separately (all graph tensors)."""

    total: T.Tensor
    l1: T.Tensor
    cos: T.Tensor


def kd_loss_parts(teacher_maps, student_maps, layers=DISTILL_LAYERS) -> KDLossParts:
    layers = tuple(layers)
    if not layers:
        raise ConfigError("distillation needs at least one layer")
    l1_total: T.Tensor | None = None
    cos_total: T.Tensor | None = None
    for l in layers:
        if l not in teacher_maps:
            raise ConfigError(f"layer {l} missing from teacher features")
        if l not in student_maps:
            raise ConfigError(f"layer {l} missing from student features")
        h = T.as_tensor(teacher_maps[l])
        s = T.as_tensor(student_maps[l])
        if h.values.ndim != 2:
            raise ShapeError(f"layer {l}: features must be (T, D), got {h.values.shape}")
        if h.values.shape != s.values.shape:
            raise ShapeError(f"layer {l}: teacher {h.values.shape} vs student "
                             f"{s.values.shape}")
        width = h.values.shape[1]
        l1_term = T.scale(T.sum_all(T.l1_distance(s, h)), 1.0 / width)
        cos_term = T.scale(T.sum_all(T.log(T.sigmoid(T.cosine_sim_rows(s, h)))), -1.0)
        l1_total = l1_term if l1_total is None else T.add(l1_total, l1_term)
        cos_total = cos_term if cos_total is None else T.add(cos_total, cos_term)
    return KDLossParts(total=T.add(l1_total, cos_total), l1=l1_total, cos=cos_total)


def kd_loss(teacher_maps, student_maps, layers=DISTILL_LAYERS) -> T.Tensor:
    return kd_loss_parts(teacher_maps, student_maps, layers).total


def _as_signal_batches(enhanced, clean, op: str) -> tuple[T.Tensor, T.Tensor]:
    a, b = T.as_tensor(enhanced), T.as_tensor(clean)
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise ShapeError(f"{op} expects (B, N) signal batches, got {a.values.shape} and "
                         f"{b.values.shape}")
    if a.values.shape != b.values.shape:
        raise ShapeError(f"{op}: shape {a.values.shape} vs {b.values.shape}")
    return a, b


def l1_wav(enhanced, clean) -> T.Tensor:
    """Mean absolute sample difference over a (B, N) batch: the mean of its rows' means."""
    a, b = _as_signal_batches(enhanced, clean, "l1_wav")
    return T.scale(T.sum_all(T.l1_distance(a, b)), 1.0 / a.values.size)


def l1_freq(enhanced, clean, stft_params: STFTParams | None = None) -> T.Tensor:
    """Mean absolute difference between the magnitude spectrograms of two (B, N) batches."""
    params = stft_params if stft_params is not None else STFTParams()
    a, b = _as_signal_batches(enhanced, clean, "l1_freq")
    mag_a = T.stft_mag(a, params.window(), params.hop, params.fft_size)
    mag_b = T.stft_mag(b, params.window(), params.hop, params.fft_size)
    n_cells = mag_a.values.size
    return T.scale(T.sum_all(T.l1_distance(mag_a, mag_b)), 1.0 / n_cells)


@dataclass
class LossBreakdown:
    """One training step's loss values; `tensor` carries the differentiable total."""

    kd_l1: float
    kd_cos: float
    enh: float | None
    combined: float
    tensor: T.Tensor


def combined_loss(kd: KDLossParts, enh=None, lambda_weight: float = 0.0) -> LossBreakdown:
    """kd.total + lambda * enh, with the distillation addends reported separately."""
    lambda_weight = float(lambda_weight)
    if lambda_weight < 0:
        raise ParameterError(f"lambda must be nonnegative, got {lambda_weight}")
    kd_total = kd.total.item()
    if not math.isfinite(kd_total):
        raise NumericError(f"distillation loss is not finite: {kd_total}")
    enh_value, combined, total = None, kd_total, kd.total
    if enh is not None:
        enh_tensor = T.as_tensor(enh)
        enh_value = enh_tensor.item()
        if not math.isfinite(enh_value):
            raise NumericError(f"enhancement loss is not finite: {enh_value}")
        combined = kd_total + lambda_weight * enh_value
        total = T.scale_add(1.0, kd.total, lambda_weight, enh_tensor)
    return LossBreakdown(kd_l1=kd.l1.item(), kd_cos=kd.cos.item(), enh=enh_value,
                         combined=combined, tensor=total)
