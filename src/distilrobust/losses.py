"""Layer-wise distillation loss, waveform/spectral reconstruction losses, and
their weighted multi-task combination.

The distillation term sums, over the layers `model.DISTILL_LAYERS` and every
frame, a width-normalized L1 distance plus a log-sigmoid cosine term:

    sum_l sum_t [ (1/D) * ||h_t - s_t||_1  -  log sigmoid(cos(h_t, s_t)) ]

Each layer's two terms are one fused op apiece (`tensor.distill_l1` and
`tensor.distill_cosine`), with the teacher map a constant. `kd_loss_parts`
keeps each layer's two terms and their sums over the layers,
which `combined_loss` adds to the weighted enhancement loss. It is a sum, not a
mean, so stacking utterances' frames sums their losses; the trainer relies on
this to take one call over a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

from . import tensor as T
from .errors import ConfigError, NumericError, ParameterError, ShapeError
from .model import DISTILL_LAYERS

# value of one cosine term when student matches teacher exactly: -ln(sigmoid(1))
IDENTITY_COSINE_TERM = math.log(1.0 + math.exp(-1.0))


@dataclass
class KDLossParts:
    """Distillation loss terms (all graph tensors): `layers[l]` is layer l's (l1, cos)
    summed over frames, and `l1` and `cos` add those in DISTILL_LAYERS order."""

    layers: dict[int, tuple[T.Tensor, T.Tensor]]
    l1: T.Tensor
    cos: T.Tensor


def kd_loss_parts(teacher_maps, student_maps) -> KDLossParts:
    layers: dict[int, tuple[T.Tensor, T.Tensor]] = {}
    for l in DISTILL_LAYERS:
        if l not in teacher_maps or l not in student_maps:
            side = "student" if l in teacher_maps else "teacher"
            raise ConfigError(f"layer {l} missing from {side} features")
        h, s = T.as_tensor(teacher_maps[l]), T.as_tensor(student_maps[l])
        if h.values.ndim != 2:
            raise ShapeError(f"layer {l}: features must be (T, D), got {h.values.shape}")
        if h.values.shape != s.values.shape:
            raise ShapeError(f"layer {l}: teacher {h.values.shape} vs student "
                             f"{s.values.shape}")
        layers[l] = (T.distill_l1(s, h.values), T.distill_cosine(s, h.values))
    return KDLossParts(layers, l1=reduce(T.add, (l1 for l1, _ in layers.values())),
                       cos=reduce(T.add, (cos for _, cos in layers.values())))


def kd_loss(teacher_maps, student_maps) -> T.Tensor:
    parts = kd_loss_parts(teacher_maps, student_maps)
    return T.add(parts.l1, parts.cos)


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


def l1_freq(enhanced, clean) -> T.Tensor:
    """Mean absolute difference between the magnitude spectrograms of two (B, N) batches,
    at `tensor.stft_mag`'s one STFT."""
    a, b = _as_signal_batches(enhanced, clean, "l1_freq")
    mag_a, mag_b = T.stft_mag(a), T.stft_mag(b)
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


def combined_loss(kd_l1, kd_cos, enh=None, lambda_weight: float = 0.0) -> LossBreakdown:
    """kd_l1 + kd_cos + lambda * enh, with the distillation addends reported separately."""
    lambda_weight = float(lambda_weight)
    if lambda_weight < 0:
        raise ParameterError(f"lambda must be nonnegative, got {lambda_weight}")
    kd = T.add(kd_l1, kd_cos)
    kd_total = kd.item()
    if not math.isfinite(kd_total):
        raise NumericError(f"distillation loss is not finite: {kd_total}")
    enh_value, combined, total = None, kd_total, kd
    if enh is not None:
        enh_tensor = T.as_tensor(enh)
        enh_value = enh_tensor.item()
        if not math.isfinite(enh_value):
            raise NumericError(f"enhancement loss is not finite: {enh_value}")
        combined = kd_total + lambda_weight * enh_value
        total = T.scale_add(1.0, kd, lambda_weight, enh_tensor)
    return LossBreakdown(kd_l1=kd_l1.item(), kd_cos=kd_cos.item(), enh=enh_value,
                         combined=combined, tensor=total)
