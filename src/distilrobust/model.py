"""Frozen toy teacher, compact student with per-layer prediction heads, and a
waveform-reconstruction head (bidirectional LSTM + seven transposed
convolutions, each followed by GELU).

The teacher is a seeded random-weight network that stands in for a large
pretrained encoder: TEACHER_LAYERS (12) residual mixing blocks over
strided-conv frames. The student is DistilHuBERT's: the teacher's front-end
and first STUDENT_LAYERS (2) blocks, copied, with one prediction head per
teacher layer in DISTILL_LAYERS (4, 8, 12). The depths are fixed, as the
frame stride and the deconvolution strides are; only the width is a config
field.

Every forward takes a length group: a (B, N) batch of equal-length
utterances, one of which is `samples[None]`. The waveform is data: the front
end is one `tensor.conv1d(samples, kernel)`, which checks the batch's shape
and returns its frames as (B*T, D) rows, utterance by utterance. Every
frame-level map comes back as such rows, and the reconstructed waveform as
(B, N).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError

DEFAULT_DIM = 32
TEACHER_LAYERS = 12
STUDENT_LAYERS = 2
DISTILL_LAYERS = (4, 8, 12)  # the teacher layers the student's heads predict
FRAME_STRIDE = 320  # 20 ms frames at 16 kHz
DECONV_STRIDES = (2, 2, 2, 2, 2, 2, 5)  # seven upsamplings back to one frame
BLOCK_WIDTH_MULTIPLIER = 2  # a mixing block's inner width is 2 * dim


def _init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    return rng.standard_normal(shape) / math.sqrt(fan_in)


def parameter_checksum(params: dict[str, T.Tensor]) -> str:
    """Order-independent digest of named parameters (names + raw values)."""
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode("utf-8"))
        h.update(b"\x00")
        h.update(np.ascontiguousarray(params[name].values).tobytes())
    return h.hexdigest()


def encoder_forward(samples: np.ndarray, params: dict[str, T.Tensor], prefix: str,
                    n_blocks: int) -> list[T.Tensor]:
    """Front-end conv + GELU, then residual mixing blocks; every block output as (B*T, D) rows."""
    h = T.gelu(T.conv1d(samples, params[prefix + "frontend.kernel"]))
    outputs: list[T.Tensor] = []
    for k in range(1, n_blocks + 1):
        inner = T.gelu(T.linear(h, params[f"{prefix}block{k}.w1"], params[f"{prefix}block{k}.b1"]))
        delta = T.linear(inner, params[f"{prefix}block{k}.w2"], params[f"{prefix}block{k}.b2"])
        h = T.add(h, delta)
        outputs.append(h)
    return outputs


class TeacherSurrogate:
    """Frozen, seeded feature extractor with one (T, D) map per layer."""

    def __init__(self, dim: int = DEFAULT_DIM, seed: int = 0):
        if dim < 1:
            raise ConfigError(f"dim must be positive, got {dim}")
        self.dim = dim
        rng = np.random.default_rng(seed)
        hidden = dim * BLOCK_WIDTH_MULTIPLIER
        arrays: dict[str, np.ndarray] = {
            "frontend.kernel": _init(rng, (FRAME_STRIDE, 1, dim), FRAME_STRIDE),
        }
        for k in range(1, TEACHER_LAYERS + 1):
            arrays[f"block{k}.w1"] = _init(rng, (dim, hidden), dim)
            arrays[f"block{k}.b1"] = np.zeros(hidden)
            arrays[f"block{k}.w2"] = _init(rng, (hidden, dim), hidden)
            arrays[f"block{k}.b2"] = np.zeros(dim)
        for arr in arrays.values():
            arr.setflags(write=False)
        self.params: dict[str, T.Tensor] = {name: T.Tensor(arr) for name, arr in arrays.items()}

    def checksum(self) -> str:
        return parameter_checksum(self.params)


def teacher_forward(teacher: TeacherSurrogate, samples: np.ndarray) -> dict[int, np.ndarray]:
    """Layer index (1-based) -> frozen (B*T, D) feature map of a (B, N) clean batch."""
    outputs = encoder_forward(samples, teacher.params, "", TEACHER_LAYERS)
    return {k + 1: out.values for k, out in enumerate(outputs)}


@dataclass
class StudentOutput:
    representation: T.Tensor
    predictions: dict[int, T.Tensor] = field(default_factory=dict)
    enhanced: T.Tensor | None = None


class StudentModel:
    """Trainable encoder (teacher-shaped prefix) plus prediction/enhancement heads."""

    def __init__(self, params: dict[str, T.Tensor]):
        self.params = params

    def has_enhancement(self) -> bool:
        return any(name.startswith("enhancement.") for name in self.params)

    def checksum(self) -> str:
        return parameter_checksum(self.params)


def _deconv_channel_plan(first_in: int, n_layers: int) -> list[tuple[int, int]]:
    plan = []
    c_in = first_in
    for i in range(1, n_layers + 1):
        c_out = 1 if i == n_layers else max(1, c_in // 2)
        plan.append((c_in, c_out))
        c_in = c_out
    return plan


def _init_enhancement(rng: np.random.Generator, dim: int) -> dict[str, np.ndarray]:
    """A bidirectional LSTM `dim` wide, then the deconvolution stack."""
    # LSTM gates packed in 4 * dim columns; drawn [direction, (w_x, w_h)], forward first
    lstm = _init(rng, (2, 2, dim, 4 * dim), dim)
    arrays = {"enhancement.rnn.w_x": lstm[:, 0], "enhancement.rnn.w_h": lstm[:, 1],
              "enhancement.rnn.bias": np.zeros((2, 4 * dim))}
    for i, ((c_in, c_out), stride) in enumerate(
            zip(_deconv_channel_plan(2 * dim, len(DECONV_STRIDES)), DECONV_STRIDES), start=1):
        kw = 2 * stride
        arrays[f"enhancement.deconv{i}.kernel"] = _init(rng, (kw, c_in, c_out), c_in * kw)
    return arrays


def init_student_from_teacher(teacher: TeacherSurrogate, enhancement: bool,
                              seed: int) -> StudentModel:
    """Copy the teacher's front-end and first blocks; heads start seeded-random."""
    params: dict[str, T.Tensor] = {}
    copied = ["frontend.kernel"]
    for k in range(1, STUDENT_LAYERS + 1):
        copied += [f"block{k}.w1", f"block{k}.b1", f"block{k}.w2", f"block{k}.b2"]
    for name in copied:
        params["encoder." + name] = T.parameter(np.array(teacher.params[name].values, copy=True))

    rng = np.random.default_rng(seed)
    for l in DISTILL_LAYERS:
        params[f"head.{l}.w"] = T.parameter(_init(rng, (teacher.dim, teacher.dim), teacher.dim))
        params[f"head.{l}.b"] = T.parameter(np.zeros(teacher.dim))
    if enhancement:
        for name, arr in _init_enhancement(rng, teacher.dim).items():
            params[name] = T.parameter(arr)
    return StudentModel(params)


def _enhancement_forward(student: StudentModel, rep: T.Tensor, batch: int,
                         n_samples: int) -> T.Tensor:
    p = student.params
    h = T.bidir_recurrent(T.reshape(rep, (batch, -1, rep.values.shape[1])),
                          p["enhancement.rnn.w_x"], p["enhancement.rnn.w_h"],
                          p["enhancement.rnn.bias"])
    for i in range(1, len(DECONV_STRIDES) + 1):
        h = T.conv1d_transposed(h if i == 1 else T.gelu(h), p[f"enhancement.deconv{i}.kernel"])
    # 320 * (n_samples // 320) + 635 > n_samples come out; the last GELU sees n_samples
    return T.gelu(T.narrow(T.reshape(h, (batch, -1)), 1, 0, n_samples))


def student_forward(student: StudentModel, samples: np.ndarray) -> StudentOutput:
    """Per-layer predictions and (optionally) the reconstructed waveform of a (B, N) batch."""
    outputs = encoder_forward(samples, student.params, "encoder.", STUDENT_LAYERS)
    rep = outputs[-1]
    predictions: dict[int, T.Tensor] = {}
    for l in DISTILL_LAYERS:
        w_name, b_name = f"head.{l}.w", f"head.{l}.b"
        if w_name in student.params:
            predictions[l] = T.linear(rep, student.params[w_name], student.params[b_name])
    enhanced = None
    if student.has_enhancement():
        enhanced = _enhancement_forward(student, rep, *np.shape(samples))
    return StudentOutput(representation=rep, predictions=predictions, enhanced=enhanced)
