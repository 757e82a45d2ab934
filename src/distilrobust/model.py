"""Frozen toy teacher, compact student with per-layer prediction heads, and a
waveform-reconstruction head (bidirectional LSTM + seven transposed
convolutions, each followed by GELU).

The teacher is a seeded random-weight network that stands in for a large
pretrained encoder: 12 residual mixing blocks over strided-conv frames. The
student shares the same geometry at reduced depth and is initialized by
copying the teacher's front-end and first blocks.

Every forward takes a length group: a (B, N) batch of equal-length
utterances, one of which is `samples[None]`. Frame-level maps come back as
(B*T, D) rows, utterance by utterance, and the reconstructed waveform as
(B, N).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError

DEFAULT_DIM = 32
DEFAULT_TEACHER_LAYERS = 12
DEFAULT_STUDENT_LAYERS = 2
DEFAULT_DISTILL_LAYERS = (4, 8, 12)
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
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        raise ShapeError(f"encoder input must be a (B, N) batch, got shape {samples.shape}")
    if samples.shape[1] < FRAME_STRIDE:
        raise ShapeError(f"input of {samples.shape[1]} samples is shorter than one "
                         f"frame of {FRAME_STRIDE}")
    kernel = params[prefix + "frontend.kernel"]
    frames = T.conv1d(T.Tensor(samples[:, :, None]), kernel, stride=FRAME_STRIDE)
    h = T.gelu(T.reshape(frames, (-1, kernel.values.shape[2])))
    outputs: list[T.Tensor] = []
    for k in range(1, n_blocks + 1):
        inner = T.gelu(T.linear(h, params[f"{prefix}block{k}.w1"], params[f"{prefix}block{k}.b1"]))
        delta = T.linear(inner, params[f"{prefix}block{k}.w2"], params[f"{prefix}block{k}.b2"])
        h = T.add(h, delta)
        outputs.append(h)
    return outputs


class TeacherSurrogate:
    """Frozen, seeded feature extractor with one (T, D) map per layer."""

    def __init__(self, n_layers: int = DEFAULT_TEACHER_LAYERS, dim: int = DEFAULT_DIM,
                 seed: int = 0):
        if n_layers < 1:
            raise ConfigError(f"teacher needs at least one layer, got {n_layers}")
        if dim < 1:
            raise ConfigError(f"dim must be positive, got {dim}")
        self.n_layers = n_layers
        self.dim = dim
        self.seed = seed
        rng = np.random.default_rng(seed)
        hidden = dim * BLOCK_WIDTH_MULTIPLIER
        arrays: dict[str, np.ndarray] = {
            "frontend.kernel": _init(rng, (FRAME_STRIDE, 1, dim), FRAME_STRIDE),
        }
        for k in range(1, n_layers + 1):
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
    outputs = encoder_forward(samples, teacher.params, "", teacher.n_layers)
    return {k + 1: out.values for k, out in enumerate(outputs)}


@dataclass(frozen=True)
class StudentConfig:
    """Student depth and heads; its width is the teacher's and its frame is FRAME_STRIDE."""

    n_student_layers: int = DEFAULT_STUDENT_LAYERS
    distill_layers: tuple[int, ...] = DEFAULT_DISTILL_LAYERS
    enhancement: bool = False

    def __post_init__(self):
        object.__setattr__(self, "distill_layers",
                           tuple(sorted(int(l) for l in self.distill_layers)))
        if self.n_student_layers < 1:
            raise ConfigError(f"student needs at least one mixing layer, got "
                              f"{self.n_student_layers}")
        if not self.distill_layers or self.distill_layers[0] < 1:
            raise ConfigError(f"distill_layers must name one or more layers from 1 up, got "
                              f"{self.distill_layers}")
        if len(set(self.distill_layers)) != len(self.distill_layers):
            raise ConfigError(f"distill_layers must not repeat a layer, got "
                              f"{self.distill_layers}")


def check_fits_teacher(config: StudentConfig, teacher_layers: int):
    """Raise ConfigError unless the student's depth and distilled layers fit the teacher's."""
    if config.n_student_layers > teacher_layers:
        raise ConfigError(f"student depth {config.n_student_layers} exceeds teacher depth "
                          f"{teacher_layers}")
    if config.distill_layers[-1] > teacher_layers:
        raise ConfigError(f"distill layer {config.distill_layers[-1]} outside teacher range "
                          f"[1, {teacher_layers}]")


@dataclass
class StudentOutput:
    representation: T.Tensor
    predictions: dict[int, T.Tensor] = field(default_factory=dict)
    enhanced: T.Tensor | None = None


class StudentModel:
    """Trainable encoder (teacher-shaped prefix) plus prediction/enhancement heads."""

    def __init__(self, config: StudentConfig, params: dict[str, T.Tensor]):
        self.config = config
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


def init_student_from_teacher(teacher: TeacherSurrogate, config: StudentConfig,
                              seed: int) -> StudentModel:
    """Copy the teacher's front-end and first blocks; heads start seeded-random."""
    check_fits_teacher(config, teacher.n_layers)

    params: dict[str, T.Tensor] = {}
    copied = ["frontend.kernel"]
    for k in range(1, config.n_student_layers + 1):
        copied += [f"block{k}.w1", f"block{k}.b1", f"block{k}.w2", f"block{k}.b2"]
    for name in copied:
        params["encoder." + name] = T.parameter(np.array(teacher.params[name].values, copy=True))

    rng = np.random.default_rng(seed)
    for l in config.distill_layers:
        params[f"head.{l}.w"] = T.parameter(_init(rng, (teacher.dim, teacher.dim), teacher.dim))
        params[f"head.{l}.b"] = T.parameter(np.zeros(teacher.dim))
    if config.enhancement:
        for name, arr in _init_enhancement(rng, teacher.dim).items():
            params[name] = T.parameter(arr)
    return StudentModel(config, params)


def _enhancement_forward(student: StudentModel, rep: T.Tensor, batch: int,
                         n_samples: int) -> T.Tensor:
    p = student.params
    h = T.bidir_recurrent(T.reshape(rep, (batch, -1, rep.values.shape[1])),
                          p["enhancement.rnn.w_x"], p["enhancement.rnn.w_h"],
                          p["enhancement.rnn.bias"])
    for i, stride in enumerate(DECONV_STRIDES, start=1):
        h = T.gelu(T.conv1d_transposed(h, p[f"enhancement.deconv{i}.kernel"], stride=stride))
    flat = T.reshape(h, (batch, -1))
    if flat.values.shape[1] < n_samples:
        raise ShapeError(f"enhancement output {flat.values.shape[1]} shorter than input "
                         f"{n_samples}")
    return T.narrow(flat, 1, 0, n_samples)


def student_forward(student: StudentModel, samples: np.ndarray) -> StudentOutput:
    """Per-layer predictions and (optionally) the reconstructed waveform of a (B, N) batch."""
    outputs = encoder_forward(samples, student.params, "encoder.",
                              student.config.n_student_layers)
    rep = outputs[-1]
    predictions: dict[int, T.Tensor] = {}
    for l in student.config.distill_layers:
        w_name, b_name = f"head.{l}.w", f"head.{l}.b"
        if w_name in student.params:
            predictions[l] = T.linear(rep, student.params[w_name], student.params[b_name])
    enhanced = None
    if student.has_enhancement():
        enhanced = _enhancement_forward(student, rep, *np.shape(samples))
    return StudentOutput(representation=rep, predictions=predictions, enhanced=enhanced)
