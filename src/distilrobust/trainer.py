"""Optimization loop: seeded batch assembly, online contamination, distillation
plus optional enhancement loss, AdamW with linear warmup/decay, periodic
checkpoints, and a JSON-lines metrics log.

Desk-scale defaults (2000 iterations, batch 4) keep runs laptop-sized; the
full-scale recipe they stand in for (200k iterations, batch 24, 14k warmup,
peak LR 2e-4) is recorded alongside every serialized config.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
import typing
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import tensor as T
from .audio import Waveform, read_wav
from .augment import (
    AugmentAction,
    CurriculumState,
    augment_batch,
    check_sample_rates,
    load_manifest,
    load_noise_bank,
    load_rir_bank,
    reverb_threshold,
    snr_lower_bound,
    stable_hash,
)
from .errors import (
    ConfigError,
    DataError,
    DistilRobustError,
    NumericError,
    ParameterError,
    ShapeError,
)
from .fileio import atomic_write, json_lines
from .losses import LossBreakdown, combined_loss, kd_loss_parts, l1_freq, l1_wav
from .model import (
    DEFAULT_DIM,
    DISTILL_LAYERS,
    FRAME_STRIDE,
    StudentModel,
    TeacherSurrogate,
    init_student_from_teacher,
    parameter_checksum,
    student_forward,
    teacher_forward,
)

TEACHER_SEED = 100
STUDENT_SEED = 1

# full-scale recipe the desk defaults are scaled down from
PAPER_SCALE_RECIPE = {
    "total_iterations": 200_000,
    "batch_size": 24,
    "warmup_iterations": 14_000,
    "lr_peak": 2e-4,
}

# AdamW's fixed hyper-parameters
ADAM_BETA1, ADAM_BETA2, ADAM_EPS, WEIGHT_DECAY = 0.9, 0.98, 1e-6, 0.01


@dataclass(frozen=True)
class Method:
    """What sets the paper's systems apart; an experiment's name fixes it."""

    curriculum: bool
    enhancement_loss: str  # "none", "l1_wav" or "l1_freq"
    lambda_weight: float

    @property
    def min_samples(self) -> int:
        """The shortest signal the method trains on: one frame, and l1_freq's STFT window."""
        if self.enhancement_loss == "l1_freq":
            return max(FRAME_STRIDE, T.STFT_WINDOW_LENGTH)
        return FRAME_STRIDE


METHODS = {
    "A": Method(curriculum=False, enhancement_loss="none", lambda_weight=0.0),
    "B": Method(curriculum=True, enhancement_loss="none", lambda_weight=0.0),
    "C1": Method(curriculum=True, enhancement_loss="l1_wav", lambda_weight=10.0),
    "C2": Method(curriculum=True, enhancement_loss="l1_freq", lambda_weight=1.0),
}
EXPERIMENTS = tuple(METHODS)


@dataclass
class TrainConfig:
    experiment: str = "A"
    total_iterations: int = 2000
    batch_size: int = 4
    lr_peak: float = 2e-4
    warmup_iterations: int | None = None  # None: 7% of total, the full-scale ratio
    master_seed: int = 0
    dim: int = DEFAULT_DIM
    crop_samples: int = 16000
    checkpoint_every: int = 100
    out_dir: str = "runs/out"
    data_manifest: str | None = None
    noise_manifest: str | None = None
    rir_manifest: str | None = None

    def __post_init__(self):
        if self.warmup_iterations is None:
            self.warmup_iterations = round(0.07 * self.total_iterations)

    @property
    def method(self) -> Method:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got "
                              f"{self.experiment!r}")
        return METHODS[self.experiment]

    def validate(self):
        method = self.method  # refuses an unknown experiment
        if self.total_iterations < 1:
            raise ConfigError(f"total_iterations must be positive, got {self.total_iterations}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        if not 0 < self.lr_peak < math.inf:
            raise ConfigError(f"lr_peak must be positive and finite, got {self.lr_peak}")
        if not 0 <= self.warmup_iterations < self.total_iterations:
            raise ConfigError(f"warmup_iterations {self.warmup_iterations} must lie in "
                              f"[0, total_iterations)")
        if self.dim < 1:
            raise ConfigError(f"dim must be positive, got {self.dim}")
        if self.crop_samples < method.min_samples:
            raise ConfigError(f"crop_samples {self.crop_samples} is shorter than experiment "
                              f"{self.experiment}'s minimum {method.min_samples}")
        if self.checkpoint_every < 1:
            raise ConfigError(f"checkpoint_every must be positive, got {self.checkpoint_every}")

    def to_dict(self) -> dict:
        record = {f.name: getattr(self, f.name) for f in fields(self)}
        record.update(asdict(self.method))  # stored configs keep the method's keys
        record["reference_recipe"] = dict(PAPER_SCALE_RECIPE)
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "TrainConfig":
        if not isinstance(record, dict):
            raise ConfigError(f"config must be a JSON object, got {record!r}")
        record = dict(record)
        record.pop("reference_recipe", None)
        known = {f.name: f for f in fields(cls) + fields(Method)}
        unknown = set(record) - set(known)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        hints = {**typing.get_type_hints(cls), **typing.get_type_hints(Method)}
        for name, value in record.items():
            if not _has_json_type(value, hints[name]):
                raise ConfigError(f"config field {name!r} must be {known[name].type}, "
                                  f"got {value!r}")
        # a method key may be left out; one that is stated must be the experiment's
        stated = {f.name: record.pop(f.name) for f in fields(Method) if f.name in record}
        cfg = cls(**record)
        for key, value in stated.items():
            want = getattr(cfg.method, key)
            if value != want:
                raise ConfigError(f"experiment {cfg.experiment} requires {key}={want!r}, got "
                                  f"{key}={value!r}")
        cfg.validate()
        return cfg

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "TrainConfig":
        try:
            record = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(record)


def _has_json_type(value, hint) -> bool:
    """Whether a decoded JSON value fits a TrainConfig or Method annotation.

    An int is not a bool here, a float may be written as an int, and null
    fits only an optional field.
    """
    args = typing.get_args(hint)
    if value is None:
        return type(None) in args
    if type(None) in args:
        (hint,) = (a for a in args if a is not type(None))
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if hint is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, hint)


def lr_at(iteration: int, cfg: TrainConfig) -> float:
    """Linear ramp to lr_peak over the warmup, then linear decay to zero."""
    n, warm = cfg.total_iterations, cfg.warmup_iterations
    if not 0 <= iteration <= n:
        raise ParameterError(f"iteration {iteration} outside [0, {n}]")
    if iteration <= warm:
        return cfg.lr_peak if warm == 0 else cfg.lr_peak * iteration / warm
    return cfg.lr_peak * (n - iteration) / (n - warm)


@dataclass
class AdamMoments:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

    @classmethod
    def zeros_like(cls, params: dict[str, T.Tensor]) -> "AdamMoments":
        return cls(m={name: np.zeros_like(p.values) for name, p in params.items()},
                   v={name: np.zeros_like(p.values) for name, p in params.items()})


def adamw_step(params: dict[str, T.Tensor], grads: dict[str, np.ndarray],
               moments: AdamMoments, lr: float, step: int):
    """Update `step` (1-based) of decoupled-weight-decay Adam with bias correction, in place.

    One elementwise update runs over every parameter, gradient and moment
    concatenated in sorted-name order; each parameter's values and moments then
    become views of the updated arrays. A parameter without a gradient sees a zero
    one. Every gradient is checked before anything is written, so a wrongly shaped
    or non-finite one raises and leaves parameters and moments untouched.
    """
    names = sorted(params)
    flat = []
    for name in names:
        p, g = params[name].values, grads.get(name)
        if g is None:
            g = np.zeros(p.shape)
        elif g.shape != p.shape:
            raise ShapeError(f"gradient for {name}: shape {g.shape} vs parameter {p.shape}")
        flat.append(g.ravel())
    g = np.concatenate(flat)
    if not np.all(np.isfinite(g)):
        bad = next(name for name, part in zip(names, flat) if not np.all(np.isfinite(part)))
        raise NumericError(f"gradient for {bad} is not finite")
    p = np.concatenate([params[name].values.ravel() for name in names])
    m = np.concatenate([moments.m[name].ravel() for name in names])
    v = np.concatenate([moments.v[name].ravel() for name in names])
    bc1 = 1.0 - ADAM_BETA1**step
    bc2 = 1.0 - ADAM_BETA2**step
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
    m_hat = m / bc1
    v_hat = v / bc2
    p = p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS) - lr * WEIGHT_DECAY * p
    start = 0
    for name in names:
        shape = params[name].values.shape
        end = start + params[name].values.size
        params[name].values = p[start:end].reshape(shape)
        moments.m[name] = m[start:end].reshape(shape)
        moments.v[name] = v[start:end].reshape(shape)
        start = end


@dataclass
class TrainState:
    config: TrainConfig
    iteration: int
    student: StudentModel
    moments: AdamMoments
    teacher_checksum: str


def build_teacher(cfg: TrainConfig) -> TeacherSurrogate:
    return TeacherSurrogate(dim=cfg.dim, seed=TEACHER_SEED)


def build_student(cfg: TrainConfig, teacher: TeacherSurrogate) -> StudentModel:
    return init_student_from_teacher(teacher, cfg.method.enhancement_loss != "none",
                                     STUDENT_SEED)


def _load_corpus(cfg: TrainConfig) -> list[tuple[str, Waveform]]:
    if cfg.data_manifest is None:
        raise ConfigError("data_manifest is required when no corpus is passed in")
    corpus = []
    for entry in load_manifest(cfg.data_manifest, expect_kind="speech"):
        try:
            corpus.append((entry.id, read_wav(entry.path)))
        except DistilRobustError as exc:
            raise DataError(f"utterance {entry.id}: {exc}") from exc
    return corpus


def _check_corpus(cfg: TrainConfig, corpus: list[tuple[str, Waveform]]):
    min_len = cfg.method.min_samples
    for utt_id, w in corpus:
        if len(w) < min_len:
            raise DataError(f"utterance {utt_id}: {len(w)} samples is shorter than the "
                            f"required minimum {min_len}")


def _crop(w: Waveform, crop_samples: int, seed: int) -> Waveform:
    if len(w) <= crop_samples:
        return Waveform(w.samples.copy(), w.sample_rate_hz)
    start = int(np.random.default_rng(seed).integers(0, len(w) - crop_samples + 1))
    return Waveform(w.samples[start : start + crop_samples].copy(), w.sample_rate_hz)


@functools.lru_cache(maxsize=2)  # slots are read in order: each epoch is shuffled once a run
def _epoch_order(master_seed: int, epoch: int, n_utts: int) -> np.ndarray:
    order = np.random.default_rng(stable_hash(master_seed, "order", epoch)).permutation(n_utts)
    order.flags.writeable = False
    return order


def _batch_indices(iteration: int, n_utts: int, batch_size: int, master_seed: int) -> list[int]:
    """Sequential without-replacement order within each seeded epoch shuffle."""
    slots = range(iteration * batch_size, (iteration + 1) * batch_size)
    return [int(_epoch_order(master_seed, slot // n_utts, n_utts)[slot % n_utts])
            for slot in slots]


def _teacher_rows(teacher: TeacherSurrogate, cache: dict, samples: list[np.ndarray],
                  keys: list[int | None]) -> list[dict[int, np.ndarray]]:
    """Each utterance's DISTILL_LAYERS rows of one length group, in order. A whole
    utterance (key: its corpus index) is read from or stored in `cache`; a crop (key None)
    is not. One teacher_forward covers the misses."""
    rows = [cache.get(key) for key in keys]
    misses = [j for j, key in enumerate(keys)
              if rows[j] is None and (key is None or keys.index(key) == j)]
    if misses:
        maps = teacher_forward(teacher, np.stack([samples[j] for j in misses]))
        frames = len(maps[DISTILL_LAYERS[0]]) // len(misses)
        for k, j in enumerate(misses):
            rows[j] = {l: maps[l][k * frames : (k + 1) * frames] for l in DISTILL_LAYERS}
            if keys[j] is not None:  # copied, so the cache keeps no other utterance's rows
                cache[keys[j]] = rows[j] = {l: m.copy() for l, m in rows[j].items()}
    return [cache[key] if r is None else r for r, key in zip(rows, keys)]


def batch_loss(teacher: TeacherSurrogate, cache: dict, student: StudentModel, method: Method,
               cleans: list[np.ndarray], contaminated: list[np.ndarray],
               keys: list[int | None]) -> LossBreakdown:
    """One batch's loss: the clean teacher's DISTILL_LAYERS rows of `cleans` distilled into
    the student fed `contaminated`, plus the method's weighted enhancement loss.

    The batch runs in length groups: lengths in order of first appearance, utterances in
    batch order within a group, nothing padded. A group takes its teacher rows from
    `_teacher_rows` (which alone writes `cache`, under `keys`), one student forward and,
    with an enhancement loss, that loss's group mean weighted by the group's share of the
    batch. One `kd_loss_parts` call sums the frames of every group (a lone group's
    predictions go to it as they are), and both of its totals are divided by the batch size.
    """
    groups: dict[int, list[int]] = {}
    for j, clean in enumerate(cleans):
        groups.setdefault(len(clean), []).append(j)
    teacher_rows, predictions, enh_mean = [], [], None
    for members in groups.values():
        teacher_rows += _teacher_rows(teacher, cache, [cleans[j] for j in members],
                                      [keys[j] for j in members])
        out = student_forward(student, np.stack([contaminated[j] for j in members]))
        predictions.append(out.predictions)
        if method.enhancement_loss != "none":
            clean = np.stack([cleans[j] for j in members])
            enh = (l1_wav(out.enhanced, clean) if method.enhancement_loss == "l1_wav"
                   else l1_freq(out.enhanced, clean))
            enh = T.scale(enh, len(members) / len(cleans))
            enh_mean = enh if enh_mean is None else T.add(enh_mean, enh)
    student_maps = predictions[0] if len(predictions) == 1 else \
        {l: T.concat([preds[l] for preds in predictions]) for l in DISTILL_LAYERS}
    kd = kd_loss_parts(
        {l: np.concatenate([rows[l] for rows in teacher_rows]) for l in DISTILL_LAYERS},
        student_maps)
    return combined_loss(T.scale(kd.l1, 1.0 / len(cleans)), T.scale(kd.cos, 1.0 / len(cleans)),
                         enh_mean, method.lambda_weight)


def _metrics_record(iteration: int, lr: float, breakdown, pairs, tau: float,
                    threshold: float) -> dict:
    counts = {action.value: 0 for action in AugmentAction}
    for _, plan in pairs:
        counts[plan.action.value] += 1
    return {
        "iter": iteration,
        "lr": lr,
        "kd_l1": breakdown.kd_l1,
        "kd_cos": breakdown.kd_cos,
        "enh": breakdown.enh,
        "combined": breakdown.combined,
        "action_counts": counts,
        "tau": tau,
        "reverb_threshold": threshold,
    }


def _rewind_metrics(path: str, iteration: int):
    """Cut the log back to its complete records of iterations before `iteration`."""
    keep = 0
    with open(path, "a+b") as fh:
        fh.seek(0)
        for line in fh:
            try:
                if not line.endswith(b"\n") or json.loads(line)["iter"] >= iteration:
                    break
            except (ValueError, KeyError, TypeError) as exc:
                raise DataError(f"{path}: unreadable metrics record ({exc})") from exc
            keep += len(line)
        fh.truncate(keep)


def _run_identity(cfg: TrainConfig) -> str:
    """The config JSON a resume must match: all but out_dir, so a run directory can move."""
    record = cfg.to_dict()
    del record["out_dir"]
    return json.dumps(record, sort_keys=True)


def train(cfg: TrainConfig, corpus=None, noise_bank=None, rir_bank=None,
          resume_from: str | None = None) -> TrainState:
    """Run (or resume) the loop; returns the final state after writing artifacts."""
    cfg.validate()
    method = cfg.method
    corpus = list(corpus) if corpus is not None else _load_corpus(cfg)
    if not corpus:
        raise DataError("training corpus is empty")
    _check_corpus(cfg, corpus)
    if noise_bank is None:
        if cfg.noise_manifest is None:
            raise ConfigError("noise_manifest is required when no noise bank is passed in")
        noise_bank = load_noise_bank(cfg.noise_manifest)
    if rir_bank is None:
        if cfg.rir_manifest is None:
            raise ConfigError("rir_manifest is required when no RIR bank is passed in")
        rir_bank = load_rir_bank(cfg.rir_manifest)
    if not noise_bank or not rir_bank:
        raise DataError("noise and RIR banks must be nonempty")
    check_sample_rates(corpus, noise_bank, rir_bank)

    teacher = build_teacher(cfg)
    checksum_before = teacher.checksum()

    if resume_from is not None:
        state = load_checkpoint(resume_from)
        if _run_identity(state.config) != _run_identity(cfg):
            raise ConfigError("resume checkpoint was written with a different config")
        if state.teacher_checksum != checksum_before:
            raise DataError(f"{resume_from}: teacher checksum {state.teacher_checksum!r} "
                            f"differs from the config's teacher {checksum_before!r}")
        student = state.student
        moments = state.moments
        start_iteration = state.iteration
    else:
        student = build_student(cfg, teacher)
        moments = AdamMoments.zeros_like(student.params)
        start_iteration = 0

    n = cfg.total_iterations
    os.makedirs(cfg.out_dir, exist_ok=True)
    metrics_path = os.path.join(cfg.out_dir, "metrics.jsonl")
    params = student.params
    teacher_cache: dict = {}  # corpus index -> the frozen teacher's rows of a whole utterance

    if resume_from is not None:
        _rewind_metrics(metrics_path, start_iteration)
    with open(metrics_path, "a" if resume_from is not None else "w", encoding="utf-8") as log:
        for iteration in range(start_iteration, n):
            batch_ids, cleans, keys = [], [], []
            order = _batch_indices(iteration, len(corpus), cfg.batch_size, cfg.master_seed)
            for j, utt_index in enumerate(order):
                utt_id, w = corpus[utt_index]
                batch_ids.append(utt_id)
                cleans.append(_crop(w, cfg.crop_samples,
                                    stable_hash(cfg.master_seed, "crop", iteration, j)))
                keys.append(utt_index if len(cleans[-1]) == len(w) else None)  # cached if whole

            sched_iter = iteration if method.curriculum else cfg.total_iterations
            sched = CurriculumState(sched_iter, cfg.total_iterations)
            tau = snr_lower_bound(sched)
            threshold = reverb_threshold(sched)
            try:
                pairs = augment_batch(cleans, sched, noise_bank, rir_bank,
                                      stable_hash(cfg.master_seed, "aug", iteration))
            except DistilRobustError as exc:
                raise DataError(f"iteration {iteration}, utterances {batch_ids}: {exc}") from exc

            T.zero_grads(params.values())
            breakdown = batch_loss(teacher, teacher_cache, student, method,
                                   [w.samples for w in cleans],
                                   [w.samples for w, _ in pairs], keys)
            T.backward(breakdown.tensor)
            lr = lr_at(iteration + 1, cfg)
            grads = {name: p.grad for name, p in params.items() if p.grad is not None}
            adamw_step(params, grads, moments, lr, iteration + 1)

            record = _metrics_record(iteration, lr, breakdown, pairs, tau, threshold)
            log.write(json.dumps(record, sort_keys=True) + "\n")

            done = iteration + 1
            if done % cfg.checkpoint_every == 0 or done == n:
                state = TrainState(cfg, done, student, moments, checksum_before)
                save_checkpoint(state, os.path.join(cfg.out_dir, f"ckpt_{done:06d}.drtc"))

    if teacher.checksum() != checksum_before:
        raise DistilRobustError("teacher parameters changed during training")

    final = TrainState(cfg, n, student, moments, checksum_before)
    save_checkpoint(final, os.path.join(cfg.out_dir, "ckpt_final.drtc"))
    return final


# ---------------------------------------------------------------------------
# checkpoint container: magic "DRTC", u8 version, u32 header length, header
# JSON, then per parameter a length-prefixed name and DRTN tensor records
# (value, and optimizer moments when present)

DRTC_MAGIC = b"DRTC"
DRTC_VERSION = 1


def _write_container(path: str, header: dict, blocks: list[tuple[str, list[np.ndarray]]]):
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(DRTC_MAGIC)
        fh.write(struct.pack("<B", DRTC_VERSION))
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for name, tensors in blocks:
            name_bytes = name.encode("utf-8")
            fh.write(struct.pack("<H", len(name_bytes)))
            fh.write(name_bytes)
            for arr in tensors:
                fh.write(T.tensor_to_bytes(arr))


def _read_container(path: str, moments: bool) -> tuple[dict, TrainConfig, dict]:
    """Header, config and per-parameter tensors of a checkpoint (`moments`) or an export.

    The stored parameters must be exactly the config's student (its encoder,
    for an export) by name and shape, and a checkpoint's iteration may not pass
    its config's `total_iterations`; anything else raises DataError.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != DRTC_MAGIC:
        raise DataError(f"{path}: not a checkpoint container")
    try:
        version, header_len = struct.unpack_from("<BI", buf, 4)
        if version != DRTC_VERSION:
            raise DataError(f"unsupported container version {version}")
        pos = 9 + header_len
        header = json.loads(buf[9:pos].decode("utf-8"))
        stored_moments, record = header["has_moments"], header["config"]
        iteration = header.get("iteration")
        # a bool is not a count
        if stored_moments and not (type(iteration) is int and iteration >= 0):
            raise DataError(f"header 'iteration' must be a non-negative integer, "
                            f"got {iteration!r}")
        if stored_moments and not isinstance(header.get("teacher_checksum"), str):
            raise DataError(f"header 'teacher_checksum' must be a string, got "
                            f"{header.get('teacher_checksum')!r}")
        blocks = []
        while pos < len(buf):
            (name_len,) = struct.unpack_from("<H", buf, pos)
            name = buf[pos + 2 : pos + 2 + name_len].decode("utf-8")
            pos += 2 + name_len
            tensors = []
            for _ in range(3 if stored_moments else 1):
                arr, pos = T.tensor_from_bytes(buf, pos)
                tensors.append(arr)
            blocks.append((name, tensors))
    except (DataError, struct.error, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{path}: unreadable checkpoint container: {exc}") from exc
    if moments and not stored_moments:
        raise DataError(f"{path}: exported model without optimizer state; it cannot "
                        f"resume training")
    if stored_moments and not moments:
        raise DataError(f"{path}: full checkpoint, not an exported model")
    cfg = TrainConfig.from_dict(record)
    if moments and header["iteration"] > cfg.total_iterations:
        raise DataError(f"{path}: header 'iteration' {header['iteration']} exceeds the "
                        f"config's total_iterations {cfg.total_iterations}")
    student = build_student(cfg, build_teacher(cfg))
    expected = {name: p.values.shape for name, p in student.params.items()
                if moments or name.startswith("encoder.")}
    if sorted(name for name, _ in blocks) != sorted(expected):
        raise DataError(f"{path}: stored parameters do not match the config's student")
    for name, tensors in blocks:
        if any(arr.shape != expected[name] for arr in tensors):
            raise DataError(f"{path}: {name} does not have the shape {expected[name]}")
    return header, cfg, dict(blocks)


def save_checkpoint(state: TrainState, path: str):
    header = {
        "has_moments": True,
        "iteration": state.iteration,
        "teacher_checksum": state.teacher_checksum,
        "config": state.config.to_dict(),
    }
    blocks = []
    for name in sorted(state.student.params):
        p = state.student.params[name]
        blocks.append((name, [p.values, state.moments.m[name], state.moments.v[name]]))
    _write_container(path, header, blocks)


def load_checkpoint(path: str) -> TrainState:
    header, cfg, blocks = _read_container(path, moments=True)
    params = {name: T.parameter(tensors[0]) for name, tensors in blocks.items()}
    moments = AdamMoments(m={name: tensors[1] for name, tensors in blocks.items()},
                          v={name: tensors[2] for name, tensors in blocks.items()})
    return TrainState(config=cfg, iteration=header["iteration"],
                      student=StudentModel(params), moments=moments,
                      teacher_checksum=header["teacher_checksum"])


def export_student(state: TrainState, path: str):
    """Write the representation encoder only; prediction/enhancement heads are dropped."""
    header = {
        "has_moments": False,
        "iteration": state.iteration,
        "config": state.config.to_dict(),
    }
    blocks = []
    for name in sorted(state.student.params):
        if name.startswith("encoder."):
            blocks.append((name, [state.student.params[name].values]))
    _write_container(path, header, blocks)


def load_exported(path: str) -> StudentModel:
    _, cfg, blocks = _read_container(path, moments=False)
    return StudentModel({name: T.Tensor(tensors[0]) for name, tensors in blocks.items()})


# ---------------------------------------------------------------------------
# metrics helpers


# the keys `plot` draws; every record of the log carries them
PLOTTED_KEYS = ("iter", "lr", "combined", "tau", "reverb_threshold")


def load_metrics(path: str) -> list[dict]:
    """The records of a metrics log; a line that is not a plottable record raises DataError."""
    records = []
    for line_no, record in json_lines(path):
        missing = [key for key in PLOTTED_KEYS if not isinstance(record.get(key), (int, float))]
        if missing:
            raise DataError(f"{path}:{line_no}: record lacks a number for {missing}")
        records.append(record)
    return records


def smoothed_loss(records: list[dict], iteration: int, window: int = 10) -> float:
    """Mean combined loss over the trailing `window` iterations ending at `iteration`."""
    values = [r["combined"] for r in records
              if iteration - window < r["iter"] <= iteration]
    if not values:
        raise DataError(f"no metrics records in ({iteration - window}, {iteration}]")
    return float(np.mean(values))
