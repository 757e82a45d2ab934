"""Four-action contamination sampler with a progressive difficulty schedule.

Each utterance draws one of four equiprobable actions: pass through clean,
add noise at a sampled SNR, convolve with a room impulse response, or both.
Early in training the schedule keeps the SNR floor high and the reverberation
probability low, relaxing both linearly until the halfway point.
"""

from __future__ import annotations

import enum
import hashlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .audio import RoomImpulseResponse, Waveform, convolve_rir, mix_at_snr, read_wav, white_noise
from .errors import DataError, ParameterError
from .fileio import json_lines

SNR_CEILING_DB = 20
FILE_NOISE_PROBABILITY = 0.7


class AugmentAction(enum.Enum):
    A1_CLEAN = "a1_clean"
    A2_NOISE = "a2_noise"
    A3_REVERB = "a3_reverb"
    A4_NOISE_REVERB = "a4_noise_reverb"


_NOISE_ACTIONS = (AugmentAction.A2_NOISE, AugmentAction.A4_NOISE_REVERB)
_REVERB_ACTIONS = (AugmentAction.A3_REVERB, AugmentAction.A4_NOISE_REVERB)


def stable_hash(*parts) -> int:
    """Stable 64-bit hash of ints/strings; identical across processes."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, str):
            data = b"S" + part.encode("utf-8")
        elif isinstance(part, (bool, int, np.integer)):
            data = b"I" + str(int(part)).encode("ascii")
        else:
            raise ParameterError(f"unhashable seed component of type {type(part).__name__}")
        h.update(struct.pack("<I", len(data)))
        h.update(data)
    return int.from_bytes(h.digest(), "little")


@dataclass(frozen=True)
class CurriculumState:
    """Progress marker: current iteration out of the planned total."""

    iteration: int
    total_iterations: int

    def __post_init__(self):
        if self.total_iterations <= 0:
            raise ParameterError(f"total_iterations must be positive, got {self.total_iterations}")
        if not 0 <= self.iteration <= self.total_iterations:
            raise ParameterError(
                f"iteration {self.iteration} outside [0, {self.total_iterations}]")


def snr_lower_bound(state: CurriculumState) -> float:
    """SNR floor in dB: 20 at the start, linearly down to 0 at the halfway point."""
    it, n = state.iteration, state.total_iterations
    if 2 * it >= n:
        return 0.0
    return 20.0 * (n - 2 * it) / n


def reverb_threshold(state: CurriculumState) -> float:
    """Reverberation probability: 0 at the start, linearly up to 1 at halfway."""
    it, n = state.iteration, state.total_iterations
    if 2 * it >= n:
        return 1.0
    return (2.0 * it) / n


@dataclass(frozen=True)
class AugmentPlan:
    """Everything needed to reproduce one utterance's contamination exactly.

    Under a noise action, `noise_index` None means seeded white noise;
    `rir_index` None means the utterance is not reverberated.
    """

    action: AugmentAction
    seed: int
    snr_db: int | None = None
    noise_index: int | None = None
    rir_index: int | None = None

    def __post_init__(self):
        if (self.action in _NOISE_ACTIONS) != (self.snr_db is not None):
            raise ParameterError(f"snr_db must be present iff action adds noise "
                                 f"({self.action.value}, snr_db={self.snr_db})")
        if self.noise_index is not None and self.snr_db is None:
            raise ParameterError("noise_index present without snr_db")
        if self.rir_index is not None and self.action not in _REVERB_ACTIONS:
            raise ParameterError(f"rir_index is not valid under {self.action.value}")

    @property
    def noise_source(self) -> str | None:
        if self.snr_db is None:
            return None
        return "white_noise" if self.noise_index is None else "file"

    @property
    def reverb_applied(self) -> bool:
        return self.rir_index is not None

    def to_dict(self) -> dict:
        return {
            "action": self.action.value,
            "seed": self.seed,
            "snr_db": self.snr_db,
            "noise_source": self.noise_source,
            "noise_index": self.noise_index,
            "rir_index": self.rir_index,
            "reverb_applied": self.reverb_applied,
        }


def sample_plan(state: CurriculumState, n_noise_files: int, n_rirs: int, seed: int) -> AugmentPlan:
    """Draw one contamination plan; fully determined by the seed and schedule state."""
    if n_noise_files < 1:
        raise ParameterError(f"n_noise_files must be >= 1, got {n_noise_files}")
    if n_rirs < 1:
        raise ParameterError(f"n_rirs must be >= 1, got {n_rirs}")
    rng = np.random.default_rng(seed)
    action = tuple(AugmentAction)[int(rng.integers(0, 4))]

    snr_db = noise_index = rir_index = None
    if action in _NOISE_ACTIONS:
        # noninteger floors round up so the draw never dips below the schedule
        lo = math.ceil(snr_lower_bound(state))
        snr_db = int(rng.integers(lo, SNR_CEILING_DB + 1))
        if float(rng.uniform()) <= FILE_NOISE_PROBABILITY:
            noise_index = int(rng.integers(0, n_noise_files))
    if action in _REVERB_ACTIONS and float(rng.uniform()) <= reverb_threshold(state):
        rir_index = int(rng.integers(0, n_rirs))

    return AugmentPlan(action=action, seed=seed, snr_db=snr_db, noise_index=noise_index,
                       rir_index=rir_index)


def _bank_entry(bank, index: int, kind: str):
    if not 0 <= index < len(bank):
        raise DataError(f"{kind} index {index} outside bank of {len(bank)}")
    return bank[index]


def apply_plan(clean: Waveform, plan: AugmentPlan, noise_bank, rir_bank) -> Waveform:
    """Realize a plan on one utterance (noise, then reverb); output length equals input length."""
    out = clean
    if plan.snr_db is not None:
        if plan.noise_index is None:
            noise = white_noise(len(clean), stable_hash(plan.seed, "white"))
        else:
            noise = _bank_entry(noise_bank, plan.noise_index, "noise")
        out = mix_at_snr(clean, noise, plan.snr_db, seed=stable_hash(plan.seed, "crop"))
    if plan.rir_index is not None:
        out = convolve_rir(out, _bank_entry(rir_bank, plan.rir_index, "rir"))
    return Waveform(clean.samples.copy()) if out is clean else out


def utterance_seed(master_seed: int, iteration: int, index: int) -> int:
    return stable_hash(master_seed, iteration, index)


def augment_batch(batch, state: CurriculumState, noise_bank, rir_bank, master_seed: int):
    """Contaminate a batch; each utterance depends only on its own index and seed."""
    if not batch:
        raise ParameterError("augment_batch needs a nonempty batch")
    pairs = []
    for index, clean in enumerate(batch):
        seed = utterance_seed(master_seed, state.iteration, index)
        plan = sample_plan(state, len(noise_bank), len(rir_bank), seed)
        pairs.append((apply_plan(clean, plan, noise_bank, rir_bank), plan))
    return pairs


# ---------------------------------------------------------------------------
# JSON-lines manifests and banks


@dataclass(frozen=True)
class ManifestEntry:
    id: str
    path: str


def load_manifest(path, expect_kind: str, require_exists: bool = True) -> list[ManifestEntry]:
    """Parse a JSON-lines manifest of `expect_kind` entries ("speech", "noise" or "rir");
    paths must resolve, and ids must be unique plain file names (no separator, not `.`
    or `..`), since `augment` names its outputs after them."""
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    base = os.path.dirname(os.path.abspath(path))
    for line_no, record in json_lines(path):
        for key in ("id", "path", "kind"):
            if key not in record:
                raise DataError(f"{path}:{line_no}: missing field {key!r}")
        if record["kind"] != expect_kind:
            raise DataError(f"{path}:{line_no}: expected kind {expect_kind!r}, "
                            f"got {record['kind']!r}")
        entry_id = record["id"]
        if not isinstance(entry_id, str):
            raise DataError(f"{path}:{line_no}: id must be a string, got {entry_id!r}")
        if entry_id in ("", ".", "..") or "/" in entry_id or "\\" in entry_id:
            raise DataError(f"{path}:{line_no}: id {entry_id!r} is not a plain file name")
        if entry_id in seen:
            raise DataError(f"{path}:{line_no}: duplicate id {entry_id!r}")
        seen.add(entry_id)
        wav_path = record["path"]
        if not isinstance(wav_path, str):
            raise DataError(f"{path}:{line_no}: path must be a string, got {wav_path!r}")
        if not os.path.isabs(wav_path):
            wav_path = os.path.join(base, wav_path)
        if require_exists and not os.path.exists(wav_path):
            raise FileNotFoundError(f"{path}:{line_no}: file not found: {wav_path}")
        entries.append(ManifestEntry(id=entry_id, path=wav_path))
    if not entries:
        raise DataError(f"{path}: empty manifest")
    return entries


def load_noise_bank(manifest_path) -> list[Waveform]:
    return [read_wav(e.path) for e in load_manifest(manifest_path, expect_kind="noise")]


def load_rir_bank(manifest_path) -> list[RoomImpulseResponse]:
    return [RoomImpulseResponse(read_wav(e.path).samples)
            for e in load_manifest(manifest_path, expect_kind="rir")]
