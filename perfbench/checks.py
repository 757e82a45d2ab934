"""Output checks. Each returns failure messages; none means correct.

Train commands are checked against the package's own public API (config,
teacher, checkpoint reader). Augmented files are checked against an
independent numpy re-computation of the contamination from `plans.jsonl`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import wave

import numpy as np
from scipy.signal import butter, lfilter

from inputs import read_wav

PCM16_STEPS = 32768.0


def digest(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# train


def expected_teacher_checksum(config_path: str) -> str:
    from distilrobust.trainer import TrainConfig, build_teacher

    with open(config_path, "r", encoding="utf-8") as fh:
        return build_teacher(TrainConfig.from_json(fh.read())).checksum()


def check_train(out_dir: str, iterations: int, teacher_checksum: str) -> tuple[list[str], dict]:
    """Check one finished training command; returns (failures, output digests)."""
    from distilrobust.errors import DistilRobustError
    from distilrobust.trainer import load_checkpoint

    failures = []
    metrics_path = os.path.join(out_dir, "metrics.jsonl")
    final_path = os.path.join(out_dir, "ckpt_final.drtc")
    digests = {"metrics": digest(metrics_path), "ckpt_final": digest(final_path)}
    if digests["metrics"] is None or digests["ckpt_final"] is None:
        return ["metrics.jsonl or ckpt_final.drtc missing"], digests

    try:
        with open(metrics_path, "r", encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
    except ValueError as exc:
        return [f"metrics.jsonl is not JSON lines: {exc}"], digests
    if [r.get("iter") for r in records] != list(range(iterations)):
        failures.append(f"metrics.jsonl holds {len(records)} records, not one per "
                        f"iteration 0..{iterations - 1}")
    for r in records:
        values = [r.get(k) for k in ("lr", "kd_l1", "kd_cos", "combined", "tau",
                                     "reverb_threshold")]
        if r.get("enh") is not None:
            values.append(r["enh"])
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
            failures.append(f"iteration {r.get('iter')}: non-finite or missing value")
            break

    try:
        if load_checkpoint(final_path).teacher_checksum != teacher_checksum:
            failures.append("teacher checksum in ckpt_final differs from the config's teacher")
    except (DistilRobustError, ValueError, struct.error) as exc:
        failures.append(f"ckpt_final.drtc unreadable: {exc}")

    combined = [r["combined"] for r in records if isinstance(r.get("combined"), float)]
    window = max(1, iterations // 5)
    if len(combined) == iterations:
        leading, trailing = np.mean(combined[:window]), np.mean(combined[-window:])
        if not trailing < leading:
            failures.append(f"smoothed loss did not fall: {leading:.4f} -> {trailing:.4f} "
                            f"over windows of {window}")
    return failures, digests


# ---------------------------------------------------------------------------
# augment


def _stable_hash(*parts) -> int:
    """The seed hash the plans are keyed by: blake2b-64 over length-prefixed,
    type-tagged parts."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, str):
            data = b"S" + part.encode("utf-8")
        else:
            data = b"I" + str(int(part)).encode("ascii")
        h.update(struct.pack("<I", len(data)))
        h.update(data)
    return int.from_bytes(h.digest(), "little")


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(x))))


def _fft_convolve(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    n = x.size + taps.size - 1
    size = 1 << (n - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(taps, size), size)[:n]


def _add_noise(clean: np.ndarray, plan: dict, noise_bank: list[np.ndarray], rate: int):
    if plan["noise_source"] == "file":
        noise = noise_bank[plan["noise_index"]]
    else:
        rng = np.random.default_rng(_stable_hash(plan["seed"], "white"))
        b, a = butter(4, 2000.0 / (rate / 2.0), btype="low")
        noise = lfilter(b, a, rng.standard_normal(clean.size))
    rng = np.random.default_rng(_stable_hash(plan["seed"], "crop"))
    n = clean.size
    if noise.size > n:
        offset = int(rng.integers(0, noise.size - n + 1))
        noise = noise[offset : offset + n]
    elif noise.size < n:
        noise = np.tile(noise, -(-n // noise.size))[:n]
    gain = _rms(clean) / (_rms(noise) * 10.0 ** (plan["snr_db"] / 20.0))
    return clean + gain * noise


def _add_reverb(x: np.ndarray, plan: dict, rir_bank: list[np.ndarray]):
    if not plan["reverb_applied"]:
        return x
    wet = _fft_convolve(x, rir_bank[plan["rir_index"]])[: x.size]
    return wet * (_rms(x) / _rms(wet))


def recompute(clean: np.ndarray, rate: int, plan: dict, noise_bank, rir_bank) -> np.ndarray:
    """The contaminated utterance as PCM16 steps, recomputed from its plan
    (noise before reverb, the command's default)."""
    x = clean
    if plan["action"] in ("a2_noise", "a4_noise_reverb"):
        x = _add_noise(x, plan, noise_bank, rate)
    if plan["action"] in ("a3_reverb", "a4_noise_reverb"):
        x = _add_reverb(x, plan, rir_bank)
    return np.clip(np.rint(np.clip(x, -1.0, 1.0) * PCM16_STEPS), -32768, 32767)


def _manifest(path: str) -> list[dict]:
    base = os.path.dirname(path)
    with open(path, "r", encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    for row in rows:
        row["path"] = os.path.join(base, row["path"])
    return rows


def load_augment_inputs(spec: dict) -> dict:
    return {
        "speech": [(row["id"], *read_wav(row["path"])) for row in _manifest(spec["speech"])],
        "noise": [read_wav(row["path"])[0] for row in _manifest(spec["noise"])],
        "rir": [read_wav(row["path"])[0] for row in _manifest(spec["rir"])],
    }


def check_augment(out_dir: str, inputs: dict, oracle_ids: set[str]):
    """Check one finished augment command.

    Returns per-utterance failure messages, per-utterance digests of the output
    WAV together with its plan line (for comparison across commands), and the
    share of plans with reverb applied.
    """
    failures = {utt_id: [] for utt_id, _, _ in inputs["speech"]}
    digests = {}
    plans = {}
    plans_path = os.path.join(out_dir, "plans.jsonl")
    if os.path.exists(plans_path):
        with open(plans_path, "r", encoding="utf-8") as fh:
            for line in fh:
                try:
                    plans[json.loads(line)["id"]] = line.strip()
                except (ValueError, KeyError, TypeError):
                    continue
    for utt_id, clean, rate in inputs["speech"]:
        out_path = os.path.join(out_dir, f"{utt_id}.wav")
        if utt_id not in plans or not os.path.exists(out_path):
            failures[utt_id].append("output or plan missing")
            continue
        try:
            out, out_rate = read_wav(out_path)
        except (wave.Error, ValueError, EOFError) as exc:
            failures[utt_id].append(f"output unreadable: {exc}")
            continue
        if out.size != clean.size or out_rate != rate:
            failures[utt_id].append(f"output {out.size} samples at {out_rate} Hz, input "
                                    f"{clean.size} at {rate} Hz")
            continue
        digests[utt_id] = hashlib.sha256(out.tobytes() + plans[utt_id].encode()).hexdigest()
        if utt_id in oracle_ids:
            try:
                expected = recompute(clean, rate, json.loads(plans[utt_id]), inputs["noise"],
                                     inputs["rir"])
            except (KeyError, TypeError, IndexError) as exc:
                failures[utt_id].append(f"plan cannot be replayed: {exc!r}")
                continue
            worst = float(np.max(np.abs(out * PCM16_STEPS - expected)))
            if worst > 1.0:
                failures[utt_id].append(f"differs from the re-computation by {worst:.0f} "
                                        f"PCM16 steps")
    reverb = [json.loads(line).get("reverb_applied") is True for line in plans.values()]
    return failures, digests, sum(reverb) / max(len(reverb), 1)
