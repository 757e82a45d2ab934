"""Seeded input generator: WAVs, manifests and the train config for one workload.

The same seed always writes the same bytes. The program under test only ever
sees what this module writes; nothing here imports distilrobust or the tests.
"""

from __future__ import annotations

import json
import os
import wave

import numpy as np

SAMPLE_RATE_HZ = 16000
CROP_SAMPLES = 16000

# Train workloads: the desk configuration (batch 8, dim 16, 16,000-sample crops).
# `iterations` is the length of one training command, short enough that a run
# holds several commands; `checkpoint_every` puts a checkpoint write into one
# iteration in four or five, so iter_ms_p90 lands on them.
TRAIN_SHAPES = {
    "train_A": {"experiment": "A", "iterations": 50, "checkpoint_every": 5,
                "utt_samples": (16000, 16000)},
    "train_C1": {"experiment": "C1", "iterations": 8, "checkpoint_every": 4,
                 "utt_samples": (24000, 48000)},
}
TRAIN_UTTERANCES = 20
TRAIN_PRESETS = {
    "A": {"curriculum": False, "enhancement_loss": "none", "lambda_weight": 0.0},
    "C1": {"curriculum": True, "enhancement_loss": "l1_wav", "lambda_weight": 10.0},
}

# augment_files: clean speech at the end of the schedule (0 dB floor, reverb
# probability 1), four 10 s noise files and three room-length RIRs.
AUGMENT_UTTERANCES = 48
AUGMENT_ITERATIONS = 1000
AUGMENT_NOISE_FILES = 4
AUGMENT_NOISE_SECONDS = 10
AUGMENT_RIRS = (("small", 0.2), ("medium", 0.5), ("large", 0.8))
AUGMENT_MASTER_SEED = 0

TINY = {"iterations": 4, "utterances": 4, "augment_utterances": 6}


def write_wav(path: str, samples: np.ndarray, sample_rate_hz: int = SAMPLE_RATE_HZ):
    """Mono PCM16, clamped to [-1, 1] and rounded to the nearest step."""
    q = np.clip(np.rint(np.clip(samples, -1.0, 1.0) * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(path, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(sample_rate_hz)
        fh.writeframes(q.tobytes())


def read_wav(path: str) -> tuple[np.ndarray, int]:
    """Mono PCM16 as float64 in [-1, 1) and its sample rate."""
    with wave.open(path, "rb") as fh:
        if fh.getnchannels() != 1 or fh.getsampwidth() != 2:
            raise ValueError(f"{path}: expected mono PCM16")
        rate = fh.getframerate()
        raw = fh.readframes(fh.getnframes())
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0, rate


def _speech(rng: np.random.Generator, n: int) -> np.ndarray:
    """The desk recipe: two tones at random pitch and phase plus a little noise."""
    t = np.arange(n) / SAMPLE_RATE_HZ
    f1, f2 = rng.uniform(80, 600), rng.uniform(600, 3000)
    x = 0.2 * np.sin(2 * np.pi * f1 * t) + 0.1 * np.sin(2 * np.pi * f2 * t + rng.uniform(0, 6))
    return x + 0.02 * rng.standard_normal(n)


def _rir(rng: np.random.Generator, n_taps: int, decay_taps: float, level: float) -> np.ndarray:
    taps = np.zeros(n_taps)
    taps[0] = 1.0
    taps[1:] = level * rng.standard_normal(n_taps - 1) * np.exp(-np.arange(n_taps - 1) / decay_taps)
    return taps


def _write_manifest(path: str, rows: list[dict]) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return path


def _write_set(directory: str, kind: str, items, extra=None) -> str:
    """Write (id, samples) pairs as WAVs plus their manifest; returns the manifest path."""
    rows = []
    for i, (item_id, samples) in enumerate(items):
        write_wav(os.path.join(directory, f"{item_id}.wav"), samples)
        row = {"id": item_id, "path": f"{item_id}.wav", "kind": kind}
        if extra is not None:
            row.update(extra[i])
        rows.append(row)
    return _write_manifest(os.path.join(directory, f"{kind}.jsonl"), rows)


def _reverb_share_expected(curriculum: bool, iterations: int) -> float:
    """Expected share of utterances with reverb: half the actions can reverberate,
    each with the schedule's reverb probability (0 at the start, 1 from halfway)."""
    if not curriculum:
        return 0.5
    probs = [min(1.0, 2.0 * it / iterations) for it in range(iterations)]
    return 0.5 * float(np.mean(probs))


def generate(workload: str, seed: int, directory: str, tiny: bool = False) -> dict:
    """Write the inputs for `workload` into `directory`; return how to run it."""
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng([seed, sum(workload.encode())])
    if workload in TRAIN_SHAPES:
        return _generate_train(workload, seed, directory, rng, tiny)
    if workload == "augment_files":
        return _generate_augment(directory, rng, tiny)
    raise ValueError(f"unknown workload {workload!r}")


def _generate_train(workload, seed, directory, rng, tiny) -> dict:
    shape = TRAIN_SHAPES[workload]
    n_utts = TINY["utterances"] if tiny else TRAIN_UTTERANCES
    iterations = TINY["iterations"] if tiny else shape["iterations"]
    lo, hi = shape["utt_samples"]
    lengths = [int(rng.integers(lo, hi + 1)) for _ in range(n_utts)]
    speech = _write_set(directory, "speech",
                        [(f"utt{i:02d}", _speech(rng, n)) for i, n in enumerate(lengths)])
    noise = _write_set(directory, "noise",
                       [(f"noise{i}", 0.3 * rng.standard_normal(SAMPLE_RATE_HZ))
                        for i in range(2)])
    rirs = [("rir0", _rir(rng, 800, 120.0, 0.3)), ("rir1", _rir(rng, 301, 40.0, 0.2))]
    rir = _write_set(directory, "rir", rirs, extra=[{"room_class": "small"},
                                                    {"room_class": "medium"}])
    experiment = shape["experiment"]
    preset = TRAIN_PRESETS[experiment]
    out_dir = os.path.join(directory, "run")
    config = dict(preset, experiment=experiment, total_iterations=iterations, batch_size=8,
                  dim=16, lr_peak=0.005, warmup_iterations=max(1, iterations // 5),
                  checkpoint_every=1 if tiny else shape["checkpoint_every"],
                  master_seed=seed, crop_samples=CROP_SAMPLES, out_dir=out_dir,
                  data_manifest=speech, noise_manifest=noise, rir_manifest=rir)
    config_path = os.path.join(directory, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, sort_keys=True, indent=2)
    return {
        "kind": "train",
        "argv": ["train", "--config", config_path],
        "config": config_path,
        "out_dir": out_dir,
        "iterations": iterations,
        "audio_s_per_unit": 8 * CROP_SAMPLES / SAMPLE_RATE_HZ,
        "properties": {
            "whole_utterance_crop_share": sum(n <= CROP_SAMPLES for n in lengths) / n_utts,
            "reverb_share": _reverb_share_expected(preset["curriculum"], iterations),
        },
    }


def _generate_augment(directory, rng, tiny) -> dict:
    n_utts = TINY["augment_utterances"] if tiny else AUGMENT_UTTERANCES
    # Lengths are spread evenly over 1-4 s in a fixed order and the plans come
    # from a fixed master seed, so every seed does the same amount of work: with
    # seeded plans the reverberated length, and with it the command's time,
    # varied by a factor of two between seeds. The seed draws the signals.
    lengths = [int(n) for n in np.linspace(1.0, 4.0, n_utts) * SAMPLE_RATE_HZ]
    speech = _write_set(directory, "speech",
                        [(f"utt{i:02d}", _speech(rng, n)) for i, n in enumerate(lengths)])
    noise = _write_set(directory, "noise",
                       [(f"noise{i}", 0.3 * rng.standard_normal(AUGMENT_NOISE_SECONDS
                                                                * SAMPLE_RATE_HZ))
                        for i in range(AUGMENT_NOISE_FILES)])
    rirs = [(f"rir{i}", _rir(rng, int(seconds * SAMPLE_RATE_HZ), seconds * SAMPLE_RATE_HZ / 6,
                             0.3))
            for i, (_, seconds) in enumerate(AUGMENT_RIRS)]
    rir = _write_set(directory, "rir", rirs,
                     extra=[{"room_class": room} for room, _ in AUGMENT_RIRS])
    out_dir = os.path.join(directory, "out")
    argv = ["augment", "--manifest", speech, "--noise-bank", noise, "--rir-bank", rir,
            "--iterations", str(AUGMENT_ITERATIONS), "--iter", str(AUGMENT_ITERATIONS),
            "--seed", str(AUGMENT_MASTER_SEED), "--out-dir", out_dir]
    return {
        "kind": "augment",
        "argv": argv,
        "speech": speech,
        "noise": noise,
        "rir": rir,
        "out_dir": out_dir,
        "audio_s_per_unit": sum(lengths) / SAMPLE_RATE_HZ,
        "properties": {
            "whole_utterance_crop_share": 1.0,
            "reverb_share": _reverb_share_expected(False, AUGMENT_ITERATIONS),
        },
    }
