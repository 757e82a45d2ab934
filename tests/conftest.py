"""Shared fixtures: synthetic corpora, noise/RIR banks, and on-disk test assets."""

import json
import os
from contextlib import contextmanager

import numpy as np
import pytest

import distilrobust.trainer as trainer_module
from distilrobust.audio import RoomImpulseResponse, Waveform, write_wav


# Keys that earlier TrainConfig versions had, each with a value they wrote. A
# config or checkpoint header carrying one is refused as an unknown field.
REMOVED_CONFIG_FIELDS = [
    ("cell_type", "lstm"), ("hidden_multiplier", 2), ("frame_stride", 320),
    ("deconv_strides", [2, 2, 2, 2, 2, 2, 5]), ("enh_hidden", None), ("stft_window", 400),
    ("stft_hop", 160), ("stft_fft", 512), ("teacher_seed", 100), ("student_seed", 1),
    ("grad_clip", None), ("dropout", None), ("teacher_layers", 12), ("student_layers", 2),
    ("distill_layers", [4, 8, 12]),
]


class Killed(BaseException):
    """The kill `crash_after` raises; like KeyboardInterrupt, no `except Exception` stops it."""


@contextmanager
def crash_after(steps):
    """Kill the training run in the block after `steps` AdamW updates.

    The first `steps` calls of `trainer.adamw_step` go through; the next one
    raises `Killed` before it updates anything, as a kill between checkpoints
    would. The block must end in that kill: a run that finishes fails the test.
    """
    real = trainer_module.adamw_step
    calls = 0

    def step(*args):
        nonlocal calls
        if calls == steps:
            raise Killed(f"killed in AdamW update {steps + 1}")
        calls += 1
        return real(*args)

    trainer_module.adamw_step = step
    try:
        with pytest.raises(Killed):
            yield
    finally:
        trainer_module.adamw_step = real


def make_reference_data(seed=7):
    """Build the fixed 20-utterance synthetic corpus used by the end-to-end runs.

    Every utterance is a two-tone chirp-free signal plus a little broadband
    noise, one second at 16 kHz. The banks hold two noise files and two RIRs
    (a long small-room tail and a short medium-room tail). Deterministic in
    the seed, so reruns see bit-identical data.
    """
    rng = np.random.default_rng(seed)
    corpus = []
    for i in range(20):
        n = 16000
        t = np.arange(n) / 16000.0
        f1, f2 = rng.uniform(80, 600), rng.uniform(600, 3000)
        x = 0.2 * np.sin(2 * np.pi * f1 * t) + 0.1 * np.sin(2 * np.pi * f2 * t + rng.uniform(0, 6))
        x += 0.02 * rng.standard_normal(n)
        corpus.append((f"utt{i:02d}", Waveform(x)))
    noise_bank = [Waveform(0.3 * rng.standard_normal(16000)) for _ in range(2)]
    taps = np.zeros(800)
    taps[0] = 1.0
    taps[1:] = 0.3 * rng.standard_normal(799) * np.exp(-np.arange(799) / 120.0)
    rir_bank = [
        RoomImpulseResponse(taps),
        RoomImpulseResponse(
            np.r_[1.0, 0.2 * rng.standard_normal(300) * np.exp(-np.arange(300) / 40.0)]),
    ]
    return corpus, noise_bank, rir_bank


@pytest.fixture(scope="session")
def reference_data():
    return make_reference_data()


@pytest.fixture(scope="session")
def reference_corpus(reference_data):
    return reference_data[0]


@pytest.fixture(scope="session")
def noise_bank(reference_data):
    return reference_data[1]


@pytest.fixture(scope="session")
def rir_bank(reference_data):
    return reference_data[2]


def write_manifest(path, rows):
    """Write a JSON-lines manifest; rows are dicts."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return str(path)


@pytest.fixture()
def disk_assets(tmp_path, reference_data):
    """Materialize a small corpus plus banks as WAV files and manifests."""
    corpus, noises, rirs = reference_data
    speech_rows, noise_rows, rir_rows = [], [], []
    for name, wave in corpus[:4]:
        p = tmp_path / f"{name}.wav"
        write_wav(wave, p)
        speech_rows.append({"id": name, "path": p.name, "kind": "speech"})
    for i, wave in enumerate(noises):
        p = tmp_path / f"noise{i}.wav"
        write_wav(wave, p)
        noise_rows.append({"id": f"noise{i}", "path": p.name, "kind": "noise"})
    for i, rir in enumerate(rirs):
        p = tmp_path / f"rir{i}.wav"
        write_wav(Waveform(rir.taps), p)
        rir_rows.append({"id": f"rir{i}", "path": p.name, "kind": "rir"})
    return {
        "dir": tmp_path,
        "speech": write_manifest(tmp_path / "speech.jsonl", speech_rows),
        "noise": write_manifest(tmp_path / "noise.jsonl", noise_rows),
        "rir": write_manifest(tmp_path / "rir.jsonl", rir_rows),
        "speech_rows": speech_rows,
        "noise_rows": noise_rows,
        "rir_rows": rir_rows,
    }


def tiny_corpus(n_utts=6, n_samples=1600, seed=11):
    """Short utterances for fast training-loop tests."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_utts):
        t = np.arange(n_samples) / 16000.0
        x = 0.3 * np.sin(2 * np.pi * rng.uniform(100, 2000) * t)
        x += 0.05 * rng.standard_normal(n_samples)
        out.append((f"tiny{i}", Waveform(x)))
    return out
