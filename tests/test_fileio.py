"""Every artifact writer replaces its file whole: a failed write leaves the old file.
The one JSON-lines reader skips blank lines and names each bad line by its number."""

import argparse
import json
import os
import tempfile

import numpy as np
import pytest

import distilrobust.fileio as fileio
from distilrobust import cli
from distilrobust.audio import Waveform, write_wav
from distilrobust.errors import DataError
from distilrobust.trainer import TrainConfig, _write_container


class _FailsMidway:
    """File wrapper whose first write stores half its bytes, then raises."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError("device full")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def _failing_writes(p, mode="r", **kwargs):
    """`open` for `fileio`: a handle opened for writing fails its first write; reads pass."""
    fh = open(p, mode, **kwargs)
    return _FailsMidway(fh) if "w" in mode else fh


def _write_wav(path, value):
    write_wav(Waveform(np.full(800, value)), path)


def _write_checkpoint(path, value):
    header = {"has_moments": False, "config": TrainConfig().to_dict()}
    _write_container(path, header, [("w", [np.full(5, value)])])


def _write_plot(path, value):
    # the metrics log lives outside the directory the test lists
    with tempfile.TemporaryDirectory() as tmp:
        metrics = os.path.join(tmp, "metrics.jsonl")
        with open(metrics, "w", encoding="utf-8") as fh:
            for i in range(2):
                fh.write(json.dumps({"iter": i, "lr": 1e-3, "combined": value * (i + 1),
                                     "tau": 0.0, "reverb_threshold": 0.5}) + "\n")
        cli.cmd_plot(argparse.Namespace(metrics=metrics, out=str(path)))


@pytest.mark.parametrize("writer", [_write_wav, _write_checkpoint, _write_plot])
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, writer):
    path = tmp_path / "artifact.bin"
    writer(path, 0.25)
    previous = path.read_bytes()

    monkeypatch.setattr(fileio, "open", _failing_writes, raising=False)
    with pytest.raises(OSError, match="device full"):
        writer(path, -0.5)
    assert path.read_bytes() == previous
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.bin"]

    monkeypatch.undo()
    writer(path, -0.5)
    assert path.read_bytes() != previous
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.bin"]


def test_new_path_is_absent_after_failed_write(tmp_path, monkeypatch):
    monkeypatch.setattr(fileio, "open", _failing_writes, raising=False)
    with pytest.raises(OSError):
        _write_checkpoint(tmp_path / "new.drtc", 1.0)
    assert list(tmp_path.iterdir()) == []


def test_failed_augment_leaves_no_stale_plans(disk_assets, tmp_path, monkeypatch):
    # a plans.jsonl that is present describes the WAVs beside it: the old one is removed
    # before the first WAV is replaced, and the new one is written after the last
    out = tmp_path / "aug"
    plans = out / "plans.jsonl"
    real_open = open

    def augment(seed):
        return cli.cmd_augment(argparse.Namespace(
            manifest=disk_assets["speech"], noise_bank=disk_assets["noise"],
            rir_bank=disk_assets["rir"], iterations=1000, iter=400, seed=seed,
            out_dir=str(out)))

    def failing_at(suffix, nth):
        """An open whose nth write to a path ending in suffix fails halfway."""
        matched = []

        def fake_open(p, mode="r", **kwargs):
            if p.endswith(suffix):
                matched.append(p)
                if len(matched) == nth:
                    return _FailsMidway(real_open(p, mode))
            return real_open(p, mode, **kwargs)
        return fake_open

    for suffix, nth in (("plans.jsonl.tmp", 1), (".wav.tmp", 2)):
        monkeypatch.undo()
        assert augment(3) == cli.EXIT_OK
        previous = plans.read_bytes()
        monkeypatch.setattr(fileio, "open", failing_at(suffix, nth), raising=False)
        with pytest.raises(OSError, match="device full"):
            augment(4)
        assert not plans.exists(), suffix
        assert not list(out.glob("*.tmp")), suffix

    monkeypatch.undo()
    assert augment(4) == cli.EXIT_OK
    assert plans.read_bytes() != previous


def test_json_lines_counts_blank_lines_it_skips(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"a": 1}\n\n  \n{"b": 2}\n[3]\n')
    records = fileio.json_lines(path)
    assert next(records) == (1, {"a": 1})
    assert next(records) == (4, {"b": 2})
    with pytest.raises(DataError, match=":5: record must be a JSON object"):
        next(records)
