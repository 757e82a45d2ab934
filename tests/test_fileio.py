"""Every artifact writer replaces its file whole: a failed write leaves the old file."""

import numpy as np
import pytest

import distilrobust.fileio as fileio
from distilrobust.audio import Waveform, write_wav
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


def _write_wav(path, value):
    write_wav(Waveform(np.full(800, value), 16000), path)


def _write_checkpoint(path, value):
    header = {"format": "drtc", "has_moments": False, "config": TrainConfig().to_dict()}
    _write_container(path, header, [("w", [np.full(5, value)])])


@pytest.mark.parametrize("writer", [_write_wav, _write_checkpoint])
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, writer):
    path = tmp_path / "artifact.bin"
    writer(path, 0.25)
    previous = path.read_bytes()

    real_open = open
    monkeypatch.setattr(fileio, "open", lambda p, mode: _FailsMidway(real_open(p, mode)),
                        raising=False)
    with pytest.raises(OSError, match="device full"):
        writer(path, -0.5)
    assert path.read_bytes() == previous
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.bin"]

    monkeypatch.undo()
    writer(path, -0.5)
    assert path.read_bytes() != previous
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.bin"]


def test_new_path_is_absent_after_failed_write(tmp_path, monkeypatch):
    real_open = open
    monkeypatch.setattr(fileio, "open", lambda p, mode: _FailsMidway(real_open(p, mode)),
                        raising=False)
    with pytest.raises(OSError):
        _write_checkpoint(tmp_path / "new.drtc", 1.0)
    assert list(tmp_path.iterdir()) == []
