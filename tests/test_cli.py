"""Command-line entry points: subcommands, exit codes, artifacts."""

import argparse
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import distilrobust
from distilrobust.audio import Waveform, read_wav, write_wav
from distilrobust.cli import (EXIT_IO, EXIT_OK, EXIT_VALIDATION, build_parser, main,
                              render_metrics_svg)
import distilrobust.trainer as trainer_module
from distilrobust.trainer import TrainConfig, _write_container, load_checkpoint, load_metrics

from conftest import REMOVED_CONFIG_FIELDS, crash_after, write_manifest


def run_cli(*argv):
    return main([str(a) for a in argv])


def write_wav_at(path, samples, rate):
    """A mono PCM16 WAV of `samples` whose fmt chunk declares `rate` Hz (and keeps the
    16 kHz byte rate, which nothing reads)."""
    write_wav(Waveform(samples), path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 24, rate)
    path.write_bytes(bytes(blob))


def one_error_line(capsys) -> str:
    """The command's stderr, which must be exactly one `error:` line and no traceback."""
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


class TestAugmentCommand:
    def test_writes_wavs_and_plans(self, disk_assets, tmp_path, capsys):
        out = tmp_path / "aug"
        code = run_cli("augment", "--manifest", disk_assets["speech"],
                       "--noise-bank", disk_assets["noise"],
                       "--rir-bank", disk_assets["rir"],
                       "--iterations", 1000, "--iter", 400,
                       "--seed", 3, "--out-dir", out)
        assert code == EXIT_OK
        plans = [json.loads(line) for line in (out / "plans.jsonl").read_text().splitlines()]
        assert len(plans) == 4
        for row, expected in zip(plans, disk_assets["speech_rows"]):
            assert row["id"] == expected["id"]
            wav = read_wav(out / f"{row['id']}.wav")
            assert len(wav) > 0

    def test_deterministic_outputs(self, disk_assets, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("augment", "--manifest", disk_assets["speech"],
                           "--noise-bank", disk_assets["noise"],
                           "--rir-bank", disk_assets["rir"],
                           "--iterations", 500, "--iter", 100,
                           "--seed", 9, "--out-dir", out) == EXIT_OK
            outs.append(out)
        a, b = outs
        assert (a / "plans.jsonl").read_bytes() == (b / "plans.jsonl").read_bytes()
        for row in disk_assets["speech_rows"]:
            assert (a / f"{row['id']}.wav").read_bytes() == \
                (b / f"{row['id']}.wav").read_bytes()

    def test_early_iteration_pins_snr(self, disk_assets, tmp_path):
        out = tmp_path / "early"
        assert run_cli("augment", "--manifest", disk_assets["speech"],
                       "--noise-bank", disk_assets["noise"],
                       "--rir-bank", disk_assets["rir"],
                       "--iterations", 1000, "--iter", 0,
                       "--seed", 1, "--out-dir", out) == EXIT_OK
        for line in (out / "plans.jsonl").read_text().splitlines():
            row = json.loads(line)
            if row["snr_db"] is not None:
                assert row["snr_db"] == 20
            assert not row["reverb_applied"]

    def test_missing_audio_file_exits_2(self, disk_assets, tmp_path, capsys):
        rows = list(disk_assets["speech_rows"]) + [
            {"id": "ghost", "path": "ghost.wav", "kind": "speech"}]
        manifest = write_manifest(tmp_path / "broken.jsonl", rows)
        code = run_cli("augment", "--manifest", manifest,
                       "--noise-bank", disk_assets["noise"],
                       "--rir-bank", disk_assets["rir"],
                       "--iterations", 10, "--iter", 0,
                       "--seed", 0, "--out-dir", tmp_path / "x")
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert "ghost" in err

    def test_nonfinite_audio_exits_2(self, disk_assets, tmp_path, capsys):
        body = struct.pack("<4f", 0.1, float("nan"), -0.1, 0.0)
        fmt = struct.pack("<IHHIIHH", 16, 3, 1, 16000, 64000, 4, 32)
        chunks = b"fmt " + fmt + b"data" + struct.pack("<I", len(body)) + body
        (tmp_path / "nan.wav").write_bytes(
            b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)
        manifest = write_manifest(tmp_path / "nan.jsonl",
                                  [{"id": "nan", "path": "nan.wav", "kind": "speech"}])
        code = run_cli("augment", "--manifest", manifest,
                       "--noise-bank", disk_assets["noise"],
                       "--rir-bank", disk_assets["rir"],
                       "--iterations", 10, "--iter", 0,
                       "--seed", 0, "--out-dir", tmp_path / "x")
        assert code == EXIT_IO
        assert any(line.startswith("error: nan:") and "finite" in line
                   for line in capsys.readouterr().err.splitlines())

    def test_truncated_fmt_chunk_exits_2(self, disk_assets, tmp_path, capsys):
        blob = (tmp_path / f"{disk_assets['speech_rows'][0]['id']}.wav").read_bytes()
        (tmp_path / "cut.wav").write_bytes(blob[:26])  # 6 bytes into the fmt body
        manifest = write_manifest(tmp_path / "cut.jsonl",
                                  [{"id": "cut", "path": "cut.wav", "kind": "speech"}])
        code = run_cli("augment", "--manifest", manifest,
                       "--noise-bank", disk_assets["noise"],
                       "--rir-bank", disk_assets["rir"],
                       "--iterations", 10, "--iter", 0,
                       "--seed", 0, "--out-dir", tmp_path / "x")
        assert code == EXIT_IO
        assert "fmt chunk too short" in one_error_line(capsys)

    def test_sample_rate_beyond_wav_byte_rate_exits_1(self, disk_assets, tmp_path, capsys):
        # a PCM16 file may declare any u32 rate; all but 16 kHz is an unsupported WAV,
        # exit 2, refused on reading, before any plan is drawn
        write_wav_at(tmp_path / "fast.wav", np.array([1000, -1000, 500, 0]) / 32768,
                     3_000_000_000)
        manifest = write_manifest(tmp_path / "fast.jsonl",
                                  [{"id": "fast", "path": "fast.wav", "kind": "speech"}])
        out = tmp_path / "x"
        code = run_cli("augment", "--manifest", manifest,
                       "--noise-bank", disk_assets["noise"],
                       "--rir-bank", disk_assets["rir"],
                       "--iterations", 10, "--iter", 0,
                       "--seed", 0, "--out-dir", out)
        assert code == EXIT_IO
        assert one_error_line(capsys) == (f"error: fast: {tmp_path / 'fast.wav'}: "
                                          f"3000000000 Hz not supported (16000 only)")
        assert not out.exists()

    def test_unwritable_rate_refused_before_any_write(self, disk_assets, tmp_path, capsys):
        # a 16 kHz utterance, then one declaring 3,000,000,000 Hz: the second is
        # refused by id, and the first is not written either
        write_wav_at(tmp_path / "fast.wav", np.array([1000, -1000, 500, 0]) / 32768,
                     3_000_000_000)
        first = disk_assets["speech_rows"][0]
        manifest = write_manifest(tmp_path / "two.jsonl", [
            {"id": first["id"], "path": first["path"], "kind": "speech"},
            {"id": "fast", "path": "fast.wav", "kind": "speech"}])
        out = tmp_path / "x"
        code = run_cli("augment", "--manifest", manifest,
                       "--noise-bank", disk_assets["noise"],
                       "--rir-bank", disk_assets["rir"],
                       "--iterations", 10, "--iter", 0,
                       "--seed", 0, "--out-dir", out)
        assert code == EXIT_IO
        assert one_error_line(capsys) == (f"error: fast: {tmp_path / 'fast.wav'}: "
                                          f"3000000000 Hz not supported (16000 only)")
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("5", ":1: record must be a JSON object"),
        ('{"id": "a", "path": 3, "kind": "speech"}', ":1: path must be a string"),
    ] + [  # a non-string id must not turn into a name such as None.wav
        (json.dumps({"id": bad_id, "path": "utt00.wav", "kind": "speech"}),
         f":1: id must be a string, got {bad_id!r}")
        for bad_id in [None, True, 7]
    ] + [  # augment writes <out-dir>/<id>.wav, so an id must be a plain file name
        (json.dumps({"id": bad_id, "path": "utt00.wav", "kind": "speech"}),
         f":1: id {bad_id!r} is not a plain file name")
        for bad_id in ["../escaped", "sub\\name", "..", ".", ""]
    ])
    def test_bad_manifest_line_exits_1(self, disk_assets, tmp_path, capsys, line, message):
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n")
        code = run_cli("augment", "--manifest", path,
                       "--noise-bank", disk_assets["noise"],
                       "--rir-bank", disk_assets["rir"],
                       "--iterations", 10, "--iter", 0,
                       "--seed", 0, "--out-dir", tmp_path / "x")
        assert code == EXIT_VALIDATION
        assert f"{path}{message}" in one_error_line(capsys)
        assert not (tmp_path / "x").exists()

    def test_bad_manifest_exits_1(self, disk_assets, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        code = run_cli("augment", "--manifest", path,
                       "--noise-bank", disk_assets["noise"],
                       "--rir-bank", disk_assets["rir"],
                       "--iterations", 10, "--iter", 0,
                       "--seed", 0, "--out-dir", tmp_path / "x")
        assert code == EXIT_VALIDATION

    def test_white_noise_below_twice_cutoff_exits_1(self, tmp_path, capsys):
        # 4 kHz audio cannot carry the 2 kHz noise band; it is an unsupported WAV, exit 2,
        # and each speech file is named
        rng = np.random.default_rng(4)
        rows = {"speech": [], "noise": [], "rir": []}
        for i in range(12):
            write_wav_at(tmp_path / f"s{i}.wav", 0.3 * rng.standard_normal(4000), 4000)
            rows["speech"].append({"id": f"s{i}", "path": f"s{i}.wav", "kind": "speech"})
        for i in range(2):
            write_wav_at(tmp_path / f"n{i}.wav", 0.3 * rng.standard_normal(4000), 4000)
            rows["noise"].append({"id": f"n{i}", "path": f"n{i}.wav", "kind": "noise"})
            write_wav_at(tmp_path / f"r{i}.wav", np.r_[1.0, 0.2 * rng.standard_normal(50)], 4000)
            rows["rir"].append({"id": f"r{i}", "path": f"r{i}.wav", "kind": "rir"})
        manifests = {k: write_manifest(tmp_path / f"{k}.jsonl", v) for k, v in rows.items()}
        code = run_cli("augment", "--manifest", manifests["speech"],
                       "--noise-bank", manifests["noise"], "--rir-bank", manifests["rir"],
                       "--iterations", 10, "--iter", 10,
                       "--seed", 3, "--out-dir", tmp_path / "x")
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == [f"error: s{i}: {tmp_path / f's{i}.wav'}: 4000 Hz not "
                                    f"supported (16000 only)" for i in range(12)]
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("seed", range(8))
    def test_sample_rate_mismatch_refused_before_contamination(self, disk_assets, tmp_path,
                                                               capsys, seed):
        # whether a plan draws the 8 kHz noise depends on the seed; the refusal must not
        rows = disk_assets["noise_rows"]
        slow = tmp_path / "slow.wav"
        write_wav_at(slow, read_wav(tmp_path / rows[1]["path"]).samples, 8000)
        noise = write_manifest(tmp_path / "mixed.jsonl", [rows[0], dict(rows[1], path=slow.name)])
        speech = write_manifest(tmp_path / "three.jsonl", disk_assets["speech_rows"][:3])
        rir = write_manifest(tmp_path / "one_rir.jsonl", disk_assets["rir_rows"][:1])
        out = tmp_path / "x"
        code = run_cli("augment", "--manifest", speech, "--noise-bank", noise, "--rir-bank", rir,
                       "--iterations", 100, "--iter", 100, "--seed", seed, "--out-dir", out)
        assert code == EXIT_IO
        assert one_error_line(capsys) == f"error: {slow}: 8000 Hz not supported (16000 only)"
        assert not out.exists()

@pytest.fixture()
def train_setup(tmp_path, reference_data):
    """Write a miniature on-disk corpus and a matching training config."""
    from distilrobust.audio import write_wav
    corpus, noises, rirs = reference_data
    rows = {"speech": [], "noise": [], "rir": []}
    for name, wave in corpus[:4]:
        p = tmp_path / f"{name}.wav"
        write_wav(wave, p)
        rows["speech"].append({"id": name, "path": p.name, "kind": "speech"})
    for i, wave in enumerate(noises):
        p = tmp_path / f"n{i}.wav"
        write_wav(wave, p)
        rows["noise"].append({"id": f"n{i}", "path": p.name, "kind": "noise"})
    for i, rir in enumerate(rirs):
        from distilrobust.audio import Waveform
        p = tmp_path / f"r{i}.wav"
        write_wav(Waveform(np.clip(rir.taps, -1, 1)), p)
        rows["rir"].append({"id": f"r{i}", "path": p.name, "kind": "rir"})
    manifests = {kind: write_manifest(tmp_path / f"{kind}.jsonl", entries)
                 for kind, entries in rows.items()}
    out_dir = tmp_path / "run"
    cfg = TrainConfig(
        experiment="A", total_iterations=4, batch_size=2, dim=8, crop_samples=1600, checkpoint_every=2,
        lr_peak=1e-3, warmup_iterations=1, out_dir=str(out_dir), master_seed=5,
        data_manifest=manifests["speech"], noise_manifest=manifests["noise"],
        rir_manifest=manifests["rir"])
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(cfg.to_json())
    return {"cfg": cfg, "cfg_path": cfg_path, "out_dir": out_dir, "tmp": tmp_path}


def checkpoint_with_header(train_setup, capsys, edit):
    """Train, then rewrite the header of the iteration-2 checkpoint through `edit`."""
    assert run_cli("train", "--config", train_setup["cfg_path"]) == EXIT_OK
    capsys.readouterr()
    ckpt = train_setup["out_dir"] / "ckpt_000002.drtc"
    data = ckpt.read_bytes()
    (header_len,) = struct.unpack_from("<I", data, 5)
    header = json.loads(data[9 : 9 + header_len])
    edit(header)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    ckpt.write_bytes(data[:5] + struct.pack("<I", len(header_bytes)) + header_bytes
                     + data[9 + header_len :])
    return ckpt


class TestTrainCommand:
    def test_runs_and_writes_artifacts(self, train_setup, capsys):
        code = run_cli("train", "--config", train_setup["cfg_path"])
        assert code == EXIT_OK
        out_dir = train_setup["out_dir"]
        assert (out_dir / "metrics.jsonl").exists()
        assert (out_dir / "ckpt_final.drtc").exists()
        records = load_metrics(str(out_dir / "metrics.jsonl"))
        assert len(records) == 4

    def test_resume_flag(self, train_setup):
        assert run_cli("train", "--config", train_setup["cfg_path"]) == EXIT_OK
        full_ckpt = (train_setup["out_dir"] / "ckpt_final.drtc").read_bytes()
        full_metrics = (train_setup["out_dir"] / "metrics.jsonl").read_bytes()

        # a fresh run killed in its last iteration, resumed from the checkpoint before
        shutil.rmtree(train_setup["out_dir"])
        with crash_after(3):
            trainer_module.train(TrainConfig.from_json(train_setup["cfg_path"].read_text()))
        assert not (train_setup["out_dir"] / "ckpt_final.drtc").exists()
        code = run_cli("train", "--config", train_setup["cfg_path"],
                       "--resume", train_setup["out_dir"] / "ckpt_000002.drtc")
        assert code == EXIT_OK
        assert (train_setup["out_dir"] / "ckpt_final.drtc").read_bytes() == full_ckpt
        assert (train_setup["out_dir"] / "metrics.jsonl").read_bytes() == full_metrics

    def test_truncated_checkpoint_resume_exits_1(self, train_setup, capsys):
        assert run_cli("train", "--config", train_setup["cfg_path"]) == EXIT_OK
        capsys.readouterr()
        ckpt = train_setup["out_dir"] / "ckpt_000002.drtc"
        data = ckpt.read_bytes()
        ckpt.write_bytes(data[: len(data) // 2])
        code = run_cli("train", "--config", train_setup["cfg_path"], "--resume", ckpt)
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "unreadable checkpoint container" in lines[0]
        assert "Traceback" not in err

    def test_config_may_leave_out_method_keys(self, train_setup, tmp_path):
        # C1 with its method keys stated, then without them: the same bytes
        stated = dict(json.loads(train_setup["cfg_path"].read_text()), experiment="C1",
                      curriculum=True, enhancement_loss="l1_wav", lambda_weight=10.0)
        left_out = {k: v for k, v in stated.items()
                    if k not in ("curriculum", "enhancement_loss", "lambda_weight")}
        outputs = []
        for record in (stated, left_out):
            path = tmp_path / "c1.json"
            path.write_text(json.dumps(record))
            assert run_cli("train", "--config", path) == EXIT_OK
            outputs.append([(train_setup["out_dir"] / name).read_bytes()
                            for name in ("metrics.jsonl", "ckpt_000002.drtc", "ckpt_final.drtc")])
        assert outputs[0] == outputs[1]

    def test_invalid_config_exits_1(self, train_setup, tmp_path, capsys):
        record = json.loads(train_setup["cfg_path"].read_text())
        record["lambda_weight"] = 3.0  # experiment A requires 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(record))
        assert run_cli("train", "--config", bad) == EXIT_VALIDATION
        assert "lambda_weight" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("cell_type", "lstm", "unknown config fields: ['cell_type']"),
        ("hidden_multiplier", 2, "unknown config fields: ['hidden_multiplier']"),
        ("batch_size", "8", "config field 'batch_size' must be int, got '8'"),
        ("curriculum", "no", "config field 'curriculum' must be bool, got 'no'"),
    ])
    def test_bad_config_field_exits_1(self, train_setup, tmp_path, capsys, key, value, message):
        record = json.loads(train_setup["cfg_path"].read_text())
        record[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(record))
        assert run_cli("train", "--config", bad) == EXIT_VALIDATION
        assert one_error_line(capsys) == f"error: {message}"

    @pytest.mark.parametrize("key, value", REMOVED_CONFIG_FIELDS)
    def test_checkpoint_with_removed_field_exits_1(self, train_setup, capsys, key, value):
        ckpt = checkpoint_with_header(train_setup, capsys,
                                      lambda header: header["config"].update({key: value}))
        code = run_cli("train", "--config", train_setup["cfg_path"], "--resume", ckpt)
        assert code == EXIT_VALIDATION
        assert one_error_line(capsys) == f"error: unknown config fields: ['{key}']"

    @pytest.mark.parametrize("value", ["abc", 5, None])
    def test_checkpoint_with_non_object_config_exits_1(self, train_setup, capsys, value):
        ckpt = checkpoint_with_header(train_setup, capsys,
                                      lambda header: header.update(config=value))
        code = run_cli("train", "--config", train_setup["cfg_path"], "--resume", ckpt)
        assert code == EXIT_VALIDATION
        assert one_error_line(capsys) == f"error: config must be a JSON object, got {value!r}"

    @pytest.mark.parametrize("value", [None, "2", True, -3],
                             ids=["missing-iteration", "string-iteration", "bool-iteration",
                                  "negative-iteration"])
    def test_checkpoint_with_bad_counter_exits_1(self, train_setup, capsys, value):
        # the iteration also restores the Adam step; a negative one would rewind the
        # log past its start
        def edit(header):
            if value is None:
                del header["iteration"]
            else:
                header["iteration"] = value
        ckpt = checkpoint_with_header(train_setup, capsys, edit)
        metrics = train_setup["out_dir"] / "metrics.jsonl"
        before = metrics.read_bytes()
        code = run_cli("train", "--config", train_setup["cfg_path"], "--resume", ckpt)
        assert code == EXIT_VALIDATION
        line = one_error_line(capsys)
        assert "unreadable checkpoint container" in line
        assert f"header 'iteration' must be a non-negative integer, got {value!r}" in line
        assert metrics.read_bytes() == before

    def test_checkpoint_past_total_iterations_exits_1(self, train_setup, capsys):
        ckpt = checkpoint_with_header(train_setup, capsys,
                                      lambda header: header.update(iteration=99))
        metrics = train_setup["out_dir"] / "metrics.jsonl"
        before = metrics.read_bytes()
        code = run_cli("train", "--config", train_setup["cfg_path"], "--resume", ckpt)
        assert code == EXIT_VALIDATION
        assert one_error_line(capsys) == (f"error: {ckpt}: header 'iteration' 99 exceeds "
                                          f"the config's total_iterations 4")
        assert metrics.read_bytes() == before

    @pytest.mark.parametrize("iteration, adam_step", [(-3, 2), (-3, -3)],
                             ids=["negative_iteration", "both_negative"])
    def test_checkpoint_with_inconsistent_counters_exits_1(self, train_setup, capsys,
                                                           iteration, adam_step):
        # earlier versions also wrote adam_step; it is ignored now, so a negative
        # iteration is refused whatever adam_step says, before the log is touched
        ckpt = checkpoint_with_header(train_setup, capsys, lambda header: header.update(
            iteration=iteration, adam_step=adam_step))
        metrics = train_setup["out_dir"] / "metrics.jsonl"
        before = metrics.read_bytes()
        code = run_cli("train", "--config", train_setup["cfg_path"], "--resume", ckpt)
        assert code == EXIT_VALIDATION
        line = one_error_line(capsys)
        assert "unreadable checkpoint container: header 'iteration' must be a non-negative " \
            f"integer, got {iteration}" in line
        assert metrics.read_bytes() == before

    @pytest.mark.parametrize("edit, message", [
        (lambda header: header.update(teacher_checksum="0" * 64),
         f"teacher checksum {'0' * 64!r} differs from the config's teacher"),
        (lambda header: header.pop("teacher_checksum"),
         "header 'teacher_checksum' must be a string, got None"),
    ], ids=["zeroed", "missing"])
    def test_checkpoint_with_bad_teacher_checksum_exits_1(self, train_setup, capsys, edit,
                                                          message):
        ckpt = checkpoint_with_header(train_setup, capsys, edit)
        out_dir = train_setup["out_dir"]
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        code = run_cli("train", "--config", train_setup["cfg_path"], "--resume", ckpt)
        assert code == EXIT_VALIDATION
        assert message in one_error_line(capsys)
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before

    def test_checkpoint_with_per_direction_lstm_exits_1(self, train_setup, capsys):
        # a C1 checkpoint whose LSTM weights are stored one direction per block
        record = json.loads(train_setup["cfg_path"].read_text())
        record.update(experiment="C1", curriculum=True, enhancement_loss="l1_wav",
                      lambda_weight=10.0)
        train_setup["cfg_path"].write_text(json.dumps(record))
        assert run_cli("train", "--config", train_setup["cfg_path"]) == EXIT_OK
        capsys.readouterr()
        ckpt = str(train_setup["out_dir"] / "ckpt_000002.drtc")
        state = load_checkpoint(ckpt)
        header = {"has_moments": True, "iteration": state.iteration,
                  "teacher_checksum": state.teacher_checksum, "config": state.config.to_dict()}
        blocks = []
        for name, p in sorted(state.student.params.items()):
            tensors = [p.values, state.moments.m[name], state.moments.v[name]]
            if not name.startswith("enhancement.rnn."):
                blocks.append((name, tensors))
                continue
            for d, direction in enumerate(("fwd", "bwd")):
                blocks.append((name.replace(".rnn.", f".rnn.{direction}."),
                               [t[d] for t in tensors]))
        assert len(blocks) == len(state.student.params) + 3
        _write_container(ckpt, header, blocks)
        code = run_cli("train", "--config", train_setup["cfg_path"], "--resume", ckpt)
        assert code == EXIT_VALIDATION
        assert "stored parameters do not match the config's student" in one_error_line(capsys)

    def test_missing_config_exits_2(self, tmp_path):
        assert run_cli("train", "--config", tmp_path / "gone.json") == EXIT_IO

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_nonfinite_lr_peak_exits_1(self, train_setup, tmp_path, capsys, value):
        text = train_setup["cfg_path"].read_text()
        record = json.loads(text)
        bad = tmp_path / "bad.json"
        bad.write_text(text.replace(f'"lr_peak": {record["lr_peak"]!r}', f'"lr_peak": {value}'))
        assert json.loads(bad.read_text())["lr_peak"] != record["lr_peak"]
        assert run_cli("train", "--config", bad) == EXIT_VALIDATION
        assert "lr_peak must be positive and finite" in one_error_line(capsys)
        assert not (train_setup["out_dir"] / "metrics.jsonl").exists()

    @pytest.mark.parametrize("wav", [pytest.param("r0.wav", id="r0.wav-RIR bank entry 0"),
                                     pytest.param("n1.wav", id="n1.wav-noise bank entry 1")])
    def test_sample_rate_mismatch_exits_1_before_training(self, train_setup, capsys, wav):
        # an 8 kHz bank WAV is an unsupported WAV: exit 2, before any training
        path = train_setup["tmp"] / wav
        write_wav_at(path, read_wav(path).samples, 8000)
        assert run_cli("train", "--config", train_setup["cfg_path"]) == EXIT_IO
        assert one_error_line(capsys) == f"error: {path}: 8000 Hz not supported (16000 only)"
        assert not (train_setup["out_dir"] / "metrics.jsonl").exists()

    @pytest.mark.parametrize("damage", ["truncated", "8000 Hz"])
    def test_undecodable_corpus_wav_exits_1(self, train_setup, capsys, damage):
        path = train_setup["tmp"] / "utt01.wav"
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[:-100])
        else:
            write_wav_at(path, read_wav(path).samples, 8000)
        assert run_cli("train", "--config", train_setup["cfg_path"]) == EXIT_VALIDATION
        line = one_error_line(capsys)
        assert line.startswith(f"error: utterance utt01: {path}: ")
        assert not (train_setup["out_dir"] / "metrics.jsonl").exists()

    @pytest.mark.parametrize("field", ["out_dir", "data_manifest", "noise_manifest",
                                       "rir_manifest"])
    def test_nul_in_config_path_exits_1(self, train_setup, tmp_path, capsys, field):
        record = json.loads(train_setup["cfg_path"].read_text())
        record[field] += "\u0000"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(record))
        assert run_cli("train", "--config", bad) == EXIT_VALIDATION
        assert f"{field} must not contain a NUL character" in one_error_line(capsys)
        assert not (train_setup["out_dir"] / "metrics.jsonl").exists()


class TestGradcheckCommand:
    def test_single_op(self, capsys):
        assert run_cli("gradcheck", "--op", "linear") == EXIT_OK
        out = capsys.readouterr().out
        assert "linear" in out and "PASS" in out

    def test_unknown_op_exits_1(self, capsys):
        assert run_cli("gradcheck", "--op", "warp_drive") == EXIT_VALIDATION

    def test_perturb_negative_control(self, capsys):
        assert run_cli("gradcheck", "--op", "linear", "--perturb", "linear") == \
            EXIT_VALIDATION
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("perturb", ["nosuchcheck", "mul"])
    def test_perturb_of_unselected_check_exits_1(self, capsys, perturb):
        # a negative control that perturbs nothing must not pass
        assert run_cli("gradcheck", "--op", "add", "--perturb", perturb) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: cannot perturb {perturb!r}: "
                                f"it is not a selected gradcheck\n")

    def test_runs_as_python_module(self):
        # from a source checkout, no install: the process exits with the command's code
        src = os.path.dirname(os.path.dirname(distilrobust.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        for op, code in (("add", EXIT_OK), ("warp_drive", EXIT_VALIDATION)):
            done = subprocess.run([sys.executable, "-m", "distilrobust", "gradcheck", "--op", op],
                                  env=env, capture_output=True, text=True)
            assert done.returncode == code, done.stderr
        assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr


class TestPlotCommand:
    def test_renders_svg(self, train_setup, tmp_path, capsys):
        assert run_cli("train", "--config", train_setup["cfg_path"]) == EXIT_OK
        svg_path = tmp_path / "chart.svg"
        code = run_cli("plot", "--metrics", train_setup["out_dir"] / "metrics.jsonl",
                       "--out", svg_path)
        assert code == EXIT_OK
        root = ET.parse(svg_path).getroot()
        assert root.tag.endswith("svg")
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 4

    def test_empty_metrics_exits_1(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert run_cli("plot", "--metrics", empty, "--out", tmp_path / "x.svg") == \
            EXIT_VALIDATION

    @pytest.mark.parametrize("last_line, message", [
        ('{"iter": 1, "lr": 0.1, "comb', ":2: invalid JSON"),
        ("[1, 2]", ":2: record must be a JSON object"),
        ('{"iter": 0}', ":2: record lacks a number for ['lr', 'combined', 'tau', "
                        "'reverb_threshold']"),
        ('{"iter": 1, "lr": 0.1, "combined": "x", "tau": 20, "reverb_threshold": 0.5}',
         ":2: record lacks a number for ['combined']"),
    ])
    def test_bad_metrics_line_exits_1(self, tmp_path, capsys, last_line, message):
        good = {"iter": 0, "lr": 0.1, "combined": 3.0, "tau": 20.0, "reverb_threshold": 0.5}
        metrics = tmp_path / "metrics.jsonl"
        metrics.write_text(json.dumps(good) + "\n" + last_line)
        code = run_cli("plot", "--metrics", metrics, "--out", tmp_path / "x.svg")
        assert code == EXIT_VALIDATION
        assert one_error_line(capsys).startswith(f"error: {metrics}{message}")
        assert not (tmp_path / "x.svg").exists()

    def test_missing_metrics_exits_2(self, tmp_path):
        assert run_cli("plot", "--metrics", tmp_path / "gone.jsonl",
                       "--out", tmp_path / "x.svg") == EXIT_IO

    def test_svg_series_cover_metrics(self):
        records = [{"iter": i, "lr": i * 1e-4, "combined": 100.0 - i,
                    "tau": 20.0 - i, "reverb_threshold": i / 10.0}
                   for i in range(10)]
        svg = render_metrics_svg(records)
        for title in ("combined loss", "learning rate", "snr lower bound tau",
                      "reverb threshold"):
            assert title in svg


def test_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(distilrobust.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, distilrobust.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_readme_python_example_builds_its_config(monkeypatch):
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = fh.read().split("```python\n", 1)[1].split("```", 1)[0]
    trained = []
    monkeypatch.setattr(trainer_module, "train", lambda cfg, **_: trained.append(cfg))
    exec(block, {})
    (cfg,) = trained
    cfg.validate()
    assert cfg.method.enhancement_loss == "l1_wav"


def test_subcommands_match_readme(capsys):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {"augment", "train", "gradcheck", "plot"}
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = fh.read().split("## Command line\n\n```bash\n", 1)[1].split("```", 1)[0]
    assert set(re.findall(r"^distilrobust (\S+)", block, re.M)) == set(sub.choices)
    with pytest.raises(SystemExit) as exc:
        run_cli("losses")
    assert exc.value.code == 2 and "invalid choice" in capsys.readouterr().err
