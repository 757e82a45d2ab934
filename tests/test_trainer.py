"""Schedules, optimizer, experiment methods, training loop determinism, checkpoints."""

import json
import os
import re
import shutil
import struct
from dataclasses import asdict, fields

import numpy as np
import pytest

import distilrobust.tensor as T
import distilrobust.trainer as trainer_module
from distilrobust.errors import ConfigError, DataError, NumericError, ShapeError
from distilrobust.gradchecks import CHECKS
from distilrobust.losses import combined_loss, kd_loss_parts, l1_freq, l1_wav
from distilrobust.trainer import (
    METHODS,
    PAPER_SCALE_RECIPE,
    AdamMoments,
    TrainConfig,
    TrainState,
    adamw_step,
    batch_loss,
    build_student,
    build_teacher,
    export_student,
    load_checkpoint,
    load_exported,
    load_metrics,
    lr_at,
    save_checkpoint,
    smoothed_loss,
    train,
    _batch_indices,
)
from distilrobust.model import (
    DISTILL_LAYERS,
    STUDENT_LAYERS,
    TEACHER_LAYERS,
    student_forward,
    teacher_forward,
)
from distilrobust.audio import Waveform
from distilrobust.augment import stable_hash

from conftest import REMOVED_CONFIG_FIELDS, crash_after, tiny_corpus


def tiny_config(tmp_dir, experiment="A", **overrides):
    base = dict(total_iterations=6, batch_size=2, dim=8, crop_samples=1600, checkpoint_every=3,
                lr_peak=1e-3, warmup_iterations=2, out_dir=str(tmp_dir), master_seed=5)
    base.update(overrides)
    return validated(experiment, **base)


def validated(experiment, **fields_):
    cfg = TrainConfig(experiment=experiment, **fields_)
    cfg.validate()
    return cfg


@pytest.fixture()
def banks(reference_data):
    _, noise, rirs = reference_data
    return noise, rirs


class TestLrSchedule:
    def test_peak_at_warmup_end(self):
        cfg = TrainConfig(total_iterations=2000, warmup_iterations=140, lr_peak=2e-4)
        assert lr_at(140, cfg) == 2e-4

    def test_zero_at_start_and_end(self):
        cfg = TrainConfig(total_iterations=2000, warmup_iterations=140, lr_peak=2e-4)
        assert lr_at(0, cfg) == 0.0
        assert lr_at(2000, cfg) == 0.0

    def test_halfway_up_the_ramp(self):
        cfg = TrainConfig(total_iterations=2000, warmup_iterations=140, lr_peak=2e-4)
        assert lr_at(70, cfg) == pytest.approx(1e-4, rel=1e-12)

    def test_decay_is_linear(self):
        cfg = TrainConfig(total_iterations=1000, warmup_iterations=100, lr_peak=1e-3)
        xs = np.arange(100, 1001)
        ys = np.array([lr_at(int(i), cfg) for i in xs])
        diffs = np.diff(ys)
        np.testing.assert_allclose(diffs, diffs[0], atol=1e-18)

    def test_peak_is_global_max(self):
        cfg = TrainConfig(total_iterations=200, warmup_iterations=40, lr_peak=5e-3)
        values = [lr_at(i, cfg) for i in range(201)]
        assert max(values) == 5e-3
        assert values.index(max(values)) == 40

    def test_zero_warmup_starts_at_peak(self):
        cfg = TrainConfig(total_iterations=100, warmup_iterations=0, lr_peak=1e-3)
        assert lr_at(0, cfg) == 1e-3

    def test_default_warmup_fraction(self):
        cfg = TrainConfig(total_iterations=2000)
        assert cfg.warmup_iterations == 140
        assert TrainConfig(total_iterations=200).warmup_iterations == 14


def adamw_oracle(theta, grads_seq, lr_seq, beta1=0.9, beta2=0.98, eps=1e-6, wd=0.01):
    """Straightforward reimplementation used to cross-check the optimizer."""
    theta = theta.copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, (g, lr) in enumerate(zip(grads_seq, lr_seq), start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps) - lr * wd * theta
    return theta


class TestAdamW:
    def test_zero_grad_is_pure_decay(self):
        p = T.parameter(np.array([2.0, -4.0]))
        params = {"w": p}
        moments = AdamMoments.zeros_like(params)
        adamw_step(params, {}, moments, lr=0.1, step=1)
        np.testing.assert_allclose(p.values, np.array([2.0, -4.0]) * (1 - 0.1 * 0.01),
                                   atol=1e-16)

    def test_matches_oracle_sequence(self):
        rng = np.random.default_rng(0)
        theta0 = rng.standard_normal(12)
        grads_seq = [rng.standard_normal(12) for _ in range(50)]
        lr_seq = [1e-3] * 50
        p = T.parameter(theta0.copy())
        params = {"w": p}
        moments = AdamMoments.zeros_like(params)
        for step, (g, lr) in enumerate(zip(grads_seq, lr_seq), start=1):
            adamw_step(params, {"w": g}, moments, lr, step)
        want = adamw_oracle(theta0, grads_seq, lr_seq)
        assert np.max(np.abs(p.values - want)) <= 1e-12

    def test_quadratic_converges(self):
        # minimize ||theta||^2: gradient 2*theta
        p = T.parameter(np.array([1.0, -1.0, 0.5]))
        params = {"w": p}
        moments = AdamMoments.zeros_like(params)
        for step in range(1, 201):
            adamw_step(params, {"w": 2.0 * p.values}, moments, lr=1e-2, step=step)
        assert float(np.linalg.norm(p.values)) < 1e-2

    def test_step_sets_the_bias_correction(self):
        # the moments hold no count: the caller's step alone sets the bias correction
        g = np.array([0.5, -2.0])
        for step in (1, 2, 7):
            p = T.parameter(np.ones(2))
            adamw_step({"w": p}, {"w": g}, AdamMoments.zeros_like({"w": p}), 1e-3, step)
            m_hat = 0.1 * g / (1 - 0.9**step)
            v_hat = 0.02 * g * g / (1 - 0.98**step)
            want = 1.0 - 1e-3 * m_hat / (np.sqrt(v_hat) + 1e-6) - 1e-3 * 0.01
            np.testing.assert_allclose(p.values, want, rtol=1e-12)

    def test_shape_mismatch_rejected(self):
        params = {"w": T.parameter(np.ones(2))}
        moments = AdamMoments.zeros_like(params)
        with pytest.raises(ShapeError):
            adamw_step(params, {"w": np.ones(3)}, moments, lr=1e-3, step=1)

    def test_nonfinite_gradient_rejected_before_any_write(self):
        rng = np.random.default_rng(3)
        params = {name: T.parameter(rng.standard_normal(4)) for name in ("a", "b", "c")}
        moments = AdamMoments.zeros_like(params)
        grads = {name: rng.standard_normal(4) for name in params}
        adamw_step(params, grads, moments, lr=1e-3, step=1)  # nonzero moments to protect
        before = ({n: p.values.tobytes() for n, p in params.items()},
                  {n: m.tobytes() for n, m in moments.m.items()},
                  {n: v.tobytes() for n, v in moments.v.items()})
        grads["b"] = grads["b"].copy()
        grads["b"][2] = np.nan
        with pytest.raises(NumericError, match="gradient for b is not finite"):
            adamw_step(params, grads, moments, lr=1e-3, step=2)
        after = ({n: p.values.tobytes() for n, p in params.items()},
                 {n: m.tobytes() for n, m in moments.m.items()},
                 {n: v.tobytes() for n, v in moments.v.items()})
        assert after == before


class TestPresets:
    def test_table(self):
        assert {e: (m.curriculum, m.enhancement_loss, m.lambda_weight)
                for e, m in METHODS.items()} == {"A": (False, "none", 0.0),
                                                  "B": (True, "none", 0.0),
                                                  "C1": (True, "l1_wav", 10.0),
                                                  "C2": (True, "l1_freq", 1.0)}
        for experiment, method in METHODS.items():
            assert TrainConfig(experiment=experiment).method is method

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="experiment must be one of"):
            validated("D")
        with pytest.raises(ConfigError, match="experiment must be one of"):
            TrainConfig.from_dict({"experiment": "D", "curriculum": True})

    def test_wrong_curriculum_rejected(self):
        with pytest.raises(ConfigError, match="curriculum"):
            TrainConfig.from_dict({"experiment": "A", "curriculum": True})

    def test_wrong_lambda_rejected(self):
        for experiment, weight in (("C1", 5.0), ("C2", 10.0), ("A", 1.0)):
            with pytest.raises(ConfigError, match="lambda"):
                TrainConfig.from_dict({"experiment": experiment, "lambda_weight": weight})

    def test_wrong_enhancement_loss_rejected(self):
        for experiment, loss in (("C1", "l1_freq"), ("B", "l1_wav")):
            with pytest.raises(ConfigError, match="enhancement_loss"):
                TrainConfig.from_dict({"experiment": experiment, "enhancement_loss": loss})

    @pytest.mark.parametrize("experiment", list(METHODS))
    def test_min_samples_bounds_crops_and_utterances(self, tmp_path, banks, experiment):
        minimum = METHODS[experiment].min_samples
        assert minimum == (400 if experiment == "C2" else 320)
        validated(experiment, crop_samples=minimum)
        with pytest.raises(ConfigError, match=f"crop_samples {minimum - 1} .* minimum {minimum}$"):
            validated(experiment, crop_samples=minimum - 1)
        noise, rirs = banks
        short = [("short", Waveform(np.ones(minimum - 1)))]
        with pytest.raises(DataError, match=f"utterance short: .* minimum {minimum}$"):
            train(tiny_config(tmp_path, experiment), corpus=short, noise_bank=noise,
                  rir_bank=rirs)

    def test_reference_recipe_embedded(self):
        record = validated("C1").to_dict()
        assert record["reference_recipe"] == PAPER_SCALE_RECIPE
        assert record["reference_recipe"]["total_iterations"] == 200_000
        assert record["reference_recipe"]["batch_size"] == 24
        assert record["reference_recipe"]["warmup_iterations"] == 14_000
        assert record["reference_recipe"]["lr_peak"] == 2e-4


@pytest.mark.parametrize("experiment", list(METHODS))
class TestMethodKeys:
    """A config may leave the method keys out; a stated one must be the experiment's."""

    def test_left_out_keys_load(self, experiment):
        cfg = TrainConfig.from_dict({"experiment": experiment})
        assert cfg.method is METHODS[experiment]
        assert {key: cfg.to_dict()[key] for key in asdict(cfg.method)} == asdict(cfg.method)

    def test_stated_keys_load(self, experiment):
        record = dict(asdict(METHODS[experiment]), experiment=experiment)
        assert TrainConfig.from_dict(record) == TrainConfig.from_dict({"experiment": experiment})

    def test_contradicting_key_refused(self, experiment):
        method = METHODS[experiment]
        for key, value in (("curriculum", not method.curriculum),
                           ("enhancement_loss", "l1_freq" if experiment != "C2" else "none"),
                           ("lambda_weight", method.lambda_weight + 1.0)):
            want = getattr(method, key)
            with pytest.raises(ConfigError, match=re.escape(
                    f"experiment {experiment} requires {key}={want!r}, got {key}={value!r}")):
                TrainConfig.from_dict({"experiment": experiment, key: value})

    @pytest.mark.parametrize("key, value", [("curriculum", 0), ("lambda_weight", "10"),
                                            ("enhancement_loss", None)])
    def test_wrong_type_refused(self, experiment, key, value):
        with pytest.raises(ConfigError, match=f"config field '{key}' must be"):
            TrainConfig.from_dict({"experiment": experiment, key: value})


class TestConfigSerialization:
    def test_json_round_trip(self):
        cfg = validated("C2", total_iterations=50, warmup_iterations=5,
                                 out_dir="x/y")
        back = TrainConfig.from_json(cfg.to_json())
        assert back == cfg

    def test_unknown_field_rejected(self):
        record = validated("A").to_dict()
        record["momentum"] = 0.9
        with pytest.raises(ConfigError, match="momentum"):
            TrainConfig.from_dict(record)

    @pytest.mark.parametrize("key, value", REMOVED_CONFIG_FIELDS)
    def test_removed_field_rejected(self, key, value):
        record = dict(validated("C1").to_dict(), **{key: value})
        with pytest.raises(ConfigError, match=rf"unknown config fields: \['{key}'\]"):
            TrainConfig.from_dict(record)

    @pytest.mark.parametrize("key, value", [
        ("batch_size", "8"), ("batch_size", True), ("batch_size", 8.0), ("batch_size", None),
        ("lr_peak", "1e-3"), ("lr_peak", True), ("curriculum", "no"), ("curriculum", 0),
        ("out_dir", 3), ("warmup_iterations", "none"),
    ])
    def test_wrong_json_type_rejected(self, key, value):
        record = dict(validated("A").to_dict(), **{key: value})
        with pytest.raises(ConfigError, match=f"config field '{key}' must be"):
            TrainConfig.from_dict(record)

    @pytest.mark.parametrize("key, value", [
        ("lr_peak", 1), ("lambda_weight", 0), ("warmup_iterations", None),
        ("data_manifest", None),
    ])
    def test_json_types_accepted(self, key, value):
        TrainConfig.from_dict(dict(validated("A").to_dict(), **{key: value}))

    def test_invalid_json_text(self):
        with pytest.raises(ConfigError):
            TrainConfig.from_json("{nope")

    def test_warmup_must_fit(self):
        with pytest.raises(ConfigError, match="warmup"):
            validated("A", total_iterations=10, warmup_iterations=10)

    def test_student_geometry_checked(self):
        with pytest.raises(ConfigError, match="dim must be positive, got 0"):
            validated("A", dim=0)

    def test_student_config_follows_enhancement_loss(self):
        for experiment, enhancement in (("A", False), ("B", False), ("C1", True), ("C2", True)):
            cfg = validated(experiment, dim=8)
            assert build_student(cfg, build_teacher(cfg)).has_enhancement() == enhancement

    def test_config_is_a_json_object(self):
        for record in ("abc", 5, None, [1]):
            with pytest.raises(ConfigError, match="config must be a JSON object"):
                TrainConfig.from_dict(record)
        with pytest.raises(ConfigError, match="config must be a JSON object, got 'abc'"):
            TrainConfig.from_json('"abc"')


class TestGeometry:
    """The depths are constants: a 12-layer teacher, a 2-layer student, heads for 4, 8, 12."""

    @staticmethod
    def blocks(n):
        return {f"block{k}.{p}" for k in range(1, n + 1) for p in ("w1", "b1", "w2", "b2")}

    def test_constants(self):
        assert (TEACHER_LAYERS, STUDENT_LAYERS, DISTILL_LAYERS) == (12, 2, (4, 8, 12))
        assert len(fields(TrainConfig)) == 13

    def test_teacher_parameter_names(self):
        teacher = build_teacher(validated("A", dim=8))
        assert set(teacher.params) == {"frontend.kernel"} | self.blocks(12)
        assert len(teacher.params) == 49

    @pytest.mark.parametrize("experiment, count", [("A", 15), ("C1", 25)])
    def test_student_parameter_names(self, experiment, count):
        cfg = validated(experiment, dim=8)
        names = {"encoder." + name for name in {"frontend.kernel"} | self.blocks(2)}
        names |= {f"head.{l}.{p}" for l in (4, 8, 12) for p in ("w", "b")}
        if experiment == "C1":
            names |= {"enhancement.rnn.w_x", "enhancement.rnn.w_h", "enhancement.rnn.bias"}
            names |= {f"enhancement.deconv{i}.kernel" for i in range(1, 8)}
        params = build_student(cfg, build_teacher(cfg)).params
        assert set(params) == names
        assert len(params) == count


class TestTrainLoop:
    def test_metrics_schema_and_length(self, tmp_path, banks):
        noise, rirs = banks
        cfg = tiny_config(tmp_path / "run", "C1")
        train(cfg, corpus=tiny_corpus(), noise_bank=noise, rir_bank=rirs)
        records = load_metrics(os.path.join(cfg.out_dir, "metrics.jsonl"))
        assert len(records) == 6
        expected_keys = {"iter", "lr", "kd_l1", "kd_cos", "enh", "combined",
                         "action_counts", "tau", "reverb_threshold"}
        for i, r in enumerate(records):
            assert set(r) == expected_keys
            assert r["iter"] == i
            assert set(r["action_counts"]) == {"a1_clean", "a2_noise", "a3_reverb",
                                               "a4_noise_reverb"}
            assert sum(r["action_counts"].values()) == cfg.batch_size
            assert r["combined"] == pytest.approx(
                r["kd_l1"] + r["kd_cos"] + cfg.method.lambda_weight * r["enh"], rel=1e-12)

    @pytest.mark.parametrize("batch_size", [2, 4])
    def test_one_distillation_loss_per_iteration(self, tmp_path, banks, monkeypatch,
                                                 batch_size):
        noise, rirs = banks
        cfg = tiny_config(tmp_path / "run", "A", batch_size=batch_size, total_iterations=1,
                          warmup_iterations=0)
        graphs, _ = _capture_iteration(monkeypatch)
        train(cfg, corpus=tiny_corpus(), noise_bank=noise, rir_bank=rirs)
        assert [ops.count("distill_cosine") for ops in graphs] == [len(DISTILL_LAYERS)]

    @pytest.mark.parametrize("experiment", ["A", "C1", "C2"])
    @pytest.mark.parametrize("batch_size,dim", [(2, 8), (3, 16)])
    def test_graph_nodes_per_iteration(self, tmp_path, banks, monkeypatch, experiment,
                                       batch_size, dim):
        # one length group: the count does not depend on the batch or the width
        nodes = {"A": 41, "C1": 74, "C2": 75}[experiment]
        noise, rirs = banks
        counts, backward = [], T.backward

        def counting_backward(loss):
            counts.append(_graph_nodes(loss))
            backward(loss)

        monkeypatch.setattr(T, "backward", counting_backward)
        cfg = tiny_config(tmp_path / "run", experiment, batch_size=batch_size, dim=dim,
                          total_iterations=2, warmup_iterations=0)
        train(cfg, corpus=tiny_corpus(), noise_bank=noise, rir_bank=rirs)
        assert counts == [nodes, nodes]

    def test_adamw_step_called_once_per_iteration(self, tmp_path, banks, monkeypatch):
        # the benchmark clocks an untraced training command by wrapping the module attribute
        noise, rirs = banks
        calls, adamw_step = [], trainer_module.adamw_step

        def counting_step(params, grads, moments, lr, step):
            calls.append(step)
            adamw_step(params, grads, moments, lr, step)

        monkeypatch.setattr(trainer_module, "adamw_step", counting_step)
        run = dict(corpus=tiny_corpus(), noise_bank=noise, rir_bank=rirs)
        cfg = tiny_config(tmp_path / "run", "A")  # 6 iterations, a checkpoint every 3
        train(cfg, **run)
        assert calls == [1, 2, 3, 4, 5, 6]
        calls.clear()
        train(cfg, resume_from=str(tmp_path / "run" / "ckpt_000003.drtc"), **run)
        assert calls == [4, 5, 6]

    @pytest.mark.parametrize("experiment,batch_size,lengths", [
        ("C1", 2, (1600,)), ("C1", 4, (1600,)), ("C1", 4, (960, 1280)), ("C2", 3, (960, 1280))])
    def test_one_forward_per_length_group(self, tmp_path, banks, monkeypatch, experiment,
                                          batch_size, lengths):
        noise, rirs = banks
        cfg = tiny_config(tmp_path / "run", experiment, batch_size=batch_size,
                          total_iterations=1, warmup_iterations=0)
        graphs, batch = _capture_iteration(monkeypatch)
        train(cfg, corpus=mixed_corpus(lengths), noise_bank=noise, rir_bank=rirs)
        groups = len({len(clean) for clean in batch["cleans"]})
        assert [(ops.count("bidir_recurrent"), ops.count("conv1d_transposed"),
                 ops.count("linear")) for ops in graphs] == \
            [(groups, 7 * groups,
              groups * (2 * STUDENT_LAYERS + len(DISTILL_LAYERS)))]

    @pytest.mark.parametrize("experiment,batch_size,lengths", [
        ("C1", 4, (1600,)), ("C1", 5, (960, 1280)), ("C2", 4, (960, 1280))])
    def test_length_groups_match_per_utterance_path(self, tmp_path, banks, monkeypatch,
                                                    experiment, batch_size, lengths):
        noise, rirs = banks
        cfg = tiny_config(tmp_path / "run", experiment, batch_size=batch_size,
                          total_iterations=1, warmup_iterations=0)
        _, batch = _capture_iteration(monkeypatch)
        train(cfg, corpus=mixed_corpus(lengths), noise_bank=noise, rir_bank=rirs)
        if len(lengths) > 1:
            assert len({len(clean) for clean in batch["cleans"]}) == 2
        (record,) = load_metrics(os.path.join(cfg.out_dir, "metrics.jsonl"))
        want, want_grads = per_utterance_reference(cfg, batch["cleans"], batch["noisy"])
        for key in ("kd_l1", "kd_cos", "enh", "combined"):
            assert abs(record[key] - getattr(want, key)) <= 1e-12 * abs(getattr(want, key))
        assert set(batch["grads"]) == set(want_grads)
        for name, got in batch["grads"].items():
            assert np.max(np.abs(got - want_grads[name])) <= \
                1e-12 * np.max(np.abs(want_grads[name])), name

    def test_every_trained_op_is_gradchecked(self, tmp_path, banks, monkeypatch):
        noise, rirs = banks
        graphs, _ = _capture_iteration(monkeypatch)
        for experiment in ("C1", "C2"):
            cfg = tiny_config(tmp_path / experiment, experiment, total_iterations=1,
                              warmup_iterations=0)
            train(cfg, corpus=tiny_corpus(), noise_bank=noise, rir_bank=rirs)
        trained = set().union(*graphs) - {None}
        checked = set()
        for make in CHECKS.values():
            fn, arrays = make()
            checked.update(_graph_ops(fn(*[T.parameter(a) for a in arrays])))
        assert {"bidir_recurrent", "stft_mag"} <= trained
        assert trained <= checked, trained - checked

    @pytest.mark.parametrize("batch_size", [4, 8])
    def test_teacher_maps_cached_per_whole_utterance(self, tmp_path, banks, monkeypatch,
                                                     batch_size):
        # 1600-sample utterances are whole crops, taken from the cache after their first
        # forward; 2400-sample ones are cropped anew each iteration and forwarded again.
        # Every crop is 1600 samples, so the one length group mixes hits and misses. A
        # batch of 8 from 6 utterances holds some utterance twice.
        noise, rirs = banks
        cfg = tiny_config(tmp_path / "run", "A", batch_size=batch_size, total_iterations=6)
        corpus = mixed_corpus((1600, 2400))
        whole = [len(w) <= cfg.crop_samples for _, w in corpus]
        teacher = build_teacher(cfg)
        forward, kd_parts, augment = (trainer_module.teacher_forward,
                                      trainer_module.kd_loss_parts, trainer_module.augment_batch)
        forwarded, cleans, handed = [], [], []

        def counting_forward(teacher, samples):
            forwarded.append(len(samples))
            return forward(teacher, samples)

        def recording_augment(batch, *args):
            cleans.append(np.stack([w.samples for w in batch]))
            return augment(batch, *args)

        def recording_kd(teacher_maps, student_maps):
            handed.append(teacher_maps)
            return kd_parts(teacher_maps, student_maps)

        monkeypatch.setattr(trainer_module, "teacher_forward", counting_forward)
        monkeypatch.setattr(trainer_module, "augment_batch", recording_augment)
        monkeypatch.setattr(trainer_module, "kd_loss_parts", recording_kd)
        train(cfg, corpus=corpus, noise_bank=noise, rir_bank=rirs)

        assert len(handed) == len(cleans) == cfg.total_iterations
        for maps, batch in zip(handed, cleans):
            direct = forward(teacher, batch)
            for l in DISTILL_LAYERS:
                np.testing.assert_array_equal(maps[l], direct[l])
        batches = [_batch_indices(i, len(corpus), cfg.batch_size, cfg.master_seed)
                   for i in range(cfg.total_iterations)]
        seen_whole = {i for b in batches for i in b if whole[i]}
        crops = sum(not whole[i] for b in batches for i in b)
        assert sum(forwarded) == len(seen_whole) + crops
        assert sum(forwarded) < cfg.total_iterations * cfg.batch_size
        # some iteration reads a cached utterance beside a crop in its one group
        earlier, mixed = set(), False
        for b in batches:
            mixed |= any(whole[i] and i in earlier for i in b) and not all(whole[i] for i in b)
            earlier.update(b)
        assert mixed

    def test_lr_column_follows_schedule(self, tmp_path, banks):
        noise, rirs = banks
        cfg = tiny_config(tmp_path / "run", "A")
        train(cfg, corpus=tiny_corpus(), noise_bank=noise, rir_bank=rirs)
        records = load_metrics(os.path.join(cfg.out_dir, "metrics.jsonl"))
        for r in records:
            assert r["lr"] == pytest.approx(lr_at(r["iter"] + 1, cfg), rel=1e-15)

    def test_experiment_a_has_no_curriculum_or_enhancement(self, tmp_path, banks):
        noise, rirs = banks
        cfg = tiny_config(tmp_path / "run", "A")
        state = train(cfg, corpus=tiny_corpus(), noise_bank=noise, rir_bank=rirs)
        records = load_metrics(os.path.join(cfg.out_dir, "metrics.jsonl"))
        for r in records:
            assert r["tau"] == 0.0
            assert r["reverb_threshold"] == 1.0
            assert r["enh"] is None
        assert not state.student.has_enhancement()

    def test_curriculum_schedule_in_metrics(self, tmp_path, banks):
        noise, rirs = banks
        cfg = tiny_config(tmp_path / "run", "B")
        train(cfg, corpus=tiny_corpus(), noise_bank=noise, rir_bank=rirs)
        records = load_metrics(os.path.join(cfg.out_dir, "metrics.jsonl"))
        taus = [r["tau"] for r in records]
        thresholds = [r["reverb_threshold"] for r in records]
        assert taus[0] == 20.0 and taus[-1] == 0.0
        assert thresholds[0] == 0.0 and thresholds[-1] == 1.0
        assert all(a >= b for a, b in zip(taus, taus[1:]))
        assert all(a <= b for a, b in zip(thresholds, thresholds[1:]))

    def test_rerun_is_byte_identical(self, tmp_path, banks):
        noise, rirs = banks
        out = tmp_path / "run"
        cfg = tiny_config(out, "C1")
        train(cfg, corpus=tiny_corpus(), noise_bank=noise, rir_bank=rirs)
        first_metrics = (out / "metrics.jsonl").read_bytes()
        first_ckpt = (out / "ckpt_final.drtc").read_bytes()
        cfg2 = tiny_config(out, "C1")
        train(cfg2, corpus=tiny_corpus(), noise_bank=noise, rir_bank=rirs)
        assert (out / "metrics.jsonl").read_bytes() == first_metrics
        assert (out / "ckpt_final.drtc").read_bytes() == first_ckpt

    def test_master_seed_changes_run(self, tmp_path, banks):
        noise, rirs = banks
        cfg1 = tiny_config(tmp_path / "a", "B")
        cfg2 = tiny_config(tmp_path / "b", "B", master_seed=6)
        train(cfg1, corpus=tiny_corpus(), noise_bank=noise, rir_bank=rirs)
        train(cfg2, corpus=tiny_corpus(), noise_bank=noise, rir_bank=rirs)
        a = load_metrics(os.path.join(cfg1.out_dir, "metrics.jsonl"))
        b = load_metrics(os.path.join(cfg2.out_dir, "metrics.jsonl"))
        assert any(ra["combined"] != rb["combined"] for ra, rb in zip(a, b))

    def test_resume_reproduces_uninterrupted_run(self, tmp_path, banks):
        noise, rirs = banks
        out = tmp_path / "run"
        run = dict(corpus=tiny_corpus(), noise_bank=noise, rir_bank=rirs)
        train(tiny_config(out, "C1"), **run)
        full_metrics = (out / "metrics.jsonl").read_bytes()
        full_ckpt = (out / "ckpt_final.drtc").read_bytes()
        shutil.rmtree(out)

        with crash_after(4):
            train(tiny_config(out, "C1"), **run)
        # the four completed iterations' records, and the checkpoint after the third
        assert sorted(os.listdir(out)) == ["ckpt_000003.drtc", "metrics.jsonl"]
        assert (out / "metrics.jsonl").read_bytes() == \
            b"".join(full_metrics.splitlines(keepends=True)[:4])
        train(tiny_config(out, "C1"), resume_from=str(out / "ckpt_000003.drtc"), **run)
        assert (out / "metrics.jsonl").read_bytes() == full_metrics
        assert (out / "ckpt_final.drtc").read_bytes() == full_ckpt

    def test_resume_after_a_crash_at_every_iteration(self, tmp_path, banks):
        noise, rirs = banks
        out = tmp_path / "run"
        cfg = tiny_config(out, "C1", checkpoint_every=2)
        run = dict(corpus=tiny_corpus(), noise_bank=noise, rir_bank=rirs)
        train(cfg, **run)
        full_metrics = (out / "metrics.jsonl").read_bytes()
        full_ckpt = (out / "ckpt_final.drtc").read_bytes()
        for steps in range(cfg.total_iterations):
            shutil.rmtree(out)
            with crash_after(steps):
                train(cfg, **run)
            assert not (out / "ckpt_final.drtc").exists(), steps
            periodic = steps - steps % 2  # newest checkpoint_every multiple at or below steps
            resume = str(out / f"ckpt_{periodic:06d}.drtc") if periodic else None
            train(cfg, resume_from=resume, **run)
            assert (out / "metrics.jsonl").read_bytes() == full_metrics, steps
            assert (out / "ckpt_final.drtc").read_bytes() == full_ckpt, steps

    def test_resume_drops_metrics_past_checkpoint(self, tmp_path, banks):
        noise, rirs = banks
        out = tmp_path / "run"
        train(tiny_config(out, "A"), corpus=tiny_corpus(), noise_bank=noise, rir_bank=rirs)
        full_metrics = (out / "metrics.jsonl").read_bytes()
        full_ckpt = (out / "ckpt_final.drtc").read_bytes()
        with crash_after(5):
            train(tiny_config(out, "A"), corpus=tiny_corpus(), noise_bank=noise, rir_bank=rirs)
        with open(out / "metrics.jsonl", "ab") as fh:
            fh.write(b'{"iter": 5, "comb')  # a record cut off by the crash
        train(tiny_config(out, "A"), corpus=tiny_corpus(), noise_bank=noise, rir_bank=rirs,
              resume_from=str(out / "ckpt_000003.drtc"))
        assert (out / "metrics.jsonl").read_bytes() == full_metrics
        assert (out / "ckpt_final.drtc").read_bytes() == full_ckpt

    def test_resume_from_moved_run_directory(self, tmp_path, banks):
        noise, rirs = banks
        final = tmp_path / "final"
        train(tiny_config(final, "C1"), corpus=tiny_corpus(), noise_bank=noise, rir_bank=rirs)
        full_metrics = (final / "metrics.jsonl").read_bytes()
        full_ckpt = (final / "ckpt_final.drtc").read_bytes()
        shutil.rmtree(final)

        first = tmp_path / "first"
        with crash_after(5):
            train(tiny_config(first, "C1"), corpus=tiny_corpus(), noise_bank=noise,
                  rir_bank=rirs)
        shutil.move(str(first), str(final))
        train(tiny_config(final, "C1"), corpus=tiny_corpus(), noise_bank=noise, rir_bank=rirs,
              resume_from=str(final / "ckpt_000003.drtc"))
        assert not first.exists()
        assert (final / "metrics.jsonl").read_bytes() == full_metrics
        assert (final / "ckpt_final.drtc").read_bytes() == full_ckpt

    def test_resume_config_mismatch_rejected(self, tmp_path, banks):
        noise, rirs = banks
        out = tmp_path / "run"
        cfg = tiny_config(out, "C1")
        with crash_after(3):
            train(cfg, corpus=tiny_corpus(), noise_bank=noise, rir_bank=rirs)
        other = tiny_config(out, "C1", lr_peak=5e-3)
        with pytest.raises(ConfigError, match="different config"):
            train(other, corpus=tiny_corpus(), noise_bank=noise, rir_bank=rirs,
                  resume_from=str(out / "ckpt_000003.drtc"))

    def test_teacher_unchanged_by_training(self, tmp_path, banks):
        noise, rirs = banks
        cfg = tiny_config(tmp_path / "run", "C2")
        teacher = build_teacher(cfg)
        before = teacher.checksum()
        state = train(cfg, corpus=tiny_corpus(), noise_bank=noise, rir_bank=rirs)
        assert build_teacher(cfg).checksum() == before
        assert state.teacher_checksum == before

    def test_student_actually_moves(self, tmp_path, banks):
        noise, rirs = banks
        cfg = tiny_config(tmp_path / "run", "A")
        teacher = build_teacher(cfg)
        init = build_student(cfg, teacher)
        state = train(cfg, corpus=tiny_corpus(), noise_bank=noise, rir_bank=rirs)
        moved = any(
            not np.array_equal(init.params[name].values, state.student.params[name].values)
            for name in init.params)
        assert moved

    def test_empty_corpus_rejected(self, tmp_path, banks):
        noise, rirs = banks
        cfg = tiny_config(tmp_path / "run", "A")
        with pytest.raises(DataError):
            train(cfg, corpus=[], noise_bank=noise, rir_bank=rirs)

    def test_short_utterance_named(self, tmp_path, banks):
        noise, rirs = banks
        cfg = tiny_config(tmp_path / "run", "A")
        bad = [("stub", Waveform(np.ones(10)))]
        with pytest.raises(DataError, match="stub"):
            train(cfg, corpus=bad, noise_bank=noise, rir_bank=rirs)

    def test_missing_banks_rejected(self, tmp_path):
        cfg = tiny_config(tmp_path / "run", "A")
        with pytest.raises(ConfigError, match="noise_manifest"):
            train(cfg, corpus=tiny_corpus())


def mixed_corpus(lengths, n_utts=6):
    """tiny_corpus (1600 samples, or the longest length) with utterance i cut to
    lengths[i % len(lengths)] samples."""
    return [(utt_id, Waveform(w.samples[: lengths[i % len(lengths)]]))
            for i, (utt_id, w) in enumerate(tiny_corpus(n_utts, max(1600, *lengths)))]


def _graph_ops(loss):
    """The op tag of every node reachable from loss, one entry per node."""
    seen, stack, ops = set(), [loss], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            ops.append(node.op)
            stack.extend(node.parents)
    return ops


def _graph_nodes(loss) -> int:
    """Nodes that need a gradient reachable from loss, counted as perfbench's
    `tracing.graph_nodes` counts them."""
    seen, stack = {id(loss)}, [loss]
    while stack:
        for p in stack.pop().parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def _capture_iteration(monkeypatch):
    """Record one op list per backward call (one entry per graph node), and the last
    batch's crops, contaminated signals and parameter gradients."""
    graphs, batch = [], {}
    backward, augment_batch, adamw_step = T.backward, trainer_module.augment_batch, \
        trainer_module.adamw_step

    def walking_backward(loss):
        graphs.append(_graph_ops(loss))
        backward(loss)

    def recording_augment(cleans, *args):
        pairs = augment_batch(cleans, *args)
        batch["cleans"] = [w.samples for w in cleans]
        batch["noisy"] = [w.samples for w, _ in pairs]
        return pairs

    def recording_step(params, grads, *args):
        batch["grads"] = {name: g.copy() for name, g in grads.items()}
        adamw_step(params, grads, *args)

    monkeypatch.setattr(T, "backward", walking_backward)
    monkeypatch.setattr(trainer_module, "augment_batch", recording_augment)
    monkeypatch.setattr(trainer_module, "adamw_step", recording_step)
    return graphs, batch


def per_utterance_reference(cfg, cleans, noisy):
    """One batch's loss and gradients utterance by utterance, each a batch of one, combined
    as before length groups: the stacked frames in one distillation call scaled by 1/batch,
    and the enhancement losses' mean as an add chain."""
    student = build_student(cfg, build_teacher(cfg))
    teacher = build_teacher(cfg)
    maps, preds, enh = [], [], []
    for clean, augmented in zip(cleans, noisy):
        maps.append(teacher_forward(teacher, clean[None]))
        out = student_forward(student, augmented[None])
        preds.append(out.predictions)
        if cfg.method.enhancement_loss == "l1_wav":
            enh.append(l1_wav(out.enhanced, clean[None]))
        elif cfg.method.enhancement_loss == "l1_freq":
            enh.append(l1_freq(out.enhanced, clean[None]))
    summed = kd_loss_parts({l: np.concatenate([m[l] for m in maps]) for l in DISTILL_LAYERS},
                           {l: T.concat([p[l] for p in preds]) for l in DISTILL_LAYERS})
    l1, cos = T.scale(summed.l1, 1.0 / len(cleans)), T.scale(summed.cos, 1.0 / len(cleans))
    enh_mean = None
    if enh:
        enh_mean = enh[0]
        for term in enh[1:]:
            enh_mean = T.add(enh_mean, term)
        enh_mean = T.scale(enh_mean, 1.0 / len(enh))
    breakdown = combined_loss(l1, cos, enh_mean, cfg.method.lambda_weight)
    T.backward(breakdown.tensor)
    return breakdown, {name: p.grad for name, p in student.params.items()}


def two_length_batch(n_utts=5):
    """Crops of 960 and 1280 samples in alternating order, so the length groups interleave
    and differ in size, and their seeded contaminated copies."""
    cleans = [w.samples for _, w in mixed_corpus((960, 1280), n_utts)]
    rng = np.random.default_rng(3)
    return cleans, [c + 0.05 * rng.standard_normal(len(c)) for c in cleans]


class TestBatchLoss:
    """`batch_loss` on its own, without a training run."""

    @pytest.mark.parametrize("experiment", ["A", "C1", "C2"])
    def test_matches_per_utterance_reference(self, tmp_path, experiment):
        cfg = tiny_config(tmp_path, experiment)
        cleans, noisy = two_length_batch()
        teacher = build_teacher(cfg)
        student = build_student(cfg, teacher)
        got = batch_loss(teacher, {}, student, cfg.method, cleans, noisy, [None] * len(cleans))
        T.backward(got.tensor)
        want, want_grads = per_utterance_reference(cfg, cleans, noisy)
        if experiment == "A":
            assert got.enh is None and want.enh is None
        for key in ("kd_l1", "kd_cos", "enh", "combined"):
            if getattr(want, key) is not None:
                assert abs(getattr(got, key) - getattr(want, key)) <= \
                    1e-12 * abs(getattr(want, key)), key
        assert set(student.params) == set(want_grads)
        for name, p in student.params.items():
            assert np.max(np.abs(p.grad - want_grads[name])) <= \
                1e-12 * np.max(np.abs(want_grads[name])), name

    def test_teacher_cache_holds_whole_utterances_only(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path, "A")
        cleans, noisy = two_length_batch()
        teacher = build_teacher(cfg)
        student = build_student(cfg, teacher)
        forward, calls, values = trainer_module.teacher_forward, [], set()

        def counting_forward(teacher, samples):
            calls[-1].append(len(samples))
            return forward(teacher, samples)

        monkeypatch.setattr(trainer_module, "teacher_forward", counting_forward)
        cache = {}
        for keys in ([None] * 5, [7, None, 9, None, None], [0, 1, 2, 3, 4], [0, 1, 2, 3, 4]):
            calls.append([])
            got = batch_loss(teacher, cache, student, cfg.method, cleans, noisy, keys)
            values.add((got.kd_l1, got.kd_cos, got.combined))
        assert set(cache) == {7, 9, 0, 1, 2, 3, 4}
        # one forward per length group over its misses: a crop (key None) is forwarded
        # every call, a cached key never again
        assert calls == [[3, 2], [3, 2], [3, 2], []]
        for l in DISTILL_LAYERS:
            np.testing.assert_array_equal(cache[7][l], cache[0][l])
        assert len(values) == 1


class TestBatchSampler:
    @pytest.mark.parametrize("n_utts,batch_size", [(5, 3), (3, 8), (7, 7), (20, 24), (20, 8)])
    def test_matches_slot_formula(self, n_utts, batch_size):
        # slot s of the run is place s % n of the shuffle of epoch s // n
        for iteration in range(300):
            want = []
            for slot in range(iteration * batch_size, (iteration + 1) * batch_size):
                rng = np.random.default_rng(stable_hash(9, "order", slot // n_utts))
                want.append(int(rng.permutation(n_utts)[slot % n_utts]))
            assert _batch_indices(iteration, n_utts, batch_size, master_seed=9) == want


class TestCheckpoints:
    def test_round_trip_params_and_moments(self, tmp_path, banks):
        noise, rirs = banks
        cfg = tiny_config(tmp_path / "run", "C1")
        state = train(cfg, corpus=tiny_corpus(), noise_bank=noise, rir_bank=rirs)
        loaded = load_checkpoint(os.path.join(cfg.out_dir, "ckpt_final.drtc"))
        assert loaded.iteration == 6
        assert loaded.config == cfg
        for name, p in state.student.params.items():
            np.testing.assert_array_equal(loaded.student.params[name].values, p.values)
            np.testing.assert_array_equal(loaded.moments.m[name], state.moments.m[name])
            np.testing.assert_array_equal(loaded.moments.v[name], state.moments.v[name])

    def test_checkpoint_cadence(self, tmp_path, banks):
        noise, rirs = banks
        cfg = tiny_config(tmp_path / "run", "A", checkpoint_every=2)
        train(cfg, corpus=tiny_corpus(), noise_bank=noise, rir_bank=rirs)
        for k in (2, 4):
            assert (tmp_path / "run" / f"ckpt_{k:06d}.drtc").exists()
        assert not (tmp_path / "run" / "ckpt_000006.drtc").exists()  # the last is ckpt_final
        assert (tmp_path / "run" / "ckpt_final.drtc").exists()

    def test_export_drops_heads_and_enhancement(self, tmp_path, banks):
        noise, rirs = banks
        cfg = tiny_config(tmp_path / "run", "C1")
        state = train(cfg, corpus=tiny_corpus(), noise_bank=noise, rir_bank=rirs)
        export_path = os.path.join(cfg.out_dir, "student.drtc")
        export_student(state, export_path)
        exported = load_exported(export_path)
        assert all(name.startswith("encoder.") for name in exported.params)
        assert not exported.has_enhancement()

    def test_export_preserves_representation(self, tmp_path, banks):
        noise, rirs = banks
        cfg = tiny_config(tmp_path / "run", "C1")
        state = train(cfg, corpus=tiny_corpus(), noise_bank=noise, rir_bank=rirs)
        export_path = os.path.join(cfg.out_dir, "student.drtc")
        export_student(state, export_path)
        exported = load_exported(export_path)
        samples = tiny_corpus()[0][1].samples[None]
        full = student_forward(state.student, samples)
        slim = student_forward(exported, samples)
        np.testing.assert_array_equal(slim.representation.values,
                                      full.representation.values)
        assert slim.predictions == {} and slim.enhanced is None

    def test_exported_model_cannot_resume(self, tmp_path, banks):
        noise, rirs = banks
        cfg = tiny_config(tmp_path / "run", "C1")
        state = train(cfg, corpus=tiny_corpus(), noise_bank=noise, rir_bank=rirs)
        export_path = os.path.join(cfg.out_dir, "student.drtc")
        export_student(state, export_path)
        with pytest.raises(DataError):
            load_checkpoint(export_path)

    def test_header_keys_of_earlier_versions_ignored(self, tmp_path, banks):
        # earlier versions also wrote "format", "adam_step" and, in an export, "exported"
        noise, rirs = banks
        cfg = tiny_config(tmp_path / "run", "C1", total_iterations=3, dim=2)
        state = train(cfg, corpus=tiny_corpus(), noise_bank=noise, rir_bank=rirs)
        ckpt, export = tmp_path / "run" / "ckpt_final.drtc", tmp_path / "run" / "student.drtc"
        export_student(state, str(export))
        for path, extra in ((ckpt, {"format": "drtc", "adam_step": 3}),
                            (export, {"format": "drtc", "exported": True})):
            blob = path.read_bytes()
            (header_len,) = struct.unpack_from("<I", blob, 5)
            header = dict(json.loads(blob[9 : 9 + header_len]), **extra)
            header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
            path.write_bytes(blob[:5] + struct.pack("<I", len(header_bytes)) + header_bytes
                             + blob[9 + header_len :])
        loaded = load_checkpoint(str(ckpt))
        assert loaded.iteration == 3
        assert sorted(load_exported(str(export)).params) == \
            sorted(n for n in state.student.params if n.startswith("encoder."))

    @pytest.mark.parametrize("exported", [False, True])
    def test_every_truncation_rejected(self, tmp_path, banks, exported):
        noise, rirs = banks
        cfg = tiny_config(tmp_path / "run", "C1", total_iterations=3, dim=2)
        state = train(cfg, corpus=tiny_corpus(), noise_bank=noise, rir_bank=rirs)
        path = tmp_path / "run" / "ckpt_final.drtc"
        load = load_checkpoint
        if exported:
            export_student(state, str(path))
            load = load_exported
        blob = path.read_bytes()
        load(str(path))
        # every header offset, every record boundary, a seeded sample of the rest
        (header_len,) = struct.unpack_from("<I", blob, 5)
        offsets = set(range(9 + header_len + 1))
        pos, per_name = 9 + header_len, 1 if exported else 3
        while pos < len(blob):
            (name_len,) = struct.unpack_from("<H", blob, pos)
            pos += 2 + name_len
            for _ in range(per_name):
                offsets.add(pos)
                _, pos = T.tensor_from_bytes(blob, pos)
            offsets.add(pos)
        offsets.discard(len(blob))
        rng = np.random.default_rng(0)
        offsets.update(int(k) for k in rng.integers(0, len(blob), 200))
        cut = tmp_path / "cut.drtc"
        for data in [blob[:k] for k in sorted(offsets)] + [blob + blob[-20:]]:
            cut.write_bytes(data)
            with pytest.raises(DataError):
                load(str(cut))
            cut.unlink()  # rewriting a file in place is slow on some filesystems

    def test_wrong_parameter_shape_rejected(self, tmp_path, banks):
        noise, rirs = banks
        state = train(tiny_config(tmp_path / "run", "A"), corpus=tiny_corpus(),
                      noise_bank=noise, rir_bank=rirs)
        head = state.student.params["head.4.b"]
        head.values = np.zeros(head.values.size + 1)
        for moments in (state.moments.m, state.moments.v):
            moments["head.4.b"] = head.values
        path = str(tmp_path / "wrong.drtc")
        save_checkpoint(state, path)
        with pytest.raises(DataError, match="head.4.b"):
            load_checkpoint(path)

    def test_iteration_past_total_rejected(self, tmp_path, banks):
        noise, rirs = banks
        state = train(tiny_config(tmp_path / "run", "A", total_iterations=4),
                      corpus=tiny_corpus(), noise_bank=noise, rir_bank=rirs)
        path = str(tmp_path / "ahead.drtc")
        save_checkpoint(TrainState(state.config, 99, state.student, state.moments,
                                   state.teacher_checksum), path)
        with pytest.raises(DataError, match="header 'iteration' 99 exceeds the config's "
                                            "total_iterations 4"):
            load_checkpoint(path)

    def test_corrupt_container_rejected(self, tmp_path):
        path = tmp_path / "bad.drtc"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(DataError):
            load_checkpoint(str(path))


class TestSmoothedLoss:
    def test_trailing_window_mean(self):
        records = [{"iter": i, "combined": float(i)} for i in range(30)]
        # iterations 11..20 inclusive
        assert smoothed_loss(records, 20) == pytest.approx(np.mean(range(11, 21)))

    def test_missing_window_rejected(self):
        with pytest.raises(DataError):
            smoothed_loss([{"iter": 50, "combined": 1.0}], 10)
