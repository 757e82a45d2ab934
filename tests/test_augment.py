"""Curriculum schedules, contamination plan sampling, and manifest loading."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distilrobust.augment as augment_module
from distilrobust.audio import Waveform, convolve_rir, mix_at_snr, rms, white_noise, write_wav
from distilrobust.augment import (
    FILE_NOISE_PROBABILITY,
    SNR_CEILING_DB,
    AugmentAction,
    AugmentPlan,
    CurriculumState,
    augment_batch,
    apply_plan,
    load_manifest,
    load_noise_bank,
    load_rir_bank,
    reverb_threshold,
    sample_plan,
    snr_lower_bound,
    stable_hash,
    utterance_seed,
)
from distilrobust.errors import DataError, ParameterError

from conftest import write_manifest


class TestSchedules:
    def test_snr_bound_endpoints(self):
        n = 1000
        assert snr_lower_bound(CurriculumState(0, n)) == 20.0
        assert snr_lower_bound(CurriculumState(n // 2, n)) == 0.0
        assert snr_lower_bound(CurriculumState(n - 1, n)) == 0.0

    def test_snr_bound_midpoints(self):
        assert snr_lower_bound(CurriculumState(250, 1000)) == 10.0
        assert snr_lower_bound(CurriculumState(100, 1000)) == 16.0

    def test_reverb_threshold_endpoints(self):
        n = 1000
        assert reverb_threshold(CurriculumState(0, n)) == 0.0
        assert reverb_threshold(CurriculumState(n // 2, n)) == 1.0
        assert reverb_threshold(CurriculumState(n - 1, n)) == 1.0

    def test_reverb_threshold_midpoints(self):
        assert reverb_threshold(CurriculumState(125, 1000)) == 0.25
        assert reverb_threshold(CurriculumState(400, 1000)) == 0.8

    def test_formula_agreement(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(2, 100000))
            it = int(rng.integers(0, n))
            state = CurriculumState(it, n)
            if 2 * it < n:
                assert abs(snr_lower_bound(state) - 20.0 * (1 - 2 * it / n)) <= 1e-12
                assert abs(reverb_threshold(state) - 2 * it / n) <= 1e-12
            else:
                assert snr_lower_bound(state) == 0.0
                assert reverb_threshold(state) == 1.0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_monotone_in_iteration(self, data):
        n = data.draw(st.integers(min_value=2, max_value=100000))
        i1 = data.draw(st.integers(min_value=0, max_value=n - 1))
        i2 = data.draw(st.integers(min_value=i1, max_value=n - 1))
        assert snr_lower_bound(CurriculumState(i2, n)) <= snr_lower_bound(CurriculumState(i1, n))
        assert reverb_threshold(CurriculumState(i2, n)) >= reverb_threshold(CurriculumState(i1, n))

    def test_state_validation(self):
        with pytest.raises(ParameterError):
            CurriculumState(-1, 10)
        with pytest.raises(ParameterError):
            CurriculumState(11, 10)
        with pytest.raises(ParameterError):
            CurriculumState(0, 0)
        # iteration == total marks the fully-hardened schedule and is legal
        state = CurriculumState(10, 10)
        assert snr_lower_bound(state) == 0.0 and reverb_threshold(state) == 1.0


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash(1, "x", 2) == stable_hash(1, "x", 2)

    def test_sensitive_to_every_part(self):
        base = stable_hash(1, "x", 2)
        assert stable_hash(2, "x", 2) != base
        assert stable_hash(1, "y", 2) != base
        assert stable_hash(1, "x", 3) != base

    def test_order_matters(self):
        assert stable_hash(1, 2) != stable_hash(2, 1)

    def test_no_concatenation_collision(self):
        # "ab","c" must differ from "a","bc": parts are length-prefixed
        assert stable_hash("ab", "c") != stable_hash("a", "bc")

    def test_frozen_reference_value(self):
        # pinned so seed derivations stay reproducible across releases
        assert stable_hash(0) == stable_hash(0)
        assert isinstance(stable_hash(0), int)
        assert 0 <= stable_hash(0) < 2 ** 64

    def test_utterance_seed_distinct_per_index(self):
        seeds = {utterance_seed(3, 7, i) for i in range(100)}
        assert len(seeds) == 100


class TestSamplePlan:
    def test_deterministic(self):
        state = CurriculumState(10, 100)
        a = sample_plan(state, 4, 3, seed=99)
        b = sample_plan(state, 4, 3, seed=99)
        assert a == b

    def test_snr_respects_schedule_floor(self):
        state = CurriculumState(0, 1000)  # tau = 20 -> snr must be exactly 20
        for seed in range(300):
            plan = sample_plan(state, 2, 2, seed)
            if plan.snr_db is not None:
                assert plan.snr_db == 20

    def test_snr_range_late_training(self):
        state = CurriculumState(900, 1000)  # tau = 0
        values = set()
        for seed in range(2000):
            plan = sample_plan(state, 2, 2, seed)
            if plan.snr_db is not None:
                assert 0 <= plan.snr_db <= SNR_CEILING_DB
                values.add(plan.snr_db)
        assert len(values) == 21  # every integer SNR shows up

    def test_noninteger_floor_rounds_up(self):
        n = 1000
        it = 33  # tau = 20 * (1 - 66/1000) = 18.68 -> floor ceil 19
        state = CurriculumState(it, n)
        tau = snr_lower_bound(state)
        assert tau != math.floor(tau)
        for seed in range(400):
            plan = sample_plan(state, 2, 2, seed)
            if plan.snr_db is not None:
                assert plan.snr_db >= math.ceil(tau)

    def test_no_reverb_at_start(self):
        state = CurriculumState(0, 1000)  # threshold 0 but uniform() can hit 0.0
        hits = [sample_plan(state, 2, 2, s).reverb_applied for s in range(500)]
        assert sum(hits) == 0

    def test_reverb_always_late(self):
        state = CurriculumState(600, 1000)  # threshold 1
        for seed in range(300):
            plan = sample_plan(state, 2, 2, seed)
            if plan.action in (AugmentAction.A3_REVERB, AugmentAction.A4_NOISE_REVERB):
                assert plan.reverb_applied and plan.rir_index is not None

    def test_clean_action_carries_no_contamination(self):
        state = CurriculumState(5, 10)
        for seed in range(200):
            plan = sample_plan(state, 2, 2, seed)
            if plan.action is AugmentAction.A1_CLEAN:
                assert plan.snr_db is None and plan.noise_source is None
                assert not plan.reverb_applied and plan.rir_index is None

    def test_bank_size_validation(self):
        state = CurriculumState(0, 10)
        with pytest.raises(ParameterError):
            sample_plan(state, 0, 1, seed=0)
        with pytest.raises(ParameterError):
            sample_plan(state, 1, 0, seed=0)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           it=st.integers(min_value=0, max_value=999))
    def test_plan_invariants_property(self, seed, it):
        plan = sample_plan(CurriculumState(it, 1000), 3, 2, seed)
        if plan.noise_source == "file":
            assert 0 <= plan.noise_index < 3
        if plan.reverb_applied:
            assert 0 <= plan.rir_index < 2


    # one plan of each shape at iteration 300 of 1000 (SNR floor 8 dB, reverb
    # probability 0.6); perfbench's recompute reads these records from plans.jsonl
    @pytest.mark.parametrize("seed, record", [
        (11, {"action": "a1_clean", "seed": 11, "snr_db": None, "noise_source": None,
              "noise_index": None, "rir_index": None, "reverb_applied": False}),
        (6, {"action": "a2_noise", "seed": 6, "snr_db": 14, "noise_source": "file",
             "noise_index": 2, "rir_index": None, "reverb_applied": False}),
        (1, {"action": "a2_noise", "seed": 1, "snr_db": 14, "noise_source": "white_noise",
             "noise_index": None, "rir_index": None, "reverb_applied": False}),
        (4, {"action": "a3_reverb", "seed": 4, "snr_db": None, "noise_source": None,
             "noise_index": None, "rir_index": 1, "reverb_applied": True}),
        (5, {"action": "a3_reverb", "seed": 5, "snr_db": None, "noise_source": None,
             "noise_index": None, "rir_index": None, "reverb_applied": False}),
        (0, {"action": "a4_noise_reverb", "seed": 0, "snr_db": 16, "noise_source": "file",
             "noise_index": 0, "rir_index": 0, "reverb_applied": True}),
    ], ids=["a1", "a2_file", "a2_white", "a3_reverb", "a3_dry", "a4"])
    def test_plan_record_golden(self, seed, record):
        assert sample_plan(CurriculumState(300, 1000), 3, 2, seed).to_dict() == record


class TestPlanValidation:
    def test_clean_with_snr_rejected(self):
        with pytest.raises(ParameterError, match="snr_db must be present iff"):
            AugmentPlan(action=AugmentAction.A1_CLEAN, seed=0, snr_db=10)

    def test_noise_index_needs_snr(self):
        with pytest.raises(ParameterError, match="noise_index present without snr_db"):
            AugmentPlan(action=AugmentAction.A3_REVERB, seed=0, noise_index=1)

    def test_rir_index_needs_reverb_action(self):
        with pytest.raises(ParameterError, match="rir_index is not valid under a2_noise"):
            AugmentPlan(action=AugmentAction.A2_NOISE, seed=0, snr_db=10, rir_index=0)


class TestApplyPlan:
    def test_clean_is_copy(self, reference_corpus, noise_bank, rir_bank):
        _, wave = reference_corpus[0]
        out = apply_plan(wave, AugmentPlan(AugmentAction.A1_CLEAN, seed=0), noise_bank, rir_bank)
        np.testing.assert_array_equal(out.samples, wave.samples)
        assert out.samples is not wave.samples

    def test_file_noise_matches_manual_mix(self, reference_corpus, noise_bank, rir_bank):
        _, wave = reference_corpus[1]
        plan = AugmentPlan(AugmentAction.A2_NOISE, seed=77, snr_db=8, noise_index=1)
        out = apply_plan(wave, plan, noise_bank, rir_bank)
        want = mix_at_snr(wave, noise_bank[1], 8, seed=stable_hash(77, "crop"))
        np.testing.assert_array_equal(out.samples, want.samples)

    def test_white_noise_branch_is_narrowband(self, reference_corpus, noise_bank, rir_bank):
        _, wave = reference_corpus[2]
        plan = AugmentPlan(AugmentAction.A2_NOISE, seed=13, snr_db=5)
        out = apply_plan(wave, plan, noise_bank, rir_bank)
        want_noise = white_noise(len(wave), stable_hash(13, "white"),
                                 sample_rate_hz=wave.sample_rate_hz)
        want = mix_at_snr(wave, want_noise, 5, seed=stable_hash(13, "crop"))
        np.testing.assert_array_equal(out.samples, want.samples)

    def test_reverb_matches_direct_convolution(self, reference_corpus, noise_bank, rir_bank):
        _, wave = reference_corpus[3]
        plan = AugmentPlan(AugmentAction.A3_REVERB, seed=4, rir_index=0)
        out = apply_plan(wave, plan, noise_bank, rir_bank)
        want = convolve_rir(wave, rir_bank[0])
        np.testing.assert_array_equal(out.samples, want.samples)

    def test_reverb_skipped_is_passthrough_copy(self, reference_corpus, noise_bank, rir_bank):
        _, wave = reference_corpus[3]
        plan = AugmentPlan(AugmentAction.A3_REVERB, seed=4)
        out = apply_plan(wave, plan, noise_bank, rir_bank)
        np.testing.assert_array_equal(out.samples, wave.samples)
        assert out.samples is not wave.samples

    def test_combined_action_composes_noise_then_reverb(self, reference_corpus,
                                                        noise_bank, rir_bank):
        _, wave = reference_corpus[4]
        plan = AugmentPlan(AugmentAction.A4_NOISE_REVERB, seed=21, snr_db=3, noise_index=0,
                           rir_index=1)
        out = apply_plan(wave, plan, noise_bank, rir_bank)
        noised = mix_at_snr(wave, noise_bank[0], 3, seed=stable_hash(21, "crop"))
        want = convolve_rir(noised, rir_bank[1])
        np.testing.assert_array_equal(out.samples, want.samples)

    def test_output_length_always_preserved(self, reference_corpus, noise_bank, rir_bank):
        _, wave = reference_corpus[5]
        state = CurriculumState(400, 1000)
        for seed in range(30):
            plan = sample_plan(state, len(noise_bank), len(rir_bank), seed)
            out = apply_plan(wave, plan, noise_bank, rir_bank)
            assert len(out) == len(wave)
            assert out.sample_rate_hz == wave.sample_rate_hz

    def test_bad_bank_index_rejected(self, reference_corpus, noise_bank, rir_bank):
        _, wave = reference_corpus[0]
        plan = AugmentPlan(AugmentAction.A2_NOISE, seed=0, snr_db=10, noise_index=99)
        with pytest.raises(DataError, match="noise index 99 outside bank of 2"):
            apply_plan(wave, plan, noise_bank, rir_bank)
        plan = AugmentPlan(AugmentAction.A3_REVERB, seed=0, rir_index=-1)
        with pytest.raises(DataError, match="rir index -1 outside bank of 2"):
            apply_plan(wave, plan, noise_bank, rir_bank)


class TestAugmentBatch:
    def test_deterministic_across_calls(self, reference_corpus, noise_bank, rir_bank):
        batch = [w for _, w in reference_corpus[:4]]
        state = CurriculumState(100, 400)
        first = augment_batch(batch, state, noise_bank, rir_bank, master_seed=5)
        second = augment_batch(batch, state, noise_bank, rir_bank, master_seed=5)
        for (wa, pa), (wb, pb) in zip(first, second):
            assert pa == pb
            np.testing.assert_array_equal(wa.samples, wb.samples)

    def test_each_item_depends_only_on_own_slot(self, reference_corpus, noise_bank,
                                                rir_bank):
        w0, w1, w2 = (w for _, w in reference_corpus[:3])
        state = CurriculumState(10, 400)
        with_w1 = augment_batch([w0, w1], state, noise_bank, rir_bank, master_seed=5)
        with_w2 = augment_batch([w0, w2], state, noise_bank, rir_bank, master_seed=5)
        np.testing.assert_array_equal(with_w1[0][0].samples, with_w2[0][0].samples)

    def test_master_seed_changes_plans(self, reference_corpus, noise_bank, rir_bank):
        batch = [w for _, w in reference_corpus[:6]]
        state = CurriculumState(100, 400)
        a = augment_batch(batch, state, noise_bank, rir_bank, master_seed=1)
        b = augment_batch(batch, state, noise_bank, rir_bank, master_seed=2)
        assert any(pa != pb for (_, pa), (_, pb) in zip(a, b))

    def test_empty_batch_rejected(self, noise_bank, rir_bank):
        with pytest.raises(ParameterError):
            augment_batch([], CurriculumState(0, 10), noise_bank, rir_bank, master_seed=0)

    def test_apply_plan_called_once_per_utterance(self, reference_corpus, noise_bank,
                                                   rir_bank, monkeypatch):
        # the benchmark clocks an augment command by wrapping the module attribute
        calls, apply = [], augment_module.apply_plan

        def counting_apply(clean, *args):
            calls.append(clean)
            return apply(clean, *args)

        monkeypatch.setattr(augment_module, "apply_plan", counting_apply)
        batch = [w for _, w in reference_corpus[:5]]
        augment_batch(batch, CurriculumState(400, 400), noise_bank, rir_bank, master_seed=3)
        assert [id(w) for w in calls] == [id(w) for w in batch]


class TestDistributions:
    def test_action_marginals_rough(self):
        state = CurriculumState(250, 1000)
        counts = {a: 0 for a in AugmentAction}
        n = 20_000
        for seed in range(n):
            counts[sample_plan(state, 2, 2, seed).action] += 1
        for action, count in counts.items():
            assert abs(count / n - 0.25) < 0.02, action

    def test_white_noise_share_rough(self):
        state = CurriculumState(250, 1000)
        white = noisy = 0
        for seed in range(20_000):
            plan = sample_plan(state, 2, 2, seed)
            if plan.noise_source is not None:
                noisy += 1
                white += plan.noise_source == "white_noise"
        assert abs(white / noisy - (1 - FILE_NOISE_PROBABILITY)) < 0.02


class TestManifests:
    def test_load_and_resolve_relative_paths(self, tmp_path, reference_corpus):
        wav = tmp_path / "a.wav"
        write_wav(reference_corpus[0][1], wav)
        manifest = write_manifest(tmp_path / "m.jsonl",
                                  [{"id": "a", "path": "a.wav", "kind": "speech"}])
        entries = load_manifest(manifest, expect_kind="speech")
        assert entries[0].path == str(wav)

    def test_duplicate_id_rejected(self, tmp_path, reference_corpus):
        wav = tmp_path / "a.wav"
        write_wav(reference_corpus[0][1], wav)
        rows = [{"id": "a", "path": "a.wav", "kind": "noise"},
                {"id": "a", "path": "a.wav", "kind": "noise"}]
        manifest = write_manifest(tmp_path / "m.jsonl", rows)
        with pytest.raises(DataError, match="duplicate"):
            load_manifest(manifest, expect_kind="noise")

    def test_bad_json_names_line(self, tmp_path, reference_corpus):
        write_wav(reference_corpus[0][1], tmp_path / "a.wav")
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "a", "path": "a.wav", "kind": "speech"}\nnot json\n')
        with pytest.raises(DataError, match=r":2: invalid JSON"):
            load_manifest(path, expect_kind="speech")

    def test_unknown_kind_rejected(self, tmp_path, reference_corpus):
        wav = tmp_path / "a.wav"
        write_wav(reference_corpus[0][1], wav)
        manifest = write_manifest(tmp_path / "m.jsonl",
                                  [{"id": "a", "path": "a.wav", "kind": "music"}])
        with pytest.raises(DataError, match=":1: expected kind 'speech', got 'music'"):
            load_manifest(manifest, expect_kind="speech")

    def test_kind_mismatch_rejected(self, tmp_path, reference_corpus):
        wav = tmp_path / "a.wav"
        write_wav(reference_corpus[0][1], wav)
        manifest = write_manifest(tmp_path / "m.jsonl",
                                  [{"id": "a", "path": "a.wav", "kind": "noise"}])
        with pytest.raises(DataError, match=":1: expected kind 'speech', got 'noise'"):
            load_manifest(manifest, expect_kind="speech")

    def test_missing_file_raises_filenotfound(self, tmp_path):
        manifest = write_manifest(tmp_path / "m.jsonl",
                                  [{"id": "a", "path": "gone.wav", "kind": "speech"}])
        with pytest.raises(FileNotFoundError):
            load_manifest(manifest, expect_kind="speech")

    def test_missing_file_tolerated_when_disabled(self, tmp_path):
        manifest = write_manifest(tmp_path / "m.jsonl",
                                  [{"id": "a", "path": "gone.wav", "kind": "speech"}])
        entries = load_manifest(manifest, expect_kind="speech", require_exists=False)
        assert entries[0].id == "a"

    def test_keys_not_read_are_ignored(self, tmp_path):
        manifest = write_manifest(tmp_path / "m.jsonl",
                                  [{"id": "a", "path": "a.wav", "kind": "speech",
                                    "duration_s": "about a second"}])
        assert load_manifest(manifest, expect_kind="speech", require_exists=False)[0].id == "a"

    def test_empty_manifest_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("")
        with pytest.raises(DataError, match="empty manifest"):
            load_manifest(path, expect_kind="speech")

    def test_bank_loaders(self, disk_assets):
        noises = load_noise_bank(disk_assets["noise"])
        rirs = load_rir_bank(disk_assets["rir"])
        assert len(noises) == 2 and len(rirs) == 2
        assert {r.room_class for r in rirs} == {"small", "medium"}
        assert all(rms(nw) > 0 for nw in noises)

    def test_bad_room_class_rejected(self, tmp_path, reference_corpus):
        wav = tmp_path / "r.wav"
        write_wav(reference_corpus[0][1], wav)
        manifest = write_manifest(tmp_path / "m.jsonl",
                                  [{"id": "r", "path": "r.wav", "kind": "rir",
                                    "room_class": "hangar"}])
        with pytest.raises(DataError):
            load_manifest(manifest, expect_kind="rir")
