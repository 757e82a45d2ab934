"""Acceptance gate: every shipped guarantee, one printed pass/fail line each.

Each criterion is verified against an independent oracle (scalar loops, closed
forms, finite differences, byte comparisons) rather than against the library's
own internals. Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest

from distilrobust.audio import (
    RoomImpulseResponse,
    Waveform,
    convolve_rir,
    mix_at_snr,
)
from distilrobust.augment import (
    CurriculumState,
    reverb_threshold,
    sample_plan,
    snr_lower_bound,
)
from distilrobust.errors import ConfigError
from distilrobust.gradchecks import TOLERANCE, run_suite
from distilrobust.losses import kd_loss
from distilrobust.trainer import (
    TrainConfig,
    build_teacher,
    export_student,
    load_exported,
    load_metrics,
    smoothed_loss,
    train,
)

from conftest import make_reference_data


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def _rms(x):
    return math.sqrt(float(np.mean(np.asarray(x, dtype=np.float64) ** 2)))


# ---------------------------------------------------------------------------
# shared end-to-end run (criteria 7 and 9)
# ---------------------------------------------------------------------------

# Convergence threshold for the fixed desk run below, ratified by the first
# reference run of this exact configuration (measured ratio 0.587) and frozen
# thereafter. Late batches are the hardest under the curriculum (0 dB noise
# floor, reverberation always on), and the cosine term of the distillation
# loss has a positive floor at perfect agreement, so the raw ratio cannot
# approach zero on a 200-iteration desk run.
RATIFIED_RATIO = 0.65

DESK_OVERRIDES = dict(
    total_iterations=200,
    batch_size=8,
    dim=16,
    lr_peak=0.005,
    warmup_iterations=40,
    checkpoint_every=100,
    master_seed=3,
)


def desk_config(out_dir):
    cfg = TrainConfig(experiment="C1", out_dir=out_dir, **DESK_OVERRIDES)
    cfg.validate()
    return cfg


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """Full run, identical rerun, and an interrupted-plus-resumed run."""
    out_dir = str(tmp_path_factory.mktemp("desk") / "run")
    corpus, noises, rirs = make_reference_data(seed=7)

    cfg = desk_config(out_dir)
    expected_checksum = build_teacher(cfg).checksum()

    t0 = time.perf_counter()
    state = train(cfg, corpus=corpus, noise_bank=noises, rir_bank=rirs)
    full_elapsed = time.perf_counter() - t0

    def snapshot():
        metrics = open(f"{out_dir}/metrics.jsonl", "rb").read()
        final = open(f"{out_dir}/ckpt_final.drtc", "rb").read()
        return metrics, final

    full_metrics, full_final = snapshot()
    records = load_metrics(f"{out_dir}/metrics.jsonl")

    # rerun from scratch with a freshly constructed, identical config
    train(desk_config(out_dir), corpus=corpus, noise_bank=noises, rir_bank=rirs)
    rerun_metrics, rerun_final = snapshot()

    # interrupt at the midpoint checkpoint, then resume to completion
    train(desk_config(out_dir), corpus=corpus, noise_bank=noises, rir_bank=rirs,
          stop_after=100)
    train(desk_config(out_dir), corpus=corpus, noise_bank=noises, rir_bank=rirs,
          resume_from=f"{out_dir}/ckpt_000100.drtc")
    resumed_metrics, resumed_final = snapshot()
    total_elapsed = time.perf_counter() - t0

    return {
        "cfg": cfg,
        "state": state,
        "records": records,
        "expected_checksum": expected_checksum,
        "full": (full_metrics, full_final),
        "rerun": (rerun_metrics, rerun_final),
        "resumed": (resumed_metrics, resumed_final),
        "full_elapsed": full_elapsed,
        "total_elapsed": total_elapsed,
        "out_dir": out_dir,
    }


# ---------------------------------------------------------------------------
# criterion 1: distillation loss vs scalar-loop oracle
# ---------------------------------------------------------------------------

def scalar_loop_oracle(teacher_maps, student_maps, layers):
    total = 0.0
    for l in layers:
        h_map, s_map = teacher_maps[l], student_maps[l]
        frames, width = h_map.shape
        for t in range(frames):
            l1 = sum(abs(float(a) - float(b))
                     for a, b in zip(s_map[t], h_map[t])) / width
            dot = sum(float(a) * float(b) for a, b in zip(s_map[t], h_map[t]))
            ns = math.sqrt(sum(float(a) ** 2 for a in s_map[t]))
            nh = math.sqrt(sum(float(b) ** 2 for b in h_map[t]))
            cos = dot / max(ns * nh, 1e-8)
            total += l1 + math.log1p(math.exp(-cos))
    return total


def test_criterion_1_distillation_loss_oracle():
    rng = np.random.default_rng(101)
    layers = (4, 8, 12)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(30):
        teacher_maps, student_maps = {}, {}
        for l in layers:
            frames = int(rng.integers(1, 6))
            width = int(rng.integers(1, 9))
            teacher_maps[l] = rng.standard_normal((frames, width))
            student_maps[l] = rng.standard_normal((frames, width))
        got = kd_loss(teacher_maps, student_maps).item()
        want = scalar_loop_oracle(teacher_maps, student_maps, layers)
        worst = max(worst, abs(got - want))

    frames = 5
    identical = {l: rng.standard_normal((frames, 8)) for l in layers}
    identity_got = kd_loss(identical, identical).item()
    identity_want = frames * len(layers) * math.log1p(math.exp(-1.0))
    identity_diff = abs(identity_got - identity_want)
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-12 and identity_diff <= 1e-12 and elapsed < 1.0
    report(1, ok, f"distillation loss matches scalar oracle "
                  f"(max diff {worst:.2e}, identity diff {identity_diff:.2e}, "
                  f"{elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# criterion 2: curriculum schedules vs closed forms
# ---------------------------------------------------------------------------

def test_criterion_2_schedule_closed_forms():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 1_000_000))
        it = int(rng.integers(0, n + 1))
        state = CurriculumState(it, n)
        tau_want = 20.0 * (n - 2 * it) / n if 2 * it < n else 0.0
        t_want = (2.0 * it) / n if 2 * it < n else 1.0
        worst = max(worst, abs(snr_lower_bound(state) - tau_want),
                    abs(reverb_threshold(state) - t_want))

    endpoints_ok = True
    for n in (2, 3, 100, 999, 10**6):
        start = CurriculumState(0, n)
        endpoints_ok &= snr_lower_bound(start) == 20.0
        endpoints_ok &= reverb_threshold(start) == 0.0
        for it in ((n + 1) // 2, n - 1, n):
            late = CurriculumState(it, n)
            endpoints_ok &= snr_lower_bound(late) == 0.0
            endpoints_ok &= reverb_threshold(late) == 1.0

    ok = worst <= 1e-12 and endpoints_ok
    report(2, ok, f"snr floor and reverb threshold match closed forms at 1000 "
                  f"sampled iterations (max dev {worst:.2e}), endpoints exact")


# ---------------------------------------------------------------------------
# criterion 3: sampler distribution over 100k seeded draws
# ---------------------------------------------------------------------------

def test_criterion_3_sampler_distribution():
    total = 1000
    n_draws = 100_000
    counts = Counter()
    white = 0
    noise_sourced = 0
    violations = 0
    t0 = time.perf_counter()
    for k in range(n_draws):
        state = CurriculumState(k % (total + 1), total)
        plan = sample_plan(state, n_noise_files=4, n_rirs=3, seed=k)
        counts[plan.action.value] += 1
        if plan.noise_source is not None:
            noise_sourced += 1
            white += plan.noise_source == "white_noise"
        if plan.snr_db is not None:
            lo = math.ceil(snr_lower_bound(state))
            if not lo <= plan.snr_db <= 20:
                violations += 1
    elapsed = time.perf_counter() - t0

    action_dev = max(abs(counts[a] / n_draws - 0.25) for a in
                     ("a1_clean", "a2_noise", "a3_reverb", "a4_noise_reverb"))
    white_share = white / noise_sourced
    ok = (action_dev <= 0.01 and abs(white_share - 0.30) <= 0.01
          and violations == 0 and elapsed < 10.0)
    report(3, ok, f"{n_draws} draws: action freq dev {action_dev:.4f}, white "
                  f"noise share {white_share:.4f}, {violations} snr bound "
                  f"violations, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: mixing hits the requested SNR, recomputed from the addends
# ---------------------------------------------------------------------------

def test_criterion_4_snr_from_addends():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1000, 16001))
        m = int(rng.integers(500, 24001))
        clean = Waveform(0.3 * rng.standard_normal(n), 16000)
        noise = Waveform(float(rng.uniform(0.1, 1.0)) * rng.standard_normal(m), 16000)
        snr = float(rng.uniform(-5.0, 20.0))
        mixed = mix_at_snr(clean, noise, snr, seed=int(rng.integers(0, 2**32)))
        addend = mixed.samples - clean.samples
        measured = 20.0 * math.log10(_rms(clean.samples) / _rms(addend))
        worst = max(worst, abs(measured - snr))
    ok = worst <= 0.01
    report(4, ok, f"100 random mixtures: SNR recomputed from addends within "
                  f"{worst:.2e} dB of the request")


# ---------------------------------------------------------------------------
# criterion 5: reverberation vs a direct O(N*K) convolution
# ---------------------------------------------------------------------------

def direct_convolution(x, taps):
    n, k = len(x), len(taps)
    out = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for j in range(min(k, i + 1)):
            acc += taps[j] * x[i - j]
        out[i] = acc
    return out


def test_criterion_5_reverb_against_direct_convolution():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(100, 1001))
        k = int(rng.integers(1, 65))
        x = 0.5 * rng.standard_normal(n)
        taps = rng.standard_normal(k) * np.exp(-np.arange(k) / 20.0)
        wave = Waveform(x, 16000)
        rir = RoomImpulseResponse(taps, 16000, "small")
        got = convolve_rir(wave, rir).samples
        want = direct_convolution(x, taps)
        want = want * (_rms(x) / _rms(want))
        worst = max(worst, float(np.max(np.abs(got - want))))

    x = 0.4 * rng.standard_normal(400)
    impulse_out = convolve_rir(Waveform(x, 16000),
                               RoomImpulseResponse(np.array([1.0]), 16000, "small"))
    impulse_exact = np.array_equal(impulse_out.samples, x)

    ok = worst <= 1e-6 and impulse_exact
    report(5, ok, f"20 reverb cases within {worst:.2e} of the direct O(N*K) "
                  f"convolution, unit impulse exact")


# ---------------------------------------------------------------------------
# criterion 6: finite-difference checks of every op and every full loss
# ---------------------------------------------------------------------------

def test_criterion_6_gradient_suite():
    t0 = time.perf_counter()
    results = run_suite()
    elapsed = time.perf_counter() - t0
    names = {name for name, _ in results}
    worst = max(r.max_rel_error for _, r in results)
    all_passed = all(r.passed for _, r in results)
    covers_losses = {"kd_loss", "l1_wav", "l1_freq", "stft_mag"} <= names
    ok = all_passed and worst < TOLERANCE and covers_losses and elapsed < 60.0
    report(6, ok, f"{len(results)} gradient checks pass (max rel err "
                  f"{worst:.2e}, {elapsed:.1f}s), losses included")


# ---------------------------------------------------------------------------
# criterion 7: desk training run converges, reruns and resumes byte-identically
# ---------------------------------------------------------------------------

def test_criterion_7_desk_run(desk_run):
    records = desk_run["records"]
    s10 = smoothed_loss(records, 10)
    s200 = smoothed_loss(records, 200)
    ratio = s200 / s10
    rerun_identical = desk_run["rerun"] == desk_run["full"]
    resume_identical = desk_run["resumed"] == desk_run["full"]
    ok = (ratio < RATIFIED_RATIO and rerun_identical and resume_identical
          and desk_run["full_elapsed"] < 300.0)
    report(7, ok, f"desk run: smoothed loss {s10:.2f} -> {s200:.2f} "
                  f"(ratio {ratio:.3f} < {RATIFIED_RATIO}), rerun "
                  f"{'identical' if rerun_identical else 'DIFFERS'}, resume "
                  f"{'identical' if resume_identical else 'DIFFERS'}, "
                  f"{desk_run['full_elapsed']:.0f}s full / "
                  f"{desk_run['total_elapsed']:.0f}s incl. rerun+resume")


# ---------------------------------------------------------------------------
# criterion 8: each experiment fixes its method
# ---------------------------------------------------------------------------

def test_criterion_8_experiment_presets(tmp_path):
    expected = {
        "A": (False, "none", 0.0),
        "B": (True, "none", 0.0),
        "C1": (True, "l1_wav", 10.0),
        "C2": (True, "l1_freq", 1.0),
    }
    table_ok = True
    for experiment, want in expected.items():
        method = TrainConfig.from_dict({"experiment": experiment, "out_dir": str(tmp_path)}).method
        table_ok &= (method.curriculum, method.enhancement_loss, method.lambda_weight) == want

    rejected = 0
    invalid = [
        ("A", {"lambda_weight": 1.0}),
        ("A", {"curriculum": True}),
        ("A", {"enhancement_loss": "l1_wav"}),
        ("B", {"lambda_weight": 10.0}),
        ("B", {"enhancement_loss": "l1_freq"}),
        ("C1", {"lambda_weight": 5.0}),
        ("C1", {"enhancement_loss": "l1_freq"}),
        ("C1", {"curriculum": False}),
        ("C2", {"lambda_weight": 10.0}),
        ("C2", {"enhancement_loss": "l1_wav"}),
    ]
    for experiment, overrides in invalid:
        try:
            TrainConfig.from_dict(dict(overrides, experiment=experiment, out_dir=str(tmp_path)))
        except ConfigError:
            rejected += 1

    ok = table_ok and rejected == len(invalid)
    report(8, ok, f"experiments fix curriculum/enhancement/weight exactly; "
                  f"{rejected}/{len(invalid)} invalid combinations rejected")


# ---------------------------------------------------------------------------
# criterion 9: frozen teacher, encoder-only export
# ---------------------------------------------------------------------------

def test_criterion_9_frozen_teacher_and_export(desk_run, tmp_path):
    cfg = desk_run["cfg"]
    state = desk_run["state"]
    checksum_ok = (state.teacher_checksum == desk_run["expected_checksum"]
                   and build_teacher(cfg).checksum() == desk_run["expected_checksum"])

    export_path = str(tmp_path / "student_export.drtc")
    export_student(state, export_path)
    exported = load_exported(export_path)
    names = sorted(exported.params)
    encoder_only = (names and all(n.startswith("encoder.") for n in names)
                    and not any("head." in n or "enhancement." in n for n in names))
    trained_encoder = [n for n in sorted(state.student.params)
                       if n.startswith("encoder.")]
    values_ok = (names == trained_encoder
                 and all(np.array_equal(exported.params[n].values,
                                        state.student.params[n].values)
                         for n in names))

    ok = checksum_ok and encoder_only and values_ok
    report(9, ok, f"teacher checksum unchanged through training; export holds "
                  f"{len(names)} encoder tensors, no prediction or enhancement "
                  f"parameters")
