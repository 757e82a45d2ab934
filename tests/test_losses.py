"""Layer-wise distillation loss, waveform/spectral reconstruction terms, weighting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distilrobust.tensor as T
from distilrobust.errors import ConfigError, NumericError, ParameterError, ShapeError
from distilrobust.losses import (
    IDENTITY_COSINE_TERM,
    combined_loss,
    kd_loss,
    kd_loss_parts,
    l1_freq,
    l1_wav,
)
from distilrobust.model import DISTILL_LAYERS


def scalar_loop_reference(teacher_maps, student_maps, layers):
    """Pure-Python float evaluation of the distillation objective."""
    total = 0.0
    for l in layers:
        h_map, s_map = teacher_maps[l], student_maps[l]
        frames, width = h_map.shape
        for t in range(frames):
            l1 = sum(abs(float(a) - float(b)) for a, b in zip(s_map[t], h_map[t])) / width
            dot = sum(float(a) * float(b) for a, b in zip(s_map[t], h_map[t]))
            ns = math.sqrt(sum(float(a) ** 2 for a in s_map[t]))
            nh = math.sqrt(sum(float(b) ** 2 for b in h_map[t]))
            cos = dot / max(ns * nh, 1e-8)
            total += l1 + math.log1p(math.exp(-cos))
    return total


def random_maps(rng, layers, frames, width, spread=1.0):
    teacher, student = {}, {}
    for l in layers:
        teacher[l] = rng.standard_normal((frames, width))
        student[l] = teacher[l] + spread * rng.standard_normal((frames, width))
    return teacher, student


def composed_layer_terms(s, h):
    """A layer's (l1, cos) terms as the chain of generic ops that the fused ops replace."""
    h = T.Tensor(h)
    return (T.scale(T.sum_all(T.l1_distance(s, h)), 1.0 / h.values.shape[1]),
            T.scale(T.sum_all(T.log(T.sigmoid(T.cosine_sim_rows(s, h)))), -1.0))


class TestFusedLayerTerms:
    @pytest.mark.parametrize("guarded_row", [None, "zero student", "zero teacher",
                                             "tiny student"])
    @pytest.mark.parametrize("index,op", [(0, T.distill_l1), (1, T.distill_cosine)])
    def test_match_composed_chain(self, guarded_row, index, op):
        # a row whose norm product is at most COSINE_EPS divides by COSINE_EPS instead
        rng = np.random.default_rng(14)
        for trial in range(5):
            frames, width = int(rng.integers(1, 7)), int(rng.integers(1, 9))
            h = rng.standard_normal((frames, width))
            s = h + rng.standard_normal((frames, width))
            row = rng.integers(frames)
            if guarded_row == "zero student":
                s[row] = 0.0
            elif guarded_row == "zero teacher":
                h[row] = 0.0
            elif guarded_row == "tiny student":
                s[row] *= 1e-10 / np.linalg.norm(s[row])
            fused_leaf, chain_leaf = T.parameter(s), T.parameter(s)
            got, want = op(fused_leaf, h), composed_layer_terms(chain_leaf, h)[index]
            assert abs(got.item() - want.item()) <= 1e-12 * max(1.0, abs(want.item())), trial
            cotangent = float(rng.uniform(0.5, 2.0))
            T.backward(T.scale(got, cotangent))
            T.backward(T.scale(want, cotangent))
            np.testing.assert_allclose(fused_leaf.grad, chain_leaf.grad, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("op", [T.distill_l1, T.distill_cosine])
    def test_mismatched_maps_refused(self, op):
        with pytest.raises(ShapeError, match="student and teacher maps"):
            op(T.parameter(np.ones((2, 3))), np.ones((2, 4)))
        with pytest.raises(ShapeError, match="student and teacher maps"):
            op(T.parameter(np.ones(3)), np.ones(3))


class TestDistillLoss:
    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            frames = int(rng.integers(1, 6))
            width = int(rng.integers(1, 9))
            teacher, student = random_maps(rng, (4, 8, 12), frames, width)
            got = kd_loss(teacher, student).item()
            want = scalar_loop_reference(teacher, student, (4, 8, 12))
            assert abs(got - want) <= 1e-12, f"trial {trial}"

    def test_identity_value(self):
        rng = np.random.default_rng(1)
        frames, width = 7, 5
        maps = {l: rng.standard_normal((frames, width)) for l in (4, 8, 12)}
        got = kd_loss(maps, {l: maps[l].copy() for l in maps}).item()
        want = frames * 3 * IDENTITY_COSINE_TERM
        assert abs(got - want) <= 1e-12

    def test_identity_constant_is_log1p_exp(self):
        assert IDENTITY_COSINE_TERM == pytest.approx(math.log(1 + math.exp(-1)), abs=0)
        assert IDENTITY_COSINE_TERM == pytest.approx(0.3132616875182228, abs=1e-15)

    def test_orthogonal_rows_add_log2(self):
        # equal-norm orthogonal rows: cosine 0 -> cos term ln 2, l1 term 2/width
        frames, width = 4, 2
        teacher = {l: np.tile([1.0, 0.0], (frames, 1)) for l in DISTILL_LAYERS}
        student = {l: np.tile([0.0, 1.0], (frames, 1)) for l in DISTILL_LAYERS}
        got = kd_loss(teacher, student).item()
        want = len(DISTILL_LAYERS) * frames * (2.0 / width + math.log(2.0))
        assert abs(got - want) <= 1e-12

    def test_parts_sum_to_total(self):
        rng = np.random.default_rng(2)
        teacher, student = random_maps(rng, DISTILL_LAYERS, 3, 4)
        parts = kd_loss_parts(teacher, student)
        assert kd_loss(teacher, student).item() == pytest.approx(
            parts.l1.item() + parts.cos.item(), abs=1e-12)

    def test_layer_terms_match_scalar_loop(self):
        rng = np.random.default_rng(10)
        teacher, student = random_maps(rng, DISTILL_LAYERS, 4, 5)
        parts = kd_loss_parts(teacher, student)
        assert list(parts.layers) == list(DISTILL_LAYERS)
        for l, (l1, cos) in parts.layers.items():
            want = scalar_loop_reference(teacher, student, (l,))
            assert abs(l1.item() + cos.item() - want) <= 1e-12, l

    def test_totals_are_left_to_right_sums_of_layer_terms(self):
        rng = np.random.default_rng(11)
        parts = kd_loss_parts(*random_maps(rng, DISTILL_LAYERS, 6, 7))
        for index, total in ((0, parts.l1), (1, parts.cos)):
            a, b, c = (parts.layers[l][index].values for l in DISTILL_LAYERS)
            assert total.values.tobytes() == ((a + b) + c).tobytes()

    def test_layer_term_gradient_reaches_only_its_map(self):
        rng = np.random.default_rng(12)
        teacher, student = random_maps(rng, DISTILL_LAYERS, 3, 4)
        leaves = {l: T.parameter(student[l]) for l in DISTILL_LAYERS}
        parts = kd_loss_parts(teacher, leaves)
        T.backward(T.add(*parts.layers[4]))
        assert leaves[4].grad is not None and np.any(leaves[4].grad != 0)
        for l in DISTILL_LAYERS[1:]:
            assert leaves[l].grad is None

    def test_per_frame_cosine_terms_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = rng.standard_normal(6)
            h = rng.standard_normal(6)
            cos = float(np.dot(s, h) / max(np.linalg.norm(s) * np.linalg.norm(h), 1e-8))
            term = math.log1p(math.exp(-cos))
            assert IDENTITY_COSINE_TERM - 1e-12 <= term <= math.log1p(math.exp(1.0)) + 1e-12

    def test_frame_permutation_invariance(self):
        rng = np.random.default_rng(4)
        teacher, student = random_maps(rng, DISTILL_LAYERS, 6, 3)
        perm = rng.permutation(6)
        permuted_t = {l: teacher[l][perm] for l in DISTILL_LAYERS}
        permuted_s = {l: student[l][perm] for l in DISTILL_LAYERS}
        a = kd_loss(teacher, student).item()
        b = kd_loss(permuted_t, permuted_s).item()
        assert abs(a - b) <= 1e-12

    def test_sum_not_mean_over_frames(self):
        rng = np.random.default_rng(5)
        teacher, student = random_maps(rng, DISTILL_LAYERS, 3, 4)
        doubled_t = {l: np.vstack([teacher[l], teacher[l]]) for l in DISTILL_LAYERS}
        doubled_s = {l: np.vstack([student[l], student[l]]) for l in DISTILL_LAYERS}
        single = kd_loss(teacher, student).item()
        double = kd_loss(doubled_t, doubled_s).item()
        assert double == pytest.approx(2.0 * single, rel=1e-12)

    def test_stacked_utterances_sum(self):
        # the trainer's batch call: each layer's frames of several utterances stacked
        rng = np.random.default_rng(9)
        layers = DISTILL_LAYERS
        utterances = [random_maps(rng, layers, frames, 5) for frames in (3, 5)]
        leaves = [{l: T.parameter(student[l]) for l in layers} for _, student in utterances]
        separate = [kd_loss_parts(teacher, own) for (teacher, _), own in zip(utterances, leaves)]
        stacked_leaves = [{l: T.parameter(student[l]) for l in layers}
                          for _, student in utterances]
        stacked = kd_loss_parts(
            {l: np.concatenate([teacher[l] for teacher, _ in utterances]) for l in layers},
            {l: T.concat([own[l] for own in stacked_leaves]) for l in layers})
        for part in ("l1", "cos"):
            want = sum(getattr(parts, part).item() for parts in separate)
            assert abs(getattr(stacked, part).item() - want) <= 1e-12, part
        for parts in separate:
            T.backward(T.add(parts.l1, parts.cos))
        T.backward(T.add(stacked.l1, stacked.cos))
        for own, stacked_own in zip(leaves, stacked_leaves):
            for l in layers:
                assert stacked_own[l].grad.tobytes() == own[l].grad.tobytes()

    def test_missing_layer_named(self):
        maps = {l: np.ones((2, 2)) for l in DISTILL_LAYERS}
        partial = {4: np.ones((2, 2)), 12: np.ones((2, 2))}
        with pytest.raises(ConfigError, match="layer 8 missing from student"):
            kd_loss(maps, partial)
        with pytest.raises(ConfigError, match="layer 8 missing from teacher"):
            kd_loss(partial, maps)

    def test_shape_mismatch_named(self):
        teacher = {l: np.ones((2, 3)) for l in DISTILL_LAYERS}
        student = {**teacher, 8: np.ones((2, 4))}
        with pytest.raises(ShapeError, match="layer 8: teacher"):
            kd_loss(teacher, student)
        flat = {**teacher, 12: np.ones(3)}
        with pytest.raises(ShapeError, match=r"layer 12: features must be \(T, D\)"):
            kd_loss(flat, flat)

    def test_gradients_flow_to_student_only_when_teacher_constant(self):
        rng = np.random.default_rng(7)
        teacher, student = random_maps(rng, DISTILL_LAYERS, 3, 4)
        leaves = {l: T.parameter(student[l]) for l in DISTILL_LAYERS}
        T.backward(kd_loss(teacher, leaves))
        for leaf in leaves.values():
            assert leaf.grad is not None
            assert np.isfinite(leaf.grad).all()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 31))
    def test_scalar_loop_property(self, seed):
        rng = np.random.default_rng(seed)
        frames = int(rng.integers(1, 5))
        width = int(rng.integers(1, 8))
        teacher, student = random_maps(rng, DISTILL_LAYERS, frames, width,
                                       spread=float(rng.uniform(0, 3)))
        got = kd_loss(teacher, student).item()
        want = scalar_loop_reference(teacher, student, DISTILL_LAYERS)
        assert abs(got - want) <= 1e-12


class TestWaveformLoss:
    def test_identity_zero(self):
        x = np.random.default_rng(0).standard_normal((1, 100))
        assert l1_wav(T.as_tensor(x), T.as_tensor(x.copy())).item() == 0.0

    def test_constant_offset(self):
        a = np.zeros((1, 50))
        b = np.full((1, 50), 0.125)
        assert l1_wav(T.as_tensor(a), T.as_tensor(b)).item() == 0.125

    def test_matches_numpy_mean(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((1, 321)), rng.standard_normal((1, 321))
        got = l1_wav(T.as_tensor(a), T.as_tensor(b)).item()
        assert got == pytest.approx(float(np.mean(np.abs(a - b))), abs=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal((1, 64)), rng.standard_normal((1, 64))
        assert l1_wav(T.as_tensor(a), T.as_tensor(b)).item() == \
            l1_wav(T.as_tensor(b), T.as_tensor(a)).item()

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            l1_wav(T.as_tensor(np.ones((1, 10))), T.as_tensor(np.ones((1, 11))))


class TestSpectralLoss:
    def test_identity_zero(self):
        x = np.random.default_rng(3).standard_normal((1, 1000))
        assert l1_freq(T.as_tensor(x), T.as_tensor(x.copy())).item() == 0.0

    def test_matches_numpy_oracle(self):
        # the loss's STFT: a periodic 400-sample Hann window, a 160 hop, 512 bins
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal(1200), rng.standard_normal(1200)
        got = l1_freq(T.as_tensor(a[None]), T.as_tensor(b[None])).item()
        window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(400) / 400)

        def mag(x):
            frames = []
            for start in range(0, len(x) - 400 + 1, 160):
                seg = x[start:start + 400] * window
                frames.append(np.abs(np.fft.rfft(seg, n=512)))
            return np.array(frames)

        want = float(np.mean(np.abs(mag(a) - mag(b))))
        assert got == pytest.approx(want, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((1, 800)), rng.standard_normal((1, 800))
        assert l1_freq(T.as_tensor(a), T.as_tensor(b)).item() == \
            l1_freq(T.as_tensor(b), T.as_tensor(a)).item()

    def test_input_shorter_than_window_rejected(self):
        with pytest.raises(ShapeError):
            l1_freq(T.as_tensor(np.ones((1, 100))), T.as_tensor(np.ones((1, 100))))


class TestCombinedLoss:
    def test_weighted_sum_example(self):
        breakdown = combined_loss(T.Tensor(0.75), T.Tensor(0.25), T.Tensor(0.5), 10.0)
        assert breakdown.combined == 6.0
        assert breakdown.tensor.item() == 6.0

    def test_no_enhancement_passthrough(self):
        breakdown = combined_loss(T.Tensor(3.0), T.Tensor(0.25), None, 0.0)
        assert breakdown.combined == 3.25
        assert (breakdown.kd_l1, breakdown.kd_cos) == (3.0, 0.25)
        assert breakdown.enh is None

    def test_bit_exact_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            l1_val, cos_val = (float(v) for v in rng.uniform(0, 50, size=2))
            kd_val = l1_val + cos_val
            enh_val = float(rng.uniform(0, 10))
            lam = float(rng.uniform(0, 20))
            breakdown = combined_loss(T.Tensor(l1_val), T.Tensor(cos_val), T.Tensor(enh_val),
                                      lam)
            assert breakdown.combined == kd_val + lam * enh_val

    def test_parts_breakdown_dict(self):
        rng = np.random.default_rng(7)
        teacher, student = random_maps(rng, DISTILL_LAYERS, 2, 3)
        parts = kd_loss_parts(teacher, student)
        breakdown = combined_loss(parts.l1, parts.cos, T.Tensor(0.25), 2.0)
        assert breakdown.enh == 0.25
        assert breakdown.combined == pytest.approx(
            breakdown.kd_l1 + breakdown.kd_cos + 2.0 * breakdown.enh, abs=1e-12)

    def test_zero_lambda_blocks_enhancement_gradient(self):
        rng = np.random.default_rng(8)
        enh_param = T.parameter(rng.standard_normal((1, 16)))
        clean = T.as_tensor(rng.standard_normal((1, 16)))
        enh_term = l1_wav(enh_param, clean)
        teacher, student = random_maps(rng, DISTILL_LAYERS, 2, 3)
        kd_param = T.parameter(student[4])
        parts = kd_loss_parts(teacher, {**student, 4: kd_param})
        breakdown = combined_loss(parts.l1, parts.cos, enh_term, 0.0)
        T.backward(breakdown.tensor)
        assert kd_param.grad is not None and np.any(kd_param.grad != 0)
        assert enh_param.grad is None or not enh_param.grad.any()

    def test_negative_lambda_rejected(self):
        with pytest.raises(ParameterError):
            combined_loss(T.Tensor(1.0), T.Tensor(0.0), T.Tensor(1.0), -1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            combined_loss(T.Tensor(np.nan), T.Tensor(0.0), None, 0.0)
