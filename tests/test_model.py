"""Teacher surrogate and student: shapes, initialization, and parameter hygiene."""

import numpy as np
import pytest

import distilrobust.tensor as T
from distilrobust.errors import ConfigError, ShapeError
from distilrobust.model import (
    DECONV_STRIDES,
    FRAME_STRIDE,
    TeacherSurrogate,
    init_student_from_teacher,
    parameter_checksum,
    student_forward,
    teacher_forward,
)


@pytest.fixture(scope="module")
def teacher():
    return TeacherSurrogate(dim=16, seed=100)


def student_of(teacher, seed=1, enhancement=False):
    return init_student_from_teacher(teacher, enhancement, seed)


@pytest.fixture(scope="module")
def wave():
    """One utterance as a batch of one."""
    rng = np.random.default_rng(8)
    return 0.3 * rng.standard_normal((1, 3200))


class TestTeacher:
    def test_layer_count_and_frame_math(self, teacher, wave):
        maps = teacher_forward(teacher, wave)
        assert sorted(maps) == list(range(1, 13))
        # 3200 samples at stride 320 -> 10 frames per layer
        for arr in maps.values():
            assert arr.shape == (10, 16)

    def test_deterministic_forward(self, teacher, wave):
        a = teacher_forward(teacher, wave)
        b = teacher_forward(teacher, wave)
        for l in a:
            np.testing.assert_array_equal(a[l], b[l])

    def test_seed_changes_weights(self, wave):
        t1 = TeacherSurrogate(dim=16, seed=1)
        t2 = TeacherSurrogate(dim=16, seed=2)
        a = teacher_forward(t1, wave)[4]
        b = teacher_forward(t2, wave)[4]
        assert not np.allclose(a, b)

    def test_parameters_frozen(self, teacher):
        arr = teacher.params["frontend.kernel"].values
        with pytest.raises(ValueError):
            arr[0] = 0.0

    def test_checksum_stable_and_sensitive(self, teacher):
        assert teacher.checksum() == teacher.checksum()
        other = TeacherSurrogate(dim=16, seed=101)
        assert other.checksum() != teacher.checksum()

    def test_nonpositive_dim_rejected(self):
        with pytest.raises(ConfigError, match="dim"):
            TeacherSurrogate(dim=0)

    def test_too_short_input_rejected(self, teacher):
        with pytest.raises(ShapeError):
            teacher_forward(teacher, np.ones((1, 10)))


class TestStudentInit:
    def test_prefix_copied_bit_for_bit(self, teacher):
        student = student_of(teacher)
        for name in ("frontend.kernel", "block1.w1", "block1.b1", "block2.w2"):
            np.testing.assert_array_equal(student.params["encoder." + name].values,
                                          teacher.params[name].values)

    def test_heads_created_per_distill_layer(self, teacher):
        student = student_of(teacher)
        for l in (4, 8, 12):
            assert f"head.{l}.w" in student.params
            assert f"head.{l}.b" in student.params
        assert not student.has_enhancement()

    def test_enhancement_parameters_present(self, teacher):
        student = student_of(teacher, enhancement=True)
        assert student.has_enhancement()
        for i in range(1, 8):
            assert f"enhancement.deconv{i}.kernel" in student.params
        assert "enhancement.rnn.w_x" in student.params

    def test_deconv_strides_must_multiply_to_stride(self):
        assert np.prod(DECONV_STRIDES) == FRAME_STRIDE

    def test_deconv_layer_count_enforced(self):
        assert len(DECONV_STRIDES) == 7

    def test_width_and_frame_come_from_teacher(self, teacher):
        student = student_of(teacher, enhancement=True)
        assert student.params["encoder.frontend.kernel"].values.shape == (FRAME_STRIDE, 1, 16)
        # the LSTM is as wide as the teacher, its two directions stacked
        assert student.params["enhancement.rnn.w_h"].values.shape == (2, 16, 64)

    def test_kernel_widths_are_the_strides(self, teacher):
        # the convolutions read their stride from these widths: the front end's
        # is its width, each deconvolution's half its width
        student = student_of(teacher, enhancement=True)
        assert teacher.params["frontend.kernel"].values.shape == (FRAME_STRIDE, 1, 16)
        for i, stride in enumerate(DECONV_STRIDES, start=1):
            assert student.params[f"enhancement.deconv{i}.kernel"].values.shape[0] == 2 * stride

    def test_everything_trainable(self, teacher):
        student = student_of(teacher, enhancement=True)
        assert all(p.requires_grad for p in student.params.values())

    def test_seed_controls_head_init(self, teacher):
        a = student_of(teacher, seed=1)
        b = student_of(teacher, seed=1)
        c = student_of(teacher, seed=2)
        np.testing.assert_array_equal(a.params["head.4.w"].values,
                                      b.params["head.4.w"].values)
        assert not np.array_equal(a.params["head.4.w"].values,
                                  c.params["head.4.w"].values)


class TestStudentForward:
    def test_prediction_shapes_match_teacher(self, teacher, wave):
        student = student_of(teacher)
        t_maps = teacher_forward(teacher, wave)
        out = student_forward(student, wave)
        for l, pred in out.predictions.items():
            assert pred.values.shape == t_maps[l].shape

    def test_copied_prefix_reproduces_teacher_layer(self, teacher, wave):
        # blocks 1..2 are bitwise copies, so the student representation on the
        # clean input must match teacher layer 2 exactly
        student = student_of(teacher)
        rep = student_forward(student, wave).representation.values
        t2 = teacher_forward(teacher, wave)[2]
        np.testing.assert_array_equal(rep, t2)
        cos = np.sum(rep * t2, axis=1) / (
            np.linalg.norm(rep, axis=1) * np.linalg.norm(t2, axis=1))
        assert np.all(cos > 0.99)

    def test_enhanced_output_matches_input_length(self, teacher):
        student = student_of(teacher, enhancement=True)
        # from one frame (320) up to just past two (641): the deconvolution stack
        # always returns more samples than it is given, and the head cuts them
        for n in (320, 639, 640, 641, 3200, 4321, 6400):
            rng = np.random.default_rng(n)
            out = student_forward(student, 0.2 * rng.standard_normal((1, n)))
            assert out.enhanced is not None
            assert out.enhanced.values.shape == (1, n)

    def test_batch_rows_are_its_utterances(self, teacher):
        # a (B, N) group gives each utterance's maps as consecutive (T, D) row blocks
        student = student_of(teacher, enhancement=True)
        batch = 0.3 * np.random.default_rng(9).standard_normal((3, 1600))
        t_maps, out = teacher_forward(teacher, batch), student_forward(student, batch)
        for b in range(3):
            rows = slice(5 * b, 5 * b + 5)
            alone = student_forward(student, batch[b : b + 1])
            for l in t_maps:
                np.testing.assert_allclose(t_maps[l][rows], teacher_forward(
                    teacher, batch[b : b + 1])[l], rtol=0, atol=1e-12)
            for l, pred in out.predictions.items():
                np.testing.assert_allclose(pred.values[rows], alone.predictions[l].values,
                                           rtol=0, atol=1e-12)
            np.testing.assert_allclose(out.enhanced.values[b], alone.enhanced.values[0],
                                       rtol=0, atol=1e-12)

    def test_enhancement_graph_shape(self, teacher, wave):
        # the waveform head must be seven stride-matched deconvolutions, each
        # followed by the smooth gate nonlinearity; the last one's output is cut
        # to the input length before its gate
        student = student_of(teacher, enhancement=True)
        out = student_forward(student, wave)
        node, ops = out.enhanced, []
        while node.op in ("gelu", "narrow", "reshape", "conv1d_transposed"):
            ops.append(node.op)
            node = node.parents[0]
        assert ops == ["gelu", "narrow", "reshape"] + \
            ["conv1d_transposed", "gelu"] * 6 + ["conv1d_transposed"]
        assert node.op == "bidir_recurrent"

    def test_no_enhancement_no_output(self, teacher, wave):
        student = student_of(teacher, enhancement=False)
        assert student_forward(student, wave).enhanced is None

    def test_missing_heads_drop_predictions(self, teacher, wave):
        student = student_of(teacher)
        stripped = {name: p for name, p in student.params.items()
                    if not name.startswith("head.")}
        bare = type(student)(stripped)
        out = student_forward(bare, wave)
        assert out.predictions == {}


class TestChecksums:
    def test_checksum_tracks_values(self, teacher):
        student = student_of(teacher)
        before = student.checksum()
        student.params["head.4.w"].values[0, 0] += 1.0
        assert student.checksum() != before

    def test_checksum_ignores_dict_order(self, teacher):
        student = student_of(teacher)
        shuffled = dict(reversed(list(student.params.items())))
        assert parameter_checksum(shuffled) == student.checksum()

