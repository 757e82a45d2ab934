"""Reverse-mode autodiff engine: op semantics, backward accumulation, DRTN files."""

import inspect
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import distilrobust.tensor as T
from distilrobust.errors import DataError, NumericError, ShapeError
from distilrobust.gradchecks import CHECKS, run_suite


def leaf(values):
    return T.parameter(np.asarray(values, dtype=np.float64))


class TestForwardValues:
    def test_add_mul_scale(self):
        a, b = leaf([1.0, 2.0]), leaf([3.0, 4.0])
        np.testing.assert_array_equal(T.add(a, b).values, [4.0, 6.0])
        np.testing.assert_array_equal(T.mul(a, b).values, [3.0, 8.0])
        np.testing.assert_array_equal(T.scale(a, -2.0).values, [-2.0, -4.0])

    def test_sigmoid_symmetry(self):
        x = leaf([0.0, 50.0, -50.0])
        s = T.sigmoid(x).values
        assert s[0] == 0.5
        assert 0.0 < s[2] < 1e-20 and 1.0 - s[1] < 1e-20

    def test_gelu_fixed_points(self):
        x = leaf([0.0])
        assert T.gelu(x).values[0] == 0.0
        big = T.gelu(leaf([10.0])).values[0]
        assert big == pytest.approx(10.0, abs=1e-6)
        assert float(T.gelu(leaf(10.0)).values) == big

    def test_tanh_and_log(self):
        assert T.tanh(leaf([0.0])).values[0] == 0.0
        assert T.log(leaf([math.e])).values[0] == pytest.approx(1.0, rel=1e-15)

    def test_log_rejects_nonpositive(self):
        with pytest.raises(NumericError):
            T.log(leaf([1.0, 0.0]))

    def test_mean_sum(self):
        x = leaf([[1.0, 2.0], [3.0, 4.0]])
        assert T.mean(x).item() == 2.5
        assert T.sum_all(x).item() == 10.0

    def test_l1_distance_rows(self):
        a = leaf([[1.0, -1.0], [0.0, 2.0]])
        b = leaf([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(T.l1_distance(a, b).values, [3.0, 2.0])

    def test_cosine_rows(self):
        a = leaf([[1.0, 0.0], [1.0, 1.0]])
        b = leaf([[1.0, 0.0], [-1.0, 1.0]])
        got = T.cosine_sim_rows(a, b).values
        np.testing.assert_allclose(got, [1.0, 0.0], atol=1e-15)

    def test_cosine_zero_row_guard(self):
        a = leaf([[0.0, 0.0]])
        b = leaf([[1.0, 0.0]])
        got = T.cosine_sim_rows(a, b).values
        assert np.isfinite(got).all() and got[0] == 0.0

    def test_linear_matches_numpy(self):
        rng = np.random.default_rng(0)
        x, w, b = rng.standard_normal((4, 3)), rng.standard_normal((3, 5)), rng.standard_normal(5)
        got = T.linear(leaf(x), leaf(w), leaf(b)).values
        np.testing.assert_allclose(got, x @ w + b, atol=1e-15)

    def test_conv1d_matches_direct(self):
        # 3-sample frames of a constant waveform as rows; the 10th sample is a ragged
        # tail no frame reads
        rng = np.random.default_rng(1)
        x = rng.standard_normal(10)
        k = rng.standard_normal((3, 1, 4))
        got = T.conv1d(x[None], leaf(k)).values
        want = np.zeros((3, 4))
        for t in range(3):
            for j in range(3):
                want[t] += x[t * 3 + j] * k[j, 0]
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_conv1d_transposed_unit_kernel_identity(self):
        # halves [1] and [0] at stride 1: the input, then one zero block
        x = leaf([[[1.0], [2.0], [3.0]]])
        k = leaf([[[1.0]], [[0.0]]])
        got = T.conv1d_transposed(x, k).values[0]
        np.testing.assert_array_equal(got, [[1.0], [2.0], [3.0], [0.0]])

    def test_conv1d_transposed_stride_upsamples(self):
        x = leaf([[[1.0], [2.0]]])
        k = leaf(np.ones((4, 1, 1)))  # kernel width 4, stride 2 -> (2 + 1) * 2 samples
        got = T.conv1d_transposed(x, k).values[0]
        assert got.shape == (6, 1)
        np.testing.assert_array_equal(got[:, 0], [1.0, 1.0, 3.0, 3.0, 2.0, 2.0])

    def test_narrow_concat_reshape(self):
        x = leaf(np.arange(12.0).reshape(3, 4))
        n = T.narrow(x, 0, 1, 2)
        np.testing.assert_array_equal(n.values, x.values[1:3])
        c = T.concat([n, n], axis=1)
        assert c.shape == (2, 8)
        r = T.reshape(x, (4, 3))
        assert r.shape == (4, 3)

    def test_stft_peak_bin(self):
        sr, n = 16000, 4000
        tone = np.sin(2 * np.pi * 1000.0 * np.arange(n) / sr)
        mag = T.stft_mag(leaf(tone[None])).values[0]
        # 1 kHz at fft 512 / 16 kHz falls in bin 32
        assert int(np.argmax(mag.mean(axis=0))) == 32

    def test_op_inputs_not_mutated(self):
        vals = np.array([1.0, 2.0, 3.0])
        x = leaf(vals.copy())
        y = T.scale_add(2.0, x, 1.0, T.sigmoid(x))
        T.backward(T.sum_all(y))
        np.testing.assert_array_equal(x.values, vals)


class TestBackward:
    def test_mean_grad(self):
        x = leaf(np.arange(6.0))
        T.backward(T.mean(x))
        np.testing.assert_allclose(x.grad, np.full(6, 1 / 6), atol=1e-16)

    def test_sigmoid_grad_at_zero(self):
        x = leaf([0.0])
        T.backward(T.sum_all(T.sigmoid(x)))
        assert x.grad[0] == 0.25

    def test_diamond_graph_accumulates(self):
        x = leaf([1.0, 2.0])
        y = T.add(T.scale(x, 2.0), T.scale(x, 3.0))
        T.backward(T.sum_all(y))
        np.testing.assert_array_equal(x.grad, [5.0, 5.0])

    def test_shared_leaf_in_product(self):
        x = leaf([3.0])
        T.backward(T.sum_all(T.mul(x, x)))
        assert x.grad[0] == 6.0

    def test_repeated_backward_doubles(self):
        x = leaf([1.0, -2.0])
        loss = T.sum_all(T.mul(x, x))
        T.backward(loss)
        once = x.grad.copy()
        T.backward(loss)
        np.testing.assert_array_equal(x.grad, 2.0 * once)

    def test_intermediate_nodes_keep_no_grad(self):
        x = leaf([1.0, -2.0])
        inner = T.mul(x, x)
        T.backward(T.sum_all(T.scale(inner, 3.0)))
        assert inner.grad is None
        np.testing.assert_array_equal(x.grad, [6.0, -12.0])

    @pytest.mark.parametrize("axis", [2, -1])
    def test_concat_grad_on_last_axis(self, axis):
        rng = np.random.default_rng(4)
        a, b = leaf(rng.standard_normal((2, 3, 4))), leaf(rng.standard_normal((2, 3, 5)))
        w = rng.standard_normal((2, 3, 9))
        T.backward(T.sum_all(T.mul(T.concat([a, b], axis=axis), T.Tensor(w))))
        np.testing.assert_array_equal(a.grad, w[:, :, :4])
        np.testing.assert_array_equal(b.grad, w[:, :, 4:])

    def test_backward_requires_scalar(self):
        x = leaf([1.0, 2.0])
        with pytest.raises(ShapeError):
            T.backward(T.scale(x, 1.0))

    def test_no_graph_when_no_requires_grad(self):
        a = T.as_tensor(np.ones(3))
        out = T.sigmoid(T.scale(a, 2.0))
        assert out.parents == () and out._vjp is None

    def test_l1_distance_tie_subgradient_zero(self):
        a, b = leaf([[1.0, 2.0]]), leaf([[1.0, 2.0]])
        T.backward(T.sum_all(T.l1_distance(a, b)))
        np.testing.assert_array_equal(a.grad, [[0.0, 0.0]])
        np.testing.assert_array_equal(b.grad, [[0.0, 0.0]])

    def test_cosine_guard_keeps_grads_finite(self):
        a, b = leaf([[0.0, 0.0]]), leaf([[1.0, 1.0]])
        T.backward(T.sum_all(T.cosine_sim_rows(a, b)))
        assert np.isfinite(a.grad).all() and np.isfinite(b.grad).all()

    def test_scalar_broadcast_add_grad_shape(self):
        x, c = leaf([[1.0, 2.0], [3.0, 4.0]]), leaf(5.0)
        T.backward(T.sum_all(T.add(x, c)))
        assert x.grad.shape == (2, 2) and c.grad.shape == ()
        assert c.grad == 4.0

    def test_deep_chain_no_recursion_limit(self):
        x = leaf([1.0])
        y = x
        for _ in range(5000):
            y = T.scale(y, 1.0)
        T.backward(T.sum_all(y))
        assert x.grad[0] == 1.0

    def test_accumulation_order_stability(self):
        rng = np.random.default_rng(3)
        x = leaf(rng.standard_normal(16))
        terms = [T.scale(x, float(i)) for i in range(10)]
        left = terms[0]
        for t in terms[1:]:
            left = T.add(left, t)
        T.backward(T.sum_all(left))
        forward_order = x.grad.copy()
        x.grad = None
        right = terms[-1]
        for t in reversed(terms[:-1]):
            right = T.add(t, right)
        T.backward(T.sum_all(right))
        assert np.max(np.abs(x.grad - forward_order)) <= 1e-10


class TestParameterValidation:
    @pytest.mark.parametrize("op", [T.conv1d, T.conv1d_transposed])
    def test_conv_takes_stride_from_kernel(self, op):
        operand = "samples" if op is T.conv1d else "x"
        assert list(inspect.signature(op).parameters) == [operand, "k"]

    def test_stft_mag_takes_only_the_signal(self):
        assert list(inspect.signature(T.stft_mag).parameters) == ["x"]
        with pytest.raises(ShapeError, match="signal of 399 samples shorter than window 400"):
            T.stft_mag(leaf(np.ones((1, 399))))

    def test_conv_transposed_odd_kernel_refused(self):
        with pytest.raises(ShapeError, match="kernel width 3 is odd"):
            T.conv1d_transposed(leaf(np.ones((1, 4, 1))), leaf(np.ones((3, 1, 1))))

    def test_conv_input_shorter_than_kernel_refused(self):
        with pytest.raises(ShapeError, match="input of 3 samples shorter than kernel 4"):
            T.conv1d(np.ones((1, 3)), leaf(np.ones((4, 1, 1))))

    # the front end's waveform has one channel, so conv1d's kernel must have one input
    @pytest.mark.parametrize("op,x,match", [
        pytest.param(T.conv1d, np.ones((1, 8)),
                     r"kernel \(kw, 1, D\), got \(1, 8\) and \(4, 3, 1\)",
                     id="conv1d"),
        pytest.param(T.conv1d_transposed, leaf(np.ones((1, 8, 2))), "channel mismatch 2 vs 3",
                     id="conv1d_transposed")])
    def test_conv_channel_mismatch_refused(self, op, x, match):
        with pytest.raises(ShapeError, match=match):
            op(x, leaf(np.ones((4, 3, 1))))

    def test_conv1d_refuses_a_channel_axis(self):
        # the waveform batch is (B, N); a (B, N, 1) array is not taken for one
        with pytest.raises(ShapeError, match=r"got \(1, 8, 1\) and \(4, 1, 1\)"):
            T.conv1d(np.ones((1, 8, 1)), leaf(np.ones((4, 1, 1))))

    def test_narrow_bounds(self):
        with pytest.raises(ShapeError):
            T.narrow(leaf(np.ones((3, 2))), 0, 2, 5)

    def test_concat_rank_mismatch(self):
        with pytest.raises(ShapeError):
            T.concat([leaf(np.ones((2, 2))), leaf(np.ones(2))], axis=0)

    @pytest.mark.parametrize("axis", [3, -4])
    def test_concat_axis_out_of_range(self, axis):
        with pytest.raises(ShapeError, match=f"axis {axis}"):
            T.concat([leaf(np.ones((2, 3, 4))), leaf(np.ones((2, 3, 4)))], axis=axis)

    def test_linear_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.linear(leaf(np.ones((2, 3))), leaf(np.ones((4, 5))))


class TestGradcheckHarness:
    def test_simple_quadratic_passes(self):
        x = leaf([1.0, 2.0, 3.0])
        report = T.gradcheck(lambda v: T.sum_all(T.mul(v, v)), [x])
        assert report.passed and report.max_rel_error < 1e-6

    def test_detects_wrong_gradient(self):
        x = leaf([1.0, 2.0])

        def broken(v):
            # gradient deliberately halved relative to d(sum v^2) = 2v
            return T._node(np.asarray(np.sum(v.values ** 2)), (v,), "broken",
                           lambda g: (g * v.values,))

        report = T.gradcheck(broken, [x])
        assert not report.passed

    def test_tight_tolerance_fails(self):
        x = leaf([1.0])
        report = T.gradcheck(lambda v: T.sum_all(T.mul(v, v)), [x], tolerance=1e-20)
        assert not report.passed

    def test_nan_gradient_reads_as_nan_error(self):
        # the first input's gradient is exact and the second's is NaN: the worst
        # error must be the NaN, not the first input's tiny one
        def nan_second(a, b):
            return T._node(np.asarray(np.sum(a.values) + np.sum(b.values)), (a, b), "nan_grad",
                           lambda g: (np.full_like(a.values, float(g)),
                                      np.full_like(b.values, np.nan)))

        report = T.gradcheck(nan_second, [leaf([1.0, 2.0]), leaf([3.0])])
        assert report.per_input[0] < 1e-6 and math.isnan(report.per_input[1])
        assert math.isnan(report.max_rel_error) and not report.passed

    @pytest.mark.parametrize("name", list(CHECKS))
    def test_every_check_fails_when_perturbed(self, name):
        # the negative control of each named check: a term backward cannot see
        ((_, report),) = run_suite([name], perturb=name)
        assert not report.passed


class TestHannWindow:
    def test_periodic_form(self):
        w = T.hann_window(8)
        want = 0.5 * (1 - np.cos(2 * np.pi * np.arange(8) / 8))
        np.testing.assert_allclose(w, want, atol=1e-15)

    def test_endpoint_zero(self):
        assert T.hann_window(16)[0] == 0.0


class TestDrtnFiles:
    def test_binary_layout(self):
        arr = np.arange(6.0).reshape(2, 3)
        buf = T.tensor_to_bytes(arr)
        assert buf[:4] == b"DRTN"
        assert buf[4] == 1 and buf[5] == 2
        dims = struct.unpack_from("<2Q", buf, 6)
        assert dims == (2, 3)
        payload = np.frombuffer(buf, dtype="<f8", offset=22)
        np.testing.assert_array_equal(payload, np.arange(6.0))

    def test_round_trip_ranks(self):
        rng = np.random.default_rng(4)
        for shape in [(), (5,), (3, 4), (2, 3, 4)]:
            arr = rng.standard_normal(shape)
            back, _ = T.tensor_from_bytes(T.tensor_to_bytes(arr))
            assert back.shape == tuple(shape)
            np.testing.assert_array_equal(back, arr)

    def test_bad_magic(self):
        with pytest.raises(DataError, match="not a DRTN"):
            T.tensor_from_bytes(b"NOPE" + b"\x00" * 32)

    def test_bad_version(self):
        buf = bytearray(T.tensor_to_bytes(np.ones(2)))
        buf[4] = 9
        with pytest.raises(DataError, match="version 9"):
            T.tensor_from_bytes(bytes(buf))

    def test_truncated_payload(self):
        buf = T.tensor_to_bytes(np.ones(4))
        with pytest.raises(DataError, match="truncated"):
            T.tensor_from_bytes(buf[:-8])

    @settings(max_examples=30, deadline=None)
    @given(arr=hnp.arrays(np.float64, hnp.array_shapes(max_dims=3, max_side=5),
                          elements=st.floats(allow_nan=False, allow_infinity=False,
                                             width=64)))
    def test_bytes_round_trip_property(self, arr):
        back, end = T.tensor_from_bytes(T.tensor_to_bytes(arr))
        assert end == len(T.tensor_to_bytes(arr))
        np.testing.assert_array_equal(back, arr)


class TestBidirRecurrent:
    def _params(self, d_in, hidden, seed=0):
        rng = np.random.default_rng(seed)
        def p(shape):
            return T.parameter(0.3 * rng.standard_normal(shape))
        return [p((2, d_in, 4 * hidden)), p((2, hidden, 4 * hidden)), p((2, 4 * hidden))]

    def test_output_shape_concat(self):
        x = leaf(np.random.default_rng(5).standard_normal((1, 6, 3)))
        out = T.bidir_recurrent(x, *self._params(3, 4))
        assert out.shape == (1, 6, 8)

    def test_backward_direction_sees_future(self):
        # changing only the last frame must alter the first output row
        rng = np.random.default_rng(6)
        base = rng.standard_normal((1, 5, 2))
        params = self._params(2, 3, seed=7)
        out_a = T.bidir_recurrent(leaf(base), *params).values[0]
        bumped = base.copy()
        bumped[0, -1] += 1.0
        out_b = T.bidir_recurrent(leaf(bumped), *params).values[0]
        assert not np.allclose(out_a[0], out_b[0])
        # forward half of the first row ignores the future
        np.testing.assert_allclose(out_a[0, :3], out_b[0, :3], atol=1e-15)


def _value_and_grads(fn, arrays, seed=0):
    """Output of fn on fresh leaves, and each leaf's gradient of <output, fixed cotangent>."""
    leaves = [leaf(a) for a in arrays]
    out = fn(*leaves)
    cotangent = np.random.default_rng(seed).standard_normal(out.shape)
    T.backward(T.sum_all(T.mul(out, T.Tensor(cotangent))))
    return out.values, [p.grad for p in leaves], cotangent


def _conv1d_per_tap(x, k, stride, g):
    """Frames of a (N, 1) waveform and the kernel's adjoint, tap by tap; the waveform
    is a constant, so there is no input adjoint."""
    kw = k.shape[0]
    t_out = (x.shape[0] - kw) // stride + 1
    span = stride * (t_out - 1) + 1
    out, gk = np.zeros((t_out, k.shape[2])), np.zeros_like(k)
    for j in range(kw):
        out += x[j : j + span : stride] @ k[j]
        gk[j] = x[j : j + span : stride].T @ g
    return out, gk


def _conv1d_transposed_per_tap(x, k, stride, g):
    kw = k.shape[0]
    span = stride * (x.shape[0] - 1) + 1
    out = np.zeros(((x.shape[0] - 1) * stride + kw, k.shape[2]))
    gx, gk = np.zeros_like(x), np.zeros_like(k)
    for j in range(kw):
        out[j : j + span : stride] += x @ k[j]
        gx += g[j : j + span : stride] @ k[j].T
        gk[j] = x.T @ g[j : j + span : stride]
    return out, gx, gk


def _stft_mag_per_frame(x, window, hop, fft_size, g):
    """Magnitude and gx frame by frame, with d|X_k|/ds_n = Re(conj(X_k) e^(-2 pi i k n / N)) / |X_k|
    taken from an explicit DFT matrix."""
    win = window.size
    bins = np.arange(fft_size // 2 + 1)
    dft = np.exp(-2j * np.pi * np.outer(bins, np.arange(win)) / fft_size)
    mags, gx = [], np.zeros_like(x)
    for f in range(1 + (x.size - win) // hop):
        spectrum = dft @ (x[f * hop : f * hop + win] * window)
        mag = np.abs(spectrum)
        mags.append(mag)
        d_seg = ((g[f] / mag)[:, None] * (np.conj(spectrum)[:, None] * dft).real).sum(axis=0)
        gx[f * hop : f * hop + win] += d_seg * window
    return np.array(mags), gx


def _lstm_arrays(rng, x_shape, hidden=3):
    x = rng.standard_normal(x_shape)
    directions = [(0.5 * rng.standard_normal((x_shape[2], 4 * hidden)),
                   0.5 * rng.standard_normal((hidden, 4 * hidden)),
                   0.3 * rng.standard_normal(4 * hidden)) for _ in range(2)]  # forward first
    return [x, *(np.stack(w) for w in zip(*directions))]


# Composed reference of `tensor.bidir_recurrent`: the same LSTM built step by
# step from graph ops (about 19 nodes per step, each over the batch's (B, C)
# rows), so the fused op can be checked against a path whose gradients come
# from the generic vjps alone.


def _lstm_direction(x: T.Tensor, w_x: T.Tensor, w_h: T.Tensor, bias: T.Tensor,
                    reverse: bool) -> list[T.Tensor]:
    batch, t_steps, c_in = x.values.shape
    hidden = w_h.values.shape[0]
    h = T.Tensor(np.zeros((batch, hidden)))
    c = T.Tensor(np.zeros((batch, hidden)))
    order = range(t_steps - 1, -1, -1) if reverse else range(t_steps)
    outputs: list[T.Tensor | None] = [None] * t_steps
    for t in order:
        x_t = T.reshape(T.narrow(x, 1, t, 1), (batch, c_in))
        z = T.add(T.linear(x_t, w_x, bias), T.linear(h, w_h))
        i_g = T.sigmoid(T.narrow(z, 1, 0, hidden))
        f_g = T.sigmoid(T.narrow(z, 1, hidden, hidden))
        c_g = T.tanh(T.narrow(z, 1, 2 * hidden, hidden))
        o_g = T.sigmoid(T.narrow(z, 1, 3 * hidden, hidden))
        c = T.add(T.mul(f_g, c), T.mul(i_g, c_g))
        h = T.mul(o_g, T.tanh(c))
        outputs[t] = h
    return outputs  # type: ignore[return-value]


def composed_bidir_recurrent(x, w_x, w_h, bias) -> T.Tensor:
    """What `tensor.bidir_recurrent` computes, as a per-step graph of generic ops."""
    x = T.as_tensor(x)
    weights = [T.as_tensor(w) for w in (w_x, w_h, bias)]
    fwd, bwd = (_lstm_direction(x, *(T.reshape(T.narrow(w, 0, d, 1), w.values.shape[1:])
                                     for w in weights), reverse=d == 1)
                for d in range(2))
    batch, hidden = x.values.shape[0], weights[1].values.shape[1]
    return T.concat([T.reshape(T.concat([f, b], axis=1), (batch, 1, 2 * hidden))
                     for f, b in zip(fwd, bwd)], axis=1)


class TestFusedMatchesReference:
    """The fused recurrence and the loop-free convolutions against the paths they replace."""

    @pytest.mark.parametrize("batch,t_steps", [
        pytest.param(1, t, id=f"{t}-lstm") for t in (1, 2, 7, 50)] + [
        pytest.param(4, 6, id="4x6-lstm")])
    def test_bidir_recurrent_matches_composed(self, batch, t_steps):
        hidden = 5
        arrays = _lstm_arrays(np.random.default_rng(t_steps), (batch, t_steps, 4), hidden)
        fused, fused_grads, _ = _value_and_grads(T.bidir_recurrent, arrays)
        composed, composed_grads, _ = _value_and_grads(composed_bidir_recurrent, arrays)
        assert fused.shape == (batch, t_steps, 2 * hidden)
        np.testing.assert_allclose(fused, composed, rtol=0, atol=1e-12)
        assert len(fused_grads) == 4
        for got, want in zip(fused_grads, composed_grads):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_bidir_recurrent_is_one_node(self):
        w_x, w_h, bias = TestBidirRecurrent()._params(3, 4)
        x = leaf(np.random.default_rng(1).standard_normal((1, 6, 3)))
        out = T.bidir_recurrent(x, w_x, w_h, bias)
        assert out.op == "bidir_recurrent"
        assert out.parents == (x, w_x, w_h, bias)

    def test_bidir_recurrent_rejects_bad_shapes(self):
        x = leaf(np.ones((1, 5, 3)))
        w_x, w_h, bias = TestBidirRecurrent()._params(3, 4)
        with pytest.raises(ShapeError, match="at least one frame"):
            T.bidir_recurrent(leaf(np.ones((1, 0, 3))), w_x, w_h, bias)
        with pytest.raises(ShapeError, match="w_x"):
            T.bidir_recurrent(x, leaf(np.ones((2, 2, 16))), w_h, bias)
        # the hidden size comes from w_h, so a 3-gate state map is refused
        with pytest.raises(ShapeError,
                           match=r"w_h has shape \(2, 4, 12\), expected \(2, 4, 16\)"):
            T.bidir_recurrent(x, w_x, leaf(np.ones((2, 4, 12))), bias)
        with pytest.raises(ShapeError, match="w_x"):
            T.bidir_recurrent(x, w_x, leaf(np.ones(())), bias)
        # a direction axis of 1, and a bias without one
        with pytest.raises(ShapeError,
                           match=r"w_h has shape \(1, 4, 16\), expected \(2, 4, 16\)"):
            T.bidir_recurrent(x, w_x, leaf(w_h.values[:1]), bias)
        with pytest.raises(ShapeError, match=r"bias has shape \(16,\), expected \(2, 16\)"):
            T.bidir_recurrent(x, w_x, w_h, leaf(bias.values[0]))
        # a state map 5 wide makes every other weight the wrong width
        with pytest.raises(ShapeError,
                           match=r"w_x has shape \(2, 3, 16\), expected \(2, 3, 20\)"):
            T.bidir_recurrent(x, w_x, leaf(np.ones((2, 5, 20))), bias)

    # the model's geometry: conv1d's stride is its kernel width (320 at the
    # front end), conv1d_transposed's is half its kernel width (2 and 5)
    @pytest.mark.parametrize("op,reference,kw", [
        *[(T.conv1d, _conv1d_per_tap, kw) for kw in (2, 3, 4, 320)],
        *[(T.conv1d_transposed, _conv1d_transposed_per_tap, kw) for kw in (2, 4, 10)]])
    def test_conv_matches_per_tap_loop(self, op, reference, kw):
        stride = kw if op is T.conv1d else kw // 2
        rng = np.random.default_rng(kw * 100 + stride)
        c_in, c_out = (1 if op is T.conv1d else 3), 2
        # conv1d's waveform, a constant, with a ragged tail the last frame does not reach
        x = rng.standard_normal((kw + 4 * stride + 1, c_in) if op is T.conv1d else (6, c_in))
        k = rng.standard_normal((kw, c_in, c_out))
        if op is T.conv1d:  # its frames come back as (T, D) rows
            out, (gk,), cotangent = _value_and_grads(lambda k_: T.conv1d(x.T, k_), [k])
            pairs = zip((out, gk), reference(x, k, stride, cotangent))
        else:
            out, (gx, gk), cotangent = _value_and_grads(op, [x[None], k])
            pairs = zip((out[0], gx[0], gk), reference(x, k, stride, cotangent[0]))
        for got, want in pairs:
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_conv1d_vjp_skips_gx_of_constant_input(self):
        # the front end convolves the constant waveform: the kernel is the only
        # parent, and the vjp forms only its adjoint
        rng = np.random.default_rng(12)
        x, k = rng.standard_normal((2, 35)), leaf(rng.standard_normal((8, 1, 3)))
        out = T.conv1d(x, k)
        assert out.shape == (2 * 4, 3) and out.parents == (k,)
        g = rng.standard_normal(out.shape)
        (gk,) = out._vjp(g)
        frames = x[:, :32].reshape(8, 8)
        np.testing.assert_allclose(gk[:, 0], frames.T @ g, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("op", [T.l1_distance, T.cosine_sim_rows])
    def test_row_op_vjp_skips_constant_operand(self, op):
        # the enhancement losses' clean batch is a constant operand
        rng = np.random.default_rng(13)
        a, b, g = rng.standard_normal((3, 4)), rng.standard_normal((3, 4)), rng.standard_normal(3)
        both = op(leaf(a), leaf(b))._vjp(g)
        for const in (0, 1):
            operands = [leaf(a), leaf(b)]
            operands[const] = T.Tensor(operands[const].values)
            got = op(*operands)._vjp(g)
            assert got[const] is None
            assert got[1 - const].tobytes() == both[1 - const].tobytes()

    @pytest.mark.parametrize("win,hop", [(8, 4), (10, 4), (8, 8), (6, 9), (400, 160)])
    def test_stft_mag_matches_per_frame_loop(self, win, hop, monkeypatch):
        # l1_freq's STFT (400/160/512): the hop does not divide the window, so the
        # overlap-add's last run is 80 wide. The overlap-add holds for any window and
        # hop, so it is also run at small geometries with a 16-point FFT: the hop
        # dividing the window, equal to it, and longer than it.
        real = (win, hop) == (T.STFT_WINDOW_LENGTH, T.STFT_HOP)
        if not real:
            monkeypatch.setattr(T, "STFT_WINDOW_LENGTH", win)
            monkeypatch.setattr(T, "STFT_HOP", hop)
            monkeypatch.setattr(T, "STFT_FFT_SIZE", 16)
            monkeypatch.setattr(T, "_STFT_WINDOW", T.hann_window(win))
        window = T.hann_window(win)
        # one frame, and three with a ragged tail no frame reaches
        for n in (win, win + 2 * hop + max(1, hop // 2)):
            x = np.random.default_rng(n).standard_normal(n)
            out, (gx,), cotangent = _value_and_grads(T.stft_mag, [x[None]])
            want_out, want_gx = _stft_mag_per_frame(x, window, T.STFT_HOP, T.STFT_FFT_SIZE,
                                                    cotangent[0])
            out, gx = out[0], gx[0]
            for got, want in ((out, want_out), (gx, want_gx)):
                assert got.shape == want.shape
                # 400-term frame sums of values up to about 40: 1e-12 of the largest
                atol = 1e-12 * np.max(np.abs(want)) if real else 1e-12
                np.testing.assert_allclose(got, want, rtol=0, atol=atol)


# op, and a draw of its inputs: the batch first, then the operands its rows
# share. conv1d's batch is a constant waveform with a ragged tail its last frame
# does not reach, and its rows are read back as (B, T, D).
BATCHED_OPS = {
    "conv1d": (lambda x, k: T.reshape(T.conv1d(x, k), (len(x), -1, k.shape[2])),
               lambda rng: [rng.standard_normal((3, 17)), rng.standard_normal((5, 1, 4))]),
    "conv1d_transposed": (T.conv1d_transposed, lambda rng: [
        rng.standard_normal((3, 6, 3)), rng.standard_normal((10, 3, 2))]),
    "bidir_recurrent": (T.bidir_recurrent,
                        lambda rng: _lstm_arrays(rng, (3, 7, 4))),
    "stft_mag": (T.stft_mag, lambda rng: [rng.standard_normal((3, 700))]),
}


class TestBatchAxis:
    """Row b of a batched op is the op on utterance b alone, forward and vjp."""

    @pytest.mark.parametrize("name", sorted(BATCHED_OPS))
    def test_rows_match_batch_of_one(self, name):
        op, draw = BATCHED_OPS[name]
        arrays = draw(np.random.default_rng(len(name)))
        batch = np.asarray if name == "conv1d" else leaf  # the waveform is data
        leaves = [batch(arrays[0])] + [leaf(a) for a in arrays[1:]]
        out = op(*leaves)
        cotangent = np.random.default_rng(0).standard_normal(out.shape)
        T.backward(T.sum_all(T.mul(out, T.Tensor(cotangent))))
        summed = [np.zeros_like(a) for a in arrays[1:]]  # shared operands add up over rows
        for b in range(arrays[0].shape[0]):
            rows = [batch(arrays[0][b : b + 1])] + [leaf(a) for a in arrays[1:]]
            row = op(*rows)
            T.backward(T.sum_all(T.mul(row, T.Tensor(cotangent[b : b + 1]))))
            np.testing.assert_allclose(out.values[b], row.values[0], rtol=0, atol=1e-12)
            if batch is leaf:
                np.testing.assert_allclose(leaves[0].grad[b], rows[0].grad[0], rtol=0,
                                           atol=1e-12)
            for total, p in zip(summed, rows[1:]):
                total += p.grad
        for p, want in zip(leaves[1:], summed):
            np.testing.assert_allclose(p.grad, want, rtol=0, atol=1e-12)

