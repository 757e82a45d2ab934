"""Finite-difference gradient checking: the harness with its one step and
tolerance, and named checks of the whole differentiable op set and every loss
at fixed seeds, which the CLI's gradcheck command and the test suite both run.
An op with a batch axis is checked on one utterance and, as `<name>_batched`,
on several. The worst healthy check, `stft_mag`, reads 3.8e-10, so `TOLERANCE`
also fails an adjoint that is wrong only where the Hann window is near zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .augment import stable_hash
from .errors import ParameterError
from .losses import kd_loss, l1_freq, l1_wav
from .model import DISTILL_LAYERS

FD_STEP = 1e-5
TOLERANCE = 1e-7


@dataclass
class GradcheckReport:
    """Analytic-vs-numeric comparison for one closure."""

    per_input: list[float]

    @property
    def max_rel_error(self) -> float:
        """The worst input's error; NaN if any input's is, so a NaN gradient fails."""
        return float(np.max(self.per_input)) if self.per_input else 0.0

    @property
    def passed(self) -> bool:
        return self.max_rel_error < TOLERANCE


def gradcheck(fn, inputs) -> GradcheckReport:
    """Compare backward() gradients against central differences of step `FD_STEP`.

    Non-scalar closures are reduced with a fixed random projection so the
    whole Jacobian is exercised. Relative error per input is
    max|analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    inputs = [T.as_tensor(x) for x in inputs]
    for t in inputs:
        t.requires_grad = True
        t.grad = None
    out = fn(*inputs)
    coeffs = (None if out.values.size == 1
              else np.random.default_rng(0xC0FFEE).standard_normal(out.values.shape))

    def scalar(y: T.Tensor) -> T.Tensor:
        return y if coeffs is None else T.sum_all(T.mul(y, T.Tensor(coeffs)))

    T.backward(scalar(out))
    report = GradcheckReport(per_input=[])
    for t in inputs:
        ana = np.zeros_like(t.values) if t.grad is None else t.grad.copy()
        num = np.zeros_like(t.values)
        flat = t.values.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            f_plus = scalar(fn(*inputs)).item()
            flat[i] = orig - FD_STEP
            f_minus = scalar(fn(*inputs)).item()
            flat[i] = orig
            num.reshape(-1)[i] = (f_plus - f_minus) / (2.0 * FD_STEP)
        scale_ = max(1.0, float(np.max(np.abs(ana))), float(np.max(np.abs(num))))
        report.per_input.append(float(np.max(np.abs(ana - num))) / scale_)
    return report


def _rng(tag: str) -> np.random.Generator:
    return np.random.default_rng(stable_hash(tag))


def _normal(tag: str, *shapes) -> list[np.ndarray]:
    """Standard-normal draws of the given shapes, in order, from the tag's stream."""
    rng = _rng(tag)
    return [rng.standard_normal(shape) for shape in shapes]


def _separated_pair(rng, shape, gap: float = 0.15):
    """Two arrays whose elementwise difference stays away from the |.| kink."""
    a = rng.standard_normal(shape)
    step = np.sign(rng.standard_normal(shape))
    step[step == 0] = 1.0
    b = a + step * (gap + np.abs(rng.standard_normal(shape)) * 0.5)
    return a, b


def _check_conv1d(samples_shape=(1, 9), tag="conv1d"):
    # the kernel against a constant waveform in 3-sample frames; the batched check's
    # waveform has a ragged tail past its last frame
    samples, kernel = _normal(tag, samples_shape, (3, 1, 4))
    return (lambda k: T.conv1d(samples, k)), [kernel]


def _check_conv1d_transposed(x_shape=(1, 4, 3), kw=4, tag="deconv"):
    # stride kw / 2; the batched check's is the last deconvolution layer's, 5
    return T.conv1d_transposed, _normal(tag, x_shape, (kw, 3, 2))


def _check_cosine_sim_rows():
    return T.cosine_sim_rows, [1.0 + 0.5 * x for x in _normal("cosine", (3, 4), (3, 4))]


def _check_distill_l1():
    s, h = _separated_pair(_rng("distill_l1"), (4, 3))
    return (lambda x: T.distill_l1(x, h)), [s]


def _check_distill_cosine():
    h, s = (1.0 + 0.5 * x for x in _normal("distill_cosine", (3, 4), (3, 4)))
    return (lambda x: T.distill_cosine(x, h)), [s]


def _check_bidir_lstm(x_shape=(1, 5, 3), tag="bidir_lstm"):
    rng = _rng(tag)
    hidden = 2
    x = rng.standard_normal(x_shape)
    directions = [(rng.standard_normal((3, 4 * hidden)) * 0.5,
                   rng.standard_normal((hidden, 4 * hidden)) * 0.5,
                   rng.standard_normal(4 * hidden) * 0.1) for _ in range(2)]  # forward first
    return T.bidir_recurrent, [x, *(np.stack(w) for w in zip(*directions))]


def _check_composition():
    samples, *params = _normal("composition", (2, 7), (3, 1, 3), (3, 4), 4)

    def fn(k, w, b):
        return T.linear(T.gelu(T.conv1d(samples, k)), w, b)

    return fn, params


def _check_kd_loss(frames=(3,), tag="kd"):
    # a map per distilled layer, kept off the |.| kink; with several frame counts, the
    # trainer's graph: each layer's predictions of several utterances stacked into one map
    rng = _rng(tag)
    pairs = [[_separated_pair(rng, (n, 4)) for n in frames] for _ in DISTILL_LAYERS]
    teacher = {l: np.concatenate([h for _, h in utts]) for l, utts in zip(DISTILL_LAYERS, pairs)}

    def fn(*students):
        k = len(frames)
        maps = [T.concat(list(students[i : i + k])) for i in range(0, len(students), k)]
        return kd_loss(teacher, dict(zip(DISTILL_LAYERS, maps)))

    return fn, [student for utts in pairs for student, _ in utts]


def _check_l1_freq():
    # at the loss's own STFT (400 window, 160 hop, 512 bins): two frames
    rng = _rng("l1freq")
    n = 560
    clean = np.sin(2 * np.pi * 3 * np.arange(n) / n) + 0.2 * rng.standard_normal(n)
    enhanced = 2.5 * clean + rng.standard_normal(n)
    return l1_freq, [enhanced[None], clean[None]]


def _check_encoder_head():
    stride, dim, hidden = 8, 3, 6
    samples, *params = _normal("encoder_head", (1, 16), (stride, 1, dim), (dim, hidden), hidden,
                               (hidden, dim), dim, (dim, dim), dim)

    def fn(kernel, w1, b1, w2, b2, hw, hb):
        h = T.gelu(T.conv1d(samples, kernel))
        h = T.add(h, T.linear(T.gelu(T.linear(h, w1, b1)), w2, b2))
        return T.linear(h, hw, hb)

    return fn, [p * s for p, s in zip(params, (0.5, 0.5, 0.1, 0.5, 0.1, 0.5, 0.1))]


# name -> () -> (closure, its inputs)
CHECKS = {
    "add": lambda: (T.add, _normal("add", (3, 4), (3, 4))),
    "mul": lambda: (T.mul, _normal("mul", (3, 4), (3, 4))),
    "scale_add": lambda: (lambda a, b: T.scale_add(0.7, a, -1.3, b),
                          _normal("scale_add", (2, 5), (2, 5))),
    "linear": lambda: (T.linear, _normal("linear", (4, 3), (3, 5), 5)),
    "conv1d": _check_conv1d,
    "conv1d_batched": lambda: _check_conv1d((2, 10), "conv1d_batched"),
    "conv1d_transposed": _check_conv1d_transposed,
    "conv1d_transposed_batched": lambda: _check_conv1d_transposed((2, 4, 3), 10, "deconv_batched"),
    "gelu": lambda: (T.gelu, _normal("gelu", (3, 4))),
    "sigmoid": lambda: (T.sigmoid, _normal("sigmoid", (3, 4))),
    "tanh": lambda: (T.tanh, _normal("tanh", (3, 4))),
    "log": lambda: (T.log, [0.5 + np.abs(x) for x in _normal("log", (3, 4))]),
    "mean": lambda: (T.mean, _normal("mean", (4, 5))),
    "sum_all": lambda: (T.sum_all, _normal("sum", (4, 5))),
    "narrow": lambda: (lambda x: T.narrow(x, 1, 1, 2), _normal("narrow", (3, 5))),
    "concat": lambda: (lambda a, b: T.concat([a, b]), _normal("concat", (2, 3), (4, 3))),
    "reshape": lambda: (lambda x: T.reshape(x, (6, 2)), _normal("reshape", (3, 4))),
    "l1_distance": lambda: (T.l1_distance, _separated_pair(_rng("l1"), (4, 3))),
    "cosine_sim_rows": _check_cosine_sim_rows,
    "distill_l1": _check_distill_l1,
    "distill_cosine": _check_distill_cosine,
    # two 400-sample frames 160 apart and a 40-sample tail no frame reads; the hop does
    # not divide the window, so the overlap-add's last run is 80 wide
    "stft_mag": lambda: (T.stft_mag, _normal("stft", (1, 600))),
    "bidir_lstm": _check_bidir_lstm,
    "bidir_lstm_batched": lambda: _check_bidir_lstm((3, 4, 3), "bidir_lstm_batched"),
    "composition_conv_gelu_linear": _check_composition,
    "kd_loss": _check_kd_loss,
    "kd_loss_stacked": lambda: _check_kd_loss((3, 5), "kd_stacked"),
    "l1_wav": lambda: (l1_wav, _separated_pair(_rng("l1wav"), (1, 40))),
    "l1_freq": _check_l1_freq,
    "encoder_head": _check_encoder_head,
}


def run_suite(names=None, perturb: str | None = None):
    """Run the named checks (all by default); returns [(name, GradcheckReport)].

    `perturb` breaks the named check's closure with a term the graph cannot
    see, as a negative control of the comparison machinery itself.
    """
    selected = list(CHECKS) if names is None else list(names)
    if perturb is not None and perturb not in selected:
        raise ParameterError(f"cannot perturb {perturb!r}: it is not a selected gradcheck")
    results = []
    for name in selected:
        if name not in CHECKS:
            raise ParameterError(f"unknown gradcheck {name!r}; known: {sorted(CHECKS)}")
        fn, inputs = CHECKS[name]()
        if perturb == name:
            fn = _perturbed(fn)
        results.append((name, gradcheck(fn, inputs)))
    return results


def _perturbed(fn):
    def wrapped(*inputs):
        # constant leaf recomputed per evaluation: finite differences see it,
        # backward does not, so the check must fail
        hidden = T.Tensor(np.asarray(np.sum(inputs[0].values)))
        return T.add(fn(*inputs), T.scale(hidden, 1.0))

    return wrapped
