"""Named finite-difference checks covering the whole differentiable op set and
every loss, at fixed seeds. The CLI's gradcheck command and the test suite both
run these closures. An op with a batch axis is checked on one utterance and,
as `<name>_batched`, on several.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .augment import stable_hash
from .errors import ParameterError
from .losses import kd_loss, l1_freq, l1_wav
from .model import DISTILL_LAYERS


def _rng(tag: str) -> np.random.Generator:
    return np.random.default_rng(stable_hash(tag))


def _separated_pair(rng, shape, gap: float = 0.15):
    """Two arrays whose elementwise difference stays away from the |.| kink."""
    a = rng.standard_normal(shape)
    step = np.sign(rng.standard_normal(shape))
    step[step == 0] = 1.0
    b = a + step * (gap + np.abs(rng.standard_normal(shape)) * 0.5)
    return a, b


def _check_add():
    rng = _rng("add")
    return (lambda a, b: T.add(a, b)), [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))]


def _check_mul():
    rng = _rng("mul")
    return (lambda a, b: T.mul(a, b)), [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))]


def _check_scale_add():
    rng = _rng("scale_add")
    return (lambda a, b: T.scale_add(0.7, a, -1.3, b)), [rng.standard_normal((2, 5)),
                                                         rng.standard_normal((2, 5))]


def _check_linear():
    rng = _rng("linear")
    return (lambda x, w, b: T.linear(x, w, b)), [rng.standard_normal((4, 3)),
                                                 rng.standard_normal((3, 5)),
                                                 rng.standard_normal(5)]


def _check_conv1d(samples_shape=(1, 9), tag="conv1d"):
    # the kernel against a constant waveform in 3-sample frames; the batched check's
    # waveform has a ragged tail past its last frame
    rng = _rng(tag)
    samples = rng.standard_normal(samples_shape)
    return (lambda k: T.conv1d(samples, k)), [rng.standard_normal((3, 1, 4))]


def _check_conv1d_transposed(x_shape=(1, 4, 3), kw=4, tag="deconv"):
    # stride kw / 2; the batched check's is the last deconvolution layer's, 5
    rng = _rng(tag)
    return T.conv1d_transposed, [rng.standard_normal(x_shape), rng.standard_normal((kw, 3, 2))]


def _check_gelu():
    rng = _rng("gelu")
    return (lambda x: T.gelu(x)), [rng.standard_normal((3, 4))]


def _check_sigmoid():
    rng = _rng("sigmoid")
    return (lambda x: T.sigmoid(x)), [rng.standard_normal((3, 4))]


def _check_tanh():
    rng = _rng("tanh")
    return (lambda x: T.tanh(x)), [rng.standard_normal((3, 4))]


def _check_log():
    rng = _rng("log")
    return (lambda x: T.log(x)), [0.5 + np.abs(rng.standard_normal((3, 4)))]


def _check_mean():
    rng = _rng("mean")
    return (lambda x: T.mean(x)), [rng.standard_normal((4, 5))]


def _check_sum_all():
    rng = _rng("sum")
    return (lambda x: T.sum_all(x)), [rng.standard_normal((4, 5))]


def _check_narrow():
    rng = _rng("narrow")
    return (lambda x: T.narrow(x, 1, 1, 2)), [rng.standard_normal((3, 5))]


def _check_concat():
    rng = _rng("concat")
    return (lambda a, b: T.concat([a, b], axis=0)), [rng.standard_normal((2, 3)),
                                                     rng.standard_normal((4, 3))]


def _check_reshape():
    rng = _rng("reshape")
    return (lambda x: T.reshape(x, (6, 2))), [rng.standard_normal((3, 4))]


def _check_l1_distance():
    a, b = _separated_pair(_rng("l1"), (4, 3))
    return (lambda x, y: T.l1_distance(x, y)), [a, b]


def _check_cosine_sim_rows():
    rng = _rng("cosine")
    return (lambda a, b: T.cosine_sim_rows(a, b)), [1.0 + 0.5 * rng.standard_normal((3, 4)),
                                                    1.0 + 0.5 * rng.standard_normal((3, 4))]


def _check_distill_l1():
    s, h = _separated_pair(_rng("distill_l1"), (4, 3))
    return (lambda x: T.distill_l1(x, h)), [s]


def _check_distill_cosine():
    rng = _rng("distill_cosine")
    h = 1.0 + 0.5 * rng.standard_normal((3, 4))
    return (lambda x: T.distill_cosine(x, h)), [1.0 + 0.5 * rng.standard_normal((3, 4))]


def _check_stft_mag():
    # two 400-sample frames 160 apart and a 40-sample tail no frame reads; the hop does
    # not divide the window, so the overlap-add's last run is 80 wide
    return T.stft_mag, [_rng("stft").standard_normal((1, 600))]


def _check_bidir_lstm(x_shape=(1, 5, 3), tag="bidir_lstm"):
    rng = _rng(tag)
    hidden = 2
    x = rng.standard_normal(x_shape)
    directions = [(rng.standard_normal((3, 4 * hidden)) * 0.5,
                   rng.standard_normal((hidden, 4 * hidden)) * 0.5,
                   rng.standard_normal(4 * hidden) * 0.1) for _ in range(2)]  # forward first
    return T.bidir_recurrent, [x, *(np.stack(w) for w in zip(*directions))]


def _check_composition():
    rng = _rng("composition")

    samples = rng.standard_normal((2, 7))

    def fn(k, w, b):
        return T.linear(T.gelu(T.conv1d(samples, k)), w, b)

    return fn, [rng.standard_normal((3, 1, 3)), rng.standard_normal((3, 4)),
                rng.standard_normal(4)]


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


def _check_l1_wav():
    a, b = _separated_pair(_rng("l1wav"), (1, 40))
    return (lambda x, y: l1_wav(x, y)), [a, b]


def _check_l1_freq():
    # at the loss's own STFT (400 window, 160 hop, 512 bins): two frames
    rng = _rng("l1freq")
    n = 560
    clean = np.sin(2 * np.pi * 3 * np.arange(n) / n) + 0.2 * rng.standard_normal(n)
    enhanced = 2.5 * clean + rng.standard_normal(n)
    return l1_freq, [enhanced[None], clean[None]]


def _check_encoder_head():
    rng = _rng("encoder_head")
    stride, dim, hidden = 8, 3, 6
    samples = rng.standard_normal((1, 16))

    def fn(kernel, w1, b1, w2, b2, hw, hb):
        h = T.gelu(T.conv1d(samples, kernel))
        h = T.add(h, T.linear(T.gelu(T.linear(h, w1, b1)), w2, b2))
        return T.linear(h, hw, hb)

    return fn, [rng.standard_normal((stride, 1, dim)) * 0.5,
                rng.standard_normal((dim, hidden)) * 0.5, rng.standard_normal(hidden) * 0.1,
                rng.standard_normal((hidden, dim)) * 0.5, rng.standard_normal(dim) * 0.1,
                rng.standard_normal((dim, dim)) * 0.5, rng.standard_normal(dim) * 0.1]


CHECKS = {
    "add": _check_add,
    "mul": _check_mul,
    "scale_add": _check_scale_add,
    "linear": _check_linear,
    "conv1d": _check_conv1d,
    "conv1d_batched": lambda: _check_conv1d((2, 10), "conv1d_batched"),
    "conv1d_transposed": _check_conv1d_transposed,
    "conv1d_transposed_batched": lambda: _check_conv1d_transposed((2, 4, 3), 10, "deconv_batched"),
    "gelu": _check_gelu,
    "sigmoid": _check_sigmoid,
    "tanh": _check_tanh,
    "log": _check_log,
    "mean": _check_mean,
    "sum_all": _check_sum_all,
    "narrow": _check_narrow,
    "concat": _check_concat,
    "reshape": _check_reshape,
    "l1_distance": _check_l1_distance,
    "cosine_sim_rows": _check_cosine_sim_rows,
    "distill_l1": _check_distill_l1,
    "distill_cosine": _check_distill_cosine,
    "stft_mag": _check_stft_mag,
    "bidir_lstm": _check_bidir_lstm,
    "bidir_lstm_batched": lambda: _check_bidir_lstm((3, 4, 3), "bidir_lstm_batched"),
    "composition_conv_gelu_linear": _check_composition,
    "kd_loss": _check_kd_loss,
    "kd_loss_stacked": lambda: _check_kd_loss((3, 5), "kd_stacked"),
    "l1_wav": _check_l1_wav,
    "l1_freq": _check_l1_freq,
    "encoder_head": _check_encoder_head,
}


def run_suite(names=None, perturb: str | None = None, tolerance: float = 1e-4):
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
        results.append((name, T.gradcheck(fn, inputs, tolerance=tolerance)))
    return results


def _perturbed(fn):
    def wrapped(*inputs):
        # constant leaf recomputed per evaluation: finite differences see it,
        # backward does not, so the check must fail
        hidden = T.Tensor(np.asarray(np.sum(inputs[0].values)))
        return T.add(fn(*inputs), T.scale(hidden, 1.0))

    return wrapped
