"""Minimal reverse-mode autodiff over float64 numpy buffers.

Nodes record their parents and a vector-Jacobian closure when any input
requires gradients; `backward` walks the graph once per call and adds the
resulting adjoints into the leaves' `.grad`, so repeated calls accumulate. Every op
allocates fresh output buffers and never mutates its inputs. `gradchecks.py` checks
every vjp here against central finite differences.

The ops that see time take a leading batch axis of equal-length utterances,
and a single utterance is a batch of one: `conv1d` maps a constant (B, N)
waveform batch to (B*T, D) rows, `conv1d_transposed` (B, T, C) to (B, T', C'),
`bidir_recurrent` (B, T, C) to (B, T, 2H), and `stft_mag` (B, N) to (B, frames,
bins). Every other op is row-wise or elementwise, so a batch goes through it as
stacked (B*T, D) rows.

Sequence ops are single nodes with hand-written vjps: `bidir_recurrent` stacks
both directions on a leading axis, in each weight and in its (2, B, H) state,
steps them in a plain numpy loop and backpropagates through time in one vjp.
The two ops that touch raw signal take exactly the model's call: `conv1d`, the
front end, frames the waveform by its kernel width, and the kernel is its only
parent; `stft_mag` has `l1_freq`'s one geometry (`STFT_*`), frames with a
strided window view and overlap-adds the frames' adjoint. A `conv1d_transposed`
kernel is two stride-wide halves, whose products are two contiguous slices of
the output added together. `tests/test_tensor.py` keeps the per-step composed
recurrence as the reference of `bidir_recurrent`.

A distilled layer's two loss terms, `distill_l1` and `distill_cosine`, are one
node each. The student map is their only graph operand and the teacher map a
constant array, so each vjp forms only the student's adjoint; `tests/test_losses.py`
keeps the composed chain of generic ops as their reference.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import DataError, NumericError, ShapeError

COSINE_EPS = 1e-8

_GELU_C1 = math.sqrt(2.0 / math.pi)
_GELU_C2 = 0.044715


class Tensor:
    """Value buffer plus optional gradient and graph-edge record."""

    __slots__ = ("values", "requires_grad", "grad", "parents", "op", "_vjp")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.parents: tuple[Tensor, ...] = ()
        self.op: str | None = None
        self._vjp = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.values.shape}")
        return float(self.values.reshape(()))

    def __repr__(self):
        tag = self.op or ("param" if self.requires_grad else "const")
        return f"Tensor(shape={self.values.shape}, op={tag})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(values) -> Tensor:
    return Tensor(values, requires_grad=True)


def _node(values: np.ndarray, parents: tuple[Tensor, ...], op: str, vjp) -> Tensor:
    out = Tensor(values)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.parents = parents
        out.op = op
        out._vjp = vjp
    return out


def backward(loss: Tensor):
    """Accumulate `.grad` on every leaf (parameter) reachable from loss.

    Intermediate adjoints live only for the call, so calling twice without
    zeroing doubles the leaf gradients and stores nothing else.
    """
    if loss.values.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.values.shape}")
    if not loss.requires_grad:
        return

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    adjoint: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.values)}
    for node in reversed(topo):
        g = adjoint.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            if node.grad is None:
                node.grad = np.zeros_like(node.values)
            node.grad = node.grad + g
            continue
        for p, contrib in zip(node.parents, node._vjp(g)):
            if contrib is None or not p.requires_grad:
                continue
            prev = adjoint.get(id(p))
            adjoint[id(p)] = contrib if prev is None else prev + contrib


def zero_grads(tensors):
    for t in tensors:
        t.grad = None


def _check_same_shape(a: Tensor, b: Tensor, op: str):
    if a.values.shape != b.values.shape:
        raise ShapeError(f"{op}: shape {a.values.shape} vs {b.values.shape}")


# ---------------------------------------------------------------------------
# elementwise and reduction ops


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    a_scalar, b_scalar = a.values.size == 1, b.values.size == 1
    if not (a_scalar or b_scalar):
        _check_same_shape(a, b, "add")
    out = a.values + b.values

    def vjp(g):
        ga = g if g.shape == a.values.shape else np.sum(g).reshape(a.values.shape)
        gb = g if g.shape == b.values.shape else np.sum(g).reshape(b.values.shape)
        return ga, gb

    return _node(out, (a, b), "add", vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_same_shape(a, b, "mul")

    def vjp(g):
        return g * b.values, g * a.values

    return _node(a.values * b.values, (a, b), "mul", vjp)


def scale(a, alpha: float) -> Tensor:
    a = as_tensor(a)
    alpha = float(alpha)
    return _node(a.values * alpha, (a,), "scale", lambda g: (g * alpha,))


def scale_add(alpha: float, a, beta: float, b) -> Tensor:
    """alpha*a + beta*b; beta of exactly 0 still routes (zero) adjoints to b."""
    a, b = as_tensor(a), as_tensor(b)
    _check_same_shape(a, b, "scale_add")
    alpha, beta = float(alpha), float(beta)
    return _node(alpha * a.values + beta * b.values, (a, b), "scale_add",
                 lambda g: (alpha * g, beta * g))


def sub_from(a, b) -> Tensor:
    """a - b as a graph op."""
    return add(a, scale(b, -1.0))


def _sigmoid_values(v: np.ndarray) -> np.ndarray:
    # stable in both tails
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    s = _sigmoid_values(x.values)
    return _node(s, (x,), "sigmoid", lambda g: (g * s * (1.0 - s),))


def tanh(x) -> Tensor:
    x = as_tensor(x)
    t = np.tanh(x.values)
    return _node(t, (x,), "tanh", lambda g: (g * (1.0 - t * t),))


def gelu(x) -> Tensor:
    """GELU via the tanh approximation 0.5*x*(1 + tanh(c1*(x + c2*x^3)))."""
    x = as_tensor(x)
    v = x.values
    # one chain each way, so numpy reuses a large map's temporaries in place
    inner = np.asarray(_GELU_C1 * (v + _GELU_C2 * v * v * v))
    t = np.tanh(inner, out=inner)
    out = (t + 1.0) * v * 0.5

    def vjp(g):
        # g * 0.5*((1 - t*t)*v*d + t + 1) with d = c1*(1 + 3*c2*v*v), in that
        # operation order, written into two temporaries of the vjp's own
        d = np.asarray(3.0 * _GELU_C2 * v)
        d *= v
        d += 1.0
        d *= _GELU_C1
        s = np.asarray(t * t)
        np.subtract(1.0, s, out=s)
        s *= v
        s *= d
        s += t
        s += 1.0
        s *= 0.5
        s *= g
        return (s,)

    return _node(out, (x,), "gelu", vjp)


def log(x) -> Tensor:
    x = as_tensor(x)
    if np.any(x.values <= 0):
        raise NumericError("log requires strictly positive input")
    return _node(np.log(x.values), (x,), "log", lambda g: (g / x.values,))


def mean(x) -> Tensor:
    x = as_tensor(x)
    n = x.values.size

    def vjp(g):
        return (np.full_like(x.values, float(g) / n),)

    return _node(np.asarray(np.mean(x.values)), (x,), "mean", vjp)


def sum_all(x) -> Tensor:
    x = as_tensor(x)

    def vjp(g):
        return (np.full_like(x.values, float(g)),)

    return _node(np.asarray(np.sum(x.values)), (x,), "sum", vjp)


def l1_distance(a, b) -> Tensor:
    """Sum of |a - b| over the last axis: (..., D) -> (...), (N,) -> scalar."""
    a, b = as_tensor(a), as_tensor(b)
    _check_same_shape(a, b, "l1_distance")
    if a.values.ndim < 1:
        raise ShapeError("l1_distance needs at least one axis")
    diff = a.values - b.values
    sgn = np.sign(diff)

    def vjp(g):  # None for an operand that needs no gradient
        ga = g[..., None] * sgn
        return (ga if a.requires_grad else None), (-ga if b.requires_grad else None)

    return _node(np.sum(np.abs(diff), axis=-1), (a, b), "l1_distance", vjp)


def cosine_sim_rows(a, b) -> Tensor:
    """Per-row cosine similarity of two (T, D) matrices, the denominator guarded at
    COSINE_EPS."""
    a, b = as_tensor(a), as_tensor(b)
    _check_same_shape(a, b, "cosine_sim_rows")
    if a.values.ndim != 2:
        raise ShapeError(f"cosine_sim_rows needs (T, D) inputs, got {a.values.shape}")
    av, bv = a.values, b.values
    dot = np.sum(av * bv, axis=1)
    norm_prod = np.linalg.norm(av, axis=1) * np.linalg.norm(bv, axis=1)
    guarded = norm_prod <= COSINE_EPS
    denom = np.where(guarded, COSINE_EPS, norm_prod)
    cos = dot / denom

    def d_cos(u, v):
        # d cos/du per row: unguarded rows v/(|u||v|) - cos * u/|u|^2; guarded rows see
        # a constant denominator, so the derivative is just the other operand / COSINE_EPS
        sq_u = np.sum(u * u, axis=1)
        du_open = v / denom[:, None] - (cos / np.where(sq_u == 0, 1.0, sq_u))[:, None] * u
        return np.where(guarded[:, None], v / COSINE_EPS, du_open)

    def vjp(g):  # None for an operand that needs no gradient
        return (g[:, None] * d_cos(av, bv) if a.requires_grad else None,
                g[:, None] * d_cos(bv, av) if b.requires_grad else None)

    return _node(cos, (a, b), "cosine_sim_rows", vjp)


def _distill_operands(s, h, op: str) -> tuple[Tensor, np.ndarray]:
    s, h = as_tensor(s), np.asarray(h, dtype=np.float64)
    if s.values.ndim != 2 or s.values.shape != h.shape:
        raise ShapeError(f"{op} needs (T, D) student and teacher maps of one shape, got "
                         f"{s.values.shape} and {h.shape}")
    return s, h


def distill_l1(s, h) -> Tensor:
    """sum |s - h| / D over a (T, D) map: scale(sum_all(l1_distance(s, h)), 1/D) as one op."""
    s, h = _distill_operands(s, h, "distill_l1")
    inv_width = 1.0 / h.shape[1]
    diff = s.values - h

    def vjp(g):
        return (np.sign(diff) * float(g * inv_width),)

    return _node(np.asarray(np.sum(np.abs(diff)) * inv_width), (s,), "distill_l1", vjp)


def distill_cosine(s, h) -> Tensor:
    """-sum_t log sigmoid(cos(s_t, h_t)) over a (T, D) map, with `cosine_sim_rows`' guarded
    cosine: scale(sum_all(log(sigmoid(cosine_sim_rows(s, h)))), -1) as one op."""
    s, h = _distill_operands(s, h, "distill_cosine")
    sv = s.values
    sq_s = np.einsum("td,td->t", sv, sv)
    norm_prod = np.sqrt(sq_s) * np.sqrt(np.einsum("td,td->t", h, h))
    guarded = norm_prod <= COSINE_EPS
    denom = np.where(guarded, COSINE_EPS, norm_prod)
    cos = np.einsum("td,td->t", sv, h) / denom
    sig = _sigmoid_values(cos)

    def vjp(g):
        # d(-log sigmoid(c))/dc = sigmoid(c) - 1, and d cos_t/ds_t = h_t/denom_t minus
        # cos_t s_t/|s_t|^2; a guarded row's denominator is constant, so it keeps h_t/eps
        d_cos = float(g) * (sig - 1.0)
        along_s = np.where(guarded, 0.0, d_cos * cos / np.where(guarded, 1.0, sq_s))
        return ((d_cos / denom)[:, None] * h - along_s[:, None] * sv,)

    return _node(np.asarray(-np.sum(np.log(sig))), (s,), "distill_cosine", vjp)


# ---------------------------------------------------------------------------
# shape plumbing


def narrow(x, axis: int, start: int, length: int) -> Tensor:
    x = as_tensor(x)
    if axis not in (0, 1) or x.values.ndim <= axis:
        raise ShapeError(f"narrow: axis {axis} on shape {x.values.shape}")
    if start < 0 or length < 0 or start + length > x.values.shape[axis]:
        raise ShapeError(f"narrow: [{start}, {start + length}) outside axis of size "
                         f"{x.values.shape[axis]}")
    sl = (slice(None),) * axis + (slice(start, start + length),)
    out = x.values[sl].copy()

    def vjp(g):
        full = np.zeros_like(x.values)
        full[sl] = g
        return (full,)

    return _node(out, (x,), "narrow", vjp)


def concat(parts, axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat of zero tensors")
    ndim = parts[0].values.ndim
    if not -ndim <= axis < ndim or any(p.values.ndim != ndim for p in parts):
        raise ShapeError("concat operands must share rank and contain the axis; got "
                         f"shapes {[p.values.shape for p in parts]} axis {axis}")
    axis %= ndim
    out = np.concatenate([p.values for p in parts], axis=axis)
    ends = np.cumsum([p.values.shape[axis] for p in parts])[:-1]

    def vjp(g):
        return tuple(np.split(g, ends, axis=axis))

    return _node(out, tuple(parts), "concat", vjp)


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    out = x.values.reshape(shape).copy()
    return _node(out, (x,), "reshape", lambda g: (g.reshape(x.values.shape),))


# ---------------------------------------------------------------------------
# linear algebra / convolution


def linear(x, w, b=None) -> Tensor:
    """x @ w (+ b): x is (T, C), w is (C, O), b is (O,)."""
    x, w = as_tensor(x), as_tensor(w)
    if w.values.ndim != 2:
        raise ShapeError(f"linear: weight must be 2-D, got {w.values.shape}")
    if x.values.ndim != 2 or x.values.shape[1] != w.values.shape[0]:
        raise ShapeError(f"linear: input {x.values.shape} vs weight {w.values.shape}")
    out = x.values @ w.values
    parents: tuple[Tensor, ...]
    if b is not None:
        b = as_tensor(b)
        if b.values.shape != (w.values.shape[1],):
            raise ShapeError(f"linear: bias {b.values.shape} vs weight {w.values.shape}")
        out = out + b.values
        parents = (x, w, b)
    else:
        parents = (x, w)

    def vjp(g):
        gx, gw = g @ w.values.T, x.values.T @ g
        return (gx, gw, g.sum(axis=0)) if b is not None else (gx, gw)

    return _node(out, parents, "linear", vjp)


def conv1d(samples: np.ndarray, k) -> Tensor:
    """Front-end conv of a constant (B, N) waveform batch by a (kw, 1, D) kernel:
    (B * (N // kw), D) rows, utterance by utterance.

    The kernel width is the stride, so the frames are a reshape of the samples and
    those past the last whole frame are not read. One stacked matmul per utterance
    keeps the (T, kw) x (kw, D) product under BLAS's threading threshold. The
    waveform is data: the kernel is the only parent, and the vjp forms its adjoint.
    """
    samples, k = np.asarray(samples, dtype=np.float64), as_tensor(k)
    if samples.ndim != 2 or k.values.ndim != 3 or k.values.shape[1] != 1:
        raise ShapeError(f"conv1d: need samples (B, N) and kernel (kw, 1, D), got "
                         f"{samples.shape} and {k.values.shape}")
    (batch, n), (kw, _, c_out) = samples.shape, k.values.shape
    if n < kw:
        raise ShapeError(f"conv1d: input of {n} samples shorter than kernel {kw}")
    t_out = n // kw
    frames = samples[:, : t_out * kw].reshape(batch, t_out, kw)
    out = frames @ k.values.reshape(kw, c_out)

    def vjp(g):
        g = g.reshape(out.shape)
        return ((frames.transpose(0, 2, 1) @ g).sum(axis=0).reshape(k.values.shape),)

    return _node(out.reshape(-1, c_out), (k,), "conv1d", vjp)


def conv1d_transposed(x, k) -> Tensor:
    """Transposed conv along time: (B, T, Cin) * (2s, Cin, Cout) -> (B, (T+1)*s, Cout).

    The kernel is two halves, K1 = k[:s] and K2 = k[s:], and s is the stride.
    Read as T+1 blocks of s samples, the output is x @ K1 at blocks 0..T-1 plus
    x @ K2 at blocks 1..T: two contiguous slices of each utterance's samples.
    The vjp reads the output gradient as the same two slices, g1 and g2, with
    gx = g1 @ K1' + g2 @ K2'.
    """
    x, k = as_tensor(x), as_tensor(k)
    if x.values.ndim != 3 or k.values.ndim != 3:
        raise ShapeError(f"conv1d_transposed: need x (B, T, Cin) and kernel (kw, Cin, Cout), "
                         f"got {x.values.shape} and {k.values.shape}")
    if x.values.shape[2] != k.values.shape[1]:
        raise ShapeError(f"conv1d_transposed: channel mismatch {x.values.shape[2]} vs "
                         f"{k.values.shape[1]}")
    (batch, t_in, c_in), (kw, _, c_out) = x.values.shape, k.values.shape
    if kw % 2:
        raise ShapeError(f"conv1d_transposed: kernel width {kw} is odd; it must be "
                         f"two stride-wide halves")
    s = kw // 2
    half = s * c_out  # the values of one block
    k1, k2 = (k.values[j : j + s].transpose(1, 0, 2).reshape(c_in, half) for j in (0, s))
    out = np.empty((batch, (t_in + 1) * half))
    out[:, :-half] = (x.values @ k1).reshape(batch, -1)
    out[:, -half:] = 0.0
    out[:, half:] += (x.values @ k2).reshape(batch, -1)

    def vjp(g):
        flat = g.reshape(batch, -1)
        g1, g2 = (flat[:, j : j + t_in * half].reshape(batch, t_in, half) for j in (0, half))
        x_t = x.values.transpose(0, 2, 1)
        gk = np.concatenate([(x_t @ g1).sum(axis=0), (x_t @ g2).sum(axis=0)], axis=1)
        return g1 @ k1.T + g2 @ k2.T, gk.reshape(c_in, kw, c_out).transpose(1, 0, 2)

    return _node(out.reshape(batch, -1, c_out), (x, k), "conv1d_transposed", vjp)


# ---------------------------------------------------------------------------
# bidirectional LSTM


# Both directions of a batch are one pair of plain numpy loops over a (2, B, H)
# state, time-major. `_lstm_run` takes the hoisted input projections
# zx = x @ w_x + bias (T, 2, B, 4H), the backward direction's on reversed time,
# and the stacked state maps (2, H, 4H); it returns the states h_1..h_T plus a
# tape. `_lstm_bptt` takes dL/dh_t for every t and returns the adjoint of the
# pre-activations (T, 2, B, 4H), which is the adjoint of both zx and the state
# projection h_{t-1} @ w_h, together with h_0..h_{T-1}.


def _lstm_run(zx: np.ndarray, w_h: np.ndarray):
    t_steps, _, batch, width = zx.shape
    hidden = width // 4
    acts = np.empty((t_steps, 2, batch, 4, hidden))  # i, f, g = tanh(cell input), o
    cells = np.zeros((t_steps + 1, 2, batch, hidden))  # c_0 = 0, then c_1..c_T
    tanh_cells = np.empty((t_steps, 2, batch, hidden))
    states = np.zeros((t_steps + 1, 2, batch, hidden))  # h_0 = 0, then h_1..h_T
    for t in range(t_steps):
        z = (zx[t] + states[t] @ w_h).reshape(2, batch, 4, hidden)
        a = _sigmoid_values(z)
        a[:, :, 2] = np.tanh(z[:, :, 2])
        i, f, g, o = (a[:, :, k] for k in range(4))
        cells[t + 1] = f * cells[t] + i * g
        tanh_cells[t] = np.tanh(cells[t + 1])
        states[t + 1] = o * tanh_cells[t]
        acts[t] = a
    return states[1:], (acts, cells, tanh_cells, states)


def _lstm_bptt(dh_out: np.ndarray, w_h: np.ndarray, tape):
    acts, cells, tanh_cells, states = tape
    t_steps, _, batch, _, hidden = acts.shape
    i, f, g, o = (acts[:, :, :, k] for k in range(4))
    # dz per unit dc for the i, f, g pre-activations, and per unit dh for o and c
    dc_to_z = np.stack([g * i * (1.0 - i), cells[:-1] * f * (1.0 - f), i * (1.0 - g * g)],
                       axis=3)
    dh_to_zo = tanh_cells * o * (1.0 - o)
    dh_to_c = o * (1.0 - tanh_cells * tanh_cells)
    dz = np.empty(acts.shape)
    w_h_t = w_h.transpose(0, 2, 1)
    dh = np.zeros((2, batch, hidden))
    dc = np.zeros((2, batch, hidden))
    for t in range(t_steps - 1, -1, -1):
        dh = dh + dh_out[t]
        dc = dc + dh * dh_to_c[t]
        dz[t, :, :, :3] = dc[:, :, None] * dc_to_z[t]
        dz[t, :, :, 3] = dh * dh_to_zo[t]
        dc = dc * f[t]
        dh = dz[t].reshape(2, batch, 4 * hidden) @ w_h_t
    return dz.reshape(t_steps, 2, batch, 4 * hidden), states[:-1]


def bidir_recurrent(x, w_x, w_h, bias) -> Tensor:
    """Bidirectional LSTM over a (B, T, C) batch -> (B, T, 2*hidden), as one graph node.

    Each weight stacks both directions on its leading axis, forward first:
    input map w_x (2, C, 4H), state map w_h (2, H, 4H) and bias (2, 4H), with
    the gates packed (input, forget, cell, output) along the last axis. H is
    `w_h.shape[1]`. Both directions project all inputs in one batched matmul,
    x @ w_x + bias; then they step together as one (2, B, H) state, one matmul
    per step. The vjp backpropagates through time the same way and forms each
    weight gradient with one batched matmul after its loop.
    """
    x, w_x, w_h, bias = (as_tensor(t) for t in (x, w_x, w_h, bias))
    if x.values.ndim != 3:
        raise ShapeError(f"bidir_recurrent needs (B, T, C), got {x.values.shape}")
    batch, t_steps, c_in = x.values.shape
    if t_steps < 1:
        raise ShapeError("bidir_recurrent needs at least one frame")
    hidden = w_h.values.shape[1] if w_h.values.ndim > 1 else 0
    for name, p, want in (("w_x", w_x, (2, c_in, 4 * hidden)),
                          ("w_h", w_h, (2, hidden, 4 * hidden)), ("bias", bias, (2, 4 * hidden))):
        if p.values.shape != want:
            raise ShapeError(f"bidir_recurrent: {name} has shape {p.values.shape}, "
                             f"expected {want}")

    # time-major (2, T*B, C) rows; the backward direction runs on reversed time
    steps = x.values.transpose(1, 0, 2)
    rows = np.stack([steps, steps[::-1]]).reshape(2, -1, c_in)
    zx = (rows @ w_x.values + bias.values[:, None]).reshape(2, t_steps, batch, -1)
    h, tape = _lstm_run(zx.transpose(1, 0, 2, 3), w_h.values)
    out = np.concatenate([h[:, 0], h[::-1, 1]], axis=2).transpose(1, 0, 2).copy()

    def vjp(g):
        g_steps = g.transpose(1, 0, 2)
        dz, h_prev = _lstm_bptt(np.stack([g_steps[:, :, :hidden], g_steps[::-1, :, hidden:]],
                                         axis=1), w_h.values, tape)
        # direction-major (2, T*B, .) rows, as `rows`
        dz = dz.transpose(1, 0, 2, 3).reshape(2, -1, 4 * hidden)
        h_prev = h_prev.transpose(1, 0, 2, 3).reshape(2, -1, hidden)
        gx = (dz @ w_x.values.transpose(0, 2, 1)).reshape(2, t_steps, batch, c_in)
        return ((gx[0] + gx[1, ::-1]).transpose(1, 0, 2), rows.transpose(0, 2, 1) @ dz,
                h_prev.transpose(0, 2, 1) @ dz, dz.sum(axis=1))

    return _node(out, (x, w_x, w_h, bias), "bidir_recurrent", vjp)


# ---------------------------------------------------------------------------
# short-time Fourier magnitude


def hann_window(length: int) -> np.ndarray:
    """Periodic Hann window."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)


# l1_freq's STFT: a 25 ms Hann window, a 10 ms hop at 16 kHz and a 512-point FFT
STFT_WINDOW_LENGTH, STFT_HOP, STFT_FFT_SIZE = 400, 160, 512
_STFT_WINDOW = hann_window(STFT_WINDOW_LENGTH)
_STFT_WINDOW.setflags(write=False)


def stft_mag(x) -> Tensor:
    """Magnitude STFT of each row of a (B, N) batch: (B, frames, STFT_FFT_SIZE//2 + 1).

    Frames start at multiples of STFT_HOP, are Hann-windowed, zero-padded to
    STFT_FFT_SIZE, and transformed; only whole frames are taken.
    """
    x = as_tensor(x)
    if x.values.ndim != 2:
        raise ShapeError(f"stft_mag needs a (B, N) batch, got {x.values.shape}")
    (batch, n), win, hop = x.values.shape, STFT_WINDOW_LENGTH, STFT_HOP
    if n < win:
        raise ShapeError(f"stft_mag: signal of {n} samples shorter than window {win}")
    frames = np.lib.stride_tricks.sliding_window_view(x.values, win, axis=1)[:, ::hop]
    segments = frames * _STFT_WINDOW  # a copy: (B, 1 + (n - win) // hop, win)
    n_frames = segments.shape[1]
    spectrum = np.fft.rfft(segments, n=STFT_FFT_SIZE, axis=2)
    mag = np.abs(spectrum)

    def vjp(g):
        # d|z|/dz direction, guarded against exactly-zero bins
        ratio = spectrum / np.maximum(mag, 1e-300)
        full = np.zeros((batch, n_frames, STFT_FFT_SIZE), dtype=np.complex128)
        full[:, :, : mag.shape[2]] = g * ratio
        d_seg = STFT_FFT_SIZE * np.fft.ifft(full, axis=2).real[:, :, :win] * _STFT_WINDOW
        # overlap-add: each run of `hop` window positions is one slice-add into
        # hop-wide slots, and the slots past n are cut off; the hop does not divide
        # the window, so the last run is 80 wide
        runs = range(0, win, hop)
        gx = np.zeros((batch, max(n, (n_frames + len(runs) - 1) * hop)))
        for j in runs:
            taps = min(hop, win - j)
            gx[:, j : j + n_frames * hop].reshape(batch, n_frames, hop)[:, :, :taps] += \
                d_seg[:, :, j : j + taps]
        return (gx[:, :n],)

    return _node(mag, (x,), "stft_mag", vjp)


# ---------------------------------------------------------------------------
# binary tensor records: magic "DRTN", u8 version, u8 rank, u64 dims, f64 row-major

DRTN_MAGIC = b"DRTN"
DRTN_VERSION = 1


def tensor_to_bytes(values: np.ndarray) -> bytes:
    # np.ascontiguousarray silently promotes 0-d arrays to 1-d, so keep rank 0 by hand
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim and not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    header = DRTN_MAGIC + struct.pack("<BB", DRTN_VERSION, arr.ndim)
    dims = struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b""
    return header + dims + arr.astype("<f8").tobytes()


def tensor_from_bytes(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    if buf[offset : offset + 4] != DRTN_MAGIC:
        raise DataError("not a DRTN tensor record")
    try:
        version, rank = struct.unpack_from("<BB", buf, offset + 4)
        dims = struct.unpack_from(f"<{rank}Q", buf, offset + 6)
    except struct.error as exc:
        raise DataError("DRTN record truncated") from exc
    if version != DRTN_VERSION:
        raise DataError(f"unsupported DRTN version {version}")
    pos = offset + 6 + 8 * rank
    end = pos + 8 * math.prod(dims)
    if end > len(buf):
        raise DataError("DRTN record truncated")
    values = np.frombuffer(buf[pos:end], dtype="<f8").reshape(dims).astype(np.float64)
    return values, end
