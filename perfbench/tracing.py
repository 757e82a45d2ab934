"""Outside-in tracing: wrappers around the package's public functions, spans kept
in memory, and the per-layer report computed from them.

Nothing in `src/` knows about this module. A wrapper replaces a function under
every name the program looks it up by: `distilrobust.tensor.conv1d` (what
`model.py` calls as `T.conv1d`), `distilrobust.trainer.teacher_forward` (the
name `trainer.py` imported), `distilrobust.cli.augment_batch`, and so on.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

import numpy as np

# The one list of wrapped functions, by layer. A name missing from the package
# is reported, never skipped silently.
WRAPPED = {
    "audio": ["read_wav", "write_wav", "rms", "mix_at_snr", "convolve_rir", "white_noise"],
    "augment": ["stable_hash", "snr_lower_bound", "reverb_threshold", "sample_plan",
                "apply_plan", "utterance_seed", "augment_batch", "load_manifest",
                "load_noise_bank", "load_rir_bank"],
    "tensor": ["as_tensor", "parameter", "backward", "zero_grads", "add", "mul", "scale",
               "scale_add", "sigmoid", "tanh", "gelu", "log", "mean", "sum_all",
               "l1_distance", "cosine_sim_rows", "narrow", "concat", "reshape", "linear",
               "conv1d", "conv1d_transposed", "sub_from", "bidir_recurrent", "stft_mag",
               "hann_window", "tensor_to_bytes", "tensor_from_bytes"],
    "model": ["parameter_checksum", "encoder_forward", "teacher_forward",
              "init_student_from_teacher", "student_forward"],
    "losses": ["kd_loss_parts", "kd_loss", "l1_wav", "l1_freq", "combined_loss"],
    "trainer": ["lr_at", "adamw_step", "build_teacher", "build_student", "train",
                "save_checkpoint", "load_checkpoint", "load_metrics"],
}

# Inside a tensor span, further tensor calls are counted but open no span: the
# autodiff ops compose each other (bidir_recurrent is built from linear, add,
# sigmoid, ...), and the op the caller asked for owns the whole cost.
COUNT_ONLY_INSIDE_OWN_LAYER = {"tensor"}

ITERATION = "trainer.iteration"   # synthetic span between two adamw_step exits
TAIL = "trainer.after_last_step"  # synthetic span from the last step to train's exit
GRAPH_WALK = "perfbench.graph_walk"  # the node count below, kept out of backward's time

# Span record fields, as written to the spans file.
NAME, START, END, PARENT, RUN, ITER = range(6)


def graph_nodes(loss) -> int:
    """Tensors reachable from `loss` through `parents`, as `backward` walks them."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for p in stack.pop().parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Tracer:
    """Spans and counts of one command, in memory until `export`."""

    def __init__(self, run_id: int, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []  # indices of open spans
        self.counts: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        self.iteration = -1
        self.missing: list[str] = []

    # -- spans --
    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent, self.run_id, self.iteration])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int):
        # Close `index` and anything left open above it (an exception unwinding).
        end = self.clock()
        while self.stack:
            top = self.stack.pop()
            self.spans[top][END] = end
            if top == index:
                return

    def count(self, name: str, amount: float = 1.0):
        self.counts[name][self.iteration] += amount

    def top_layer(self) -> str | None:
        return self.spans[self.stack[-1]][NAME].split(".", 1)[0] if self.stack else None

    # -- iterations, marked at each adamw_step exit --
    def step_done(self):
        if self.stack and self.spans[self.stack[-1]][NAME] == ITERATION:
            self.close(self.stack[-1])
        self.iteration += 1
        self.open(ITERATION)

    def train_done(self):
        # The span opened at the last step exit ends here and is not an iteration.
        if self.stack and self.spans[self.stack[-1]][NAME] == ITERATION:
            self.spans[self.stack[-1]][NAME] = TAIL
            self.close(self.stack[-1])
        self.iteration = -1

    def export(self) -> dict:
        counts = {name: {str(it): n for it, n in per_iter.items()}
                  for name, per_iter in self.counts.items()}
        return {"spans": self.spans, "counts": counts, "missing": self.missing}


def _loaded_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "distilrobust" or name.startswith("distilrobust."))]


def _replace_everywhere(original, replacement):
    for module in _loaded_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _make_wrapper(tracer: Tracer, layer: str, name: str, fn):
    span_name = f"{layer}.{name}"
    count_only_inside = layer in COUNT_ONLY_INSIDE_OWN_LAYER

    def before(args):
        if span_name == "tensor.backward":
            walk = tracer.open(GRAPH_WALK)
            tracer.count("tensor.backward.nodes", graph_nodes(args[0]))
            tracer.close(walk)
        elif span_name == "augment.apply_plan":
            tracer.count("augment.apply_plan.reverb", bool(args[1].reverb_applied))

    def wrapper(*args, **kwargs):
        tracer.count(span_name + ".calls")
        if count_only_inside and tracer.top_layer() == layer:
            return fn(*args, **kwargs)
        before(args)
        index = tracer.open(span_name)
        try:
            return fn(*args, **kwargs)
        finally:
            if span_name == "trainer.train":
                tracer.train_done()
            tracer.close(index)
            if span_name == "trainer.adamw_step":
                tracer.step_done()

    return wrapper


def install(tracer: Tracer, wrapped: dict = WRAPPED):
    """Wrap every function in `wrapped`, under every name the package binds it to."""
    for layer, names in wrapped.items():
        module = importlib.import_module(f"distilrobust.{layer}")
        for name in names:
            fn = getattr(module, name, None)
            if not callable(fn):
                tracer.missing.append(f"{layer}.{name}")
                continue
            _replace_everywhere(fn, _make_wrapper(tracer, layer, name, fn))


def install_step_clock(module_name: str, name: str, stamps: list, clock=time.monotonic):
    """The one hook of an untraced run: (entry, exit) times of each call of `name`."""
    module = importlib.import_module(f"distilrobust.{module_name}")
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            stamps.append((t0, clock()))

    _replace_everywhere(fn, wrapper)


# ---------------------------------------------------------------------------
# analysis


def self_times(spans: list[list]) -> np.ndarray:
    """Each span's duration minus the time its direct children cover."""
    out = np.array([s[END] - s[START] for s in spans], dtype=float)
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def per_layer(commands: list[dict], per_iteration: bool) -> dict[str, float]:
    """Per-layer figures from the exported traces of one or more commands.

    Train workloads (`per_iteration`) are normalised per complete iteration,
    counting only spans inside `trainer.iteration` spans; the WAV reads and
    writes happen outside iterations and are given per command everywhere.
    """
    total = defaultdict(float)
    self_total = defaultdict(float)
    in_iter = defaultdict(float)
    self_in_iter = defaultdict(float)
    counts_all = defaultdict(float)
    counts_iter = defaultdict(float)
    apply_plan = []
    n_iterations = 0
    for command in commands:
        spans = command["spans"]
        # Iteration indices whose span closed at a step; the span after the
        # last step was renamed and its index is left out.
        complete = {s[ITER] for s in spans if s[NAME] == ITERATION}
        n_iterations += len(complete)
        own = self_times(spans)
        for s, self_s in zip(spans, own):
            duration = s[END] - s[START]
            total[s[NAME]] += duration
            self_total[s[NAME]] += self_s
            if s[ITER] in complete:
                in_iter[s[NAME]] += duration
                self_in_iter[s[NAME]] += self_s
            if s[NAME] == "augment.apply_plan":
                apply_plan.append(duration)
        for name, per_iter in command["counts"].items():
            for it, n in per_iter.items():
                counts_all[name] += n
                if int(it) in complete:
                    counts_iter[name] += n

    n_commands = len(commands)
    if per_iteration:
        unit = max(n_iterations, 1)
        dur, own, counts = in_iter, self_in_iter, counts_iter
    else:
        unit = n_commands
        dur, own, counts = total, self_total, counts_all

    def ms(table, name):
        return 1000.0 * table.get(name, 0.0) / unit

    return {
        "tensor.conv1d.self_ms": ms(own, "tensor.conv1d"),
        "tensor.conv1d_transposed.self_ms": ms(own, "tensor.conv1d_transposed"),
        "tensor.bidir_recurrent.self_ms": ms(own, "tensor.bidir_recurrent"),
        "tensor.backward.self_ms": ms(own, "tensor.backward"),
        "tensor.backward.nodes": counts.get("tensor.backward.nodes", 0.0) / unit,
        "tensor.linear.calls": counts.get("tensor.linear.calls", 0.0) / unit,
        "model.teacher_forward.ms": ms(dur, "model.teacher_forward"),
        "model.teacher_forward.self_ms": ms(own, "model.teacher_forward"),
        "model.student_forward.self_ms": ms(own, "model.student_forward"),
        "losses.kd_loss_parts.ms": ms(dur, "losses.kd_loss_parts"),
        "losses.l1_wav.ms": ms(dur, "losses.l1_wav"),
        "losses.combined_loss.ms": ms(dur, "losses.combined_loss"),
        "augment.augment_batch.ms": ms(dur, "augment.augment_batch"),
        "augment.apply_plan.ms_p50": 1000.0 * _percentile(apply_plan, 50),
        "augment.apply_plan.ms_p90": 1000.0 * _percentile(apply_plan, 90),
        "augment.reverb_share": (counts_all.get("augment.apply_plan.reverb", 0.0)
                                 / max(counts_all.get("augment.apply_plan.calls", 0.0), 1.0)),
        "audio.convolve_rir.ms": ms(dur, "audio.convolve_rir"),
        "audio.mix_at_snr.ms": ms(dur, "audio.mix_at_snr"),
        "audio.white_noise.ms": ms(dur, "audio.white_noise"),
        "audio.read_wav.ms": 1000.0 * total.get("audio.read_wav", 0.0) / n_commands,
        "audio.write_wav.ms": 1000.0 * total.get("audio.write_wav", 0.0) / n_commands,
        "trainer.adamw_step.ms": ms(dur, "trainer.adamw_step"),
        "trainer.iteration.self_ms": ms(own, ITERATION),
        "trainer.save_checkpoint.ms": ms(dur, "trainer.save_checkpoint"),
    }


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0
