"""Command-line surface: offline contamination, training, gradient checking,
and metrics plotting.

Exit codes are a stable scripting contract: 0 success, 1 validation or numeric
failure, 2 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .augment import (CurriculumState, augment_batch, check_sample_rates, load_manifest,
                      load_noise_bank, load_rir_bank)
from .audio import check_wav_rate, read_wav, write_wav
from .errors import DistilRobustError, DataError, ParameterError, WavFormatError
from .fileio import atomic_write
from .gradchecks import CHECKS, run_suite
from .trainer import TrainConfig, load_metrics, train

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


def cmd_augment(args) -> int:
    entries = load_manifest(args.manifest, expect_kind="speech", require_exists=False)
    errors = []
    waves = []
    for entry in entries:
        if not os.path.exists(entry.path):
            errors.append(f"{entry.id}: file not found: {entry.path}")
            continue
        try:
            waves.append((entry, read_wav(entry.path)))
        except DistilRobustError as exc:
            errors.append(f"{entry.id}: {exc}")
    if errors:
        for line in errors:
            print(f"error: {line}", file=sys.stderr)
        return EXIT_IO

    for entry, wave in waves:  # each output keeps its input's rate: all before any write
        try:
            check_wav_rate(wave.sample_rate_hz)
        except ParameterError as exc:
            raise ParameterError(f"{entry.id}: {exc}") from exc
    noise_bank = load_noise_bank(args.noise_bank)
    rir_bank = load_rir_bank(args.rir_bank)
    check_sample_rates([(entry.id, wave) for entry, wave in waves], noise_bank, rir_bank)
    state = CurriculumState(args.iter, args.iterations)
    pairs = augment_batch([w for _, w in waves], state, noise_bank, rir_bank,
                          master_seed=args.seed)

    os.makedirs(args.out_dir, exist_ok=True)
    plans_path = os.path.join(args.out_dir, "plans.jsonl")
    with contextlib.suppress(FileNotFoundError):  # no plans outlive the WAVs they describe
        os.remove(plans_path)
    for (entry, _), (augmented, _) in zip(waves, pairs):
        write_wav(augmented, os.path.join(args.out_dir, f"{entry.id}.wav"))
    with atomic_write(plans_path) as fh:
        for (entry, _), (_, plan) in zip(waves, pairs):
            line = json.dumps({"id": entry.id, **plan.to_dict()}, sort_keys=True)
            fh.write(f"{line}\n".encode())
    print(f"wrote {len(pairs)} contaminated files and {plans_path}")
    return EXIT_OK


def cmd_train(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = TrainConfig.from_json(fh.read())
    state = train(cfg, resume_from=args.resume)
    print(f"completed {state.iteration} iterations; artifacts in {cfg.out_dir}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    names = None if args.all else [args.op]
    results = run_suite(names, perturb=args.perturb)
    width = max(len(name) for name, _ in results)
    failed = False
    for name, report in results:
        status = "PASS" if report.passed else "FAIL"
        failed = failed or not report.passed
        print(f"{name:<{width}}  max_rel_error={report.max_rel_error:.3e}  {status}")
    return EXIT_VALIDATION if failed else EXIT_OK


def _panel(x0: float, y0: float, w: float, h: float, title: str, xs, ys) -> str:
    lo, hi = min(ys), max(ys)
    if hi == lo:
        lo, hi = lo - 1.0, hi + 1.0
    x_min, x_max = min(xs), max(xs)
    span = x_max - x_min if x_max > x_min else 1.0
    pad = 28.0
    plot_w, plot_h = w - 2 * pad, h - 2 * pad
    points = []
    for x, y in zip(xs, ys):
        px = x0 + pad + (x - x_min) / span * plot_w
        py = y0 + pad + (1.0 - (y - lo) / (hi - lo)) * plot_h
        points.append(f"{px:.2f},{py:.2f}")
    parts = [
        f'<rect x="{x0 + pad:.2f}" y="{y0 + pad:.2f}" width="{plot_w:.2f}" '
        f'height="{plot_h:.2f}" fill="none" stroke="#999" stroke-width="1"/>',
        f'<text x="{x0 + pad:.2f}" y="{y0 + 18:.2f}" font-size="13" '
        f'font-family="sans-serif">{title}</text>',
        f'<text x="{x0 + pad:.2f}" y="{y0 + h - 6:.2f}" font-size="10" '
        f'font-family="sans-serif">min={lo:.4g} max={hi:.4g} iters {x_min:g}..{x_max:g}</text>',
        f'<polyline points="{" ".join(points)}" fill="none" stroke="#1f6fb2" '
        f'stroke-width="1.5"/>',
    ]
    return "\n".join(parts)


def render_metrics_svg(records: list[dict]) -> str:
    xs = [r["iter"] for r in records]
    series = [
        ("combined loss", [r["combined"] for r in records]),
        ("learning rate", [r["lr"] for r in records]),
        ("snr lower bound tau", [r["tau"] for r in records]),
        ("reverb threshold", [r["reverb_threshold"] for r in records]),
    ]
    panel_w, panel_h = 420.0, 240.0
    svg = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{2 * panel_w:.0f}" '
           f'height="{2 * panel_h:.0f}" viewBox="0 0 {2 * panel_w:.0f} {2 * panel_h:.0f}">',
           '<rect width="100%" height="100%" fill="white"/>']
    for i, (title, ys) in enumerate(series):
        x0 = (i % 2) * panel_w
        y0 = (i // 2) * panel_h
        svg.append(_panel(x0, y0, panel_w, panel_h, title, xs, ys))
    svg.append("</svg>")
    return "\n".join(svg)


def cmd_plot(args) -> int:
    records = load_metrics(args.metrics)
    if not records:
        raise DataError(f"metrics log {args.metrics} is empty")
    with atomic_write(args.out) as fh:
        fh.write(render_metrics_svg(records).encode("utf-8"))
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distilrobust",
        description="Robust distillation of speech representations: contamination, "
                    "training, gradient checks, and plots.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_aug = sub.add_parser("augment", help="contaminate a manifest of clean WAVs offline")
    p_aug.add_argument("--manifest", required=True, help="speech manifest (JSON lines)")
    p_aug.add_argument("--noise-bank", required=True, help="noise manifest (JSON lines)")
    p_aug.add_argument("--rir-bank", required=True, help="RIR manifest (JSON lines)")
    p_aug.add_argument("--iterations", type=int, required=True,
                       help="schedule length N the snapshot is taken from")
    p_aug.add_argument("--iter", type=int, required=True,
                       help="schedule position (0-based iteration)")
    p_aug.add_argument("--seed", type=int, default=0, help="master seed")
    p_aug.add_argument("--out-dir", required=True)
    p_aug.set_defaults(func=cmd_augment)

    p_train = sub.add_parser("train", help="run the training loop from a JSON config")
    p_train.add_argument("--config", required=True, help="TrainConfig JSON file")
    p_train.add_argument("--resume", default=None, help="checkpoint to resume from")
    p_train.set_defaults(func=cmd_train)

    p_grad = sub.add_parser("gradcheck", help="finite-difference checks of the op set")
    group = p_grad.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true", help="run every check")
    group.add_argument("--op", help=f"run one check; known: {', '.join(sorted(CHECKS))}")
    p_grad.add_argument("--perturb", default=None,
                        help="deliberately break the named check (negative control)")
    p_grad.set_defaults(func=cmd_gradcheck)

    p_plot = sub.add_parser("plot", help="render a metrics log to an SVG chart")
    p_plot.add_argument("--metrics", required=True, help="metrics JSON-lines file")
    p_plot.add_argument("--out", required=True, help="output SVG path")
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WavFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DistilRobustError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
