"""The repository benchmark: one workload, generated from a seed, run through the
`distilrobust` command line in fresh interpreters, with its outputs checked.

    python3 perfbench/run.py --workload train_A --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout; it imports the package from `src/`.
Untraced (`--trace 0`) it prints the end-to-end metrics; traced (`--trace 1`)
it alternates untraced and traced commands and prints the per-layer metrics.
The last line of standard output is one JSON object; the full record, with the
machine it ran on, goes to `perfbench/out/`. The exit code is 0 when every
output check passed, 1 when one failed and 2 when the checkout has no package.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import checks
import inputs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("train_A", "train_C1", "augment_files")
# The one hook of an untraced command: the function called once per unit of work.
STEP_HOOK = {"train": ("trainer", "adamw_step"), "augment": ("augment", "apply_plan")}
MIN_COMMANDS = 2
ORACLE_UTTERANCES = 8

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "audio_s_per_s": "s/s",
    "iter_ms_p50": "ms",
    "iter_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def environment(root: str) -> dict:
    """The machine and software a result was measured on."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        # Only a repository rooted at the checkout itself names its commit.
        lines = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                               capture_output=True, text=True, timeout=10).stdout.split()
        commit = lines[1] if len(lines) == 2 and os.path.samefile(lines[0], root) else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "git_commit": commit,
        "source_sha256": _source_digest(os.path.join(root, "src", "distilrobust")),
        "platform": platform.platform(),
    }


def _source_digest(package_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(package_dir, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class Run:
    """One benchmark invocation: generated inputs, a series of commands, checks."""

    def __init__(self, root: str, workload: str, seed: int, tiny: bool, work: str):
        self.root = root
        self.work = work
        self.spec = inputs.generate(workload, seed, os.path.join(work, "inputs"), tiny=tiny)
        self.kind = self.spec["kind"]
        self.commands: list[dict] = []
        if self.kind == "train":
            self.teacher_checksum = checks.expected_teacher_checksum(self.spec["config"])
        else:
            self.augment_inputs = checks.load_augment_inputs(self.spec)
            ids = [utt_id for utt_id, _, _ in self.augment_inputs["speech"]]
            picked = np.random.default_rng(seed).choice(len(ids), size=min(ORACLE_UTTERANCES,
                                                        len(ids)), replace=False)
            self.oracle_ids = {ids[i] for i in picked}

    def command(self, traced: bool) -> dict:
        """Run the workload command once in a fresh interpreter and check it."""
        index = len(self.commands)
        shutil.rmtree(self.spec["out_dir"], ignore_errors=True)
        hook_module, hook_name = STEP_HOOK[self.kind]
        spec_path = os.path.join(self.work, f"cmd{index}.json")
        result_path = os.path.join(self.work, f"cmd{index}.result.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump({"src": os.path.join(self.root, "src"), "argv": self.spec["argv"],
                       "trace": traced, "run_id": index, "result": result_path,
                       "hook_module": hook_module, "hook_name": hook_name}, fh)
        log_path = os.path.join(self.work, f"cmd{index}.log")
        with open(log_path, "wb") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), spec_path],
                                    cwd=self.root, stdout=log, stderr=subprocess.STDOUT)
            try:
                rc = proc.wait()
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            t1 = time.monotonic()
        record = {"traced": traced, "rc": rc, "t0": t0, "run_s": t1 - t0, "failures": []}
        if os.path.exists(result_path):
            with open(result_path, "r", encoding="utf-8") as fh:
                record["result"] = json.load(fh)
        if rc != 0 or "result" not in record:
            with open(log_path, "r", encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            record["failures"].append(f"command exited {rc}: {tail.strip()}")
        self._check(record)
        self.commands.append(record)
        return record

    def _check(self, record: dict):
        """Check the outputs of a finished command; the first command that got
        that far is the reference the later ones must match byte for byte."""
        out_dir = self.spec["out_dir"]
        first = next((c["digests"] for c in self.commands if "digests" in c), None)
        if self.kind == "train":
            if record["failures"]:
                record["failed"] = 1
                return
            failures, digests = checks.check_train(out_dir, self.spec["iterations"],
                                                   self.teacher_checksum)
            if first is not None and digests != first:
                failures.append("metrics.jsonl or ckpt_final.drtc differ from the first "
                                "command of this seed")
            record["digests"] = digests
            record["failures"] += failures
            record["failed"] = int(bool(failures))
            return
        ids = [utt_id for utt_id, _, _ in self.augment_inputs["speech"]]
        if record["failures"]:
            record["failed"] = len(ids)
            return
        oracle = self.oracle_ids if first is None else set()
        per_utt, digests, reverb_share = checks.check_augment(out_dir, self.augment_inputs,
                                                              oracle)
        for utt_id in ids:
            if first is not None and digests.get(utt_id) != first.get(utt_id):
                per_utt[utt_id].append("output or plan differs from the first command")
        bad = {u: msgs for u, msgs in per_utt.items() if msgs}
        record["digests"] = digests
        record["failures"] += [f"{u}: {'; '.join(msgs)}" for u, msgs in sorted(bad.items())]
        record["failed"] = len(bad)
        if first is None:
            record["reverb_share"] = reverb_share

    def attempted(self) -> int:
        per = 1 if self.kind == "train" else len(self.augment_inputs["speech"])
        return per * len(self.commands)

    def failed(self) -> int:
        return sum(c["failed"] for c in self.commands)

    # -- end-to-end metrics from untraced commands --
    def end_to_end(self) -> dict:
        """Medians over the run's untraced commands.

        An iteration is a training iteration, or for augment the contamination
        of one utterance (one `apply_plan` call). iter_ms_p50 is the median of
        each command's mean iteration; iter_ms_p90 pools single iterations.
        Single iterations are
        not used for the median because this kind of shared machine alternates
        between two speeds for seconds at a time, which makes single-iteration
        times bimodal: their median jumped between the modes from run to run
        (quartile spread 0.25 of the median on train_A) where command means
        average over the phases.
        """
        run_s, setup_s, rate, rss, means, units = [], [], [], [], [], []
        for c in self.commands:
            if c["traced"] or c["failed"] or "result" not in c:
                continue
            stamps = c["result"]["stamps"]
            if self.kind == "train":
                exits = np.array([e for _, e in stamps])
                iter_s = np.diff(exits)
                # The hook sees iterations end; the first one starts one
                # median iteration before its end.
                first_work = exits[0] - float(np.median(iter_s))
                audio = len(exits) * self.spec["audio_s_per_unit"]
            else:
                first_work = stamps[0][0]
                iter_s = np.array([e - s for s, e in stamps])
                audio = self.spec["audio_s_per_unit"]
            units.extend(iter_s)
            means.append(float(np.mean(iter_s)))
            c["timing"] = {"setup_s": first_work - c["t0"], "iter_s": iter_s.tolist()}
            run_s.append(c["run_s"])
            setup_s.append(first_work - c["t0"])
            rate.append(audio / (c["t0"] + c["run_s"] - first_work))
            rss.append(c["result"]["maxrss_kb"] / 1024.0)
        if not run_s:
            return {}
        return {
            "run_s": statistics.median(run_s),
            "setup_s": statistics.median(setup_s),
            "audio_s_per_s": statistics.median(rate),
            "iter_ms_p50": 1000.0 * statistics.median(means),
            "iter_ms_p90": 1000.0 * float(np.percentile(units, 90)),
            "peak_rss_mb": statistics.median(rss),
            "samples": {"commands": len(run_s), "iterations": len(units)},
        }

    # -- per-layer metrics from traced commands --
    def layers(self) -> tuple[dict, list[str]]:
        traced = [c["result"] for c in self.commands
                  if c["traced"] and not c["failed"] and "result" in c]
        untraced = [c["run_s"] for c in self.commands if not c["traced"] and not c["failed"]]
        if not traced or not untraced:
            return {}, []
        out = tracing.per_layer(traced, per_iteration=self.kind == "train")
        traced_run_s = [c["run_s"] for c in self.commands if c["traced"] and not c["failed"]]
        out["trace_overhead_frac"] = (statistics.median(traced_run_s)
                                      / statistics.median(untraced) - 1.0)
        missing = sorted({m for r in traced for m in r["missing"]})
        return out, missing


def layer_units(name: str) -> str:
    if name.endswith((".nodes", ".calls")):
        return "count"
    if name.endswith(("_share", "_frac")):
        return "ratio"
    return "ms"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement time; at least two commands always run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few iterations and utterances, for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "distilrobust", "__init__.py")):
        print(f"perfbench: no package at {src}/distilrobust; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    out_base = os.path.join(HERE, "out")
    work = os.path.join(out_base, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    started = time.monotonic()
    try:
        run = Run(root, args.workload, args.seed, args.tiny, work)
        deadline = time.monotonic() + args.seconds
        last = {}
        while True:
            traced = bool(args.trace) and len(run.commands) % 2 == 1
            last[traced] = run.command(traced)["run_s"]
            nxt = bool(args.trace) and len(run.commands) % 2 == 1
            if (len(run.commands) >= MIN_COMMANDS
                    and time.monotonic() + last.get(nxt, last[traced]) > deadline):
                break
        e2e = run.end_to_end()
        layers, missing = run.layers() if args.trace else ({}, [])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = run.attempted(), run.failed()
    if args.trace:
        metrics = {name: {"value": value, "unit": layer_units(name)}
                   for name, value in layers.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items() if name in e2e}
    correct = failed == 0 and bool(metrics)
    failures = [f for c in run.commands for f in c["failures"]]

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "environment": environment(root),
        "input_properties": run.spec["properties"],
        "measured_reverb_share": next((c["reverb_share"] for c in run.commands
                                       if "reverb_share" in c), None),
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": metrics, "samples": e2e.get("samples"),
        "commands": [{"traced": c["traced"], "rc": c["rc"], "run_s": c["run_s"],
                      "failed": c["failed"], **c.get("timing", {})} for c in run.commands],
        "failures": failures, "missing_wrappers": missing,
        "wall_s": time.monotonic() - started,
    }
    os.makedirs(out_base, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    results_path = os.path.join(
        out_base, f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json")
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    for name in missing:
        print(f"perfbench: wrapped function no longer exists: {name}", file=sys.stderr)
    for line in failures:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(run.commands)} commands, "
          f"properties {json.dumps(run.spec['properties'], sort_keys=True)}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':<36} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    print(f"results: {os.path.relpath(results_path, root)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
