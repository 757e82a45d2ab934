"""Run one workload command in a fresh interpreter and record its timings.

    python3 perfbench/child.py SPEC.json

SPEC names the package source directory, the `distilrobust` argv, whether to
trace, and where to write the result. Untraced, the only hook is a clock
around one function called once per unit of work (`adamw_step` per training
iteration, `apply_plan` per contaminated utterance). Traced, every function in
`tracing.WRAPPED` is wrapped and the spans are written when the command ends.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    with open(sys.argv[1], "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import tracing
    from distilrobust import cli

    expected = os.path.join(spec["src"], "distilrobust")
    if os.path.dirname(os.path.abspath(cli.__file__)) != expected:
        print(f"perfbench: imported {cli.__file__}, not the package in {expected}",
              file=sys.stderr)
        return 3

    result = {}
    if spec["trace"]:
        tracer = tracing.Tracer(spec["run_id"])
        tracing.install(tracer)
        root = tracer.open("cli.main")
        try:
            rc = cli.main(spec["argv"])
        finally:
            tracer.close(root)
        result.update(tracer.export())
    else:
        stamps: list = []
        tracing.install_step_clock(spec["hook_module"], spec["hook_name"], stamps)
        rc = cli.main(spec["argv"])
        result["stamps"] = stamps
    result["rc"] = rc
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
