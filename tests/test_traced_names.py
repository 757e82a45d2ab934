"""The benchmark drives the package from outside: its tracer wraps package
functions by name, and its input generator writes train configs. Both must
stay valid against the package; the benchmark files are loaded read-only."""

import importlib
import importlib.util
import os

import pytest

from distilrobust.trainer import TrainConfig

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_callable():
    tracing = load_perfbench("tracing")
    missing = [f"{layer}.{name}" for layer, names in tracing.WRAPPED.items() for name in names
               if not callable(getattr(importlib.import_module(f"distilrobust.{layer}"), name,
                                       None))]
    assert missing == []


@pytest.mark.parametrize("workload", ["train_A", "train_C1"])
def test_benchmark_train_config_loads(tmp_path, workload):
    info = load_perfbench("inputs").generate(workload, 3, str(tmp_path), tiny=True)
    with open(info["config"], encoding="utf-8") as fh:
        cfg = TrainConfig.from_json(fh.read())
    assert cfg.experiment == workload.removeprefix("train_")
