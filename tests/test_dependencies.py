"""The package imports nothing beyond the standard library, numpy and itself."""

import ast
import glob
import os
import sys

import distilrobust

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "distilrobust"}


def _absolute_imports(path):
    """(line, top-level module) for every absolute import in one source file."""
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_is_numpy_only():
    sources = sorted(glob.glob(os.path.join(os.path.dirname(distilrobust.__file__), "*.py")))
    assert sources
    foreign = [f"{os.path.basename(path)}:{line}: {module}"
               for path in sources
               for line, module in _absolute_imports(path)
               if module not in ALLOWED]
    assert foreign == []
