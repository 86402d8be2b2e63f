"""The export lists agree with the code: perfbench's tracer wraps the names
in each module's ``__all__`` and skips a missing one without a word, so a
stale entry would lose its per-layer span silently."""

import ast
import importlib
import os
import subprocess
import sys

import pytest

import iterreg

MODULES = ("problems", "optimizers", "averaging", "oracles", "data_io", "linalg", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    mod = importlib.import_module(f"iterreg.{name}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def test_package_reexports_only_listed_names():
    with open(iterreg.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    unlisted = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            listed = importlib.import_module(f"iterreg.{node.module}").__all__
            unlisted += [f"{node.module}.{a.name}" for a in node.names if a.name not in listed]
    assert unlisted == []


def test_cli_start_does_not_import_qhull():
    # scipy is imported where it is used (psgd_run, expectation_path, convex_hull),
    # so a subcommand that needs none of them starts without it.
    src = os.path.dirname(os.path.dirname(iterreg.__file__))
    code = ("import sys, iterreg, iterreg.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    assert result.stdout.strip() == "[]"
