"""The traced benchmark wraps package functions by name; they must exist.

``bench/tracing.py`` replaces each target at ``owner.__dict__[attr]`` for a
traced run, so renaming or moving one of them breaks ``bench/run.py
--trace 1`` with a ``KeyError``.  This test builds the same target list
against the package and fails on such a rename instead.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
MODULES = ("delay_scheduler", "kernels", "matmul", "batch_dfs", "cli")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_exists():
    tracing = load_tracing()
    lib = {m: importlib.import_module(f"cliquestream.{m}") for m in MODULES}
    targets = tracing.targets(lib, tracing.Recorder())
    assert targets
    for owner, attr, replacement in targets:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} is wrapped by name"
        assert callable(owner.__dict__[attr]) and callable(replacement)

