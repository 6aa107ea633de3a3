"""The benchmark traces the program by swapping named functions for wrappers.

``bench/tracing.py`` lists each hook as (module or class, attribute). A
refactor that renames one of them, moves it, or turns a method into a
cached property would silently stop ``bench/run.py --trace 1`` from
attributing that layer; this test fails instead.
"""

import importlib
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_trace_hook_resolves_to_a_plain_function(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.PATCHES
    for target, attr, _ in tracing.PATCHES:
        owner = tracing._resolve(target)
        assert hasattr(owner, attr), f"{target} has no attribute {attr}"
        assert inspect.isfunction(getattr(owner, attr)), f"{target}.{attr} is not a plain function"
