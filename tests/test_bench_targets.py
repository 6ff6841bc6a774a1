"""The benchmark's traced functions must exist in the package.

bench/spans.py wraps each name in its NAMES with getattr; a rename or a
deletion there would otherwise surface only as a crash of ``--trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_span_target_is_callable():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.NAMES
    for name in spans.NAMES:
        module, func = name.split(".")
        target = getattr(importlib.import_module("qif." + module), func, None)
        assert callable(target), name
