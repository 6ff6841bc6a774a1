"""tools/bench_pairs.py's verdicts on hand-written runs; no benchmark is run."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [0.90, 0.91, 0.92, 0.93, 0.94, 0.95, 0.96, 0.97, 0.98, 0.99]  # IQR 0.045


def test_quartiles_interpolate_between_order_statistics():
    assert bench_pairs.quartiles(PARENT) == pytest.approx((0.9225, 0.945, 0.9675))
    assert bench_pairs.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_a_claim_needs_nine_tenths_of_the_pairs():
    faster = [x - 0.1 for x in PARENT]
    assert bench_pairs.claim_verdict(PARENT, faster, "lower")[0]
    eight = faster[:8] + PARENT[8:]  # two ties: they count for neither side
    assert bench_pairs.wins(PARENT, eight, "lower") == 8
    assert not bench_pairs.claim_verdict(PARENT, eight, "lower")[0]
    nine = faster[:9] + [PARENT[9]]
    met, reason = bench_pairs.claim_verdict(PARENT, nine, "lower")
    assert met and reason.startswith("9/10 pairs won")


def test_a_claim_needs_a_median_gain_beyond_the_parents_iqr():
    slightly = [x - 0.04 for x in PARENT]  # wins every pair, but by less than the IQR
    assert bench_pairs.wins(PARENT, slightly, "lower") == 10
    assert not bench_pairs.claim_verdict(PARENT, slightly, "lower")[0]
    assert bench_pairs.claim_verdict(PARENT, [x - 0.05 for x in PARENT], "lower")[0]


def test_higher_is_better_turns_every_comparison():
    assert bench_pairs.claim_verdict(PARENT, [x + 0.1 for x in PARENT], "higher")[0]
    assert not bench_pairs.claim_verdict(PARENT, [x - 0.1 for x in PARENT], "higher")[0]
    assert bench_pairs.bound_verdict(PARENT, [x * 0.8 for x in PARENT], "higher", 0.25) == "within"
    assert bench_pairs.bound_verdict(PARENT, [x * 0.7 for x in PARENT], "higher", 0.25) == "OUTSIDE"


def test_bound_verdicts():
    assert bench_pairs.bound_verdict(PARENT, [x * 1.2 for x in PARENT], "lower", 0.25) == "within"
    assert bench_pairs.bound_verdict(PARENT, [x * 1.3 for x in PARENT], "lower", 0.25) == "OUTSIDE"
    spread = [1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0]  # IQR 1 on a median 1.5
    assert bench_pairs.bound_verdict(PARENT, spread, "lower", 0.25) == "unresolved"
    assert bench_pairs.bound_verdict(spread, [0.5] * 10, "lower", 0.25) == "within"
