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


@pytest.fixture()
def checkouts(tmp_path):
    """Two checkout directories; only the change's BENCHMARK.json is read."""
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    (new / "BENCHMARK.json").write_text((_PATH.parents[1] / "BENCHMARK.json").read_text())
    return old, new


def fake_runs(monkeypatch, checkouts, values):
    """run_once answers with values[workload][side] in turn: (call_p50_ms, failed) per run."""
    sides = dict(zip(checkouts, ("old", "new")))
    served = []

    def run_once(checkout, workload, args):
        side = sides[checkout]
        p50, failed = values[workload][side][sum(s == (workload, side) for s in served)]
        served.append((workload, side))
        return {"attempted": 10, "failed": failed,
                "metrics": {"call_p50_ms": {"value": p50, "unit": "ms"}}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    return served


def pairs_argv(checkouts, *workloads, claim=None):
    argv = [str(checkouts[0]), str(checkouts[1]), "--seed", "5", "--pairs", "10"]
    for workload in workloads:
        argv += ["--workload", workload]
    return argv + (["--claim", claim] if claim else [])


def test_each_workload_is_judged_in_its_own_block(monkeypatch, checkouts, capsys):
    served = fake_runs(monkeypatch, checkouts, {
        "grid_batch": {"old": [(x, 0) for x in PARENT], "new": [(x - 0.1, 0) for x in PARENT]},
        "oneshot": {"old": [(x, 1) for x in PARENT], "new": [(x * 1.01, 1) for x in PARENT]},
    })
    argv = pairs_argv(checkouts, "grid_batch", "oneshot", claim="call_p50_ms")
    assert bench_pairs.main(argv) == 0
    assert served[:20] == [("grid_batch", side) for side in ("old", "new", "new", "old") * 5]
    assert served[20:] == [("oneshot", side) for side in ("old", "new", "new", "old") * 5]
    blocks = [line for line in capsys.readouterr().out.splitlines() if " seed 5, " in line]
    assert [line.split()[0] for line in blocks] == ["grid_batch", "oneshot"]


def test_the_claim_is_judged_on_the_first_workload_only(monkeypatch, checkouts, capsys):
    fake_runs(monkeypatch, checkouts, {
        "grid_batch": {"old": [(x, 0) for x in PARENT], "new": [(x - 0.1, 0) for x in PARENT]},
        "oneshot": {"old": [(x, 0) for x in PARENT], "new": [(x, 0) for x in PARENT]},
    })
    assert bench_pairs.main(pairs_argv(checkouts, "grid_batch", "oneshot",
                                       claim="call_p50_ms")) == 0
    verdicts = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("  call_p50_ms")]
    assert "claim met: 10/10 pairs won" in verdicts[0]
    assert verdicts[1].endswith("; within bound 0.25")


@pytest.mark.parametrize("second", [
    {"old": [(x, 0) for x in PARENT], "new": [(x * 1.3, 0) for x in PARENT]},  # OUTSIDE
    {"old": [(x, 0) for x in PARENT], "new": [(x, 1) for x in PARENT]},  # more calls fail
], ids=["outside_a_bound", "failed_share"])
def test_a_failing_later_workload_fails_the_command(monkeypatch, checkouts, second):
    fake_runs(monkeypatch, checkouts, {
        "grid_batch": {"old": [(x, 0) for x in PARENT], "new": [(x - 0.1, 0) for x in PARENT]},
        "sweep_oracle": second,
    })
    assert bench_pairs.main(pairs_argv(checkouts, "grid_batch", "sweep_oracle",
                                       claim="call_p50_ms")) == 1


def test_a_claim_not_met_fails_the_command(monkeypatch, checkouts):
    unchanged = {"grid_batch": {"old": [(x, 0) for x in PARENT], "new": [(x, 0) for x in PARENT]}}
    fake_runs(monkeypatch, checkouts, unchanged)
    assert bench_pairs.main(pairs_argv(checkouts, "grid_batch", claim="call_p50_ms")) == 1
    fake_runs(monkeypatch, checkouts, unchanged)
    assert bench_pairs.main(pairs_argv(checkouts, "grid_batch")) == 0
