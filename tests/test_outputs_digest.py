"""tools/outputs_digest.py --compare on hand-written digest files, and one seed of the
workloads, run in a fresh process, against the committed golden digest."""

import importlib.util
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "outputs_digest.py"
GOLDEN = Path(__file__).with_name("outputs_digest_seed7.txt")
_SPEC = importlib.util.spec_from_file_location("outputs_digest", _PATH)
outputs_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(outputs_digest)

SIMULATE = {"workload": "oneshot", "seed": 7, "call": 0, "kind": "simulate",
            "argv": ["simulate", "work dir/a.qif"], "code": 0,
            "stdout": "aa", "stderr": None, "exc": None, "csv": None}
PROPAGATE = {"workload": "grid_batch", "seed": 7, "call": 5, "kind": "propagate",
             "argv": ["propagate", "--force", "1.5", "--substeps", "400"], "code": 0,
             "stdout": "bb", "stderr": None, "exc": None, "csv": None}


def _write(path, lines):
    path.write_text(json.dumps(lines), encoding="utf-8")
    return str(path)


def _compare(tmp_path, old, new, capsys):
    code = outputs_digest.main(["--compare", _write(tmp_path / "old.json", old),
                                _write(tmp_path / "new.json", new)])
    return code, capsys.readouterr().out.splitlines()


def test_identical_files(tmp_path, capsys):
    code, out = _compare(tmp_path, [SIMULATE, PROPAGATE], [SIMULATE, PROPAGATE], capsys)
    assert (code, out) == (0, ["0 of 2 calls differ"])


def test_each_differing_call_names_its_changed_fields(tmp_path, capsys):
    changed = dict(PROPAGATE, code=3, stdout="cc", stderr="dd")
    code, out = _compare(tmp_path, [SIMULATE, PROPAGATE], [SIMULATE, changed], capsys)
    assert code == 1
    assert out == ["grid_batch seed 7 call 5 propagate: code, stdout, stderr",
                   "    propagate --force 1.5 --substeps 400",
                   "1 of 2 calls differ"]


def test_a_call_on_one_side_only_differs(tmp_path, capsys):
    code, out = _compare(tmp_path, [SIMULATE], [SIMULATE, dict(PROPAGATE, csv="ee")], capsys)
    assert code == 1
    assert out[0] == f"grid_batch seed 7 call 5 propagate: only in {tmp_path / 'new.json'}"
    assert out[-1] == "1 of 2 calls differ"


def test_argv_is_printed_in_shell_quoting(tmp_path, capsys):
    code, out = _compare(tmp_path, [SIMULATE], [dict(SIMULATE, csv="ff")], capsys)
    assert code == 1
    assert out[:2] == ["oneshot seed 7 call 0 simulate: csv",
                       "    simulate 'work dir/a.qif'"]


def test_compare_takes_no_checkout(tmp_path):
    with pytest.raises(SystemExit) as exc:
        outputs_digest.main([str(tmp_path), "--compare", "old.json", "new.json"])
    assert exc.value.code == 2


def test_compact_and_json_lines_compare_on_kind_code_and_outputs(tmp_path, capsys):
    compact = tmp_path / "old.txt"
    compact.write_text("# workload seed call kind code outputs\n# numpy 0\n"
                       f"oneshot 7 0 simulate 0 {outputs_digest._outputs(SIMULATE)}\n"
                       "grid_batch 7 5 propagate 0 0123456789abcdef\n", encoding="utf-8")
    code = outputs_digest.main(["--compare", str(compact), _write(tmp_path / "new.json",
                                                                  [SIMULATE, PROPAGATE])])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "grid_batch seed 7 call 5 propagate: outputs",
        "    propagate --force 1.5 --substeps 400",
        "1 of 2 calls differ"]


def test_seed_7_outputs_match_the_golden_digest(tmp_path, capsys):
    """Every call of one pass of the three workloads at seed 7 exits and prints what the
    golden file holds.  A change that alters outputs on purpose regenerates it with
        python3 tools/outputs_digest.py . tests/outputs_digest_seed7.txt --seeds 7 --compact
    The last bits depend on numpy's version and SIMD targets, which its header names: where
    they differ here, every call is still compared, and the test says so first if one
    differs, or warns if none does."""
    _, header = outputs_digest.load(GOLDEN)
    fresh = tmp_path / "seed7.json"
    # in a TMPDIR of its own: no output may depend on where the inputs were written
    run = subprocess.run([sys.executable, str(_PATH), str(_PATH.parents[1]), str(fresh),
                          "--seeds", "7"], capture_output=True, text=True,
                         env=dict(os.environ, TMPDIR=str(tmp_path)))
    assert run.returncode == 0, run.stderr
    code = outputs_digest.compare(GOLDEN, fresh)
    report = capsys.readouterr().out
    expected = [line for line in header if line.startswith(("numpy ", "cpu "))]
    here = outputs_digest.fingerprint()
    loud = (f"ENVIRONMENT DIFFERS FROM THE GOLDEN DIGEST'S: {'; '.join(expected)} there, "
            f"{'; '.join(here)} here" if here != expected else "")
    assert code == 0, f"{loud}\n{report}"
    if loud:
        warnings.warn(loud)
