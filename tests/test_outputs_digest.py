"""tools/outputs_digest.py --compare on hand-written digest files: no workload is run."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "outputs_digest.py"
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
