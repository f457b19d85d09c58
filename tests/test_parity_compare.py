"""scripts/parity.py compare: the determinism check passes on equal outputs
and fails on each kind of difference it is meant to catch."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "parity.py"


@pytest.fixture(scope="module")
def parity():
    spec = importlib.util.spec_from_file_location("parity", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(out: Path, x: float = 12.5, path_id: int = 0, extra_key: bool = False) -> Path:
    out.mkdir()
    (out / "trace.csv").write_text(
        f"cycle,x,y,theta,offset,path_id\n0,{x!r},-3.25,0.125,0.0625,{path_id}\n1,13.75,-3.0,0.25,0.03125,0\n",
        encoding="utf-8",
    )
    replans = [{"cycle": 0, "gap": False, "offsets": [0.1, -0.2, 0.3]}, {"cycle": 30, "gap": True}]
    if extra_key:
        replans[1]["reason"] = "preview"
    (out / "replans.json").write_text(json.dumps(replans, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return out


@pytest.mark.parametrize(
    "change",
    [{}, {"x": 12.5 + 5e-10}],
    ids=["identical", "x within 1e-9"],
)
def test_compare_passes(parity, tmp_path, change, capsys):
    assert parity.compare(_write(tmp_path / "a"), _write(tmp_path / "b", **change)) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "change",
    [{"x": 12.5 + 2e-9}, {"path_id": 1}, {"extra_key": True}],
    ids=["x beyond 1e-9", "path_id", "extra JSON key"],
)
def test_compare_fails(parity, tmp_path, change, capsys):
    assert parity.compare(_write(tmp_path / "a"), _write(tmp_path / "b", **change)) == 1
    assert "FAIL" in capsys.readouterr().out


def test_compare_fails_on_a_missing_file(parity, tmp_path, capsys):
    base = _write(tmp_path / "a")
    new = tmp_path / "b"
    shutil.copytree(base, new)
    (new / "replans.json").unlink()
    assert parity.compare(base, new) == 1
    assert "file sets differ" in capsys.readouterr().out


def test_compare_names_added_keys_and_checks_shared_values(parity, tmp_path, capsys):
    base = _write(tmp_path / "a")
    new = _write(tmp_path / "b", extra_key=True)
    replans = json.loads((new / "replans.json").read_text())
    replans[0]["offsets"][1] += 2e-9
    (new / "replans.json").write_text(json.dumps(replans, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    assert parity.compare(base, new) == 1
    out = capsys.readouterr().out
    assert "/1/reason" in out
    assert "offsets: " in out and "over 1e-09" in out


def test_compare_names_added_empty_containers(parity, tmp_path, capsys):
    base, new = tmp_path / "a", tmp_path / "b"
    for out, payload in ((base, {"x": 1.0}), (new, {"x": 1.0, "y": {}, "z": []})):
        out.mkdir()
        (out / "result.json").write_text(json.dumps(payload) + "\n", encoding="utf-8")
    assert parity.compare(base, new) == 1
    out = capsys.readouterr().out
    assert "/y y: only in new" in out and "/z z: only in new" in out


def test_check_compares_only_the_files_the_reference_holds(parity, tmp_path, capsys):
    new = _write(tmp_path / "new")
    reference = tmp_path / "reference"
    reference.mkdir()
    shutil.copy(new / "replans.json", reference / "replans.json")
    assert parity.compare(reference, new, base_files_only=True) == 0
    assert parity.compare(reference, new) == 1
    (reference / "replans.json").write_text((new / "replans.json").read_text().replace("0.3", "0.4"))
    assert parity.compare(reference, new, base_files_only=True) == 1
    shutil.copy(new / "replans.json", reference / "replans.json")
    (new / "replans.json").unlink()
    assert parity.compare(reference, new, base_files_only=True) == 1
    assert "file sets differ: ['replans.json']" in capsys.readouterr().out
