"""A corruption sweep through the command line: one absurd cell, in any
float column of a plain row, a replan row or a node row of the S-curve log,
costs at most its unit. calibrate and simulate in both modes exit 0 or 2
with no exception escaping, numpy warnings raised as errors; a run that
exits 0 counts every unit it loses (calibrate's cycles used and skipped, and
a replay's replan records, are the clean log's), and an absurd intercept on
a node row is exactly one more "coordinates" skip or gap.
The timestamps set the sample time alone, so absurd or backwards ones
change no output, and a cycle index outside int64 is a bad log."""

import itertools
import json
from collections import Counter

import pytest

from curvepath import cli
from curvepath.simulate import LOG_HEADER

from conftest import P_TRUE

# at the default retrigger of 30 and node distances (10, 39, 137) m: row 300
# replans, row 278 is the near node of the replan at 270 and of no other,
# and row 285 is neither
ROWS = {"plain": 285, "replan": 300, "node": 278}
VALUES = ("1e+308", "-1e+308", "1000000.0", "nan")
COMMANDS = ("calibrate", "validation", "estimation")


def _run(command, log_path, out, gains) -> int:
    if command == "calibrate":
        argv = ["calibrate", "--out", str(out / "calibrate.json")]
    else:
        argv = ["simulate", "--mode", command, "--out-prefix", str(out / command)]
        if command == "validation":
            argv += ["--gains", str(gains)]
    return cli.main([*argv, "--log", str(log_path)])


def _outputs(command, out) -> dict:
    """What a run that exited 0 wrote, less calibrate's provenance."""
    if command == "calibrate":
        payload = json.loads((out / "calibrate.json").read_text(encoding="utf-8"))
        del payload["provenance"]
        return payload
    return {suffix: (out / f"{command}{suffix}").read_text(encoding="utf-8")
            for suffix in ("_trace.csv", "_replans.json")}


def _corrupt(lines, edits) -> str:
    """The log text with each (row, field, value) cell replaced."""
    lines = list(lines)
    for row, field, value in edits:
        cells = lines[row + 1].rstrip("\n").split(",")  # line 0 is the header
        assert cells[0] == str(row)
        cells[field] = value
        lines[row + 1] = ",".join(cells) + "\n"
    return "".join(lines)


def _lost(command, outputs) -> Counter:
    """The units a run counted as lost, by reason."""
    if command == "calibrate":
        return Counter(outputs["dataset"]["skipped_by_reason"])
    return Counter(entry["reason"] for entry in json.loads(outputs["_replans.json"]) if entry["gap"])


def _units(command, outputs):
    """The units a run accounts for: calibrate's cycles used or skipped, and
    the cycle of each of a replay's replan records."""
    if command == "calibrate":
        return outputs["dataset"]["cycles"] + outputs["dataset"]["skipped"]
    return [entry["cycle"] for entry in json.loads(outputs["_replans.json"])]


@pytest.fixture(scope="module")
def clean(clean_driver_log, tmp_path_factory):
    """The clean log's lines, the gains file, and each command's outputs."""
    out = tmp_path_factory.mktemp("clean")
    gains = out / "gains.json"
    gains.write_text(json.dumps(P_TRUE.ravel().tolist()), encoding="utf-8")
    clean_driver_log.write_csv(out / "log.csv")
    outputs = {}
    for command in COMMANDS:
        assert _run(command, out / "log.csv", out, gains) == 0
        outputs[command] = _outputs(command, out)
    return (out / "log.csv").read_text(encoding="utf-8").splitlines(keepends=True), gains, outputs


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("column", LOG_HEADER.split(",")[1:])
def test_one_absurd_cell_costs_at_most_its_unit(column, clean, tmp_path):
    lines, gains, clean_outputs = clean
    field = LOG_HEADER.split(",").index(column)
    log_path = tmp_path / "log.csv"
    failed = []
    for (kind, row), value in itertools.product(ROWS.items(), VALUES):
        log_path.write_text(_corrupt(lines, [(row, field, value)]), encoding="utf-8")
        for command in COMMANDS:
            case = f"{column} = {value} on the {kind} row, {command}"
            try:
                code = _run(command, log_path, tmp_path, gains)
            except Exception as exc:  # every escaping exception is a failed case
                failed.append(f"{case}: {type(exc).__name__}: {exc}")
                continue
            if code not in (0, 2):
                failed.append(f"{case}: exit {code}")
                continue
            outputs = _outputs(command, tmp_path) if code == 0 else None
            # a unit that is lost is counted: used and skipped add up to the clean run's
            if outputs and _units(command, outputs) != _units(command, clean_outputs[command]):
                failed.append(f"{case}: accounts for {_units(command, outputs)} units, "
                              f"the clean log for {_units(command, clean_outputs[command])}")
            if (column, kind) == ("c0", "node") and value.endswith("e+308"):
                want = Counter(coordinates=1) if command != "validation" else Counter()
                clean_lost = _lost(command, clean_outputs[command])
                got = _lost(command, outputs) if outputs else None
                if got is None or got - clean_lost != want or clean_lost - got:
                    failed.append(f"{case}: exit {code}, lost {got} against {clean_lost} clean")
    assert not failed, "\n".join(failed)


# adjacent timestamps of +-1e308 overflow the step between them; a
# backwards one is two outlying steps
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("edits", [
    [(ROWS["plain"], 1, "1e+308"), (ROWS["plain"] + 1, 1, "-1e+308")],
    [(ROWS["plain"], 1, "0.0")],
], ids=["overflowing-pair", "backwards"])
def test_absurd_timestamps_change_no_output(edits, clean, tmp_path):
    lines, gains, clean_outputs = clean
    log_path = tmp_path / "log.csv"
    log_path.write_text(_corrupt(lines, edits), encoding="utf-8")
    for command in COMMANDS:
        assert _run(command, log_path, tmp_path, gains) == 0, command
        assert _outputs(command, tmp_path) == clean_outputs[command], command


def _wrapping(rows: int) -> list:
    """Indices from the largest int64 on, each one more in int64 arithmetic,
    which wraps to the smallest."""
    return [(row, 0, str((row + 2**64 - 1) % 2**64 - 2**63)) for row in range(rows)]


# a cycle index past int64, and a run of indices that would wrap there
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("edits,message", [
    (lambda rows: [(ROWS["plain"], 0, str(10**20))],
     f"line {ROWS['plain'] + 2}: cycle index {10**20} outside the int64 range"),
    (_wrapping, f"cycle indices must be contiguous: row 1 has cycle {-2**63} after {2**63 - 1}, "
                "wrapping past the int64 end"),
], ids=["past-int64", "wrapping"])
def test_a_cycle_index_outside_int64_is_a_bad_log(edits, message, clean, tmp_path, capsys):
    lines, gains, _ = clean
    log_path = tmp_path / "log.csv"
    log_path.write_text(_corrupt(lines, edits(len(lines) - 1)), encoding="utf-8")
    for command in COMMANDS:
        assert _run(command, log_path, tmp_path, gains) == 2, command
        assert message in capsys.readouterr().err, command
