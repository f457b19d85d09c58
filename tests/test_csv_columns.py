"""The drive-log CSV is written and read by column: every float cell is the
text numpy prints for it, and a bad file names its first faulty line in
file order, whichever column or row check finds it."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvepath.simulate import LOG_HEADER, LogFormatError, load_drive_log, write_csv


def numpy_positional(value) -> str:
    return np.format_float_positional(float(value), unique=True, min_digits=9)


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    return tmp_path_factory.mktemp("columns") / "table.csv"


def written_cells(path, column) -> list[str]:
    """The cells write_csv gives a one-column table."""
    write_csv(path, "v", [column])
    header, *cells, end = path.read_text(encoding="utf-8").split("\n")
    assert header == "v" and end == ""
    return cells


def assert_prints_as_numpy(path, column):
    assert written_cells(path, column) == [numpy_positional(v) for v in np.asarray(column).tolist()]


every_double = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@st.composite
def decimals_near_a_bound(draw):
    """A decimal with 0-12 fractional digits within a factor of two of 1e-4
    or 1e6, where the writer's cell kinds meet, moved by up to one ulp."""
    bound = draw(st.sampled_from([1e-4, 1e6]))
    digits = draw(st.integers(0, 12))
    scaled = bound * 10**digits
    units = draw(st.integers(int(scaled / 2), int(scaled * 2)))
    value = float(f"{draw(st.sampled_from(['', '-']))}{units}e-{digits}")
    return float(np.nextafter(value, draw(st.sampled_from([-np.inf, value, np.inf]))))


@settings(max_examples=400)
@given(st.lists(st.one_of(every_double, decimals_near_a_bound()), max_size=40))
def test_every_double_prints_as_numpy(table, values):
    assert_prints_as_numpy(table, np.array(values, dtype=np.float64))


@settings(max_examples=200)
@given(st.lists(st.floats(width=32, allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=40))
def test_a_float32_column_prints_its_doubles(table, values):
    column = np.array(values, dtype=np.float32)
    assert written_cells(table, column) == [numpy_positional(v) for v in column.astype(np.float64).tolist()]


@settings(max_examples=300)
@given(st.lists(decimals_near_a_bound(), min_size=1, max_size=40))
def test_decimals_at_the_kind_bounds_print_as_numpy(table, values):
    assert_prints_as_numpy(table, np.array(values))


@pytest.mark.parametrize("column", [
    [1.5, -2.25, 3.7, 0.0, -0.0, 25.0, 0.0001, 999999.99999999],
    [0.1 + 0.2, -1.2345678901, 0.000123456789, 999999.999999999],
    [1.2345678912e-7, -5e-324, 2.2250738585072014e-308, 9.999999999999999e-05],
    [1e6, -1.7976931348623157e308, 1e16, np.nan, np.inf, -np.inf],
    [],
], ids=["all-short", "all-long", "all-tiny", "all-other", "empty"])
def test_a_column_of_one_kind_prints_as_numpy(table, column):
    assert_prints_as_numpy(table, np.array(column, dtype=np.float64))


def test_columns_of_unequal_length_raise(table):
    with pytest.raises(ValueError):
        write_csv(table, "a,b", [np.zeros(3), np.zeros(2)])


def log_text(rows=12, faults=None) -> str:
    """A well-formed drive log of `rows` rows, with the rows that `faults`
    maps from a line number (the header is line 1) replaced."""
    lines = [LOG_HEADER] + [f"{i},{i * 0.05},{i * 1.25},0.0,0.0,25.0,0.0,0.0,0.0,0.0,3.7" for i in range(rows)]
    for lineno, line in (faults or {}).items():
        lines[lineno - 1] = line
    return "\n".join(lines) + "\n"


def load_fails(tmp_path, text) -> str:
    path = tmp_path / "log.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(LogFormatError) as info:
        load_drive_log(path)
    message = str(info.value)
    assert message.startswith(f"{path}: ")
    return message[len(f"{path}: "):]


SHORT_ROW = "5,0.25,6.25,0.0,0.0"


def test_a_bad_float_before_a_short_row_names_the_float(tmp_path):
    message = load_fails(tmp_path, log_text(faults={3: "1,0.05,1.25,abc,0.0,25.0,0.0,0.0,0.0,0.0,3.7", 7: SHORT_ROW}))
    assert message == "line 3: could not convert string to float: 'abc'"


def test_a_short_row_before_a_bad_float_names_the_row(tmp_path):
    message = load_fails(tmp_path, log_text(faults={7: SHORT_ROW, 9: "7,0.35,8.75,abc,0.0,25.0,0.0,0.0,0.0,0.0,3.7"}))
    assert message == "line 7: expected 11 columns, got 5"


def test_rows_of_one_wrong_width_name_the_first(tmp_path):
    text = log_text(rows=4).replace("\n", ",0.0\n").replace(",0.0\n", "\n", 1)
    assert text.count(",0.0\n") == 4
    assert load_fails(tmp_path, text) == "line 2: expected 11 columns, got 12"


def test_a_bad_last_cell_is_named_before_a_later_bad_cycle(tmp_path):
    message = load_fails(tmp_path, log_text(faults={4: "2,0.1,2.5,0.0,0.0,25.0,0.0,0.0,0.0,0.0,wide",
                                                    5: "three,0.15,3.75,0.0,0.0,25.0,0.0,0.0,0.0,0.0,3.7"}))
    assert message == "line 4: could not convert string to float: 'wide'"


def test_the_first_bad_cell_of_a_row_is_named(tmp_path):
    message = load_fails(tmp_path, log_text(faults={6: "4,early,5.0,0.0,0.0,25.0,0.0,late,0.0,0.0,3.7"}))
    assert message == "line 6: could not convert string to float: 'early'"


@pytest.mark.parametrize("cycle", [2**63, -(2**63) - 1])
def test_a_cycle_outside_int64_is_named_with_its_line(tmp_path, cycle):
    message = load_fails(tmp_path, log_text(faults={8: f"{cycle},0.3,7.5,0.0,0.0,25.0,0.0,0.0,0.0,0.0,3.7"}))
    assert message == f"line 8: cycle index {cycle} outside the int64 range"


def test_blank_lines_are_skipped(tmp_path):
    plain = tmp_path / "plain.csv"
    plain.write_text(log_text(rows=5), encoding="utf-8")
    spaced = tmp_path / "spaced.csv"
    spaced.write_text(log_text(rows=5).replace("\n", "\n\n  \n", 3), encoding="utf-8")
    a, b = load_drive_log(plain), load_drive_log(spaced)
    for name in ("cycle", "t", "x", "lane_width"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    # a fault after blank lines is named by its line in the file
    text = log_text(rows=5).replace("\n", "\n\n", 2).replace("\n3,", "\n3x,", 1)
    assert load_fails(tmp_path, text) == "line 7: invalid literal for int() with base 10: '3x'"
