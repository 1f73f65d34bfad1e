"""Config parsing, grids, and the CSV round trip."""

import math

import numpy as np
import pytest

from qtransient.cli import main
from qtransient.config import (CsvTable, Grid, RunConfig, _fmt, parse_config,
                               parse_csv, parse_grid, render_csv)
from qtransient.errors import (ConfigError, MissingRequired,
                               NonPositiveParameter, UnknownKey)

FULL = """
[system]
V_eV = 0.3
E_eV = 0.001        # incident energy
L_nm = 4.0
mass_ratio = 0.067

[numerics]
tol = 1e-9
"""


def test_parse_full_config():
    assert parse_config(FULL) == dict(V_eV=0.3, E_eV=0.001, L_nm=4.0,
                                      mass_ratio=0.067, tol=1e-9)


def test_numerics_defaults():
    # the file holds only the keys it sets; RunConfig owns the defaults
    values = parse_config("[system]\nV_eV=0.3\nE_eV=0.001\nL_nm=4.0\n")
    assert values == dict(V_eV=0.3, E_eV=0.001, L_nm=4.0)
    cfg = RunConfig(**values)
    assert cfg.mass_ratio == 1.0
    assert cfg.tol == 1e-8


def test_missing_required_names_the_key(capsys, tmp_path):
    # the CLI checks the required keys once the file and the flags are
    # merged; a file without E_eV and no --E fails there, naming the key
    assert parse_config("[system]\nV_eV=0.3\nL_nm=4.0\n") == dict(
        V_eV=0.3, L_nm=4.0)
    ini = tmp_path / "run.ini"
    ini.write_text("[system]\nV_eV=0.3\nL_nm=4.0\nmass_ratio=0.067\n")
    assert main(["--config", str(ini), "tmax"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "missing required key 'E_eV'" in captured.err


def test_unknown_key_names_key_and_line():
    text = "[system]\nV_eV=0.3\nE_eV=0.001\nL_nm=4.0\nwidth_nm=4.0\n"
    with pytest.raises(UnknownKey, match=r"width_nm.*line 5"):
        parse_config(text)


def test_removed_underflow_guard_key_rejected():
    # underflow_guard never reached the numerics, and the pole budget is
    # fixed at propagator.HARD_CAP; a file that still sets either key fails
    # closed instead of being silently ignored
    for line in ("underflow_guard = 1e-150", "max_poles = 2048"):
        key = line.split()[0]
        with pytest.raises(UnknownKey, match=rf"{key}.*line 10"):
            parse_config(FULL + line + "\n")


def test_unknown_section_rejected():
    with pytest.raises(UnknownKey, match=r"\[solver\].*line 1"):
        parse_config("[solver]\nx = 1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("[system]\nV_eV=0.3\nV_eV=0.4\n")


def test_errors_are_raised_in_line_order():
    # one pass over the lines: the unknown key on line 2 is named before
    # the duplicate on line 4
    with pytest.raises(UnknownKey, match=r"^unknown key 'bogus' in \[system\] "
                       r"at line 2$"):
        parse_config("[system]\nbogus=1\nV_eV=0.3\nV_eV=0.4\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("[system]\nV_eV\n")
    with pytest.raises(ConfigError, match="outside"):
        parse_config("V_eV = 0.3\n")


def test_unparseable_value_names_line():
    with pytest.raises(ConfigError, match=r"V_eV.*line 2"):
        parse_config("[system]\nV_eV=tall\nE_eV=0.001\nL_nm=4.0\n")


def test_runconfig_validation():
    with pytest.raises(MissingRequired, match="V_eV"):
        RunConfig(V_eV=-0.3, E_eV=0.001, L_nm=4.0)
    with pytest.raises(MissingRequired, match="tol"):
        RunConfig(V_eV=0.3, E_eV=0.001, L_nm=4.0, tol=0.0)
    # the pole sum's own rule bounds tol from above: one owner for its range
    for tol in (1, 5.0):
        with pytest.raises(NonPositiveParameter, match="tol"):
            RunConfig(V_eV=0.3, E_eV=0.001, L_nm=4.0, tol=tol)


def test_provenance_items_cover_all_parameters():
    cfg = RunConfig(**parse_config(FULL))
    keys = [k for k, _ in cfg.provenance_items()]
    assert keys == ["V_eV", "E_eV", "L_nm", "mass_ratio", "tol"]


@pytest.mark.parametrize("text,expected", [
    ("1:4:7", Grid(1.0, 4.0, 7, "lin")),
    ("1:4:7:lin", Grid(1.0, 4.0, 7, "lin")),
    ("0.1:10:5:log", Grid(0.1, 10.0, 5, "log")),
])
def test_parse_grid(text, expected):
    assert parse_grid(text) == expected


def test_grid_values():
    lin = parse_grid("1:3:5").values()
    assert np.array_equal(lin, [1.0, 1.5, 2.0, 2.5, 3.0])
    log = parse_grid("1:100:3:log").values()
    assert log == pytest.approx([1.0, 10.0, 100.0])
    assert str(parse_grid("1:3:5")) == "1:3:5:lin"


@pytest.mark.parametrize("bad", [
    "1:4", "1:4:7:quad", "1:4:1", "a:4:7", "1:inf:7", "-1:4:7:log", "1:4:7:8:9",
])
def test_parse_grid_rejects(bad):
    with pytest.raises(ConfigError, match="--grid"):
        parse_grid(bad, "--grid")


def test_csv_round_trip_is_bitwise():
    rows = ((math.pi, 1e-300, True, 7), (0.1, -2.5e17, False, -1))
    table = CsvTable(columns=("a", "b", "flag", "n"), rows=rows,
                     provenance=(("V_eV", 0.3), ("command", "evolve")))
    text = render_csv(table)
    lines = text.splitlines()
    assert lines[0].startswith("# qtransient ")
    assert "V_eV=0.29999999999999999" in lines[0]
    assert lines[1] == "a,b,flag,n"
    prov, cols, parsed = parse_csv(text)
    assert cols == ("a", "b", "flag", "n")
    assert parsed[0][0] == math.pi
    assert parsed[0][1] == 1e-300
    assert parsed[0][2] is True
    assert parsed[1][1] == -2.5e17
    assert parsed[1][2] is False


def test_render_csv_prints_each_cell_as_fmt():
    # every cell type a table may hold, one column of each, plus columns
    # whose cell type changes between rows; each row must read as the
    # per-cell _fmt join and parse back bitwise
    floats = (0.1, np.float64(math.pi), math.nan, math.inf, -math.inf, -0.0,
              5e-324, 1e-300, 1.7976931348623157e308, np.float64(-0.0))
    rows = tuple((f, i % 2 == 0, i - 4, f"s{i}", np.float64(f),
                  (True, 3, 0.1, "x", np.float64(2.5))[i % 5],
                  (7, 10 ** 20, 2.5, -1, np.float64(1e-300))[i % 5],
                  (0.5, False)[i % 2])
                 for i, f in enumerate(floats))
    columns = ("f", "flag", "n", "s", "f64", "mixed", "int_float",
               "float_bool")
    text = render_csv(CsvTable(columns=columns, rows=rows))
    assert text.splitlines()[2:] == [",".join(map(_fmt, r)) for r in rows]
    assert "nan" in text and "-inf" in text and "-0," in text
    _, cols, parsed = parse_csv(text)
    assert cols == columns
    assert len(parsed) == len(rows)
    for got, row in zip(parsed, rows):
        for g, v in zip(got, row):
            if isinstance(v, bool):
                assert g is v
            elif isinstance(v, str):
                assert g == v
            else:
                assert np.float64(g).tobytes() == np.float64(v).tobytes()


def test_ragged_rows_refused():
    with pytest.raises(ConfigError, match="2 cells wide"):
        render_csv(CsvTable(columns=("a", "b"), rows=((1.0, 2.0), (3.0,))))


def test_empty_table_refused():
    with pytest.raises(ConfigError, match="empty"):
        render_csv(CsvTable(columns=("a",), rows=()))


def test_parse_csv_requires_provenance():
    with pytest.raises(ConfigError):
        parse_csv("a,b\n1,2\n")
