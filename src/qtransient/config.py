"""Run configuration: INI parsing, validation, grids, and CSV emission.

The configuration surface is deliberately flat -- every run in this domain
is a short list of scalars and grids -- so a two-section INI file covers it:

    [system]
    V_eV = 0.3
    E_eV = 0.001
    L_nm = 4.0
    mass_ratio = 0.067

    [numerics]
    tol = 1e-8

Unknown keys are rejected (fail-closed) and every config error names the
offending key and line, retired keys such as `max_poles` included (the
pole budget is the constant propagator.HARD_CAP).  Command-line flags
override file values, and a file may leave out any key a flag supplies.

Grids are `start:stop:count` triplets with an optional trailing `:lin` or
`:log` spacing flag.

CSV output starts with a single `#`-prefixed provenance comment echoing
every effective parameter plus the tool version, followed by a header row;
floats are printed with 17 significant digits so parsing the file recovers
them bitwise.
"""

from __future__ import annotations

import math
import sys as _sys
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, MissingRequired, UnknownKey
from .propagator import DEFAULT_TOL

TOOL_VERSION = "0.1.0"

_SYSTEM_KEYS = ("V_eV", "E_eV", "L_nm", "mass_ratio")


@dataclass(frozen=True)
class Grid:
    """A 1-D scan grid, `start:stop:count` with lin or log spacing."""

    start: float
    stop: float
    count: int
    spacing: str = "lin"

    def values(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)

    def __str__(self):
        return f"{self.start:.17g}:{self.stop:.17g}:{self.count}:{self.spacing}"


def parse_grid(text, key="grid") -> Grid:
    """Parse `start:stop:count` or `start:stop:count:lin|log`."""
    parts = str(text).split(":")
    if len(parts) not in (3, 4):
        raise ConfigError(
            f"{key}: expected start:stop:count[:lin|log], got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None
    spacing = parts[3] if len(parts) == 4 else "lin"
    if spacing not in ("lin", "log"):
        raise ConfigError(f"{key}: spacing must be lin or log, got {spacing!r}")
    if count < 2:
        raise ConfigError(f"{key}: count must be >= 2, got {count}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"{key}: bounds must be finite")
    if spacing == "log" and (start <= 0 or stop <= 0):
        raise ConfigError(f"{key}: log spacing needs positive bounds")
    return Grid(start=start, stop=stop, count=count, spacing=spacing)


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters shared by every subcommand."""

    V_eV: float
    E_eV: float
    L_nm: float | None   # None: the command takes widths from an opacity grid
    mass_ratio: float = 1.0
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        for name in ("V_eV", "E_eV", "L_nm", "mass_ratio", "tol"):
            v = getattr(self, name)
            if name == "L_nm" and v is None:
                continue
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise MissingRequired(f"{name} must be a positive finite number, "
                                      f"got {v!r}")

    def provenance_items(self):
        return [(f.name, getattr(self, f.name)) for f in fields(self)
                if getattr(self, f.name) is not None]


def _parse_ini(text):
    """Minimal INI reader keeping line numbers: {(section, key): (value, line)}."""
    entries = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in ("system", "numerics"):
                raise UnknownKey(f"unknown section [{section}] at line {lineno}")
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value at line {lineno}: {raw!r}")
        if section is None:
            raise ConfigError(f"key outside any [section] at line {lineno}")
        key, value = (part.strip() for part in line.split("=", 1))
        if (section, key) in entries:
            raise ConfigError(f"duplicate key {key!r} at line {lineno}")
        entries[(section, key)] = (value, lineno)
    return entries


def parse_config(text) -> dict:
    """The keys an INI config sets, as {key: float}.

    Unknown keys and sections, duplicate keys and unparseable values are
    rejected with the offending key and line.  Which keys a run needs, and
    the defaults of the rest, are for the caller and RunConfig to decide.
    """
    known = {("system", k) for k in _SYSTEM_KEYS} | {("numerics", "tol")}
    values = {}
    for (section, key), (value, lineno) in _parse_ini(text).items():
        if (section, key) not in known:
            raise UnknownKey(f"unknown key {key!r} in [{section}] at line {lineno}")
        try:
            values[key] = float(value)
        except ValueError:
            raise ConfigError(
                f"key {key!r} at line {lineno}: cannot parse {value!r}") from None
    return values


@dataclass(frozen=True)
class CsvTable:
    """Column-named rows plus the provenance that produced them."""

    columns: tuple
    rows: tuple
    provenance: tuple = field(default_factory=tuple)  # ((key, value), ...)


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def render_csv(table: CsvTable) -> str:
    """Provenance comment + header + rows, 17 significant digits."""
    if not table.rows:
        raise ConfigError("refusing to emit an empty table")
    prov = " ".join(f"{k}={_fmt(v)}" for k, v in table.provenance)
    lines = [f"# qtransient {TOOL_VERSION} {prov}", ",".join(table.columns)]
    lines += [",".join(map(_fmt, row)) for row in table.rows]
    return "\n".join(lines) + "\n"


def emit_csv(table: CsvTable, path=None):
    """Write the rendered CSV to `path`, or stdout when path is None.

    The empty-table check runs before the file is opened, so a failed emit
    never leaves a partial file behind.
    """
    text = render_csv(table)
    if path is None:
        _sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def parse_csv(text):
    """Inverse of render_csv: returns (provenance_string, columns, rows).

    Numeric fields come back as floats (bitwise equal to what was emitted,
    thanks to the 17-digit format); `true`/`false` map to bools.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2 or not lines[0].startswith("#"):
        raise ConfigError("not a qtransient CSV: missing provenance line")
    columns = lines[1].split(",")
    rows = []
    for ln in lines[2:]:
        row = []
        for cell in ln.split(","):
            if cell in ("true", "false"):
                row.append(cell == "true")
            else:
                try:
                    row.append(float(cell))
                except ValueError:
                    row.append(cell)
        rows.append(tuple(row))
    return lines[0][1:].strip(), tuple(columns), tuple(rows)
