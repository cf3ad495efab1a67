"""Config parsing and deterministic report serialization.

Numbers are written with 17 significant digits so every finite double
round-trips exactly; JSON object keys keep their insertion order and NaN
becomes ``null`` (the JSON-side not-a-value marker).  CSV output uses plain
``\\n`` line endings for byte-stable files across platforms.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from typing import Any

from .geometry import CircleConfig

MODES = ("closed", "quadrature", "montecarlo")
FORMATS = ("json", "csv")


class ConfigError(ValueError):
    """Malformed configuration document (bad syntax, types, or field names)."""


@dataclass(frozen=True)
class RunConfig:
    """A run request: circle, chords, and execution options.

    ``chords`` is not checked as a fan, since a subcommand may evaluate
    another one (``solve --free-index k`` ignores slot k, ``sweep`` moves
    slots); each consumer checks the fan it evaluates.
    """

    circle: CircleConfig
    chords: tuple[float, ...]
    mode: str = "closed"
    tol: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"field 'mode' must be one of {MODES}, got {self.mode!r}")
        if self.tol is not None and not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ConfigError(f"field 'tol' must be positive, got {self.tol!r}")


def _as_number(value: Any, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field {field!r} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer too large for a double reads as 1e400 does
        return math.inf if value > 0 else -math.inf


def _config_fields(text: str) -> dict:
    """Parse a JSON run configuration into its seven fields, defaults filled.

    Checks syntax, field names and types but no range, so a caller may
    override fields before the request is built and validated.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a single JSON object")
    known = {"a", "r0", "theta0", "chords", "mode", "tol", "seed"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown field(s): {', '.join(sorted(unknown))}")
    for field in ("a", "r0", "theta0", "chords"):
        if field not in doc:
            raise ConfigError(f"missing required field {field!r}")
    chords = doc["chords"]
    if not isinstance(chords, list) or not chords:
        raise ConfigError("field 'chords' must be a non-empty array of numbers")
    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"field 'seed' must be an integer, got {seed!r}")
    mode = doc.get("mode", "closed")
    if not isinstance(mode, str):
        raise ConfigError(f"field 'mode' must be a string, got {mode!r}")
    tol = doc.get("tol")
    return {
        **{field: _as_number(doc[field], field) for field in ("a", "r0", "theta0")},
        "chords": tuple(_as_number(c, "chords") for c in chords),
        "mode": mode,
        "tol": None if tol is None else _as_number(tol, "tol"),
        "seed": seed,
    }


def read_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration.

    The document is one object with numeric fields ``a``, ``r0``, ``theta0``,
    an array ``chords`` (radians), and optional ``mode``, ``tol``, ``seed``.
    Violated constraints are reported with the offending field named; the
    chords are not checked as a fan (see :class:`RunConfig`).
    """
    f = _config_fields(text)
    return RunConfig(CircleConfig(f["a"], f["r0"], f["theta0"]),
                     f["chords"], f["mode"], f["tol"], f["seed"])


def write_config(config: RunConfig) -> str:
    """Serialize a run configuration back to its JSON document form."""
    doc = {
        "a": config.circle.a,
        "r0": config.circle.r0,
        "theta0": config.circle.theta0,
        "chords": list(config.chords),
        "mode": config.mode,
        "tol": config.tol,
        "seed": config.seed,
    }
    return json_text(doc)


def format_number(x: float) -> str:
    """Shortest 17-significant-digit form; exact for every finite double."""
    return f"{x:.17g}"


def _emit(value: Any, out: list[str], indent: int) -> None:
    pad = "  " * indent
    if value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append("null" if not math.isfinite(value) else format_number(value))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, item) in enumerate(value.items()):
            out.append(f"{pad}  {json.dumps(str(key))}: ")
            _emit(item, out, indent + 1)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(value):
            out.append(pad + "  ")
            _emit(item, out, indent + 1)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def json_text(payload: Any) -> str:
    """Deterministic JSON with insertion-ordered keys and 17-digit floats."""
    out: list[str] = []
    _emit(payload, out, 0)
    out.append("\n")
    return "".join(out)


@dataclass(frozen=True)
class Report:
    """A report payload plus its optional tabular (CSV) projection."""

    payload: dict
    csv_header: tuple[str, ...] | None = None
    csv_rows: tuple[tuple, ...] | None = None


def _csv_cell(value: Any) -> str:
    if isinstance(value, float):
        return format_number(value)
    return str(value)


def write_report(report: Report, fmt: str) -> str:
    """Render a report as JSON or CSV text."""
    if fmt == "json":
        return json_text(report.payload)
    if fmt == "csv":
        if report.csv_header is None or report.csv_rows is None:
            raise ConfigError("this report has no CSV form; use --format json")
        buf = io.StringIO()
        buf.write(",".join(report.csv_header) + "\n")
        for row in report.csv_rows:
            buf.write(",".join(_csv_cell(cell) for cell in row) + "\n")
        return buf.getvalue()
    raise ConfigError(f"unknown format {fmt!r} (choose from {FORMATS})")
