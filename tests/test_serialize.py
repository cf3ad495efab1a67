import json
import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from sectorbalance import (
    CircleConfig,
    ConfigError,
    DomainError,
    Report,
    RunConfig,
    read_config,
    write_config,
    write_report,
)
from sectorbalance.cli import run_cli
from sectorbalance.serialize import format_number, json_text

PI = math.pi

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def run_configs(draw):
    a = draw(st.floats(0.5, 2.0))
    circle = CircleConfig(a=a, r0=draw(st.floats(0.0, 0.95)) * a,
                          theta0=draw(st.floats(-PI, PI)))
    n = draw(st.integers(1, 5))
    t1 = draw(st.floats(-PI, PI))
    if n == 1:
        chords = (t1,)
    else:
        span = draw(st.floats(0.1, 0.9 * PI))
        inner = sorted(draw(st.lists(st.floats(0.01, 0.99), min_size=n - 2,
                                     max_size=n - 2, unique=True)))
        chords = tuple(t1 + off * span for off in (0.0, *inner, 1.0))
        # Distinct offsets can still round to the same angle.
        assume(all(lo < hi for lo, hi in zip(chords, chords[1:])))
    return RunConfig(
        circle=circle,
        chords=chords,
        mode=draw(st.sampled_from(("closed", "quadrature", "montecarlo"))),
        tol=draw(st.one_of(st.none(), st.floats(1e-14, 1e-6))),
        seed=draw(st.integers(0, 2**63)),
    )


class TestFloatFormatting:
    @given(finite)
    def test_17_digit_round_trip(self, x):
        assert float(format_number(x)) == x

    def test_pi_quarter(self):
        assert float(format_number(PI / 4)) == PI / 4


class TestJsonText:
    def test_preserves_key_order_and_nan_to_null(self):
        text = json_text({"b": 1, "a": [1.5, math.nan], "flag": True, "none": None})
        assert text.index('"b"') < text.index('"a"')
        doc = json.loads(text)
        assert doc == {"b": 1, "a": [1.5, None], "flag": True, "none": None}

    def test_deterministic(self):
        payload = {"x": [-0.1, 2.5e-300], "y": {"z": "text"}}
        assert json_text(payload) == json_text(payload)

    @pytest.mark.parametrize("payload, text", [({}, "{}\n"), ([], "[]\n")])
    def test_empty_containers(self, payload, text):
        assert json_text(payload) == text

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            json_text({"x": object()})


class TestReadConfig:
    def test_minimal_document(self):
        rc = read_config('{"a": 1, "r0": 0, "theta0": 0, "chords": [0]}')
        assert rc.circle == CircleConfig(1.0, 0.0, 0.0)
        assert rc.chords == (0.0,)
        assert rc.mode == "closed"
        assert rc.tol is None
        assert rc.seed == 0

    def test_full_document(self):
        rc = read_config(
            '{"a": 2, "r0": 0.5, "theta0": -0.25, "chords": [0, 1.1],'
            ' "mode": "montecarlo", "tol": 1e-10, "seed": 7}'
        )
        assert rc.mode == "montecarlo"
        assert rc.tol == 1e-10
        assert rc.seed == 7

    def test_rejects_wide_fan_as_domain_error(self, tmp_path, capsys):
        # read_config keeps the chords; the command that evaluates them as a
        # fan rejects them.
        text = '{"a": 1, "r0": 0, "theta0": 0, "chords": [0, 3.2]}'
        assert read_config(text).chords == (0.0, 3.2)
        path = tmp_path / "run.json"
        path.write_text(text, encoding="utf-8")
        assert run_cli(["areas", "--config", str(path)]) == 2
        assert capsys.readouterr().out == ""

    def test_rejects_pole_outside_as_domain_error(self):
        with pytest.raises(DomainError):
            read_config('{"a": 1, "r0": 1.5, "theta0": 0, "chords": [0]}')

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[1, 2]",
            '{"a": 1, "r0": 0, "theta0": 0}',
            '{"a": 1, "r0": 0, "theta0": 0, "chords": []}',
            '{"a": 1, "r0": 0, "theta0": 0, "chords": ["x"]}',
            '{"a": "one", "r0": 0, "theta0": 0, "chords": [0]}',
            '{"a": 1, "r0": 0, "theta0": 0, "chords": [0], "mode": "magic"}',
            '{"a": 1, "r0": 0, "theta0": 0, "chords": [0], "mode": 3}',
            '{"a": 1, "r0": 0, "theta0": 0, "chords": [0], "seed": 1.5}',
            '{"a": 1, "r0": 0, "theta0": 0, "chords": [0], "tol": -1}',
            '{"a": 1, "r0": 0, "theta0": 0, "chords": [0], "extra": 1}',
        ],
    )
    def test_rejects_malformed_documents(self, text):
        with pytest.raises(ConfigError):
            read_config(text)

    @given(run_configs())
    def test_round_trip_is_lossless(self, rc):
        assert read_config(write_config(rc)) == rc


class TestWriteReport:
    def test_json_form(self):
        report = Report(payload={"command": "demo", "value": PI})
        doc = json.loads(write_report(report, "json"))
        assert doc["command"] == "demo"
        assert doc["value"] == PI

    def test_csv_form(self):
        report = Report(
            payload={},
            csv_header=("index", "area", "parity"),
            csv_rows=((1, PI / 4, "odd"), (2, math.nan, "even")),
        )
        text = write_report(report, "csv")
        lines = text.splitlines()
        assert lines[0] == "index,area,parity"
        assert lines[1] == f"1,{format_number(PI / 4)},odd"
        assert lines[2] == "2,nan,even"

    def test_csv_unavailable(self):
        with pytest.raises(ConfigError):
            write_report(Report(payload={}), "csv")

    def test_unknown_format(self):
        with pytest.raises(ConfigError):
            write_report(Report(payload={}), "yaml")


class TestRunConfigValidation:
    def test_mode_checked(self):
        with pytest.raises(ConfigError):
            RunConfig(circle=CircleConfig(1.0, 0.0, 0.0), chords=(0.0,), mode="magic")
