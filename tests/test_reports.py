"""Tests for report structures and JSON emission."""

import json
from fractions import Fraction

import pytest

from monofour.reports import VERDICTS, CheckReport, jsonable, verdict_label


def validate_report_dict(d: dict) -> None:
    """Schema check for a serialized report, as the CLI prints it; raises
    ValueError on problems."""
    required = {"check": str, "parameters": dict, "verdict": str, "statement": str}
    for key, typ in required.items():
        if key not in d:
            raise ValueError(f"report missing field {key!r}")
        if not isinstance(d[key], typ):
            raise ValueError(f"report field {key!r} must be {typ.__name__}")
    if "witness" not in d:
        raise ValueError("report missing field 'witness'")
    if d["verdict"] not in VERDICTS:
        raise ValueError(f"verdict must be one of {VERDICTS}")
    if not d["statement"]:
        raise ValueError("statement must be nonempty")
    try:
        json.dumps(d)  # must be serializable as-is
    except TypeError as exc:
        raise ValueError(f"report is not JSON-serializable: {exc}") from exc


def make_report(verdict="pass", **overrides):
    base = dict(
        check="keythm",
        parameters={"q": 3, "d": 1},
        verdict=verdict,
        witness={"cases": 4},
        statement="squaring the transform matches scaled convolution",
        elapsed=0.25,
    )
    base.update(overrides)
    return CheckReport(**base)


class TestVerdictLabel:
    def test_booleans(self):
        assert verdict_label(True) == "pass"
        assert verdict_label(False) == "fail"

    def test_diagnostic_passthrough(self):
        assert verdict_label("diagnostic") == "diagnostic"

    def test_labels_passthrough(self):
        assert verdict_label("pass") == "pass"
        assert verdict_label("fail") == "fail"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            verdict_label("maybe")


class TestCheckReport:
    def test_exit_codes(self):
        assert make_report("pass").exit_code == 0
        assert make_report("fail").exit_code == 1
        assert make_report("diagnostic").exit_code == 2

    def test_invalid_verdict_rejected(self):
        with pytest.raises(ValueError):
            make_report("unsure")

    def test_to_dict_round_trips_through_json(self):
        rep = make_report()
        text = rep.to_json()
        data = json.loads(text)
        assert data == rep.to_dict()
        assert data["check"] == "keythm"
        assert data["elapsed"] == 0.25

    def test_json_keys_sorted(self):
        text = make_report().to_json()
        data = json.loads(text)
        assert text == json.dumps(data, sort_keys=True)

    def test_elapsed_can_be_excluded(self):
        data = make_report().to_dict(include_elapsed=False)
        assert "elapsed" not in data

    def test_fraction_parameters_serialized(self):
        rep = make_report(parameters={"chi": Fraction(1, 2)})
        data = json.loads(rep.to_json())
        assert data["parameters"]["chi"] == "1/2"


class TestJsonable:
    def test_scalars(self):
        assert jsonable(Fraction(3, 7)) == "3/7"
        assert jsonable(Fraction(4, 2)) == "2"
        assert jsonable(5) == 5
        assert jsonable("x") == "x"
        assert jsonable(None) is None

    def test_containers(self):
        out = jsonable({"a": (1, Fraction(1, 3)), "b": [True]})
        assert out == {"a": [1, "1/3"], "b": [True]}

    def test_sets_sorted(self):
        assert jsonable({3, 1, 2}) == [1, 2, 3]

    def test_fraction_keys(self):
        assert jsonable({Fraction(1, 2): 1}) == {"1/2": 1}

    def test_fallback_is_str(self):
        class Thing:
            def __str__(self):
                return "thing"

        assert jsonable(Thing()) == "thing"


class TestValidateReportDict:
    def test_valid(self):
        validate_report_dict(make_report().to_dict())

    def test_missing_field(self):
        data = make_report().to_dict()
        del data["witness"]
        with pytest.raises(ValueError):
            validate_report_dict(data)

    def test_bad_verdict(self):
        data = make_report().to_dict()
        data["verdict"] = "unknown"
        with pytest.raises(ValueError):
            validate_report_dict(data)

    def test_empty_statement(self):
        data = make_report().to_dict()
        data["statement"] = ""
        with pytest.raises(ValueError):
            validate_report_dict(data)

    def test_unserializable_payload(self):
        data = make_report().to_dict()
        data["witness"] = {"raw": object()}
        with pytest.raises(ValueError):
            validate_report_dict(data)
