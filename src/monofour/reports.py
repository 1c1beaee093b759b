"""Report records for verification checks, with stable JSON output.

A report carries the check name, the exact parameters used, a verdict
(pass, fail, or diagnostic from the engine; error when the engine
raised inside a profile run), a witness payload with whatever the check
measured, a one-line statement of the property under test, and the
wall time.  Serialization is deterministic (sorted keys); comparisons
for determinism strip the timing field.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .scalars.poly import Immutable

_ENGINE_VERDICTS = ("pass", "fail", "diagnostic")
VERDICTS = _ENGINE_VERDICTS + ("error",)

EXIT_CODES = {"pass": 0, "fail": 1, "diagnostic": 2, "error": 3}
EXIT_REFUSED = 4  # the command line, an expression or a parameter was refused


def verdict_label(value) -> str:
    """Map engine verdicts (bool or the string 'diagnostic') to labels."""
    if value is True:
        return "pass"
    if value is False:
        return "fail"
    if isinstance(value, str) and value in _ENGINE_VERDICTS:
        return value
    raise ValueError(f"unrecognized verdict value {value!r}")


def jsonable(obj):
    """Recursively convert a witness payload to JSON-compatible values.

    Exact scalars (fractions, cyclotomic numbers, polynomials, operator
    objects) become their canonical string forms.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(jsonable(v) for v in obj)
    return str(obj)


class CheckReport(Immutable):
    __slots__ = ("check", "parameters", "verdict", "witness", "statement", "elapsed")

    def __init__(self, check: str, parameters: dict, verdict: str, witness, statement: str,
                 elapsed: float = 0.0):
        if verdict not in VERDICTS:
            raise ValueError(f"verdict must be one of {VERDICTS}")
        object.__setattr__(self, "check", check)
        object.__setattr__(self, "parameters", parameters)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "statement", statement)
        object.__setattr__(self, "elapsed", elapsed)

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.verdict]

    def to_dict(self, include_elapsed: bool = True) -> dict:
        out = {
            "check": self.check,
            "parameters": jsonable(self.parameters),
            "verdict": self.verdict,
            "witness": jsonable(self.witness),
            "statement": self.statement,
        }
        if include_elapsed:
            out["elapsed"] = round(self.elapsed, 6)
        return out

    def to_json(self, pretty: bool = False, include_elapsed: bool = True) -> str:
        return json.dumps(
            self.to_dict(include_elapsed),
            sort_keys=True,
            indent=2 if pretty else None,
        )

