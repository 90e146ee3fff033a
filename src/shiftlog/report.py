"""Structured verification reports with deterministic serialization.

Reports serialize with floats rendered at 17 significant digits and keys and
records in a fixed order, so identical campaigns produce byte-identical
files.  Wall-clock timings are kept on the in-memory records for console
display but pinned to zero in serialized output, which would otherwise be
the one nondeterministic field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_FIELDS = ("suite", "case", "anchor", "residual", "tolerance", "pass", "runtime_ms")


@dataclass(frozen=True)
class VerificationReport:
    """One identity check: pass is defined as residual <= tolerance.

    Window-style checks (an order slope that must land in an interval)
    encode the distance outside the window as the residual with tolerance
    zero, preserving the pass criterion.
    """

    suite: str
    case: str
    anchor: str
    residual: float
    tolerance: float
    runtime_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def fmt_float(x: float) -> str:
    """Render a float at 17 significant digits; non-finite values as strings."""
    text = format(float(x), ".17g")
    return text if math.isfinite(x) else f'"{text}"'


def _json_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        escaped = v.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return fmt_float(v)
    if v is None:
        return "null"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_value(x) for x in v) + "]"
    if isinstance(v, dict):
        items = sorted(v.items())
        return "{" + ", ".join(f'"{k}": {_json_value(val)}' for k, val in items) + "}"
    raise TypeError(f"cannot serialize {type(v)!r}")


def _record(r: VerificationReport) -> dict:
    return dict(zip(_FIELDS, (r.suite, r.case, r.anchor, float(r.residual),
                              float(r.tolerance), r.passed, 0.0)))


def render_json(reports, meta: dict | None = None) -> str:
    """Deterministic JSON document: records ordered by (suite, case)."""
    ordered = sorted(reports, key=lambda r: (r.suite, r.case))
    body = []
    if meta:
        body.append(f'"meta": {_json_value(meta)}')
    recs = ",\n    ".join(
        "{" + ", ".join(f'"{k}": {_json_value(v)}' for k, v in _record(r).items()) + "}"
        for r in ordered
    )
    body.append(f'"reports": [\n    {recs}\n  ]')
    return "{\n  " + ",\n  ".join(body) + "\n}\n"


def render_table(columns, rows) -> str:
    """CSV text: a header line of ``columns``, then one line per row, each
    cell rendered as in the JSON reports, unquoted (``inf``, ``nan``)."""
    lines = [",".join(columns)]
    lines.extend(",".join(_json_value(v).strip('"') for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def render_csv(reports) -> str:
    ordered = sorted(reports, key=lambda r: (r.suite, r.case))
    return render_table(_FIELDS, (_record(r).values() for r in ordered))


def all_passed(reports) -> bool:
    return all(r.passed for r in reports)


def summary_lines(reports) -> list[str]:
    """Console-friendly one-line-per-case summary, measured runtimes included."""
    out = []
    for r in sorted(reports, key=lambda r: (r.suite, r.case)):
        status = "PASS" if r.passed else "FAIL"
        out.append(
            f"[{status}] {r.suite}/{r.case}: residual={r.residual:.3e} "
            f"tol={r.tolerance:.3e} ({r.runtime_ms:.0f} ms)"
        )
    return out
