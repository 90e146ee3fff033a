"""Structured verification reports with deterministic serialization.

Reports serialize with floats rendered at 17 significant digits and keys and
records in a fixed order, so identical campaigns produce byte-identical
files.  Wall-clock timings are kept on the in-memory records for console
display but pinned to zero in serialized output, which would otherwise be
the one nondeterministic field.
"""

from __future__ import annotations

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
    if x != x:
        return '"nan"'
    if x == float("inf"):
        return '"inf"'
    if x == float("-inf"):
        return '"-inf"'
    return format(float(x), ".17g")


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
    return {
        "suite": r.suite,
        "case": r.case,
        "anchor": r.anchor,
        "residual": float(r.residual),
        "tolerance": float(r.tolerance),
        "pass": r.passed,
        "runtime_ms": 0.0,
    }


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


def render_csv(reports) -> str:
    ordered = sorted(reports, key=lambda r: (r.suite, r.case))
    lines = [",".join(_FIELDS)]
    for r in ordered:
        lines.append(",".join(_json_value(v).strip('"') for v in _record(r).values()))
    return "\n".join(lines) + "\n"


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
