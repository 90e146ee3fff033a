"""Shared fixtures."""

import sys

import pytest

from shiftlog import linalg


@pytest.fixture
def solve_calls(monkeypatch):
    """Count calls of ``linalg.solve`` made through any shiftlog module; the
    fixture's value is the list that gets one entry per call."""
    calls = []
    exact = linalg.solve

    def counting(a, b):
        calls.append(1)
        return exact(a, b)

    for name, module in list(sys.modules.items()):
        if name.startswith("shiftlog") and getattr(module, "solve", None) is exact:
            monkeypatch.setattr(module, "solve", counting)
    return calls
