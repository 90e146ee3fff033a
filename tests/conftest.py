"""Shared fixtures."""

import os
import sys

# One BLAS thread, as perfbench's worker pins it: every matrix here is small
# enough that extra threads only add overhead.  Set before numpy is imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest

from shiftlog import bch, linalg, matfun
from shiftlog.evolution import GeneratorSpec


def _replace(monkeypatch, home, name: str, replacement) -> None:
    """Replace ``<home>.<name>`` in ``home`` (a module or a class) and in every
    shiftlog module that imported it."""
    exact = getattr(home, name)
    owners = [home] + [module for module_name, module in sys.modules.items()
                       if module_name.startswith("shiftlog")]
    for owner in owners:
        if getattr(owner, name, None) is exact:
            monkeypatch.setattr(owner, name, replacement)


def _counted(monkeypatch, home, name: str) -> list:
    """Count calls of ``<home>.<name>`` made through ``home`` or any shiftlog
    module that imported it; returns the list that gets one entry per call."""
    calls = []
    exact = getattr(home, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return exact(*args, **kwargs)

    _replace(monkeypatch, home, name, counting)
    return calls


@pytest.fixture
def replace_everywhere(monkeypatch):
    """``replace(home, name, replacement)``: put a fault in place of
    ``<home>.<name>`` wherever shiftlog reads it, for this test."""
    return lambda home, name, replacement: _replace(monkeypatch, home, name, replacement)


@pytest.fixture
def solve_calls(monkeypatch):
    """The calls of ``linalg.solve``, one list entry each."""
    return _counted(monkeypatch, linalg, "solve")


@pytest.fixture
def as_matrix_calls(monkeypatch):
    """The calls of ``linalg.as_matrix``, one list entry each."""
    return _counted(monkeypatch, linalg, "as_matrix")


@pytest.fixture
def resolvent_stacks(monkeypatch):
    """The size of each stack of matrices passed to ``np.linalg.inv``, one
    list entry per stacked call; a single matrix is not a stack."""
    sizes = []
    inv = np.linalg.inv

    def counting(a):
        if np.ndim(a) == 3:
            sizes.append(len(a))
        return inv(a)

    _replace(monkeypatch, np.linalg, "inv", counting)
    return sizes


@pytest.fixture
def norm_1_calls(monkeypatch):
    """The calls of ``linalg.norm_1``, one list entry each."""
    return _counted(monkeypatch, linalg, "norm_1")


@pytest.fixture
def expm_calls(monkeypatch):
    """The calls of ``matfun.expm``, one list entry each."""
    return _counted(monkeypatch, matfun, "expm")


@pytest.fixture
def logm_iss_calls(monkeypatch):
    """The calls of ``matfun.logm_iss``, one list entry each."""
    return _counted(monkeypatch, matfun, "logm_iss")


@pytest.fixture
def log_product_series_calls(monkeypatch):
    """The calls of ``bch.log_product_series``, one list entry each."""
    return _counted(monkeypatch, bch, "log_product_series")


@pytest.fixture
def sqrtm_db_calls(monkeypatch):
    """The calls of ``matfun.sqrtm_db``, one list entry each."""
    return _counted(monkeypatch, matfun, "sqrtm_db")


@pytest.fixture
def eval_calls(monkeypatch):
    """The calls of ``GeneratorSpec.eval``, one list entry each."""
    return _counted(monkeypatch, GeneratorSpec, "eval")


@pytest.fixture
def matrix_power_calls(monkeypatch):
    """The calls of ``np.linalg.matrix_power``, one list entry each."""
    return _counted(monkeypatch, np.linalg, "matrix_power")
