"""The package still has every name that ``perfbench/run.py`` traces.

The benchmark wraps functions at the names the program calls them by; a
refactor that drops one makes the traced benchmark fail to start.
"""

import importlib
import sys
from pathlib import Path
from unittest import mock

import pytest

import tlcausal

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's ``run`` and ``tracer`` modules, imported from
    ``perfbench/`` and forgotten afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # importing run.py caps the BLAS thread variables in os.environ
    with mock.patch.dict("os.environ"):
        yield importlib.import_module("run"), importlib.import_module("tracer")
    for name in ("run", "tracer"):
        sys.modules.pop(name, None)


def test_every_traced_name_wraps_and_restores(bench):
    run, tracer_module = bench
    tracer = tracer_module.Tracer()
    try:
        run.install_tracer(tracer, tlcausal)
        wrapped = list(tracer._undo)
        assert wrapped
        for owner, attr, original in wrapped:
            assert getattr(owner, attr).__wrapped__ is original
    finally:
        tracer.restore()
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original
