"""The package names the benchmark's span recorder wraps.

``idxbench/spans.py`` wraps idxminer functions by module and name, and skips
a name the package no longer has, so the metrics timed through it would drop
out of a run without an error. These tests fail instead.
"""

from __future__ import annotations

import importlib
import runpy
from pathlib import Path

import pytest

from idxminer import advisor

SPANS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "idxbench" / "spans.py"))
TARGETS = sorted(set(SPANS["TARGETS"] + SPANS["PEAK_TARGETS"]))


@pytest.mark.parametrize("module, name", TARGETS)
def test_span_target_exists(module, name):
    assert callable(getattr(importlib.import_module(f"idxminer.{module}"), name, None))


def test_selection_lists_its_candidates():
    """The benchmark's ``advisor.selected_ratio`` reads ``select(...).candidates``."""
    candidate = advisor.IndexCandidate(table="t", columns=("a",), support=1)
    config = advisor.select([candidate], advisor.Strategy.ALL, {"t": 10}, workload_size=1)
    assert config.candidates == (candidate,)
