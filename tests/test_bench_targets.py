"""The package names the benchmark's span recorder wraps, and the shapes it reads.

``idxbench/spans.py`` wraps idxminer functions by module and name, and skips
a name the package no longer has, so the metrics timed through it would drop
out of a run without an error. ``idxbench/run.py`` computes its count metrics
from the values those functions return, and a metric whose shape no longer
fits is left out of the run, again without an error. These tests fail instead.
"""

from __future__ import annotations

import importlib
import runpy
from pathlib import Path

import pytest

from idxminer import advisor, miner
from idxminer.workload import AttributeItem, TransactionContext

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


def test_database_is_a_pair_of_rows_and_items():
    """``advisor.items`` reads ``len(build_database(...)[1])`` and
    ``advisor.distinct_tx_ratio`` reads ``build_database(...)[0].transactions``."""
    a, b = AttributeItem("t", "a"), AttributeItem("t", "b")
    contexts = [TransactionContext(q, frozenset(items))
                for q, items in enumerate([{a, b}, {a}, {a, b}])]
    built = advisor.build_database(contexts)
    assert isinstance(built, tuple) and len(built) == 2
    db, items_by_id = built
    assert isinstance(db, miner.TransactionDatabase)
    assert isinstance(items_by_id, dict) and len(items_by_id) == 2
    assert len(set(db.transactions)) == 2


def test_mining_returns_a_list_of_closed_itemsets():
    """``miner.closed_sets`` reads ``len(mine_closed(...))``."""
    db = miner.TransactionDatabase.from_transactions([{0, 1}, {0}, {0, 1}])
    closed = miner.mine_closed(db, 1)
    assert isinstance(closed, list) and len(closed) == 2
    assert all(isinstance(c, miner.ClosedItemset) for c in closed)
