"""A run holds its workload once.

The guards read traced heap (``tracemalloc``) on a generated log of about
1 MB: every TPC-R template of the benchmark's ``templated`` workload 280
times, 6,160 statements. Each bound is a multiple of the log's size in
bytes, with its margin over today's figure stated beside it; a regression
that keeps a second copy of the statements adds about one more.

The checks take the module they test, so ``tests/test_mutants.py`` runs
them on mutants too.
"""

from __future__ import annotations

import functools
import io
import runpy
import tempfile
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

from idxminer import advisor, cli, workload

GENERATORS = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "idxbench" / "workloads.py"))["GENERATORS"]

# Splitting holds the text and one stripped copy of each statement: about
# 1.34x the text above it, 12 % under the bound. A list of every match's body
# beside the copies held about 2.8x.
SPLIT_BOUND = 1.5
# Parsing a text passed as its only reference peaks at about 2.34x it, text
# included (the text and the statements while splitting), 15 % under the
# bound. Keeping the text while parsing peaks at about 3.1x, and splitting
# as above at about 3.8x.
PARSE_BOUND = 2.7
# A whole run peaks at about 2.55x its log, file reading included, 18 % under
# the bound; with both faults above it peaked at 3.8x.
RUN_BOUND = 3.0
# When mining starts, the run holds about 0.04x its log (the distinct rows
# and the diagnostics), a sixth of the bound. Keeping the statements'
# queries held about 2.0x, and their transaction contexts about 0.7x.
HELD_BOUND = 0.25


@functools.cache
def log():
    return GENERATORS["templated"](1, 280)


def traced_peak(call) -> int:
    """The traced heap's peak while ``call`` runs, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def check_split_memory(module) -> None:
    """``split_statements`` holds under SPLIT_BOUND times its text above it."""
    text = log().sql
    module.split_statements(text)
    peak = traced_peak(lambda: module.split_statements(text))
    assert peak < SPLIT_BOUND * len(text), f"{peak / len(text):.2f}x the text"


def check_parse_memory(module) -> None:
    """``parse_workload``, given its text's only reference, drops it once split."""
    text = log().sql
    module.parse_workload(text)
    # The copy is made while tracing, and the call holds its one reference.
    peak = traced_peak(lambda: module.parse_workload(text + " "))
    assert peak < PARSE_BOUND * len(text), f"{peak / len(text):.2f}x the text"


def check_run_memory(module) -> None:
    """A run of the CLI peaks under RUN_BOUND times its log's size, and holds
    under HELD_BOUND times it when mining starts."""
    wl = log()
    held: list[int] = []
    mine_tables = advisor.mine_tables

    def spy(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return mine_tables(*args)

    with tempfile.TemporaryDirectory() as work:
        paths = {}
        for name, text in (("workload", wl.sql), ("schema", wl.schema), ("stats", wl.stats)):
            paths[name] = Path(work) / name
            paths[name].write_text(text, encoding="utf-8")
        size = paths["workload"].stat().st_size
        argv = [f"--{name}={path}" for name, path in paths.items()]
        argv += [*wl.flags, "--out", f"{work}/out"]
        advisor.mine_tables = spy
        try:
            with redirect_stdout(io.StringIO()):
                assert module.main(argv) == 0
                peak = traced_peak(lambda: module.main(argv))
        finally:
            advisor.mine_tables = mine_tables
    assert peak < RUN_BOUND * size, f"peak {peak / size:.2f}x the log"
    assert held[-1] < HELD_BOUND * size, f"{held[-1] / size:.2f}x the log held at mining"


def test_splitting_holds_each_statement_once():
    check_split_memory(workload)


def test_parsing_drops_the_text_once_split():
    check_parse_memory(workload)


def test_a_run_holds_its_log_once():
    check_run_memory(cli)
