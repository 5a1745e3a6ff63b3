"""Tests for the benchmark itself: generators, output check, span wrappers."""

from __future__ import annotations

import types
from contextlib import closing

import pytest

import oracle
import run
import spans
import workloads
from idxminer import advisor, catalog, miner, report, workload

MODULES = {"workload": workload, "catalog": catalog, "advisor": advisor,
           "miner": miner, "report": report}

SMALL = {
    "templated": lambda seed: workloads.templated(seed, copies=2),
    "diverse": lambda seed: workloads.diverse(seed, statements=60),
    "long-statements": lambda seed: workloads.long_statements(seed, statements=3),
}


def originals() -> dict:
    return {(m, a): getattr(MODULES[m], a) for m, a in spans.TARGETS}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_generators_are_deterministic_per_seed(name):
    first, again, other = SMALL[name](1), SMALL[name](1), SMALL[name](2)
    assert first == again
    assert first.sql != other.sql
    assert len(first.planted) == first.statements == first.sql.count(";\n")


@pytest.mark.parametrize("name", sorted(SMALL))
def test_reference_sets_match_extraction(name):
    wl = SMALL[name](3)
    schema = workload.parse_schema(wl.schema)
    diagnostics: list[str] = []
    contexts = workload.extract_workload(workload.parse_workload(wl.sql), schema,
                                         workload.DEFAULT_POLICY, diagnostics)
    got = [frozenset((a.table, a.column) for a in c.items) for c in contexts]
    assert oracle.extraction_mismatches(wl, got) == []
    assert diagnostics == []


def traced(tmp_path, wl):
    inputs = run.Inputs(wl, tmp_path)
    return run.measure_traced(inputs, seconds=0)


def test_traced_run_counts_double_parse(tmp_path):
    outcome, metrics = traced(tmp_path, SMALL["diverse"](1))
    assert outcome.failed == 0 and not outcome.problems
    # Every SELECT, UPDATE and DELETE is parsed once to classify it and
    # once more to extract its items.
    assert metrics["workload.parse_calls_per_stmt"][0] == 2.0
    assert metrics["workload.tokenize_calls_per_stmt"][0] == 2.0


def test_traced_run_on_templates_parses_insert_once(tmp_path):
    outcome, metrics = traced(tmp_path, SMALL["templated"](1))
    assert outcome.failed == 0
    assert metrics["workload.parse_calls_per_stmt"][0] == 43 / 22
    assert metrics["advisor.distinct_tx_ratio"][0] == 19 / 44
    stages = sum(v for name, (v, unit) in metrics.items()
                 if unit == "s" and name != "trace.wall_s")
    assert stages == pytest.approx(metrics["trace.wall_s"][0], rel=0.02)


def test_traced_run_restores_idxminer(tmp_path):
    before = originals()
    traced(tmp_path, SMALL["templated"](2))
    assert originals() == before


def test_patched_restores_after_an_exception():
    before = originals()
    with pytest.raises(RuntimeError):
        with spans.patched(MODULES, spans.Recorder()):
            assert workload.tokenize is not before[("workload", "tokenize")]
            raise RuntimeError("boom")
    assert originals() == before


def test_check_flags_a_dropped_column(tmp_path, monkeypatch):
    real = workload.extract_workload

    def drop_one(*args, **kwargs):
        contexts = real(*args, **kwargs)
        first = contexts[0]
        lost = sorted(first.items)[0]
        return [workload.TransactionContext(first.query_ordinal, first.items - {lost}),
                *contexts[1:]]

    monkeypatch.setattr(workload, "extract_workload", drop_one)
    outcome, _ = traced(tmp_path, SMALL["diverse"](1))
    assert outcome.failed >= 1
    assert any("statement 0" in p for p in outcome.problems)


def test_check_flags_a_wrong_support(tmp_path):
    wl = SMALL["templated"](1)
    inputs = run.Inputs(wl, tmp_path)
    run.measure_traced(inputs, seconds=0)
    ddl = (tmp_path / "run" / "recommendation.sql").read_text()
    dat = (tmp_path / "run" / "report.dat").read_text()
    assert inputs.reference.check_outputs(ddl, dat) == []
    row = next(line for line in dat.splitlines() if line.startswith("candidate\t"))
    fields = row.split("\t")
    fields[3] = str(int(fields[3]) + 1)
    problems = inputs.reference.check_outputs(ddl, dat.replace(row, "\t".join(fields)))
    assert any("recounted" in p for p in problems)


def test_cli_run_reports_end_to_end_metrics(tmp_path):
    inputs = run.Inputs(SMALL["diverse"](2), tmp_path)
    outcome, metrics = run.measure_cli(inputs, seconds=0)
    assert outcome.failed == 0 and not outcome.problems
    assert set(metrics) == {"stmts_per_s", "peak_rss_mb", "setup_s", "correct_stmt_share"}
    assert metrics["correct_stmt_share"][0] == 1.0
    assert all(value > 0 for value, _ in metrics.values())


def test_peak_rss_is_the_cli_own(tmp_path):
    # A process spawned straight from a large one reports the large one's
    # peak RSS; the launcher helper keeps run.py's own memory out of it.
    ballast = bytearray(96 * 1024 * 1024)
    ballast[::4096] = b"x" * len(ballast[::4096])
    inputs = run.Inputs(SMALL["templated"](1), tmp_path)
    with closing(run.Launcher()) as launcher:
        _, peak_mib, problems = launcher.launch(inputs, "empty.sql", "setup")
    assert problems == []
    assert peak_mib < 64
    del ballast


def test_self_times_subtract_children_and_sum_to_root():
    rec = spans.Recorder()
    rec.spans = [spans.Span("root", 0, 100, -1), spans.Span("a", 10, 40, 0),
                 spans.Span("b", 15, 25, 1), spans.Span("a", 50, 60, 0)]
    times = rec.self_times()
    assert times == pytest.approx({"root": 60e-9, "a": 30e-9, "b": 10e-9})
    assert sum(times.values()) == pytest.approx(100e-9)


def test_missing_name_is_absent_not_fatal():
    module = types.SimpleNamespace(tokenize=lambda text: [text])
    rec = spans.Recorder()
    with spans.patched({"workload": module}, rec,
                       (("workload", "tokenize"), ("workload", "gone"))):
        module.tokenize("x")
    metrics = run.layer_metrics(rec, 1)
    assert "workload.tokenize_s" in metrics
    assert "workload.split_s" not in metrics
    assert not hasattr(module, "gone")


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "templated", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
