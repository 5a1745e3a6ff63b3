"""idxminer benchmark: seeded workloads through the real CLI.

Usage, from the repository root:

    python3 idxbench/run.py --workload templated --seed 1 --seconds 35 --trace 0
    python3 idxbench/run.py --workload all --seed 1 --seconds 35 --trace 0

``--trace 0`` times the ``idxminer`` CLI as a subprocess, one process at a
time, interleaving each workload launch with a launch on an empty workload
(set-up time), and reports the end-to-end metrics. ``--trace 1`` runs
``idxminer.cli.main`` in-process, alternating untraced calls with calls
whose layer functions are wrapped by ``spans.patched``, and reports the
per-layer metrics. Every run checks the program's outputs against the
workload's reference sets (``oracle``) outside the timed region.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the input shape and each metric with its spread, for people.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import closing, redirect_stdout
from pathlib import Path

import oracle
import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"
OUTPUTS = ("recommendation.sql", "report.txt", "report.dat")
MIN_LAUNCHES = 3
MIB = 1024 * 1024


class Inputs:
    """A workload's files on disk and the CLI arguments that read them."""

    def __init__(self, wl: workloads.Workload, directory: Path):
        self.wl = wl
        self.dir = directory
        for name, text in (("workload.sql", wl.sql), ("empty.sql", ""),
                           ("schema.txt", wl.schema), ("stats.txt", wl.stats)):
            (directory / name).write_text(text, encoding="utf-8")
        self.reference = oracle.Reference(wl)
        self.empty_reference = oracle.Reference(
            dataclasses.replace(wl, sql="", kinds=(), planted=()))

    def argv(self, workload_file: str, out: str) -> list[str]:
        return ["--workload", str(self.dir / workload_file),
                "--schema", str(self.dir / "schema.txt"),
                "--stats", str(self.dir / "stats.txt"),
                *self.wl.flags, "--out", str(self.dir / out)]

    def outputs(self, out: str) -> tuple[str, list[str]]:
        """Digest of one output directory, and the problems the check finds."""
        texts = {}
        for name in OUTPUTS:
            try:
                texts[name] = (self.dir / out / name).read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                return "", [f"{name}: {exc}"]
        digest = hashlib.sha256("\0".join(texts.values()).encode()).hexdigest()
        reference = self.empty_reference if out.startswith("setup") else self.reference
        return digest, reference.check_outputs(texts["recommendation.sql"],
                                               texts["report.dat"])


class Outcome:
    """Statements attempted and failed, with the first few problems seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}

    def record(self, statements: int, problems: list[str], failed: int | None = None) -> None:
        self.attempted += statements
        if problems:
            self.failed += statements if failed is None else failed
            self.problems.extend(problems[: max(0, 5 - len(self.problems))])

    def same_bytes(self, kind: str, digest: str) -> list[str]:
        first = self.digests.setdefault(kind, digest)
        return [] if digest == first else [f"{kind} outputs differ between runs"]


def show(name: str, values: list[float], unit: str) -> float:
    """Print a metric's median and quartiles; return the median."""
    value = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [value] * 3
    print(f"{name:<34} {value:12.6g} {unit:<10} median of {len(values)}; "
          f"q1 {q1:.6g}, q3 {q3:.6g}")
    return value


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics from CLI subprocesses
# ---------------------------------------------------------------------------


class Launcher:
    """The helper process of ``launcher.py``, which spawns each CLI run."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, "-S", str(HERE / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def launch(self, inputs: Inputs, workload_file: str,
               out: str) -> tuple[float, float, list[str]]:
        """Run the CLI once; wall seconds, peak RSS in MiB, problems found."""
        stderr = inputs.dir / "stderr.txt"
        job = {"argv": [sys.executable, "-m", "idxminer.cli",
                        *inputs.argv(workload_file, out)],
               "env": dict(os.environ, PYTHONPATH=str(SRC)), "stderr": str(stderr)}
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        wall, maxrss_kib, code = json.loads(self.proc.stdout.readline())
        if code != 0:
            tail = stderr.read_text(errors="replace").strip()[-300:]
            return wall, maxrss_kib * 1024 / MIB, [f"exit code {code}: {tail}"]
        return wall, maxrss_kib * 1024 / MIB, []

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


# A fixed pure-Python task that uses no idxminer code. Timed right before
# and after every launch, it tracks the speed of the CPU at that moment, which
# drifts by tens of percent from minute to minute on a shared host (see
# NOTES.md). End-to-end times are scaled to the speed at which the task takes
# REFERENCE_S, so that runs made at different times can be compared.
REFERENCE_S = 0.020
_REFERENCE_WORDS = [f"t{i % 97}_c{i % 13:02d}" for i in range(30000)]


def reference_seconds() -> float:
    """Median of three timings of the reference task.

    The collector is off while it runs, so that the task's time does not
    depend on how many objects this process holds.
    """
    times = []
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter()
            index: dict[str, list[int]] = {}
            for i, word in enumerate(_REFERENCE_WORDS):
                index.setdefault(word, []).append(i)
            groups = {frozenset(_REFERENCE_WORDS[j:j + 5])
                      for j in range(0, len(_REFERENCE_WORDS), 3)}
            sorted(groups, key=lambda group: (len(group), sorted(group)))
            " ".join(_REFERENCE_WORDS).split()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times)


def measure_cli(inputs: Inputs, seconds: float) -> tuple[Outcome, dict]:
    with closing(Launcher()) as launcher:
        return _measure_cli(inputs, seconds, launcher)


def _measure_cli(inputs: Inputs, seconds: float, launcher: Launcher) -> tuple[Outcome, dict]:
    wl = inputs.wl
    outcome = Outcome()
    walls, setups = [], []
    reference = [reference_seconds()]

    def one(kind: str, workload_file: str, statements: int) -> tuple[float, float, float]:
        """Raw and reference-scaled wall time of one launch, and its peak RSS."""
        wall, peak, problems = launcher.launch(inputs, workload_file, kind)
        reference.append(reference_seconds())
        if not problems:
            digest, problems = inputs.outputs(kind)
            problems += outcome.same_bytes(kind, digest)
        outcome.record(statements, problems)
        speed = (reference[-2] + reference[-1]) / 2 / REFERENCE_S
        return wall, wall / speed, peak

    # One untimed launch first: it compiles bytecode and fills the file
    # cache, which users pay once per installation, not once per run.
    one("setup", "empty.sql", 0)
    reference[:] = reference[-1:]
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_LAUNCHES or time.perf_counter() < deadline:
        setups.append(one("setup", "empty.sql", 0))
        walls.append(one("run", "workload.sql", wl.statements))

    failed_share = outcome.failed / outcome.attempted
    print(f"launches: {len(walls)} workload, {len(setups)} empty-workload, interleaved; "
          f"reference task median {statistics.median(reference) * 1e3:.4g} ms "
          f"(scaled to {REFERENCE_S * 1e3:g} ms)")
    show("stmts_per_s (unscaled)", [wl.statements / raw for raw, _, _ in walls], "stmt/s")
    show("setup_s (unscaled)", [raw for raw, _, _ in setups], "s")
    metrics = {
        "stmts_per_s": (show("stmts_per_s", [wl.statements / scaled
                                             for _, scaled, _ in walls], "stmt/s"), "stmt/s"),
        "peak_rss_mb": (show("peak_rss_mb", [peak for _, _, peak in walls], "MiB"), "MiB"),
        "setup_s": (show("setup_s", [scaled for _, scaled, _ in setups], "s"), "s"),
        "correct_stmt_share": (1.0 - failed_share, "ratio"),
    }
    print(f"{'failed_stmt_share':<34} {failed_share:12.6g} {'ratio':<10} "
          f"{outcome.failed} of {outcome.attempted} statements")
    return outcome, metrics


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics from in-process spans
# ---------------------------------------------------------------------------


def _count(fn):
    """fn(), or None when a later idxminer has changed the shape it reads."""
    try:
        return fn()
    except (AttributeError, KeyError, TypeError, IndexError, ZeroDivisionError):
        return None


def layer_metrics(rec: spans.Recorder, statements: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run; names that were not wrapped are absent."""
    self_s = rec.self_times()
    timed = {
        "cli.self_s": ("cli.main",),
        "workload.schema_s": ("workload.parse_schema",),
        "catalog.stats_s": ("catalog.load_stats",),
        "workload.split_s": ("workload.split_statements",),
        "workload.tokenize_s": ("workload.tokenize",),
        "workload.parse_statement_s": ("workload.parse_statement",),
        "workload.parse_workload_self_s": ("workload.parse_workload",),
        "workload.extract_self_s": ("workload.extract_workload",),
        "advisor.encode_s": ("advisor.build_database",),
        "miner.mine_s": ("miner.mine_closed",),
        "advisor.derive_s": ("advisor.derive_candidates",),
        "advisor.select_s": ("advisor.select",),
        "report.emit_s": ("report.emit_ddl", "report.emit_report"),
    }
    out: dict[str, tuple[float, str]] = {}
    for metric, names in timed.items():
        if any(name in rec.wrapped for name in names):
            out[metric] = (sum(self_s.get(name, 0.0) for name in names), "s")

    kept = rec.kept
    first = {name: values[0] for name, values in kept.items()}
    n = max(statements, 1)
    counts = {
        "workload.tokenize_calls_per_stmt": (
            "workload.tokenize", lambda: rec.calls("workload.tokenize") / n, "calls/stmt"),
        "workload.parse_calls_per_stmt": (
            "workload.parse_statement",
            lambda: rec.calls("workload.parse_statement") / n, "calls/stmt"),
        "workload.items_per_stmt": (
            "workload.extract_workload",
            lambda: sum(len(c.items) for c in first["workload.extract_workload"][0]) / n,
            "items/stmt"),
        "workload.other_stmts": (
            "workload.parse_workload",
            lambda: sum(q.kind.value == "OTHER" for q in first["workload.parse_workload"]),
            "count"),
        "workload.diagnostics": (
            "workload.extract_workload",
            lambda: int(first["workload.extract_workload"][1]), "count"),
        "advisor.items": (
            "advisor.build_database",
            lambda: len(first["advisor.build_database"][1]), "count"),
        "advisor.distinct_tx_ratio": (
            "advisor.build_database",
            lambda: len(set(first["advisor.build_database"][0].transactions)) / n, "ratio"),
        "miner.closed_sets": (
            "miner.mine_closed", lambda: len(first["miner.mine_closed"]), "count"),
        "advisor.candidates": (
            "advisor.derive_candidates",
            lambda: len(first["advisor.derive_candidates"]), "count"),
        "advisor.selected_ratio": (
            "advisor.select",
            lambda: len(first["advisor.select"].candidates)
            / len(first["advisor.derive_candidates"]), "ratio"),
        "report.bytes": (
            "report.emit_report",
            lambda: sum(len(text.encode("utf-8"))
                        for name in ("report.emit_ddl", "report.emit_report")
                        for text in kept.get(name, ())), "bytes"),
    }
    for metric, (name, fn, unit) in counts.items():
        value = _count(fn) if name in rec.wrapped else None
        if value is not None:
            out[metric] = (value, unit)
    return out


def extracted_sets(rec: spans.Recorder) -> list[frozenset[tuple[str, str]]] | None:
    contexts = rec.kept.get("workload.extract_workload")
    if not contexts:
        return None
    return _count(lambda: [frozenset((a.table, a.column) for a in ctx.items)
                           for ctx in contexts[0][0]])


def measure_traced(inputs: Inputs, seconds: float) -> tuple[Outcome, dict]:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from idxminer import advisor, catalog, cli, miner, report, workload

    modules = {"workload": workload, "catalog": catalog, "advisor": advisor,
               "miner": miner, "report": report}
    wl = inputs.wl
    outcome = Outcome()

    def call(main, out: str) -> float:
        argv = inputs.argv("workload.sql", out)
        start = time.perf_counter()
        try:
            with redirect_stdout(io.StringIO()):
                code = main(argv)
        except Exception as exc:  # a crash fails the call's statements, not the benchmark
            code = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        problems = [f"cli.main returned {code}"] if code != 0 else []
        if not problems:
            digest, problems = inputs.outputs(out)
            problems += outcome.same_bytes("run", digest)
        outcome.record(wl.statements, problems)
        return wall

    deadline = time.perf_counter() + seconds
    call(cli.main, "run")  # warm: imports, regex cache

    # Memory pass: tracemalloc slows every allocation, so its times are dropped.
    peaks = spans.PeakRecorder()
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with spans.patched(modules, peaks, spans.PEAK_TARGETS):
            call(cli.main, "run")
    finally:
        tracemalloc.stop()
    print(f"tracemalloc pass: {time.perf_counter() - start:.3g} s, not reported")

    plain, traced, per_run, accounted = [], [], [], []
    extracted = None
    while not traced or time.perf_counter() < deadline:
        # Alternate which call of the pair goes first, so that neither one
        # always follows the other's garbage or a change of CPU speed.
        if len(traced) % 2:
            plain.append(call(cli.main, "run"))
        rec = spans.Recorder()
        with spans.patched(modules, rec):
            traced.append(call(rec.span("cli.main", cli.main), "run"))
        if len(traced) % 2:
            plain.append(call(cli.main, "run"))
        per_run.append(layer_metrics(rec, wl.statements))
        accounted.append(sum(rec.self_times().values()) / traced[-1])
        if len(per_run) == 1:
            extracted = extracted_sets(rec)
        del rec

    if extracted is not None:
        wrong = oracle.extraction_mismatches(wl, extracted)
        outcome.record(0, [f"statement {i}: extracted set differs from reference"
                           for i in wrong], failed=len(wrong))

    print(f"calls: {len(plain)} untraced and {len(traced)} traced, alternating")
    metrics: dict[str, tuple[float, str]] = {}
    for name, (value, unit) in per_run[0].items():
        if unit == "s":  # counts repeat exactly from run to run; times do not
            value = show(name, [run[name][0] for run in per_run], unit)
        metrics[name] = (value, unit)
    for name, stage in (("workload.parse_peak_mb", "workload.parse_workload"),
                        ("workload.extract_peak_mb", "workload.extract_workload"),
                        ("miner.mine_peak_mb", "miner.mine_closed"),
                        ("advisor.derive_peak_mb", "advisor.derive_candidates")):
        if stage in peaks.peaks:
            metrics[name] = (peaks.peaks[stage] / MIB, "MiB")
    metrics["trace.wall_s"] = (show("trace.wall_s", traced, "s"), "s")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain), "ratio")
    for name, (value, unit) in metrics.items():
        if unit != "s":
            print(f"{name:<34} {value:12.6g} {unit}")
    print(f"span self times cover {statistics.median(accounted):.4%} "
          "of the traced wall time (median)")
    return outcome, metrics


# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = workloads.GENERATORS[name](seed)
    print("shape " + json.dumps(wl.shape()))
    WORK.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        inputs = Inputs(wl, directory)
        measure = measure_traced if trace else measure_cli
        outcome, metrics = measure(inputs, seconds)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass
    for problem in outcome.problems:
        print(f"problem: {problem}")
    return {
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.GENERATORS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "idxminer" / "cli.py").is_file():
        print(f"error: idxminer sources not found under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.GENERATORS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        print(f"== {name} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
