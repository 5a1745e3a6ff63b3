"""Command-line driver: workload + schema + stats in, recommendation out.

Exit codes: 0 on success (an empty recommendation is a success), 1 on
configuration errors (bad flags, missing statistics under the large-table
strategy, invalid thresholds), 2 on file-level failures (unreadable
paths, undecodable bytes, malformed schema or stats files, an output
directory that cannot be created or written, a standard stream that
cannot take the report, the diagnostics or the help). Per-statement SQL
diagnostics never change the exit code, and neither does a failure's
message that stderr cannot take.

``_run`` holds the whole run, top to bottom, and raises on a failure.
``main`` is the one place that prints a failure: its ``except`` clauses
are the table from each failure's exception to its exit code.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from collections import Counter
from pathlib import Path
from typing import TextIO

from . import advisor, catalog, report, workload

OUT_DIR_ENV = "IDXMINER_OUT"
DEFAULT_OUT_DIR = "out"


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; bad flags are
    # configuration errors here and must exit 1.
    def error(self, message):
        _print_error(message, self.format_usage())
        raise SystemExit(1)

    # argparse drops help it cannot write, and sends it to stderr when fd 1
    # is closed; here it goes where it was sent, or the run exits 2.
    def _print_message(self, message, file=None):
        if message:
            _write(file, message,
                   "standard error" if file is sys.stderr else "standard output")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="idxminer",
        description="Recommend indexes by mining attribute usage out of a SQL workload.",
    )
    parser.add_argument("--workload", required=True, help="workload file (SQL statements)")
    parser.add_argument("--schema", required=True, help="schema file (TABLE stanzas)")
    parser.add_argument("--stats", help="table statistics file (required for large-tables)")
    parser.add_argument(
        "--minsup",
        default="0.1",
        help="minimum support: fraction in (0,1] or absolute count >= 1 (default 0.1)",
    )
    parser.add_argument(
        "--strategy",
        choices=("all", "large-tables"),
        default="all",
        help="keep all candidates, or only those on large tables (default all)",
    )
    parser.add_argument(
        "--threshold-rows",
        type=int,
        default=advisor.DEFAULT_THRESHOLD_ROWS,
        help="row count from which a table counts as large (default %(default)s)",
    )
    parser.add_argument(
        "--no-maximal-only",
        action="store_true",
        help="also keep candidates whose columns are a subset of another candidate",
    )
    parser.add_argument(
        "--policy",
        help="comma-separated extraction positions "
        "(where,join,group_by,order_by,having,select)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help=f"output directory (default ${OUT_DIR_ENV} or ./{DEFAULT_OUT_DIR})",
    )
    parser.add_argument(
        "--mine-only",
        action="store_true",
        help="stop after mining and dump each table's closed sets as "
        "'support<TAB>items', by table name, then descending support",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print per-statement diagnostics to stderr")
    return parser


def _parse_minsup(text: str) -> int | tuple[int, int]:
    """An absolute count >= 1, or a fraction in (0, 1] as (numerator, denominator)."""
    raw = text.strip()
    try:
        try:
            value = int(raw)
        except ValueError:
            if re.fullmatch(r"[0-9]*\.[0-9]+", raw):  # a plain decimal, read exactly
                num, den = int(raw.replace(".", "")), 10 ** (len(raw) - raw.index(".") - 1)
            else:
                from fractions import Fraction  # not at module level: ~1.8 MiB, ~9 ms
                num, den = Fraction(raw).as_integer_ratio()
            # A whole number above 1 is a count, however spelled: "1e1", "2.0" or "10/1".
            value = num // den if num > den and num % den == 0 else (num, den)
        if isinstance(value, int):
            if value < 1:
                raise ValueError("absolute minimum support must be >= 1")
        elif not 0 < value[0] <= value[1]:
            raise ValueError("fractional minimum support must be in (0, 1]")
        return value
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"invalid --minsup {text!r}: {exc}") from None


class FileError(Exception):
    """An input file that cannot be read or decoded, or an output not written."""


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise FileError(f"cannot read {what} file {path!r}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise FileError(f"{what} file {path!r} is not UTF-8: {exc}") from None


def main(argv: list[str] | None = None) -> int:
    try:
        _run(build_parser().parse_args(argv))
    except SystemExit as exc:  # argparse's own exit, after --help or a bad flag
        return int(exc.code or 0)
    except (ConfigError, advisor.MissingStatsError) as exc:
        _print_error(exc)
        return 1
    except (FileError, workload.SchemaError, catalog.StatsError) as exc:
        _print_error(exc)
        return 2
    return 0


def _print_error(message: object, usage: str = "") -> None:
    """A failure's message on stderr; a stderr that cannot take it changes no exit code."""
    try:
        _write(sys.stderr, f"{usage}error: {message}\n", "standard error")
    except FileError:
        pass


def _run(args: argparse.Namespace) -> None:
    """One run, from the parsed flags to the outputs; a failure raises."""
    minsup = _parse_minsup(args.minsup)
    strategy = advisor.Strategy(args.strategy.upper().replace("-", "_"))
    if strategy is advisor.Strategy.LARGE_TABLES and not args.stats:
        raise ConfigError("--strategy large-tables requires --stats")
    if args.threshold_rows < 0:
        raise ConfigError("--threshold-rows must be >= 0")
    policy = workload.DEFAULT_POLICY
    if args.policy is not None:
        try:
            policy = workload.extraction_policy(args.policy.split(","))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    workload_text = _read_text(args.workload, "workload")
    schema = workload.parse_schema(_read_text(args.schema, "schema"))
    row_counts = catalog.load_stats(_read_text(args.stats, "stats")) if args.stats else {}

    diagnostics: list[str] = []
    queries = workload.parse_workload(workload_text)
    contexts = workload.extract_workload(queries, schema, policy, diagnostics)

    db, items_by_id = advisor.build_database(contexts)
    # The one threshold of the run, a count over every statement (a fraction's
    # ceiling, in integers); an empty workload has none and mines nothing.
    minsup_used = 0
    if queries:
        minsup_used = (minsup if isinstance(minsup, int)
                       else -(-minsup[0] * len(queries) // minsup[1]))
    closed = advisor.mine_tables(db, items_by_id, minsup_used)
    if args.mine_only:
        _write(sys.stdout, "".join(
            f"{found.support}\t{','.join(str(items_by_id[i]) for i in found.items)}\n"
            for found in closed), "standard output")
        _print_diagnostics(diagnostics, args.verbose)
        return

    candidates = advisor.derive_candidates(closed, items_by_id,
                                           maximal_only=not args.no_maximal_only)
    configuration = advisor.select(candidates, strategy, row_counts, args.threshold_rows,
                                   workload_size=len(queries), diagnostics=diagnostics)
    recommendation = report.Recommendation(
        configuration=configuration,
        minsup_used=minsup_used,
        workload_summary=Counter(query.kind for query in queries),
        diagnostics=tuple(diagnostics),
    )

    text_report = report.emit_report(recommendation, "text")
    out_dir = Path(args.out or os.environ.get(OUT_DIR_ENV) or DEFAULT_OUT_DIR)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, content in (("recommendation.sql", report.emit_ddl(configuration)),
                              ("report.txt", text_report),
                              ("report.dat", report.emit_report(recommendation, "structured"))):
            (out_dir / name).write_text(content, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise FileError(f"cannot write output to {str(out_dir)!r}: {exc}") from None

    _write(sys.stdout, text_report, "standard output")
    _print_diagnostics(diagnostics, args.verbose)


def _write(stream: TextIO | None, text: str, name: str) -> None:
    """Write to a standard stream, escaping what its encoding cannot hold.

    A stream that is closed or fails raises FileError. Python flushes the
    stream again at exit, so a failed one is pointed at the null device first.
    """
    if stream is None:  # its file descriptor was closed when Python started
        raise FileError(f"cannot write {name}: it is closed")
    encoding = getattr(stream, "encoding", None)
    if encoding:
        text = text.encode(encoding, "backslashreplace").decode(encoding)
    try:
        stream.write(text)
        stream.flush()
    except OSError as exc:
        null = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(null, stream.fileno())
        finally:
            os.close(null)
        raise FileError(f"cannot write {name}: {exc}") from None


def _print_diagnostics(diagnostics: list[str], verbose: bool) -> None:
    if verbose and diagnostics:
        _write(sys.stderr, "".join(line + "\n" for line in diagnostics), "standard error")


if __name__ == "__main__":
    sys.exit(main())
