"""Command-line driver: workload + schema + stats in, recommendation out.

Exit codes: 0 on success (an empty recommendation is a success), 1 on
configuration errors (bad flags, missing statistics under the large-table
strategy, invalid thresholds), 2 on file-level failures (unreadable
paths, undecodable bytes, malformed schema or stats files, an output
directory that cannot be created or written). Per-statement SQL
diagnostics never change the exit code.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import advisor, catalog, miner, report, workload

OUT_DIR_ENV = "IDXMINER_OUT"
DEFAULT_OUT_DIR = "out"


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; bad flags are
    # configuration errors here and must exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


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
        "--dialect",
        default="generic",
        help="DDL dialect; only 'generic' is implemented",
    )
    parser.add_argument(
        "--mine-only",
        action="store_true",
        help="stop after mining and dump closed itemsets as 'support<TAB>items'",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="print per-statement diagnostics to stderr")
    return parser


def _parse_minsup(text: str) -> miner.MinSupport:
    raw = text.strip()
    try:
        try:
            value = int(raw)
        except ValueError:
            value = Fraction(raw)
            if value > 1 and value.denominator == 1:
                value = int(value)  # a count spelled "1e1", "2.0" or "10/1"
        return miner.MinSupport(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"invalid --minsup {text!r}: {exc}") from None


def _build_config(args) -> tuple[
    miner.MinSupport, advisor.Strategy, frozenset[str], Path
]:
    """The minimum support, strategy, extraction policy and output directory."""
    minsup = _parse_minsup(args.minsup)
    strategy = advisor.Strategy(args.strategy.upper().replace("-", "_"))
    if strategy is advisor.Strategy.LARGE_TABLES and not args.stats:
        raise ConfigError("--strategy large-tables requires --stats")
    if args.threshold_rows < 0:
        raise ConfigError("--threshold-rows must be >= 0")
    if args.dialect != "generic":
        raise ConfigError(f"unsupported dialect {args.dialect!r}")
    if args.policy is not None:
        try:
            policy = workload.extraction_policy(args.policy.split(","))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    else:
        policy = workload.DEFAULT_POLICY
    out_dir = Path(args.out or os.environ.get(OUT_DIR_ENV) or DEFAULT_OUT_DIR)
    return minsup, strategy, policy, out_dir


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise FileNotFoundError(f"cannot read {what} file {path!r}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise FileNotFoundError(f"{what} file {path!r} is not UTF-8: {exc}") from None


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        minsup, strategy, policy, out_dir = _build_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        workload_text = _read_text(args.workload, "workload")
        schema = workload.parse_schema(_read_text(args.schema, "schema"))
        row_counts = {}
        if args.stats:
            row_counts = catalog.load_stats(_read_text(args.stats, "stats"))
    except (FileNotFoundError, workload.SchemaError, catalog.StatsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    diagnostics: list[str] = []
    queries = workload.parse_workload(workload_text)
    contexts = workload.extract_workload(queries, schema, policy, diagnostics)

    db, items_by_id = advisor.build_database(contexts)
    if args.mine_only:
        for itemset in miner.mine_closed(db, minsup):
            rendered = ",".join(str(items_by_id[i]) for i in itemset.items)
            _write_stdout(f"{itemset.support}\t{rendered}\n")
        _print_diagnostics(diagnostics, args.verbose)
        return 0

    minsup_used = minsup.resolve(len(queries)) if queries else 0
    closed = advisor.mine_tables(db, items_by_id, minsup_used)
    candidates = advisor.derive_candidates(closed, items_by_id,
                                           maximal_only=not args.no_maximal_only)
    try:
        configuration = advisor.select(
            candidates,
            strategy,
            row_counts,
            args.threshold_rows,
            workload_size=len(queries),
            diagnostics=diagnostics,
        )
    except advisor.MissingStatsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    recommendation = report.Recommendation(
        configuration=configuration,
        minsup_used=minsup_used,
        workload_summary=Counter(query.kind for query in queries),
        diagnostics=tuple(diagnostics),
    )

    text_report = report.emit_report(recommendation, "text")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write(out_dir / "recommendation.sql", report.emit_ddl(configuration))
        _write(out_dir / "report.txt", text_report)
        _write(out_dir / "report.dat", report.emit_report(recommendation, "structured"))
    except OSError as exc:
        print(f"error: cannot write output to {str(out_dir)!r}: {exc}", file=sys.stderr)
        return 2

    _write_stdout(text_report)
    _print_diagnostics(diagnostics, args.verbose)
    return 0


def _write(path: Path, content: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(content)


def _write_stdout(text: str) -> None:
    """Write to stdout, escaping what its encoding cannot hold as stderr does."""
    encoding = getattr(sys.stdout, "encoding", None)
    if encoding:
        text = text.encode(encoding, "backslashreplace").decode(encoding)
    sys.stdout.write(text)


def _print_diagnostics(diagnostics: list[str], verbose: int) -> None:
    if verbose:
        for line in diagnostics:
            print(line, file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
