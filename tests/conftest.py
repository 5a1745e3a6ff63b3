from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import strategies as st

from idxminer import workload

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

WORKLOAD_PATH = FIXTURES / "tpcr_workload.sql"
SCHEMA_PATH = FIXTURES / "tpcr_schema.txt"
STATS_PATH = FIXTURES / "tpcr_stats.txt"
SRC = Path(__file__).resolve().parents[1] / "src"

# Random statement text: the SQL alphabet, some non-ASCII characters and
# fragments of real statements, runs of numbers among them.
SQL_ALPHABET = (
    "abcxyzSELCTFROMWHEINDTabcdefghijklmnopqrstuvwxyz_0123456789"
    " \t\n'\";.,()*=<>!|+-/%"
    "é²٣ "
)
SQL_WORDS = ["SELECT ", " FROM ", " WHERE ", " AND ", " OR ", " NOT ", " IN ",
             "(", ")", "--", "/*", "*/", "''", '""', " t.a ", " 1.5e3 ",
             "1, 2", " ,3 ,\t4", ", .5", "1,"]
sql_text = st.lists(st.one_of(st.text(SQL_ALPHABET, max_size=6),
                              st.sampled_from(SQL_WORDS)),
                    max_size=30).map("".join)

# The word of each token kind's value; any other kind's word is its value.
WORD_OF = {
    "ident": str.lower,
    "number": lambda value: "0",
    "string": lambda value: "''",
    "qident": lambda value: '"' + value.replace('"', '""') + '"',
}


def parsed(text: str, parse: Callable = workload.parse_statement):
    """The statement's parse, or its error's message and position."""
    try:
        return parse(text)
    except workload.SqlParseError as exc:
        return str(exc), exc.pos


def scanned_words(text: str) -> list[str]:
    """What ``tokenize`` must return: the word of each of the scanner's tokens."""
    return [WORD_OF.get(kind, str)(value) for kind, value, _ in workload.scan(text)]


def run_cli_process(args: list[str], *, python_flags: tuple[str, ...] = (),
                    stdout: int = subprocess.PIPE,
                    preexec_fn: Callable[[], None] | None = None,
                    **env: str) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter, adding ``env`` to the environment.

    Standard output is captured unless ``stdout`` names a file descriptor.
    ``preexec_fn`` runs in the child just before the interpreter starts.
    """
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "idxminer.cli", *args],
        stdout=stdout, stderr=subprocess.PIPE, preexec_fn=preexec_fn,
        env=dict(os.environ, PYTHONPATH=path, **env), timeout=120,
    )


def extract_one(query: workload.WorkloadQuery, schema: workload.SchemaMap,
                policy: frozenset[str] = workload.DEFAULT_POLICY,
                diagnostics: list[str] | None = None) -> workload.TransactionContext:
    """The transaction context of one parsed statement."""
    return workload.extract_workload([query], schema, policy, diagnostics)[0]


@pytest.fixture(scope="session")
def tpcr_schema() -> workload.SchemaMap:
    return workload.parse_schema(SCHEMA_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def tpcr_workload_text() -> str:
    return WORKLOAD_PATH.read_text(encoding="utf-8")


@pytest.fixture
def fixture_args(tmp_path):
    """Baseline CLI arguments for the committed fixture workload."""
    def build(*extra: str, out: Path | None = None) -> list[str]:
        out_dir = out if out is not None else tmp_path / "out"
        return [
            "--workload", str(WORKLOAD_PATH),
            "--schema", str(SCHEMA_PATH),
            "--stats", str(STATS_PATH),
            "--minsup", "0.25",
            "--out", str(out_dir),
            *extra,
        ]
    return build
