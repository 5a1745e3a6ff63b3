from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

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
# fragments of real statements.
SQL_ALPHABET = (
    "abcxyzSELCTFROMWHEINDTabcdefghijklmnopqrstuvwxyz_0123456789"
    " \t\n'\";.,()*=<>!|+-/%"
    "é²٣ "
)
SQL_WORDS = ["SELECT ", " FROM ", " WHERE ", " AND ", " OR ", " NOT ", " IN ",
             "(", ")", "--", "/*", "*/", "''", '""', " t.a ", " 1.5e3 "]
sql_text = st.lists(st.one_of(st.text(SQL_ALPHABET, max_size=6),
                              st.sampled_from(SQL_WORDS)),
                    max_size=30).map("".join)


def run_cli_process(args: list[str], *, python_flags: tuple[str, ...] = (),
                    **env: str) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter, adding ``env`` to the environment."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "idxminer.cli", *args],
        capture_output=True, env=dict(os.environ, PYTHONPATH=path, **env), timeout=120,
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
