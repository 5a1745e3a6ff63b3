from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from idxminer import workload

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

WORKLOAD_PATH = FIXTURES / "tpcr_workload.sql"
SCHEMA_PATH = FIXTURES / "tpcr_schema.txt"
STATS_PATH = FIXTURES / "tpcr_stats.txt"
SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli_process(args: list[str], *, python_flags: tuple[str, ...] = (),
                    **env: str) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter, adding ``env`` to the environment."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "idxminer.cli", *args],
        capture_output=True, env=dict(os.environ, PYTHONPATH=path, **env), timeout=120,
    )


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
