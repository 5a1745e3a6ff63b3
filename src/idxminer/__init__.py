"""Workload-driven index advisor.

Mines frequent attribute sets out of a SQL query log and turns them into a
scored, single-table index configuration with ready-to-run CREATE INDEX
statements.
"""

from .advisor import (
    IndexCandidate,
    IndexConfiguration,
    Strategy,
    build_database,
    derive_candidates,
    select,
)
from .catalog import is_large, load_stats
from .miner import (
    ClosedItemset,
    MinSupport,
    TransactionDatabase,
    mine_bruteforce,
    mine_closed,
)
from .report import Recommendation, emit_ddl, emit_report
from .workload import (
    AttributeItem,
    ExtractionPolicy,
    SchemaMap,
    TransactionContext,
    WorkloadQuery,
    extract_items,
    parse_schema,
    parse_workload,
)

__version__ = "0.1.0"
