"""Workload-driven index advisor.

Mines frequent attribute sets out of a SQL query log and turns them into a
scored, single-table index configuration with ready-to-run CREATE INDEX
statements.
"""

__version__ = "0.1.0"
