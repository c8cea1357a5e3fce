"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at
sf=0.01 and compares it against the matching ``oracle_sql()[name]`` via
DuckDB (row-count + schema + order-insensitive value-hash →
CORRECTNESS_r{N}.json).

Ray is initialised by the driver BEFORE this module is imported: neither
this module nor the ``goose_parser_ray`` library ever calls
``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: flat documents →
    interleaved span wrap → boilerplate-strip extraction → flattened span
    rows. Returns a ray.data.Dataset (≥0 rows, stable schema)."""
    from goose_parser_ray.queries import q_extract_spans

    return q_extract_spans("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    """One entry per implemented operator/pipeline from SURVEY.md §2/§2.6
    plus the training-data ops (dedup / similarity / text analysis /
    multimodal). The implementations are the ``q_<name>`` functions in the
    modules of the goose_parser_ray/queries/ package."""
    from goose_parser_ray.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    """DuckDB equivalents for every SQL-expressible query (same column
    names; float aggregates as integer-cents for order-independent
    exactness). Non-SQL-expressible ops are omitted → rows-only checks."""
    from goose_parser_ray.queries import ORACLE_SQL

    return dict(ORACLE_SQL)
