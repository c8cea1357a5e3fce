"""Driver-contract query surface (``__ray_entry__.queries`` / ``oracle_sql``).

One entry per operator from SURVEY.md §2 / §2.6 plus the training-data ops.
Each Ray implementation is paired with ANSI SQL the driver runs in DuckDB on
the same parquet; column NAMES and value semantics must match exactly
(driver hashes values after sorting columns by name).

Registration is by name: every ``q_<name>`` function defined in a module of
this package is the query ``<name>``, and an ``SQL_<NAME>`` string in the
same module is its DuckDB twin. Queries without a twin (sketches, RNG,
DOM-semantic extraction) are checked rows-only by the driver.

Float-sum parity: double sums are order-dependent in IEEE arithmetic, and the
Ray and DuckDB plans sum in different orders. Every monetary/real aggregate
is therefore computed as an integer-cents sum — per-element
``CAST(ROUND(100*x) AS BIGINT)`` on both sides (element-wise rounding is
deterministic; int64 sums are exact in any order).

Ray never calls ``ray.init`` here — the driver owns the session.
"""

from __future__ import annotations

import importlib
import pkgutil
from typing import Any

_MODULES = [
    importlib.import_module(f"{__name__}.{m.name}")
    for m in pkgutil.iter_modules(__path__)
]

QUERIES: dict[str, Any] = {}
ORACLE_SQL: dict[str, str] = {}
for _mod in _MODULES:
    for _attr, _fn in vars(_mod).items():
        # re-imported names belong to the module that defines them
        if _attr.startswith("q_") and getattr(_fn, "__module__", None) == _mod.__name__:
            QUERIES[_attr[2:]] = _fn
            _sql = getattr(_mod, "SQL_" + _attr[2:].upper(), None)
            if _sql is not None:
                ORACLE_SQL[_attr[2:]] = _sql


def __getattr__(name: str) -> Any:
    """Any top-level name of a query module, e.g. ``q_bm25`` or ``_BM25_B``
    (PEP 562); no name is defined in two modules."""
    for mod in _MODULES:
        if name in vars(mod):
            return vars(mod)[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
