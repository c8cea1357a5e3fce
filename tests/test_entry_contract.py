"""Driver-contract guards: the queries()/oracle_sql() registries stay
consistent (every oracle key has a query, names are unique and stable,
SQL strings reference registered tables only)."""

import ast
import re
from collections import Counter
from pathlib import Path

import __ray_entry__ as entry

QUERY_DIR = Path(__file__).resolve().parent.parent / "goose_parser_ray" / "queries"


def test_oracle_keys_subset_of_queries():
    qs, osql = entry.queries(), entry.oracle_sql()
    missing = [k for k in osql if k not in qs]
    assert not missing, f"oracle SQL without query impl: {missing}"
    assert len(qs) >= 40
    assert len(osql) >= 25


def test_all_queries_callable():
    qs = entry.queries()
    for name, fn in qs.items():
        assert callable(fn), name


TABLES = set(
    "region nation customer supplier part orders lineitem events "
    "documents embeddings".split()
)


def test_oracle_sql_references_known_tables():
    osql = entry.oracle_sql()
    for name, sql in osql.items():
        # CTE names, with or without an explicit column list:
        # `name AS (` and `name(col, ...) AS (`
        ctes = {
            m.lower()
            for m in re.findall(r"(\w+)\s*(?:\([^)]*\))?\s+AS\s*\(", sql)
        }
        froms = set(
            t.lower()
            for t in re.findall(
                r"(?:\bFROM\b|\bJOIN\b)\s+([A-Za-z_][A-Za-z0-9_]*)", sql
            )
        )
        # EXTRACT(x FROM col) false-positives: drop anything that is a CTE
        # alias or appears only inside an EXTRACT(...)
        extracts = {
            m.lower() for m in re.findall(r"EXTRACT\s*\(\s*\w+\s+FROM\s+(\w+)", sql)
        }
        # table functions are valid FROM targets, not tables
        table_fns = {"unnest", "generate_series", "range", "values"}
        unknown = froms - TABLES - ctes - extracts - table_fns
        assert not unknown, f"{name}: unknown tables {unknown}"


def _defined_names(path: Path) -> tuple[set[str], set[str]]:
    """Top-level ``q_*`` functions and ``SQL_*`` assignments one query
    module defines (imported names do not count)."""
    fns, sqls = set(), set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("q_"):
            fns.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            sqls |= {
                t.id
                for t in targets
                if isinstance(t, ast.Name) and t.id.startswith("SQL_")
            }
    return fns, sqls


def test_every_sql_twin_has_its_query_in_the_same_module():
    """The registry pairs ``SQL_<NAME>`` with ``q_<name>`` of the same
    module; a twin without that function would be silently dropped."""
    orphans = []
    for path in sorted(QUERY_DIR.glob("*.py")):
        fns, sqls = _defined_names(path)
        orphans += [
            f"{path.name}:{s}" for s in sorted(sqls) if f"q_{s[4:].lower()}" not in fns
        ]
    assert not orphans, f"SQL twins without a q_ function beside them: {orphans}"


def test_no_query_or_twin_defined_in_two_modules():
    seen = Counter()
    for path in QUERY_DIR.glob("*.py"):
        fns, sqls = _defined_names(path)
        seen.update(fns | sqls)
    dups = sorted(n for n, c in seen.items() if c > 1)
    assert not dups, f"defined in more than one query module: {dups}"
