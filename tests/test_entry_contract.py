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


PACKAGE_DIR = QUERY_DIR.parent


def test_no_dataset_join_outside_relational():
    """Every hash join goes through ``relational.safe_join``, the one place
    that sizes its width from the cluster: no ``.join(..., join_type=...)``
    call anywhere else in the package."""
    calls = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        for top in ast.parse(path.read_text()).body:
            calls += [
                (str(path.relative_to(PACKAGE_DIR)), getattr(top, "name", "<module>"))
                for node in ast.walk(top)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"
                and any(k.arg == "join_type" for k in node.keywords)
            ]
    assert calls == [("functions/relational.py", "safe_join")], (
        f"Dataset.join outside relational.safe_join: {sorted(set(calls))}"
    )


# Groupbys on an ORDER range, not a key hash: each splits a sorted key (or
# arrival order) into contiguous ranges so a prefix scan can carry per-range
# bases from one range to the next, which hash buckets cannot give. Every
# prefix sum and rank goes through the one ordered scan.
RANGE_SCANS = {
    ("functions/packing.py", "global_scan_offsets"): "sampled key ranges, per-range prefix-sum bases",
    ("functions/blocking.py", "sorted_neighborhood_pairs"): "rank ranges rank // B, window copied across",
    ("queries/quality_stats.py", "q_late_events"): "event_id arrival ranges, seeded running max",
}

# Hash % buckets that splits ONE key rather than bucketing keys.
SALTED = {
    ("functions/textstats.py", "grouped_hll_distinct"): "shards one key's HLL sketches for a two-level merge",
}


def _bucket_sites():
    """Per top-level def of the package: who groups a Dataset by a ``__``
    column, who calls a bucket hasher, who takes a hash ``% num_buckets``."""
    grouped, hashers, hash_mod = set(), set(), set()
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text())
        consts = {
            t.id: n.value.value
            for n in tree.body
            if isinstance(n, ast.Assign) and isinstance(n.value, ast.Constant)
            for t in n.targets
            if isinstance(t, ast.Name)
        }
        for top in tree.body:
            site = (str(path.relative_to(PACKAGE_DIR)), getattr(top, "name", "<module>"))
            nodes = list(ast.walk(top))
            sized = {"num_buckets", "nb"} | {
                t.id
                for n in nodes
                if isinstance(n, ast.Assign)
                and isinstance(n.value, ast.Call)
                and "num_shuffle_buckets" in ast.unparse(n.value.func)
                for t in n.targets
                if isinstance(t, ast.Name)
            }
            for n in nodes:
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute):
                    recv = n.func.value
                    if (
                        n.func.attr == "map_groups"
                        and isinstance(recv, ast.Call)
                        and isinstance(recv.func, ast.Attribute)
                        and recv.func.attr == "groupby"
                        and recv.args
                    ):
                        key = recv.args[0]
                        key = key.elts[0] if isinstance(key, ast.List) else key
                        if isinstance(key, ast.Name):
                            key = ast.Constant(consts.get(key.id))
                        if isinstance(key, ast.Constant) and str(key.value).startswith("__"):
                            grouped.add(site)
                if isinstance(n, ast.Call) and ast.unparse(n.func).split(".")[-1] in (
                    "add_hash_bucket", "add_coarse_bucket",
                ):
                    hashers.add(site)
                if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mod):
                    right = n.right
                    if isinstance(right, ast.Call) and len(right.args) == 1:
                        right = right.args[0]  # np.uint64(nb)
                    if isinstance(right, ast.Name) and right.id in sized:
                        hash_mod.add(site)
    return grouped, hashers, hash_mod


def test_keyed_folds_go_through_bucket_groups():
    """Every hash-bucketed groupby of the package is ``dedup.bucket_groups``:
    it alone sizes the buckets, hashes the key and groups by the bucket. The
    only other groupbys on a ``__`` column are the range scans above, and
    the only other hash taken modulo a bucket count is the HLL salt."""
    grouped, hashers, hash_mod = _bucket_sites()
    fold = ("functions/dedup.py", "bucket_groups")
    assert grouped == {fold} | set(RANGE_SCANS), sorted(grouped - set(RANGE_SCANS))
    assert hashers == {fold}, sorted(hashers)
    hasher_defs = {
        ("functions/dedup.py", "add_hash_bucket"),
        ("functions/dedup.py", "add_coarse_bucket"),
    }
    assert hash_mod == hasher_defs | set(SALTED), sorted(hash_mod)


def test_keyed_aggregates_go_through_keyed_aggregate():
    """Every keyed aggregate of the package is ``relational.keyed_aggregate``:
    no ``.aggregate(...)`` runs on a ``.groupby(...)`` (Ray's sort-based
    aggregate folds each group in Python and cannot sort a null string
    key), and the retired ``pre_aggregated_sum`` is gone by name too."""
    sites, named = [], []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        src = path.read_text()
        rel = str(path.relative_to(PACKAGE_DIR))
        if "pre_aggregated_sum" in src:
            named.append(rel)
        for n in ast.walk(ast.parse(src)):
            if (
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute)
                and n.func.attr == "aggregate"
                and isinstance(n.func.value, ast.Call)
                and isinstance(n.func.value.func, ast.Attribute)
                and n.func.value.func.attr == "groupby"
            ):
                sites.append(f"{rel}:{n.lineno}")
    assert not sites, sites
    assert not named, named


def test_no_query_starts_an_actor():
    """Every batch kernel runs as plain tasks: a kernel with constant
    arguments through ``stages.extract.cached_kernel``, one with per-call
    arrays as an instance built on the driver. No class is handed to
    ``map_batches`` anywhere in the package, and nothing takes or passes a
    ``concurrency`` to size a pool with."""
    trees = [ast.parse(p.read_text()) for p in sorted(PACKAGE_DIR.rglob("*.py"))]
    classes = {
        n.name for t in trees for n in ast.walk(t) if isinstance(n, ast.ClassDef)
    }
    calls = [n for t in trees for n in ast.walk(t) if isinstance(n, ast.Call)]
    pooled = {
        node.args[0].id
        for node in calls
        if isinstance(node.func, ast.Attribute)
        and node.func.attr == "map_batches"
        and node.args
        and isinstance(node.args[0], ast.Name)
        and node.args[0].id in classes
    }
    assert pooled == set(), sorted(pooled)
    takes = sorted(
        n.name
        for t in trees
        for n in ast.walk(t)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            a.arg == "concurrency"
            for a in n.args.args + n.args.kwonlyargs + n.args.posonlyargs
        )
    )
    assert not takes, takes
    passes = [n.lineno for n in calls if any(k.arg == "concurrency" for k in n.keywords)]
    assert not passes, passes


GiB = 1 << 30
BLOCK = 128 << 20  # Ray's default DataContext.target_max_block_size


def _width(cpus, memory=100 * GiB, block_bytes=BLOCK, **kw):
    from goose_parser_ray.functions.relational import join_width

    return join_width(cpus=cpus, memory=memory, block_bytes=block_bytes, **kw)


def test_join_width_rule():
    # CPU cap: half the CPUs, never below 2
    assert [_width(c) for c in (1, 4, 8, 32)] == [2, 2, 4, 16]
    # rows term: one partition per 100k known rows, inside the CPU cap
    assert _width(32, rows=10) == 2
    assert _width(32, rows=250_000) == 3
    assert _width(32, rows=10**9) == 16
    # memory fit: 7 × 128 MiB = 0.875 GiB per partition
    assert _width(32, memory=10.69 * GiB) == 12
    assert _width(32, memory=2 * GiB) == 2
    assert _width(32, memory=1 * GiB) == 1
    # a pinned width still goes through the memory fit
    assert _width(4, requested=16) == 16
    assert _width(4, memory=10.69 * GiB, requested=16) == 12
    # no target block size: Ray reserves nothing, so nothing to fit
    assert _width(32, memory=0, block_bytes=None) == 16


def test_join_width_raises_when_one_partition_does_not_fit():
    import pytest

    with pytest.raises(RuntimeError, match=r"0\.88 GiB.*0\.50 GiB"):
        _width(4, memory=512 << 20)


def test_join_width_reservation_matches_ray():
    """The 7-blocks-per-partition figure is Ray's own estimate: fail here,
    not in a hung join, when a Ray upgrade changes it."""
    from ray.data._internal.execution.operators.join import JoinOperator

    from goose_parser_ray.functions.relational import (
        _RESERVED_BLOCKS_PER_PARTITION,
    )

    for p in (2, 16, 64):
        per_actor = JoinOperator._estimate_aggregator_memory_allocation(
            num_aggregators=p, num_partitions=p,
            partition_byte_size_estimate=BLOCK,
        )
        assert per_actor * p == _RESERVED_BLOCKS_PER_PARTITION * BLOCK * p
