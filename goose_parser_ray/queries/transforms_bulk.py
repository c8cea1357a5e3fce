"""Transform chains over documents.text (T1-T6 bulk path).

Each ``q_<name>`` here is the query ``<name>`` and ``SQL_<NAME>`` its
DuckDB twin; see the package docstring for that naming rule and the
column-naming / integer-cents parity rules every query follows."""

from __future__ import annotations

import pyarrow as pa

from goose_parser_ray.transforms import compile_chain

from goose_parser_ray.queries._shared import _read


# ---------------------------------------------------------------------------
# transform chains over documents.text (T1–T6 bulk path)
# ---------------------------------------------------------------------------

_CLEAN_CHAIN = [
    {"type": "replace", "re": ["\\s+", "g"], "to": " "},
    {"type": "trim"},
]


def q_transform_clean(sf_dir: str):
    chain = compile_chain(_CLEAN_CHAIN)
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda t: pa.Table.from_arrays(
            [t["doc_id"], chain.apply_array(t["text"])], names=["doc_id", "cleaned"]
        ),
        batch_format="pyarrow",
    )


SQL_TRANSFORM_CLEAN = """
SELECT doc_id, trim(regexp_replace(text, '\\s+', ' ', 'g')) AS cleaned
FROM documents
"""


def q_transform_split(sf_dir: str):
    chain = compile_chain([{"type": "split", "separator": " ", "index": 0}])
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda t: pa.Table.from_arrays(
            [t["doc_id"], chain.apply_array(t["text"])],
            names=["doc_id", "first_token"],
        ),
        batch_format="pyarrow",
    )


SQL_TRANSFORM_SPLIT = """
SELECT doc_id, split_part(text, ' ', 1) AS first_token FROM documents
"""


def q_transform_match(sf_dir: str):
    chain = compile_chain([{"type": "match", "re": ["(table|spark)"], "index": 1}])
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda t: pa.Table.from_arrays(
            [t["doc_id"], chain.apply_array(t["text"])], names=["doc_id", "hit"]
        ),
        batch_format="pyarrow",
    )


SQL_TRANSFORM_MATCH = """
SELECT doc_id, regexp_extract(text, '(table|spark)', 1) AS hit FROM documents
"""


def q_transform_date(sf_dir: str):
    """moment round-trip parity: ts → 'DD MMMM YYYY' (our formatter) →
    date transform back to ISO — must equal DuckDB's strftime ISO."""
    chain = compile_chain(
        [{"type": "date", "from": "DD MMMM YYYY", "to": "YYYY-MM-DD"}]
    )
    from goose_parser_ray.transforms.momentfmt import MomentFormatter

    fmt = MomentFormatter("DD MMMM YYYY")
    ds = _read(sf_dir, "events", ["event_id", "ts"])

    def run(t: pa.Table) -> pa.Table:
        human = [fmt.format(v.as_py()) for v in t["ts"]]
        iso = chain.apply_array(pa.array(human))
        return pa.Table.from_arrays([t["event_id"], iso], names=["event_id", "iso"])

    return ds.map_batches(run, batch_format="pyarrow")


SQL_TRANSFORM_DATE = """
SELECT event_id, strftime(ts, '%Y-%m-%d') AS iso FROM events
"""
