"""Differential test of the columnar salt split and chunk merge
(``stages.normalize``) against a test-local copy of the row loops they
replaced: seeded random slices, thresholds 1/4/16/512, shuffled and
duplicate offsets, null span lists and sources, empty slices, chunk errors
in the first, middle and last chunk, and a partition filter that drops whole
chunk sets. No Ray needed."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from goose_parser_ray.spans import SPAN_STRUCT
from goose_parser_ray.stages.extract import ExtractActor
from goose_parser_ray.stages.normalize import (
    NORMALIZED_SCHEMA,
    make_normalize_fn,
    merge_salted,
    stable_hash,
)

INPUT_SCHEMA = pa.schema(
    [("doc_id", pa.string()), ("source", pa.string()), ("spans", pa.list_(SPAN_STRUCT))]
)
NUM_PARTITIONS = 3


# --- reference: the row loops, as they were --------------------------------


def ref_normalize(batch: pa.Table, salt_threshold: int) -> pa.Table:
    """Hash-mode normalize of a slice that holds a doc above the threshold:
    every row's spans sorted by offset, null lists and sources as ''."""
    out = {k: [] for k in NORMALIZED_SCHEMA.names}
    for doc_id, source, spans in zip(
        batch["doc_id"].to_pylist(),
        batch["source"].to_pylist(),
        batch["spans"].to_pylist(),
    ):
        spans = sorted(spans or [], key=lambda s: s["offset"])
        if len(spans) <= salt_threshold:
            chunks = [spans]
        else:
            chunks = [
                spans[i : i + salt_threshold]
                for i in range(0, len(spans), salt_threshold)
            ]
        for k, chunk in enumerate(chunks):
            out["doc_id"].append(str(doc_id))
            out["source"].append("" if source is None else str(source))
            out["salt"].append(k)
            out["n_salts"].append(len(chunks))
            out["partition_id"].append(stable_hash(str(doc_id)) % NUM_PARTITIONS)
            out["spans"].append(chunk)
    return pa.Table.from_pydict(out, schema=NORMALIZED_SCHEMA)


def _ref_merge_run(rows: list[dict]) -> dict:
    error = next((r["error"] for r in rows if r["error"]), "")
    spans = [] if error else [s for r in rows for s in r["spans"]]
    return {
        "doc_id": rows[0]["doc_id"],
        "salt": 0,
        "n_salts": 1,
        "partition_id": rows[0]["partition_id"],
        "spans": [{**s, "offset": i} for i, s in enumerate(spans)],
        "n_spans": len(spans),
        "error": error,
    }


def ref_merge_salted(t: pa.Table) -> pa.Table:
    salted = pc.greater(t["n_salts"], 1)
    if not pc.any(salted).as_py():
        return t
    runs: list[list[dict]] = []
    for r in t.filter(salted).to_pylist():
        if r["salt"] == 0:
            runs.append([])
        runs[-1].append(r)
    merged = pa.Table.from_pylist([_ref_merge_run(rs) for rs in runs], schema=t.schema)
    return pa.concat_tables([t.filter(pc.invert(salted)), merged])


# --- inputs ----------------------------------------------------------------


def _doc(rng, n_spans: int, poison_chunks=(), threshold: int = 1) -> list[dict]:
    """``n_spans`` spans with shuffled (sometimes duplicate) offsets; in
    each of ``poison_chunks`` one span (in offset order) has an unknown
    kind, one per chunk, so each chunk's error names its chunk."""
    if rng.random() < 0.5:
        offsets = rng.permutation(n_spans)
    else:
        offsets = rng.integers(0, max(1, n_spans // 2), n_spans)
    kinds = rng.choice(["text", "text", "image"], n_spans).astype(object)
    order = np.argsort(offsets, kind="stable")
    for c in poison_chunks:
        lo = c * threshold
        kinds[order[rng.integers(lo, min(n_spans, lo + threshold))]] = f"bogus{c}"
    return [
        {
            "kind": str(k),
            "text": f" t{j}  x " if j % 5 else "  ",
            "media_ref": f"m{j}" if k == "image" else "",
            "offset": int(o),
        }
        for j, (k, o) in enumerate(zip(kinds, offsets))
    ]


def random_slice(seed: int, threshold: int) -> pa.Table:
    """At most 10 docs; some below, at and above the threshold, some with a
    null span list or source; always at least one doc above the threshold
    unless the slice is empty."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 11)) if seed % 7 else 0
    rows = []
    for i in range(n):
        size = int(
            rng.choice([0, 1, threshold, threshold + 1, 2 * threshold + 3, 3 * threshold])
            if i else 3 * threshold
        )
        chunks = -(-size // threshold)
        poison = ()
        if chunks >= 3 and rng.random() < 0.6:
            poison = (int(rng.choice([0, chunks // 2, chunks - 1])),)  # first, middle, last
        rows.append(
            {
                "doc_id": f"d{seed}-{i}",
                "source": None if rng.random() < 0.2 else str(rng.choice(["a", "b"])),
                "spans": None if rng.random() < 0.1 else _doc(rng, size, poison, threshold),
            }
        )
    return pa.Table.from_pylist(rows, schema=INPUT_SCHEMA)


def _canonical(t: pa.Table) -> list[dict]:
    """Normalized rows with each row's spans in offset order, null lists
    and sources as '' — the form the row loop emitted for every row."""
    rows = t.to_pylist()
    for r in rows:
        r["spans"] = sorted(r["spans"] or [], key=lambda s: s["offset"])
        r["source"] = r["source"] or ""
    return rows


CASES = [(seed, thr) for thr in (1, 4, 16, 512) for seed in range(14)]


@pytest.mark.parametrize("seed,threshold", CASES)
def test_columnar_salting_matches_row_loops(seed, threshold):
    batch = random_slice(seed, threshold)
    normalize = make_normalize_fn(NUM_PARTITIONS, threshold)
    got = normalize(batch)
    want = ref_normalize(batch, threshold)
    assert got.schema == want.schema
    # chunk rows are the row loop's exactly; a doc that is not split keeps
    # its spans as they came, which the extract sorts by offset in any case,
    # and a null source stays null, which the extract reads as ''
    salted = pc.greater(got["n_salts"], 1)
    assert got.filter(salted).drop_columns(["source"]).equals(
        want.filter(pc.greater(want["n_salts"], 1)).drop_columns(["source"])
    )
    assert _canonical(got) == _canonical(want)

    keep = pa.array(sorted({seed % NUM_PARTITIONS, (seed // 3) % NUM_PARTITIONS}), pa.int32())
    extract = ExtractActor()
    for filtered in (False, True):
        g, w = got, want
        if filtered:
            g = g.filter(pc.is_in(g["partition_id"], keep))
            w = w.filter(pc.is_in(w["partition_id"], keep))
        g_ex, w_ex = extract(g), extract(w)
        assert g_ex.equals(w_ex)
        merged = merge_salted(g_ex)
        ref = ref_merge_salted(w_ex)
        assert merged.schema == ref.schema
        assert merged.equals(ref)


@pytest.mark.parametrize("bad_chunks", [(0,), (1,), (2,), (2, 1)])
def test_chunk_error_quarantines_whole_doc(bad_chunks):
    """A mega-doc whose first, middle or last chunk fails keeps no spans and
    carries the first chunk error in salt order, as the row loops did."""
    rng = np.random.default_rng(len(bad_chunks) * 10 + bad_chunks[0])
    batch = pa.Table.from_pylist(
        [
            {"doc_id": "ok", "source": "a", "spans": _doc(rng, 2)},
            {"doc_id": "mega", "source": None, "spans": _doc(rng, 12, bad_chunks, 4)},
        ],
        schema=INPUT_SCHEMA,
    )
    chunks = make_normalize_fn(NUM_PARTITIONS, 4)(batch)
    assert chunks["n_salts"].to_pylist() == [1, 3, 3, 3]
    extracted = ExtractActor()(chunks)
    merged = merge_salted(extracted)
    assert merged.equals(ref_merge_salted(extracted))
    mega = merged.to_pylist()[-1]
    assert mega["doc_id"] == "mega" and mega["spans"] == [] and mega["n_spans"] == 0
    assert mega["error"] == extracted["error"][1 + min(bad_chunks)].as_py()
    assert f"bogus{min(bad_chunks)}" in mega["error"]


def test_row_with_null_offset_is_not_split():
    """A row with a null offset, or a null span, has no order to split by:
    it stays one row with its spans as they came, beside a doc that is
    split, and the extract quarantines it as whole-doc extraction does."""
    rng = np.random.default_rng(0)
    null_offset = _doc(rng, 10)
    null_offset[3]["offset"] = None
    batch = pa.Table.from_pylist(
        [
            {"doc_id": "off", "source": "a", "spans": null_offset},
            {"doc_id": "mega", "source": "a", "spans": _doc(rng, 10)},
            {"doc_id": "span", "source": "a", "spans": _doc(rng, 9) + [None]},
        ],
        schema=INPUT_SCHEMA,
    )
    chunks = make_normalize_fn(NUM_PARTITIONS, 4)(batch)
    assert chunks["doc_id"].to_pylist() == ["off", "mega", "mega", "mega", "span"]
    assert chunks["n_salts"].to_pylist() == [1, 3, 3, 3, 1]
    assert chunks["spans"][0].as_py() == null_offset
    assert chunks["spans"][4].as_py() == batch["spans"][2].as_py()
    errors = merge_salted(ExtractActor()(chunks))["error"].to_pylist()
    assert errors[0].startswith("TypeError: ") and errors[1].startswith("TypeError: ")
    assert errors[2] == ""
