"""Ray pipeline tests: pipeline == oracle, salting round-trip identity,
poison quarantine, manifest resume (SURVEY.md §5.2-2/3, FIXTURES.md F6)."""

import logging
import shutil
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from goose_parser_ray.pipelines import build_extraction_pipeline, extract_corpus
from goose_parser_ray.sources.corpus import generate_corpus_table
from goose_parser_ray.spans import extract_document
from goose_parser_ray.state.manifest import Manifest


def seq(spans):
    return [(s["kind"], s["text"], s["media_ref"]) for s in spans]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory, ray_session):
    """40-doc corpus with mega-docs; oracle extractions computed single-
    process (the golden producer, FIXTURES.md F2)."""
    tmp = tmp_path_factory.mktemp("corpus")
    tbl = generate_corpus_table(40, seed=42, mega_doc_every=10, mega_spans=300)
    path = tmp / "documents.parquet"
    pq.write_table(tbl, path)
    oracle = {
        d: extract_document(d, s)
        for d, s in zip(tbl["doc_id"].to_pylist(), tbl["spans"].to_pylist())
    }
    return str(path), oracle


def test_pipeline_matches_oracle_with_salting(corpus, tmp_path):
    path, oracle = corpus
    extract_corpus(
        path, str(tmp_path / "out"), num_partitions=8, waves=1,
        salt_threshold=64, batch_size=16,
    )
    res = ray.data.read_parquet(str(tmp_path / "out")).to_pandas()
    assert len(res) == len(oracle)
    assert (res["error"] != "").sum() == 0
    for _, row in res.iterrows():
        assert seq(row["spans"]) == seq(oracle[row["doc_id"]]), row["doc_id"]
        # salting round-trip ≡ identity incl. offsets (SURVEY.md §7.6-3)
        assert [s["offset"] for s in row["spans"]] == list(
            range(len(row["spans"]))
        )


def test_salted_pipeline_returns_one_row_per_doc(corpus):
    # the chunks of each mega-doc merge in the slice that split them, so
    # the stream itself holds whole docs, with or without a sink
    path, oracle = corpus
    res = build_extraction_pipeline(
        ray.data.read_parquet(path), num_partitions=8, salt_threshold=64,
        batch_size=16,
    ).to_pandas()
    assert sorted(res["doc_id"]) == sorted(oracle)
    assert (res["n_salts"] == 1).all() and (res["error"] == "").all()
    for _, row in res.iterrows():
        assert seq(row["spans"]) == seq(oracle[row["doc_id"]]), row["doc_id"]
        assert [s["offset"] for s in row["spans"]] == list(
            range(len(row["spans"]))
        )


def test_pipeline_no_salting_fast_path(corpus):
    path, oracle = corpus
    ds = ray.data.read_parquet(path)
    out = build_extraction_pipeline(
        ds, num_partitions=8, salt_threshold=None, batch_size=16
    )
    res = out.to_pandas()
    for _, row in res.iterrows():
        assert seq(row["spans"]) == seq(oracle[row["doc_id"]])


def test_rules_mode_through_pipeline(corpus, tmp_path):
    path, _ = corpus
    rules = {"collection": [{"name": "heads", "scope": "h1", "type": "array"}]}
    extract_corpus(
        path, str(tmp_path / "out"), rules, num_partitions=4, waves=1,
        salt_threshold=64, batch_size=16,
    )
    res = ray.data.read_parquet(str(tmp_path / "out")).to_pandas()
    assert (res["error"] != "").sum() == 0
    assert len(res) == 40


@pytest.mark.parametrize("salt_threshold", [None, 4])
def test_poison_document_quarantine(ray_session, tmp_path, salt_threshold):
    """A doc with a bad span is quarantined whole (no spans, the error
    whole-doc extraction raises), whether or not it was salted: a salted
    doc whose chunk 1 of 3 fails keeps none of its good chunks' spans. A
    doc with a null offset (what ``coerce_spans_column`` makes of input
    without an offset child) is never split or reordered, so it is
    quarantined even in a slice that holds a salted doc."""
    import pyarrow as pa

    from goose_parser_ray.spans import DOCUMENTS_SCHEMA, extract_document

    long_bad = [
        {"kind": "text", "text": f"t{i}", "media_ref": "", "offset": i}
        for i in range(10)
    ]
    long_bad[7]["kind"] = "bogus"
    no_offset = [
        {"kind": "text", "text": f"u{i}", "media_ref": "", "offset": i}
        for i in range(5)
    ]
    no_offset[2]["offset"] = None
    rows = [
        {
            "doc_id": "ok-1",
            "spans": [{"kind": "html", "text": "<p>fine</p>", "media_ref": "", "offset": 0}],
        },
        {
            "doc_id": "bad-1",
            "spans": [{"kind": "no-such-kind", "text": "x", "media_ref": "", "offset": 0}],
        },
        {"doc_id": "bad-10", "spans": long_bad},
        {"doc_id": "no-offset", "spans": no_offset},
    ]
    tbl = pa.Table.from_pylist(rows, schema=DOCUMENTS_SCHEMA)
    ds = ray.data.from_arrow(tbl)
    out = build_extraction_pipeline(
        ds, num_partitions=2, salt_threshold=salt_threshold, batch_size=8
    ).to_pandas()
    assert len(out) == 4
    ok = out[out["doc_id"] == "ok-1"].iloc[0]
    bad = out[out["doc_id"] == "bad-1"].iloc[0]
    assert ok["error"] == "" and ok["n_spans"] == 1
    assert "no-such-kind" in bad["error"] and bad["n_spans"] == 0
    with pytest.raises(ValueError) as whole:
        extract_document("bad-10", long_bad)
    bad10 = out[out["doc_id"] == "bad-10"].iloc[0]
    assert bad10["error"] == f"ValueError: {whole.value}"
    assert bad10["n_spans"] == 0 and len(bad10["spans"]) == 0
    assert (bad10["salt"], bad10["n_salts"]) == (0, 1)
    with pytest.raises(TypeError) as whole:
        extract_document("no-offset", no_offset)
    bad_off = out[out["doc_id"] == "no-offset"].iloc[0]
    assert bad_off["error"] == f"TypeError: {whole.value}"
    assert bad_off["n_spans"] == 0 and (bad_off["salt"], bad_off["n_salts"]) == (0, 1)


def test_foreign_span_schema_coerced_at_ingest(ray_session):
    """Parquet written by another engine may carry the spans struct with
    alphabetized field order, int64 offsets, or a missing optional child —
    the normalize boundary must coerce by NAME, not crash on Arrow's
    order-sensitive struct cast."""
    import pyarrow as pa

    foreign = pa.struct(
        [("kind", pa.string()), ("offset", pa.int64()), ("text", pa.string())]
    )
    tbl = pa.table(
        {
            "doc_id": pa.array(["f-1", "f-2"], pa.string()),
            "spans": pa.array(
                [
                    [{"kind": "html", "offset": 0, "text": "<p>one</p>"}],
                    [
                        {"kind": "text", "offset": 0, "text": "alpha"},
                        {"kind": "text", "offset": 5, "text": "beta"},
                    ],
                ],
                type=pa.list_(foreign),
            ),
        }
    )
    ds = ray.data.from_arrow(tbl)
    out = build_extraction_pipeline(
        ds, num_partitions=2, salt_threshold=None, batch_size=8
    ).to_pandas()
    assert len(out) == 2
    assert (out["error"] == "").all()
    assert int(out.set_index("doc_id").loc["f-2", "n_spans"]) == 2


def test_extract_corpus_resume_exactness(corpus, tmp_path):
    path, oracle = corpus
    out_dir = tmp_path / "out"

    # full run
    s1 = extract_corpus(
        str(path), str(out_dir), num_partitions=8, waves=2,
        salt_threshold=64,
    )
    assert s1["processed"] == 8 and s1["rows"] == 40

    full = ray.data.read_parquet(str(out_dir)).to_pandas()
    ref = {r["doc_id"]: seq(r["spans"]) for _, r in full.iterrows()}

    # simulate a kill after 3 partitions: drop 5 outputs + manifests
    manifest = Manifest(str(out_dir))
    for pid in range(3, 8):
        shutil.rmtree(out_dir / f"partition_id={pid}", ignore_errors=True)
        (manifest.dir / f"partition-{pid:05d}.json").unlink()

    s2 = extract_corpus(
        str(path), str(out_dir), num_partitions=8, waves=2,
        salt_threshold=64,
    )
    assert s2["skipped"] == 3 and s2["processed"] == 5

    resumed = ray.data.read_parquet(str(out_dir)).to_pandas()
    assert len(resumed) == 40
    for _, r in resumed.iterrows():
        assert seq(r["spans"]) == ref[r["doc_id"]]
        assert seq(r["spans"]) == seq(oracle[r["doc_id"]])

    # third run: everything skipped
    s3 = extract_corpus(
        str(path), str(out_dir), num_partitions=8, waves=2,
        salt_threshold=64,
    )
    assert s3["skipped"] == 8 and s3["processed"] == 0

    # manifest carries lineage + metrics
    recs = manifest.records()
    assert len(recs) == 8
    assert all(r["rules_hash"] == "boilerplate" for r in recs)
    assert sum(r["row_count"] for r in recs) == 40
    assert all("wall_s" in r and "code_version" in r for r in recs)


def test_changed_rules_invalidate_manifest(corpus, tmp_path):
    path, _ = corpus
    out_dir = tmp_path / "out2"
    r1 = {"collection": [{"name": "h", "scope": "h1"}]}
    r2 = {"collection": [{"name": "h", "scope": "h2"}]}
    extract_corpus(str(path), str(out_dir), rules=r1, num_partitions=4,
                   waves=1, salt_threshold=None)
    s = extract_corpus(str(path), str(out_dir), rules=r2, num_partitions=4,
                       waves=1, salt_threshold=None)
    assert s["skipped"] == 0 and s["processed"] == 4


def test_extract_corpus_fragment_mode_resume(corpus, tmp_path, ray_session):
    """Fragment-aligned partitioning: partition = input shard file, resume
    pruning at the reader, output identical to the hash-mode semantics
    (same docs, same span sequences)."""
    path, oracle = corpus
    # shard the corpus into 4 fragment files
    tbl = pq.read_table(path)
    frag_dir = tmp_path / "frags"
    frag_dir.mkdir()
    per = (tbl.num_rows + 3) // 4
    for i in range(4):
        part = tbl.slice(i * per, per)
        if part.num_rows:
            pq.write_table(part, frag_dir / f"shard-{i:02d}.parquet")

    out_dir = tmp_path / "out_frag"
    s1 = extract_corpus(
        str(frag_dir), str(out_dir), waves=2, salt_threshold=64,
        partition_mode="fragment",
    )
    assert s1["processed"] == 4 and s1["rows"] == 40 and s1["errors"] == 0

    full = ray.data.read_parquet(str(out_dir)).to_pandas()
    assert len(full) == 40
    for _, r in full.iterrows():
        assert seq(r["spans"]) == seq(oracle[r["doc_id"]])

    # kill two partitions; rerun must skip 2, reprocess 2, byte-same spans
    manifest = Manifest(str(out_dir))
    for pid in (1, 3):
        shutil.rmtree(out_dir / f"partition_id={pid}", ignore_errors=True)
        (manifest.dir / f"partition-{pid:05d}.json").unlink()
    s2 = extract_corpus(
        str(frag_dir), str(out_dir), waves=2, salt_threshold=64,
        partition_mode="fragment",
    )
    assert s2["skipped"] == 2 and s2["processed"] == 2
    resumed = ray.data.read_parquet(str(out_dir)).to_pandas()
    assert len(resumed) == 40
    for _, r in resumed.iterrows():
        assert seq(r["spans"]) == seq(oracle[r["doc_id"]])
    # per-partition row counts recorded via streamed metrics
    assert sum(r["row_count"] for r in manifest.records()) == 40


def test_extract_corpus_releases_its_actors(corpus, tmp_path, ray_session):
    """No actor started by extract_corpus outlives the call, even when the
    caller never runs the cyclic GC: a leftover pool actor keeps its CPU,
    and the next job waits until the raylet requests a collection."""
    import gc
    import time

    def cpus_free_within(want: float, timeout_s: float = 5.0) -> float:
        deadline = time.monotonic() + timeout_s
        free = ray.available_resources().get("CPU", 0.0)
        while free < want and time.monotonic() < deadline:
            time.sleep(0.1)
            free = ray.available_resources().get("CPU", 0.0)
        return free

    path, _ = corpus
    tbl = pq.read_table(path)
    frag_dir = tmp_path / "frags"
    frag_dir.mkdir()
    for i in range(4):
        pq.write_table(tbl.slice(i * 10, 10), frag_dir / f"shard-{i:02d}.parquet")

    gc.collect()  # leftovers of earlier tests are not this test's subject
    before = cpus_free_within(ray.cluster_resources()["CPU"])
    gc.disable()
    try:
        s = extract_corpus(
            str(frag_dir), str(tmp_path / "out"), waves=2, salt_threshold=64,
            partition_mode="fragment",
        )
        assert s["processed"] == 4 and s["rows"] == 40
        assert s["read_blocks"] == [4, 4]  # two per pool slot, each wave
        assert cpus_free_within(before) == before
    finally:
        gc.enable()


class _PlanLog(logging.Handler):
    """Collects the physical plan of every Ray Data execution, as logged on
    its "Execution plan of Dataset ..." line."""

    def __init__(self) -> None:
        super().__init__(logging.INFO)
        self.plans: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        msg = record.getMessage()
        if msg.startswith("Execution plan of Dataset"):
            self.plans.append(msg.split(": ", 1)[1])


@pytest.mark.parametrize("mode", ["fragment", "hash"])
def test_default_wave_runs_as_one_operator(corpus, tmp_path, mode):
    """With no concurrency cap, every wave is one physical operator: each
    task reads a block, extracts it and writes it without handing it on."""
    path, _ = corpus
    tbl = pq.read_table(path)
    frag_dir = tmp_path / "frags"
    frag_dir.mkdir()
    for i in range(8):
        pq.write_table(tbl.slice(i * 5, 5), frag_dir / f"shard-{i:02d}.parquet")

    log = _PlanLog()
    logger = logging.getLogger("ray.data._internal.execution.streaming_executor")
    level = logger.level
    logger.addHandler(log)
    logger.setLevel(logging.INFO)
    try:
        s = extract_corpus(
            str(frag_dir), str(tmp_path / "out"), num_partitions=8, waves=2,
            salt_threshold=64, partition_mode=mode,
        )
    finally:
        logger.removeHandler(log)
        logger.setLevel(level)
    assert s["processed"] == 8 and s["rows"] == 40
    assert len(log.plans) == 2, log.plans  # one execution per wave
    for plan in log.plans:
        source, *ops = plan.split(" -> ")
        assert source == "InputDataBuffer[Input]", plan
        assert len(ops) == 1, plan
        assert ops[0].startswith("TaskPoolMapOperator[ReadParquet->"), plan
        assert ops[0].endswith("->Write]"), plan


def test_cached_plans_never_go_stale(ray_session):
    """Extract workers keep their compiled plans across jobs; each job in a
    session must still run with exactly its own rules, registry and
    boilerplate mode, whatever plans its workers compiled before."""
    from goose_parser_ray.rules import compile_rules
    from goose_parser_ray.spans import DOCUMENTS_SCHEMA

    heads = {"collection": [{"name": "heads", "scope": "h1", "type": "array"}]}
    paras = {"collection": [{"name": "paras", "scope": "p", "type": "array"}]}
    rows = [
        {
            "doc_id": f"d{i}",
            "source": "site",
            "spans": [{
                "kind": "html", "media_ref": "", "offset": 0,
                "text": f"<html><body><nav><a href='/'>home</a> | menu</nav>"
                f"<h1>Heading {i}</h1><p>First paragraph of document {i}, "
                f"long enough to read as the main content of the page.</p>"
                f"<p>Second paragraph {i} with more words in it.</p>"
                f"</body></html>",
            }],
        }
        for i in range(32)
    ]
    schema = DOCUMENTS_SCHEMA.append(pa.field("source", pa.string()))
    tbl = pa.Table.from_pylist(rows, schema=schema)
    blocks = [tbl.slice(i, 4) for i in range(0, len(rows), 4)]
    jobs = [  # (rules, strip_boilerplate, rules_registry)
        (None, True, {"site": heads}),
        (None, True, None),
        (paras, True, None),
        (None, False, None),
        (None, True, {"site": paras}),
        (None, True, {"site": heads}),
    ]
    expected = []
    for rules, strip, registry in jobs:
        tree = (registry or {}).get("site", rules)
        plan = compile_rules(tree) if tree is not None else None
        expected.append({
            r["doc_id"]: seq(extract_document(r["doc_id"], r["spans"], plan, strip))
            for r in rows
        })
    # every job differs from the one before it, so a stale plan shows
    assert all(a != b for a, b in zip(expected, expected[1:]))
    for (rules, strip, registry), want in zip(jobs, expected):
        out = build_extraction_pipeline(
            ray.data.from_arrow(blocks), rules, rules_registry=registry,
            strip_boilerplate=strip, num_partitions=2, batch_size=4,
        ).to_pandas()
        got = {r["doc_id"]: seq(r["spans"]) for _, r in out.iterrows()}
        assert got == want, (rules, strip, registry)


def test_read_documents_jsonl_csv_roundtrip(ray_session, tmp_path):
    """read_documents: JSONL and CSV ingest paths must yield the same rows
    as the parquet scale path, with format inference from the extension
    and column pruning applied post-parse."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from goose_parser_ray.sources.io import read_documents

    df = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": ["alpha beta", "gamma", "delta epsilon zeta"],
            "lang": ["en", "de", "en"],
        }
    )
    pq_path = str(tmp_path / "docs.parquet")
    jl_path = str(tmp_path / "docs.jsonl")
    csv_path = str(tmp_path / "docs.csv")
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), pq_path)
    df.to_json(jl_path, orient="records", lines=True)
    df.to_csv(csv_path, index=False)

    base = (
        read_documents(pq_path, columns=["doc_id", "text"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    import pyarrow.feather as feather

    fe_path = str(tmp_path / "docs.feather")
    ipc_path = str(tmp_path / "docs.arrow")
    feather.write_feather(
        pa.Table.from_pandas(df, preserve_index=False), fe_path
    )
    with pa.OSFile(ipc_path, "wb") as f:
        with pa.ipc.new_stream(
            f, pa.Table.from_pandas(df, preserve_index=False).schema
        ) as w:
            w.write_table(pa.Table.from_pandas(df, preserve_index=False))

    for p in (jl_path, csv_path, fe_path, ipc_path):
        got = (
            read_documents(p, columns=["doc_id", "text"])
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, base)

    import pytest

    # avro became a REAL format (sources/avromini.py) — the unknown-format
    # rejection needs a name that stays unknown
    with pytest.raises(ValueError):
        read_documents(pq_path, fmt="xlsx")


def test_compact_partitions_preserves_rows_and_resume(corpus, tmp_path):
    """Compaction must (a) reduce files to 1 per partition, (b) change no
    row, (c) keep the manifest valid so a subsequent run skips everything,
    and (d) be idempotent."""
    from goose_parser_ray.pipelines import compact_partitions

    path, _ = corpus
    out_dir = tmp_path / "out"
    extract_corpus(
        str(path), str(out_dir), num_partitions=6, waves=3,
        salt_threshold=64,
    )
    before = ray.data.read_parquet(str(out_dir)).to_pandas()

    # fabricate the fragmented state a long multi-task run leaves behind:
    # split every partition file into two small ones
    for pdir in out_dir.glob("partition_id=*"):
        files = sorted(pdir.glob("*.parquet"))
        tbl = pq.read_table([str(f) for f in files])
        for f in files:
            f.unlink()
        half = max(1, tbl.num_rows // 2)
        pq.write_table(tbl.slice(0, half), pdir / "frag-0.parquet")
        pq.write_table(tbl.slice(half), pdir / "frag-1.parquet")
    n_files_before = len(list(out_dir.glob("partition_id=*/*.parquet")))
    assert n_files_before == 12

    s = compact_partitions(str(out_dir))
    assert s["compacted"] > 0 and s["files_after"] <= s["files_before"]
    assert len(list(out_dir.glob("partition_id=*/*.parquet"))) == 6

    after = ray.data.read_parquet(str(out_dir)).to_pandas()
    key = lambda df: df.sort_values("doc_id").reset_index(drop=True)  # noqa: E731
    b, a = key(before), key(after)
    assert list(a["doc_id"]) == list(b["doc_id"])
    assert [seq(s_) for s_ in a["spans"]] == [seq(s_) for s_ in b["spans"]]

    # manifest still complete: resume skips all partitions
    s2 = extract_corpus(
        str(path), str(out_dir), num_partitions=6, waves=3,
        salt_threshold=64,
    )
    assert s2["skipped"] == 6 and s2["processed"] == 0

    # idempotent: second compaction is a no-op
    s3 = compact_partitions(str(out_dir))
    assert s3["compacted"] == 0 and s3["skipped"] == 6

    # sorted-within-partition rewrite (merge-join-friendly layout): re-frag
    # then compact with sort_within — every output file holds rows sorted
    # by doc_id, rows unchanged, manifest still complete
    for pdir in out_dir.glob("partition_id=*"):
        files = sorted(pdir.glob("*.parquet"))
        # ParquetFile.read(): no path-based hive inference (pq.read_table
        # would re-add a dictionary partition_id from the dir name)
        tbl = pa.concat_tables([pq.ParquetFile(str(f)).read() for f in files])
        idx = list(range(tbl.num_rows))[::-1]  # reverse = unsorted
        tbl = tbl.take(idx)
        for f in files:
            f.unlink()
        half = max(1, tbl.num_rows // 2)
        pq.write_table(tbl.slice(0, half), pdir / "frag-0.parquet")
        pq.write_table(tbl.slice(half), pdir / "frag-1.parquet")
    s4 = compact_partitions(str(out_dir), sort_within=["doc_id"])
    assert s4["compacted"] == 6
    for pdir in out_dir.glob("partition_id=*"):
        for f in pdir.glob("*.parquet"):
            ids = pq.read_table(str(f), columns=["doc_id"])["doc_id"].to_pylist()
            assert ids == sorted(ids)
    sorted_after = ray.data.read_parquet(str(out_dir)).to_pandas()
    assert sorted(sorted_after["doc_id"]) == sorted(b["doc_id"])


def test_compact_verification_guard(corpus, tmp_path):
    """A manifest/data row-count mismatch must leave the partition's files
    untouched (and keep its record) rather than swap in bad data."""
    import json

    from goose_parser_ray.pipelines import compact_partitions

    path, _ = corpus
    out_dir = tmp_path / "out"
    extract_corpus(
        str(path), str(out_dir), num_partitions=2, waves=1,
        salt_threshold=64,
    )
    # precondition: every partition is down to one verified file, so the
    # corrupted partition 0 below is the only compaction candidate
    assert compact_partitions(str(out_dir))["files_after"] == 2
    # fragment partition 0 so it is a compaction candidate, then corrupt
    # its recorded row_count
    pdir = out_dir / "partition_id=0"
    files = sorted(pdir.glob("*.parquet"))
    tbl = pq.read_table([str(f) for f in files])
    for f in files:
        f.unlink()
    pq.write_table(tbl.slice(0, 1), pdir / "frag-0.parquet")
    pq.write_table(tbl.slice(1), pdir / "frag-1.parquet")
    rec_file = Manifest(str(out_dir)).dir / "partition-00000.json"
    rec = json.loads(rec_file.read_text())
    rec["row_count"] = rec["row_count"] + 999
    rec_file.write_text(json.dumps(rec))

    s = compact_partitions(str(out_dir))
    assert s["compacted"] == 0
    assert sorted(p.name for p in pdir.glob("*.parquet")) == [
        "frag-0.parquet", "frag-1.parquet",
    ]
    assert rec_file.exists()


def test_fragment_mode_incremental_shard_arrival(corpus, tmp_path, ray_session):
    """The production ingest loop: new input shards arrive, rerun processes
    ONLY the new work — and a shard that re-sorts the fragment list (so
    partition ids remap) invalidates exactly the shifted partitions via the
    manifest's source_file lineage instead of silently trusting stale
    outputs under the new mapping."""
    path, oracle = corpus
    tbl = pq.read_table(path)
    frag_dir = tmp_path / "frags"
    frag_dir.mkdir()
    per = 10
    for i in range(3):  # shards 00/01/02 = docs 0..29
        pq.write_table(tbl.slice(i * per, per), frag_dir / f"shard-{i:02d}.parquet")

    out_dir = tmp_path / "out"
    s1 = extract_corpus(
        str(frag_dir), str(out_dir), waves=1, salt_threshold=64,
        partition_mode="fragment",
    )
    assert s1["processed"] == 3 and s1["rows"] == 30

    # append-at-end arrival: shard-03 sorts last, ids 0-2 stay stable
    pq.write_table(tbl.slice(3 * per, per), frag_dir / "shard-03.parquet")
    s2 = extract_corpus(
        str(frag_dir), str(out_dir), waves=1, salt_threshold=64,
        partition_mode="fragment",
    )
    assert s2["skipped"] == 3 and s2["processed"] == 1 and s2["rows"] == 10
    full = ray.data.read_parquet(str(out_dir)).to_pandas()
    assert len(full) == 40
    for _, r in full.iterrows():
        assert seq(r["spans"]) == seq(oracle[r["doc_id"]])

    # mid-sort insert: "shard-01a" lands between 01 and 02, remapping ids
    # 2→3 and 3→4. The shifted partitions must reprocess (source mismatch),
    # the stable prefix must still skip, and the result must stay exact.
    sub = tbl.slice(0, 0)  # empty shard exercises the empty-commit path too
    pq.write_table(sub, frag_dir / "shard-01a.parquet")
    s3 = extract_corpus(
        str(frag_dir), str(out_dir), waves=1, salt_threshold=64,
        partition_mode="fragment",
    )
    assert s3["skipped"] == 2  # shard-00, shard-01 keep their ids
    assert s3["processed"] == 3  # shard-01a (new) + shifted 02, 03
    final = ray.data.read_parquet(str(out_dir)).to_pandas()
    assert len(final) == 40
    for _, r in final.iterrows():
        assert seq(r["spans"]) == seq(oracle[r["doc_id"]])

    # re-uploaded shard: same filename, different bytes — size lineage must
    # invalidate exactly that partition
    pq.write_table(
        pa.concat_tables([tbl.slice(0, per), tbl.slice(0, 1)]),
        frag_dir / "shard-00.parquet",
    )
    s4 = extract_corpus(
        str(frag_dir), str(out_dir), waves=1, salt_threshold=64,
        partition_mode="fragment",
    )
    assert s4["skipped"] == 4 and s4["processed"] == 1
    assert s4["rows"] == 11  # the re-uploaded shard's new content


def test_error_budget_trips_then_resume_completes(ray_session, tmp_path):
    """A rule plan that quarantines most docs must fail fast with
    ErrorBudgetExceeded after a committed wave (not burn the whole corpus);
    committed partitions stay manifested and a budget-less rerun resumes."""
    import pyarrow as pa

    from goose_parser_ray.pipelines import ErrorBudgetExceeded
    from goose_parser_ray.spans import DOCUMENTS_SCHEMA

    rows = []
    for i in range(40):
        kind = "html" if i % 4 == 0 else "no-such-kind"  # 75% poison
        rows.append(
            {
                "doc_id": f"d-{i:03d}",
                "spans": [
                    {"kind": kind, "text": "<p>x</p>", "media_ref": "", "offset": 0}
                ],
            }
        )
    tbl = pa.Table.from_pylist(rows, schema=DOCUMENTS_SCHEMA)
    src = tmp_path / "documents.parquet"
    pq.write_table(tbl, src)

    out_dir = tmp_path / "out"
    with pytest.raises(ErrorBudgetExceeded) as exc:
        extract_corpus(
            str(src), str(out_dir), num_partitions=8, waves=4,
            salt_threshold=None,
            max_error_fraction=0.5,
        )
    tripped = exc.value.summary
    assert 0 < tripped["processed"] < 8  # failed fast, not at the end
    assert tripped["errors"] > 0.5 * tripped["rows"]

    # unchanged rerun without a budget resumes from the committed waves
    s2 = extract_corpus(
        str(src), str(out_dir), num_partitions=8, waves=4,
        salt_threshold=None,
    )
    assert s2["skipped"] == tripped["processed"]
    assert s2["skipped"] + s2["processed"] == 8
    full = ray.data.read_parquet(str(out_dir)).to_pandas()
    assert len(full) == 40
    assert (full["error"] != "").sum() == 30  # quarantined, never dropped
