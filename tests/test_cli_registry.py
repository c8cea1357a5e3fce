"""CLI entry + per-source rules registry dispatch (G8 static form)."""

import json
import subprocess
import sys
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from goose_parser_ray.pipelines import build_extraction_pipeline
from goose_parser_ray.spans import DOCUMENTS_SCHEMA

REPO = Path(__file__).resolve().parents[1]

HTML = (
    "<h1> Title One </h1><article><p>pa</p><p>pb</p></article>"
    "<ul><li><b>x</b></li><li><b>y</b></li><li><b>x</b></li></ul><h2>Sub</h2>"
)


def _docs_table():
    rows = []
    for i, src in enumerate(["src-article", "src-listing", "src-other"]):
        rows.append(
            {
                "doc_id": f"d{i}",
                "source": src,
                "spans": [{"kind": "html", "text": HTML, "media_ref": "", "offset": 0}],
            }
        )
    schema = pa.schema(
        [
            ("doc_id", pa.string()),
            ("source", pa.string()),
            ("spans", DOCUMENTS_SCHEMA.field("spans").type),
        ]
    )
    return pa.Table.from_pylist(rows, schema=schema)


def test_registry_dispatch(ray_session):
    registry = json.loads((REPO / "fixtures" / "rules_registry.json").read_text())
    ds = ray.data.from_arrow(_docs_table())
    out = build_extraction_pipeline(
        ds, rules_registry=registry, num_partitions=2,
        salt_threshold=None, batch_size=8,
    ).to_pandas()
    by_doc = {
        r["doc_id"]: [s["text"] for s in r["spans"]] for _, r in out.iterrows()
    }
    assert by_doc["d0"] == ["Title One", "pa", "pb"]  # src-article plan
    assert by_doc["d1"] == ["x", "y"]  # src-listing grid + id dedup
    assert by_doc["d2"] == [" Title One ", "Sub"]  # default plan (no trim)
    assert (out["error"] != "").sum() == 0


def test_cli_end_to_end(ray_session, tmp_path):
    # CLI runs in a SUBPROCESS (owns its own Ray session) — the in-test
    # session is untouched
    inp = tmp_path / "documents.parquet"
    pq.write_table(_docs_table(), inp)
    outdir = tmp_path / "out"
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"collection": [{"name": "t", "scope": "h1"}]}))
    proc = subprocess.run(
        [
            sys.executable, "-m", "goose_parser_ray.run",
            "--input", str(inp), "--output", str(outdir),
            "--rules", str(rules), "--partitions", "2", "--waves", "1",
            "--num-cpus", "2",
        ],
        capture_output=True, text=True, cwd=REPO, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["processed"] == 2 and summary["rows"] == 3
    back = pq.read_table(str(outdir / "partition_id=0")) if (outdir / "partition_id=0").exists() else None
    assert (outdir / "_manifest").is_dir()


def test_cli_compact_mode(ray_session, tmp_path):
    """--compact runs the maintenance pass instead of an extraction and
    works without --input."""
    inp = tmp_path / "documents.parquet"
    pq.write_table(_docs_table(), inp)
    outdir = tmp_path / "out"
    proc = subprocess.run(
        [
            sys.executable, "-m", "goose_parser_ray.run",
            "--input", str(inp), "--output", str(outdir),
            "--partitions", "2", "--waves", "1",
            "--num-cpus", "2",
        ],
        capture_output=True, text=True, cwd=REPO, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    # fragment one partition so compaction has work
    pdir = outdir / "partition_id=0"
    files = sorted(pdir.glob("*.parquet"))
    tbl = pq.read_table([str(f) for f in files])
    for f in files:
        f.unlink()
    pq.write_table(tbl.slice(0, 1), pdir / "frag-0.parquet")
    pq.write_table(tbl.slice(1), pdir / "frag-1.parquet")

    proc = subprocess.run(
        [
            sys.executable, "-m", "goose_parser_ray.run",
            "--output", str(outdir), "--compact", "--num-cpus", "2",
        ],
        capture_output=True, text=True, cwd=REPO, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["compacted"] == 1
    assert len(list(pdir.glob("*.parquet"))) == 1


def test_query_cli_list_and_run(ray_session, capsys, tmp_path):
    from goose_parser_ray.query import main

    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "* agg_by_lang" in out and "  ann_ivf" in out

    rc = main(["agg_by_lang", "--sf-dir", "/root/testdata/sf0.001"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "agg_by_lang: 5 rows" in out

    dest = str(tmp_path / "out.parquet")
    rc = main(
        ["stump", "--sf-dir", "/root/testdata/sf0.001", "--out", dest]
    )
    assert rc == 0
    import pyarrow.parquet as pq

    assert pq.read_table(dest).num_rows == 1
