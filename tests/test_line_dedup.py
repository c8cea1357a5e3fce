"""line_dedup edge semantics (full DuckDB parity is covered by the oracle
sweep): cross-doc segments are removed everywhere, within-doc repeats
survive, a fully-duplicated doc comes back as an empty string."""

import pyarrow as pa
import pyarrow.parquet as pq


def _run(tmp_path, texts):
    from goose_parser_ray.queries import q_line_dedup

    t = pa.Table.from_pydict(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts),
            "lang": pa.array(["en"] * len(texts)),
            "source": pa.array(["s"] * len(texts)),
            "n_chars": pa.array([len(x) for x in texts], pa.int64()),
        }
    )
    pq.write_table(t, tmp_path / "documents.parquet")
    return (
        q_line_dedup(str(tmp_path))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def test_cross_doc_segment_removed_within_doc_repeat_kept(
    ray_session, tmp_path
):
    shared = "a b c d e f g h"  # exactly one 8-word segment
    texts = [
        shared + " tail1 x y z q r s t",  # shared seg + unique seg
        shared + " tail2 u v w m n o p",  # shared seg + unique seg
        # within-doc repeat only (one doc): both copies kept
        "r1 r2 r3 r4 r5 r6 r7 r8 r1 r2 r3 r4 r5 r6 r7 r8",
    ]
    out = _run(tmp_path, texts)
    assert out["n_segs"].tolist() == [2, 2, 2]
    assert out["n_removed"].tolist() == [1, 1, 0]
    assert out["clean_text"][0] == "tail1 x y z q r s t"
    assert out["clean_text"][1] == "tail2 u v w m n o p"
    assert out["clean_text"][2] == texts[2]


def test_fully_duplicated_doc_rewrites_to_empty(ray_session, tmp_path):
    dup = "a b c d e f g h i j k l m n o p"
    out = _run(tmp_path, [dup, dup, "solo doc here"])
    assert out["clean_text"][0] == ""
    assert out["clean_text"][1] == ""
    assert out["n_removed"].tolist() == [2, 2, 0]
    assert out["clean_text"][2] == "solo doc here"


def test_output_invariant_to_bucket_count(ray_session, tmp_path, monkeypatch):
    """Both shuffles only partition work: the rewritten docs are identical
    whatever bucket count ``num_shuffle_buckets`` hands the query."""
    from goose_parser_ray.functions import dedup

    shared = "a b c d e f g h"
    texts = [f"{shared} doc {i} " + " ".join(f"w{i}_{j}" for j in range(20))
             for i in range(30)]
    texts += ["solo doc here", texts[3]]
    outs = []
    for nb in (1, 4, 64):
        monkeypatch.setattr(dedup, "num_shuffle_buckets", lambda n, nb=nb: nb)
        outs.append(_run(tmp_path, texts))
    for out in outs[1:]:
        assert out.equals(outs[0])
    assert outs[0]["n_removed"].sum() > 0
