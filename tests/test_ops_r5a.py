"""Round-5 regression tests for ADVICE.md findings (no Ray needed)."""
import numpy as np
import pytest


# ---------------------------------------------------------------- CCL


def _mask(rows):
    return np.array(rows, dtype=bool)


class TestCCL8Connectivity:
    """ADVICE r4: expanded bounds + <= double-counted the diagonal
    tolerance, unioning runs across a 2-column gap."""

    def test_two_column_gap_is_two_blobs(self):
        from goose_parser_ray.queries.image_ops import ccl_blob_stats

        # row0 cols 0-1, row1 cols 3-4: one background column (col 2)
        # strictly separates their 8-neighborhoods -> two blobs.
        n, mx, tot = ccl_blob_stats(_mask([[1, 1, 0, 0, 0],
                                           [0, 0, 0, 1, 1]]))
        assert (n, mx, tot) == (2, 2, 4)

    def test_diagonal_touch_is_one_blob(self):
        from goose_parser_ray.queries.image_ops import ccl_blob_stats

        # row0 cols 0-1, row1 cols 2-3: corners touch diagonally.
        n, mx, tot = ccl_blob_stats(_mask([[1, 1, 0, 0],
                                           [0, 0, 1, 1]]))
        assert (n, mx, tot) == (1, 4, 4)

    def test_vertical_overlap_one_blob(self):
        from goose_parser_ray.queries.image_ops import ccl_blob_stats

        n, mx, tot = ccl_blob_stats(_mask([[0, 1, 1, 0],
                                           [0, 0, 1, 1]]))
        assert (n, mx, tot) == (1, 4, 4)

    def test_same_row_separate_runs(self):
        from goose_parser_ray.queries.image_ops import ccl_blob_stats

        n, mx, tot = ccl_blob_stats(_mask([[1, 0, 1]]))
        assert (n, mx, tot) == (2, 1, 2)

    def test_u_shape_merges_late(self):
        from goose_parser_ray.queries.image_ops import ccl_blob_stats

        # two vertical arms joined by a bottom bar -> one blob
        n, mx, tot = ccl_blob_stats(_mask([[1, 0, 0, 1],
                                           [1, 0, 0, 1],
                                           [1, 1, 1, 1]]))
        assert (n, mx, tot) == (1, 8, 8)

    def test_empty_mask(self):
        from goose_parser_ray.queries.image_ops import ccl_blob_stats

        assert ccl_blob_stats(_mask([[0, 0], [0, 0]])) == (0, 0, 0)

    def test_checkerboard_is_one_blob(self):
        from goose_parser_ray.queries.image_ops import ccl_blob_stats

        # 8-connectivity joins all diagonal neighbors
        n, mx, tot = ccl_blob_stats(_mask([[1, 0, 1],
                                           [0, 1, 0],
                                           [1, 0, 1]]))
        assert (n, mx, tot) == (1, 5, 5)


# ---------------------------------------------------------- varbyte


class TestVarbyteOverflow:
    """ADVICE r4: a stream whose terminator payload pushes the value past
    2^64 must raise ValueError per the documented contract, not leak an
    OverflowError out of numpy."""

    def test_64bit_overflow_raises_valueerror(self):
        from goose_parser_ray.functions.varbyte import decode_varbyte

        bad = bytes([0x01] * 9 + [0x81])
        with pytest.raises(ValueError):
            decode_varbyte(bad)

    def test_max_uint63_roundtrip(self):
        from goose_parser_ray.functions.varbyte import (
            decode_varbyte,
            encode_varbyte,
        )

        vals = [0, 1, 127, 128, 2**32, 2**63 - 1]
        assert decode_varbyte(encode_varbyte(vals)).tolist() == vals

    def test_truncated_stream_raises(self):
        from goose_parser_ray.functions.varbyte import decode_varbyte

        with pytest.raises(ValueError):
            decode_varbyte(bytes([0x01, 0x02]))  # no terminator byte


# ------------------------------------------------- data_pipeline resume


class TestDataPipelineCheckpoint:
    """r5 VERDICT item 1: the deduped stage output is checkpointed to
    parquet (not pinned in the object store); a run that dies between the
    checkpoint and the tail resumes from the _SUCCESS-marked directory
    without recomputing the gate+dedup head."""

    SF = "/root/testdata/sf0.001"

    def _run(self, ckpt):
        from goose_parser_ray.queries.text_media import q_data_pipeline

        return (
            q_data_pipeline(self.SF, checkpoint_dir=ckpt)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )

    def test_resume_reuses_checkpoint(self, ray_session, tmp_path):
        import os

        ckpt = str(tmp_path / "ckpt")
        a = self._run(ckpt)
        assert os.path.exists(os.path.join(ckpt, "_SUCCESS"))
        files = sorted(os.listdir(ckpt))
        mtimes = {
            f: os.path.getmtime(os.path.join(ckpt, f)) for f in files
        }
        # second run = the "resumed" run after a kill between checkpoint
        # and tail: identical output, checkpoint files untouched
        b = self._run(ckpt)
        assert sorted(os.listdir(ckpt)) == files
        assert {
            f: os.path.getmtime(os.path.join(ckpt, f)) for f in files
        } == mtimes
        import pandas as pd

        pd.testing.assert_frame_equal(a, b)

    def test_torn_checkpoint_recomputes(self, ray_session, tmp_path):
        import os

        ckpt = str(tmp_path / "ckpt2")
        a = self._run(ckpt)
        # a crash BEFORE the _SUCCESS marker: data files present but no
        # commit marker -> the next run must rebuild, then agree
        os.remove(os.path.join(ckpt, "_SUCCESS"))
        b = self._run(ckpt)
        assert os.path.exists(os.path.join(ckpt, "_SUCCESS"))
        import pandas as pd

        pd.testing.assert_frame_equal(a, b)


# ---------------------------------------------------- kmeans pin modes


def test_kmeans_pin_parity(ray_session):
    """r5 VERDICT item 2: pin=True (object-store pin) and pin=False (lazy
    per-round re-scan) must produce identical centroids, counts, and
    inertia history — same seed, same input."""
    import ray

    from goose_parser_ray.functions.similarity import kmeans_distributed

    ds = ray.data.read_parquet(
        "/root/testdata/sf0.01/embeddings.parquet", columns=["embedding"]
    )
    outs = []
    for pin in (True, False):
        cent, counts, hist = kmeans_distributed(
            ds, "embedding", k=4, max_iters=4, seed=11, pin=pin
        )
        outs.append((cent, counts, hist))
    np.testing.assert_allclose(outs[0][0], outs[1][0], rtol=0, atol=0)
    assert outs[0][1].tolist() == outs[1][1].tolist()
    assert outs[0][2] == outs[1][2]
