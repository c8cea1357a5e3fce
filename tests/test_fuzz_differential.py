"""Seeded differential fuzz: the session's window-family queries vs DuckDB
on RANDOM small event/document tables (the check_oracle comparison only
exercises the fixed testdata distribution; these randomize cardinality,
ties, and value ranges)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import duckdb


def _mk_events(tmp_path, rng, n_users, n_rows):
    ts0 = pd.Timestamp("2024-05-01")
    # coarse tick grid on purpose: forces duplicate timestamps per user so
    # the (ts, event_id) tie-break is actually exercised
    ts = ts0 + pd.to_timedelta(
        rng.integers(0, n_rows // 2 + 1, n_rows) * 600, unit="s"
    )
    t = pa.Table.from_pydict(
        {
            "event_id": np.arange(n_rows, dtype=np.int64),
            "ts": pa.array(ts, pa.timestamp("us")),
            "user_id": rng.integers(0, n_users, n_rows).astype(np.int64),
            "event_type": rng.choice(
                ["view", "click", "purchase"], n_rows
            ),
            "value": np.round(rng.uniform(0, 400, n_rows), 2),
            "props": [""] * n_rows,
        }
    )
    pq.write_table(t, tmp_path / "events.parquet")


def _compare(ray_result, sql, tmp_path):
    got = ray_result.to_pandas() if hasattr(ray_result, "to_pandas") else (
        pd.DataFrame(ray_result.to_pydict())
    )
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM "
        f"'{tmp_path}/events.parquet'"
    )
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"'{tmp_path}/documents.parquet'"
    ) if (tmp_path / "documents.parquet").exists() else None
    want = con.execute(sql).fetchdf()
    cols = sorted(got.columns)
    assert sorted(want.columns) == cols
    g = got[cols].sort_values(cols).reset_index(drop=True)
    w = want[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)


def test_scd2_fuzz_vs_duckdb(ray_session, tmp_path):
    from goose_parser_ray.queries import SQL_SCD2_HISTORY, q_scd2_history

    for seed in (1, 7, 23):
        rng = np.random.default_rng(seed)
        d = tmp_path / f"s{seed}"
        d.mkdir()
        _mk_events(d, rng, n_users=9, n_rows=400)
        _compare(q_scd2_history(str(d)), SQL_SCD2_HISTORY, d)


def test_cusum_fuzz_vs_duckdb(ray_session, tmp_path):
    from goose_parser_ray.queries import (
        SQL_CUSUM_CHANGEPOINT,
        q_cusum_changepoint,
    )

    for seed in (3, 11):
        rng = np.random.default_rng(seed)
        d = tmp_path / f"c{seed}"
        d.mkdir()
        _mk_events(d, rng, n_users=6, n_rows=300)
        _compare(q_cusum_changepoint(str(d)), SQL_CUSUM_CHANGEPOINT, d)


def test_row_number_fuzz_vs_duckdb(ray_session, tmp_path):
    from goose_parser_ray.queries import (
        SQL_ROW_NUMBER_GLOBAL,
        q_row_number_global,
    )

    for seed in (5, 17):
        rng = np.random.default_rng(seed)
        d = tmp_path / f"r{seed}"
        d.mkdir()
        # sparse, clustered, non-contiguous ids
        ids = np.unique(rng.integers(0, 10_000_000, 700))
        t = pa.Table.from_pydict(
            {
                "doc_id": ids.astype(np.int64),
                "text": ["x"] * len(ids),
                "lang": ["en"] * len(ids),
                "source": ["s"] * len(ids),
                "n_chars": rng.integers(0, 500, len(ids)).astype(np.int64),
            }
        )
        pq.write_table(t, d / "documents.parquet")
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM "
            f"'{d}/documents.parquet'"
        )
        want = con.execute(SQL_ROW_NUMBER_GLOBAL).fetchdf()
        got = q_row_number_global(str(d)).to_pandas()
        cols = sorted(got.columns)
        g = got[cols].sort_values(cols).reset_index(drop=True)
        w = want[cols].sort_values(cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(g, w, check_dtype=False)


def test_line_dedup_fuzz_vs_duckdb(ray_session, tmp_path):
    """Random word-soup docs with heavy cross-doc segment collisions (tiny
    vocab, short segments) — fuzzes boundary cases the testdata can't:
    1-word docs, exact-multiple-of-8 lengths, identical docs."""
    from goose_parser_ray.queries import SQL_LINE_DEDUP, q_line_dedup

    vocab = ["a", "b", "c"]
    _mk_events(tmp_path, np.random.default_rng(0), 2, 4)  # _compare view
    for seed in (3, 11):
        rng = np.random.default_rng(seed)
        n = 40
        texts = []
        for i in range(n):
            k = int(rng.integers(1, 25))  # 1..24 words: partial/full segs
            texts.append(" ".join(rng.choice(vocab, k)))
        # force exact duplicates and an 8-multiple doc
        texts[0] = texts[1]
        texts[2] = " ".join(["a"] * 16)
        texts[3] = " ".join(["a"] * 16)
        t = pa.Table.from_pydict(
            {
                "doc_id": np.arange(n, dtype=np.int64),
                "text": texts,
                "lang": ["en"] * n,
                "source": ["s"] * n,
                "n_chars": np.array([len(x) for x in texts], np.int64),
            }
        )
        pq.write_table(t, tmp_path / "documents.parquet")
        _compare(q_line_dedup(str(tmp_path)), SQL_LINE_DEDUP, tmp_path)


def test_asof_join_fuzz_vs_duckdb(ray_session, tmp_path):
    """Random events with COARSE timestamps (many exact ties at the asof
    boundary), users with zero purchases, and duplicate (user, ts) right
    keys — the boundary cases the fixed testdata under-exercises."""
    from goose_parser_ray.queries import SQL_ASOF_JOIN, q_asof_join

    for seed in (5, 19):
        rng = np.random.default_rng(seed)
        _mk_events(tmp_path, rng, n_users=6, n_rows=300)
        _compare(q_asof_join(str(tmp_path)), SQL_ASOF_JOIN, tmp_path)


def test_window_distinct_fuzz_vs_duckdb(ray_session, tmp_path):
    from goose_parser_ray.queries import (
        SQL_WINDOW_DISTINCT_USERS,
        q_window_distinct_users,
    )

    for seed in (2, 13):
        rng = np.random.default_rng(seed)
        _mk_events(tmp_path, rng, n_users=9, n_rows=400)
        _compare(
            q_window_distinct_users(str(tmp_path)),
            SQL_WINDOW_DISTINCT_USERS,
            tmp_path,
        )


def test_media_pdf_fuzz_vs_duckdb(ray_session, tmp_path):
    """Adversarial doc text through the FULL PDF round-trip query: PDF
    string-escape characters (parens, backslashes), empty text, 1-word and
    exactly-12-word docs — the closed-form twin must still hash-match."""
    from goose_parser_ray.queries import SQL_MEDIA_PDF, q_media_pdf

    _mk_events(tmp_path, np.random.default_rng(0), 2, 4)  # _compare view
    vocab = ["plain", "(paren", "back\\slash", "))((", "x"]
    rng = np.random.default_rng(7)
    texts = [" ".join(rng.choice(vocab, int(rng.integers(1, 20)))) for _ in range(30)]
    texts[0] = ""  # empty doc
    texts[1] = "solo"
    texts[2] = " ".join(["w"] * 12)  # exact line boundary
    t = pa.Table.from_pydict(
        {
            "doc_id": np.arange(len(texts), dtype=np.int64),
            "text": texts,
            "lang": ["en"] * len(texts),
            "source": ["s"] * len(texts),
            "n_chars": np.array([len(x) for x in texts], np.int64),
        }
    )
    pq.write_table(t, tmp_path / "documents.parquet")
    _compare(q_media_pdf(str(tmp_path)), SQL_MEDIA_PDF, tmp_path)


def test_funnel_steps_fuzz_vs_duckdb(ray_session, tmp_path):
    from goose_parser_ray.queries import SQL_FUNNEL_STEPS, q_funnel_steps

    for seed in (3, 19):
        rng = np.random.default_rng(seed)
        _mk_events_typed(
            tmp_path, rng, n_users=25, n_rows=220,
            types=["signup", "click", "purchase", "view"],
        )
        _compare(q_funnel_steps(str(tmp_path)), SQL_FUNNEL_STEPS, tmp_path)


def test_pair_windows_fuzz_vs_duckdb(ray_session, tmp_path):
    from goose_parser_ray.queries import SQL_PAIR_WINDOWS, q_pair_windows

    for seed in (5, 29):
        rng = np.random.default_rng(seed)
        _mk_events_typed(
            tmp_path, rng, n_users=12, n_rows=180,
            types=["a", "b", "c"],
        )
        _compare(q_pair_windows(str(tmp_path)), SQL_PAIR_WINDOWS, tmp_path)


def test_rate_spikes_fuzz_vs_duckdb(ray_session, tmp_path):
    from goose_parser_ray.queries import SQL_RATE_SPIKES, q_rate_spikes

    for seed in (11,):
        rng = np.random.default_rng(seed)
        _mk_events_typed(
            tmp_path, rng, n_users=8, n_rows=300,
            types=["x", "y"], tick_s=40_000,  # spread across many days
        )
        _compare(q_rate_spikes(str(tmp_path)), SQL_RATE_SPIKES, tmp_path)


def test_markov_and_gap_hist_fuzz_vs_duckdb(ray_session, tmp_path):
    from goose_parser_ray.queries import (
        SQL_GAP_HIST,
        SQL_MARKOV_TRANSITIONS,
        q_gap_hist,
        q_markov_transitions,
    )

    for seed in (13, 41):
        rng = np.random.default_rng(seed)
        _mk_events_typed(
            tmp_path, rng, n_users=15, n_rows=250, types=["a", "b", "c", "d"]
        )
        _compare(
            q_markov_transitions(str(tmp_path)), SQL_MARKOV_TRANSITIONS, tmp_path
        )
        _compare(q_gap_hist(str(tmp_path)), SQL_GAP_HIST, tmp_path)


def _mk_events_typed(tmp_path, rng, n_users, n_rows, types, tick_s=600):
    ts0 = pd.Timestamp("2024-05-01")
    ts = ts0 + pd.to_timedelta(
        rng.integers(0, n_rows // 2 + 1, n_rows) * tick_s, unit="s"
    )
    t = pa.Table.from_pydict(
        {
            "event_id": np.arange(n_rows, dtype=np.int64),
            "ts": pa.array(ts, pa.timestamp("us")),
            "user_id": rng.integers(0, n_users, n_rows).astype(np.int64),
            "event_type": rng.choice(types, n_rows),
            "value": np.round(rng.uniform(0, 400, n_rows), 2),
            "props": [""] * n_rows,
        }
    )
    pq.write_table(t, tmp_path / "events.parquet")
