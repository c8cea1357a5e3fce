"""Quality / statistics surface round 4b: Benford digit audit, Flesch
readability, autocorrelation, compressibility gate, WordPiece encoding.

Same parity discipline as the rest of the surface (package docstring):
integer fixed-point everywhere, any unavoidable float op mirrored op-for-op
on both sides, divisions only over non-negative integers (DuckDB ``//``
truncates toward zero on negatives while Python floors — so negatives never
meet a division here; the ACF query emits exact numerator/denominator pairs
instead of dividing)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from goose_parser_ray.functions.relational import keyed_aggregate
from goose_parser_ray.queries._shared import _cents, _read


# ---------------------------------------------------------------------------
# Benford first-digit audit (fraud/data-quality screen)
# ---------------------------------------------------------------------------


def q_benford_digits(sf_dir: str):
    """Benford's-law first-digit audit over lineitem prices,
    ORACLE-CHECKED: observed count and e6 share per leading digit next to
    the Benford expectation ``log10(1 + 1/d)`` (the classic anomaly screen
    for machine-generated or tampered numeric columns). Map-side 9-row
    digit partials; the exchange carries one row per (batch, digit); the
    one float op (log10) is mirrored FLOOR-for-FLOOR in the twin."""
    import math

    ds = _read(sf_dir, "lineitem", ["l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = _cents(t["l_extendedprice"])
        digit = pc.cast(
            pc.utf8_slice_codeunits(pc.cast(cents, pa.string()), 0, 1),
            pa.int64(),
        )
        d = digit.to_numpy(zero_copy_only=False)
        counts = np.bincount(d, minlength=10)
        keep = np.nonzero(counts)[0]
        return pa.Table.from_pydict(
            {
                "digit": keep.astype(np.int64),
                "n_obs": counts[keep].astype(np.int64),
            }
        )

    g = keyed_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"), ["digit"],
        {"n_obs": ("n_obs", "sum")},
    )

    def finalize(t: pa.Table) -> pa.Table:
        digit = t["digit"].to_numpy(zero_copy_only=False)
        n_obs = t["n_obs"].to_numpy(zero_copy_only=False)
        tot = int(n_obs.sum())
        share = (n_obs * 1_000_000) // tot
        benford = np.array(
            [math.floor(1_000_000 * math.log10(1 + 1.0 / d)) for d in digit],
            dtype=np.int64,
        )
        order = np.argsort(digit)
        return pa.Table.from_pydict(
            {
                "digit": digit[order],
                "n_obs": n_obs[order],
                "share_e6": share[order].astype(np.int64),
                "benford_e6": benford[order],
            }
        )

    # ≤9 rows past the aggregate — the final fold runs in one block
    return g.repartition(1).map_batches(finalize, batch_format="pyarrow")


SQL_BENFORD_DIGITS = """
WITH c AS (
  SELECT CAST(ROUND(100 * l_extendedprice) AS BIGINT) AS cents FROM lineitem
), d AS (
  SELECT CAST(substr(CAST(cents AS VARCHAR), 1, 1) AS BIGINT) AS digit FROM c
), g AS (
  SELECT digit, CAST(COUNT(*) AS BIGINT) AS n_obs FROM d GROUP BY digit
)
SELECT digit, n_obs,
       CAST(n_obs * 1000000 // (SELECT SUM(n_obs) FROM g) AS BIGINT) AS share_e6,
       CAST(FLOOR(1000000 * log10(1 + 1.0 / digit)) AS BIGINT) AS benford_e6
FROM g ORDER BY digit
"""


# ---------------------------------------------------------------------------
# Flesch reading ease (readability quality signal)
# ---------------------------------------------------------------------------


def q_flesch_reading(sf_dir: str):
    """Flesch reading-ease per document, ORACLE-CHECKED at e4 fixed point:
    ``206.835 − 1.015·(words/sentences) − 84.6·(syllables/words)`` with the
    standard heuristics (sentences = punctuation runs, syllables = vowel
    runs incl. y) — the readability member of the quality-signal family
    next to Gopher/C4. Pure vectorized RE2 counting, map-only."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def score(t: pa.Table) -> pa.Table:
        def runs(pat: str) -> np.ndarray:
            return (
                pc.count_substring_regex(t["text"], pattern=pat)
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
            )

        words = np.maximum(runs(r"\S+"), 1)
        sents = np.maximum(runs(r"[.!?]+"), 1)
        syll = np.maximum(runs(r"[aeiouyAEIOUY]+"), 1)
        flesch_e4 = (
            2_068_350 - (10_150 * words) // sents - (846_000 * syll) // words
        )
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "words": words,
                "sentences": sents,
                "syllables": syll,
                "flesch_e4": flesch_e4,
            }
        )

    return ds.map_batches(score, batch_format="pyarrow").sort("doc_id")


SQL_FLESCH_READING = r"""
WITH s AS (
  SELECT doc_id,
    GREATEST(CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT), 1) AS words,
    GREATEST(CAST(length(regexp_extract_all(text, '[.!?]+')) AS BIGINT), 1) AS sentences,
    GREATEST(CAST(length(regexp_extract_all(text, '[aeiouyAEIOUY]+')) AS BIGINT), 1) AS syllables
  FROM documents
)
SELECT CAST(doc_id AS BIGINT) AS doc_id, words, sentences, syllables,
       CAST(2068350 - (10150 * words) // sentences
                    - (846000 * syllables) // words AS BIGINT) AS flesch_e4
FROM s ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# autocorrelation of the daily event volume (seasonality screen)
# ---------------------------------------------------------------------------

_ACF_MAX_LAG = 7


def q_acf_daily(sf_dir: str):
    """Autocorrelation of daily event counts at lags 1–7, ORACLE-CHECKED
    with EXACT integers: over the zero-filled day spine, emits per lag the
    centered cross-product numerator ``Σ(n·xₜ−S)(n·xₜ₊ₖ−S)`` and the
    variance denominator ``Σ(n·xₜ−S)²`` (both scaled by n² — no division,
    no floats; r_k = num/den for the reader). The weekly-seasonality screen
    a scheduling pipeline runs before trusting day-of-week mixes. Map-side
    day partials (day-domain-bounded exchange), final fold in one block."""
    ds = _read(sf_dir, "events", ["ts"])

    def days(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({"day": us // 86_400_000_000})

    g = keyed_aggregate(
        ds.map_batches(days, batch_format="pyarrow"), ["day"],
        {"x": ("day", "count")},
    )

    def finalize(t: pa.Table) -> pa.Table:
        day = t["day"].to_numpy(zero_copy_only=False)
        x = t["x"].to_numpy(zero_copy_only=False)
        d0, d1 = int(day.min()), int(day.max())
        spine = np.zeros(d1 - d0 + 1, dtype=np.int64)
        spine[day - d0] = x
        n = np.int64(len(spine))
        s = np.int64(spine.sum())
        cx = n * spine - s  # exact int64: n ≤ spine days, x ≤ events/day
        den = int((cx * cx).sum())
        lags = list(range(1, _ACF_MAX_LAG + 1))
        nums = [int((cx[:-k] * cx[k:]).sum()) for k in lags]
        return pa.Table.from_pydict(
            {
                "lag": np.array(lags, dtype=np.int64),
                "num": np.array(nums, dtype=np.int64),
                "den": np.full(len(lags), den, dtype=np.int64),
            }
        )

    # day-domain-bounded table → single-block exact fold
    return g.repartition(1).map_batches(finalize, batch_format="pyarrow")


SQL_ACF_DAILY = """
WITH c AS (
  SELECT (CAST(ts AS DATE) - DATE '1970-01-01') AS d,
         CAST(COUNT(*) AS BIGINT) AS x
  FROM events GROUP BY 1
), b AS (SELECT MIN(d) AS d0, MAX(d) AS d1 FROM c),
spine AS (
  SELECT unnest(generate_series((SELECT d0 FROM b), (SELECT d1 FROM b))) AS d
), s AS (
  SELECT spine.d, COALESCE(c.x, 0) AS x FROM spine LEFT JOIN c ON spine.d = c.d
), m AS (SELECT CAST(COUNT(*) AS BIGINT) AS n, CAST(SUM(x) AS BIGINT) AS sx FROM s),
z AS (SELECT d, (SELECT n FROM m) * x - (SELECT sx FROM m) AS cx FROM s)
SELECT CAST(g.k AS BIGINT) AS lag,
       CAST(SUM(z1.cx * z2.cx) AS BIGINT) AS num,
       (SELECT CAST(SUM(cx * cx) AS BIGINT) FROM z) AS den
FROM (SELECT unnest(generate_series(1, 7)) AS k) g, z z1, z z2
WHERE z2.d = z1.d + g.k
GROUP BY g.k ORDER BY lag
"""


# ---------------------------------------------------------------------------
# compressibility gate (zlib-ratio quality screen) — no SQL twin (zlib)
# ---------------------------------------------------------------------------


def q_zlib_gate(sf_dir: str):
    """Compression-ratio quality gate (rows-only — DuckDB has no zlib):
    per-document deflate ratio at fixed level 6; documents compressing too
    well are template/repetition junk, documents that barely compress are
    encoded noise — the cheap screen CCNet/RefinedWeb-style pipelines run
    before any model scoring. Deterministic (fixed level, single library),
    so the driver's two-run hash check holds; ``crc32`` doubles as a
    self-verifying payload checksum. Map-only; zlib runs at C speed."""
    import zlib

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def gate(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        texts = t["text"].to_pylist()
        raw_len: list[int] = []
        zlen: list[int] = []
        crc: list[int] = []
        for s in texts:
            b = s.encode("utf-8")
            raw_len.append(len(b))
            zlen.append(len(zlib.compress(b, 6)))
            crc.append(zlib.crc32(b))
        raw = np.array(raw_len, dtype=np.int64)
        z = np.array(zlen, dtype=np.int64)
        ratio_e4 = (z * 10_000) // np.maximum(raw, 1)
        keep = (ratio_e4 >= 2_000) & (ratio_e4 <= 9_000)
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "raw_len": raw,
                "zlib_len": z,
                "ratio_e4": ratio_e4.astype(np.int64),
                "crc32": np.array(crc, dtype=np.int64),
                "keep": keep,
            }
        )

    return ds.map_batches(gate, batch_format="pyarrow").sort("doc_id")


# ---------------------------------------------------------------------------
# WordPiece encoding (BERT tokenizer family), corpus-derived vocab
# ---------------------------------------------------------------------------

_WP_TOP_WORDS = 30


def q_wordpiece_encode(sf_dir: str):
    """WordPiece encoding with a corpus-derived vocab, ORACLE-CHECKED.

    Vocab = the corpus top-30 words (whole-word tokens; distributed
    wordcount, (n DESC, word ASC) tie-break) plus every observed char and
    char-bigram in start and ``##`` forms — the coverage floor that makes
    greedy longest-match-first segmentation closed-form: an in-vocab word
    is 1 piece, anything else ``ceil(len/2)`` (bigram steps + odd-tail
    char), which is exactly what the SQL twin states. The ENGINE runs the
    real greedy matcher (``functions/wordpiece.py``) — a segmentation bug
    (wrong ## handling, off-by-one cursor, missed longest match) changes
    the piece counts and breaks the hash. Vocab build is bounded-domain
    partials + one small groupby; encode is map-only with the vocab
    broadcast once in the plan closure."""
    from goose_parser_ray.functions.wordpiece import build_vocab, encode_word

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def words(t: pa.Table) -> pa.Table:
        flat = pc.list_flatten(
            pc.split_pattern_regex(pc.fill_null(t["text"], ""), pattern=r"\s+")
        )
        return pa.table({"word": flat.filter(pc.not_equal(flat, ""))})

    counts = keyed_aggregate(
        ds.map_batches(words, batch_format="pyarrow"), ["word"],
        {"n": ("word", "count")},
    )

    # ONE map over the aggregated word table emits both vocab ingredients
    # map-side (per-block top-30 candidates + the charset-bounded piece
    # set), so the whole vocab build costs a single exchange — the
    # sort().limit() + second distinct fold it replaces were two more
    # all-to-alls of pure fixed cost (measured ~1s at sf0.1/32 CPUs).
    def vocab_partial(t: pa.Table) -> pa.Table:
        import pandas as pd

        df = t.to_pandas()
        top = df.sort_values(["n", "word"], ascending=[False, True]).head(
            _WP_TOP_WORDS
        )
        pieces: set[str] = set()
        for w in df["word"]:
            pieces.update(w)
            pieces.update(w[i : i + 2] for i in range(len(w) - 1))
        return pa.Table.from_pydict(
            {
                "kind": ["top"] * len(top) + ["piece"] * len(pieces),
                "key": top["word"].tolist() + sorted(pieces),
                "n": top["n"].tolist() + [0] * len(pieces),
            }
        )

    rows = counts.map_batches(vocab_partial, batch_format="pyarrow").take_all()
    # ≤ blocks × (30 + |charset|²) tiny rows — driver merge is exact
    # because `counts` rows are already globally unique per word
    cand = sorted(
        (r for r in rows if r["kind"] == "top"),
        key=lambda r: (-int(r["n"]), r["key"]),
    )
    top_words = [r["key"] for r in cand[:_WP_TOP_WORDS]]
    observed = {r["key"] for r in rows if r["kind"] == "piece"}
    chars = {p for p in observed if len(p) == 1}
    bigrams = {p for p in observed if len(p) == 2}
    vocab = build_vocab(top_words, chars, bigrams)
    whole = set(top_words)

    def encode(t: pa.Table) -> pa.Table:
        # the greedy matcher runs ONCE per unique word per batch (natural
        # text repeats words heavily); per-doc totals are reduceat segment
        # sums over the inverse index — measured 1.9s → ~0.6s at sf0.1
        ids = t["doc_id"].to_pylist()
        words_per_doc = [s.split() for s in t["text"].to_pylist()]
        lens = np.array([len(w) for w in words_per_doc], dtype=np.int64)
        flat = [w for ws in words_per_doc for w in ws]
        if flat:
            uniq, inv = np.unique(np.array(flat, dtype=object), return_inverse=True)
            pieces_u = np.empty(len(uniq), dtype=np.int64)
            whole_u = np.empty(len(uniq), dtype=np.int64)
            for i, w in enumerate(uniq):
                p = encode_word(w, vocab)
                pieces_u[i] = len(p)
                whole_u[i] = 1 if (len(p) == 1 and p[0] in whole) else 0
            starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
            pw = pieces_u[inv]
            ww = whole_u[inv]
            # reduceat mis-sums empty segments; mask them to zero after
            n_pieces = np.where(lens > 0, np.add.reduceat(pw, np.minimum(starts, len(pw) - 1)), 0) if len(pw) else np.zeros(len(lens), np.int64)
            n_whole = np.where(lens > 0, np.add.reduceat(ww, np.minimum(starts, len(ww) - 1)), 0) if len(ww) else np.zeros(len(lens), np.int64)
        else:
            n_pieces = np.zeros(len(lens), np.int64)
            n_whole = np.zeros(len(lens), np.int64)
        out = pa.Table.from_pydict(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_words": lens,
                "n_whole": n_whole.astype(np.int64),
                "n_pieces": n_pieces.astype(np.int64),
            }
        )
        return out.filter(pc.greater(out["n_words"], 0))

    return ds.map_batches(encode, batch_format="pyarrow").sort("doc_id")


SQL_WORDPIECE_ENCODE = r"""
WITH w AS (
  SELECT unnest(regexp_extract_all(text, '\S+')) AS word FROM documents
), top AS (
  SELECT word FROM (
    SELECT word, COUNT(*) AS n FROM w GROUP BY word
    ORDER BY n DESC, word ASC LIMIT 30
  )
), dw AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS word
  FROM documents
), p AS (
  SELECT doc_id,
         CASE WHEN word IN (SELECT word FROM top) THEN 1 ELSE 0 END AS whole,
         CASE WHEN word IN (SELECT word FROM top)
              THEN 1 ELSE (length(word) + 1) // 2 END AS np
  FROM dw
)
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_words,
       CAST(SUM(whole) AS BIGINT) AS n_whole,
       CAST(SUM(np) AS BIGINT) AS n_pieces
FROM p GROUP BY doc_id ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# streaming watermark audit (late-event detection, distributed prefix-max)
# ---------------------------------------------------------------------------

_LATE_ALLOWED_S = 600  # allowed lateness before an event counts as late


def q_late_events(sf_dir: str):
    """Streaming late-data audit, ORACLE-CHECKED: per event-type stream, the
    watermark is the running max event time in ARRIVAL order (event_id);
    an event more than 600 s behind the watermark at its arrival is late —
    the audit every watermark-based windowing deployment runs before
    trusting its drop policy. The running max is inherently sequential, so
    it distributes as the classic two-phase scan: arrival-range buckets →
    per-(type, bucket) local prefix max + bucket summary (≤ buckets×types
    tiny rows to the driver) → exclusive per-type running max over bucket
    summaries → seeded second pass. Exact integer seconds throughout."""
    import pandas as pd

    from goose_parser_ray.functions.dedup import num_shuffle_buckets

    ds = _read(sf_dir, "events", ["event_id", "event_type", "ts"])
    n = ds.count()
    nb = num_shuffle_buckets(n)
    mx = int(ds.max("event_id"))

    def add_bucket(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        sec = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False) // 1_000_000
        b = eid * nb // (mx + 1)  # contiguous arrival ranges
        return pa.Table.from_pydict(
            {
                "event_id": eid,
                "event_type": t["event_type"],
                "sec": sec.astype(np.int64),
                "__b": b.astype(np.int64),
            }
        )

    bucketed = ds.map_batches(add_bucket, batch_format="pyarrow")

    # phase 1: per (bucket, type) max arrival-time — tiny summary table
    def summary_partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        g = df.groupby(["__b", "event_type"], as_index=False)["sec"].max()
        return pa.Table.from_pandas(g, preserve_index=False)

    summaries = (
        bucketed.map_batches(summary_partial, batch_format="pyarrow")
        .groupby(["__b", "event_type"])
        .max("sec")
        .take_all()
    )  # ≤ buckets × |types| rows — bounded by design
    base: dict[tuple[int, str], int] = {}
    running: dict[str, int] = {}
    for row in sorted(summaries, key=lambda r: (r["event_type"], r["__b"])):
        key = (int(row["__b"]), row["event_type"])
        base[key] = running.get(row["event_type"], -(1 << 62))
        running[row["event_type"]] = max(
            running.get(row["event_type"], -(1 << 62)), int(row["max(sec)"])
        )

    # phase 2: seeded in-bucket arrival scan
    def fold(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame(
                {
                    "event_type": pd.Series([], dtype=object),
                    "n_events": pd.Series([], dtype=np.int64),
                    "n_late": pd.Series([], dtype=np.int64),
                    "max_lateness_s": pd.Series([], dtype=np.int64),
                }
            )
        out = []
        for (b, et), sub in g.groupby(["__b", "event_type"], sort=False):
            sub = sub.sort_values("event_id", kind="mergesort")
            sec = sub["sec"].to_numpy(np.int64)
            prev = np.empty_like(sec)
            prev[0] = base[(int(b), et)]
            if len(sec) > 1:
                # exclusive running max, seeded with the prior buckets' max
                np.maximum.accumulate(sec[:-1], out=prev[1:])
                prev[1:] = np.maximum(prev[1:], prev[0])
            lateness = np.maximum(prev - sec, 0)
            out.append(
                {
                    "event_type": et,
                    "n_events": len(sec),
                    "n_late": int((lateness > _LATE_ALLOWED_S).sum()),
                    "max_lateness_s": int(lateness.max()),
                }
            )
        return pd.DataFrame(out)

    per_bucket = bucketed.groupby("__b").map_groups(fold, batch_format="pandas")

    # ≤ buckets × |types| partial rows → single-block final combine
    def combine(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        g = (
            df.groupby("event_type", as_index=False)
            .agg(
                n_events=("n_events", "sum"),
                n_late=("n_late", "sum"),
                max_lateness_s=("max_lateness_s", "max"),
            )
            .sort_values("event_type")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    return per_bucket.repartition(1).map_batches(combine, batch_format="pyarrow")


SQL_LATE_EVENTS = """
WITH d AS (
  SELECT event_type, event_id,
         CAST(date_diff('second', TIMESTAMP '1970-01-01 00:00:00', ts)
              AS BIGINT) AS sec
  FROM events
), w AS (
  SELECT event_type, sec,
         MAX(sec) OVER (PARTITION BY event_type ORDER BY event_id
                        ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS wm
  FROM d
)
SELECT event_type,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(SUM(CASE WHEN wm - sec > 600 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_late,
       CAST(COALESCE(MAX(CASE WHEN wm > sec THEN wm - sec ELSE 0 END), 0)
            AS BIGINT) AS max_lateness_s
FROM w GROUP BY event_type ORDER BY event_type
"""


# ---------------------------------------------------------------------------
# temperature-scaled source mixture (multi-source LM data balancing)
# ---------------------------------------------------------------------------


def q_temperature_mixture(sf_dir: str):
    """Temperature-scaled source sampling (the mT5/XLM-R α=0.5 recipe),
    ORACLE-CHECKED: per-source budgets ∝ n_s^α flatten the source
    distribution — big crawl sources get thinned, small curated sources
    keep everything — then a deterministic Knuth-hash ppm gate admits
    documents. Source counts are one bounded partial pass; per-source keep
    rates are computed driver-side in EXACT arbitrary-precision ints (the
    one float, √n_s, is mirrored FLOOR(SQRT(·)) in the twin); the gate
    itself is a broadcast-rate pure map — no shuffle anywhere."""
    import math

    ds = _read(sf_dir, "documents", ["doc_id", "source"])

    counts = keyed_aggregate(
        ds, ["source"], {"n_s": ("source", "count")}
    ).take_all()  # ≤ |sources| rows — bounded domain

    n_by_src = {r["source"]: int(r["n_s"]) for r in counts}
    tot = sum(n_by_src.values())
    budget = tot // 2
    s_by_src = {
        src: int(math.floor(math.sqrt(n * 1_000_000.0)))
        for src, n in n_by_src.items()
    }  # mirrored: FLOOR(SQRT(n_s * 1000000.0))
    s_sum = sum(s_by_src.values())
    r_ppm = {
        src: min(
            1_000_000, (budget * s_by_src[src] * 1_000_000) // (s_sum * n)
        )
        for src, n in n_by_src.items()
    }  # Python ints — exact at any corpus size

    def gate(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        rates = np.array(
            [r_ppm[s] for s in t["source"].to_pylist()], dtype=np.int64
        )
        hv = (ids * 2654435761) % 4294967296 % 1_000_000
        keep = hv < rates
        return pa.Table.from_pydict(
            {"doc_id": ids[keep], "source": np.array(t["source"].to_pylist(), dtype=object)[keep]}
        )

    return ds.map_batches(gate, batch_format="pyarrow").sort("doc_id")


SQL_TEMPERATURE_MIXTURE = """
WITH n AS (
  SELECT source, CAST(COUNT(*) AS BIGINT) AS n_s FROM documents GROUP BY source
), s AS (
  SELECT source, n_s,
         CAST(FLOOR(SQRT(n_s * 1000000.0)) AS BIGINT) AS s_s
  FROM n
), t AS (
  SELECT CAST(SUM(n_s) AS BIGINT) AS tot, CAST(SUM(s_s) AS BIGINT) AS ss FROM s
), r AS (
  SELECT source,
         LEAST(1000000,
               ((SELECT tot FROM t) // 2) * s_s * 1000000
                 // ((SELECT ss FROM t) * n_s)) AS r_ppm
  FROM s
)
SELECT CAST(d.doc_id AS BIGINT) AS doc_id, d.source
FROM documents d JOIN r USING (source)
WHERE (d.doc_id * 2654435761) % 4294967296 % 1000000 < r.r_ppm
ORDER BY d.doc_id
"""


# ---------------------------------------------------------------------------
# geohash encoding (spatial sharding key, base32 sibling of q_zorder)
# ---------------------------------------------------------------------------

_GEOHASH32 = "0123456789bcdefghjkmnpqrstuvwxyz"


def q_geohash_encode(sf_dir: str):
    """Geohash-6 encoding, ORACLE-CHECKED: deterministic per-doc lat/lon
    (integer hundredths of degrees), 15-bit quantization per axis, the
    lon-first bit interleave, base32 digits — the standard geo-sharding /
    prefix-range-scan key (the curved-space sibling of q_zorder, which
    co-locates by Morton code on a synthetic grid). All-integer on both
    sides: the twin states the interleave as a generate_series(0,14) bit
    sum and peels the six 5-bit digits with shifts. Pure vectorized
    map-only stage; no shuffle."""
    ds = _read(sf_dir, "documents", ["doc_id"])

    def encode(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy(zero_copy_only=False)
        lat_q = ((did * 7919) % 18000) * 32768 // 18000
        lon_q = ((did * 104729) % 36000) * 32768 // 36000
        z = np.zeros(len(did), dtype=np.int64)
        for i in range(15):
            z |= ((lon_q >> i) & 1) << (2 * i + 1)
            z |= ((lat_q >> i) & 1) << (2 * i)
        chars = np.frombuffer(_GEOHASH32.encode(), dtype=np.uint8)
        digits = np.stack([(z >> (25 - 5 * k)) & 31 for k in range(6)], axis=1)
        gh = chars[digits].tobytes().decode()
        geohash = [gh[6 * i : 6 * i + 6] for i in range(len(did))]
        return pa.Table.from_pydict(
            {
                "doc_id": did,
                "z30": z,
                "geohash": pa.array(geohash, pa.string()),
            }
        )

    return ds.map_batches(encode, batch_format="pyarrow").sort("doc_id")


SQL_GEOHASH_ENCODE = """
WITH q AS (
  SELECT doc_id,
         ((doc_id * 7919) % 18000) * 32768 // 18000 AS lat_q,
         ((doc_id * 104729) % 36000) * 32768 // 36000 AS lon_q
  FROM documents
), z AS (
  SELECT doc_id,
         CAST(SUM((((lon_q >> g.i) & 1) << (2 * g.i + 1))
                + (((lat_q >> g.i) & 1) << (2 * g.i))) AS BIGINT) AS z30
  FROM q, (SELECT unnest(generate_series(0, 14)) AS i) g
  GROUP BY doc_id
)
SELECT CAST(doc_id AS BIGINT) AS doc_id, z30,
       substr('0123456789bcdefghjkmnpqrstuvwxyz',
              CAST((z30 >> 25) & 31 AS INTEGER) + 1, 1)
    || substr('0123456789bcdefghjkmnpqrstuvwxyz',
              CAST((z30 >> 20) & 31 AS INTEGER) + 1, 1)
    || substr('0123456789bcdefghjkmnpqrstuvwxyz',
              CAST((z30 >> 15) & 31 AS INTEGER) + 1, 1)
    || substr('0123456789bcdefghjkmnpqrstuvwxyz',
              CAST((z30 >> 10) & 31 AS INTEGER) + 1, 1)
    || substr('0123456789bcdefghjkmnpqrstuvwxyz',
              CAST((z30 >> 5) & 31 AS INTEGER) + 1, 1)
    || substr('0123456789bcdefghjkmnpqrstuvwxyz',
              CAST(z30 & 31 AS INTEGER) + 1, 1) AS geohash
FROM z ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# Avro object-container roundtrip (row-oriented interchange ingest)
# ---------------------------------------------------------------------------


def q_avro_roundtrip(sf_dir: str):
    """Avro container interchange, ORACLE-CHECKED row-for-row against the
    source table: the documents table (nullable lang exercised via a
    deterministic null-out) is written as one REAL Avro object container
    per block — zigzag varints, deflate blocks, sync markers, the actual
    wire format via ``sources/avromini.py`` — then read back through the
    parallel ``read_documents(fmt="avro")`` path. Write and parse are both
    fully distributed; the file is the parallelism unit (ingest format —
    convert to parquet before repeated scans)."""
    import shutil
    import tempfile

    from goose_parser_ray.sources.io import read_documents, write_avro_shards

    # per-run unique dir: two concurrent runs against the same sf_dir must
    # not race on a shared path (one rmtree-ing while the other reads).
    out = tempfile.mkdtemp(prefix="avro_roundtrip_")
    schema = {
        "type": "record",
        "name": "doc",
        "fields": [
            {"name": "doc_id", "type": "long"},
            {"name": "source", "type": "string"},
            {"name": "lang", "type": ["null", "string"]},
            {"name": "n_chars", "type": "long"},
        ],
    }

    def prep(t: pa.Table) -> pa.Table:
        did = t["doc_id"]
        mod7 = pc.subtract(did, pc.multiply(pc.divide(did, 7), pa.scalar(7, pa.int64())))
        lang = pc.if_else(pc.equal(mod7, 0), pa.scalar(None, pa.string()), t["lang"])
        return pa.Table.from_pydict(
            {
                "doc_id": did,
                "source": t["source"],
                "lang": lang,
                "n_chars": pc.cast(pc.utf8_length(t["text"]), pa.int64()),
            }
        )

    ds = _read(sf_dir, "documents", ["doc_id", "source", "lang", "text"])
    write_avro_shards(ds.map_batches(prep, batch_format="pyarrow"), out, schema)
    # materialize the few-ints-per-row parse output, then drop the temp
    # shards — the lazy read must not outlive the per-run directory.
    result = read_documents(out, fmt="avro").sort("doc_id").materialize()
    shutil.rmtree(out, ignore_errors=True)
    return result


SQL_AVRO_ROUNDTRIP = """
SELECT CAST(doc_id AS BIGINT) AS doc_id, source,
       CASE WHEN doc_id % 7 = 0 THEN NULL ELSE lang END AS lang,
       CAST(length(text) AS BIGINT) AS n_chars
FROM documents ORDER BY doc_id
"""


def q_interpolate_daily(sf_dir: str):
    """LINEAR-interpolation gap fill over the daily grid (the sibling of
    q_gapfill's zero-fill — for quantities where a missing day means
    "not measured", not "zero"), ORACLE-CHECKED with exact integers:
    per-type daily cent sums are densified to every day in the type's
    [min, max] span, and interior missing days get the linear
    interpolation between the surrounding measured days kept as a
    NUM/DEN pair (num = v_prev·(d_next−d_prev) + (v_next−v_prev)·(d−d_prev),
    den = d_next−d_prev) — no division, no floats, endpoints always
    measured so no extrapolation branch exists. Scale shape: map-side
    day partials (type×day-bounded exchange), then one map_groups per
    type over its day span (span-bounded, never event-bounded)."""
    import pandas as pd

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def measured(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        day = us // 86_400_000_000
        v = np.round(
            100 * t["value"].to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        out = pa.table({"event_type": t["event_type"], "day": day, "v": v})
        # withhold every 5th day from the measurements (sensor-outage
        # model) so the fixture actually exercises interpolation
        return out.filter(day % 5 != 2)

    agg = keyed_aggregate(
        ds.map_batches(measured, batch_format="pyarrow"), ["event_type", "day"],
        {"v": ("v", "sum")},
    )

    def densify(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("day")
        days = g["day"].to_numpy(np.int64)
        vals = g["v"].to_numpy(np.int64)
        grid = np.arange(days[0], days[-1] + 1, dtype=np.int64)
        pos = np.searchsorted(days, grid, side="right") - 1
        measured = days[pos] == grid
        pd_, pv = days[pos], vals[pos]
        nxt = np.minimum(pos + 1, len(days) - 1)
        nd, nv = days[nxt], vals[nxt]
        num = np.where(
            measured, pv, pv * (nd - pd_) + (nv - pv) * (grid - pd_)
        )
        den = np.where(measured, 1, nd - pd_)
        return pd.DataFrame(
            {
                "event_type": g["event_type"].iloc[0],
                "day": grid,
                "val_num": num,
                "val_den": den,
                "interpolated": ~measured,
            }
        )

    return agg.groupby("event_type").map_groups(
        densify, batch_format="pandas"
    )


SQL_INTERPOLATE_DAILY = """
WITH d AS (
  SELECT event_type, epoch_us(ts) // 86400000000 AS day,
         CAST(ROUND(100 * value) AS BIGINT) AS v
  FROM events
),
agg AS (SELECT event_type, day, SUM(v) AS v FROM d
        WHERE day % 5 != 2 GROUP BY 1, 2),
span AS (SELECT event_type, MIN(day) AS lo, MAX(day) AS hi
         FROM agg GROUP BY 1),
grid AS (
  SELECT s.event_type, g.day
  FROM span s, UNNEST(generate_series(s.lo, s.hi)) AS g(day)
),
j AS (
  SELECT g.event_type, g.day, a.v,
         last_value(a.v IGNORE NULLS) OVER (
           PARTITION BY g.event_type ORDER BY g.day
           ROWS UNBOUNDED PRECEDING) AS pv,
         last_value(a.day IGNORE NULLS) OVER (
           PARTITION BY g.event_type ORDER BY g.day
           ROWS UNBOUNDED PRECEDING) AS pd,
         first_value(a.v IGNORE NULLS) OVER (
           PARTITION BY g.event_type ORDER BY g.day
           ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING) AS nv,
         first_value(a.day IGNORE NULLS) OVER (
           PARTITION BY g.event_type ORDER BY g.day
           ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING) AS nd
  FROM grid g
  LEFT JOIN agg a ON a.event_type = g.event_type AND a.day = g.day
)
SELECT event_type, day,
       CAST(CASE WHEN v IS NOT NULL THEN v
                 ELSE pv * (nd - pd) + (nv - pv) * (day - pd) END
            AS BIGINT) AS val_num,
       CAST(CASE WHEN v IS NOT NULL THEN 1 ELSE nd - pd END
            AS BIGINT) AS val_den,
       v IS NULL AS interpolated
FROM j
"""


def q_tfrecord_roundtrip(sf_dir: str):
    """TFRecord-style container interchange, ORACLE-CHECKED row-for-row:
    each document serializes to a `doc_id\\ttext` payload, the corpus is
    written as masked-CRC32C length-prefixed shards (the de-facto
    training-data wire format; one container per block, fully
    distributed via ``sources/io.py:write_record_shards``), then read
    back through the parallel ``read_record_shards`` path — BOTH CRCs of
    every record re-verified during decode — and re-parsed into
    (doc_id, n_chars). The twin restates the source table, so the hash
    compare certifies the full write→frame→verify→parse loop. The
    crc32c table itself is locked by RFC 3720 check vectors in pytest.
    Ingest format: the file is the parallelism unit."""
    import shutil
    import tempfile

    from goose_parser_ray.sources.io import (
        read_record_shards,
        write_record_shards,
    )

    # per-run unique dir: two concurrent runs against the same sf_dir must
    # not race on a shared path (one rmtree-ing while the other reads).
    out = tempfile.mkdtemp(prefix="tfrec_roundtrip_")

    def prep(t: pa.Table) -> pa.Table:
        payloads = [
            (f"{d}\t{txt or ''}").encode("utf-8")
            for d, txt in zip(
                t["doc_id"].to_pylist(), t["text"].to_pylist()
            )
        ]
        return pa.Table.from_pydict(
            {"payload": pa.array(payloads, pa.binary())}
        )

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    write_record_shards(ds.map_batches(prep, batch_format="pyarrow"), out)

    def parse(t: pa.Table) -> pa.Table:
        ids, chars = [], []
        for p in t["payload"].to_pylist():
            s = p.decode("utf-8")
            tab = s.index("\t")
            ids.append(int(s[:tab]))
            chars.append(len(s) - tab - 1)
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_chars": pa.array(chars, pa.int64()),
            }
        )

    # materialize the (doc_id, n_chars) parse output, then drop the temp
    # shards — the lazy read must not outlive the per-run directory.
    result = (
        read_record_shards(out)
        .map_batches(parse, batch_format="pyarrow")
        .sort("doc_id")
        .materialize()
    )
    shutil.rmtree(out, ignore_errors=True)
    return result


SQL_TFRECORD_ROUNDTRIP = """
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(length(text) AS BIGINT) AS n_chars
FROM documents ORDER BY doc_id
"""


def q_webdataset_roundtrip(sf_dir: str):
    """WebDataset tar-shard interchange, ORACLE-CHECKED row-for-row (r5):
    every document becomes a two-member sample ({id}.txt = text bytes,
    {id}.cls = lang) in REAL POSIX ustar shards — the de-facto sharded
    multimodal training format; the in-repo codec is differential-tested
    against stdlib tarfile in BOTH directions — written one archive per
    block (``sources/io.py:write_tar_shards``), read back through the
    parallel member stream, regrouped by sample key, and re-parsed into
    (doc_id, n_chars, lang). Header checksums of every member re-verified
    at read. Ingest format: the file is the parallelism unit."""
    import shutil
    import tempfile

    from goose_parser_ray.sources.io import read_tar_shards, write_tar_shards

    out = tempfile.mkdtemp(prefix="webdataset_")

    def members(t: pa.Table):
        ms = []
        for d, txt, lang in zip(
            t["doc_id"].to_pylist(),
            t["text"].to_pylist(),
            t["lang"].to_pylist(),
        ):
            ms.append((f"{d:08d}.txt", (txt or "").encode("utf-8")))
            ms.append((f"{d:08d}.cls", (lang or "").encode("utf-8")))
        return ms

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    write_tar_shards(ds, out, members)

    def regroup(t: pa.Table) -> pa.Table:
        import collections

        samples: "dict[str, dict[str, bytes]]" = collections.defaultdict(dict)
        for k, e, p in zip(
            t["key"].to_pylist(), t["ext"].to_pylist(), t["payload"].to_pylist()
        ):
            samples[k][e] = p
        ids, ncs, langs = [], [], []
        for k, mem in samples.items():
            ids.append(int(k))
            ncs.append(len(mem.get("txt", b"").decode("utf-8")))
            langs.append(mem.get("cls", b"").decode("utf-8"))
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_chars": pa.array(ncs, pa.int64()),
                "lang": pa.array(langs, pa.string()),
            }
        )

    # members of one sample land in the same archive (same write block),
    # so the regroup is complete without a shuffle. batch_size=None keeps
    # batch == decoded block; dynamic block splitting only bisects blocks
    # far above target_max_block_size (≫ any shard here), so a sample's
    # two members cannot straddle a regroup batch.
    result = (
        read_tar_shards(out)
        .map_batches(regroup, batch_format="pyarrow", batch_size=None)
        .sort("doc_id")
        .materialize()
    )
    shutil.rmtree(out, ignore_errors=True)
    return result


SQL_WEBDATASET_ROUNDTRIP = """
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(length(text) AS BIGINT) AS n_chars,
       lang
FROM documents ORDER BY doc_id
"""
