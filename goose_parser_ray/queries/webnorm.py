"""Web normalization + matching: robots.txt, CIDR, NFC, UA parse, edit-distance pairs, anchors, HRW sharding, homoglyphs, LSM index merge.

Split from ``queries/text_media.py`` (r5 item 6).
See package docstring for parity rules."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from goose_parser_ray.functions.relational import keyed_aggregate

from goose_parser_ray.queries._shared import _read


def q_robots_rules(sf_dir: str):
    """robots.txt allow/deny evaluation (RFC 9309 / REP longest-match
    semantics: the longest matching rule wins, Allow beats Disallow on a
    length tie, no match means allowed), ORACLE-CHECKED. URLs and the
    per-domain rule set are synthesized deterministically from doc_id —
    domain ``site{id%10}.com`` with Disallow /private/, Allow
    /private/ok/ everywhere plus Disallow /tmp/ on odd domains — so the
    SQL twin states the same rule table inline and must agree on the
    winning rule AND the verdict for every URL. Engine shape: the rule
    set is a compiled constant (broadcast with the plan, bytes not rows);
    per batch, one vectorized starts_with per rule and a numpy
    longest-match/allow-break argmax — rule-count-proportional work per
    row, no shuffle at all."""
    ds = _read(sf_dir, "documents", ["doc_id"])

    # (prefix, allow, parity) — parity None applies to every domain,
    # 1 only to odd domain ids. Longest match wins; allow wins length ties.
    RULES = [
        ("/private/", 0, None),
        ("/private/ok/", 1, None),
        ("/tmp/", 0, 1),
    ]

    def evaluate(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        dom = ids % 10
        mod4 = ids % 4
        seg = np.choose(
            mod4, ["/public/page", "/private/page", "/private/ok/page",
                   "/tmp/cache/page"]
        )
        path = np.char.add(seg.astype("U32"), ids.astype("U20"))
        pa_path = pa.array(path)
        best_score = np.full(len(ids), -1, np.int64)
        best_rule = np.full(len(ids), "", dtype="U16")
        best_allow = np.ones(len(ids), np.int64)  # no match -> allowed
        for prefix, allow, parity in RULES:
            m = pc.starts_with(pa_path, pattern=prefix).to_numpy(
                zero_copy_only=False
            )
            if parity is not None:
                m = m & (dom % 2 == parity)
            score = 2 * len(prefix) + allow
            upd = m & (score > best_score)
            best_score[upd] = score
            best_rule[upd] = prefix
            best_allow[upd] = allow
        url = np.char.add(
            np.char.add("https://site", dom.astype("U4")),
            np.char.add(".com", path),
        )
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "url": pa.array(url.tolist(), pa.string()),
                "matched_rule": pa.array(best_rule.tolist(), pa.string()),
                "allowed": pa.array(best_allow, pa.int64()),
            }
        )

    return ds.map_batches(evaluate, batch_format="pyarrow")


SQL_ROBOTS_RULES = """
WITH u AS (
  SELECT doc_id, doc_id % 10 AS dom,
         CASE doc_id % 4
           WHEN 0 THEN '/public/page'  || doc_id
           WHEN 1 THEN '/private/page' || doc_id
           WHEN 2 THEN '/private/ok/page' || doc_id
           ELSE '/tmp/cache/page' || doc_id END AS path
  FROM documents
),
r(prefix, allow, parity) AS (
  VALUES ('/private/', 0, NULL), ('/private/ok/', 1, NULL),
         ('/tmp/', 0, 1)
),
m AS (
  SELECT u.doc_id, u.dom, u.path, r.prefix, r.allow
  FROM u JOIN r
    ON starts_with(u.path, r.prefix)
   AND (r.parity IS NULL OR u.dom % 2 = r.parity)
  QUALIFY ROW_NUMBER() OVER (PARTITION BY u.doc_id
                             ORDER BY len(r.prefix) DESC, r.allow DESC) = 1
)
SELECT u.doc_id,
       'https://site' || u.dom || '.com' || u.path AS url,
       coalesce(m.prefix, '') AS matched_rule,
       CAST(coalesce(m.allow, 1) AS BIGINT) AS allowed
FROM u LEFT JOIN m USING (doc_id)
"""


def q_cidr_lookup(sf_dir: str):
    """Geo-IP-style CIDR enrichment with RFC-longest-prefix-match
    semantics, ORACLE-CHECKED: each event gets a deterministic IPv4
    (Knuth multiplicative hash of user_id, exact integer arithmetic on
    both engines), looked up against an inline table of OVERLAPPING
    prefixes (/0 default through /3) where the longest matching prefix
    wins. Engine shape: the CIDR table is a compiled constant; per batch
    one vectorized shift-compare per rule and an argmax over prefix
    lengths — rule-proportional work per row, no shuffle. The same
    broadcast-rules idiom as robots_rules, on the network layer."""
    ds = _read(sf_dir, "events", ["event_id", "user_id"])

    RULES = [  # (prefix_int, bits, tag) — overlapping by construction
        (0x00000000, 0, "default"),
        (0x00000000, 1, "low-half"),
        (0x80000000, 1, "high-half"),
        (0x40000000, 2, "mid-block"),
        (0xC0000000, 3, "c-block"),
    ]

    def lookup(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ip = (uid * 2654435761) % (1 << 32)
        best_len = np.full(len(ip), -1, np.int64)
        best_tag = np.full(len(ip), "", dtype="U12")
        best_pfx = np.full(len(ip), 0, np.int64)
        for pfx, bits, tag in RULES:
            m = (ip >> (32 - bits)) == (pfx >> (32 - bits)) if bits else \
                np.ones(len(ip), bool)
            upd = m & (bits > best_len)
            best_len[upd] = bits
            best_tag[upd] = tag
            best_pfx[upd] = pfx
        dotted = [
            f"{v >> 24}.{(v >> 16) & 255}.{(v >> 8) & 255}.{v & 255}"
            for v in ip.tolist()
        ]  # bounded string format; not a compute hot path
        return pa.Table.from_pydict(
            {
                "event_id": t["event_id"],
                "ip": pa.array(dotted, pa.string()),
                "matched_bits": pa.array(best_len, pa.int64()),
                "tag": pa.array(best_tag.tolist(), pa.string()),
            }
        )

    return ds.map_batches(lookup, batch_format="pyarrow")


SQL_CIDR_LOOKUP = """
WITH ev AS (
  SELECT event_id, (user_id * 2654435761) % 4294967296 AS ip
  FROM events
),
r(pfx, bits, div, tag) AS (
  -- div = 2^(32-bits) as BIGINT: DuckDB's // floors only for integer
  -- divisors (a DOUBLE divisor makes it plain division)
  VALUES (0, 0, 4294967296, 'default'), (0, 1, 2147483648, 'low-half'),
         (2147483648, 1, 2147483648, 'high-half'),
         (1073741824, 2, 1073741824, 'mid-block'),
         (3221225472, 3, 536870912, 'c-block')
),
m AS (
  SELECT ev.event_id, ev.ip, r.bits, r.tag
  FROM ev JOIN r
    ON (ev.ip // r.div) = (r.pfx // r.div)
  QUALIFY ROW_NUMBER() OVER (PARTITION BY ev.event_id
                             ORDER BY r.bits DESC) = 1
)
SELECT event_id,
       (ip // 16777216) || '.' || ((ip // 65536) % 256) || '.'
         || ((ip // 256) % 256) || '.' || (ip % 256) AS ip,
       CAST(bits AS BIGINT) AS matched_bits, tag
FROM m
"""


def q_nfc_normalize(sf_dir: str):
    """Unicode NFC normalization (the text-canonicalization step every
    multilingual pipeline needs before hashing/dedup), ORACLE-CHECKED
    against DuckDB's ICU ``nfc_normalize``: per doc a deterministic
    DECOMPOSED string is synthesized (base letter + U+0301 combining
    acute — some pairs compose to one codepoint, q́-style pairs stay
    two), normalized, and compared on the normalized bytes plus exact
    before/after codepoint counts. Two independent Unicode
    implementations (CPython's unicodedata vs DuckDB's ICU) must agree
    on every row — a real conformance check, not a self-twin. (pyarrow
    16's utf8_normalize does NOT perform canonical composition, so the
    batch maps CPython's C-implemented normalizer over the column —
    still one shuffle-free pass.)"""
    ds = _read(sf_dir, "documents", ["doc_id"])

    def norm(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        base = np.array([chr(97 + i) for i in range(26)])
        raw = [
            "caf" + b + "́ " + b2 + "́x"
            for b, b2 in zip(
                base[ids % 26].tolist(), base[(ids * 7 + 3) % 26].tolist()
            )
        ]
        import unicodedata

        arr = pa.array(raw, pa.string())
        out = pa.array(
            [unicodedata.normalize("NFC", x) for x in raw], pa.string()
        )
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "nfc": out,
                "cp_before": pc.cast(pc.utf8_length(arr), pa.int64()),
                "cp_after": pc.cast(pc.utf8_length(out), pa.int64()),
            }
        )

    return ds.map_batches(norm, batch_format="pyarrow")


SQL_NFC_NORMALIZE = """
WITH raw AS (
  SELECT doc_id,
         'caf' || chr(CAST(97 + (doc_id % 26) AS INTEGER)) || chr(769)
          || ' ' || chr(CAST(97 + ((doc_id * 7 + 3) % 26) AS INTEGER))
          || chr(769) || 'x' AS s
  FROM documents
)
SELECT doc_id, nfc_normalize(s) AS nfc,
       CAST(length(s) AS BIGINT) AS cp_before,
       CAST(length(nfc_normalize(s)) AS BIGINT) AS cp_after
FROM raw
"""


def q_ua_parse(sf_dir: str):
    """User-agent parsing (the classic log-enrichment stage: browser
    family, major version, bot flag), ORACLE-CHECKED: deterministic UA
    strings are synthesized per event from five templates (Chrome,
    Safari, Firefox, curl, Googlebot) and parsed back with ONE
    vectorized RE2 extract per field — family via alternation match,
    version via the first digit run after the family token, bot via
    case-insensitive substring. The SQL twin parses with the same
    regexes, so template drift or extraction bugs break the hash.
    Shuffle-free single map pass."""
    ds = _read(sf_dir, "events", ["event_id"])

    TPL = [
        "Mozilla/5.0 (Windows NT 10.0) Chrome/{v}.0 Safari/537.36",
        "Mozilla/5.0 (Macintosh; Intel Mac OS X) Version/{v}.1 Safari/605.1",
        "Mozilla/5.0 (X11; Linux x86_64; rv:{v}.0) Gecko/20100101 Firefox/{v}.0",
        "curl/7.{v}.0",
        "Mozilla/5.0 (compatible; Googlebot/2.{v}; +http://www.google.com/bot.html)",
    ]
    FAMS = ["Chrome", "Safari", "Firefox", "curl", "Googlebot"]

    def parse(t: pa.Table) -> pa.Table:
        ids = t["event_id"].to_numpy(zero_copy_only=False)
        v = (ids % 40 + 60).astype(np.int64)
        which = (ids % 5).astype(np.int64)
        ua = [
            TPL[w].replace("{v}", str(vv))
            for w, vv in zip(which.tolist(), v.tolist())
        ]
        arr = pa.array(ua, pa.string())
        fam = np.array(FAMS)[which]
        # family decided by FIRST match in priority order (Googlebot and
        # curl before the Mozilla families; Firefox before Safari; Chrome
        # before Safari — Chrome UAs contain 'Safari' too)
        fam_extracted = np.full(len(ua), "other", dtype="U12")
        for name in ("Googlebot", "curl", "Firefox", "Chrome", "Safari"):
            hit = pc.match_substring(arr, pattern=name).to_numpy(
                zero_copy_only=False
            )
            fam_extracted[(fam_extracted == "other") & hit] = name
        major = pc.extract_regex(
            arr,
            pattern=r"(?:Chrome/|Version/|Firefox/|curl/7\.|Googlebot/2\.)(?P<m>[0-9]+)",
        )
        major_v = pc.cast(pc.struct_field(major, "m"), pa.int64())
        is_bot = pc.cast(
            pc.match_substring(arr, pattern="bot", ignore_case=True),
            pa.int64(),
        )
        return pa.Table.from_pydict(
            {
                "event_id": t["event_id"],
                "family": pa.array(fam_extracted.tolist(), pa.string()),
                "major": major_v,
                "is_bot": is_bot,
            }
        )

    return ds.map_batches(parse, batch_format="pyarrow")


SQL_UA_PARSE = """
WITH ev AS (
  SELECT event_id, event_id % 5 AS w, event_id % 40 + 60 AS v
  FROM events
), ua AS (
  SELECT event_id,
    CASE w
      WHEN 0 THEN 'Mozilla/5.0 (Windows NT 10.0) Chrome/' || v
                  || '.0 Safari/537.36'
      WHEN 1 THEN 'Mozilla/5.0 (Macintosh; Intel Mac OS X) Version/' || v
                  || '.1 Safari/605.1'
      WHEN 2 THEN 'Mozilla/5.0 (X11; Linux x86_64; rv:' || v
                  || '.0) Gecko/20100101 Firefox/' || v || '.0'
      WHEN 3 THEN 'curl/7.' || v || '.0'
      ELSE 'Mozilla/5.0 (compatible; Googlebot/2.' || v
           || '; +http://www.google.com/bot.html)'
    END AS s
  FROM ev
)
SELECT event_id,
       CASE WHEN contains(s, 'Googlebot') THEN 'Googlebot'
            WHEN contains(s, 'curl') THEN 'curl'
            WHEN contains(s, 'Firefox') THEN 'Firefox'
            WHEN contains(s, 'Chrome') THEN 'Chrome'
            WHEN contains(s, 'Safari') THEN 'Safari'
            ELSE 'other' END AS family,
       CAST(regexp_extract(s,
            '(?:Chrome/|Version/|Firefox/|curl/7\\.|Googlebot/2\\.)([0-9]+)',
            1) AS BIGINT) AS major,
       CAST(CASE WHEN regexp_matches(lower(s), 'bot') THEN 1 ELSE 0 END
            AS BIGINT) AS is_bot
FROM ua
"""


def q_editdist2_pairs(sf_dir: str):
    """Edit-distance-≤2 similarity join (FastSS at k=2 — ≤2-deletion
    neighborhoods intersect iff lev ≤ 2; see
    ``functions/editdist.py:edit2_pairs``), ORACLE-CHECKED against
    DuckDB's built-in ``levenshtein`` over the full cross join, WITH the
    exact distance as a compared column. ``pair_cap`` is raised to 512
    here because zero-padded sequential customer names are a worst-case
    dense key space (largest variant block 294 at sf0.01) — below the cap
    blocking is zero-miss and every candidate is DP-verified, so the
    whole output hash-matches brute force."""
    from goose_parser_ray.functions.editdist import edit2_pairs

    ds = _read(sf_dir, "customer", ["c_custkey", "c_name"])
    pairs = edit2_pairs(
        ds, col="c_name", id_col="c_custkey", pair_cap=512
    )
    return pairs


SQL_EDITDIST2_PAIRS = """
SELECT CAST(a.c_custkey AS BIGINT) AS id_a,
       CAST(b.c_custkey AS BIGINT) AS id_b,
       CAST(levenshtein(a.c_name, b.c_name) AS BIGINT) AS dist
FROM customer a
JOIN customer b
  ON a.c_custkey < b.c_custkey
 AND levenshtein(a.c_name, b.c_name) BETWEEN 1 AND 2
"""


def q_anchor_texts(sf_dir: str):
    """Anchor-text aggregation per link target (the ranking/labeling
    signal web curation builds from what OTHER pages call a URL),
    ORACLE-CHECKED: pages go through the REAL extraction stack —
    tokenizer → HTML5 tree builder → compiled ``a[href]`` selector — but
    this stage reads each link's RENDERED TEXT (``Element.text()``, the
    character-data path) rather than an attribute, then rolls up
    (dst, anchor) → count with the partial/combiner pattern. The SQL twin
    states the expected (target, anchor) multiset in closed form, so a
    text-node split/drop bug in the tree builder breaks the hash."""
    from goose_parser_ray.functions.linkgraph import AnchorTextActor

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs = ds.map_batches(
        # task pool: the stage's state is one compiled selector — actor
        # spin-up costs more than it saves (media_png measurement)
        lambda t: AnchorTextActor()(t),
        batch_format="pyarrow",
        batch_size=512,
    )
    return keyed_aggregate(pairs, ["dst", "anchor"], {"n_links": ("dst", "count")})


SQL_ANCHOR_TEXTS = """
WITH edges AS (
  SELECT (d.doc_id * 7 + g.k) % 1000 AS dst,
         'ref ' || g.k AS anchor
  FROM documents d,
       LATERAL (SELECT unnest(generate_series(1, d.doc_id % 3 + 1)) AS k) g
)
SELECT dst, anchor, CAST(COUNT(*) AS BIGINT) AS n_links
FROM edges GROUP BY dst, anchor
"""


def q_rendezvous_sharding(sf_dir: str):
    """Rendezvous (highest-random-weight) sharding with a resize
    movement proof, ORACLE-CHECKED: every doc scores each shard with a
    shared integer mix (xor then Knuth multiply, mod 2³²) and lands on
    the argmax — then the SAME scores decide placement at 8 and at 9
    shards, and the compared ``moved`` column certifies HRW's guarantee
    that a resize moves ONLY docs whose new shard is the added one
    (expected 1/9 of the corpus; no doc moves between old shards). This
    is the partitioning math a 100 TB resumable job relies on when the
    cluster grows. Shuffle-free map pass; the SQL twin mirrors the mix
    in HUGEINT then ranks per doc."""
    ds = _read(sf_dir, "documents", ["doc_id"])
    M32 = np.uint64(0xFFFFFFFF)

    def assign(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        scores = np.empty((len(d), 9), np.uint64)
        for s in range(9):
            smix = np.uint64((s * 2654435761) % (1 << 32))
            scores[:, s] = ((d ^ smix) * np.uint64(2654435761)) & M32
        shard8 = scores[:, :8].argmax(axis=1).astype(np.int64)
        shard9 = scores.argmax(axis=1).astype(np.int64)
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "shard8": pa.array(shard8, pa.int64()),
                "shard9": pa.array(shard9, pa.int64()),
                "moved": pa.array(
                    (shard8 != shard9).astype(np.int64), pa.int64()
                ),
            }
        )

    return ds.map_batches(assign, batch_format="pyarrow")


SQL_RENDEZVOUS_SHARDING = """
WITH sc AS (
  SELECT d.doc_id, s.s,
         CAST((xor(d.doc_id, (s.s * 2654435761) % 4294967296)
               * CAST(2654435761 AS HUGEINT)) % 4294967296 AS BIGINT)
           AS score
  FROM documents d, (SELECT unnest(generate_series(0, 8)) AS s) s
),
r8 AS (
  SELECT doc_id, s AS shard8 FROM sc WHERE s < 8
  QUALIFY ROW_NUMBER() OVER (PARTITION BY doc_id
                             ORDER BY score DESC, s ASC) = 1
),
r9 AS (
  SELECT doc_id, s AS shard9 FROM sc
  QUALIFY ROW_NUMBER() OVER (PARTITION BY doc_id
                             ORDER BY score DESC, s ASC) = 1
)
SELECT doc_id, CAST(shard8 AS BIGINT) AS shard8,
       CAST(shard9 AS BIGINT) AS shard9,
       CAST(CASE WHEN shard8 <> shard9 THEN 1 ELSE 0 END AS BIGINT)
         AS moved
FROM r8 JOIN r9 USING (doc_id)
"""


def q_homoglyph_domains(sf_dir: str):
    """Homoglyph (IDN-spoofing) domain detection via Unicode confusable
    skeletons, ORACLE-CHECKED: every 7th doc registers a lookalike of an
    existing domain with one Latin letter swapped for its Cyrillic twin
    (i→U+0456, e→U+0435, o→U+043E — visually identical, byte-distinct),
    the skeleton map folds confusables back to ASCII (chained vectorized
    replace_substring — the UTS #39 skeleton idea over a bounded table),
    and grouping by skeleton surfaces every spoof cluster: skeletons
    carrying MORE THAN ONE raw variant are the attacks. Two-level
    aggregate: map-side (skeleton, raw) partial counts, one exchange
    over distinct variants, then a skeleton-bounded rollup. The twin
    re-states the synthesis and the same replace chain."""
    CONF = [("і", "i"), ("е", "e"), ("о", "o")]

    def synth(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        base = ["site" + str(x % 400) + ".com" for x in d]
        out = []
        for x, b in zip(d, base):
            if x % 7 == 3:
                which = CONF[x % 3]
                # 'i' appears in "site", 'e' in "site", 'o' in ".com"
                out.append(b.replace(which[1], which[0], 1))
            else:
                out.append(b)
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "domain": pa.array(out, pa.string())}
        )

    def skeletonize(t: pa.Table) -> pa.Table:
        s = t["domain"]
        for bad, good in CONF:
            s = pc.replace_substring(s, pattern=bad, replacement=good)
        return t.append_column("skeleton", s)

    ds = (
        _read(sf_dir, "documents", ["doc_id"])
        .map_batches(synth, batch_format="pyarrow")
        .map_batches(skeletonize, batch_format="pyarrow")
    )

    variants = keyed_aggregate(
        ds, ["skeleton", "domain"],
        {"n_docs": ("doc_id", "count"), "first_doc": ("doc_id", "min")},
    )
    # one row per (skeleton, domain), so counting rows counts variants
    rolled = keyed_aggregate(
        variants, ["skeleton"],
        {
            "n_variants": ("domain", "count"),
            "n_docs": ("n_docs", "sum"),
            "first_doc": ("first_doc", "min"),
        },
    )

    def flag(t: pa.Table) -> pa.Table:
        nv = t["n_variants"].to_numpy(zero_copy_only=False)
        return t.append_column("spoofed", pa.array(nv > 1, pa.bool_()))

    return rolled.map_batches(flag, batch_format="pyarrow")


SQL_HOMOGLYPH_DOMAINS = """
WITH raw AS (
  SELECT doc_id,
         CASE WHEN doc_id % 7 = 3 AND doc_id % 3 = 0
              THEN 'sіte' || (doc_id % 400) || '.com'
              WHEN doc_id % 7 = 3 AND doc_id % 3 = 1
              THEN 'sitе' || (doc_id % 400) || '.com'
              WHEN doc_id % 7 = 3 AND doc_id % 3 = 2
              THEN 'site' || (doc_id % 400) || '.cоm'
              ELSE 'site' || (doc_id % 400) || '.com' END AS domain
  FROM documents
),
sk AS (
  SELECT doc_id, domain,
         replace(replace(replace(domain, 'і', 'i'),
                         'е', 'e'),
                 'о', 'o') AS skeleton
  FROM raw
)
SELECT skeleton,
       CAST(COUNT(DISTINCT domain) AS BIGINT) AS n_variants,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       MIN(doc_id) AS first_doc,
       COUNT(DISTINCT domain) > 1 AS spoofed
FROM sk GROUP BY skeleton
"""


def q_index_merge(sf_dir: str):
    """LSM-style inverted-index SEGMENT MERGE with tombstones,
    ORACLE-CHECKED: a base segment (docs with id % 4 != 3), a delta
    segment adding the rest, and tombstones deleting every doc with
    id % 8 == 1 are merged into fresh VByte posting blocks — the
    compaction a log-structured index runs continuously, where the delta
    OVERRIDES the base (a tombstone wins over any add for the same
    (term, doc)). All three inputs flow as one tagged (term, doc, op)
    stream; blocks stay bounded by the doc_id // 128 width; per-group
    resolution is a vectorized keep = add AND NOT deleted mask; the
    surviving docs re-encode through the real varbyte codec with the
    decode-back prefix-sum checksum, so the twin (same filtered doc set,
    closed-form byte lengths) certifies the merged bytes exactly."""
    import pandas as pd

    from goose_parser_ray.functions.dedup import bucket_groups
    from goose_parser_ray.functions.varbyte import (
        decode_varbyte,
        encode_varbyte,
    )

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def tagged_pairs(t: pa.Table) -> pa.Table:
        words = pc.split_pattern(t["text"], " ")
        parent = pc.list_parent_indices(words)
        flat = pc.list_flatten(words)
        docs = pc.take(t["doc_id"].combine_chunks(), parent)
        keep = pc.not_equal(flat, "")
        df = pa.Table.from_arrays(
            [flat.filter(keep), docs.filter(keep)], names=["term", "doc_id"]
        ).to_pandas().drop_duplicates()
        # every (term, doc) is an add (base segment for id%4!=3, delta
        # segment for id%4==3 — same rows either way); tombstones ride
        # the same stream as op=1 rows for deleted docs
        d = df["doc_id"].to_numpy(np.int64)
        df["op"] = 0
        dels = df[d % 8 == 1].copy()
        dels["op"] = 1
        out = pd.concat([df, dels], ignore_index=True)
        return pa.Table.from_pandas(out, preserve_index=False)

    def merge_blocks(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        g["blk"] = g["doc_id"] // 128
        terms, blks, nds, nbys, cks = [], [], [], [], []
        for (term, blk), grp in g.groupby(["term", "blk"], sort=False):
            deleted = set(
                grp.loc[grp["op"] == 1, "doc_id"].to_numpy(np.int64)
            )
            adds = grp.loc[grp["op"] == 0, "doc_id"].to_numpy(np.int64)
            docs = np.sort(np.unique(adds[~np.isin(adds, list(deleted))]))
            if docs.size == 0:
                continue
            deltas = np.concatenate(([docs[0]], np.diff(docs)))
            payload = encode_varbyte(deltas)
            rebuilt = np.cumsum(decode_varbyte(payload))
            terms.append(term)
            blks.append(int(blk))
            nds.append(docs.size)
            nbys.append(len(payload))
            cks.append(int(rebuilt.sum()))
        return pd.DataFrame(
            {
                "term": terms,
                "blk": np.asarray(blks, np.int64),
                "n_docs": np.asarray(nds, np.int64),
                "n_bytes": np.asarray(nbys, np.int64),
                "checksum": np.asarray(cks, np.int64),
            }
        )

    return bucket_groups(
        ds.map_batches(tagged_pairs, batch_format="pyarrow"), "term",
        merge_blocks, rows=ds.count(),
    )


SQL_INDEX_MERGE = """
WITH w AS (
  SELECT DISTINCT t.term, d.doc_id
  FROM documents d,
       LATERAL (SELECT unnest(string_split(d.text, ' ')) AS term) t
  WHERE t.term <> '' AND d.doc_id % 8 != 1
),
b AS (
  SELECT term, doc_id, doc_id // 128 AS blk,
         MIN(doc_id) OVER (PARTITION BY term, doc_id // 128) AS first_doc
  FROM w
)
SELECT term, blk,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(CASE WHEN first_doc < 128 THEN 1
                 WHEN first_doc < 16384 THEN 2
                 WHEN first_doc < 2097152 THEN 3
                 WHEN first_doc < 268435456 THEN 4
                 ELSE 5 END
            + COUNT(*) - 1 AS BIGINT) AS n_bytes,
       CAST(SUM(doc_id) AS BIGINT) AS checksum
FROM b GROUP BY term, blk, first_doc
"""
