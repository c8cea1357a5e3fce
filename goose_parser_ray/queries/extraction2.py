"""Extraction-tier surface round 3: structured-data scrape (schema.org
microdata), rel=canonical near-duplicate collapse, and Aho–Corasick
dictionary matching.

Same synthesized-payload oracle pattern as ``q_link_graph`` /
``q_boilerplate_main``: each page is a DETERMINISTIC function of document
columns, so DuckDB states the expected output in closed form while the
engine must recover it through the real stacks (HTML5 tokenizer → tree
builder → microdata walker / selector match; multi-pattern automaton).
Any parser or automaton regression breaks the value hash.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from goose_parser_ray.queries._shared import _pool, _read


# ---------------------------------------------------------------------------
# schema.org microdata extraction (itemscope / itemtype / itemprop)
# ---------------------------------------------------------------------------


def _microdata_page(doc_id: int, headline_esc: str, n_chars: int) -> str:
    """Two items per page — a Product with a NESTED Offer item (exercises
    the nested-itemscope boundary + itemprop-carried item rows) and an
    Article whose headline round-trips entity escaping."""
    price = f"{(doc_id * 37) % 9973}.{doc_id % 100:02d}"
    avail = "InStock" if doc_id % 2 == 0 else "OutOfStock"
    return (
        "<html><body>"
        '<div itemscope itemtype="https://schema.org/Product">'
        f'<span itemprop="name">Part {doc_id}</span>'
        f'<meta itemprop="sku" content="SKU-{doc_id:06d}">'
        '<div itemprop="offers" itemscope itemtype="https://schema.org/Offer">'
        f'<meta itemprop="price" content="{price}">'
        f'<link itemprop="availability" href="https://schema.org/{avail}">'
        "</div></div>"
        '<article itemscope itemtype="https://schema.org/Article">'
        f'<h1 itemprop="headline">{headline_esc}</h1>'
        f'<span itemprop="wordCount">{n_chars}</span>'
        "</article></body></html>"
    )


class _MicrodataActor:
    """Synthesize the page, DOM-parse it, run the microdata walker, emit
    (doc_id, seq, item_type, prop, value) rows in document order."""

    def __init__(self) -> None:
        from goose_parser_ray.functions.microdata import extract_microdata
        from goose_parser_ray.html.treebuilder import parse_html

        self._parse = parse_html
        self._extract = extract_microdata

    def __call__(self, batch: pa.Table) -> pa.Table:
        from goose_parser_ray.functions.linkgraph import _escape_text

        ids = batch["doc_id"].to_pylist()
        n_chars = batch["n_chars"].to_pylist()
        # normalize BEFORE truncation so the DOM whitespace round-trip is
        # the identity and SQL can state the headline in closed form
        norm = pc.utf8_trim_whitespace(
            pc.replace_substring_regex(
                pc.coalesce(batch["text"], pa.scalar("")), r"\s+", " "
            )
        )
        heads = _escape_text(pc.utf8_slice_codeunits(norm, 0, 24)).to_pylist()
        out_id: list[int] = []
        out_seq: list[int] = []
        out_type: list[str] = []
        out_prop: list[str] = []
        out_val: list[str] = []
        for doc_id, head, nc in zip(ids, heads, n_chars):
            page = _microdata_page(doc_id, head, nc)
            for seq, (itype, prop, val) in enumerate(
                self._extract(self._parse(page))
            ):
                out_id.append(doc_id)
                out_seq.append(seq)
                out_type.append(itype)
                out_prop.append(prop)
                out_val.append(val)
        return pa.Table.from_arrays(
            [
                pa.array(out_id, pa.int64()),
                pa.array(out_seq, pa.int64()),
                pa.array(out_type, pa.string()),
                pa.array(out_prop, pa.string()),
                pa.array(out_val, pa.string()),
            ],
            names=["doc_id", "seq", "item_type", "prop", "value"],
        )


def q_microdata_extract(sf_dir: str):
    """Schema.org microdata scrape, ORACLE-CHECKED: 7 rows per document
    (Product name/sku/offers + nested Offer price/availability + Article
    headline/wordCount) recovered through the full DOM stack — tokenizer →
    tree builder → itemscope/itemprop walker with nested-item boundaries —
    while SQL states every row in closed form. The headline value
    round-trips entity escaping; ``seq`` pins document order. Map-only
    (task pool — init is two import binds), zero shuffle."""
    from goose_parser_ray.queries.extraction2 import _MicrodataActor as _A

    ds = _read(sf_dir, "documents", ["doc_id", "text", "n_chars"])
    return ds.map_batches(
        lambda t: _A()(t), batch_format="pyarrow", batch_size=512
    ).sort(["doc_id", "seq"])


SQL_MICRODATA_EXTRACT = r"""
WITH t AS (
  SELECT doc_id, n_chars,
         trim(substr(trim(regexp_replace(COALESCE(text, ''), '\s+', ' ', 'g')),
                     1, 24)) AS headline
  FROM documents
), rows_per_doc AS (
  SELECT doc_id, seq,
    CASE seq
      WHEN 0 THEN 'https://schema.org/Product'
      WHEN 1 THEN 'https://schema.org/Product'
      WHEN 2 THEN 'https://schema.org/Product'
      WHEN 3 THEN 'https://schema.org/Offer'
      WHEN 4 THEN 'https://schema.org/Offer'
      WHEN 5 THEN 'https://schema.org/Article'
      ELSE 'https://schema.org/Article' END AS item_type,
    CASE seq
      WHEN 0 THEN 'name' WHEN 1 THEN 'sku' WHEN 2 THEN 'offers'
      WHEN 3 THEN 'price' WHEN 4 THEN 'availability'
      WHEN 5 THEN 'headline' ELSE 'wordCount' END AS prop,
    CASE seq
      WHEN 0 THEN 'Part ' || CAST(doc_id AS VARCHAR)
      WHEN 1 THEN 'SKU-' || lpad(CAST(doc_id AS VARCHAR), 6, '0')
      WHEN 2 THEN 'https://schema.org/Offer'
      WHEN 3 THEN CAST((doc_id * 37) % 9973 AS VARCHAR) || '.'
                  || lpad(CAST(doc_id % 100 AS VARCHAR), 2, '0')
      WHEN 4 THEN 'https://schema.org/'
                  || CASE WHEN doc_id % 2 = 0 THEN 'InStock' ELSE 'OutOfStock' END
      WHEN 5 THEN headline
      ELSE CAST(n_chars AS VARCHAR) END AS value
  FROM t CROSS JOIN (SELECT unnest(generate_series(0, 6)) AS seq) s
)
SELECT doc_id, seq, item_type, prop, value
FROM rows_per_doc
ORDER BY doc_id, seq
"""


# ---------------------------------------------------------------------------
# rel=canonical duplicate collapse
# ---------------------------------------------------------------------------


class _CanonicalActor:
    """Synthesize a <head> with an alternate-rel decoy plus the canonical
    link, DOM-parse, select ``link[rel=canonical]``, emit (doc_id, url)."""

    def __init__(self) -> None:
        from goose_parser_ray.css.selector import compile_selector, select
        from goose_parser_ray.html.treebuilder import parse_html

        self._parse = parse_html
        self._select = select
        self._sel = compile_selector('link[rel="canonical"]')

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        out_url: list[str] = []
        for doc_id in ids:
            canon = doc_id - doc_id % 3
            page = (
                "<html><head>"
                f'<link rel="alternate" href="https://ex.com/alt/{doc_id}">'
                f'<link rel="canonical" href="https://ex.com/p/{canon}">'
                f"</head><body><p>doc {doc_id}</p></body></html>"
            )
            doc = self._parse(page)
            hits = self._select(self._sel, doc)
            if len(hits) != 1:  # fail loud: selector must hit exactly once
                raise ValueError(f"canonical selector hit {len(hits)}")
            out_url.append(hits[0].attrs.get("href", ""))
        return pa.Table.from_arrays(
            [batch["doc_id"], pa.array(out_url, pa.string())],
            names=["doc_id", "canonical"],
        )


def q_canonical_dedup(sf_dir: str):
    """rel=canonical near-duplicate collapse, ORACLE-CHECKED: extract the
    canonical URL through the real DOM stack (a rel=alternate decoy sits
    before it), then collapse documents by canonical keeping the smallest
    doc_id and the group size — the URL-level dedup a crawl corpus runs
    before any content-level near-dup pass. Scale shape: map-only extract,
    map-side (canonical → min/count) partials per batch, then one
    aggregate exchange over partials (never raw rows)."""
    from ray.data.aggregate import Min, Sum

    ds = _read(sf_dir, "documents", ["doc_id"])
    pairs = ds.map_batches(
        lambda t: _CanonicalActor()(t), batch_format="pyarrow", batch_size=512
    )

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        out = df.groupby("canonical", as_index=False).agg(
            keeper=("doc_id", "min"), n_docs=("doc_id", "size")
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    partials = pairs.map_batches(partial, batch_format="pyarrow")
    agg = partials.groupby("canonical").aggregate(
        Min("keeper", alias_name="keeper"),
        Sum("n_docs", alias_name="n_docs"),
    )
    return agg.sort("canonical")


SQL_CANONICAL_DEDUP = """
SELECT 'https://ex.com/p/' || CAST(doc_id - doc_id % 3 AS VARCHAR) AS canonical,
       MIN(doc_id) AS keeper,
       COUNT(*) AS n_docs
FROM documents
GROUP BY 1
ORDER BY canonical
"""


# ---------------------------------------------------------------------------
# Aho–Corasick dictionary matching
# ---------------------------------------------------------------------------

# Every term is BORDER-FREE (no proper prefix that is also a suffix) — the
# property that makes overlapping counts equal non-overlapping counts, so a
# replace()-arithmetic SQL twin certifies the automaton exactly. Asserted in
# tests/test_ops_r4d.py::test_dictionary_terms_border_free.
MATCH_TERMS = [
    "table",
    "scan",
    "value",
    "fast",
    "agg",
    "merge batch",
    "spark a",
    "customer",
    "join",
    "filter",
]


def q_multi_pattern_match(sf_dir: str):
    """Aho–Corasick dictionary matching, ORACLE-CHECKED: per-(doc, term)
    occurrence counts for a 10-term dictionary in ONE automaton pass per
    document (the 10^6-term blocklist/taxonomy scale path — per-term scans
    are O(terms × corpus)). Dictionary broadcast once via ray.put; counts
    include phrase terms spanning token boundaries. SQL certifies every
    count through replace()-length arithmetic (terms are border-free, see
    MATCH_TERMS). Map-only, zero shuffle."""
    from goose_parser_ray.functions.ahocorasick import multi_pattern_counts

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = multi_pattern_counts(
        ds, MATCH_TERMS, id_col="doc_id", text_col="text",
        concurrency=_pool(),
    )
    return out.sort(["doc_id", "term"])


def _match_values_sql() -> str:
    return ", ".join(f"('{t}')" for t in MATCH_TERMS)


SQL_MULTI_PATTERN_MATCH = f"""
WITH terms(term) AS (VALUES {_match_values_sql()})
SELECT d.doc_id, t.term,
       (length(COALESCE(d.text, ''))
        - length(replace(COALESCE(d.text, ''), t.term, '')))
       // length(t.term) AS n_matches
FROM documents d CROSS JOIN terms t
WHERE COALESCE(d.text, '') LIKE '%' || t.term || '%'
ORDER BY d.doc_id, t.term
"""


# ---------------------------------------------------------------------------
# G1-G4 rule-tree evaluator at the oracle gate (r5 VERDICT item 5)
# ---------------------------------------------------------------------------


def q_rules_oracle(sf_dir: str):
    """The goose rule-tree evaluator itself (simple + attr + array + GRID
    + collection + transform chain) driven through the DRIVER'S oracle
    gate, hash-checked — the conformance fixtures prove G1-G4 semantics
    against the reference's cases; this proves them through the full
    distributed pipeline with a closed-form SQL twin.

    Pages are synthesized deterministically from doc_id alone: a title
    needing trim, a table with 1+d%3 rows of (K<d*31+r>, <(d+r)%7>) cells
    keyed by class selectors (the GRID path — collection-of-collections
    over 'table tr'), a 1+d%2-item UL (array rule + trim), and nav
    anchors '/p/<(d*13+j)%500>' (attr extraction). The evaluator must
    recover the exact ordered span sequence through tokenizer → HTML5
    tree builder → compiled CSS selectors → rule tree → transform chains
    → flatten; the twin restates every span (seq, kind, text) from the
    formulas, so a wrong order, a dropped grid cell, or an untrimmed
    value breaks the hash. Scale shape: map-only synth + actor-pool
    extract, no shuffle (reference: goose-parser
    parser.parse rule semantics, README 'Parser.parse' /
    test/parser.test.js grid+collection cases)."""
    from goose_parser_ray.functions import dedup as _dedup
    from goose_parser_ray.pipelines import build_extraction_pipeline
    from goose_parser_ray.spans import DOCUMENTS_SCHEMA, make_span

    def synth(t: pa.Table) -> pa.Table:
        ids, spans = [], []
        for d in t["doc_id"].to_pylist():
            R = 1 + d % 3
            L = 1 + d % 2
            rows = "".join(
                f'<tr><td class="k">K{d * 31 + r}</td>'
                f'<td class="v">{(d + r) % 7}</td></tr>'
                for r in range(R)
            )
            lis = "".join(
                f"<li>  tag-{(d * 7 + k) % 100} </li>"
                for k in range(1, L + 1)
            )
            links = "".join(
                f'<a href="/p/{(d * 13 + j) % 500}">x</a>'
                for j in range(d % 2 + 1)
            )
            html = (
                f"<body><nav>{links}</nav><article><h1>  Item {d} </h1>"
                f"<table>{rows}</table><ul>{lis}</ul></article></body>"
            )
            ids.append(f"doc-{d:08d}")
            spans.append([make_span("html", html, "", 0)])
        return pa.Table.from_pydict(
            {"doc_id": ids, "spans": spans}, schema=DOCUMENTS_SCHEMA
        )

    rules = {
        "collection": [
            {
                "name": "title",
                "scope": "article h1",
                "transform": [{"type": "trim"}],
            },
            {
                "name": "rows",
                "scope": "table tr",
                "collection": [
                    [
                        {"name": "k", "scope": "td.k"},
                        {"name": "v", "scope": "td.v"},
                    ]
                ],
            },
            {
                "name": "tags",
                "scope": "ul li",
                "type": "array",
                "transform": [{"type": "trim"}],
            },
            {"name": "links", "scope": "nav a", "attr": "href", "type": "array"},
        ]
    }
    src = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        synth, batch_format="pyarrow"
    )
    out = build_extraction_pipeline(
        src,
        rules,
        num_partitions=_dedup._default_join_partitions(),
        salt_threshold=None,
        concurrency=_pool(),
        batch_size=32,
    )

    def flatten(t: pa.Table) -> pa.Table:
        spans = t["spans"].combine_chunks()
        parent = pc.list_parent_indices(spans)
        flat = pc.list_flatten(spans)
        return pa.Table.from_arrays(
            [
                pc.take(t["doc_id"].combine_chunks(), parent),
                pc.cast(pc.struct_field(flat, "offset"), pa.int64()),
                pc.struct_field(flat, "kind"),
                pc.struct_field(flat, "text"),
            ],
            names=["doc_id", "seq", "kind", "text"],
        )

    return out.map_batches(flatten, batch_format="pyarrow")


SQL_RULES_ORACLE = """
WITH d AS (
  SELECT doc_id, 1 + doc_id % 3 AS R, 1 + doc_id % 2 AS L FROM documents
),
spans AS (
  SELECT doc_id, 0 AS seq, 'Item ' || doc_id AS text FROM d
  UNION ALL
  SELECT d.doc_id, 1 + 2 * r.r + c.c AS seq,
         CASE WHEN c.c = 0 THEN 'K' || (d.doc_id * 31 + r.r)
              ELSE CAST((d.doc_id + r.r) % 7 AS VARCHAR) END AS text
  FROM d,
       UNNEST(generate_series(0, d.R - 1)) AS r(r),
       UNNEST(generate_series(0, 1)) AS c(c)
  UNION ALL
  SELECT d.doc_id, 2 * d.R + k.k AS seq,
         'tag-' || ((d.doc_id * 7 + k.k) % 100) AS text
  FROM d, UNNEST(generate_series(1, d.L)) AS k(k)
  UNION ALL
  SELECT d.doc_id, 2 * d.R + d.L + 1 + j.j AS seq,
         '/p/' || ((d.doc_id * 13 + j.j) % 500) AS text
  FROM d, UNNEST(generate_series(0, d.doc_id % 2)) AS j(j)
)
SELECT 'doc-' || lpad(CAST(doc_id AS VARCHAR), 8, '0') AS doc_id,
       CAST(seq AS BIGINT) AS seq,
       'text' AS kind,
       text
FROM spans
"""


# ---------------------------------------------------------------------------
# responsive-image srcset extraction (r5)
# ---------------------------------------------------------------------------


class _SrcsetActor:
    """DOM-parse the page, select img[srcset], split the srcset attribute
    into (url, descriptor) candidates in document order — the responsive-
    image harvesting step of an image-corpus crawler."""

    def __init__(self) -> None:
        from goose_parser_ray.css.selector import compile_selector, select
        from goose_parser_ray.html.treebuilder import parse_html

        self._parse = parse_html
        self._sel = compile_selector("img[srcset]")
        self._select = select

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_id, out_seq, out_url, out_desc = [], [], [], []
        for d in batch["doc_id"].to_pylist():
            k = 1 + d % 3
            imgs = "".join(
                f'<img srcset="/i/{(d * 7 + j) % 500}.jpg 1x, '
                f'/i/{(d * 7 + j) % 500}@2x.jpg 2x, '
                f'/i/{(d * 7 + j) % 500}w.jpg {320 + 16 * (d % 5)}w" '
                f'src="/i/{(d * 7 + j) % 500}.jpg">'
                for j in range(k)
            )
            page = f"<html><body><article>{imgs}</article></body></html>"
            seq = 0
            for el in self._select(self._sel, self._parse(page)):
                for cand in el.attrs.get("srcset", "").split(","):
                    parts = cand.strip().split()
                    if not parts:
                        continue
                    out_id.append(d)
                    out_seq.append(seq)
                    out_url.append(parts[0])
                    out_desc.append(parts[1] if len(parts) > 1 else "1x")
                    seq += 1
        return pa.Table.from_arrays(
            [
                pa.array(out_id, pa.int64()),
                pa.array(out_seq, pa.int64()),
                pa.array(out_url, pa.string()),
                pa.array(out_desc, pa.string()),
            ],
            names=["doc_id", "seq", "url", "descriptor"],
        )


def q_srcset_extract(sf_dir: str):
    """Responsive-image ``srcset`` harvesting, ORACLE-CHECKED: pages carry
    1+d%3 ``<img srcset>`` elements with three candidates each (1x, 2x,
    and a width descriptor); the engine recovers every (url, descriptor)
    through the REAL stack — tokenizer → tree builder → compiled
    ``img[srcset]`` attribute selector → the WHATWG comma/space candidate
    split — while the twin restates the candidate list arithmetically.
    A dropped candidate, a wrong order, or a descriptor default bug
    breaks the hash. Scale shape: map-only task pool, no shuffle
    (reference: goose-parser simple-rule attr extraction applied to the
    image-corpus crawl)."""
    return _read(sf_dir, "documents", ["doc_id"]).map_batches(
        lambda t: _SrcsetActor()(t), batch_format="pyarrow", batch_size=64
    )


SQL_SRCSET_EXTRACT = """
WITH img AS (
  SELECT d.doc_id, j.j,
         (d.doc_id * 7 + j.j) % 500 AS b,
         320 + 16 * (d.doc_id % 5) AS wdesc
  FROM documents d, UNNEST(generate_series(0, d.doc_id % 3)) AS j(j)
),
cand AS (
  SELECT doc_id, j * 3 + 0 AS seq, '/i/' || b || '.jpg' AS url,
         '1x' AS descriptor FROM img
  UNION ALL
  SELECT doc_id, j * 3 + 1, '/i/' || b || '@2x.jpg', '2x' FROM img
  UNION ALL
  SELECT doc_id, j * 3 + 2, '/i/' || b || 'w.jpg',
         CAST(wdesc AS VARCHAR) || 'w' FROM img
)
SELECT doc_id, CAST(seq AS BIGINT) AS seq, url, descriptor FROM cand
"""


# ---------------------------------------------------------------------------
# pagination chain reconstruction (r5): rel=prev links -> chain head + pos
# ---------------------------------------------------------------------------


def q_pagination_chains(sf_dir: str):
    """Static pagination-chain reconstruction, ORACLE-CHECKED: every page
    carries a ``<link rel="prev">`` to its predecessor (docs form chains
    of 10 by construction: d links to d−1 unless d%10==0); the engine
    EXTRACTS the edges through the real DOM stack (tokenizer → tree
    builder → ``link[rel=prev]`` attr read), then resolves every page to
    its chain HEAD + position with ``functions.graph.resolve_redirects``
    pointer doubling (ceil(log2(hops)) rounds — the crawl-side sibling of
    the HTTP-301 resolver; browser-driven pagination stays out of scope
    per the driver mandate, this is its static-DOM half). The twin states
    head = d − d%10 and pos = d%10 closed-form. Scale shape: map-only
    extract, then the tiered pointer-doubling resolver."""
    from goose_parser_ray.css.selector import compile_selector, select
    from goose_parser_ray.functions.graph import resolve_redirects
    from goose_parser_ray.html.treebuilder import parse_html

    class PrevActor:
        def __init__(self) -> None:
            self._sel = compile_selector("link[rel=prev]")

        def __call__(self, t: pa.Table) -> pa.Table:
            u, cur, hops, done = [], [], [], []
            for d in t["doc_id"].to_pylist():
                prev = d - 1 if d % 10 != 0 else None
                head = (
                    '<link rel="prev" href="/doc/%d">' % prev
                    if prev is not None
                    else ""
                )
                page = (
                    f"<html><head>{head}</head><body>"
                    f"<article>page {d}</article></body></html>"
                )
                doc = parse_html(page)
                tgt = None
                for el in select(self._sel, doc):
                    href = el.attrs.get("href", "")
                    tgt = int(href.rsplit("/", 1)[-1])
                u.append(d)
                cur.append(tgt if tgt is not None else d)
                hops.append(1 if tgt is not None else 0)
                done.append(tgt is None)
            return pa.Table.from_pydict(
                {
                    "u": pa.array(u, pa.int64()),
                    "cur": pa.array(cur, pa.int64()),
                    "hops": pa.array(hops, pa.int64()),
                    "done": pa.array(done, pa.bool_()),
                }
            )

    state = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        lambda t: PrevActor()(t), batch_format="pyarrow", batch_size=128
    )
    resolved = resolve_redirects(state, hop_cap=16)
    return resolved.map_batches(
        lambda t: pa.Table.from_pydict(
            {
                "doc_id": t["u"],
                "chain_head": t["cur"],
                "position": t["hops"],
            }
        ),
        batch_format="pyarrow",
    )


SQL_PAGINATION_CHAINS = """
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(doc_id - doc_id % 10 AS BIGINT) AS chain_head,
       CAST(doc_id % 10 AS BIGINT) AS position
FROM documents
"""
