"""Web-curation surface round 2: boilerplate main-content extraction at the
oracle gate, HTML5 encoding sniffing, sitemap ingestion, crawl frontier.

These four close the crawl-side loop around the existing robots.txt / URL /
link-graph queries (upstream context: goose-parser consumes pages a browser
already fetched and decoded — SURVEY.md §2.5; at 100 TB the engine owns
those fetch-adjacent steps itself). Same synthesized-payload oracle pattern
as ``q_link_graph``: the page/sitemap/byte-stream is a DETERMINISTIC
function of document columns, so DuckDB states the expected output in
closed form while the engine must recover it through the real parsing
stacks (HTML5 tree builder + boilerplate classifier, prescan byte scanner,
strict XML parser). Any parser regression breaks the value hash.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from goose_parser_ray.functions.relational import keyed_aggregate
from goose_parser_ray.queries._shared import _read


# ---------------------------------------------------------------------------
# boilerplate main-content extraction (the flagship classifier, oracle-paired)
# ---------------------------------------------------------------------------


class _BoilerplateActor:
    """Synthesize a furniture-laden page around each document's text, run the
    REAL readability stack (tokenizer → HTML5 tree builder →
    ``boilerplate.extract_main_text``), emit the surviving content blocks.

    The nav / ad-div / footer / share-bar blocks are constants; the one
    varying block is the document text (entity-escaped into the markup). A
    classifier or parser change that leaks furniture into the output — or
    drops a content block — changes ``n_blocks``/``main_text`` and breaks
    the oracle hash."""

    def __init__(self) -> None:
        # compile-once imports (keeps per-batch work to the parse kernel)
        from goose_parser_ray.boilerplate import extract_main_text
        from goose_parser_ray.html.treebuilder import parse_html

        self._parse = parse_html
        self._extract = extract_main_text

    def __call__(self, batch: pa.Table) -> pa.Table:
        from goose_parser_ray.functions.linkgraph import _escape_text

        ids = batch["doc_id"].to_pylist()
        texts = _escape_text(batch["text"]).to_pylist()
        n_blocks: list[int] = []
        main_text: list[str] = []
        for doc_id, esc in zip(ids, texts):
            page = (
                "<html><body>"
                '<nav class="menu"><a href="/">Home</a><a href="/a">About</a></nav>'
                '<div class="ads"><a href="/buy">Buy now!!!</a></div>'
                f"<article><h1>Title {doc_id}</h1><p>{esc}</p></article>"
                f'<div class="content"><p>Second block {doc_id}</p></div>'
                "<footer>&#169; site</footer>"
                "</body></html>"
            )
            blocks = self._extract(self._parse(page))
            n_blocks.append(len(blocks))
            main_text.append(" | ".join(blocks))
        return pa.Table.from_arrays(
            [
                pa.array(ids, pa.int64()),
                pa.array(n_blocks, pa.int64()),
                pa.array(main_text, pa.string()),
            ],
            names=["doc_id", "n_blocks", "main_text"],
        )


def q_boilerplate_main(sf_dir: str):
    """Main-content extraction (readability/jusText shape), ORACLE-CHECKED.

    The flagship's boilerplate classifier has until now been exercised only
    through rows-only extraction queries; here its exact block output is
    value-hashed. Map-only (actor pool, parse kernel per doc — same cost
    model as the extraction flagship); no shuffle."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = ds.map_batches(
        # task pool: init is two import binds — actor spin-up costs more
        # than it saves (media_png measurement)
        lambda t: _BoilerplateActor()(t),
        batch_format="pyarrow",
        batch_size=512,
    )
    return out.sort("doc_id")


SQL_BOILERPLATE_MAIN = r"""
WITH t AS (
  SELECT doc_id, trim(regexp_replace(text, '\s+', ' ', 'g')) AS nt
  FROM documents
)
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(CASE WHEN nt = '' THEN 2 ELSE 3 END AS BIGINT) AS n_blocks,
       'Title ' || doc_id || ' | '
         || CASE WHEN nt = '' THEN '' ELSE nt || ' | ' END
         || 'Second block ' || doc_id AS main_text
FROM t
ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# HTML5 encoding sniffing (BOM + meta prescan)
# ---------------------------------------------------------------------------

_PAD = b"<p>" + b"pad " * 300 + b"</p>"  # pushes a late meta past the window


def _charset_payload(doc_id: int) -> bytes:
    """Deterministic byte payload per document — eight prescan shapes
    including comment/attribute/text decoys and an out-of-window meta."""
    v = doc_id % 8
    if v == 0:
        return b"\xef\xbb\xbf<html><head></head><body>hi</body></html>"
    if v == 1:
        return b"\xff\xfe" + "<html><body>hi</body></html>".encode("utf-16-le")
    if v == 2:
        return b"\xfe\xff" + "<html><body>hi</body></html>".encode("utf-16-be")
    if v == 3:
        return (
            b'<!-- <meta charset="utf-7"> -->'
            b'<meta charset="ISO-8859-1"><title>x</title>'
        )
    if v == 4:
        return (
            b'<html><head><meta http-equiv="Content-Type" '
            b'content="text/html; charset=windows-1250"></head></html>'
        )
    if v == 5:
        return (
            b'<meta content="text/html; charset=UTF-16BE" '
            b'http-equiv="content-type">'
        )
    if v == 6:
        return b"<head><meta charset=x-user-defined></head>"
    return (
        b'<a href="?charset=utf-8">x</a><p>charset=koi8-r</p>'
        + _PAD
        + b'<meta charset="utf-8">'
    )


def q_charset_prescan(sf_dir: str):
    """HTML5 encoding sniffing (WHATWG §13.2.3.2 BOM + prescan),
    ORACLE-CHECKED. Eight payload shapes per ``doc_id % 8``: three BOMs, a
    comment-decoy meta, a content-type pragma, a declared utf-16 (rewritten
    to utf-8 per spec), an unquoted x-user-defined, and a page whose only
    real meta sits past the 1024-byte window behind attribute/text decoys.
    The sniffer must skip comments, parse attributes with the spec's `get
    an attribute` routine, and honor the window — shortcut regexes fail the
    decoys. Map-only byte scan; no shuffle."""
    from goose_parser_ray.functions.charsniff import sniff_encoding

    ds = _read(sf_dir, "documents", ["doc_id"])

    def sniff(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        enc: list[str] = []
        src: list[str] = []
        for i in ids:
            e, s = sniff_encoding(_charset_payload(i))
            enc.append(e)
            src.append(s)
        return pa.Table.from_arrays(
            [
                pa.array(ids, pa.int64()),
                pa.array(enc, pa.string()),
                pa.array(src, pa.string()),
            ],
            names=["doc_id", "encoding", "source"],
        )

    return ds.map_batches(sniff, batch_format="pyarrow").sort("doc_id")


SQL_CHARSET_PRESCAN = """
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CASE doc_id % 8
         WHEN 0 THEN 'utf-8'      WHEN 1 THEN 'utf-16le'
         WHEN 2 THEN 'utf-16be'   WHEN 3 THEN 'windows-1252'
         WHEN 4 THEN 'windows-1250' WHEN 5 THEN 'utf-8'
         WHEN 6 THEN 'windows-1252' ELSE 'windows-1252'
       END AS encoding,
       CASE doc_id % 8
         WHEN 0 THEN 'bom' WHEN 1 THEN 'bom' WHEN 2 THEN 'bom'
         WHEN 7 THEN 'default' ELSE 'meta'
       END AS source
FROM documents
ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# sitemap ingestion (strict XML → frontier candidates)
# ---------------------------------------------------------------------------


def _sitemap_xml(doc_id: int) -> str:
    n = doc_id % 5 + 1
    site = doc_id % 10
    entries = []
    for k in range(1, n + 1):
        month = (doc_id + k) % 12 + 1
        if (doc_id + k) % 7 == 0:
            path = f"/private/x{k}"
        else:
            path = f"/p/{(doc_id * 11 + k) % 500}"
        entries.append(
            f"<url><loc>https://site{site}.com{path}</loc>"
            f"<lastmod>2026-{month:02d}-01</lastmod></url>"
        )
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">'
        + "".join(entries)
        + "</urlset>"
    )


def q_sitemap_urls(sf_dir: str):
    """Sitemap ingestion (sitemaps.org protocol), ORACLE-CHECKED: one XML
    sitemap per document is parsed with the STRICT mini-XML parser
    (``functions/xmlmini.py`` — no HTML-style recovery), then filtered the
    way a frontier builder would: drop entries last modified before June
    and anything under ``/private/`` (the robots-disallowed prefix from
    ``q_robots_rules``). Filters read the PARSED ``<loc>``/``<lastmod>``
    values, so an entity-decoding or nesting bug surfaces as a hash
    mismatch. Map-only; no shuffle."""
    from goose_parser_ray.functions.xmlmini import parse_sitemap

    ds = _read(sf_dir, "documents", ["doc_id"])

    def expand(t: pa.Table) -> pa.Table:
        out_id: list[int] = []
        out_url: list[str] = []
        out_mod: list[str] = []
        for doc_id in t["doc_id"].to_pylist():
            for ent in parse_sitemap(_sitemap_xml(doc_id)):
                loc, lastmod = ent["loc"], ent["lastmod"]
                if int(lastmod[5:7]) < 6:
                    continue
                path = loc.split(".com", 1)[1]
                if path.startswith("/private/"):
                    continue
                out_id.append(doc_id)
                out_url.append(loc)
                out_mod.append(lastmod)
        return pa.Table.from_arrays(
            [
                pa.array(out_id, pa.int64()),
                pa.array(out_url, pa.string()),
                pa.array(out_mod, pa.string()),
            ],
            names=["doc_id", "url", "lastmod"],
        )

    return ds.map_batches(expand, batch_format="pyarrow").sort(
        ["doc_id", "url"]
    )


SQL_SITEMAP_URLS = """
WITH e AS (
  SELECT d.doc_id,
         (d.doc_id + g.k) % 12 + 1 AS month,
         ((d.doc_id + g.k) % 7 = 0) AS priv,
         'https://site' || (d.doc_id % 10) || '.com'
           || CASE WHEN (d.doc_id + g.k) % 7 = 0 THEN '/private/x' || g.k
                   ELSE '/p/' || (d.doc_id * 11 + g.k) % 500 END AS url
  FROM documents d,
       LATERAL (SELECT unnest(generate_series(1, d.doc_id % 5 + 1)) AS k) g
)
SELECT CAST(doc_id AS BIGINT) AS doc_id, url,
       '2026-' || lpad(CAST(month AS VARCHAR), 2, '0') || '-01' AS lastmod
FROM e
WHERE month >= 6 AND NOT priv
ORDER BY doc_id, url
"""


# ---------------------------------------------------------------------------
# crawl frontier (link graph → uncrawled targets, politeness-capped)
# ---------------------------------------------------------------------------


def q_crawl_frontier(sf_dir: str):
    """Crawl-frontier construction, ORACLE-CHECKED: hyperlink targets are
    recovered through the REAL extraction stack (``extract_links`` — the
    same tokenizer → tree builder → ``a[href]`` selector path as
    ``q_link_graph``), restricted to uncrawled pages (synthetic partial
    crawl: ``dst % 4 == 0``), in-degree-ranked, and politeness-capped at 5
    per domain (``dst % 10``). The shuffle moves only per-(batch, dst)
    partials; the per-domain cap is the two-phase top-N (map-side head →
    per-domain exact rank)."""
    from goose_parser_ray.functions.linkgraph import extract_links

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    edges = extract_links(ds)

    def uncrawled(t: pa.Table) -> pa.Table:
        dst = t["dst"]
        mod4 = pc.subtract(dst, pc.multiply(pc.divide(dst, 4), pa.scalar(4, pa.int64())))
        return t.filter(pc.equal(mod4, 0))

    edges = edges.map_batches(uncrawled, batch_format="pyarrow")
    deg = keyed_aggregate(edges, ["dst"], {"in_degree": ("dst", "count")})

    def add_domain(t: pa.Table) -> pa.Table:
        dst = t["dst"]
        dom = pc.subtract(
            dst, pc.multiply(pc.divide(dst, 10), pa.scalar(10, pa.int64()))
        )
        return pa.Table.from_arrays(
            [pc.cast(dom, pa.int64()), dst, t["in_degree"]],
            names=["domain", "dst", "in_degree"],
        )

    deg = deg.map_batches(add_domain, batch_format="pyarrow")

    def local_top(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df.sort_values(
            ["domain", "in_degree", "dst"], ascending=[True, False, True]
        )
        return pa.Table.from_pandas(
            df.groupby("domain", as_index=False).head(5), preserve_index=False
        )

    def final_top(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["domain", "in_degree", "dst"], ascending=[True, False, True]
        )
        out = g.groupby("domain", as_index=False).head(5).copy()
        out["rnk"] = out.groupby("domain").cumcount() + 1
        return out.sort_values(["domain", "dst"])

    deg = deg.map_batches(local_top, batch_format="pyarrow")
    return deg.groupby("domain").map_groups(final_top, batch_format="pandas")


SQL_CRAWL_FRONTIER = """
WITH edges AS (
  SELECT CAST((d.doc_id * 7 + g.k) % 1000 AS BIGINT) AS dst
  FROM documents d,
       LATERAL (SELECT unnest(generate_series(1, d.doc_id % 3 + 1)) AS k) g
), deg AS (
  SELECT dst, CAST(COUNT(*) AS BIGINT) AS in_degree
  FROM edges WHERE dst % 4 = 0 GROUP BY dst
), r AS (
  SELECT CAST(dst % 10 AS BIGINT) AS domain, dst, in_degree,
         ROW_NUMBER() OVER (PARTITION BY dst % 10
                            ORDER BY in_degree DESC, dst ASC) AS rnk
  FROM deg
)
SELECT domain, dst, in_degree, CAST(rnk AS BIGINT) AS rnk
FROM r WHERE rnk <= 5
ORDER BY domain, dst
"""


# ---------------------------------------------------------------------------
# RSS feed ingestion (crawl discovery, sibling of sitemap_urls)
# ---------------------------------------------------------------------------


def _rss_xml(doc_id: int) -> str:
    n = doc_id % 4 + 1
    site = doc_id % 10
    items = []
    for k in range(1, n + 1):
        title = f"Item {doc_id}-{k}" + (" &amp; more" if k % 2 == 0 else "")
        day = (doc_id + k) % 28 + 1
        items.append(
            f"<item><title>{title}</title>"
            f"<link>https://site{site}.com/a/{(doc_id * 13 + k) % 700}</link>"
            f"<pubDate>2026-07-{day:02d}</pubDate></item>"
        )
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<rss version="2.0"><channel><title>feed</title>'
        + "".join(items)
        + "</channel></rss>"
    )


def q_feed_parse(sf_dir: str):
    """RSS 2.0 feed ingestion, ORACLE-CHECKED: one feed per document is
    parsed with the strict mini-XML parser (``xmlmini.parse_rss``) and
    filtered to fresh items (parsed pubDate day ≥ 15) — the crawl
    refresh-discovery sibling of q_sitemap_urls. Titles carry entity
    escapes on even items, so the decode path is value-hashed. Map-only."""
    from goose_parser_ray.functions.xmlmini import parse_rss

    ds = _read(sf_dir, "documents", ["doc_id"])

    def expand(t: pa.Table) -> pa.Table:
        out_id: list[int] = []
        out_title: list[str] = []
        out_link: list[str] = []
        out_day: list[int] = []
        for doc_id in t["doc_id"].to_pylist():
            for item in parse_rss(_rss_xml(doc_id)):
                day = int(item["pubdate"][8:10])
                if day < 15:
                    continue
                out_id.append(doc_id)
                out_title.append(item["title"])
                out_link.append(item["link"])
                out_day.append(day)
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "title": pa.array(out_title, pa.string()),
                "link": pa.array(out_link, pa.string()),
                "pub_day": pa.array(out_day, pa.int64()),
            }
        )

    return ds.map_batches(expand, batch_format="pyarrow").sort(
        ["doc_id", "link"]
    )


SQL_FEED_PARSE = """
WITH e AS (
  SELECT d.doc_id, g.k,
         (d.doc_id + g.k) % 28 + 1 AS day,
         'Item ' || d.doc_id || '-' || g.k
           || CASE WHEN g.k % 2 = 0 THEN ' & more' ELSE '' END AS title,
         'https://site' || (d.doc_id % 10) || '.com/a/'
           || (d.doc_id * 13 + g.k) % 700 AS link
  FROM documents d,
       LATERAL (SELECT unnest(generate_series(1, d.doc_id % 4 + 1)) AS k) g
)
SELECT CAST(doc_id AS BIGINT) AS doc_id, title, link,
       CAST(day AS BIGINT) AS pub_day
FROM e WHERE day >= 15
ORDER BY doc_id, link
"""


# ---------------------------------------------------------------------------
# full encoding decision (BOM > HTTP header > meta prescan > default)
# ---------------------------------------------------------------------------


def q_http_charset(sf_dir: str):
    """The COMPLETE fetch-side encoding decision, ORACLE-CHECKED: byte-order
    mark beats the transport layer beats the meta prescan beats the
    windows-1252 default (WHATWG sniffing precedence), with the
    Content-Type charset parameter parsed per RFC 9110 (quoted-string
    values, case-insensitive names, unknown labels skipped). Six
    (header, payload) shapes per ``doc_id % 6`` cover every precedence
    edge. Map-only byte scan."""
    from goose_parser_ray.functions.charsniff import decide_encoding

    ds = _read(sf_dir, "documents", ["doc_id"])

    def variant(doc_id: int) -> tuple[str | None, bytes]:
        v = doc_id % 6
        if v == 0:
            return "text/html; charset=koi8-r", b"\xef\xbb\xbf<html>x</html>"
        if v == 1:
            return "text/html; charset=ISO-8859-2", b'<meta charset="utf-8">'
        if v == 2:
            return "text/html", b'<meta charset="windows-1251">'
        if v == 3:
            return 'text/html; charset="EUC-KR"', b"<html>x</html>"
        if v == 4:
            return "text/html; charset=bogus-enc", b"<meta charset=shift_jis>"
        return None, b"<html>plain</html>"

    def decide(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        enc: list[str] = []
        src: list[str] = []
        for i in ids:
            ct, body = variant(i)
            e, s = decide_encoding(ct, body)
            enc.append(e)
            src.append(s)
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "encoding": pa.array(enc, pa.string()),
                "source": pa.array(src, pa.string()),
            }
        )

    return ds.map_batches(decide, batch_format="pyarrow").sort("doc_id")


SQL_HTTP_CHARSET = """
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CASE doc_id % 6
         WHEN 0 THEN 'utf-8'        WHEN 1 THEN 'iso-8859-2'
         WHEN 2 THEN 'windows-1251' WHEN 3 THEN 'euc-kr'
         WHEN 4 THEN 'shift_jis'    ELSE 'windows-1252'
       END AS encoding,
       CASE doc_id % 6
         WHEN 0 THEN 'bom'    WHEN 1 THEN 'header'
         WHEN 2 THEN 'meta'   WHEN 3 THEN 'header'
         WHEN 4 THEN 'meta'   ELSE 'default'
       END AS source
FROM documents
ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# Atom feed ingestion (attribute-carried links, self-closing tags)
# ---------------------------------------------------------------------------


def _atom_xml(doc_id: int) -> str:
    n = doc_id % 3 + 1
    site = doc_id % 10
    entries = []
    for k in range(1, n + 1):
        day = (doc_id * 3 + k) % 28 + 1
        # decoy self-rel link BEFORE the alternate one: rel selection is
        # value-hashed, a first-link shortcut fails
        entries.append(
            f"<entry><title>Post {doc_id}/{k}</title>"
            f'<link rel="self" href="https://site{site}.com/feed.xml"/>'
            f'<link rel="alternate" href="https://site{site}.com/p/'
            f'{(doc_id * 17 + k) % 800}"/>'
            f"<updated>2026-06-{day:02d}T00:00:00Z</updated></entry>"
        )
    return (
        '<?xml version="1.0" encoding="utf-8"?>\n'
        '<feed xmlns="http://www.w3.org/2005/Atom"><title>f</title>'
        + "".join(entries)
        + "</feed>"
    )


def q_atom_feed(sf_dir: str):
    """Atom 1.0 feed ingestion, ORACLE-CHECKED — the attribute-carried-link
    sibling of q_feed_parse: entry links live in self-closing ``<link
    rel=... href=...>`` elements with a decoy ``rel="self"`` link first,
    so attribute parsing AND rel selection are value-hashed (a text-node
    or first-link shortcut fails the hash). Filters on the PARSED
    ``updated`` day (≥ 10). Map-only."""
    from goose_parser_ray.functions.xmlmini import parse_atom

    ds = _read(sf_dir, "documents", ["doc_id"])

    def expand(t: pa.Table) -> pa.Table:
        out_id: list[int] = []
        out_title: list[str] = []
        out_href: list[str] = []
        out_day: list[int] = []
        for doc_id in t["doc_id"].to_pylist():
            for ent in parse_atom(_atom_xml(doc_id)):
                day = int(ent["updated"][8:10])
                if day < 10:
                    continue
                out_id.append(doc_id)
                out_title.append(ent["title"])
                out_href.append(ent["href"])
                out_day.append(day)
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "title": pa.array(out_title, pa.string()),
                "href": pa.array(out_href, pa.string()),
                "upd_day": pa.array(out_day, pa.int64()),
            }
        )

    return ds.map_batches(expand, batch_format="pyarrow").sort(
        ["doc_id", "href"]
    )


SQL_ATOM_FEED = """
WITH e AS (
  SELECT d.doc_id, g.k,
         (d.doc_id * 3 + g.k) % 28 + 1 AS day,
         'Post ' || d.doc_id || '/' || g.k AS title,
         'https://site' || (d.doc_id % 10) || '.com/p/'
           || (d.doc_id * 17 + g.k) % 800 AS href
  FROM documents d,
       LATERAL (SELECT unnest(generate_series(1, d.doc_id % 3 + 1)) AS k) g
)
SELECT CAST(doc_id AS BIGINT) AS doc_id, title, href,
       CAST(day AS BIGINT) AS upd_day
FROM e WHERE day >= 10
ORDER BY doc_id, href
"""


# ---------------------------------------------------------------------------
# redirect-chain resolution (distributed pointer doubling over a 301 map)
# ---------------------------------------------------------------------------


def q_redirect_resolve(sf_dir: str):
    """HTTP-redirect chain resolution by DISTRIBUTED POINTER DOUBLING,
    ORACLE-CHECKED: each URL's single 301 target is a data row (u -> t),
    and resolution composes the partial-path relation with itself --
    after round r every row knows where it lands 2^r hops out, so the
    16-hop cap needs FOUR rounds, not sixteen. Fixture chains: most URLs
    step down to the previous id until a multiple of 8 (terminal); ids
    ending 98/99 per hundred form a 2-cycle, and the ids above them
    drain INTO the cycle -- so the output contains resolved rows
    (status ok, true hop count, final target) and cycle-trapped rows
    (status unresolved, -1s), and the recursive-CTE twin certifies
    both. The heavy lifting is ``functions.graph.resolve_redirects``,
    tiered like the other iterative graph ops: vectorized driver
    doubling under the 5M-node guard, one safe_join per round on the
    landing key past it (state stays one node-bounded row per URL --
    never pairs; parity across tiers is pytest-enforced)."""
    import numpy as np

    from goose_parser_ray.functions.graph import resolve_redirects

    ds = _read(sf_dir, "documents", ["doc_id"])
    n = ds.count()

    def init(t: pa.Table) -> pa.Table:
        import numpy as np

        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        is98 = d % 100 == 98
        is99 = d % 100 == 99
        chain = (d % 8 != 0) & ~is98 & ~is99
        nxt = np.where(is98, d + 1, np.where(is99 | chain, d - 1, d))
        done = ~(is98 | is99 | chain)
        return pa.Table.from_pydict(
            {
                "u": pa.array(d, pa.int64()),
                "cur": pa.array(nxt, pa.int64()),
                "hops": pa.array(np.where(done, 0, 1), pa.int64()),
                "done": pa.array(done, pa.bool_()),
            }
        )

    state = resolve_redirects(
        ds.map_batches(init, batch_format="pyarrow"), n
    )

    def finish(t: pa.Table) -> pa.Table:
        import numpy as np

        done = t["done"].to_numpy(zero_copy_only=False)
        cur = t["cur"].to_numpy(zero_copy_only=False)
        hops = t["hops"].to_numpy(zero_copy_only=False)
        return pa.Table.from_pydict(
            {
                "doc_id": t["u"],
                "status": pa.array(
                    np.where(done, "ok", "unresolved").tolist(), pa.string()
                ),
                "final_doc": pa.array(np.where(done, cur, -1), pa.int64()),
                "n_hops": pa.array(np.where(done, hops, -1), pa.int64()),
            }
        )

    return state.map_batches(finish, batch_format="pyarrow")


SQL_REDIRECT_RESOLVE = """
WITH RECURSIVE chase(u, cur, hops) AS (
  SELECT doc_id, doc_id, 0 FROM documents
  UNION ALL
  SELECT u,
         CASE WHEN cur % 100 = 98 THEN cur + 1
              WHEN cur % 100 = 99 THEN cur - 1
              ELSE cur - 1 END,
         hops + 1
  FROM chase
  WHERE hops < 16
    AND (cur % 100 IN (98, 99) OR cur % 8 != 0)
),
last AS (
  SELECT u, cur, hops,
         ROW_NUMBER() OVER (PARTITION BY u ORDER BY hops DESC) AS rn
  FROM chase
)
SELECT u AS doc_id,
       CASE WHEN cur % 100 NOT IN (98, 99) AND cur % 8 = 0
            THEN 'ok' ELSE 'unresolved' END AS status,
       CASE WHEN cur % 100 NOT IN (98, 99) AND cur % 8 = 0
            THEN cur ELSE -1 END AS final_doc,
       CAST(CASE WHEN cur % 100 NOT IN (98, 99) AND cur % 8 = 0
                 THEN hops ELSE -1 END AS BIGINT) AS n_hops
FROM last WHERE rn = 1
"""
