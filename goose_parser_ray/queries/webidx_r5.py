"""Round-5 crawl-index + parser-conformance surface: SURT/CDX index keys,
raw HTTP header parsing, DOM depth statistics (tree-builder stress), and
an HTML entity-decoding conformance query at the oracle gate.

Same synthesized-payload oracle pattern as ``extraction2``: pages/records
are DETERMINISTIC functions of doc_id, the engine recovers structure
through the REAL stacks (string pipeline / tokenizer → tree builder →
selector), and DuckDB restates the expected output in closed form.
Reference: goose-parser's DOM/static-evaluation surface (parser.parse,
test/parser.test.js entity + nesting cases) extended to the crawl-index
ops (SURT is the Wayback/OpenWayback CDX key convention).
"""

from __future__ import annotations

import pyarrow as pa

from goose_parser_ray.queries._shared import _read


# ---------------------------------------------------------------------------
# SURT keys + CDX-style index sort
# ---------------------------------------------------------------------------


def q_surt_index(sf_dir: str):
    """SURT (Sort-friendly URI Reordering Transform) index keys — the
    Wayback CDX convention that makes per-site ranges contiguous under a
    plain sort — ORACLE-CHECKED: per doc a host with 2-3 labels and a
    path are synthesized, the engine computes the real transform
    (lowercase, strip www., reverse host labels joined by commas, ')'
    separator, then path) and GLOBALLY SORTS the index (the CDX write
    order); the twin restates the key with list ops and ORDER BY. Scale
    shape: map-only key build + one sort — exactly the production CDX
    writer plan."""

    def build(t: pa.Table) -> pa.Table:
        keys = []
        ids = t["doc_id"].to_pylist()
        for d in ids:
            sub = f"a{d % 5}." if d % 3 == 0 else ""
            www = "www." if d % 2 == 1 else ""
            host = f"{www}{sub}Example{d % 50}.{'com' if d % 2 == 0 else 'org'}"
            path = f"/p/{d % 100}"
            labels = host.lower().split(".")
            if labels[0] == "www":
                labels = labels[1:]
            keys.append(",".join(reversed(labels)) + ")" + path)
        return pa.Table.from_pydict(
            {"urlkey": pa.array(keys, pa.string()), "doc_id": t["doc_id"]}
        )

    return (
        _read(sf_dir, "documents", ["doc_id"])
        .map_batches(build, batch_format="pyarrow")
        .sort(["urlkey", "doc_id"])
    )


SQL_SURT_INDEX = """
WITH u AS (
  SELECT doc_id,
         lower(CASE WHEN doc_id % 3 = 0 THEN 'a' || (doc_id % 5) || '.'
                    ELSE '' END
               || 'Example' || (doc_id % 50)
               || CASE WHEN doc_id % 2 = 0 THEN '.com' ELSE '.org' END)
           AS host,
         '/p/' || (doc_id % 100) AS path
  FROM documents
)
SELECT array_to_string(list_reverse(string_split(host, '.')), ',')
         || ')' || path AS urlkey,
       doc_id
FROM u
ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
# raw HTTP response header parsing (the WARC-record sibling)
# ---------------------------------------------------------------------------


def q_http_headers(sf_dir: str):
    """Raw HTTP/1.1 response-header parsing, ORACLE-CHECKED: per doc a
    real header block is synthesized as bytes (status line + CRLF headers
    with mixed-case names and a parameterized Content-Type), and the
    engine parses it the way a WARC ingest must — split on CRLF,
    case-insensitive header names, charset= parameter extraction —
    emitting (status, mime, charset, content_length). The twin restates
    the fields from the same arithmetic. Scale shape: map-only."""
    _CODES = [200, 200, 301, 404, 503]

    def synth_parse(t: pa.Table) -> pa.Table:
        st, mi, cs, cl = [], [], [], []
        for d in t["doc_id"].to_pylist():
            code = _CODES[d % 5]
            sub = "html" if d % 2 == 0 else "plain"
            charset = "utf-8" if d % 3 != 0 else "ISO-8859-1"
            length = 100 + d % 1000
            raw = (
                f"HTTP/1.1 {code} X\r\n"
                f"cOnTent-TyPe: text/{sub}; charset={charset}\r\n"
                f"Content-LENGTH: {length}\r\n"
                f"X-Cache: {'HIT' if d % 4 == 0 else 'MISS'}\r\n\r\n"
            ).encode("latin-1")
            # --- real parse (no knowledge of the synth formulas) ---
            text = raw.decode("latin-1")
            head, _, _ = text.partition("\r\n\r\n")
            lines = head.split("\r\n")
            status = int(lines[0].split(" ")[1])
            hdrs = {}
            for ln in lines[1:]:
                name, _, val = ln.partition(":")
                hdrs[name.strip().lower()] = val.strip()
            ctype = hdrs.get("content-type", "")
            mime, _, params = ctype.partition(";")
            charset_out = ""
            for p in params.split(";"):
                k, _, v = p.strip().partition("=")
                if k.lower() == "charset":
                    charset_out = v.strip().lower()
            st.append(status)
            mi.append(mime.strip().lower())
            cs.append(charset_out)
            cl.append(int(hdrs.get("content-length", "-1")))
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "status": pa.array(st, pa.int64()),
                "mime": pa.array(mi, pa.string()),
                "charset": pa.array(cs, pa.string()),
                "content_length": pa.array(cl, pa.int64()),
            }
        )

    return _read(sf_dir, "documents", ["doc_id"]).map_batches(
        synth_parse, batch_format="pyarrow", batch_size=512
    )


SQL_HTTP_HEADERS = """
SELECT doc_id,
       CAST(CASE doc_id % 5 WHEN 0 THEN 200 WHEN 1 THEN 200 WHEN 2 THEN 301
            WHEN 3 THEN 404 ELSE 503 END AS BIGINT) AS status,
       'text/' || CASE WHEN doc_id % 2 = 0 THEN 'html' ELSE 'plain' END
         AS mime,
       CASE WHEN doc_id % 3 <> 0 THEN 'utf-8' ELSE 'iso-8859-1' END
         AS charset,
       CAST(100 + doc_id % 1000 AS BIGINT) AS content_length
FROM documents
"""


# ---------------------------------------------------------------------------
# DOM depth statistics (tree-builder nesting stress at the oracle gate)
# ---------------------------------------------------------------------------


def q_dom_depth(sf_dir: str):
    """DOM structural statistics through the REAL HTML5 tree builder,
    ORACLE-CHECKED: per doc a div chain of depth k = 1 + d%12 is nested
    (each level also holding a <span> leaf), and the engine walks the
    parsed tree recursively for max element depth and element count. The
    implicit html/body insertion is part of what is checked: max_depth =
    k + 2 (span under the deepest div, html at depth 0), n_elements =
    2k + 2. A tree builder that mis-nests ANY level breaks the hash.
    Scale shape: map-only actor-pool parse."""
    from goose_parser_ray.html.treebuilder import parse_html

    def walk(el, depth=0):
        mx, cnt = depth, 1
        for c in el.child_elements():
            m, n = walk(c, depth + 1)
            mx = max(mx, m)
            cnt += n
        return mx, cnt

    def stats(t: pa.Table) -> pa.Table:
        md, ne = [], []
        for d in t["doc_id"].to_pylist():
            k = 1 + d % 12
            page = (
                "<html><body>"
                + "".join(f"<div><span>s{i}</span>" for i in range(k))
                + "</div>" * k
                + "</body></html>"
            )
            doc = parse_html(page)
            root = doc.child_elements()[0]
            mx, cnt = walk(root)
            md.append(mx)
            ne.append(cnt)
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "max_depth": pa.array(md, pa.int64()),
                "n_elements": pa.array(ne, pa.int64()),
            }
        )

    return _read(sf_dir, "documents", ["doc_id"]).map_batches(
        stats, batch_format="pyarrow", batch_size=128
    )


SQL_DOM_DEPTH = """
SELECT doc_id,
       CAST(1 + doc_id % 12 + 2 AS BIGINT) AS max_depth,
       CAST(2 * (1 + doc_id % 12) + 2 AS BIGINT) AS n_elements
FROM documents
"""


# ---------------------------------------------------------------------------
# HTML entity-decoding conformance at the oracle gate
# ---------------------------------------------------------------------------

# (escaped source, HTML5-decoded expectation) — named, decimal, hex,
# astral-plane, and double-escaped forms; verified against the spec.
_ENTITY_CASES = [
    ("&amp;", "&"),
    ("&lt;b&gt;", "<b>"),
    ("&#65;&#x42;", "AB"),
    ("&quot;q&quot;", '"q"'),
    ("&#128169;", "\U0001F4A9"),
    ("&nbsp;", " "),
    ("&copy; 2024", "© 2024"),
    ("&amp;amp;", "&amp;"),
    ("&#x1F600;", "\U0001F600"),
    ("&eacute;", "é"),
]


def q_entity_decode(sf_dir: str):
    """HTML entity-decoding conformance driven through the DRIVER'S
    oracle gate (named, decimal, hex, astral, and double-escaped
    references — the cases that break naive decoders): doc d embeds
    entity case d%10 in a <p>, the engine decodes it through the real
    tokenizer + tree builder + selector text(), and the twin states the
    HTML5-correct expansion for each case as a literal. One wrong
    codepoint anywhere breaks the hash. Scale shape: map-only."""
    from goose_parser_ray.css.selector import compile_selector, select
    from goose_parser_ray.html.treebuilder import parse_html

    sel = compile_selector("p")

    def decode(t: pa.Table) -> pa.Table:
        out = []
        ids = t["doc_id"].to_pylist()
        for d in ids:
            src = _ENTITY_CASES[d % len(_ENTITY_CASES)][0]
            doc = parse_html(f"<html><body><p>{src}</p></body></html>")
            out.append(select(sel, doc)[0].text())
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "decoded": pa.array(out, pa.string())}
        )

    return _read(sf_dir, "documents", ["doc_id"]).map_batches(
        decode, batch_format="pyarrow", batch_size=256
    )


def _entity_decode_sql() -> str:
    cases = "\n       ".join(
        "WHEN {} THEN '{}'".format(
            i, exp.replace("'", "''")
        )
        for i, (_, exp) in enumerate(_ENTITY_CASES)
    )
    return f"""
SELECT doc_id,
       CASE doc_id % {len(_ENTITY_CASES)}
       {cases}
       END AS decoded
FROM documents
"""


SQL_ENTITY_DECODE = _entity_decode_sql()


# ---------------------------------------------------------------------------
# link locality + hreflang clusters (web-curation signals)
# ---------------------------------------------------------------------------


def q_link_locality(sf_dir: str):
    """Internal/external link-locality signal, ORACLE-CHECKED (the
    boilerplate/quality feature: nav-heavy pages link internally,
    spam/aggregators externally): each page carries 1+d%4 anchors, link j
    internal (path href) unless (d+j)%3==0 (absolute https to another
    host); the engine classifies REAL extracted hrefs by scheme presence
    through tokenizer → tree builder → ``a[href]`` selector; the twin
    counts both classes closed-form. Scale shape: map-only."""
    from goose_parser_ray.css.selector import compile_selector, select
    from goose_parser_ray.html.treebuilder import parse_html

    sel = compile_selector("a[href]")

    def stats(t: pa.Table) -> pa.Table:
        ni, ne = [], []
        for d in t["doc_id"].to_pylist():
            k = 1 + d % 4
            anchors = "".join(
                (
                    f'<a href="https://ext{j}.example.org/x{d}">e</a>'
                    if (d + j) % 3 == 0
                    else f'<a href="/p/{d * 3 + j}">i</a>'
                )
                for j in range(k)
            )
            page = f"<html><body><nav>{anchors}</nav></body></html>"
            doc = parse_html(page)
            n_int = n_ext = 0
            for el in select(sel, doc):
                href = el.attrs.get("href", "")
                if "://" in href:
                    n_ext += 1
                else:
                    n_int += 1
            ni.append(n_int)
            ne.append(n_ext)
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "n_internal": pa.array(ni, pa.int64()),
                "n_external": pa.array(ne, pa.int64()),
            }
        )

    return _read(sf_dir, "documents", ["doc_id"]).map_batches(
        stats, batch_format="pyarrow", batch_size=256
    )


SQL_LINK_LOCALITY = """
WITH l AS (
  SELECT d.doc_id, j.j,
         CASE WHEN (d.doc_id + j.j) % 3 = 0 THEN 1 ELSE 0 END AS ext
  FROM documents d, UNNEST(generate_series(0, d.doc_id % 4)) AS j(j)
)
SELECT doc_id,
       CAST(SUM(1 - ext) AS BIGINT) AS n_internal,
       CAST(SUM(ext) AS BIGINT) AS n_external
FROM l GROUP BY doc_id
"""


def q_hreflang_clusters(sf_dir: str):
    """hreflang alternate-cluster resolution, ORACLE-CHECKED (the i18n
    dedup step: language variants of one page must collapse to one
    canonical group before content dedup): docs form clusters of 3
    (head = d − d%3), and every member lists ``<link rel=alternate
    hreflang>`` for ALL 3 members (alternates may reference pages outside
    the crawl — realistic and checked). The
    engine extracts the member ids through the real DOM stack and emits
    (doc, cluster = min member, n_alternates); the twin states head and
    size arithmetically. Scale shape: map-only extract (cluster id is
    derivable per page — the connected-components fallback is only
    needed for inconsistent alternate sets)."""
    from goose_parser_ray.css.selector import compile_selector, select
    from goose_parser_ray.html.treebuilder import parse_html

    sel = compile_selector("link[rel=alternate]")

    def stats(t: pa.Table) -> pa.Table:
        cl, na = [], []
        ids = t["doc_id"].to_pylist()
        for d in ids:
            h = d - d % 3
            # alternates may reference not-yet-crawled pages — list all 3
            members = (h, h + 1, h + 2)
            links = "".join(
                f'<link rel="alternate" hreflang="l{i}" href="/doc/{m}">'
                for i, m in enumerate(members)
            )
            page = f"<html><head>{links}</head><body>x</body></html>"
            doc = parse_html(page)
            got = []
            for el in select(sel, doc):
                href = el.attrs.get("href", "")
                got.append(int(href.rsplit("/", 1)[-1]))
            cl.append(min(got))
            na.append(len(got))
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "cluster": pa.array(cl, pa.int64()),
                "n_alternates": pa.array(na, pa.int64()),
            }
        )

    return _read(sf_dir, "documents", ["doc_id"]).map_batches(
        stats, batch_format="pyarrow", batch_size=256
    )


SQL_HREFLANG_CLUSTERS = """
SELECT doc_id,
       CAST(doc_id - doc_id % 3 AS BIGINT) AS cluster,
       CAST(3 AS BIGINT) AS n_alternates
FROM documents
"""


# ---------------------------------------------------------------------------
# meta-robots gate + base-href relative URL resolution (r5 finale)
# ---------------------------------------------------------------------------


def q_meta_robots(sf_dir: str):
    """``<meta name=robots>`` directive gate, ORACLE-CHECKED — the
    page-level half of the robots protocol (robots.txt is the crawl-side
    half, q_robots_rules): pages carry one of five directive strings by
    d%5 (including the all/empty defaults and a mixed-case, padded
    form); the engine extracts the content attribute through the real
    DOM stack and evaluates index/follow per the de-facto rule
    (token-split on commas, case/space-insensitive, noindex/nofollow
    win). The twin states both flags closed-form. Scale shape:
    map-only."""
    from goose_parser_ray.css.selector import compile_selector, select
    from goose_parser_ray.html.treebuilder import parse_html

    _DIRS = ["noindex,nofollow", "NoIndex , follow", "", "all",
             "index,NOFOLLOW"]
    sel = compile_selector("meta[name=robots]")

    def gate(t: pa.Table) -> pa.Table:
        idx, fol = [], []
        for d in t["doc_id"].to_pylist():
            directive = _DIRS[d % 5]
            meta = (
                f'<meta name="robots" content="{directive}">'
                if directive
                else ""
            )
            page = f"<html><head>{meta}</head><body>x</body></html>"
            doc = parse_html(page)
            content = ""
            for el in select(sel, doc):
                content = el.attrs.get("content", "")
            toks = {s.strip().lower() for s in content.split(",")}
            idx.append(0 if "noindex" in toks else 1)
            fol.append(0 if "nofollow" in toks else 1)
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "indexable": pa.array(idx, pa.int64()),
                "followable": pa.array(fol, pa.int64()),
            }
        )

    return _read(sf_dir, "documents", ["doc_id"]).map_batches(
        gate, batch_format="pyarrow", batch_size=256
    )


SQL_META_ROBOTS = """
SELECT doc_id,
       CAST(CASE doc_id % 5 WHEN 0 THEN 0 WHEN 1 THEN 0 ELSE 1 END
            AS BIGINT) AS indexable,
       CAST(CASE doc_id % 5 WHEN 0 THEN 0 WHEN 4 THEN 0 ELSE 1 END
            AS BIGINT) AS followable
FROM documents
"""


def q_base_href(sf_dir: str):
    """``<base href>`` relative-URL resolution, ORACLE-CHECKED — the
    RFC 3986 merge every link extractor must apply before URLs are
    comparable: pages declare a base and one anchor whose reference form
    cycles through the seven canonical cases (dot-dot, dot, absolute
    path, nested relative, query-only, fragment-only,
    protocol-relative); the engine reads both through the real DOM stack
    and resolves with the reference-merge algorithm; the twin states
    every resolved URL closed-form. A wrong dot-segment pop or a dropped
    authority breaks the hash. Scale shape: map-only."""
    from urllib.parse import urljoin

    from goose_parser_ray.css.selector import compile_selector, select
    from goose_parser_ray.html.treebuilder import parse_html

    _REFS = ["../c", "./d", "/abs/e", "f/g", "?q=1", "#frag",
             "//cdn.ex.org/h"]
    sel_base = compile_selector("base[href]")
    sel_a = compile_selector("a[href]")

    def resolve(t: pa.Table) -> pa.Table:
        out = []
        for d in t["doc_id"].to_pylist():
            base = f"https://ex{d % 9}.com/a/b/index.html"
            ref = _REFS[d % 7]
            page = (
                f'<html><head><base href="{base}"></head>'
                f'<body><a href="{ref}">x</a></body></html>'
            )
            doc = parse_html(page)
            b = select(sel_base, doc)[0].attrs["href"]
            r = select(sel_a, doc)[0].attrs["href"]
            out.append(urljoin(b, r))
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "resolved": pa.array(out, pa.string())}
        )

    return _read(sf_dir, "documents", ["doc_id"]).map_batches(
        resolve, batch_format="pyarrow", batch_size=256
    )


SQL_BASE_HREF = """
SELECT doc_id,
       'https://' ||
       CASE doc_id % 7
         WHEN 6 THEN 'cdn.ex.org/h'
         ELSE 'ex' || (doc_id % 9) || '.com' ||
           CASE doc_id % 7
             WHEN 0 THEN '/a/c'
             WHEN 1 THEN '/a/b/d'
             WHEN 2 THEN '/abs/e'
             WHEN 3 THEN '/a/b/f/g'
             WHEN 4 THEN '/a/b/index.html?q=1'
             ELSE '/a/b/index.html#frag'
           END
       END AS resolved
FROM documents
"""
