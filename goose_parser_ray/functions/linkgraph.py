"""Link-graph extraction: drive the real DOM parser over a corpus and emit
the hyperlink edge list.

This is the web-curation shape the extraction engine exists for (upstream:
goose-parser evaluates CSS-scoped rules against a parsed DOM — SURVEY.md
§2.1 G5): every document is parsed with the from-scratch HTML5 tree builder,
``a[href]`` anchors are matched with the compiled CSS selector engine, and
the (src, dst) edges stream out as a normal Arrow table — feed them to
``functions.graph.pagerank_distributed`` / ``triangle_count`` downstream.

Scale shape: plain tasks, each batch compiling the selector once (micro-
seconds); per-batch work is the DOM parse kernel (inherently per-
document, same kernel as the extraction flagship) plus vectorized Arrow
string assembly/escaping around it. No shuffle — the edge list is map-only;
the in-degree rollup downstream uses the partial/combiner pattern so the
exchange carries one row per (batch, dst).

For the oracle-paired query the corpus HTML is synthesized DETERMINISTICALLY
from (doc_id, text): doc ``i`` links to ``(i*7 + k) % 1000`` for
``k = 1 .. (i % 3) + 1``. SQL can therefore state the expected edge set in
closed form (LATERAL generate_series) while the engine path has to recover
it the hard way — tokenizer → tree builder → selector → attribute read —
through arbitrary document text (entity-escaped into the markup). Any parser
regression that drops/duplicates/reorders anchors breaks the hash match.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from goose_parser_ray.css.selector import compile_selector, select
from goose_parser_ray.html.treebuilder import parse_html

LINK_MOD = 1000  # dst id space for the synthetic graph (SQL twin uses it)


def _escape_text(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Entity-escape document text for embedding in element content.

    ``&`` first (else the escapes themselves get re-escaped), then the tag
    delimiters — text containing ``</body>`` or raw ``&lt;`` round-trips
    through the tokenizer back to the original document text.
    """
    out = pc.replace_substring(col, "&", "&amp;")
    out = pc.replace_substring(out, "<", "&lt;")
    return pc.replace_substring(out, ">", "&gt;")


def synthesize_page(doc_id: int, text: str) -> str:
    """One synthetic page (scalar reference used by the actor and tests)."""
    n = doc_id % 3 + 1
    links = "".join(
        f'<li><a href="/doc/{(doc_id * 7 + k) % LINK_MOD}">ref {k}</a></li>'
        for k in range(1, n + 1)
    )
    esc = (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
    return (
        f"<html><body><h1>doc {doc_id}</h1><p>{esc}</p>"
        f"<ul>{links}</ul></body></html>"
    )


class LinkExtractActor:
    """Actor-pool stage: synthesize page markup, DOM-parse it, select
    ``a[href]`` anchors, emit (src, dst) edges.

    Selector compiled once per actor. The per-document Python loop is the
    DOM parse kernel itself (same cost model as the extraction flagship,
    ~0.2 ms/doc); everything around it is Arrow-vectorized.
    """

    def __init__(self) -> None:
        self._sel = compile_selector("a[href]")

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = _escape_text(batch["text"]).to_pylist()
        src: list[int] = []
        dst: list[int] = []
        for doc_id, esc in zip(ids, texts):
            n = doc_id % 3 + 1
            links = "".join(
                f'<li><a href="/doc/{(doc_id * 7 + k) % LINK_MOD}">'
                f"ref {k}</a></li>"
                for k in range(1, n + 1)
            )
            page = (
                f"<html><body><h1>doc {doc_id}</h1><p>{esc}</p>"
                f"<ul>{links}</ul></body></html>"
            )
            doc = parse_html(page)
            for el in select(self._sel, doc):
                href = el.attrs.get("href", "")
                # href shape is "/doc/<int>" by construction; a parser bug
                # that mangles the attribute value raises here (fail loud,
                # the oracle hash would catch silent drops anyway).
                src.append(doc_id)
                dst.append(int(href.rsplit("/", 1)[1]))
        return pa.Table.from_arrays(
            [pa.array(src, pa.int64()), pa.array(dst, pa.int64())],
            names=["src", "dst"],
        )


def extract_links(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Corpus → (src, dst) hyperlink edge list via the real DOM engine.

    Task pool, not actor pool: the stage's only state is one compiled
    selector (microseconds), so actor spin-up costs more than it saves
    (media_png measurement — stage wall 3.0s → 1.4s at sf0.1/32 CPUs)."""
    return ds.map_batches(
        lambda t: LinkExtractActor()(t), batch_format="pyarrow", batch_size=512
    )


class MetaExtractActor:
    """Actor-pool stage: synthesize a page with a real <head> (title +
    description/og:type meta tags), DOM-parse it, and read the fields back
    through compiled selectors — the standard page-metadata scrape
    (upstream goose-parser pipelines read head elements constantly).

    Selectors compiled once per actor; the per-document loop is the DOM
    parse kernel itself. Title/description round-trip through entity
    escaping, so a tokenizer or attribute-read bug breaks the closed-form
    SQL twin's hash."""

    def __init__(self) -> None:
        self._title = compile_selector("title")
        self._desc = compile_selector('meta[name="description"]')
        self._og = compile_selector('meta[property="og:type"]')

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        sources = batch["source"].to_pylist()
        titles: list[str] = []
        descs: list[str] = []
        ogs: list[str] = []
        for doc_id, text, source in zip(ids, texts, sources):
            snippet = (text or "")[:40]
            esc = (
                snippet.replace("&", "&amp;")
                .replace("<", "&lt;")
                .replace(">", "&gt;")
                .replace('"', "&quot;")
            )
            og = "website" if doc_id % 2 == 0 else "article"
            page = (
                f"<html><head><title>doc {doc_id} - {source}</title>"
                f'<meta name="description" content="{esc}">'
                f'<meta property="og:type" content="{og}">'
                f"</head><body><p>body</p></body></html>"
            )
            doc = parse_html(page)
            t = select(self._title, doc)
            d = select(self._desc, doc)
            o = select(self._og, doc)
            titles.append(t[0].text() if t else "")
            descs.append(d[0].attrs.get("content", "") if d else "")
            ogs.append(o[0].attrs.get("content", "") if o else "")
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "title": pa.array(titles, pa.string()),
                "description": pa.array(descs, pa.string()),
                "og_type": pa.array(ogs, pa.string()),
            }
        )


def extract_meta(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Corpus → (doc_id, title, description, og_type) via the DOM engine.
    Task pool (selector-compile init is microseconds — see extract_links)."""
    return ds.map_batches(
        lambda t: MetaExtractActor()(t), batch_format="pyarrow", batch_size=512
    )


class AnchorTextActor:
    """Actor-pool stage: synthesize the same page markup as
    :class:`LinkExtractActor`, DOM-parse it, and emit (dst, anchor) rows
    where ``anchor`` is the link's RENDERED TEXT read through
    ``Element.text()`` — the web-curation anchor-text signal (what other
    pages call a target). Reading text content instead of an attribute
    exercises the tree builder's character-data path; a tokenizer bug
    that splits or drops text nodes changes the anchor strings and breaks
    the closed-form oracle."""

    def __init__(self) -> None:
        self._sel = compile_selector("a[href]")

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = _escape_text(batch["text"]).to_pylist()
        dst: list[int] = []
        anchor: list[str] = []
        for doc_id, esc in zip(ids, texts):
            page = synthesize_page_from_escaped(doc_id, esc)
            doc = parse_html(page)
            for el in select(self._sel, doc):
                href = el.attrs.get("href", "")
                dst.append(int(href.rsplit("/", 1)[1]))
                anchor.append(el.text())
        return pa.Table.from_arrays(
            [pa.array(dst, pa.int64()), pa.array(anchor, pa.string())],
            names=["dst", "anchor"],
        )


def synthesize_page_from_escaped(doc_id: int, esc: str) -> str:
    """LinkExtractActor's page template over already-escaped text (shared
    so the two link stages can never drift apart)."""
    n = doc_id % 3 + 1
    links = "".join(
        f'<li><a href="/doc/{(doc_id * 7 + k) % LINK_MOD}">ref {k}</a></li>'
        for k in range(1, n + 1)
    )
    return (
        f"<html><body><h1>doc {doc_id}</h1><p>{esc}</p>"
        f"<ul>{links}</ul></body></html>"
    )
