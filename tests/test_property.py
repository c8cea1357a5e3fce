"""Property-based tests (SURVEY.md §5.2-3: differential/oracle testing).

No Ray needed — these exercise the pure kernels hard:
- moment format→parse round-trip identity
- salting split→merge ≡ identity (order preservation, §7.6-3)
- selector engine vs a naive brute-force matcher on random DOMs
"""

import datetime as dt

from hypothesis import given, settings, strategies as st

from goose_parser_ray.css import compile_selector, select
from goose_parser_ray.html import parse_html
from goose_parser_ray.transforms.momentfmt import MomentFormatter, MomentParser

# --- moment round-trip -----------------------------------------------------

DATETIMES = st.datetimes(
    min_value=dt.datetime(1900, 1, 1), max_value=dt.datetime(2099, 12, 31)
).map(lambda d: d.replace(microsecond=0))

FULL_FORMATS = [
    "YYYY-MM-DDTHH:mm:ss",
    "D MMMM YYYY HH:mm:ss",
    "Do MMM YY, h:mm:ss a",
    "DD.MM.YYYY H:m:s",
]


@settings(max_examples=200, deadline=None)
@given(DATETIMES, st.sampled_from(FULL_FORMATS), st.sampled_from(["en", "ru", "de", "fr", "es"]))
def test_moment_roundtrip(d, fmt, locale):
    s = MomentFormatter(fmt, locale).format(d)
    back = MomentParser(fmt, locale).parse(s)
    if "YY" in fmt and "YYYY" not in fmt:
        # 2-digit years collapse the century; compare modulo window
        assert back is not None and back.year % 100 == d.year % 100
        assert (back.month, back.day) == (d.month, d.day)
    else:
        assert back == d, f"{d} -> {s!r} -> {back}"


# --- salting round-trip ----------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.text(alphabet="abAB ", max_size=6), min_size=0, max_size=40),
    st.integers(min_value=1, max_value=7),
)
def test_salt_split_merge_identity(texts, threshold):
    """Split one doc with normalize, take the chunks as their own extract
    output, and merge them back: the doc's spans in order, renumbered."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from goose_parser_ray.spans import DOCUMENTS_SCHEMA
    from goose_parser_ray.stages.extract import EXTRACT_OUT_SCHEMA
    from goose_parser_ray.stages.normalize import make_normalize_fn, merge_salted

    spans = [
        {"kind": "text", "text": t, "media_ref": "", "offset": i}
        for i, t in enumerate(texts)
    ]
    doc = pa.Table.from_pylist([{"doc_id": "d", "spans": spans}], schema=DOCUMENTS_SCHEMA)
    chunks = make_normalize_fn(1, threshold)(doc)
    assert chunks.num_rows == max(1, -(-len(texts) // threshold))
    extracted = pa.Table.from_arrays(
        [
            *(chunks[c] for c in ("doc_id", "salt", "n_salts", "partition_id", "spans")),
            pc.list_value_length(chunks["spans"]),
            pa.array([""] * chunks.num_rows),
        ],
        schema=EXTRACT_OUT_SCHEMA,
    )
    [merged] = merge_salted(extracted).to_pylist()
    assert [s["text"] for s in merged["spans"]] == texts
    assert [s["offset"] for s in merged["spans"]] == list(range(len(texts)))
    assert merged["n_salts"] == 1  # complete merge normalizes


# --- selector differential -------------------------------------------------

TAGS = ["div", "p", "span", "b", "ul", "li"]
CLASSES = ["a", "b", "c"]


@st.composite
def random_html(draw):
    def node(depth: int) -> str:
        tag = draw(st.sampled_from(TAGS))
        cls = draw(st.lists(st.sampled_from(CLASSES), max_size=2, unique=True))
        attr = f" class='{' '.join(cls)}'" if cls else ""
        if depth >= 3:
            return f"<{tag}{attr}>x</{tag}>"
        n = draw(st.integers(min_value=0, max_value=3))
        inner = "".join(node(depth + 1) for _ in range(n)) or "t"
        return f"<{tag}{attr}>{inner}</{tag}>"

    return "".join(node(0) for _ in range(draw(st.integers(1, 3))))


def naive_match(el, tag, cls):
    ok = tag is None or el.tag == tag
    return ok and (cls is None or cls in el.classes)


@settings(max_examples=100, deadline=None)
@given(
    random_html(),
    st.sampled_from(TAGS + [None]),
    st.sampled_from(CLASSES + [None]),
)
def test_selector_vs_naive(html, tag, cls):
    doc = parse_html(html)
    if tag is None and cls is None:
        sel = "*"
    elif tag is None:
        sel = f".{cls}"
    elif cls is None:
        sel = tag
    else:
        sel = f"{tag}.{cls}"
    got = select(compile_selector(sel), doc)
    want = [e for e in doc.iter_elements() if naive_match(e, tag, cls)]
    assert got == want


@settings(max_examples=60, deadline=None)
@given(random_html(), st.sampled_from(TAGS), st.sampled_from(TAGS))
def test_descendant_selector_vs_naive(html, outer, inner):
    doc = parse_html(html)
    got = select(compile_selector(f"{outer} {inner}"), doc)

    def ancestors(e):
        p = e.parent
        while p is not None:
            yield p
            p = p.parent

    want = [
        e
        for e in doc.iter_elements()
        if e.tag == inner and any(a.tag == outer for a in ancestors(e))
    ]
    assert got == want


# --- parser robustness fuzz -------------------------------------------------
# The extract actor quarantines per-row exceptions, but the parser itself
# must never crash or hang on arbitrary input (poison rows should be the
# exception, not a parser property).

_MARKUPISH = st.lists(
    st.sampled_from(
        list("<>/=\"' abci&;!-\n\tÀ€İß")
        + ["<b>", "</b", "<!-", "&amp", "<a href=", "<script>", "</p>"]
    ),
    max_size=60,
).map("".join)


@settings(max_examples=300, deadline=None)
@given(_MARKUPISH)
def test_parser_never_crashes_on_garbage(markup):
    doc = parse_html(markup)
    # text() must be reconstructible and selectors must run
    body = select("body", doc)
    if body:
        body[0].text()
    select("a[href], b:not(.x), p:nth-child(2n+1)", doc)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from("abc"), min_size=0, max_size=6))
def test_formatting_nesting_bounded(tags):
    # repeated unclosed formatting tags must not blow up reconstruction
    markup = "".join(f"<{t}>" for t in ["b", "i", "em"] * 4) + "x" * 3
    doc = parse_html(markup + "".join(f"<{t}>y" for t in tags))
    assert "x" in select("body", doc)[0].text()
