"""Heuristic boilerplate classifier — main-content extraction (SURVEY.md §7.4).

Readability-style, no ML dependency: link-density / text-density per block
plus tag and class/id hints. Gates which ``kind='html'`` content becomes
output text spans in the flagship pipeline (north_rule: "HTML boilerplate
strip ... DOM heuristics").

Deterministic by construction — pure functions of the DOM, no randomness, no
locale/OS dependence (SURVEY.md §7.6-7).
"""

from __future__ import annotations

import re

from goose_parser_ray.html.dom import Element, Text

# subtrees that are never content
BOILER_TAGS = frozenset(
    "nav footer aside script style noscript form button iframe svg select "
    "head template".split()
)

# class/id tokens that mark furniture (checked token-wise, lowercase)
BOILER_HINTS = frozenset(
    "nav navbar menu footer header sidebar side-bar comment comments ad ads "
    "advert banner breadcrumb breadcrumbs pagination pager share social "
    "promo cookie copyright widget related subscribe newsletter".split()
)

# block elements whose text is emitted as one content block
CONTENT_BLOCKS = frozenset(
    "p h1 h2 h3 h4 h5 h6 li pre blockquote td th figcaption dt dd".split()
)

_WS = re.compile(r"\s+")

# A container this link-dense with this little text is navigation, not prose.
LINK_DENSITY_MAX = 0.55
LINK_DENSITY_MIN_TEXT = 200


def _hint_tokens(el: Element) -> set[str]:
    toks = set(el.classes)
    if el.id:
        toks.update(el.id.split())
    return {t.lower() for t in toks}


def _subtree_stats(root: Element) -> None:
    """One post-order pass storing (text_chars, link_text_chars) straight on
    each element (``_chars``/``_link`` slots — no id()-keyed dict, which was
    ~40% of this pass in the extract hot-loop profile). Replaces per-level
    ``el.text()`` recomputation (was O(depth × n) on deep trees)."""
    stack: list[tuple[Element, bool]] = [(root, False)]
    while stack:
        el, done = stack.pop()
        if not done:
            stack.append((el, True))
            for c in el.children:
                if isinstance(c, Element):
                    stack.append((c, False))
        else:
            chars = 0
            link = 0
            for c in el.children:
                if isinstance(c, Element):
                    chars += c._chars
                    link += c._link
                else:
                    chars += len(c.data.strip())
            el._chars = chars
            el._link = chars if el.tag == "a" else link


def _is_boiler(el: Element) -> bool:
    if el.tag in BOILER_TAGS:
        return True
    if el.tag == "header" and el.parent is not None and el.parent.tag == "body":
        return True  # page-level header; article-level <header> survives
    if (el.attrs.get("class") or el.attrs.get("id")) and (
        _hint_tokens(el) & BOILER_HINTS
    ):
        return True
    if el.tag in ("div", "section", "ul", "ol", "table"):
        text_len = el._chars
        if text_len == 0:
            return False
        if text_len < LINK_DENSITY_MIN_TEXT:
            if el._link / text_len > LINK_DENSITY_MAX:
                return True
    return False


def is_boilerplate(el: Element) -> bool:
    """Should this element's whole subtree be dropped? (public API; the
    bulk path precomputes stats once per document)."""
    _subtree_stats(el)
    return _is_boiler(el)


def extract_main_text(root: Element) -> list[str]:
    """Main-content text blocks in document order, whitespace-normalized.

    One entry per content block (CONTENT_BLOCKS leaf, or a div with direct
    text but no block children). Boilerplate subtrees are pruned before
    emission."""
    blocks: list[str] = []
    _subtree_stats(root)  # one pass, reused at every level

    def norm(s: str) -> str:
        return _WS.sub(" ", s).strip()

    def walk(el: Element, inside_block: bool) -> None:
        for child in el.children:
            if isinstance(child, Text):
                continue
            if _is_boiler(child):
                continue
            if child.tag in CONTENT_BLOCKS and not inside_block:
                has_sub_blocks = any(
                    isinstance(c, Element) and c.tag in CONTENT_BLOCKS
                    for c in child.children
                )
                if has_sub_blocks:
                    walk(child, inside_block=False)
                else:
                    t = norm(child.text())
                    if t:
                        blocks.append(t)
                continue
            if child.tag == "div":
                has_block_children = any(
                    isinstance(c, Element)
                    and (c.tag in CONTENT_BLOCKS or c.tag in ("div", "section"))
                    for c in child.children
                )
                if not has_block_children:
                    t = norm(child.text())
                    if t:
                        blocks.append(t)
                    continue
            walk(child, inside_block)

    walk(root, inside_block=False)
    return blocks
