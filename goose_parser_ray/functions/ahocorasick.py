"""Aho–Corasick multi-pattern matching as a broadcast-dictionary stage.

The scale op: blocklist / taxonomy / keyword-dictionary matching over a
corpus where the dictionary has 10^4–10^6 terms. A per-term scan is
O(terms × corpus); the automaton is one pass per document regardless of
dictionary size. The dictionary rides in the task's arguments, the
automaton is built once per worker process (``stages.extract.cached_kernel``),
and each batch is a pure scan.

Counts are ALL (overlapping) match occurrences per pattern — the standard
automaton semantics. For patterns with no proper border (no prefix that is
also a suffix) overlapping == non-overlapping counts, which is what lets a
``replace()``-arithmetic SQL twin certify the automaton exactly (see
queries/extraction2.py).
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pyarrow as pa
import ray.data


class AhoCorasick:
    """Classic goto/fail/output automaton over unicode codepoints."""

    def __init__(self, patterns: list[str]) -> None:
        if not patterns:
            raise ValueError("AhoCorasick needs at least one pattern")
        self.patterns = list(patterns)
        # goto: list of dict[ch -> state]; out: list of list[pattern index]
        self._goto: list[dict[str, int]] = [{}]
        self._out: list[list[int]] = [[]]
        for idx, pat in enumerate(self.patterns):
            if not pat:
                raise ValueError("empty pattern")
            s = 0
            for ch in pat:
                nxt = self._goto[s].get(ch)
                if nxt is None:
                    nxt = len(self._goto)
                    self._goto[s][ch] = nxt
                    self._goto.append({})
                    self._out.append([])
                s = nxt
            self._out[s].append(idx)
        # BFS failure links; merge output sets along fail chains so a match
        # of a pattern that is a suffix of another is reported at the same
        # position (the "all occurrences" contract).
        self._fail = [0] * len(self._goto)
        q: deque[int] = deque()
        for ch, s in self._goto[0].items():
            q.append(s)
        while q:
            r = q.popleft()
            for ch, s in self._goto[r].items():
                q.append(s)
                f = self._fail[r]
                while f and ch not in self._goto[f]:
                    f = self._fail[f]
                self._fail[s] = self._goto[f].get(ch, 0)
                if self._fail[s] == s:  # root self-loop guard
                    self._fail[s] = 0
                self._out[s] = self._out[s] + self._out[self._fail[s]]

    def count_all(self, text: str) -> np.ndarray:
        """Occurrence count per pattern (overlapping), one pass."""
        counts = np.zeros(len(self.patterns), dtype=np.int64)
        s = 0
        goto, fail, out = self._goto, self._fail, self._out
        for ch in text:
            while s and ch not in goto[s]:
                s = fail[s]
            s = goto[s].get(ch, 0)
            if out[s]:
                for idx in out[s]:
                    counts[idx] += 1
        return counts


class MultiPatternActor:
    """Batch kernel: automaton built once per init from the dictionary,
    per-batch scan emits (id, term, n_matches>0)."""

    def __init__(self, patterns: list[str], id_col: str, text_col: str) -> None:
        self._ac = AhoCorasick(patterns)
        self._id = id_col
        self._text = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self._id].to_pylist()
        texts = batch[self._text].to_pylist()
        out_id: list = []
        out_term: list[str] = []
        out_n: list[int] = []
        pats = self._ac.patterns
        for i, txt in zip(ids, texts):
            counts = self._ac.count_all(txt or "")
            for j in np.nonzero(counts)[0]:
                out_id.append(i)
                out_term.append(pats[j])
                out_n.append(int(counts[j]))
        return pa.Table.from_arrays(
            [
                pa.array(out_id, pa.int64()),
                pa.array(out_term, pa.string()),
                pa.array(out_n, pa.int64()),
            ],
            names=[self._id, "term", "n_matches"],
        )


def multi_pattern_counts(
    ds: ray.data.Dataset,
    patterns: list[str],
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> ray.data.Dataset:
    """Per-(doc, term) overlapping occurrence counts (terms with 0 matches
    are not emitted). Map-only, no shuffle."""
    from goose_parser_ray.stages.extract import cached_kernel

    return ds.map_batches(
        cached_kernel(
            MultiPatternActor, patterns=list(patterns), id_col=id_col,
            text_col=text_col,
        ),
        batch_format="pyarrow",
    )
