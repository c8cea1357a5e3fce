"""Extract stage — the hot stage (SURVEY.md §3.4 stage 4, §4.3).

``extract_batch`` is called on each normalized slice inside the one map
task per block (``pipelines.extraction.build_extraction_pipeline``), which
also writes that block, and reads it when no input file is split. Each
worker process keeps one ``ExtractActor`` (rule plans compiled in
``__init__``) per set of arguments, so later slices, waves and jobs on a
worker Ray kept idle skip the imports and the compile. The same per-process
cache runs every other constant-state batch kernel of the package
(:func:`cached_kernel`).
DOM parsing is per-document, and the whole DOM lives and dies inside
``__call__`` (never serialized into Arrow — SURVEY.md §1.2).

Poison-document quarantine (SURVEY.md §4.2): a per-row parse/eval error never
fails the task — the row is emitted with ``error`` set and empty spans, so a
10¹²-doc run cannot die on one bad document. Reject rows are filterable
downstream (``error != ''``).
"""

from __future__ import annotations

import functools
import json

import pyarrow as pa

from goose_parser_ray.rules import compile_rules
from goose_parser_ray.spans import SPAN_STRUCT, extract_document

EXTRACT_OUT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("salt", pa.int32()),  # first original chunk index in this row
        ("n_salts", pa.int32()),  # total original chunks for the doc
        ("partition_id", pa.int32()),
        ("spans", pa.list_(SPAN_STRUCT)),
        ("n_spans", pa.int32()),
        ("error", pa.string()),
    ]
)


class ExtractActor:
    """Stateful extract stage.

    ``rules``: goose rule-tree dict, or None → boilerplate-strip
    main-content mode (the flagship path).
    ``rules_registry``: per-source plan dispatch (G8 static form,
    SURVEY.md §2.1): ``{source_value: rule_tree}``; a ``"default"`` entry
    catches unmatched sources, otherwise those rows fall back to ``rules`` /
    boilerplate mode. All plans compile once per actor."""

    def __init__(
        self,
        rules: dict | None = None,
        strip_boilerplate: bool = True,
        rules_registry: dict[str, dict] | None = None,
    ) -> None:
        # once per actor: compile selectors, transform chains, classifiers
        self.plan = compile_rules(rules) if rules is not None else None
        self.registry = {
            src: compile_rules(tree) for src, tree in (rules_registry or {}).items()
        }
        self.strip_boilerplate = strip_boilerplate

    def _plan_for(self, source: str):
        if self.registry:
            plan = self.registry.get(source)
            if plan is None:
                plan = self.registry.get("default", self.plan)
            return plan
        return self.plan

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch["doc_id"].to_pylist()
        spans_col = batch["spans"].to_pylist()
        n = len(doc_ids)
        cols = batch.column_names
        salts = batch["salt"].to_pylist() if "salt" in cols else [0] * n
        n_salts = batch["n_salts"].to_pylist() if "n_salts" in cols else [1] * n
        pids = (
            batch["partition_id"].to_pylist() if "partition_id" in cols else [0] * n
        )
        sources = batch["source"].to_pylist() if "source" in cols else [""] * n

        out_spans: list[list[dict]] = []
        out_n: list[int] = []
        out_err: list[str] = []
        for doc_id, source, spans in zip(doc_ids, sources, spans_col):
            try:
                extracted = extract_document(
                    str(doc_id),
                    spans or [],
                    plan=self._plan_for("" if source is None else str(source)),
                    strip_boilerplate=self.strip_boilerplate,
                )
                out_spans.append(extracted)
                out_n.append(len(extracted))
                out_err.append("")
            except Exception as exc:  # noqa: BLE001 — quarantine, never fail
                out_spans.append([])
                out_n.append(0)
                out_err.append(f"{type(exc).__name__}: {exc}")
        return pa.Table.from_pydict(
            {
                "doc_id": [str(d) for d in doc_ids],
                "salt": salts,
                "n_salts": n_salts,
                "partition_id": pids,
                "spans": out_spans,
                "n_spans": out_n,
                "error": out_err,
            },
            schema=EXTRACT_OUT_SCHEMA,
        )


@functools.lru_cache(maxsize=8)
def _kernel(cls: type, key: str):
    return cls(**json.loads(key))


def _run_kernel(batch, *, cls: type, key: str):
    return _kernel(cls, key)(batch)


def cached_kernel(cls: type, **args):
    """The package's one way to run a batch kernel whose state is built
    from constant arguments: ``ds.map_batches(cached_kernel(cls, **args))``
    runs ``cls(**args)(batch)`` as a plain task, so Ray sizes the stage and
    reuses idle workers. Each worker process keeps the instance, under its
    class and the JSON of all its arguments, for later batches, stages and
    jobs (at most 8 instances per process). ``cls`` must be a module-level
    class, so that every task unpickles the same class object, and its
    arguments must survive a JSON round trip (tuples come back as lists).
    A kernel built from per-call arrays (query matrices, centroids) is
    instead built once on the driver and its instance handed to
    ``map_batches``: Ray ships it with the operator and frees it when the
    execution ends, so no cache holds it."""
    return functools.partial(
        _run_kernel, cls=cls, key=json.dumps(args, sort_keys=True)
    )


def extract_batch(batch: pa.Table, **args) -> pa.Table:
    """``ExtractActor(**args)(batch)``, with the actor cached per worker
    process as :func:`cached_kernel` caches any kernel."""
    return _kernel(ExtractActor, json.dumps(args, sort_keys=True))(batch)
