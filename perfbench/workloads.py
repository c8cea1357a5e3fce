"""Seeded workload inputs, the job each workload times, and its correctness gate.

Every generator is a pure function of the seed. Inputs are written as parquet
fragments under ``.bench_cache/<workload>-s<seed>-<digest>/`` in the working
directory (the repository root), where the digest covers this file, so any
change to a generator starts a fresh cache; a finished directory carries a
``_DONE`` marker and is reused by later runs with the same seed.

The program under test is driven only through its public functions:
``pipelines.extract_corpus``, ``stages.extract.ExtractActor``,
``queries.QUERIES`` / ``queries.ORACLE_SQL`` and the ``sources.corpus``
generators.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import shutil
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

GEN_DIGEST = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:12]
CACHE_DIR = Path(".bench_cache")
CASES_DIR = Path("fixtures") / "cases"  # the conformance case pool

# sf0.1 `documents` look-alike: 30-word vocabulary, 10-100 words per doc,
# five languages, twenty sources (the schema of the sf0.1 testdata table)
VOCAB = (
    "a the data row column table scan filter join group agg sort hash merge "
    "window stream batch vector query key value order line part customer "
    "spark fast slow big small"
).split()
LANGS = ("en", "zh", "es", "fr", "de")
LANG_WEIGHTS = (0.41, 0.15, 0.15, 0.15, 0.14)

FLAT_DOCS = 5000  # sf0.1 documents row count
WRAPPED_REPLICAS = 1
WRAPPED_FRAGMENTS = 8
CASE_POOL_DOCS = 3000
CASE_POOL_FRAGMENTS = 4
MEGA_EVERY = 500  # every 500th case-pool doc is a mega-doc ...
MEGA_SPANS = 1400  # ... above the pipeline's default salt threshold (512)
HASH_PARTITIONS = 16
HASH_WAVES = 2
CURATION_DOCS = 800
CURATION_EXACT_FRAC = 0.03
CURATION_NEAR_FRAC = 0.03
CURATION_OPS = (
    "dedup_exact",
    "dedup_minhash",
    "line_dedup",
    "token_stats",
    "curation_funnel",
)
GATE_SAMPLE = 256
WARM_ROWS = 300

_WS = re.compile(r"\s+")


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def flat_documents(n: int, seed: int, exact_frac: float = 0.0, near_frac: float = 0.0):
    """Flat ``documents`` table with the sf0.1 schema, plus the planted
    duplicate pairs ``(earlier_id, later_id)`` as two lists (exact, near).

    A planted copy always points at an original (never at another copy), and
    a near duplicate differs from its original in exactly one word."""
    rng = random.Random(seed)
    texts: list[str] = []
    originals: list[int] = []
    exact: list[tuple[int, int]] = []
    near: list[tuple[int, int]] = []
    for i in range(n):
        roll = rng.random()
        if originals and roll < exact_frac:
            j = rng.choice(originals)
            texts.append(texts[j])
            exact.append((j, i))
        elif originals and roll < exact_frac + near_frac:
            j = rng.choice(originals)
            words = texts[j].split(" ")
            k = rng.randrange(len(words))
            words[k] = rng.choice([w for w in VOCAB if w != words[k]])
            texts.append(" ".join(words))
            near.append((j, i))
        else:
            texts.append(" ".join(rng.choices(VOCAB, k=rng.randint(10, 100))))
            originals.append(i)
    table = pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "text": texts,
            "lang": rng.choices(LANGS, weights=LANG_WEIGHTS, k=n),
            "source": [f"src{i % 20}" for i in range(n)],
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    return table, exact, near


def _write_fragments(table: pa.Table, out: Path, n_fragments: int) -> None:
    per = -(-table.num_rows // n_fragments)
    for f in range(n_fragments):
        part = table.slice(f * per, per)
        if part.num_rows:
            pq.write_table(part, out / f"frag-{f:04d}.parquet")


def _gen_wrapped(seed: int, out: Path) -> dict:
    from goose_parser_ray.sources.corpus import wrap_flat_documents

    flat, _, _ = flat_documents(FLAT_DOCS, seed)
    wrapped = wrap_flat_documents(flat)
    ids = wrapped["doc_id"].to_pylist()
    replicas = [
        pa.table({"doc_id": [f"{d}-r{k}" for d in ids], "spans": wrapped["spans"]})
        for k in range(WRAPPED_REPLICAS)
    ]
    _write_fragments(pa.concat_tables(replicas), out, WRAPPED_FRAGMENTS)
    return {"docs": len(ids) * WRAPPED_REPLICAS}


def rule_cases() -> dict[str, tuple[dict, str, dict]]:
    """The conformance cases that carry a rule tree: id -> (rules, html, expected)."""
    from goose_parser_ray.sources.corpus import load_case

    out = {}
    for d in sorted(CASES_DIR.iterdir()):
        if (d / "rules.json").is_file():
            rules, html, expected = load_case(d.name)
            if rules is not None:
                out[d.name] = (rules, html, expected)
    return out


def _gen_case_pool(seed: int, out: Path) -> dict:
    """Docs drawn from the rule-carrying conformance cases, ``source`` = case
    id; html spans are the case's doc.html, interleaved with text, image and
    pdf spans. Every MEGA_EVERY-th doc is a mega-doc of MEGA_SPANS spans in
    the span mix of ``sources.corpus.generate_corpus_table``."""
    from goose_parser_ray.spans import SPAN_STRUCT, make_span

    cases = rule_cases()
    case_ids = sorted(cases)
    rng = random.Random(seed)
    doc_ids, sources, spans_col = [], [], []
    for i in range(CASE_POOL_DOCS):
        doc_id = f"case-{i:08d}"
        cid = rng.choice(case_ids)
        if i % MEGA_EVERY == MEGA_EVERY - 1:
            kinds = rng.choices(["html", "text", "image", "pdf"], [12, 5, 2, 1], k=MEGA_SPANS)
        else:
            kinds = ["html"] * rng.randint(1, 2) + rng.choices(
                ["text", "image", "pdf"], weights=[3, 2, 1], k=rng.randint(0, 3)
            )
            rng.shuffle(kinds)
        spans = []
        for j, kind in enumerate(kinds):
            if kind == "html":
                spans.append(make_span("html", cases[cid][1], "", j))
            elif kind == "text":
                spans.append(make_span("text", f"  note {i} \n part {j} ", "", j))
            elif kind == "image":
                spans.append(make_span("image", f"caption {j}", f"blob://{doc_id}/{j}", j))
            else:
                spans.append(make_span("pdf", "", f"blob://{doc_id}/{j}", j))
        doc_ids.append(doc_id)
        sources.append(cid)
        spans_col.append(spans)
    table = pa.table(
        {
            "doc_id": doc_ids,
            "source": sources,
            "spans": pa.array(spans_col, pa.list_(SPAN_STRUCT)),
        }
    )
    _write_fragments(table, out, CASE_POOL_FRAGMENTS)
    return {"docs": CASE_POOL_DOCS}


def _gen_curation(seed: int, out: Path) -> dict:
    table, exact, near = flat_documents(
        CURATION_DOCS, seed, CURATION_EXACT_FRAC, CURATION_NEAR_FRAC
    )
    pq.write_table(table, out / "documents.parquet")
    return {"docs": CURATION_DOCS, "planted_exact": exact, "planted_near": near}


def build_inputs(workload: Workload, seed: int) -> tuple[Path, dict]:
    """Generate (or reuse) the seeded input; returns (directory, metadata)."""
    d = CACHE_DIR / f"{workload.name}-s{seed}-{GEN_DIGEST}"
    done = d / "_DONE"
    if done.is_file():
        return d, json.loads(done.read_text())
    tmp = d.with_name(d.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    meta = workload.generate(seed, tmp)
    (tmp / "_DONE").write_text(json.dumps(meta))
    shutil.rmtree(d, ignore_errors=True)
    tmp.rename(d)
    return d, meta


# ---------------------------------------------------------------------------
# oracles and comparisons
# ---------------------------------------------------------------------------


def read_output(out_dir: Path) -> pa.Table:
    """``doc_id, spans, error`` of every row a job wrote (hive partitions)."""
    import pyarrow.dataset as pads

    from goose_parser_ray.stages.extract import EXTRACT_OUT_SCHEMA

    files = sorted(str(f) for f in out_dir.glob("partition_id=*/*.parquet"))
    if not files:
        return EXTRACT_OUT_SCHEMA.empty_table().select(["doc_id", "spans", "error"])
    return pads.dataset(files, format="parquet").to_table(columns=["doc_id", "spans", "error"])


def case_pool_expected(spans: list[dict], expected: dict) -> list[dict]:
    """Golden span sequence for one case-pool doc, built from the case's
    hand-written ``expected.json`` and the pass-through rules for the other
    span kinds (text: whitespace-normalized, dropped when empty; image and
    pdf: kind, caption and media_ref kept)."""
    out: list[tuple] = []
    for s in sorted(spans, key=lambda s: s["offset"]):
        if s["kind"] == "html":
            out.extend(("text", e["text"], "") for e in expected["spans"])
        elif s["kind"] == "text":
            t = _WS.sub(" ", s["text"]).strip()
            if t:
                out.append(("text", t, ""))
        else:
            out.append((s["kind"], s["text"], s["media_ref"]))
    return [
        {"kind": k, "text": t, "media_ref": m, "offset": i}
        for i, (k, t, m) in enumerate(out)
    ]


def canonical_hash(df) -> str:
    """Order-insensitive value hash: columns sorted by name, rows sorted,
    dtypes part of the digest."""
    import pandas as pd

    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    df = df.sort_values(by=list(df.columns), kind="mergesort").reset_index(drop=True)
    h = hashlib.sha256(repr(list(zip(df.columns, map(str, df.dtypes)))).encode())
    h.update(pd.util.hash_pandas_object(df, index=False).values.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtractJob:
    """One ``extract_corpus`` call of an extraction workload's timed unit."""

    name: str  # input subdirectory and output name
    kwargs: Callable[[], dict]  # extract_corpus keyword arguments
    golden: bool  # gate every doc on expected.json (else a sample on the kernel)


@dataclass(frozen=True)
class Workload:
    """A named input generator plus what it runs; why each workload exists
    is recorded in BENCHMARK.json."""

    name: str
    generate: Callable[[int, Path], dict]  # (seed, out_dir) -> metadata
    jobs: tuple[ExtractJob, ...] = ()  # empty: the curation op sequence

    @property
    def is_extraction(self) -> bool:
        return bool(self.jobs)


def _gen_extraction(seed: int, out: Path) -> dict:
    docs = {}
    for name, gen in (("wrapped", _gen_wrapped), ("cases", _gen_case_pool)):
        (out / name).mkdir()
        docs[name] = gen(seed, out / name)["docs"]
    return {"docs": docs}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "extraction_mix",
            _gen_extraction,
            (
                ExtractJob(
                    "wrapped",
                    lambda: {"partition_mode": "fragment", "waves": 1, "batch_size": 2048},
                    golden=False,
                ),
                ExtractJob(
                    "cases",
                    lambda: {
                        "partition_mode": "hash",
                        "num_partitions": HASH_PARTITIONS,
                        "waves": HASH_WAVES,
                        "rules_registry": {cid: c[0] for cid, c in rule_cases().items()},
                    },
                    golden=True,
                ),
            ),
        ),
        Workload("curation_ops", _gen_curation),
    )
}


# ---------------------------------------------------------------------------
# extraction: job + gate
# ---------------------------------------------------------------------------


class ExtractionGate:
    """Oracle for one job's input, computed once and applied to every run of
    the job.

    - golden (the case pool): every doc, mega-docs regrouped from their
      salted chunks included, must equal its sequence built from the cases'
      hand-written ``expected.json`` (an oracle independent of the code under
      test).
    - otherwise (wrapped docs): a seeded sample of docs must equal the
      in-process ``spans.extract_document`` result, so only the dataflow is
      checked.
    - always: one output row per input doc, none quarantined, and a complete
      manifest row for every partition."""

    def __init__(self, job: ExtractJob, in_dir: Path, seed: int) -> None:
        from goose_parser_ray.spans import SPAN_STRUCT, extract_document

        table = pq.read_table(sorted(in_dir.glob("*.parquet")))
        self.n_docs = table.num_rows
        rows = table.to_pylist()
        if job.golden:
            cases = rule_cases()
            want = {
                r["doc_id"]: case_pool_expected(r["spans"], cases[r["source"]][2])
                for r in rows
            }
        else:
            picks = random.Random(seed).sample(rows, min(GATE_SAMPLE, len(rows)))
            want = {
                r["doc_id"]: extract_document(r["doc_id"], r["spans"], plan=None)
                for r in picks
            }
        ids = sorted(want)
        self.expected = pa.table(
            {
                "doc_id": pa.array(ids, pa.string()),
                "spans": pa.array([want[d] for d in ids], pa.list_(SPAN_STRUCT)),
            }
        )

    def _differing(self, got: pa.Table) -> set[str]:
        """Expected doc ids whose output row is missing or differs."""
        import pyarrow.compute as pc

        exp = self.expected
        sub = got.filter(pc.is_in(got["doc_id"], value_set=exp["doc_id"])).sort_by("doc_id")
        if sub["doc_id"].equals(exp["doc_id"]) and sub["spans"].equals(
            exp["spans"].cast(sub["spans"].type)
        ):
            return set()
        rows = {r["doc_id"]: r["spans"] for r in sub.to_pylist()}
        return {r["doc_id"] for r in exp.to_pylist() if rows.get(r["doc_id"]) != r["spans"]}

    def check(self, out_dir: Path, summary: dict) -> tuple[int, int, list[str]]:
        """(attempted, failed, messages) for one job's output."""
        import pyarrow.compute as pc

        from goose_parser_ray.state.manifest import Manifest

        got = read_output(out_dir)
        msgs: list[str] = []
        bad = set(got.filter(pc.not_equal(got["error"], ""))["doc_id"].to_pylist())
        bad |= self._differing(got)
        if bad:
            msgs.append(f"{out_dir.name}: {len(bad)} docs quarantined or differing from the oracle")
        missing = self.n_docs - pc.count_distinct(got["doc_id"]).as_py()
        if missing or got.num_rows != self.n_docs or summary.get("rows") != self.n_docs:
            msgs.append(
                f"{out_dir.name}: rows {got.num_rows} (summary {summary.get('rows')}) "
                f"!= docs {self.n_docs}"
            )
            missing = max(missing, 1)
        recs = Manifest(str(out_dir)).records()
        ok = {r["partition_id"] for r in recs if r.get("status") == "complete"}
        if ok != set(range(summary["num_partitions"])):
            msgs.append(f"{out_dir.name}: manifested partitions {len(ok)} != {summary['num_partitions']}")
            missing = max(missing, 1)
        return self.n_docs, len(bad) + missing, msgs


def warm_input(in_dir: Path, dest: Path) -> Path:
    """A small slice of an input for a warm-up run: the first WARM_ROWS rows
    of every parquet file (every fragment, so all workers start)."""
    dest.mkdir(parents=True, exist_ok=True)
    for f in sorted(in_dir.glob("*.parquet")):
        pq.write_table(pq.read_table(f).slice(0, WARM_ROWS), dest / f.name)
    return dest


def run_extraction_job(in_dir: Path, out_dir: Path, kwargs: dict) -> tuple[float, dict]:
    """(wall seconds, summary) of one fresh ``extract_corpus`` run."""
    from goose_parser_ray.pipelines import extract_corpus

    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.monotonic()
    summary = extract_corpus(str(in_dir), str(out_dir), **kwargs)
    wall = time.monotonic() - t0
    return wall, summary


# ---------------------------------------------------------------------------
# curation: op sequence + gate
# ---------------------------------------------------------------------------


def run_curation_sequence(
    sf_dir: Path, wrap=None, ops=CURATION_OPS
) -> tuple[float, dict[str, float], dict]:
    """Run the op sequence once, materializing each result as a frame;
    returns (sequence wall, per-op wall, per-op frame). ``wrap(name, fn)``
    may wrap each op's run (the tracer's span hook)."""
    from goose_parser_ray.queries import QUERIES

    per_op: dict[str, float] = {}
    frames: dict = {}
    t0 = time.monotonic()
    for op in ops:
        def run(sf, q=QUERIES[op]):
            return q(sf).to_pandas()

        if wrap is not None:
            run = wrap(f"queries.{op}", run)
        t = time.monotonic()
        frames[op] = run(str(sf_dir))
        per_op[op] = time.monotonic() - t
    return time.monotonic() - t0, per_op, frames


class CurationGate:
    """Ops with a DuckDB twin in ``ORACLE_SQL`` must hash-equal it;
    ``dedup_minhash`` (no twin) must report every planted exact-duplicate
    pair, which any MinHash/LSH banding finds with certainty."""

    def __init__(self, sf_dir: Path, meta: dict) -> None:
        import duckdb

        from goose_parser_ray.queries import ORACLE_SQL

        con = duckdb.connect()
        try:
            path = (sf_dir / "documents.parquet").resolve()
            con.sql(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{path}')")
            self.want = {
                op: canonical_hash(con.sql(ORACLE_SQL[op]).df())
                for op in CURATION_OPS
                if op in ORACLE_SQL
            }
        finally:
            con.close()
        self.exact = {tuple(p) for p in meta["planted_exact"]}
        self.near = {tuple(p) for p in meta["planted_near"]}

    @staticmethod
    def pairs(frame) -> set[tuple[int, int]]:
        a, b = frame["doc_a"].tolist(), frame["doc_b"].tolist()
        return {(min(x, y), max(x, y)) for x, y in zip(a, b)}

    def recall(self, frame) -> float:
        return len(self.near & self.pairs(frame)) / max(1, len(self.near))

    def check(self, frames: dict) -> tuple[int, int, list[str]]:
        failed, msgs = 0, []
        for op in CURATION_OPS:
            frame = frames.get(op)
            if frame is None:
                ok = False
            elif op in self.want:
                ok = canonical_hash(frame) == self.want[op]
            elif op == "dedup_minhash":
                ok = self.exact <= self.pairs(frame)
            else:
                ok = True
            if not ok:
                failed += 1
                msgs.append(f"{op} differs from its oracle")
        return len(CURATION_OPS), failed, msgs
