"""Per-layer metrics for the traced run.

Extraction: one untraced Ray run of each of the workload's jobs gives the
pipeline and state layers (phase times, pool size, manifest, no-op resume);
each job's input is then replayed in this process through the normalize fn
and ``ExtractActor``, untraced and then traced, for the module layers and the
tracing overhead. Metrics are summed over the jobs.
Curation: the op sequence runs once to warm up, then untraced, then traced
with one span per op.
"""

from __future__ import annotations

import time
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import workloads as W
from tracing import Tracer

MODULE_LAYERS = (
    "html.parse_s",
    "html.parse_calls",
    "html.parse_bytes",
    "boilerplate.extract_main_text_s",
    "boilerplate.extract_main_text_calls",
    "css.select_s",
    "css.select_calls",
    "rules.evaluate_self_s",
    "rules.evaluate_calls",
    "rules.compile_s",
    "transforms.apply_s",
    "transforms.apply_calls",
    "spans.extract_document_self_s",
    "spans.out_spans",
    "stages.extract_actor_self_s",
    "stages.normalize_s",
    "stages.salted_docs",
    "stages.salt_chunk_rows",
)
PIPELINE_LAYERS = (
    "pipelines.phase.pipeline_s",
    "pipelines.phase.residual_s",
    "pipelines.phase.commit_metrics_s",
    "pipelines.pool_size",
    "pipelines.actor_utilization",
    "state.completed_partitions_s",
    "state.manifest_rows",
    "state.resume_noop_s",
)
QUERY_LAYERS = tuple(
    f"queries.{op}_{k}" for op in W.CURATION_OPS for k in ("s", "rows")
) + ("queries.dedup_minhash_recall",)


def _zeros(names) -> dict[str, float]:
    return {n: 0.0 for n in names}


def _trace_targets():
    """(owner, attribute, span name, counter) at each layer's entry point."""
    import goose_parser_ray.rules.evaluator as evaluator
    import goose_parser_ray.spans as spans
    import goose_parser_ray.stages.extract as extract
    from goose_parser_ray.transforms.chain import TransformChain

    return [
        (spans, "parse_html", "html.parse", lambda a, r: [("html.parse_bytes", len(a[0].encode()))]),
        (spans, "extract_main_text", "boilerplate.extract_main_text", None),
        (spans, "evaluate", "rules.evaluate", None),
        (evaluator, "select", "css.select", None),
        (TransformChain, "apply_scalar", "transforms.apply", None),
        (extract, "extract_document", "spans.extract_document", lambda a, r: [("spans.out_spans", len(r))]),
        (extract, "compile_rules", "rules.compile", None),
        (extract.ExtractActor, "__call__", "stages.extract_actor", None),
    ]


def _salt_counts(args, result: pa.Table):
    salted = pc.greater(result["n_salts"], 1)
    first = pc.and_(salted, pc.equal(result["salt"], 0))
    return [
        ("stages.salt_chunk_rows", pc.sum(pc.cast(salted, pa.int64())).as_py() or 0),
        ("stages.salted_docs", pc.sum(pc.cast(first, pa.int64())).as_py() or 0),
    ]


def replay(in_dir: Path, kwargs: dict, tracer: Tracer | None) -> float:
    """Run the job's normalize + extract stages in this process over the
    whole input; returns the seconds spent inside ``ExtractActor`` calls."""
    from goose_parser_ray.pipelines.extraction import DEFAULT_SALT_THRESHOLD
    from goose_parser_ray.stages.extract import ExtractActor
    from goose_parser_ray.stages.normalize import make_normalize_fn

    files = sorted(in_dir.glob("frag-*.parquet"))
    fragment = kwargs["partition_mode"] == "fragment"
    normalize = make_normalize_fn(
        len(files) if fragment else kwargs["num_partitions"],
        DEFAULT_SALT_THRESHOLD,
        "column" if fragment else "hash",
    )
    if tracer is not None:
        normalize = tracer.wrap("stages.normalize", normalize, _salt_counts)
    batch_size = kwargs.get("batch_size", 256)
    actor = ExtractActor(None, True, kwargs.get("rules_registry"))
    kernel_s = 0.0
    for pid, f in enumerate(files):
        t = pq.read_table(f)
        if fragment:
            t = t.append_column("partition_id", pa.array([pid] * t.num_rows, pa.int32()))
        for off in range(0, t.num_rows, batch_size):
            batch = normalize(t.slice(off, batch_size))
            t0 = time.perf_counter()
            actor(batch)
            kernel_s += time.perf_counter() - t0
    return kernel_s


def extraction_layers(wl, in_dir: Path, gates: dict, kwargs: dict, work: Path):
    """Per-layer metrics summed over the workload's jobs, plus the verdict
    of their correctness gates and of a no-op resume."""
    from goose_parser_ray.pipelines import extract_corpus
    from goose_parser_ray.pipelines.extraction import default_pool_size
    from goose_parser_ray.state.manifest import Manifest

    m = _zeros(MODULE_LAYERS + PIPELINE_LAYERS + QUERY_LAYERS)
    pool = default_pool_size()
    m["pipelines.pool_size"] = pool
    attempted = failed = 0
    messages: list[str] = []
    job_wall = untraced_s = 0.0
    for job in wl.jobs:
        src, out, kw = in_dir / job.name, work / "traced" / job.name, kwargs[job.name]
        wall, summary = W.run_extraction_job(src, out, kw)
        a, f, msgs = gates[job.name].check(out, summary)
        job_wall += wall
        for phase, s in summary["phase_s"].items():
            m[f"pipelines.phase.{phase}_s"] += s
        t = time.perf_counter()
        Manifest(str(out)).completed_partitions()
        m["state.completed_partitions_s"] += time.perf_counter() - t
        m["state.manifest_rows"] += len(Manifest(str(out)).records())
        t = time.perf_counter()
        again = extract_corpus(str(src), str(out), **kw)
        m["state.resume_noop_s"] += time.perf_counter() - t
        a += 1
        if again["processed"] or again["skipped"] != summary["num_partitions"]:
            f += 1
            msgs.append(f"{job.name}: resume over a complete output reprocessed: {again}")
        attempted, failed, messages = attempted + a, failed + f, messages + msgs
        untraced_s += replay(src, kw, None)
    m["pipelines.actor_utilization"] = untraced_s / (pool * job_wall)

    tracer = Tracer()
    with tracer.patched(_trace_targets()):
        for job in wl.jobs:
            replay(in_dir / job.name, kwargs[job.name], tracer)
    s = tracer.summary()
    m["trace.overhead_frac"] = s["stages.extract_actor"]["total_s"] / untraced_s - 1

    def get(name, key):
        return s.get(name, {}).get(key, 0.0)

    m["html.parse_s"] = get("html.parse", "total_s")
    m["html.parse_calls"] = get("html.parse", "calls")
    m["boilerplate.extract_main_text_s"] = get("boilerplate.extract_main_text", "total_s")
    m["boilerplate.extract_main_text_calls"] = get("boilerplate.extract_main_text", "calls")
    m["css.select_s"] = get("css.select", "total_s")
    m["css.select_calls"] = get("css.select", "calls")
    m["rules.evaluate_self_s"] = get("rules.evaluate", "self_s")
    m["rules.evaluate_calls"] = get("rules.evaluate", "calls")
    m["rules.compile_s"] = get("rules.compile", "total_s")
    m["transforms.apply_s"] = get("transforms.apply", "total_s")
    m["transforms.apply_calls"] = get("transforms.apply", "calls")
    m["spans.extract_document_self_s"] = get("spans.extract_document", "self_s")
    m["stages.extract_actor_self_s"] = get("stages.extract_actor", "self_s")
    m["stages.normalize_s"] = get("stages.normalize", "total_s")
    for key in ("html.parse_bytes", "spans.out_spans", "stages.salted_docs", "stages.salt_chunk_rows"):
        m[key] = tracer.counts.get(key, 0)
    tracer.write(work.parent / f"{wl.name}-trace.csv")
    return m, (attempted, failed, messages)


def curation_layers(sf_dir: Path, gate):
    W.run_curation_sequence(sf_dir)  # the warm-up ran one op; warm them all
    untraced_s, _, _ = W.run_curation_sequence(sf_dir)
    tracer = Tracer()
    traced_s, _, frames = W.run_curation_sequence(sf_dir, wrap=tracer.wrap)
    attempted, failed, messages = gate.check(frames)
    m = _zeros(MODULE_LAYERS + PIPELINE_LAYERS + QUERY_LAYERS)
    s = tracer.summary()
    for op in W.CURATION_OPS:
        m[f"queries.{op}_s"] = s[f"queries.{op}"]["total_s"]
        m[f"queries.{op}_rows"] = len(frames[op])
    m["queries.dedup_minhash_recall"] = gate.recall(frames["dedup_minhash"])
    m["trace.overhead_frac"] = traced_s / untraced_s - 1
    return m, (attempted, failed, messages)
