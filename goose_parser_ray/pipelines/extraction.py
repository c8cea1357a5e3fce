"""The flagship extraction pipeline (SURVEY.md §3.4, north_rule).

``build_extraction_pipeline``: lazy Dataset → Dataset —
read-side pruning happens in the caller's reader; then ONE map whose task
takes a block and, slice by slice,

  normalize/salt → partition filter → extract (DOM parse + rules/boilerplate)
  → merge salted chunks

so a salted mega-doc is whole again before it leaves the slice that split
it, and the pipeline returns one row per document, without a shuffle.

``extract_corpus``: the resumable job runner — processes partitions in
waves, commits each partition's output directory atomically, records a
manifest row per partition, and skips completed partitions on restart
(SURVEY.md §4.2, FIXTURES.md F6). Each wave is one self-contained Ray Data
execution. With no input file split across read blocks, it is one physical
operator: every task reads a block, extracts it and writes it through the
sink (``stages.sink.PartitionSink``), which counts rows/spans/errors per
partition. Its reads are sized from the input bytes, Ray sizes its tasks,
and it starts no actors.
"""

from __future__ import annotations

import math
import os
import shutil
import time
from collections.abc import Iterator
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from goose_parser_ray.rules import compile_rules
from goose_parser_ray.sources.io import READ_BLOCK_BYTES, read_documents
from goose_parser_ray.stages.extract import extract_batch
from goose_parser_ray.stages.normalize import make_normalize_fn, merge_salted
from goose_parser_ray.stages.sink import PartitionSink
from goose_parser_ray.state.manifest import Manifest, PartitionRecord
from goose_parser_ray import __version__ as CODE_VERSION

# Salting protects worker heaps from mega-docs; anything below this span count
# is cheaper to process in place than to split and re-shuffle.
DEFAULT_SALT_THRESHOLD = 512


class ErrorBudgetExceeded(RuntimeError):
    """Raised mid-job when the quarantined-doc fraction crosses the caller's
    ``max_error_fraction`` budget. Carries the summary so the caller sees
    how far the job got; committed partitions remain manifested."""

    def __init__(self, summary: dict, budget: float) -> None:
        self.summary, self.budget = summary, budget
        frac = summary["errors"] / max(1, summary["rows"])
        super().__init__(
            f"error fraction {frac:.3f} exceeds budget {budget:.3f} after "
            f"{summary['processed']}/{summary['num_partitions']} partitions "
            f"({summary['errors']} quarantined of {summary['rows']} docs)"
        )


def default_pool_size() -> int:
    """All CPUs minus ~1/5, deterministic (autoscaling disabled per
    BASELINE.json:6). ``extract_corpus`` sizes a wave's reads for this many
    slots (see ``read_block_count``); it caps no task. It was the extract
    cap while
    read, extract and write ran as separate stages, measured then on the
    2M-doc bench corpus at 32 CPUs: pool=24 → 82.8k docs/s, pool=26-28 →
    90-99k, pool=30 thrashed (76k), as the write starved without ~6 free
    slots. The uncapped default has been measured on 4 CPUs only, where it
    beat this cap also on waves whose read stays separate."""
    cpus = int(ray.cluster_resources().get("CPU", 4))
    return max(1, cpus - max(2, round(cpus / 5)))


def read_block_count(input_bytes: int, pool: int) -> int:
    """Read blocks for one wave, sized from its input bytes: one per
    ``READ_BLOCK_BYTES``, at least two per ``pool`` slot
    (``default_pool_size()``) and at most 16 per CPU.
    Every block is one extract task and pays a fixed per-task cost (on 4
    CPUs an identity actor-pool job plus write took 1.9–2.1 s at 64 blocks
    and 1.2–1.3 s at 8), while coarse blocks leave CPUs idle at the end of
    a wave (~1.8 s per slot at ~9k-row blocks). So small inputs get a few
    blocks and inputs from 16 × CPUs × ``READ_BLOCK_BYTES`` up keep 16
    blocks per CPU. Ray Data fuses a parquet read into the extract task
    only when the wave has at least as many files as blocks; otherwise the
    read splits files and stays a separate operator."""
    cpus = int(ray.cluster_resources().get("CPU", 4))
    return max(2 * pool, min(16 * cpus, math.ceil(input_bytes / READ_BLOCK_BYTES)))


def _input_bytes(path: str) -> int:
    p = Path(path)
    if p.is_file():
        return p.stat().st_size
    return sum(f.stat().st_size for f in p.rglob("*") if f.is_file())


def build_extraction_pipeline(
    ds: ray.data.Dataset,
    rules: dict | None = None,
    *,
    rules_registry: dict[str, dict] | None = None,
    num_partitions: int = 64,
    salt_threshold: int | None = None,
    batch_size: int = 256,
    strip_boilerplate: bool = True,
    partition_filter: "set[int] | None" = None,
    partition_source: str = "hash",
) -> ray.data.Dataset:
    """Wire the stages onto ``ds`` as ONE ``map_batches`` (lazy — nothing
    executes here).

    Each task takes a whole block and cuts it into ``batch_size``-row
    slices; every slice is normalized, filtered, extracted and its salted
    chunks merged before the next, so a mega-doc is split and merged back
    on the list offsets of the slice that holds it. The map has no
    ``batch_size`` of its own, so Ray Data fuses it with the read and the
    maps before it and with the write after it: a block is read, extracted
    and written in one task, and Ray runs one such task per CPU.

    ``partition_filter``: restrict the job to these partition_ids — applied
    right after normalize, BEFORE the expensive extract (resume/wave runs
    must not re-extract skipped partitions).

    ``salt_threshold``: split docs with more spans than this into salted
    chunks for the extract (``None``, the default, disables salting). The
    chunks are merged back in the same slice, so the returned stream holds
    one row per document either way."""
    normalize = make_normalize_fn(
        num_partitions,
        salt_threshold if salt_threshold is not None else 1 << 30,
        partition_source,
    )
    keep = (
        pa.array(sorted(partition_filter), pa.int32())
        if partition_filter is not None
        else None
    )
    args = {
        "rules": rules,
        "strip_boilerplate": strip_boilerplate,
        "rules_registry": rules_registry,
    }

    def extract_block(block: pa.Table) -> Iterator[pa.Table]:
        for off in range(0, block.num_rows, batch_size):
            t = normalize(block.slice(off, batch_size))
            if keep is not None:
                t = t.filter(pc.is_in(t["partition_id"], keep))
            yield merge_salted(extract_batch(t, **args))

    return ds.map_batches(extract_block, batch_format="pyarrow")


def _chunk(seq: list[int], n_chunks: int) -> list[list[int]]:
    size = max(1, math.ceil(len(seq) / n_chunks))
    return [seq[i : i + size] for i in range(0, len(seq), size)]


def extract_corpus(
    input_path: str,
    output_path: str,
    rules: dict | None = None,
    *,
    rules_registry: dict[str, dict] | None = None,
    num_partitions: int = 16,
    waves: int = 4,
    salt_threshold: int | None = DEFAULT_SALT_THRESHOLD,
    batch_size: int = 256,
    strip_boilerplate: bool = True,
    partition_mode: str = "hash",
    max_error_fraction: float | None = None,
) -> dict:
    """Run (or resume) the extraction job. Returns a summary dict.

    ``max_error_fraction``: fail-fast error budget. Checked after every
    committed wave: if cumulative quarantined-doc fraction exceeds it,
    raise ``ErrorBudgetExceeded`` instead of burning the remaining corpus
    on (say) a rule plan that errors on half the documents. Committed
    partitions stay manifested — fixing the rules changes the lineage hash
    and reprocesses; rerunning unchanged resumes where the budget tripped.

    Resume granularity is the partition: a wave writes to
    ``<output>/_tmp/wave/partition_id=K/`` then each partition directory is
    atomically renamed into place and its manifest row written. A rerun
    skips every manifested partition — byte-identical final output, no
    re-processing (FIXTURES.md F6).

    ``partition_mode``:
    - 'hash' (default): partition_id = stable_hash(doc_id) % num_partitions.
      Works for any input layout; waves re-scan the input and filter.
      Each read task writes its own file to every partition it holds rows
      of, so a partition gets up to one file per read block
      (``compact_partitions`` merges them).
    - 'fragment': partition = INPUT FILE (the Lance-fragment alignment of
      the north rule — the corpus arrives hash-partitioned into
      size-balanced fragments, so fragment id IS the doc-hash partition).
      Resume/wave pruning happens at the READER — skipped partitions'
      files are never opened — and every in-flight block belongs to exactly
      one partition, so the hive write emits one file per block instead of
      P splits per block (measured: 8192 -> 512 output files, and the
      per-wave full-corpus re-read disappears). ``num_partitions`` is
      derived from the file count.

    No cap is set on the extract tasks. A wave whose read fuses (no input
    file split across read blocks) is one read-extract-write operator; any
    other wave keeps its read as a separate operator."""
    out = Path(output_path)
    out.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(output_path)
    # lineage hash covers the whole query config: plan + registry + mode
    parts = [compile_rules(rules).plan_hash if rules is not None else "boilerplate"]
    for src in sorted(rules_registry or {}):
        parts.append(f"{src}:{compile_rules(rules_registry[src]).plan_hash}")
    rules_hash = "|".join(parts)

    fragment_files: list[str] | None = None
    if partition_mode == "fragment":
        in_path = Path(input_path)
        fragment_files = sorted(
            str(f)
            for f in ([in_path] if in_path.is_file() else in_path.glob("*.parquet"))
        )
        if not fragment_files:
            raise ValueError(f"no parquet fragments under {input_path}")
        num_partitions = len(fragment_files)

    fragment_sizes = (
        [os.path.getsize(f) for f in fragment_files]
        if fragment_files is not None
        else None
    )
    # every hash-mode wave re-reads the whole input: size it once
    input_bytes = _input_bytes(input_path) if fragment_files is None else None
    done = manifest.completed_partitions(
        rules_hash,
        input_path=str(input_path),
        source_files=(
            dict(enumerate(fragment_files)) if fragment_files is not None else None
        ),
        source_sizes=(
            dict(enumerate(fragment_sizes)) if fragment_sizes is not None else None
        ),
    )
    pending = [p for p in range(num_partitions) if p not in done]
    summary = {
        "num_partitions": num_partitions,
        "skipped": len(done),
        "processed": 0,
        "rows": 0,
        "spans": 0,
        "errors": 0,
    }
    if not pending:
        return summary

    summary["phase_s"] = {"pipeline": 0.0, "commit_metrics": 0.0}
    summary["read_blocks"] = []
    pool = default_pool_size()
    for wave_ids in _chunk(pending, waves):
        t0 = time.monotonic()
        wave_set = set(wave_ids)
        tmp = out / "_tmp" / "wave"
        if tmp.exists():
            shutil.rmtree(tmp)  # leftovers from a killed run
        if fragment_files is not None:
            # reader-level pruning: ONLY this wave's fragment files are
            # opened; partition_id is stamped from file provenance; at
            # least one block per file keeps every block single-partition
            wave_files = [fragment_files[p] for p in sorted(wave_set)]
            nb = max(
                read_block_count(sum(fragment_sizes[p] for p in wave_set), pool),
                len(wave_files),
            )
            ds = ray.data.read_parquet(
                wave_files, include_paths=True, override_num_blocks=nb
            )
            path_to_pid = {fragment_files[p]: p for p in wave_set}

            def stamp_pid(t: pa.Table, lut=path_to_pid) -> pa.Table:
                paths = t["path"]
                uniq = pc.unique(paths.combine_chunks())
                pid_for_uniq = pa.array(
                    [lut[u.as_py()] for u in uniq], pa.int32()
                )
                codes = pc.index_in(paths, value_set=uniq)
                return t.drop_columns(["path"]).append_column(
                    "partition_id", pc.take(pid_for_uniq, codes)
                )

            ds = ds.map_batches(stamp_pid, batch_format="pyarrow")
            pipeline_filter = None  # pruning already happened at the read
            partition_source = "column"
        else:
            nb = read_block_count(input_bytes, pool)
            ds = read_documents(input_path, num_blocks=nb)
            # pre-extract: skipped partitions cost nothing; a full-coverage
            # wave (single-wave fresh run) skips the filter stage entirely
            pipeline_filter = (
                wave_set if len(wave_set) < num_partitions else None
            )
            partition_source = "hash"
        ds = build_extraction_pipeline(
            ds,
            rules,
            rules_registry=rules_registry,
            num_partitions=num_partitions,
            salt_threshold=salt_threshold,
            batch_size=batch_size,
            strip_boilerplate=strip_boilerplate,
            partition_filter=pipeline_filter,
            partition_source=partition_source,
        )
        # Until a task returns, Ray Data books each running task for two
        # blocks of target_max_block_size (128 MiB by default); on a small
        # object store that holds the wave to one task until its first task
        # ends. None drops that booking for this wave only (ds.context is
        # its own copy) and with it Ray's splitting of blocks above 128 MiB:
        # read_block_count's blocks reach that only in waves of more than
        # 16 × CPUs × 128 MiB of decoded rows.
        ds.context.target_max_block_size = None
        sink = PartitionSink(str(tmp))
        ds.write_datasink(sink)
        summary["read_blocks"].append(nb)
        wall = time.monotonic() - t0
        summary["phase_s"]["pipeline"] += wall
        t_commit = time.monotonic()

        # commit partitions (atomic renames); their counts came back from
        # the sink's write tasks, so the written files are never re-scanned
        for pid in wave_ids:
            src = tmp / f"partition_id={pid}"
            dst = out / f"partition_id={pid}"
            if not src.exists():
                src.mkdir(parents=True)  # empty partition still commits
            if dst.exists():
                shutil.rmtree(dst)
            src.rename(dst)
        for pid in wave_ids:
            rows, spans, errors = sink.counts.get(pid, (0, 0, 0))
            manifest.mark_complete(
                PartitionRecord(
                    partition_id=pid,
                    status="complete",
                    row_count=rows,
                    span_count=spans,
                    error_count=errors,
                    wall_s=round(wall / len(wave_ids), 4),
                    rules_hash=rules_hash,
                    code_version=CODE_VERSION,
                    input_path=str(input_path),
                    source_file=(
                        fragment_files[pid] if fragment_files is not None else None
                    ),
                    source_size=(
                        fragment_sizes[pid] if fragment_sizes is not None else None
                    ),
                )
            )
            summary["processed"] += 1
            summary["rows"] += rows
            summary["spans"] += spans
            summary["errors"] += errors
        shutil.rmtree(out / "_tmp", ignore_errors=True)
        summary["phase_s"]["commit_metrics"] += time.monotonic() - t_commit
        if (
            max_error_fraction is not None
            and summary["rows"] > 0
            and summary["errors"] > max_error_fraction * summary["rows"]
        ):
            raise ErrorBudgetExceeded(summary, max_error_fraction)
    summary["phase_s"] = {k: round(v, 3) for k, v in summary["phase_s"].items()}
    return summary
