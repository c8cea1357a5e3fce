"""Extraction benchmark: one seeded workload per run, in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workload names, metric names, units and
directions live in ``BENCHMARK.json``; ``perfbench/README.md`` maps each
per-layer metric to the end-to-end metric and workload it should move.

Load shape: one closed-loop client (this process) submits one unit of work
to a local Ray session (``num_cpus`` = cores in this process's affinity
mask), waits for it, and submits the next while it is expected to end within
``--seconds`` (at least three units). The extract actor pool keeps the
program's default size.

``--trace 0`` prints the end-to-end metrics: ``docs_per_s`` (see
:func:`timed_run`), ``setup_s`` (process start to ready to time, less the
untimed input generation, oracle building and host probe) and
``peak_pss_mb`` (peak summed PSS of this process and every process it
started, Ray workers included, during the first timed unit). ``--trace 1``
prints the per-layer metrics (see ``layers.py``).
Every job's output is checked; ``failed / attempted`` is the run's error
fraction, and the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads as W
from procstat import PssSampler, host_facts, process_age_s, process_tree, wait_for_exit

ROOT = Path.cwd()
OUT_DIR = Path(".bench_out")
RAY_TEMP = ROOT / ".bench_build" / "ray"
OBJECT_STORE_BYTES = 512 << 20
WORKER_IMPORT_TIMEOUT_S = 60
# a median of three shrugs off one stalled job (about one in ten stalls ~20 s)
MIN_UNITS = 3


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def ray_stop() -> None:
    """Tear down any Ray session left on this host by an earlier run."""
    subprocess.run(
        [sys.executable, "-m", "ray.scripts.scripts", "stop", "--force"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=120,
        check=False,
    )


def start_ray(num_cpus: int) -> None:
    """Fresh local session; fails fast when workers cannot import the program."""
    import logging

    import ray
    from ray.data import DataContext

    # a Unix socket path under the temp dir must stay below 108 bytes
    temp_dir = str(RAY_TEMP) if len(str(RAY_TEMP)) <= 40 else None
    if temp_dir:
        shutil.rmtree(temp_dir, ignore_errors=True)
    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=OBJECT_STORE_BYTES,
        _temp_dir=temp_dir,
    )
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False

    def import_probe() -> str:  # nested: shipped by value, not by module path
        import goose_parser_ray

        return goose_parser_ray.__file__

    try:
        ray.get(ray.remote(import_probe).remote(), timeout=WORKER_IMPORT_TIMEOUT_S)
    except Exception as exc:  # noqa: BLE001 — any probe failure ends the run
        raise SystemExit(f"perfbench: Ray workers cannot import goose_parser_ray: {exc}")


def kernel_probe() -> float:
    """Single-core docs/s of the in-process extraction kernel (boilerplate
    mode) on 500 wrapped flat documents; a host-health reading printed beside
    each result."""
    from goose_parser_ray.sources.corpus import wrap_flat_documents
    from goose_parser_ray.stages.extract import ExtractActor

    t = wrap_flat_documents(W.flat_documents(500, seed=0)[0])
    actor = ExtractActor(None)
    actor(t.slice(0, 50))
    t0 = time.perf_counter()
    actor(t)
    return t.num_rows / (time.perf_counter() - t0)


def timed_run(wl, in_dir: Path, meta: dict, gates: dict, kwargs: dict, work: Path, seconds: float):
    """Closed loop: units back to back, at least MIN_UNITS of them and more
    while the next one is expected to end within ``seconds``; every output is
    gated after the loop. An extraction unit runs each of the workload's jobs
    once and its rate is rows over summed wall time; ``docs_per_s`` is the
    median unit's rate. For the curation sequence it is rows x ops over the
    sum of each op's median time. ``peak_pss_mb`` is the peak during the
    first unit (later units' peaks grow with the number of jobs run)."""
    walls: list[float] = []
    rates: list[float] = []
    peaks_kb: list[int] = []
    outputs: list = []
    op_times: dict[str, list[float]] = {op: [] for op in W.CURATION_OPS}
    with PssSampler() as pss:
        t_begin = time.monotonic()
        while (
            len(walls) < MIN_UNITS
            or time.monotonic() - t_begin + statistics.median(walls) <= seconds
        ):
            if wl.is_extraction:
                wall = rows = 0
                for job in wl.jobs:
                    out = work / f"unit-{len(walls)}" / job.name
                    w, summary = W.run_extraction_job(in_dir / job.name, out, kwargs[job.name])
                    wall, rows = wall + w, rows + summary["rows"]
                    outputs.append((gates[job.name], out, summary))
                rates.append(rows / wall)
            else:
                wall, per_op, frames = W.run_curation_sequence(in_dir)
                for op, t in per_op.items():
                    op_times[op].append(t)
                outputs.append((gates["curation"], frames))
            walls.append(wall)
            peaks_kb.append(pss.take_peak())
    attempted = failed = 0
    messages: list[str] = []
    for gate, *out in outputs:
        a, f, m = gate.check(*out)
        attempted, failed, messages = attempted + a, failed + f, messages + m
    extra = {"unit_walls": walls, "unit_peak_pss_mb": [p / 1024 for p in peaks_kb]}
    if wl.is_extraction:
        docs_per_s = statistics.median(rates)
    else:
        op_medians = {op: statistics.median(t) for op, t in op_times.items()}
        docs_per_s = meta["docs"] * len(op_medians) / sum(op_medians.values())
        extra["op_median_s"] = op_medians
    metrics = {"docs_per_s": docs_per_s, "peak_pss_mb": peaks_kb[0] / 1024}
    return metrics, (attempted, failed, messages), extra


def trace_run(wl, in_dir: Path, gates: dict, kwargs: dict, work: Path):
    if wl.is_extraction:
        metrics, verdict = layers.extraction_layers(wl, in_dir, gates, kwargs, work)
    else:
        metrics, verdict = layers.curation_layers(in_dir, gates["curation"])
    return metrics, verdict, {}


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; one of {names}", file=sys.stderr)
        return 2
    if not (ROOT / "goose_parser_ray" / "__init__.py").is_file():
        print("perfbench: goose_parser_ray/ not found; run from the repository root", file=sys.stderr)
        return 2
    # workers inherit the environment of the session started below
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path.insert(0, str(ROOT))

    untimed = time.monotonic()
    ray_stop()
    wl = W.WORKLOADS[args.workload]
    in_dir, meta = W.build_inputs(wl, args.seed)
    if wl.is_extraction:
        gates = {job.name: W.ExtractionGate(job, in_dir / job.name, args.seed) for job in wl.jobs}
    else:
        gates = {"curation": W.CurationGate(in_dir, meta)}
    facts = host_facts()
    facts["num_cpus"] = facts["cores"]
    facts["kernel_probe_docs_per_s"] = kernel_probe()
    work = OUT_DIR / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    warm_in = work / "warm_in"
    for job in wl.jobs:
        W.warm_input(in_dir / job.name, warm_in / job.name)
    if not wl.is_extraction:
        W.warm_input(in_dir, warm_in)
    untimed = time.monotonic() - untimed

    import ray

    try:
        start_ray(facts["num_cpus"])
        kwargs = {job.name: job.kwargs() for job in wl.jobs}
        # warm-up on a small slice of the input (worker start, module
        # imports, plan compilation): the same extraction jobs, or the
        # sequence's cheapest op, whose cold first runs the per-op medians absorb
        for job in wl.jobs:
            W.run_extraction_job(warm_in / job.name, work / "warm_out" / job.name, kwargs[job.name])
        if not wl.is_extraction:
            W.run_curation_sequence(warm_in, ops=("token_stats",))
        setup_s = process_age_s() - untimed
        t_ready = time.monotonic()
        if args.trace:
            metrics, verdict, extra = trace_run(wl, in_dir, gates, kwargs, work)
        else:
            metrics, verdict, extra = timed_run(wl, in_dir, meta, gates, kwargs, work, args.seconds)
            metrics["setup_s"] = setup_s
        t_done = time.monotonic()
    finally:
        started = process_tree(os.getpid())[1:]
        ray.shutdown()
        wait_for_exit(started)
        shutil.rmtree(work, ignore_errors=True)
    extra["phases_s"] = {
        "untimed": untimed,
        "setup": setup_s,
        "run_and_gate": t_done - t_ready,
        "shutdown": time.monotonic() - t_done,
        "process": process_age_s(),
    }

    attempted, failed, messages = verdict
    for m in messages:
        print(f"# gate: {m}", file=sys.stderr)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    for k, v in facts.items():
        print(f"# {k} = {v}")
    for m in wanted:
        print(f"{wl.name} {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print(f"{wl.name} error_frac = {failed / attempted:.6g} ratio ({failed}/{attempted})")
    record = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace, **facts, **extra,
        "attempted": attempted, "failed": failed, "messages": messages, "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "results.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    result = {
        "correct": failed == 0 and not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
