"""CLI entry point (SURVEY.md §2.5 "CLI" row):

    python -m goose_parser_ray.run --input <table-dir-or-file> --output <dir>
        [--rules rules.json] [--registry rules_registry.json]
        [--partitions 64] [--waves 4] [--batch-size 64]
        [--salt-threshold 512] [--num-cpus N]

Replaces the reference's ``goose-parser <url> '<rules json>'`` (one URL per
process) with one resumable corpus job. This CLI OWNS the Ray session
(guarded init) — library code never does.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="goose_parser_ray.run", description=__doc__)
    p.add_argument("--input", help="required unless --compact")
    p.add_argument("--output", required=True)
    p.add_argument("--rules", help="rule-tree JSON file (default: boilerplate mode)")
    p.add_argument("--registry", help="per-source rules registry JSON file (G8)")
    p.add_argument("--partitions", type=int, default=64)
    p.add_argument("--waves", type=int, default=4)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument(
        "--salt-threshold",
        type=int,
        default=512,
        help="mega-doc split threshold/chunk size; 0 or negative disables "
        "salting entirely",
    )
    p.add_argument("--num-cpus", type=int, default=None)
    p.add_argument(
        "--max-error-fraction",
        type=float,
        default=None,
        help="fail-fast error budget: abort (exit 2) once the quarantined-"
        "doc fraction crosses this after any committed wave; committed "
        "partitions stay manifested for resume",
    )
    p.add_argument(
        "--partition-mode",
        choices=["hash", "fragment"],
        default="hash",
        help="'fragment': partition = input shard file (reader-level resume "
        "pruning, single-partition blocks); --partitions is then derived "
        "from the file count",
    )
    p.add_argument(
        "--compact",
        action="store_true",
        help="maintenance mode: compact fragmented partition directories "
        "under --output down to one file each (crash-safe via the "
        "manifest contract) instead of running an extraction",
    )
    args = p.parse_args(argv)
    if not args.compact and not args.input:
        p.error("--input is required unless --compact is given")

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=args.num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    if args.compact:
        from goose_parser_ray.pipelines import compact_partitions

        print(json.dumps(compact_partitions(args.output)))
        ray.shutdown()
        return 0

    rules = json.load(open(args.rules)) if args.rules else None
    registry = json.load(open(args.registry)) if args.registry else None

    from goose_parser_ray.pipelines import ErrorBudgetExceeded, extract_corpus

    try:
        summary = extract_corpus(
            args.input,
            args.output,
            rules,
            rules_registry=registry,
            num_partitions=args.partitions,
            waves=args.waves,
            salt_threshold=(
                args.salt_threshold if args.salt_threshold > 0 else None
            ),
            batch_size=args.batch_size,
            partition_mode=args.partition_mode,
            max_error_fraction=args.max_error_fraction,
        )
    except ErrorBudgetExceeded as exc:
        print(json.dumps({"error_budget_exceeded": str(exc), **exc.summary}))
        ray.shutdown()
        return 2
    print(json.dumps(summary))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
