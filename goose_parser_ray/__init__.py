"""goose_parser_ray — a Ray-Data-native declarative extraction engine.

A brand-new engine with the query/data-processing capabilities of
``redco/goose-parser`` (see SURVEY.md), re-expressed Ray-Data-first:

- ``goose_parser_ray.html``       — from-scratch HTML5 tokenizer + tree builder
- ``goose_parser_ray.css``        — CSS/Sizzle-subset selector engine
- ``goose_parser_ray.rules``      — rule-plan compiler + evaluator (simple /
                                    collection / grid rules, cases, id-dedup)
- ``goose_parser_ray.transforms`` — transform chain (trim/replace/date/split/…)
- ``goose_parser_ray.spans``      — interleaved span document model
- ``goose_parser_ray.stages``     — Ray Data stages (normalize/salt, extract
                                    actor pool, salted-chunk sink)
- ``goose_parser_ray.sources``    — IO shim (parquet now, lance when available)
- ``goose_parser_ray.functions``  — dedup / similarity / text-analysis ops
- ``goose_parser_ray.pipelines``  — end-to-end pipelines (extraction flagship)
- ``goose_parser_ray.state``      — checkpoint manifest + exact resume

Library code NEVER calls ``ray.init()`` / ``ray.shutdown()`` — sessions are
owned by bench.py, CLI entry points and the pytest fixture only.
"""

__version__ = "0.1.0"
