"""Ray Data stages (SURVEY.md §3.4 stages 3–5).

- :mod:`normalize` — stateless tasks: schema check, partition assignment
  (stable hash, no PYTHONHASHSEED dependence), mega-doc salting.
- :mod:`extract`   — the hot stage: capped tasks running the DOM parser +
  rule plans + boilerplate classifier, the plans compiled once per worker
  process; poison-document quarantine instead of task failure.
- :mod:`residual`  — the write stage: a partition-counting parquet sink that
  merges salted chunks back into whole docs in salt order, with no shuffle.
"""

from goose_parser_ray.stages.normalize import make_normalize_fn, stable_hash
from goose_parser_ray.stages.extract import ExtractActor

__all__ = ["make_normalize_fn", "stable_hash", "ExtractActor"]
