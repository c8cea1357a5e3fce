"""Ray Data stages (SURVEY.md §3.4 stages 3–5).

- :mod:`normalize` — schema check, partition assignment (stable hash, no
  PYTHONHASHSEED dependence), mega-doc salting.
- :mod:`extract`   — the hot stage: the DOM parser + rule plans +
  boilerplate classifier, the plans compiled once per worker process;
  poison-document quarantine instead of task failure.
- :mod:`residual`  — the write stage: a partition-counting parquet sink that
  merges salted chunks back into whole docs in salt order, with no shuffle.

The pipeline runs normalize and extract slice by slice inside one map task
per block; Ray Data fuses it with the write, and with the read when no
input file is split (``pipelines.extraction``).
"""

from goose_parser_ray.stages.normalize import make_normalize_fn, stable_hash
from goose_parser_ray.stages.extract import ExtractActor

__all__ = ["make_normalize_fn", "stable_hash", "ExtractActor"]
