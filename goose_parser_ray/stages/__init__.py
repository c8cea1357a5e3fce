"""Ray Data stages (SURVEY.md §3.4 stages 3–5).

- :mod:`normalize` — schema check, partition assignment (stable hash, no
  PYTHONHASHSEED dependence), mega-doc salting, and the merge of each
  salted doc's extracted chunks back into one row, in salt order.
- :mod:`extract`   — the hot stage: the DOM parser + rule plans +
  boilerplate classifier, the plans compiled once per worker process;
  poison-document quarantine instead of task failure.
- :mod:`sink`      — the write stage: a parquet sink that counts rows,
  spans and errors per partition as it writes.

The pipeline runs normalize, extract and the merge slice by slice inside
one map task per block; Ray Data fuses it with the write, and with the read
when no input file is split (``pipelines.extraction``).
"""

from goose_parser_ray.stages.normalize import make_normalize_fn, stable_hash
from goose_parser_ray.stages.extract import ExtractActor

__all__ = ["make_normalize_fn", "stable_hash", "ExtractActor"]
