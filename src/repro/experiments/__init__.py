"""Parallel experiment orchestration: sweeps, process pools, result caching.

The seed reproduced each figure of the paper with its own hand-rolled
nested loop.  This package replaces those loops with one engine:

* :class:`~repro.experiments.sweep.Sweep` expands a parameter grid into
  :class:`~repro.experiments.spec.ExperimentSpec` points (a runner path
  plus picklable keyword arguments);
* :class:`~repro.experiments.executor.Executor` runs the points — serially
  for ``workers=1``, across a ``multiprocessing`` pool otherwise — and
  returns the results in sweep order;
* :class:`~repro.experiments.cache.ResultCache` memoises results on disk
  under a content hash of the configuration *and* the program source, so
  re-running an unchanged sweep is near-instant while any code edit
  transparently invalidates stale entries;
* :class:`~repro.experiments.distributed.DistributedExecutor`
  (``--dispatch``) shards sweeps and executes them on a work-stealing
  fleet of local processes and/or remote TCP workers, all sharing one
  content-addressed cache.

Every figure/table driver in :mod:`repro.evaluation` goes through this
engine; the registry of those drivers lives in
:mod:`repro.experiments.registry`, and ``python -m repro.experiments``
exposes ``run`` / ``list`` / ``clean`` on the command line.

Examples
--------
>>> from repro.experiments import Sweep, Executor
>>> sweep = Sweep("repro.experiments.demo:multiply",
...               grid={"a": (4, 9)}, base={"b": 6})
>>> Executor(workers=1).run(sweep)
[24, 54]
"""

from repro.experiments.cache import (
    MISS,
    CacheBackend,
    CacheStats,
    MemoryCache,
    ResultCache,
    default_cache_dir,
)
from repro.experiments.executor import ExecutionReport, Executor, run_sweep
from repro.experiments.spec import (
    ExperimentSpec,
    canonical_json,
    execute_spec,
    program_fingerprint,
    resolve_runner,
)
from repro.experiments.sweep import Sweep

__all__ = [
    "MISS",
    "CacheBackend",
    "CacheStats",
    "MemoryCache",
    "ResultCache",
    "default_cache_dir",
    "ExecutionReport",
    "Executor",
    "run_sweep",
    "ExperimentSpec",
    "canonical_json",
    "execute_spec",
    "program_fingerprint",
    "resolve_runner",
    "Sweep",
]
