"""Executes experiment specs — serially or across a process pool — with caching.

The :class:`Executor` is the single code path every evaluation driver runs
through.  Given a list of :class:`~repro.experiments.spec.ExperimentSpec`,
it:

1. looks each spec up in the attached
   :class:`~repro.experiments.cache.CacheBackend` (when one is attached),
2. computes the misses — in-process when ``workers <= 1``, otherwise over a
   ``multiprocessing`` pool (one task per point; the simulator is pure
   Python, so process-level parallelism is the only way past the GIL), and
3. stores fresh results back into the cache and returns everything in the
   original spec order.

Experiment points are independent by construction (each builds its own
cluster and RNGs from the spec parameters), so serial and parallel
execution produce identical results — a property the test-suite asserts.
"""

from __future__ import annotations

import multiprocessing
import queue
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.experiments.cache import MISS, CacheBackend
from repro.experiments.spec import ExperimentSpec, execute_spec


@dataclass
class ExecutionReport:
    """What one :meth:`Executor.run` call did: hits, misses, timing.

    Distributed runs (:class:`repro.experiments.distributed.DistributedExecutor`)
    additionally fill the scheduler counters: how many shards the sweep
    split into, how many leases were stolen from another worker's queue,
    how many shards were requeued after a crash or an expired lease, and
    the per-worker shard/point tallies.
    """

    total: int = 0
    cache_hits: int = 0
    computed: int = 0
    workers: int = 1
    elapsed_s: float = 0.0
    #: Work units the sweep was split into (0 for non-distributed runs).
    shards: int = 0
    #: Shards a worker pulled from another worker's queue.
    steals: int = 0
    #: Shards put back on a queue after a crash or an expired lease.
    requeues: int = 0
    #: Per-worker tallies: worker name -> {"shards": n, "points": m}.
    per_worker: dict = field(default_factory=dict)

    def summary(self) -> str:
        """One-line summary for CLI output.

        Examples
        --------
        >>> ExecutionReport(total=4, cache_hits=3, computed=1, workers=2,
        ...                 elapsed_s=0.5).summary()
        '4 points: 3 cached, 1 computed on 2 workers in 0.5 s'
        >>> ExecutionReport(total=4, computed=4, workers=2, elapsed_s=1.0,
        ...                 shards=3, steals=1, requeues=0).summary()
        '4 points: 0 cached, 4 computed on 2 workers in 1.0 s (3 shards, 1 steal, 0 requeues)'
        """
        line = (
            f"{self.total} point{'s' if self.total != 1 else ''}: "
            f"{self.cache_hits} cached, {self.computed} computed on "
            f"{self.workers} worker{'s' if self.workers != 1 else ''} "
            f"in {self.elapsed_s:.1f} s"
        )
        if self.shards:
            line += (
                f" ({self.shards} shard{'s' if self.shards != 1 else ''}, "
                f"{self.steals} steal{'s' if self.steals != 1 else ''}, "
                f"{self.requeues} requeue{'s' if self.requeues != 1 else ''})"
            )
        return line

    def worker_lines(self) -> list[str]:
        """Per-worker shard/point tallies for CLI output, one line each.

        Examples
        --------
        >>> report = ExecutionReport(per_worker={
        ...     "local-0": {"shards": 2, "points": 8}})
        >>> report.worker_lines()
        ['local-0: 2 shards, 8 points']
        """
        return [
            f"{name}: {tally.get('shards', 0)} shard"
            f"{'s' if tally.get('shards', 0) != 1 else ''}, "
            f"{tally.get('points', 0)} point"
            f"{'s' if tally.get('points', 0) != 1 else ''}"
            for name, tally in sorted(self.per_worker.items())
        ]


class Executor:
    """Runs experiment specs with optional caching and process parallelism.

    Parameters
    ----------
    workers : int
        Number of worker processes.  ``1`` (the default) runs everything
        in-process with no ``multiprocessing`` involvement at all — the
        serial fallback used by tests and library callers.  ``0`` or a
        negative value selects ``os.cpu_count()``.
    cache : CacheBackend, optional
        Result cache consulted before computing and updated after — any
        :class:`~repro.experiments.cache.CacheBackend` (on-disk
        :class:`~repro.experiments.cache.ResultCache`, in-memory
        :class:`~repro.experiments.cache.MemoryCache`, or a remote
        :class:`~repro.experiments.distributed.cacheserver.CacheClient`).
        ``None`` (the default) disables caching entirely.
    mp_context : multiprocessing context, optional
        Context used to create the pool (e.g.
        ``multiprocessing.get_context("spawn")``).  Defaults to the
        platform default (``fork`` on Linux, which is also the fastest).

    Examples
    --------
    >>> from repro.experiments import ExperimentSpec, Executor
    >>> executor = Executor()
    >>> executor.run([ExperimentSpec("repro.experiments.demo:multiply", {"a": 6, "b": 7})])
    [42]
    >>> executor.last_report.total
    1
    """

    def __init__(
        self,
        workers: int = 1,
        cache: CacheBackend | None = None,
        mp_context=None,
    ) -> None:
        if workers <= 0:
            workers = multiprocessing.cpu_count()
        self.workers = workers
        self.cache = cache
        self._mp_context = mp_context or multiprocessing.get_context()
        self.last_report = ExecutionReport()

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def run(
        self,
        specs: Iterable[ExperimentSpec],
        progress: Callable[[ExperimentSpec, Any], None] | None = None,
    ) -> list[Any]:
        """Execute every spec and return the results in input order.

        Parameters
        ----------
        specs : iterable of ExperimentSpec
            The points to run; a :class:`~repro.experiments.sweep.Sweep`
            works directly since it iterates over its specs.
        progress : callable, optional
            Called as ``progress(spec, result)`` once per *computed* point
            (cache hits are not reported; with multiple workers the call
            order follows completion, not submission).

        Returns
        -------
        list
            One result per spec, aligned with the input order regardless
            of caching or parallel completion order.
        """
        spec_list = list(specs)
        started = time.perf_counter()
        results, miss_indices = self.scan_cache(spec_list)

        if miss_indices:
            fresh = self._compute(
                [spec_list[index] for index in miss_indices], progress
            )
            for index, value in zip(miss_indices, fresh):
                results[index] = value
                if self.cache is not None:
                    self.cache.put(spec_list[index].key, value)

        self.last_report = self.make_report(
            len(spec_list), len(miss_indices), started
        )
        return results

    def scan_cache(
        self, spec_list: Sequence[ExperimentSpec]
    ) -> tuple[list[Any], list[int]]:
        """Partition specs into cached results and cache-miss indices.

        Returns ``(results, miss_indices)``: one slot per spec, filled for
        hits and ``None`` for misses (every index, when no cache is
        attached).  Shared by :meth:`run` and by front-ends that compute
        misses their own way
        (:class:`repro.experiments.distributed.DistributedExecutor`).
        """
        results: list[Any] = [None] * len(spec_list)
        if self.cache is None:
            return results, list(range(len(spec_list)))
        miss_indices: list[int] = []
        for index, spec in enumerate(spec_list):
            value = self.cache.get(spec.key)
            if value is MISS:
                miss_indices.append(index)
            else:
                results[index] = value
        return results, miss_indices

    def compute(
        self,
        specs: Sequence[ExperimentSpec],
        progress: Callable[[ExperimentSpec, Any], None] | None = None,
    ) -> list[Any]:
        """Compute ``specs`` unconditionally and store fresh results.

        The no-scan half of :meth:`run`: callers that already know these
        specs are cache misses (they partitioned them via
        :meth:`scan_cache`) skip the second round of cache probes.  Does
        not touch :attr:`last_report`.
        """
        spec_list = list(specs)
        outputs = self._compute(spec_list, progress)
        if self.cache is not None:
            for spec, value in zip(spec_list, outputs):
                self.cache.put(spec.key, value)
        return outputs

    def make_report(
        self, total: int, computed: int, started: float
    ) -> ExecutionReport:
        """The :class:`ExecutionReport` of a run that began at ``started``."""
        return ExecutionReport(
            total=total,
            cache_hits=total - computed,
            computed=computed,
            workers=self.workers,
            elapsed_s=time.perf_counter() - started,
        )

    def _compute(
        self,
        specs: Sequence[ExperimentSpec],
        progress: Callable[[ExperimentSpec, Any], None] | None,
    ) -> list[Any]:
        """Run the cache misses, serially or on the pool.

        Parallel results are collected in *completion* order through the
        pool's result callbacks — a slow first task can no longer stall
        the ``progress`` callbacks of every faster task behind it
        (head-of-line blocking) — while the returned list stays aligned
        with the input order.
        """
        if self.workers <= 1 or len(specs) <= 1:
            outputs = []
            for spec in specs:
                value = execute_spec(spec)
                if progress is not None:
                    progress(spec, value)
                outputs.append(value)
            return outputs
        processes = min(self.workers, len(specs))
        with self._mp_context.Pool(processes=processes) as pool:
            outputs = [None] * len(specs)
            completions: queue.Queue = queue.Queue()
            for index, spec in enumerate(specs):
                pool.apply_async(
                    execute_spec,
                    (spec,),
                    callback=lambda value, index=index: completions.put(
                        (index, value, None)
                    ),
                    error_callback=lambda error, index=index: completions.put(
                        (index, None, error)
                    ),
                )
            for _ in range(len(specs)):
                index, value, error = completions.get()
                if error is not None:
                    raise error
                outputs[index] = value
                if progress is not None:
                    progress(specs[index], value)
        return outputs


def run_sweep(
    sweep,
    workers: int = 1,
    cache: CacheBackend | None = None,
) -> list[Any]:
    """Convenience wrapper: expand ``sweep`` and run it on a fresh executor.

    Examples
    --------
    >>> from repro.experiments import Sweep
    >>> run_sweep(Sweep("repro.experiments.demo:multiply",
    ...                 grid={"a": (4, 9)}, base={"b": 6}))
    [24, 54]
    """
    return Executor(workers=workers, cache=cache).run(sweep)
