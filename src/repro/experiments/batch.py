"""Sweep-level batching: group compatible specs into SimBatch runs.

The :class:`~repro.experiments.executor.Executor` runs sweep points one by
one (or across processes); :class:`BatchRunner` sits in front of it and
recognises points that are *open-loop traffic measurements on the same
cluster configuration* — the fig5/fig6/workloads families — and runs each
such group as one :class:`repro.engine.batch.TrafficBatch` over a shared
:class:`repro.engine.batch.SimBatch`, instead of one engine per point.
Everything else (kernel benchmarks, power/physical tables, singleton
groups, unknown runners) falls through to the wrapped executor unchanged.

Results are flit-for-flit identical to per-point execution (the batch
members keep their own seeds, patterns, injectors and windows — see
:mod:`repro.engine.batch`) and are fed back through the executor's
:class:`~repro.experiments.cache.ResultCache` under the very same spec
keys, so cached batch results and cached per-point results are mutually
interchangeable at the cache layer.

Batchable runners are registered in :data:`BATCHABLE_RUNNERS`: an adapter
maps a spec's parameters to the batch *group key* (everything that must
match for two sims to share a compiled network and cycle loop) and to the
member's :class:`~repro.traffic.simulation.TrafficSimulation`.  New
traffic-style point functions opt in by registering an adapter.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.experiments.executor import ExecutionReport, Executor
from repro.experiments.spec import ExperimentSpec


@dataclass(frozen=True)
class TrafficAdapter:
    """How to batch one family of traffic point functions.

    Parameters
    ----------
    topology : callable
        Maps spec params to the topology name the point runs on.
    build_simulation : callable
        Maps ``(params, cluster)`` to the member
        :class:`~repro.traffic.simulation.TrafficSimulation` — it must
        construct pattern/injector/seed exactly as the point function
        does, so batched RNG streams match per-point streams.
    """

    topology: Callable[[dict], str]
    build_simulation: Callable[[dict, Any], Any]

    def group_key(self, params: dict) -> tuple:
        """Hashable key of the batch group a spec belongs to.

        Two specs share a group only when they agree on everything that
        the shared engine state depends on: the cluster configuration
        (topology name + family parameters + scale).  The caller prefixes
        the runner path, and measurement windows stay per-member
        (:meth:`repro.engine.batch.TrafficBatch.run` supports per-sim
        horizons), so neither is part of this key.
        """
        return (
            self.topology(params),
            tuple(sorted((params.get("topology_params") or {}).items())),
            bool(params.get("full_scale", False)),
        )


def _default_seed() -> int:
    """The evaluation layer's shared default seed (imported lazily).

    The adapters must fall back to exactly the defaults of the point
    functions they mirror — re-hardcoding the value here would let the
    two silently drift apart and poison the shared cache.  Lazy because
    ``repro.evaluation`` imports ``repro.experiments`` at package level.
    """
    from repro.evaluation.settings import DEFAULT_SEED

    return DEFAULT_SEED


def _fig5_simulation(params: dict, cluster) -> Any:
    """Member builder mirroring :func:`repro.evaluation.fig5.simulate_fig5_point`."""
    from repro.traffic.simulation import TrafficSimulation

    return TrafficSimulation(
        cluster,
        params["load"],
        pattern=params.get("pattern", "uniform"),
        seed=params.get("seed", _default_seed()),
        injector=params.get("injector", "poisson"),
    )


def _fig6_simulation(params: dict, cluster) -> Any:
    """Member builder mirroring :func:`repro.evaluation.fig6.simulate_fig6_point`."""
    from repro.traffic.simulation import TrafficSimulation
    from repro.workloads.patterns import LocalBiasedPattern

    seed = params.get("seed", _default_seed())
    pattern = LocalBiasedPattern(cluster.config, params["p_local"], seed=seed)
    return TrafficSimulation(
        cluster,
        params["load"],
        pattern=pattern,
        seed=seed,
        injector=params.get("injector", "poisson"),
    )


def _workload_simulation(params: dict, cluster) -> Any:
    """Member builder mirroring :func:`repro.evaluation.workloads.simulate_workload_point`."""
    from repro.traffic.simulation import TrafficSimulation

    return TrafficSimulation(
        cluster,
        params["load"],
        pattern=params["pattern"],
        seed=params.get("seed", _default_seed()),
        injector=params["injector"],
    )


#: Adapters of the batchable point functions, keyed by runner path.
def _topology_simulation(params: dict, cluster) -> Any:
    """Member builder mirroring :func:`repro.evaluation.topologies.simulate_topology_point`."""
    from repro.traffic.simulation import TrafficSimulation

    return TrafficSimulation(
        cluster,
        params["load"],
        pattern=params.get("pattern", "uniform"),
        seed=params.get("seed", _default_seed()),
        injector=params.get("injector", "poisson"),
    )


def _trace_simulation(params: dict, cluster) -> Any:
    """Member builder mirroring :func:`repro.evaluation.traces.simulate_trace_point`."""
    from repro.traffic.simulation import TrafficSimulation

    replay = {"path": params["trace"], "sha": params["trace_sha"]}
    return TrafficSimulation(
        cluster,
        params["load"],
        pattern="trace",
        pattern_params=dict(replay),
        seed=params.get("seed", _default_seed()),
        injector="trace",
        injector_params=dict(replay),
    )


BATCHABLE_RUNNERS: dict[str, TrafficAdapter] = {
    "repro.evaluation.fig5:simulate_fig5_point": TrafficAdapter(
        topology=lambda params: params["topology"],
        build_simulation=_fig5_simulation,
    ),
    "repro.evaluation.fig6:simulate_fig6_point": TrafficAdapter(
        topology=lambda params: "toph",
        build_simulation=_fig6_simulation,
    ),
    "repro.evaluation.workloads:simulate_workload_point": TrafficAdapter(
        topology=lambda params: params["topology"],
        build_simulation=_workload_simulation,
    ),
    "repro.evaluation.topologies:simulate_topology_point": TrafficAdapter(
        topology=lambda params: params["topology"],
        build_simulation=_topology_simulation,
    ),
    "repro.evaluation.traces:simulate_trace_point": TrafficAdapter(
        topology=lambda params: params["topology"],
        build_simulation=_trace_simulation,
    ),
}


def spec_group_key(spec: ExperimentSpec) -> tuple | None:
    """The batch-group key of ``spec``, or ``None`` when unbatchable.

    Two specs with equal (non-``None``) keys can share one compiled
    network and cycle loop — the contract both :class:`BatchRunner` and
    the distributed shard planner
    (:func:`repro.experiments.distributed.shards.plan_shards`) group by,
    so a shard shipped to a remote worker still gets per-shard
    ``SimBatch`` packing.
    """
    adapter = BATCHABLE_RUNNERS.get(spec.runner)
    if adapter is None:
        return None
    return (spec.runner,) + adapter.group_key(spec.params)


def plan_batches(specs: Iterable[ExperimentSpec]) -> list[list[int]]:
    """The index groups a :class:`BatchRunner` would form over ``specs``.

    Pure planning — no cache consultation, no execution: specs sharing a
    batchable runner and a compatible cluster configuration (same
    topology, family parameters and scale) group together in first-seen
    order; every non-batchable spec is its own singleton group.  At run
    time singleton groups fall through to the plain executor, so this is
    also the cheap way for tests (and curious users) to see how a
    heterogeneous sweep will actually batch.
    """
    groups: dict[tuple, list[int]] = {}
    order: list[tuple] = []
    for index, spec in enumerate(specs):
        key = spec_group_key(spec)
        if key is None:
            key = ("__unbatchable__", index)
        if key not in groups:
            order.append(key)
        groups.setdefault(key, []).append(index)
    return [groups[key] for key in order]


class BatchRunner:
    """Executor front-end that batches compatible traffic specs.

    Parameters
    ----------
    executor : Executor
        The executor whose cache is consulted/updated and which computes
        every spec the runner cannot batch.

    Examples
    --------
    >>> from repro.evaluation.fig5 import fig5_sweep
    >>> from repro.evaluation.settings import ExperimentSettings
    >>> settings = ExperimentSettings(
    ...     engine="batch", warmup_cycles=40, measure_cycles=80)
    >>> specs = fig5_sweep(settings, loads=(0.05, 0.1), topologies=("toph",)).specs()
    >>> results = BatchRunner(Executor()).run(specs)
    >>> [0.0 < result.throughput <= 2 * load for result, load in zip(results, (0.05, 0.1))]
    [True, True]
    """

    def __init__(self, executor: Executor) -> None:
        self.executor = executor
        self.last_report = ExecutionReport()

    def run(
        self,
        specs: Iterable[ExperimentSpec],
        progress: Callable[[ExperimentSpec, Any], None] | None = None,
    ) -> list[Any]:
        """Execute every spec, batching what can be batched.

        Same contract as :meth:`repro.experiments.executor.Executor.run`:
        results come back in input order, cache hits are served from (and
        fresh results stored into) the executor's cache under unchanged
        spec keys.
        """
        started = time.perf_counter()
        spec_list = list(specs)
        cache = self.executor.cache
        results, miss_indices = self.executor.scan_cache(spec_list)

        groups: dict[tuple, list[int]] = {}
        leftovers: list[int] = []
        for index in miss_indices:
            key = spec_group_key(spec_list[index])
            if key is None:
                leftovers.append(index)
            else:
                groups.setdefault(key, []).append(index)

        for key, indices in groups.items():
            if len(indices) < 2:
                # A batch of one amortises nothing; the executor's plain
                # path is simpler and byte-identical.
                leftovers.extend(indices)
                continue
            for index, value in zip(indices, self._run_group(spec_list, indices)):
                results[index] = value
                if cache is not None:
                    cache.put(spec_list[index].key, value)
                if progress is not None:
                    progress(spec_list[index], value)

        if leftovers:
            leftover_specs = [spec_list[index] for index in leftovers]
            computed = self.executor.compute(leftover_specs, progress)
            for index, value in zip(leftovers, computed):
                results[index] = value

        self.last_report = self.executor.make_report(
            len(spec_list), len(miss_indices), started
        )
        return results

    def _run_group(self, spec_list: list[ExperimentSpec], indices: list[int]) -> list:
        """Run one compatible group as a single TrafficBatch."""
        from repro.core.cluster import MemPoolCluster
        from repro.engine.batch import TrafficBatch
        from repro.evaluation.settings import (
            DEFAULT_MEASURE_CYCLES,
            DEFAULT_WARMUP_CYCLES,
            ExperimentSettings,
        )

        first = spec_list[indices[0]]
        adapter = BATCHABLE_RUNNERS[first.runner]
        # The group inherits the sweep's engine (every spec of a run
        # carries the same one).
        engine = first.params.get("engine", "batch")
        settings = ExperimentSettings(
            full_scale=bool(first.params.get("full_scale", False)), engine=engine
        )
        cluster = MemPoolCluster(
            settings.config(
                adapter.topology(first.params),
                topology_params=first.params.get("topology_params") or {},
            ),
            engine=engine,
        )
        simulations = []
        warmups = []
        measures = []
        for index in indices:
            params = spec_list[index].params
            simulations.append(adapter.build_simulation(params, cluster))
            warmups.append(params.get("warmup_cycles", DEFAULT_WARMUP_CYCLES))
            measures.append(params.get("measure_cycles", DEFAULT_MEASURE_CYCLES))
        results = TrafficBatch(simulations).run(warmups, measures)
        # Mirror the point functions' energy attach (same helper, same
        # cluster configuration), so batched and per-point results stay
        # byte-identical under the shared cache keys.
        from repro.energy.traffic import attach_energy

        for index, result in zip(indices, results):
            attach_energy(
                cluster, result, bool(spec_list[index].params.get("energy", False))
            )
        return results
