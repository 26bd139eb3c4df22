"""Equivalence of the SoA engine with the legacy object engine.

The contract of :mod:`repro.engine` is *cycle-exactness*: for fixed seeds,
the structure-of-arrays ``vector`` engine (deque + move-chain) must produce
flit-for-flit identical injection and completion cycles, and therefore
identical throughput and latency figures, on every topology.  These tests
drive the engines through the same workloads and compare the complete
per-flit logs against the legacy engine.
"""

from __future__ import annotations

import os

import pytest

from repro.core.cluster import MemPoolCluster
from repro.core.config import MemPoolConfig
from repro.kernels.dct import DctKernel
from repro.traffic.generator import TrafficPattern
from repro.traffic.simulation import TrafficSimulation
from repro.workloads import available_injectors, available_patterns
from repro.workloads.registry import injector_entry, pattern_entry

# Entries with required parameters (trace replay needs a recorded file)
# have no default construction; their equivalence is pinned by
# tests/test_trace.py over real recordings instead.
DEFAULT_PATTERNS = tuple(
    name for name in available_patterns() if not pattern_entry(name).required
)
DEFAULT_INJECTORS = tuple(
    name for name in available_injectors() if not injector_entry(name).required
)

COMPARED_FIELDS = (
    "topology",
    "injected_load",
    "measured_cycles",
    "num_cores",
    "generated_requests",
    "injected_requests",
    "completed_requests",
    "average_latency",
    "p95_latency",
    "max_latency",
    "local_fraction",
)


class FixedPermutationPattern(TrafficPattern):
    """Every core always targets one fixed bank (a random permutation).

    Unlike uniform traffic this creates *persistent* contention pairs —
    the same cores collide at the same arbiters every cycle — which is the
    adversarial case for arbitration-order equivalence between engines.
    """

    def __init__(self, config: MemPoolConfig, seed: int = 0) -> None:
        super().__init__(config, seed)
        banks = list(range(config.num_banks))
        self.rng.shuffle(banks)
        self._destination_of = [
            banks[core % config.num_banks] for core in range(config.num_cores)
        ]

    def destination(self, core_id: int) -> int:
        """The fixed destination bank of ``core_id``."""
        return self._destination_of[core_id]


def _run(config: MemPoolConfig, engine: str, pattern_name: str, load: float):
    cluster = MemPoolCluster(config, engine=engine)
    pattern = (
        FixedPermutationPattern(config, seed=7)
        if pattern_name == "permutation"
        else None  # TrafficSimulation defaults to uniform random
    )
    simulation = TrafficSimulation(cluster, load, pattern=pattern, seed=11)
    return simulation.run(warmup_cycles=100, measure_cycles=250, record_flits=True)


@pytest.mark.parametrize("cores", [16, 64])
@pytest.mark.parametrize("pattern_name", ["uniform", "permutation"])
@pytest.mark.parametrize("topology", ["top1", "toph"])
def test_traffic_equivalence(cores, pattern_name, topology):
    """Identical per-flit lifecycles on {16, 64}-core clusters."""
    config = (
        MemPoolConfig.tiny(topology) if cores == 16 else MemPoolConfig.scaled(topology)
    )
    assert config.num_cores == cores
    legacy = _run(config, "legacy", pattern_name, load=0.3)
    assert legacy.flit_log  # the comparison must not be vacuous
    for engine in ("vector",):
        other = _run(config, engine, pattern_name, load=0.3)
        assert legacy.flit_log == other.flit_log, engine
        for field in COMPARED_FIELDS:
            assert getattr(legacy, field) == getattr(other, field), (engine, field)


@pytest.mark.parametrize("pattern", DEFAULT_PATTERNS)
@pytest.mark.parametrize("injector", DEFAULT_INJECTORS)
def test_workload_equivalence_every_pattern_and_injector(pattern, injector):
    """Every registered pattern x injector pair is cycle-exact across engines.

    This is the contract that makes the workload registry safe to extend:
    a component whose batched API drifts from its scalar draw order — or
    whose RNG substreams alias between cores — shows up here as a flit-log
    mismatch before it can corrupt a figure.
    """
    config = MemPoolConfig.tiny("toph")
    logs = {}
    for engine in ("legacy", "vector"):
        cluster = MemPoolCluster(config, engine=engine)
        simulation = TrafficSimulation(
            cluster, 0.3, pattern=pattern, seed=13, injector=injector
        )
        result = simulation.run(
            warmup_cycles=60, measure_cycles=200, record_flits=True
        )
        logs[engine] = (result.flit_log, result.local_fraction)
    assert logs["legacy"][0]  # the comparison must not be vacuous
    assert logs["legacy"] == logs["vector"]


@pytest.mark.parametrize("topology", ["top1", "top4", "toph", "topx"])
def test_traffic_equivalence_every_topology_smoke(topology):
    """Short smoke run covering all four topologies, high load."""
    config = MemPoolConfig.tiny(topology)
    legacy = _run(config, "legacy", "uniform", load=0.6)
    for engine in ("vector",):
        assert legacy.flit_log == _run(config, engine, "uniform", load=0.6).flit_log


@pytest.mark.parametrize("topology", ["top1", "toph"])
def test_system_equivalence_on_kernel(topology):
    """The execution-driven simulator is cycle-exact across engines too."""
    results = {}
    for engine in ("legacy", "vector"):
        cluster = MemPoolCluster(MemPoolConfig.tiny(topology), engine=engine)
        results[engine] = DctKernel(cluster, blocks_per_core=1, seed=0).run(verify=True)
    legacy = results["legacy"]
    for engine in ("vector",):
        other = results[engine]
        assert other.correct
        assert legacy.system.cycles == other.system.cycles, engine
        assert legacy.system.instructions == other.system.instructions, engine
        assert legacy.system.injected_requests == other.system.injected_requests
        assert legacy.system.completed_requests == other.system.completed_requests
        legacy_stats = [stats.__dict__ for stats in legacy.system.core_stats]
        other_stats = [stats.__dict__ for stats in other.system.core_stats]
        assert legacy_stats == other_stats, engine


def test_back_to_back_runs_stay_equivalent():
    """A second measurement window sees the same backlog on both engines.

    Regression test: the vector fast path must reuse the simulation's
    persistent source queues, like the legacy loop does, so that a
    saturated first window hands the same queued backlog to the second.
    """
    config = MemPoolConfig.tiny("top1")
    results = {}
    for engine in ("legacy", "vector"):
        cluster = MemPoolCluster(config, engine=engine)
        simulation = TrafficSimulation(cluster, 0.6, seed=5)
        first = simulation.run(50, 150, record_flits=True)
        second = simulation.run(50, 150, record_flits=True)
        results[engine] = (first.flit_log, second.flit_log, second.local_fraction)
    assert results["legacy"] == results["vector"]


@pytest.mark.skipif(
    not os.environ.get("MEMPOOL_NIGHTLY"),
    reason="paper-scale smoke equivalence runs in the nightly job "
    "(set MEMPOOL_NIGHTLY=1 to run locally)",
)
def test_full_scale_256_core_equivalence_smoke():
    """256-core paper-scale cluster: the legacy and vector engines agree.

    A short window (the per-cycle work at 256 cores is what matters, not
    the horizon) over the paper's full configuration; one topology keeps
    the nightly cost bounded.
    """
    config = MemPoolConfig.full("toph")
    assert config.num_cores == 256
    legacy = _run(config, "legacy", "uniform", load=0.2)
    assert legacy.flit_log  # the comparison must not be vacuous
    for engine in ("vector",):
        other = _run(config, engine, "uniform", load=0.2)
        assert legacy.flit_log == other.flit_log, engine
        for field in COMPARED_FIELDS:
            assert getattr(legacy, field) == getattr(other, field), (engine, field)


@pytest.mark.skipif(
    not os.environ.get("MEMPOOL_NIGHTLY"),
    reason="paper-scale closed-loop equivalence runs in the nightly job "
    "(set MEMPOOL_NIGHTLY=1 to run locally)",
)
def test_full_scale_256_core_kernel_equivalence_smoke():
    """256-core Fig. 7 point: both engines give equal cycles and core stats.

    The open-loop smoke above never reaches the core timing model; this
    closed-loop point drives 256 cores through the facade's injection
    retries, stalls and response wake-ups.
    """
    from repro.evaluation.fig7 import simulate_fig7_point

    results = {
        engine: simulate_fig7_point(
            kernel="matmul", topology="toph", scrambling=True,
            full_scale=True, engine=engine,
        )
        for engine in ("legacy", "vector")
    }
    legacy, vector = results["legacy"], results["vector"]
    assert len(legacy.system.core_stats) == 256
    assert legacy.correct and vector.correct
    assert legacy.cycles == vector.cycles
    assert [stats.__dict__ for stats in legacy.system.core_stats] == [
        stats.__dict__ for stats in vector.system.core_stats
    ]


def test_point_function_equivalence_via_engine_flag():
    """The ``engine`` parameter of the fig5 point function is behaviour-neutral."""
    from repro.evaluation.fig5 import simulate_fig5_point

    legacy = simulate_fig5_point(
        topology="toph", load=0.2, warmup_cycles=50, measure_cycles=150,
        engine="legacy",
    )
    vector = simulate_fig5_point(
        topology="toph", load=0.2, warmup_cycles=50, measure_cycles=150,
        engine="vector",
    )
    for field in COMPARED_FIELDS:
        assert getattr(legacy, field) == getattr(vector, field), field
