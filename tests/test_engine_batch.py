"""Golden equivalence of the SimBatch engine with per-sim engine runs.

The contract of :mod:`repro.engine.batch` is the same cycle-exactness the
vector engine pinned against the legacy engine, lifted to the sim axis:
for fixed seeds, a batch of S simulations must produce flit-for-flit
identical injection and completion cycles — and therefore identical
throughput and latency figures — to S sequential per-sim runs, for every
topology, every workload pair and every mix of member parameters.
"""

from __future__ import annotations

import pytest

from repro.core.cluster import ENGINES, MemPoolCluster
from repro.core.config import MemPoolConfig
from repro.engine.batch import SimBatch, TrafficBatch
from repro.traffic.simulation import TrafficSimulation

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

#: (pattern, injector) pairs of the golden grid — a stochastic legacy
#: pair, a deterministic-permutation pair and a substream-drawing pair,
#: so shared-stream, table-gather and per-core-RNG code paths all appear.
WORKLOAD_PAIRS = (
    ("uniform", "poisson"),
    ("tornado", "bernoulli"),
    ("hotspot", "bursty"),
)


def _vector_run(config, load, pattern, injector, seed, windows=(100, 250)):
    cluster = MemPoolCluster(config, engine="vector")
    simulation = TrafficSimulation(
        cluster, load, pattern=pattern, seed=seed, injector=injector
    )
    return simulation.run(*windows, record_flits=True)


def _assert_equal(vector_result, batch_result, context):
    assert vector_result.flit_log, context  # the comparison must not be vacuous
    assert vector_result.flit_log == batch_result.flit_log, context
    for field in COMPARED_FIELDS:
        assert getattr(vector_result, field) == getattr(batch_result, field), (
            context,
            field,
        )


@pytest.mark.parametrize("cores", [16, 64])
@pytest.mark.parametrize("pattern,injector", WORKLOAD_PAIRS)
def test_batch_flit_logs_bit_identical_to_vector(cores, pattern, injector):
    """A load-sweep batch matches per-sim vector runs flit for flit."""
    config = (
        MemPoolConfig.tiny("toph") if cores == 16 else MemPoolConfig.scaled("toph")
    )
    assert config.num_cores == cores
    loads = (0.1, 0.3, 0.5)
    vector_results = [
        _vector_run(config, load, pattern, injector, seed=11) for load in loads
    ]
    cluster = MemPoolCluster(config, engine="batch")
    simulations = [
        TrafficSimulation(cluster, load, pattern=pattern, seed=11, injector=injector)
        for load in loads
    ]
    batch_results = TrafficBatch(simulations).run(100, 250, record_flits=True)
    for load, vector_result, batch_result in zip(
        loads, vector_results, batch_results
    ):
        _assert_equal(vector_result, batch_result, (cores, pattern, injector, load))


@pytest.mark.parametrize("topology", ["top1", "top4", "toph", "topx"])
def test_batch_every_topology_smoke(topology):
    """Short high-load smoke batch across all four topologies."""
    config = MemPoolConfig.tiny(topology)
    vector_result = _vector_run(config, 0.6, "uniform", "poisson", seed=7)
    cluster = MemPoolCluster(config, engine="batch")
    simulations = [TrafficSimulation(cluster, 0.6, seed=7)]
    batch_result = TrafficBatch(simulations).run(100, 250, record_flits=True)[0]
    _assert_equal(vector_result, batch_result, topology)


def test_heterogeneous_members_stay_independent():
    """Members differing in seed, load, pattern, injector and windows.

    The adversarial case for flattened state: if any flat index leaked
    between sim slices (queues, arbiter grants, RNG substreams), wildly
    different neighbours would perturb each other's logs.
    """
    config = MemPoolConfig.tiny("toph")
    members = [
        dict(load=0.1, seed=3, pattern="uniform", injector="poisson"),
        dict(load=0.5, seed=11, pattern="hotspot", injector="bursty"),
        dict(load=0.3, seed=7, pattern="bit_complement", injector="bernoulli"),
        dict(load=0.2, seed=3, pattern="local_biased", injector="poisson"),
    ]
    windows = [(50, 150), (100, 250), (60, 300), (100, 250)]
    vector_results = [
        _vector_run(
            config, member["load"], member["pattern"], member["injector"],
            member["seed"], window,
        )
        for member, window in zip(members, windows)
    ]
    cluster = MemPoolCluster(config, engine="batch")
    simulations = [
        TrafficSimulation(
            cluster, member["load"], pattern=member["pattern"],
            seed=member["seed"], injector=member["injector"],
        )
        for member in members
    ]
    batch_results = TrafficBatch(simulations).run(
        [window[0] for window in windows],
        [window[1] for window in windows],
        record_flits=True,
    )
    for index, (vector_result, batch_result) in enumerate(
        zip(vector_results, batch_results)
    ):
        _assert_equal(vector_result, batch_result, index)


def test_back_to_back_windows_on_batch_engine():
    """Repeated run() calls see the same persistent backlog as vector."""
    config = MemPoolConfig.tiny("top1")
    results = {}
    for engine in ("vector", "batch"):
        cluster = MemPoolCluster(config, engine=engine)
        simulation = TrafficSimulation(cluster, 0.6, seed=5)
        first = simulation.run(50, 150, record_flits=True)
        second = simulation.run(50, 150, record_flits=True)
        results[engine] = (
            first.flit_log, second.flit_log,
            second.local_fraction, second.average_latency,
        )
    assert results["vector"] == results["batch"]


def test_incompatible_configs_rejected():
    """Members on different cluster configurations must fail loudly."""
    sims = [
        TrafficSimulation(
            MemPoolCluster(MemPoolConfig.tiny("toph"), engine="batch"), 0.1
        ),
        TrafficSimulation(
            MemPoolCluster(MemPoolConfig.tiny("top1"), engine="batch"), 0.1
        ),
    ]
    with pytest.raises(ValueError, match="share one cluster configuration"):
        TrafficBatch(sims)


def test_legacy_engine_members_rejected():
    """A legacy-engine member fails construction with a clear message."""
    simulation = TrafficSimulation(
        MemPoolCluster(MemPoolConfig.tiny("toph"), engine="legacy"), 0.1
    )
    with pytest.raises(ValueError, match="SoA-engine"):
        TrafficBatch([simulation])


def test_simbatch_rejects_empty_batch():
    """Zero-member batches are configuration errors, not silent no-ops."""
    cluster = MemPoolCluster(MemPoolConfig.tiny("toph"), engine="batch")
    with pytest.raises(ValueError, match="at least one sim"):
        SimBatch(cluster.compiled_network(), 0)
    with pytest.raises(ValueError, match="at least one simulation"):
        TrafficBatch([])


def test_window_broadcast_validation():
    """Per-sim window sequences must match the member count."""
    cluster = MemPoolCluster(MemPoolConfig.tiny("toph"), engine="batch")
    simulations = [TrafficSimulation(cluster, 0.1, seed=s) for s in (0, 1)]
    with pytest.raises(ValueError, match="one entry per member"):
        TrafficBatch(simulations).run([50], 100)


def test_batch_engine_is_registered():
    """The engine registry and settings accept the batch engine."""
    from repro.evaluation.settings import ExperimentSettings

    assert "batch" in ENGINES
    assert ExperimentSettings(engine="batch").engine == "batch"
    for engine in ("simbatch", "compiled"):
        with pytest.raises(ValueError, match="unknown engine"):
            ExperimentSettings(engine=engine)


class TestBatchRunner:
    """Sweep-level grouping through the experiments engine."""

    def test_groups_match_sequential_execution(self):
        """BatchRunner results equal per-point Executor results, in order."""
        from repro.evaluation.fig5 import fig5_sweep
        from repro.evaluation.settings import ExperimentSettings
        from repro.experiments import BatchRunner, Executor

        loads = (0.05, 0.2)
        topologies = ("top1", "toph")
        batch_specs = fig5_sweep(
            ExperimentSettings(engine="batch", warmup_cycles=50, measure_cycles=150),
            loads=loads, topologies=topologies,
        ).specs()
        vector_specs = fig5_sweep(
            ExperimentSettings(engine="vector", warmup_cycles=50, measure_cycles=150),
            loads=loads, topologies=topologies,
        ).specs()
        batch_results = BatchRunner(Executor()).run(batch_specs)
        vector_results = Executor().run(vector_specs)
        for batch_result, vector_result in zip(batch_results, vector_results):
            for field in COMPARED_FIELDS:
                assert getattr(batch_result, field) == getattr(
                    vector_result, field
                ), field

    def test_results_flow_through_existing_cache(self, tmp_path):
        """Batched results land in the ResultCache under unchanged keys."""
        from repro.evaluation.fig5 import fig5_sweep
        from repro.evaluation.settings import ExperimentSettings
        from repro.experiments import BatchRunner, Executor, ResultCache

        specs = fig5_sweep(
            ExperimentSettings(engine="batch", warmup_cycles=40, measure_cycles=80),
            loads=(0.05, 0.1), topologies=("toph",),
        ).specs()
        cache = ResultCache(tmp_path)
        first = BatchRunner(Executor(cache=cache)).run(specs)
        # A plain executor — no batching involved — must now hit for every
        # spec: batching is invisible at the cache layer.
        executor = Executor(cache=cache)
        second = executor.run(specs)
        assert executor.last_report.cache_hits == len(specs)
        assert [r.average_latency for r in first] == [
            r.average_latency for r in second
        ]

    def test_non_batchable_specs_fall_through(self):
        """Unknown runners execute on the wrapped executor unchanged."""
        from repro.experiments import BatchRunner, Executor, ExperimentSpec

        specs = [
            ExperimentSpec("repro.experiments.demo:multiply", {"a": a, "b": 7})
            for a in (2, 3)
        ]
        assert BatchRunner(Executor()).run(specs) == [14, 21]

    def test_fig6_grid_batches_into_one_group(self):
        """The fig6 (p_local x load) grid is one toph-compatible group."""
        from repro.evaluation.fig6 import assemble_fig6, fig6_sweep
        from repro.evaluation.settings import ExperimentSettings
        from repro.experiments import BatchRunner, Executor

        settings = ExperimentSettings(
            engine="batch", warmup_cycles=40, measure_cycles=120
        )
        specs = fig6_sweep(settings, loads=(0.2, 0.4), p_locals=(0.0, 1.0)).specs()
        results = BatchRunner(Executor()).run(specs)
        figure = assemble_fig6(specs, results)
        # p_local=1.0 traffic never leaves the tile: lower latency, all local.
        assert figure.latency(1.0)[-1] < figure.latency(0.0)[-1]
        assert all(
            result.local_fraction == 1.0 for result in figure.results[1.0]
        )

    def test_experiments_cli_accepts_engine_batch(self, capsys):
        """``python -m repro.experiments run --engine batch`` end to end."""
        from repro.experiments.__main__ import main

        assert main(["run", "fig10", "--engine", "batch", "--no-cache"]) == 0
        assert "Figure 10" in capsys.readouterr().out

    def test_evaluation_cli_accepts_engine_batch(self, capsys):
        """``python -m repro.evaluation --engine batch`` end to end."""
        from repro.evaluation.__main__ import main

        assert main(["fig10", "--engine", "batch"]) == 0
        assert "Figure 10" in capsys.readouterr().out

    def test_mixed_topology_families_batch_per_family(self):
        """One spec list mixing topology families still equals per-point runs.

        A heterogeneous sweep — four structurally different families
        interleaved load-major, so same-family specs are never adjacent —
        must split into one SimBatch group per (family, params) with >= 2
        members each, and every result must equal the point's own vector
        run field for field, in the original spec order.
        """
        from repro.experiments import BatchRunner, Executor, ExperimentSpec
        from repro.experiments.batch import plan_batches

        families = (
            ("toph", {}),
            ("mesh", {"width": 4, "height": 4}),
            ("ring", {}),
            ("butterfly", {"radix": 2, "ports": 2}),
        )
        loads = (0.1, 0.25)

        def specs(engine):
            return [
                ExperimentSpec(
                    "repro.evaluation.topologies:simulate_topology_point",
                    {
                        "topology": topology,
                        "topology_params": dict(params),
                        "load": load,
                        "full_scale": False,
                        "warmup_cycles": 40,
                        "measure_cycles": 120,
                        "seed": 9,
                        "engine": engine,
                        "pattern": "uniform",
                        "injector": "poisson",
                    },
                )
                for load in loads
                for topology, params in families
            ]

        batch_specs = specs("batch")
        groups = [
            group for group in plan_batches(batch_specs) if len(group) > 1
        ]
        assert len(groups) == len(families)
        assert all(len(group) == len(loads) for group in groups)

        batch_results = BatchRunner(Executor()).run(batch_specs)
        vector_results = Executor().run(specs("vector"))
        assert [r.topology for r in batch_results] == [
            s.params["topology"] for s in batch_specs
        ]
        for batch_result, vector_result in zip(batch_results, vector_results):
            for field in COMPARED_FIELDS:
                assert getattr(batch_result, field) == getattr(
                    vector_result, field
                ), (batch_result.topology, field)
