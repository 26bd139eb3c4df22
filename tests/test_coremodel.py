"""Tests of the core timing model (operation semantics, stalls, latency hiding)."""

import pytest

from repro.core.agents import Barrier, Compute, Load, Store, TraceAgent, Use
from repro.core.cluster import ENGINES, MemPoolCluster
from repro.core.config import MemPoolConfig, TimingParameters
from repro.core.system import MemPoolSystem


def run_single_core(operations, topology="toph", config=None, core_id=0, max_cycles=10_000):
    """Run one core's operation list on an otherwise idle tiny cluster."""
    cluster = MemPoolCluster(config or MemPoolConfig.tiny(topology))
    system = MemPoolSystem(cluster, {core_id: TraceAgent(list(operations))})
    result = system.run(max_cycles=max_cycles)
    return result, cluster


def local_address(cluster, core_id=0):
    return cluster.layout.stack_pointer(core_id) - 8


def remote_address(cluster, core_id=0):
    """An address in another tile's sequential slice (always remote)."""
    config = cluster.config
    other_tile = (config.tile_of_core(core_id) + 2) % config.num_tiles
    return other_tile * config.seq_region_bytes_per_tile + 16


class TestComputeTiming:
    def test_compute_costs_its_cycles(self):
        result, _ = run_single_core([Compute(10)])
        assert result.cycles == pytest.approx(10, abs=2)
        assert result.total.compute_cycles == 10

    def test_zero_cycle_compute_is_free(self):
        result, _ = run_single_core([Compute(0), Compute(0), Compute(3)])
        assert result.total.compute_cycles == 3
        assert result.cycles <= 5

    def test_mul_count_tracked(self):
        result, _ = run_single_core([Compute(6, muls=2)])
        assert result.total.mul_instructions == 2

    def test_invalid_compute_rejected(self):
        with pytest.raises(ValueError):
            Compute(-1)
        with pytest.raises(ValueError):
            Compute(2, muls=3)


class TestLoadTiming:
    def test_local_load_use_costs_two_cycles(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"))
        address = local_address(cluster)
        system = MemPoolSystem(cluster, {0: TraceAgent([Load(address, tag="x"), Use("x")])})
        result = system.run()
        # Issue at cycle 0, data back at cycle 1, drained by cycle ~2.
        assert result.cycles <= 4
        assert result.total.local_loads == 1

    def test_remote_load_latency_visible_without_overlap(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"))
        address = remote_address(cluster)
        system = MemPoolSystem(cluster, {0: TraceAgent([Load(address, tag="x"), Use("x")])})
        result = system.run()
        assert result.total.remote_loads == 1
        assert result.total.load_latency_max == 5

    def test_outstanding_loads_hide_latency(self):
        """Eight independent remote loads should overlap, not serialise."""
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"))
        operations = []
        for index in range(8):
            operations.append(Load(remote_address(cluster) + 4 * index, tag=index))
        operations.extend(Use(index) for index in range(8))
        system = MemPoolSystem(cluster, {0: TraceAgent(operations)})
        result = system.run()
        # Serialised execution would take ~8 x 5 = 40 cycles.
        assert result.cycles < 20

    def test_rob_capacity_limits_outstanding_loads(self):
        timing = TimingParameters(max_outstanding_loads=2)
        config = MemPoolConfig.tiny("toph", timing=timing)
        cluster = MemPoolCluster(config)
        operations = [Load(remote_address(cluster) + 4 * i, tag=i) for i in range(6)]
        operations.extend(Use(i) for i in range(6))
        system = MemPoolSystem(cluster, {0: TraceAgent(operations)})
        result = system.run()
        assert result.total.structural_stalls > 0

    def test_use_of_unknown_tag_raises(self):
        with pytest.raises(ValueError, match="before any load"):
            run_single_core([Use("ghost")])

    def test_tag_reuse_refers_to_the_latest_load(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"))
        address = local_address(cluster)
        operations = [Load(address, tag="x"), Use("x"), Load(address + 4, tag="x"), Use("x")]
        system = MemPoolSystem(cluster, {0: TraceAgent(operations)})
        result = system.run()
        assert result.total.loads == 2

    def test_dependency_stall_counted(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"))
        operations = [Load(remote_address(cluster), tag="x"), Use("x")]
        system = MemPoolSystem(cluster, {0: TraceAgent(operations)})
        result = system.run()
        assert result.total.dependency_stalls >= 3


class TestStores:
    def test_store_counts_by_locality(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"))
        operations = [Store(local_address(cluster)), Store(remote_address(cluster))]
        system = MemPoolSystem(cluster, {0: TraceAgent(operations)})
        result = system.run()
        assert result.total.local_stores == 1
        assert result.total.remote_stores == 1

    def test_stores_do_not_wait_for_responses(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"))
        operations = [Store(remote_address(cluster) + 4 * i) for i in range(4)]
        system = MemPoolSystem(cluster, {0: TraceAgent(operations)})
        result = system.run()
        assert result.cycles < 15


class TestInstructionAccounting:
    def test_instruction_total(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"))
        address = local_address(cluster)
        operations = [Compute(3), Load(address, tag="a"), Use("a"), Store(address)]
        system = MemPoolSystem(cluster, {0: TraceAgent(operations)})
        result = system.run()
        assert result.instructions == 5  # 3 compute + 1 load + 1 store
        assert result.active_cores == 1

    def test_average_load_latency(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"))
        operations = [Load(local_address(cluster), tag="a"), Use("a")]
        system = MemPoolSystem(cluster, {0: TraceAgent(operations)})
        result = system.run()
        assert result.total.average_load_latency == pytest.approx(1.0)

    def test_stall_cycles_property(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"))
        operations = [Load(remote_address(cluster), tag="a"), Use("a")]
        system = MemPoolSystem(cluster, {0: TraceAgent(operations)})
        result = system.run()
        total = result.total
        assert total.stall_cycles == (
            total.dependency_stalls + total.structural_stalls + total.barrier_stalls
        )


class TestBarrierOperation:
    def test_barrier_synchronises_fast_and_slow_cores(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"))
        agents = {
            0: TraceAgent([Compute(1), Barrier(), Compute(1)]),
            1: TraceAgent([Compute(50), Barrier(), Compute(1)]),
        }
        system = MemPoolSystem(cluster, agents)
        result = system.run()
        assert result.barrier_episodes == 1
        assert result.cycles >= 50
        assert result.core_stats[0].barrier_stalls >= 40

    def test_unbalanced_barriers_are_reported_as_deadlock(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("toph"))
        agents = {
            0: TraceAgent([Barrier(), Compute(1)]),
            1: TraceAgent([Compute(1)]),
        }
        system = MemPoolSystem(cluster, agents)
        with pytest.raises(RuntimeError, match="barrier"):
            system.run(max_cycles=500)


def run_agents(agents, engine, config=None):
    """Run ``{core: build(cluster) -> operations}``; return system and result."""
    cluster = MemPoolCluster(config or MemPoolConfig.tiny("toph"), engine=engine)
    built = {core: TraceAgent(list(operations(cluster))) for core, operations in agents.items()}
    system = MemPoolSystem(cluster, built)
    return system, system.run()


@pytest.mark.parametrize("engine", ENGINES)
class TestStallCountsAreExact:
    """Exact stall counters for each way a core can wait.

    Every value was recorded with every core stepped on every cycle; a
    core that sleeps through a wait must account the skipped cycles the
    same way.
    """

    def test_load_use_dependency_stall(self, engine):
        # Load issued at cycle 0, Use stalls on cycles 1-4, data at cycle 5.
        _, result = run_agents(
            {0: lambda c: [Load(remote_address(c), tag="x"), Use("x"), Compute(2)]}, engine
        )
        stats = result.core_stats[0]
        assert (result.cycles, stats.dependency_stalls, stats.finish_cycle) == (8, 4, 7)
        assert stats.structural_stalls == stats.barrier_stalls == 0

    def test_back_to_back_loads_with_one_outstanding(self, engine):
        config = MemPoolConfig.tiny(
            "toph", timing=TimingParameters(max_outstanding_loads=1)
        )
        _, result = run_agents(
            {0: lambda c: [Load(remote_address(c) + 4 * i) for i in range(4)]},
            engine, config,
        )
        stats = result.core_stats[0]
        assert (result.cycles, stats.structural_stalls, stats.finish_cycle) == (21, 12, 16)
        assert stats.dependency_stalls == 0
        assert (stats.load_latency_sum, stats.load_latency_max) == (20, 5)

    def test_injection_queue_full_stall(self, engine):
        # Four cores of tile 0 store to one remote word through a
        # one-entry injection queue: stores never wait on the ROB, so
        # every structural stall is a full queue.
        config = MemPoolConfig.tiny(
            "toph", timing=TimingParameters(injection_queue_depth=1)
        )
        _, result = run_agents(
            {core: lambda c: [Store(remote_address(c))] * 6 for core in range(4)},
            engine, config,
        )
        stalls = [stats.structural_stalls for stats in result.core_stats[:4]]
        finish = [stats.finish_cycle for stats in result.core_stats[:4]]
        assert result.cycles == 27
        assert stalls == [18, 9, 0, 12]
        assert finish == [24, 15, 6, 18]

    def test_unrelated_response_does_not_end_the_stall(self, engine):
        # Use("b") stalls from cycle 2; the response of "a" wakes the core
        # at cycle 5, it stalls once more and sleeps until "b" at cycle 6.
        _, result = run_agents(
            {0: lambda c: [
                Load(remote_address(c), tag="a"),
                Load(remote_address(c) + 4, tag="b"),
                Use("b"),
            ]},
            engine,
        )
        stats = result.core_stats[0]
        assert (result.cycles, stats.dependency_stalls, stats.finish_cycle) == (7, 4, 6)
        assert (stats.load_latency_sum, stats.load_latency_max) == (10, 5)

    def test_barrier_stalls_count_every_waiting_cycle(self, engine):
        # Core 0 arrives at cycle 1, core 1 at cycle 50; the barrier opens
        # at the end of cycle 50, so core 0 waited on cycles 2-50.
        _, result = run_agents(
            {
                0: lambda c: [Compute(1), Barrier(), Compute(1)],
                1: lambda c: [Compute(50), Barrier(), Compute(1)],
            },
            engine,
        )
        assert result.cycles == 53
        assert [stats.barrier_stalls for stats in result.core_stats[:2]] == [49, 0]
        assert [stats.finish_cycle for stats in result.core_stats[:2]] == [52, 52]
        assert result.barrier_episodes == 1

    def test_done_core_step_does_nothing(self, engine):
        system, result = run_agents({0: lambda c: [Compute(3)]}, engine)
        core = system.cores[0]
        assert (result.cycles, core.stats.finish_cycle) == (4, 3)
        before = dict(core.stats.__dict__)
        for cycle in range(result.cycles, result.cycles + 5):
            core.step(cycle)
        assert core.stats.__dict__ == before
        assert core.idle
