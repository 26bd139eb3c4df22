"""Tests of the execution-driven system simulator (barrier, run loop, results)."""

import pytest

from repro.core.agents import Barrier, Compute, IdleAgent, Load, TraceAgent, Use
from repro.core.cluster import MemPoolCluster
from repro.core.config import MemPoolConfig
from repro.core.coremodel import CoreStats, CoreTimingModel
from repro.core.system import (
    BarrierMismatchError,
    GlobalBarrier,
    MemPoolSystem,
    SystemResult,
    run_program,
)


class TestGlobalBarrier:
    def test_releases_only_when_everyone_arrived(self):
        barrier = GlobalBarrier({0, 1, 2})
        barrier.arrive(0)
        barrier.arrive(1)
        assert not barrier.try_release()
        barrier.arrive(2)
        assert barrier.try_release()
        assert barrier.episodes == 1

    def test_non_participant_rejected(self):
        barrier = GlobalBarrier({0})
        with pytest.raises(ValueError):
            barrier.arrive(3)

    def test_reusable_across_episodes(self):
        barrier = GlobalBarrier({0, 1})
        for _ in range(3):
            barrier.arrive(0)
            barrier.arrive(1)
            assert barrier.try_release()
        assert barrier.episodes == 3

    def test_matching_barrier_ids_release(self):
        barrier = GlobalBarrier({0, 1})
        barrier.arrive(0, barrier_id=7)
        barrier.arrive(1, barrier_id=7)
        assert barrier.try_release()
        assert barrier.episodes == 1

    def test_mismatched_barrier_ids_raise(self):
        barrier = GlobalBarrier({0, 1})
        barrier.arrive(0, barrier_id=1)
        barrier.arrive(1, barrier_id=2)
        with pytest.raises(BarrierMismatchError):
            barrier.try_release()

    def test_waiting_counts_arrived_cores(self):
        barrier = GlobalBarrier({0, 1, 2})
        barrier.arrive(0)
        barrier.arrive(1)
        assert barrier.waiting == 2


class TestSystemRun:
    def test_all_cores_execute_their_programs(self, toph_tiny_cluster):
        config = toph_tiny_cluster.config
        agents = {
            core: TraceAgent([Compute(core + 1)]) for core in range(config.num_cores)
        }
        result = MemPoolSystem(toph_tiny_cluster, agents).run()
        assert result.active_cores == config.num_cores
        assert result.total.compute_cycles == sum(range(1, config.num_cores + 1))

    def test_idle_cores_do_not_participate_in_barriers(self, toph_tiny_cluster):
        agents = {
            0: TraceAgent([Barrier(), Compute(1)]),
            1: TraceAgent([Barrier(), Compute(1)]),
        }
        result = MemPoolSystem(toph_tiny_cluster, agents).run()
        assert result.barrier_episodes == 1

    def test_explicit_barrier_participants(self, toph_tiny_cluster):
        agents = {0: TraceAgent([Barrier()]), 1: TraceAgent([Compute(1)])}
        system = MemPoolSystem(toph_tiny_cluster, agents, barrier_participants={0})
        result = system.run()
        assert result.barrier_episodes == 1

    def test_run_program_helper(self):
        cluster = MemPoolCluster(MemPoolConfig.tiny("topx"))
        result = run_program(cluster, {0: TraceAgent([Compute(5)])})
        assert result.cycles >= 5

    def test_result_counts_network_traffic(self, toph_tiny_cluster):
        address = toph_tiny_cluster.layout.stack_pointer(0) - 4
        agents = {0: TraceAgent([Load(address, tag="a"), Use("a")])}
        result = MemPoolSystem(toph_tiny_cluster, agents).run()
        assert result.injected_requests == 1
        assert result.completed_requests == 1

    def test_ipc_property(self, toph_tiny_cluster):
        agents = {0: TraceAgent([Compute(10)])}
        result = MemPoolSystem(toph_tiny_cluster, agents).run()
        assert 0 < result.ipc <= 1.0

    def test_deadlock_report_mentions_unfinished_cores(self, toph_tiny_cluster):
        agents = {0: TraceAgent([Barrier()]), 1: TraceAgent([Compute(1), Barrier(), Barrier()])}
        system = MemPoolSystem(toph_tiny_cluster, agents)
        with pytest.raises(RuntimeError, match="unfinished"):
            system.run(max_cycles=200)

    def test_empty_system_finishes_immediately(self, toph_tiny_cluster):
        result = MemPoolSystem(toph_tiny_cluster, {}).run()
        assert result.cycles <= 1
        assert result.instructions == 0

    def test_only_due_cores_are_stepped(self, toph_tiny_cluster, monkeypatch):
        """Sleeping and finished cores are skipped by the per-cycle loop.

        Idle cores step once (cycle 0, where they finish); core 0 steps when
        its compute starts and ends; core 1 issues a remote load at cycle 0,
        stalls on its use at cycle 1, wakes with the response at cycle 5
        and finishes its compute at cycle 6.
        """
        config = toph_tiny_cluster.config
        remote = ((config.tile_of_core(1) + 2) % config.num_tiles) * (
            config.seq_region_bytes_per_tile
        )
        agents = {
            0: TraceAgent([Compute(100)]),
            1: TraceAgent([Load(remote, tag="x"), Use("x"), Compute(1)]),
        }
        stepped = []
        original = CoreTimingModel.step

        def counting_step(core, cycle):
            stepped.append((core.core_id, cycle))
            original(core, cycle)

        monkeypatch.setattr(CoreTimingModel, "step", counting_step)
        result = MemPoolSystem(toph_tiny_cluster, agents).run()
        assert result.cycles == 101
        assert sorted(cycle for core, cycle in stepped if core == 0) == [0, 100]
        assert sorted(cycle for core, cycle in stepped if core == 1) == [0, 1, 5, 6]
        assert sorted(core for core, cycle in stepped if core > 1) == list(
            range(2, config.num_cores)
        )
        assert result.core_stats[1].dependency_stalls == 4

    def test_idle_agent_generates_no_work(self):
        agent = IdleAgent()
        assert list(agent.operations()) == []


class TestSystemResultValidation:
    """Degenerate simulation outcomes are rejected at construction."""

    def test_negative_cycles_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            SystemResult(cycles=-1, core_stats=[])

    def test_activity_over_zero_cycles_rejected(self):
        stats = CoreStats(compute_cycles=4)
        with pytest.raises(ValueError, match="zero cycles"):
            SystemResult(cycles=0, core_stats=[stats])

    def test_requests_over_zero_cycles_rejected(self):
        with pytest.raises(ValueError, match="zero cycles"):
            SystemResult(cycles=0, core_stats=[], injected_requests=3)

    def test_ipc_raises_on_zero_cycle_result(self):
        result = SystemResult(cycles=0, core_stats=[])
        with pytest.raises(ValueError, match="IPC is undefined"):
            result.ipc

    def test_ipc_of_idle_run_is_zero(self, toph_tiny_cluster):
        result = MemPoolSystem(toph_tiny_cluster, {}).run()
        assert result.instructions == 0
        assert result.ipc == 0.0
