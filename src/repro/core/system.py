"""Execution-driven simulation of programs running on the MemPool cluster.

:class:`MemPoolSystem` instantiates one :class:`CoreTimingModel` per core,
connects them to the cluster's stage network, and advances everything cycle
by cycle until every core has finished its program and the interconnect has
drained.  Within a cycle only the cores whose state can change are stepped
(see :mod:`repro.core.coremodel` for the wake rules).  The result object
carries the cycle count and the activity counters consumed by the energy and
power models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.agents import CoreAgent, IdleAgent
from repro.core.cluster import MemPoolCluster
from repro.core.coremodel import CoreStats, CoreTimingModel
from repro.utils.rotation import PermutationSchedule


class BarrierTimeoutError(RuntimeError):
    """Raised when a program deadlocks (e.g. mismatched barrier usage)."""


class BarrierMismatchError(RuntimeError):
    """Raised when cores meet at a barrier with different ``barrier_id``s."""


class GlobalBarrier:
    """A simple all-core barrier used by the parallel kernels.

    Every participant calls :meth:`arrive` with the identifier of the
    barrier it reached; the barrier releases once all participants have
    arrived.  The identifiers must agree within one episode — a program
    where core A sits at barrier 1 while core B announces barrier 2 is
    broken (the cores would be synchronising different program points),
    and such a meeting raises :class:`BarrierMismatchError` instead of
    silently releasing.
    """

    def __init__(self, participants: set[int]) -> None:
        self.participants = set(participants)
        #: Arrived cores mapped to the barrier id each one announced.
        self._arrived: dict[int, int] = {}
        #: Number of completed barrier episodes (for statistics).
        self.episodes = 0

    def arrive(self, core_id: int, barrier_id: int = 0) -> None:
        """Record that ``core_id`` reached the barrier named ``barrier_id``."""
        if core_id not in self.participants:
            raise ValueError(f"core {core_id} is not a barrier participant")
        self._arrived[core_id] = barrier_id

    @property
    def waiting(self) -> int:
        """Number of cores currently blocked at the barrier."""
        return len(self._arrived)

    def try_release(self) -> bool:
        """Release the barrier if every participant has arrived.

        Raises
        ------
        BarrierMismatchError
            If the participants arrived with differing ``barrier_id``s.
        """
        if self.participants and set(self._arrived) >= self.participants:
            identifiers = set(self._arrived.values())
            if len(identifiers) > 1:
                arrivals = ", ".join(
                    f"core {core}: barrier {bid}"
                    for core, bid in sorted(self._arrived.items())
                )
                raise BarrierMismatchError(
                    f"participants arrived at different barriers ({arrivals})"
                )
            self._arrived.clear()
            self.episodes += 1
            return True
        return False


@dataclass
class SystemResult:
    """Outcome of one execution-driven simulation.

    Raises
    ------
    ValueError
        At construction, when the result is degenerate: a negative cycle
        count, or retired instructions / injected requests reported over a
        zero-cycle run.  Such results would make :attr:`ipc` a division by
        zero (or a silent lie) deep inside the energy and figure reports,
        so they are rejected where they are produced.
    """

    cycles: int
    core_stats: list[CoreStats]
    total: CoreStats = field(default_factory=CoreStats)
    injected_requests: int = 0
    completed_requests: int = 0
    barrier_episodes: int = 0

    def __post_init__(self) -> None:
        if not self.total.instructions:
            total = CoreStats()
            for stats in self.core_stats:
                total.merge(stats)
            self.total = total
        if self.cycles < 0:
            raise ValueError(f"cycle count must be non-negative, got {self.cycles}")
        if self.cycles == 0 and (
            self.total.instructions or self.injected_requests or self.completed_requests
        ):
            raise ValueError(
                "inconsistent SystemResult: "
                f"{self.total.instructions} instructions and "
                f"{self.injected_requests} requests reported over zero cycles"
            )

    @property
    def active_cores(self) -> int:
        """Number of cores that executed at least one instruction."""
        return sum(1 for stats in self.core_stats if stats.instructions > 0)

    @property
    def instructions(self) -> int:
        return self.total.instructions

    @property
    def ipc(self) -> float:
        """Cluster-wide instructions per cycle.

        Raises
        ------
        ValueError
            For a zero-cycle simulation (nothing ran, so no core retired an
            instruction): IPC is undefined there, and raising beats the old
            behaviour of silently reporting ``0.0``.
        """
        if self.cycles == 0:
            raise ValueError(
                "IPC is undefined: no core retired an instruction over a "
                "zero-cycle simulation"
            )
        return self.instructions / self.cycles


class MemPoolSystem:
    """Cycle-driven simulator of agents (programs) running on the cluster."""

    def __init__(
        self,
        cluster: MemPoolCluster,
        agents: dict[int, CoreAgent] | None = None,
        barrier_participants: set[int] | None = None,
    ) -> None:
        self.cluster = cluster
        config = cluster.config
        agents = agents or {}
        self.agents: list[CoreAgent] = [
            agents.get(core_id, IdleAgent()) for core_id in range(config.num_cores)
        ]
        if barrier_participants is None:
            barrier_participants = {
                core_id
                for core_id, agent in enumerate(self.agents)
                if not isinstance(agent, IdleAgent)
            }
        self.barrier = GlobalBarrier(barrier_participants)
        self.cores = [
            CoreTimingModel(core_id, cluster, agent, self.barrier)
            for core_id, agent in enumerate(self.agents)
        ]
        schedule = PermutationSchedule(len(self.cores), seed=1)
        #: The cores in each of the schedule's per-cycle visiting orders.
        self._step_orders = [
            tuple(self.cores[index] for index in schedule.order(cycle))
            for cycle in range(schedule.pool_size)
        ]
        self.cycle = 0

    @classmethod
    def synthetic(
        cls,
        cluster: MemPoolCluster,
        injection_rate: float,
        pattern: str = "uniform",
        injector: str = "poisson",
        requests_per_core: int = 32,
        seed: int = 0,
        pattern_params: dict | None = None,
        injector_params: dict | None = None,
    ) -> "MemPoolSystem":
        """A system whose cores run a registered workload closed-loop.

        Builds one :class:`repro.workloads.agents.WorkloadAgent` per core
        from the named destination pattern and injection process, so any
        workload from the :mod:`repro.workloads` registry also runs
        through the execution-driven simulator — reorder buffers,
        outstanding-load limits and barriers included — on either timing
        engine.  Imported lazily because the workload layer sits above
        the core layer.

        Parameters
        ----------
        cluster : MemPoolCluster
            The cluster to run on (its ``engine`` choice is honoured).
        injection_rate : float
            Offered load in requests per core per cycle (must be > 0).
        pattern, injector : str
            Workload registry names (see
            :func:`repro.workloads.available_patterns` /
            :func:`~repro.workloads.available_injectors`).
        requests_per_core : int
            Loads each core issues before finishing.
        seed : int
            Experiment seed the workload substreams derive from.
        pattern_params, injector_params : dict, optional
            Registry parameters (e.g. ``{"p_local": 0.25}``).
        """
        from repro.workloads.agents import build_synthetic_agents
        from repro.workloads.registry import make_injector, make_pattern

        config = cluster.config
        agents = build_synthetic_agents(
            cluster,
            make_pattern(pattern, config, seed=seed, **(pattern_params or {})),
            make_injector(
                injector,
                config.num_cores,
                injection_rate,
                seed=seed,
                **(injector_params or {}),
            ),
            requests_per_core,
        )
        return cls(cluster, agents=agents)

    # ------------------------------------------------------------------ #
    # Simulation loop
    # ------------------------------------------------------------------ #

    def step(self) -> None:
        """Advance the whole system by one cycle.

        Cores are visited in the cycle's permuted order, but only the cores
        that are due (their wake cycle has come) or hold a request waiting
        for injection are stepped: every other core's step would change
        nothing (see :mod:`repro.core.coremodel`).
        """
        cycle = self.cycle
        cores = self.cores
        for flit in self.cluster.network.advance(cycle):
            if flit.is_read:
                cores[flit.core_id].on_response(flit)
        step_orders = self._step_orders
        for core in step_orders[cycle % len(step_orders)]:
            if core.wake_cycle <= cycle or core.injection_queue:
                core.step(cycle)
        if self.barrier.try_release():
            for core_id in self.barrier.participants:
                cores[core_id].release_barrier(cycle)
        self.cycle = cycle + 1

    def _all_done(self) -> bool:
        return all(core.idle for core in self.cores) and self.cluster.network.in_flight == 0

    def run(self, max_cycles: int = 2_000_000) -> SystemResult:
        """Run until every core finished and the network drained."""
        while not self._all_done():
            if self.cycle >= max_cycles:
                raise BarrierTimeoutError(self._deadlock_report(max_cycles))
            self.step()
        network = self.cluster.network
        return SystemResult(
            cycles=self.cycle,
            core_stats=[core.stats for core in self.cores],
            injected_requests=network.total_injected,
            completed_requests=network.total_completed,
            barrier_episodes=self.barrier.episodes,
        )

    def _deadlock_report(self, max_cycles: int) -> str:
        unfinished = [core.core_id for core in self.cores if not core.idle]
        waiting = [core.core_id for core in self.cores if core.barrier_waiting]
        return (
            f"simulation exceeded {max_cycles} cycles; "
            f"{len(unfinished)} cores unfinished (first: {unfinished[:8]}), "
            f"{len(waiting)} cores waiting at a barrier (first: {waiting[:8]}), "
            f"{self.cluster.network.in_flight} requests in flight"
        )


def run_program(
    cluster: MemPoolCluster,
    agents: dict[int, CoreAgent],
    max_cycles: int = 2_000_000,
) -> SystemResult:
    """Convenience wrapper: build a system, run it, return the result."""
    system = MemPoolSystem(cluster, agents)
    return system.run(max_cycles=max_cycles)
