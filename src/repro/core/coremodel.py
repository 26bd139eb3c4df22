"""Timing model of one Snitch core driving the cluster interconnect.

The core is single-issue: every cycle it either executes one compute
instruction, issues one memory operation, or stalls.  Loads are non-blocking
(Section III-B: *"Snitch supports a configurable number of outstanding load
instructions, which is useful to hide the SPM access latency"*) and tracked
by a reorder buffer; the core only stalls when an instruction *uses* a value
that has not returned yet, when the ROB is full, or when the interconnect
back-pressures its request port.

Cores are stepped event-driven.  Each core keeps a *wake cycle*, the first
cycle on which its front end can do anything new, and the system only steps
a core that is due or has a request waiting for injection:

* a ``Compute`` of *k* cycles wakes the core *k* cycles later;
* an issued load or store wakes it on the next cycle;
* a dependency stall (``Use`` of a load still in flight) or a structural
  stall (ROB full or injection queue full) puts it to sleep until a
  response reaches it; a structural stall also ends the cycle after its
  own injection queue pops;
* a ``Barrier`` puts it to sleep until the barrier releases;
* a core that finished its program never wakes again.

A stalled core counts its stall on the cycle it stalls, and the cycles it
sleeps through are added to the same :class:`CoreStats` counter when it
wakes (or, for a barrier, when the barrier releases), so every counter is
the one a core stepped on every cycle would report.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass

from repro.core.agents import Barrier, Compute, CoreAgent, Load, Operation, Store, Use
from repro.core.rob import ReorderBuffer


@dataclass
class CoreStats:
    """Per-core activity counters (consumed by the energy/power models)."""

    compute_cycles: int = 0
    mul_instructions: int = 0
    local_loads: int = 0
    remote_loads: int = 0
    local_stores: int = 0
    remote_stores: int = 0
    dependency_stalls: int = 0
    structural_stalls: int = 0
    barrier_stalls: int = 0
    load_latency_sum: int = 0
    load_latency_max: int = 0
    finish_cycle: int = -1

    @property
    def instructions(self) -> int:
        """Total instructions executed (compute + memory operations)."""
        return (
            self.compute_cycles
            + self.local_loads
            + self.remote_loads
            + self.local_stores
            + self.remote_stores
        )

    @property
    def loads(self) -> int:
        return self.local_loads + self.remote_loads

    @property
    def stores(self) -> int:
        return self.local_stores + self.remote_stores

    @property
    def stall_cycles(self) -> int:
        return self.dependency_stalls + self.structural_stalls + self.barrier_stalls

    @property
    def average_load_latency(self) -> float:
        return self.load_latency_sum / self.loads if self.loads else 0.0

    def merge(self, other: "CoreStats") -> None:
        """Accumulate another core's counters into this one (cluster totals)."""
        self.compute_cycles += other.compute_cycles
        self.mul_instructions += other.mul_instructions
        self.local_loads += other.local_loads
        self.remote_loads += other.remote_loads
        self.local_stores += other.local_stores
        self.remote_stores += other.remote_stores
        self.dependency_stalls += other.dependency_stalls
        self.structural_stalls += other.structural_stalls
        self.barrier_stalls += other.barrier_stalls
        self.load_latency_sum += other.load_latency_sum
        self.load_latency_max = max(self.load_latency_max, other.load_latency_max)
        self.finish_cycle = max(self.finish_cycle, other.finish_cycle)


#: Wake cycle of a core that waits for an event rather than for the clock.
NEVER = sys.maxsize


class CoreTimingModel:
    """Cycle-level model of one core executing an agent's operation stream."""

    def __init__(self, core_id: int, cluster, agent: CoreAgent, barrier) -> None:
        self.core_id = core_id
        self.cluster = cluster
        self.network = cluster.network
        self.agent = agent
        self.barrier = barrier
        self.tile_id = cluster.config.tile_of_core(core_id)
        timing = cluster.config.timing
        self.rob = ReorderBuffer(timing.max_outstanding_loads)
        self.injection_queue: deque = deque()
        self.injection_depth = timing.injection_queue_depth
        self.stats = CoreStats()
        #: First cycle on which :meth:`step` advances the front end (see the
        #: module docstring); :data:`NEVER` while waiting for an event.
        self.wake_cycle = 0
        self.barrier_waiting = False
        self.done = False
        self._ops = iter(agent.operations())
        #: The operation blocking the front end, if any.
        self._pending: Operation | None = None
        #: While asleep in a stall: the :class:`CoreStats` counter it accrues
        #: and the last cycle already counted.
        self._stall_counter: str | None = None
        self._stalled_at = -1
        self._tag_to_sequence: dict[object, int] = {}
        self._sequence = 0

    # ------------------------------------------------------------------ #
    # Interconnect interface
    # ------------------------------------------------------------------ #

    def on_response(self, flit) -> None:
        """Called by the system when a load response returns to this core."""
        self.rob.complete(flit.tag)
        self.rob.retire_ready()
        latency = flit.latency
        self.stats.load_latency_sum += latency
        self.stats.load_latency_max = max(self.stats.load_latency_max, latency)
        if self._stall_counter is not None:
            self.wake_cycle = min(self.wake_cycle, flit.completed_cycle)

    def release_barrier(self, cycle: int) -> None:
        """Called by the system when the barrier this core waits on opens.

        The core waited on every cycle after its arrival up to ``cycle``
        and resumes on the next one.
        """
        self.barrier_waiting = False
        self.stats.barrier_stalls += cycle - self._stalled_at
        self.wake_cycle = cycle + 1

    # ------------------------------------------------------------------ #
    # Per-cycle behaviour
    # ------------------------------------------------------------------ #

    def step(self, cycle: int) -> None:
        """Advance the core by one cycle.

        The front end runs once the wake cycle has come; the head of the
        injection queue then tries to enter the network.
        """
        if cycle >= self.wake_cycle:
            self._progress_agent(cycle)
        queue = self.injection_queue
        if queue and self.network.try_inject(queue[0], cycle):
            queue.popleft()
            if self._stall_counter == "structural_stalls":
                self.wake_cycle = min(self.wake_cycle, cycle + 1)

    @property
    def idle(self) -> bool:
        """True once the core finished its program and drained its requests."""
        return self.done and not self.injection_queue

    # -- front end -------------------------------------------------------- #

    def _stall(self, cycle: int, counter: str) -> None:
        """Count one stall cycle on ``counter`` and sleep until an event."""
        stats = self.stats
        setattr(stats, counter, getattr(stats, counter) + 1)
        self._stall_counter = counter
        self._stalled_at = cycle
        self.wake_cycle = NEVER

    def _progress_agent(self, cycle: int) -> None:
        counter = self._stall_counter
        if counter is not None:
            # Waking from a stall: count the cycles slept through.
            self._stall_counter = None
            stats = self.stats
            setattr(stats, counter, getattr(stats, counter) + cycle - self._stalled_at - 1)
        self.wake_cycle = cycle + 1
        while True:
            operation = self._pending
            if operation is None:
                try:
                    operation = self._pending = next(self._ops)
                except StopIteration:
                    self.done = True
                    self.stats.finish_cycle = cycle
                    self.wake_cycle = NEVER
                    return
            if isinstance(operation, Compute):
                self._pending = None
                self.stats.compute_cycles += operation.cycles
                self.stats.mul_instructions += operation.muls
                if operation.cycles > 0:
                    self.wake_cycle = cycle + operation.cycles
                    return
                continue
            if isinstance(operation, Use):
                sequence = self._tag_to_sequence.get(operation.tag)
                if sequence is None:
                    raise ValueError(
                        f"core {self.core_id} uses tag {operation.tag!r} "
                        "before any load produced it"
                    )
                if not self.rob.is_complete(sequence):
                    self._stall(cycle, "dependency_stalls")
                    return
                self._pending = None
                continue
            if isinstance(operation, Load):
                if self.rob.is_full or len(self.injection_queue) >= self.injection_depth:
                    self._stall(cycle, "structural_stalls")
                    return
                self._issue_load(operation, cycle)
                self._pending = None
                return
            if isinstance(operation, Store):
                if len(self.injection_queue) >= self.injection_depth:
                    self._stall(cycle, "structural_stalls")
                    return
                self._issue_store(operation, cycle)
                self._pending = None
                return
            if isinstance(operation, Barrier):
                self._pending = None
                self.barrier_waiting = True
                self._stalled_at = cycle
                self.wake_cycle = NEVER
                self.barrier.arrive(self.core_id, operation.barrier_id)
                return
            raise TypeError(f"unknown core operation {operation!r}")

    def _issue_load(self, operation: Load, cycle: int) -> None:
        sequence = self._sequence
        self._sequence += 1
        if operation.tag is not None:
            self._tag_to_sequence[operation.tag] = sequence
        flit = self.cluster.make_flit(
            core_id=self.core_id,
            address=operation.address,
            is_write=False,
            cycle=cycle,
            tag=sequence,
        )
        self.rob.allocate(sequence)
        self.injection_queue.append(flit)
        if self.cluster.is_local_bank(self.core_id, flit.bank_id):
            self.stats.local_loads += 1
        else:
            self.stats.remote_loads += 1

    def _issue_store(self, operation: Store, cycle: int) -> None:
        flit = self.cluster.make_flit(
            core_id=self.core_id,
            address=operation.address,
            is_write=True,
            cycle=cycle,
            tag=None,
        )
        self.injection_queue.append(flit)
        if self.cluster.is_local_bank(self.core_id, flit.bank_id):
            self.stats.local_stores += 1
        else:
            self.stats.remote_stores += 1
