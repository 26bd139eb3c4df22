"""The vectorized flit-transport engine and its object-model facade.

:class:`VectorEngine` is the structure-of-arrays re-implementation of
:class:`repro.interconnect.resources.StageNetwork`: flits are integer rows
of a :class:`~repro.engine.soa.FlitTable`, resource paths are the compiled
move chains of a :class:`~repro.engine.compile.CompiledNetwork`, and one
call to :meth:`VectorEngine.advance` performs the same level-ordered passes
as the object engine — downstream levels first, per-cycle arbitration
permutations within each level — over flat arrays instead of object graphs.

Each cycle is two steps:

1. **Occupancy gather (vectorized).**  A NumPy boolean column tracks which
   stages hold at least one flit; one boolean-mask index over the cycle's
   concatenated downstream-first visiting order yields every candidate
   stage of the cycle, in exact arbitration order, without visiting the
   (mostly empty) remainder of the network.
2. **Head-flit moves (per candidate).**  Each candidate stage's head row
   carries its *resolved next hop* — the ``(target stage, arbiter run,
   following hop)`` triple of its move chain, with the bank-stage
   placeholder already substituted — so a hop attempt reads one list cell,
   checks target space and arbiter grants, and either moves the row or
   leaves every piece of state untouched.

The engine is *cycle-exact* with respect to the object engine: for the same
topology and the same injection sequence it produces flit-for-flit identical
injection and completion cycles (enforced by ``tests/test_engine_equivalence``).
The per-hop rules it replays are:

* a register stage accepts at most one flit per cycle and releases at most
  its head flit per cycle, subject to elastic-buffer space;
* an arbitration point grants at most one flit per cycle, and a flit only
  consumes grants when its whole hop succeeds;
* within a level, stages are visited in a pooled random permutation (the
  same :class:`~repro.utils.rotation.PermutationSchedule` stream), which is
  what makes the arbitration decisions reproducible across engines.

What the vector engine deliberately does **not** replicate are the
per-resource utilisation counters (``RegisterStage.accepts`` and friends):
they exist for structural statistics on the object model and would cost two
extra writes per hop here.

:class:`VectorStageNetwork` wraps the engine in the ``StageNetwork`` call
interface (``advance`` / ``try_inject`` / ``drain`` over
:class:`~repro.interconnect.resources.Flit` objects) so the execution-driven
simulator (:class:`repro.core.system.MemPoolSystem`) and every other object
-model caller run on the vector engine unchanged.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.engine.compile import BANK, CompiledNetwork
from repro.engine.soa import FlitTable
from repro.interconnect.resources import Flit
from repro.interconnect.topology import ClusterTopology


class VectorEngine:
    """Cycle engine advancing flit rows through compiled move chains."""

    def __init__(self, compiled: CompiledNetwork) -> None:
        self.compiled = compiled
        self.flits = FlitTable()
        num_stages = compiled.num_stages
        #: Per-stage FIFO of buffered flit rows.
        self.queues: list[deque[int]] = [deque() for _ in range(num_stages)]
        #: Vectorized occupancy column: True where a stage buffers >= 1 flit.
        self.occupied = np.zeros(num_stages, dtype=bool)
        #: Free elastic-buffer slots per stage (depth minus queue length) —
        #: lets a blocked hop fail on one list read instead of a queue fetch.
        self.free_slots = list(compiled.stage_depth)
        #: Resolved next hop of each stage's *head* row (None when empty).
        #: A head changes only when its stage pops or an empty stage is
        #: pushed, so keeping the head's hop at hand turns every attempt —
        #: and in particular every blocked attempt — into a single list
        #: read instead of a queue peek plus a per-row lookup.
        self._head_move: list[tuple | None] = [None] * num_stages
        #: Cycle in which each stage last accepted a flit (one accept/cycle).
        self.accepted_cycle = [-1] * num_stages
        #: Cycle in which each arbiter last granted (one grant/cycle).
        self.granted_cycle = [-1] * compiled.num_arbiters
        #: Per-row resolved next hop (see the module docstring).
        self._next_move: list[tuple] = []
        self.in_flight = 0
        self.total_injected = 0
        self.total_completed = 0

    # ------------------------------------------------------------------ #
    # Request construction
    # ------------------------------------------------------------------ #

    def _path_template(self, core_id: int, bank_id: int, is_write: bool) -> int:
        """Template id for a core -> bank transaction.

        Resolved through the compiled network's dense per-core template
        rows (:meth:`~repro.engine.compile.CompiledNetwork.template_row`):
        two list reads in steady state, with the rows — bounded at
        ``num_cores * num_tiles`` entries per direction — shared by every
        engine instance on the same compiled network, so large sweeps no
        longer grow a per-instance cache dict in the inject path.
        """
        compiled = self.compiled
        return compiled.template_row(core_id, not is_write)[
            compiled.tile_of_bank[bank_id]
        ]

    def new_flit(self, core_id: int, bank_id: int, is_write: bool, cycle: int) -> int:
        """Allocate a flit row for a core -> bank transaction; return its id."""
        compiled = self.compiled
        path_id = self._path_template(core_id, bank_id, is_write)
        row = self.flits.allocate(core_id, bank_id, path_id, is_write, cycle)
        entry = compiled.path_moves[path_id]
        if entry[0] == BANK:
            entry = (compiled.bank_stage_ids[bank_id], entry[1], entry[2])
        self._next_move.append(entry)
        return row

    # ------------------------------------------------------------------ #
    # Per-cycle operation
    # ------------------------------------------------------------------ #

    def advance(self, cycle: int) -> list[int]:
        """Advance all buffered flits by one cycle; return completed rows.

        The pass structure mirrors the object engine exactly: levels from
        most downstream to most upstream, stages within a level in the
        pooled permutation order for ``cycle``, one head-flit move attempt
        per non-empty stage.  The candidates of the *whole cycle* are
        gathered in one vectorized occupancy index over the concatenated
        downstream-first visiting order: the single gather is exact because
        a stage pops only when visited, and a stage that fills *during* the
        cycle can only be downstream of the filler — i.e. in a level the
        object engine had already finished before the push happened.
        """
        if not self.in_flight:
            return []
        compiled = self.compiled
        queues = self.queues
        occupied = self.occupied
        free_slots = self.free_slots
        accepted = self.accepted_cycle
        granted = self.granted_cycle
        bank_stage = compiled.bank_stage_ids
        flits = self.flits
        bank_of = flits.bank
        next_move = self._next_move
        head_move = self._head_move
        # Safe to hold for the duration of this call: rows are allocated
        # (and columns replaced by growth) only between advance calls.
        completed_column = flits.completed_cycle
        completed: list[int] = []

        order = compiled.full_orders[cycle % compiled.order_pool_size]
        for stage in order[occupied[order]].tolist():
            target, arbiters, following = head_move[stage]
            if target >= 0 and (not free_slots[target] or accepted[target] == cycle):
                continue
            if arbiters:
                blocked = False
                for arbiter in arbiters:
                    if granted[arbiter] == cycle:
                        blocked = True
                        break
                if blocked:
                    continue
                for arbiter in arbiters:
                    granted[arbiter] = cycle
            queue = queues[stage]
            row = queue.popleft()
            free_slots[stage] += 1
            if queue:
                head_move[stage] = next_move[queue[0]]
            else:
                occupied[stage] = False
            if target >= 0:
                if following[0] == BANK:
                    following = (bank_stage[bank_of[row]], following[1], following[2])
                next_move[row] = following
                target_queue = queues[target]
                if not target_queue:
                    occupied[target] = True
                    head_move[target] = following
                target_queue.append(row)
                free_slots[target] -= 1
                accepted[target] = cycle
            else:
                completed_column[row] = cycle
                self.in_flight -= 1
                self.total_completed += 1
                completed.append(row)
        return completed

    def _inject(self, row: int, cycle: int) -> bool:
        """Injection hop of one already-allocated row (see :meth:`inject_queues`)."""
        flits = self.flits
        compiled = self.compiled
        target, arbiters, following = self._next_move[row]
        if target >= 0 and (
            not self.free_slots[target] or self.accepted_cycle[target] == cycle
        ):
            return False
        if arbiters:
            granted = self.granted_cycle
            for arbiter in arbiters:
                if granted[arbiter] == cycle:
                    return False
            for arbiter in arbiters:
                granted[arbiter] = cycle
        flits.injected_cycle[row] = cycle
        self.total_injected += 1
        if target >= 0:
            if following[0] == BANK:
                following = (
                    compiled.bank_stage_ids[flits.bank[row]],
                    following[1],
                    following[2],
                )
            self._next_move[row] = following
            queue = self.queues[target]
            if not queue:
                self.occupied[target] = True
                self._head_move[target] = following
            queue.append(row)
            self.free_slots[target] -= 1
            self.accepted_cycle[target] = cycle
            self.in_flight += 1
        else:
            # Degenerate zero-register path (not used by real topologies,
            # but keeps counter semantics aligned with the object engine).
            flits.completed_cycle[row] = cycle
            self.total_completed += 1
        return True

    def injection_hop(self, core_id: int, bank_id: int, is_write: bool) -> tuple:
        """Resolve a core -> bank transaction's template and injection hop.

        Returns ``(path_id, target, arbiters, following)``: the template id
        and the chain head of :attr:`CompiledNetwork.path_moves` with the
        bank-stage placeholder already substituted in ``target`` and in
        ``following``.  A caller that retries one transaction every cycle
        resolves it once and hands the tuple to :meth:`inject_new`.
        """
        compiled = self.compiled
        path_id = self._path_template(core_id, bank_id, is_write)
        target, arbiters, following = compiled.path_moves[path_id]
        bank_stage = compiled.bank_stage_ids[bank_id]
        if target == BANK:
            target = bank_stage
        if following is not None and following[0] == BANK:
            following = (bank_stage, following[1], following[2])
        return path_id, target, arbiters, following

    def inject_new(
        self, hop: tuple, core_id: int, bank_id: int, is_write: bool,
        created_cycle: int, cycle: int,
    ) -> int | None:
        """Atomically allocate-and-inject a new flit row.

        ``hop`` is the transaction's :meth:`injection_hop`.  The
        check-then-allocate order matters: a failed injection allocates
        nothing, so callers that retry every cycle (the execution-driven
        core models, via the object facade) do not leak one row per failed
        attempt.  Returns the injected row id, or ``None`` when the first
        hop is blocked this cycle.
        """
        path_id, target, arbiters, following = hop
        if target >= 0 and (
            not self.free_slots[target] or self.accepted_cycle[target] == cycle
        ):
            return None
        granted = self.granted_cycle
        if arbiters:
            for arbiter in arbiters:
                if granted[arbiter] == cycle:
                    return None
            for arbiter in arbiters:
                granted[arbiter] = cycle
        flits = self.flits
        row = flits.allocate(core_id, bank_id, path_id, is_write, created_cycle)
        flits.injected_cycle[row] = cycle
        self.total_injected += 1
        self._next_move.append(following)
        if target >= 0:
            queue = self.queues[target]
            if not queue:
                self.occupied[target] = True
                self._head_move[target] = following
            queue.append(row)
            self.free_slots[target] -= 1
            self.accepted_cycle[target] = cycle
            self.in_flight += 1
        else:
            # Degenerate zero-register path: completes at injection.
            flits.completed_cycle[row] = cycle
            self.total_completed += 1
        return row

    def inject_queues(self, source_queues, order, cycle: int) -> int:
        """Inject the head row of each source queue, in ``order``.

        The batched equivalent of the per-core injection loop of the
        open-loop traffic simulation: ``order`` is the cycle's injection
        permutation over source-queue indices, each non-empty queue's head
        row attempts the injection hop, and accepted heads are popped.
        Returns the number of injected rows.
        """
        inject = self._inject
        injected = 0
        for index in order:
            queue = source_queues[index]
            if queue and inject(queue[0], cycle):
                queue.popleft()
                injected += 1
        return injected

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def occupancy(self) -> int:
        """Total number of flit rows buffered in register stages."""
        return sum(len(queue) for queue in self.queues)


class VectorStageNetwork:
    """Drop-in ``StageNetwork`` facade running on the vector engine.

    Object-model callers keep building :class:`Flit` instances (the
    execution-driven core models hang response tags off them); this facade
    maps each injected flit onto an engine row, lets the SoA engine do the
    timing, and mirrors the lifecycle timestamps back onto the objects the
    moment they matter (injection and completion).
    """

    def __init__(self, topology: ClusterTopology) -> None:
        self.compiled = CompiledNetwork(topology)
        self.engine = VectorEngine(self.compiled)
        #: Rows of in-flight object flits, keyed by row id.
        self._flit_of_row: dict[int, Flit] = {}
        #: ``(flit, injection hop)`` of the flit each core last failed to
        #: inject: a core retries its queue head every cycle, so the head's
        #: template is resolved once, not on every attempt.
        self._waiting: dict[int, tuple[Flit, tuple]] = {}

    # -- StageNetwork interface ------------------------------------------ #

    @property
    def in_flight(self) -> int:
        """Number of flits currently inside the network."""
        return self.engine.in_flight

    @property
    def total_injected(self) -> int:
        """Total flits accepted into the network so far."""
        return self.engine.total_injected

    @property
    def total_completed(self) -> int:
        """Total flits that finished their path so far."""
        return self.engine.total_completed

    def advance(self, cycle: int) -> list[Flit]:
        """Advance one cycle; return the completed :class:`Flit` objects."""
        completed = []
        path_of = self.engine.flits.path_id
        resource_len = self.compiled.path_resource_len
        for row in self.engine.advance(cycle):
            flit = self._flit_of_row.pop(row)
            flit.completed_cycle = cycle
            flit.position = resource_len[path_of[row]]
            completed.append(flit)
        return completed

    def try_inject(self, flit: Flit, cycle: int) -> bool:
        """Try to inject an object flit; mirrors ``StageNetwork.try_inject``.

        A failed attempt allocates no engine row (see
        :meth:`VectorEngine.inject_new`), so core models may retry with the
        same — or a different — flit object every cycle; a flit retried by
        the same core reuses its resolved injection hop.
        """
        if flit.position != -1:
            raise ValueError("flit was already injected")
        core_id = flit.core_id
        waiting = self._waiting.get(core_id)
        if waiting is not None and waiting[0] is flit:
            hop = waiting[1]
        else:
            hop = self.engine.injection_hop(core_id, flit.bank_id, flit.is_write)
        row = self.engine.inject_new(
            hop, core_id, flit.bank_id, flit.is_write, flit.created_cycle, cycle
        )
        if row is None:
            if waiting is None or waiting[0] is not flit:
                self._waiting[core_id] = (flit, hop)
            return False
        if waiting is not None:
            del self._waiting[core_id]
        flit.injected_cycle = cycle
        path_id = hop[0]
        if self.compiled.path_stage_seq[path_id]:
            flit.position = self.compiled.path_first_stage_pos[path_id]
            self._flit_of_row[row] = flit
        else:
            flit.position = self.compiled.path_resource_len[path_id]
            flit.completed_cycle = cycle
        return True

    def occupancy(self) -> int:
        """Total number of flits buffered in register stages."""
        return self.engine.occupancy()

    def drain(self, max_cycles: int, start_cycle: int) -> int:
        """Advance until the network is empty; return the cycle reached."""
        cycle = start_cycle
        while self.in_flight > 0:
            if cycle - start_cycle > max_cycles:
                raise RuntimeError(
                    f"network failed to drain within {max_cycles} cycles "
                    f"({self.in_flight} flits in flight)"
                )
            self.advance(cycle)
            cycle += 1
        return cycle
