"""SimBatch: many independent simulations in one structure-of-arrays state.

:class:`repro.engine.vector.VectorEngine` made a *single* simulation fast;
what dominates figure regeneration after that is Python per-point overhead —
every sweep point builds its own topology, compiles its own path tables,
allocates its flits one method call at a time and pays its own per-cycle
loop.  :class:`SimBatch` amortises all of that by advancing ``S``
independent simulations (differing in seed, injected load, destination
pattern, injection process, and per-sim measurement windows) inside one
flattened state with a leading sim axis.

Layout: the sim axis is *flattened* into the stage and arbiter dimensions.
A batch over a compiled network with ``N`` register stages and ``A``
arbitration points keeps one state slot per ``(sim, stage)`` pair at flat
index ``sim * N + stage`` (and ``sim * A + arbiter`` for grants):

========================  ===========================  =======================
column                    shape / type                 role
========================  ===========================  =======================
``occupied``              bool ndarray, ``S * N``      stage buffers >= 1 flit
``free_slots``            int list, ``S * N``          elastic-buffer slack
``accepted_cycle``        int list, ``S * N``          one-accept/cycle rule
``granted_cycle``         int list, ``S * A``          one-grant/cycle rule
``queues``                deque list, ``S * N``        per-stage flit FIFOs
``_head_move``            tuple list, ``S * N``        head's resolved next hop
``batch_orders``          intp ndarray pool, ``S*N``   per-cycle visiting order
``flits`` / ``_next_move``  per-sim ``FlitTable``/list  sim-local row state
========================  ===========================  =======================

Because the ``S`` simulations are *disjoint* — no flit ever crosses a sim
boundary — the concatenated per-cycle visiting order preserves each sim's
internal arbitration order exactly, and one occupancy gather over the
``S * N`` flat column yields every candidate stage of every simulation of
the cycle.  The batch is therefore **flit-for-flit identical** to ``S``
sequential :class:`~repro.engine.vector.VectorEngine` runs (pinned by
``tests/test_engine_batch.py``) while paying the per-point and per-cycle
overhead — topology build, path compilation, template resolution, flit
allocation, occupancy gathers, measurement bookkeeping — once per batch
or cycle instead of once per simulation.

All simulations of a batch share one
:class:`~repro.engine.compile.CompiledNetwork` — the compatibility
contract: identical topology (and therefore identical stage depths, levels
and arbitration permutation pools).  Everything else is per-sim: each
member keeps its own :class:`~repro.engine.soa.FlitTable` (row ids match
the per-sim engine's), its own move-chain cursors and its own workload
RNG substreams (the splitmix64 contract of :mod:`repro.workloads.rng` is
untouched — components are built per simulation exactly as
:class:`~repro.traffic.simulation.TrafficSimulation` builds them).

:class:`TrafficBatch` is the open-loop measurement driver on top: the
batched sibling of :func:`repro.engine.traffic.run_vector_traffic`, running
the warm-up/measure loop of every member simulation in one pass and
assembling one :class:`~repro.traffic.simulation.TrafficResult` per member.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.engine.compile import BANK, CompiledNetwork
from repro.engine.soa import FlitTable
from repro.utils.stats import Histogram, OnlineStats
from repro.workloads.base import DestinationPattern

#: The inherited scalar-loop ``destinations`` — patterns still on it are
#: driven through per-request ``destination`` calls (identical draws, no
#: iterator machinery); table-backed patterns use their own array gather.
_BASE_DESTINATIONS = DestinationPattern.destinations


class SimBatch:
    """Cycle engine advancing ``num_sims`` disjoint simulations in lockstep.

    Parameters
    ----------
    compiled : CompiledNetwork
        The shared compiled topology.  Every member simulation replays the
        same arbitration permutation pools, which is what makes batched
        decisions identical to per-sim
        :class:`~repro.engine.vector.VectorEngine` decisions.
    num_sims : int
        Number of member simulations (the length of the sim axis).
    """

    def __init__(self, compiled: CompiledNetwork, num_sims: int) -> None:
        if num_sims < 1:
            raise ValueError(f"a SimBatch needs at least one sim, got {num_sims}")
        self.compiled = compiled
        self.num_sims = num_sims
        num_stages = compiled.num_stages
        num_arbiters = compiled.num_arbiters
        self.num_stages = num_stages
        flat = num_sims * num_stages
        #: Per-(sim, stage) FIFOs of buffered flit rows (sim-local row ids).
        self.queues: list[deque[int]] = [deque() for _ in range(flat)]
        #: Flat occupancy column over every (sim, stage) slot.
        self.occupied = np.zeros(flat, dtype=bool)
        #: Free elastic-buffer slots per (sim, stage) slot.
        self.free_slots = list(compiled.stage_depth) * num_sims
        #: Cycle in which each (sim, stage) slot last accepted a flit.
        self.accepted_cycle = [-1] * flat
        #: Cycle in which each (sim, arbiter) slot last granted.
        self.granted_cycle = [-1] * (num_sims * num_arbiters)
        #: Resolved next hop of each slot's head row (stage and arbiter ids
        #: are *relative* to the shared compiled network; the hop loops add
        #: the slot's sim bases from the lookup columns below).
        self._head_move: list[tuple | None] = [None] * flat
        #: Per-sim flit tables — row ids therefore match per-sim engine runs.
        self.flits = [FlitTable() for _ in range(num_sims)]
        #: Per-sim resolved next hop of every row (relative ids).
        self._next_move: list[list[tuple]] = [[] for _ in range(num_sims)]
        #: Per-sim completion log: rows in completion order, across the
        #: batch's whole lifetime (measurement code slices per window).
        self.completed_log: list[list[int]] = [[] for _ in range(num_sims)]
        self.in_flight = [0] * num_sims
        self.total_in_flight = 0
        self.total_injected = [0] * num_sims
        self.total_completed = [0] * num_sims
        self._retired = [False] * num_sims
        #: Flat-slot lookup columns: owning sim, stage base, arbiter base.
        self._slot_sim = [sim for sim in range(num_sims) for _ in range(num_stages)]
        self._slot_base = [
            sim * num_stages for sim in range(num_sims) for _ in range(num_stages)
        ]
        self._slot_arb_base = [
            sim * num_arbiters for sim in range(num_sims) for _ in range(num_stages)
        ]
        #: One concatenated visiting order per pooled cycle covering every
        #: sim — each sim's internal (downstream-first, permuted) order is
        #: preserved, so arbitration replays the per-sim engine exactly.
        self.batch_orders = tuple(
            np.concatenate(
                [order + sim * num_stages for sim in range(num_sims)]
            )
            if order.size
            else order
            for order in compiled.full_orders
        )

    # ------------------------------------------------------------------ #
    # Per-cycle operation
    # ------------------------------------------------------------------ #

    def advance(self, cycle: int) -> None:
        """Advance every active simulation by one cycle.

        One occupancy gather over the flat ``(sim, stage)`` column yields
        the cycle's candidates of *all* simulations in visiting order; the
        per-candidate hop rules are those of
        :meth:`repro.engine.vector.VectorEngine.advance`, with targets and
        arbiter grants offset into the candidate's sim slice.  Completions
        are appended to :attr:`completed_log` (per sim, in completion
        order) and stamped into the sim's flit table.
        """
        total_in_flight = self.total_in_flight
        if not total_in_flight:
            return
        compiled = self.compiled
        queues = self.queues
        occupied = self.occupied
        free_slots = self.free_slots
        accepted = self.accepted_cycle
        granted = self.granted_cycle
        bank_stage = compiled.bank_stage_ids
        slot_sim = self._slot_sim
        slot_base = self._slot_base
        slot_arb_base = self._slot_arb_base
        next_move = self._next_move
        head_move = self._head_move
        in_flight = self.in_flight
        total_completed = self.total_completed
        completed_log = self.completed_log
        # Safe to hold for the duration of this call: rows are allocated
        # (and columns replaced by growth) only between advance calls.
        completed_columns = [table.completed_cycle for table in self.flits]
        bank_columns = [table.bank for table in self.flits]

        order = self.batch_orders[cycle % compiled.order_pool_size]
        for slot in order[occupied[order]].tolist():
            target, arbiters, following = head_move[slot]
            base = slot_base[slot]
            if target >= 0:
                flat_target = base + target
                if not free_slots[flat_target] or accepted[flat_target] == cycle:
                    continue
            if arbiters:
                arb_base = slot_arb_base[slot]
                blocked = False
                for arbiter in arbiters:
                    if granted[arb_base + arbiter] == cycle:
                        blocked = True
                        break
                if blocked:
                    continue
                for arbiter in arbiters:
                    granted[arb_base + arbiter] = cycle
            queue = queues[slot]
            row = queue.popleft()
            free_slots[slot] += 1
            sim = slot_sim[slot]
            if queue:
                head_move[slot] = next_move[sim][queue[0]]
            else:
                occupied[slot] = False
            if target >= 0:
                if following[0] == BANK:
                    following = (
                        bank_stage[bank_columns[sim][row]], following[1], following[2]
                    )
                next_move[sim][row] = following
                target_queue = queues[flat_target]
                if not target_queue:
                    occupied[flat_target] = True
                    head_move[flat_target] = following
                target_queue.append(row)
                free_slots[flat_target] -= 1
                accepted[flat_target] = cycle
            else:
                completed_columns[sim][row] = cycle
                in_flight[sim] -= 1
                total_in_flight -= 1
                total_completed[sim] += 1
                completed_log[sim].append(row)
        self.total_in_flight = total_in_flight

    def new_rows(
        self, sim: int, core_ids: list, bank_ids: list, cycle: int
    ) -> range:
        """Bulk-allocate one flit row per (core, bank) pair for ``sim``.

        Rows are numbered exactly as the per-sim engine would number them
        (ascending, in generation order), their path templates resolved
        through the shared compiled network's eager
        :meth:`~repro.engine.compile.CompiledNetwork.template_table`, and
        their move-chain cursors initialised with the bank placeholder of
        the first hop already substituted.  Read transactions only (the
        open-loop traffic workloads) — the execution-driven simulator
        stays on the per-sim engines.
        """
        compiled = self.compiled
        tile_of_bank = compiled.tile_of_bank
        templates = compiled.template_table(True)
        template_row = compiled.template_row
        path_ids = [
            (templates[core] or template_row(core, True))[tile_of_bank[bank]]
            for core, bank in zip(core_ids, bank_ids)
        ]
        rows = self.flits[sim].allocate_batch(
            core_ids, bank_ids, path_ids, False, cycle
        )
        moves = compiled.path_moves
        bank_stage = compiled.bank_stage_ids
        self._next_move[sim].extend(
            (bank_stage[bank], entry[1], entry[2]) if entry[0] == BANK else entry
            for entry, bank in zip(map(moves.__getitem__, path_ids), bank_ids)
        )
        return rows

    def inject_rows(self, sim: int, source_queues, order, cycle: int) -> int:
        """Inject the head row of each non-empty source queue, in ``order``.

        The batched sibling of
        :meth:`repro.engine.vector.VectorEngine.inject_queues`: one
        injection-hop attempt per non-empty source queue, in the cycle's
        injection permutation, against the sim's slice of the flat state.
        Returns the number of injected rows.  (Callers skip the call
        entirely when no rows are queued — the empty walk would change no
        state.)
        """
        base = sim * self.num_stages
        arb_base = sim * self.compiled.num_arbiters
        next_move = self._next_move[sim]
        flits = self.flits[sim]
        injected_column = flits.injected_cycle
        bank_column = flits.bank
        bank_stage = self.compiled.bank_stage_ids
        queues = self.queues
        occupied = self.occupied
        free_slots = self.free_slots
        accepted = self.accepted_cycle
        granted = self.granted_cycle
        injected = 0
        sim_in_flight = 0
        for index in order:
            source = source_queues[index]
            if not source:
                continue
            row = source[0]
            target, arbiters, following = next_move[row]
            if target >= 0:
                flat_target = base + target
                if not free_slots[flat_target] or accepted[flat_target] == cycle:
                    continue
            if arbiters:
                blocked = False
                for arbiter in arbiters:
                    if granted[arb_base + arbiter] == cycle:
                        blocked = True
                        break
                if blocked:
                    continue
                for arbiter in arbiters:
                    granted[arb_base + arbiter] = cycle
            source.popleft()
            injected_column[row] = cycle
            injected += 1
            if target >= 0:
                if following[0] == BANK:
                    following = (
                        bank_stage[bank_column[row]], following[1], following[2]
                    )
                next_move[row] = following
                queue = queues[flat_target]
                if not queue:
                    occupied[flat_target] = True
                    self._head_move[flat_target] = following
                queue.append(row)
                free_slots[flat_target] -= 1
                accepted[flat_target] = cycle
                sim_in_flight += 1
            else:
                # Degenerate zero-register path: completes at injection
                # (kept for counter parity with the per-sim engines).  Not
                # logged: the vector traffic loop surfaces only completions
                # returned by advance(), never injection-time ones.
                flits.completed_cycle[row] = cycle
                self.total_completed[sim] += 1
        self.total_injected[sim] += injected
        self.in_flight[sim] += sim_in_flight
        self.total_in_flight += sim_in_flight
        return injected

    # ------------------------------------------------------------------ #
    # Member lifecycle and introspection
    # ------------------------------------------------------------------ #

    def retire(self, sim: int) -> None:
        """Freeze ``sim``: its in-flight flits stop advancing.

        Used when member simulations have different horizons (per-sim
        warm-up/measure windows): a member past its horizon must not keep
        completing flits the equivalent per-sim run never simulated.
        Idempotent; :meth:`resume` reverses it.
        """
        if self._retired[sim]:
            return
        base = sim * self.num_stages
        self.occupied[base : base + self.num_stages] = False
        self.total_in_flight -= self.in_flight[sim]
        self._retired[sim] = True

    def resume(self, sim: int) -> None:
        """Reactivate a retired ``sim`` (restores its occupancy slice)."""
        if not self._retired[sim]:
            return
        base = sim * self.num_stages
        queues = self.queues
        occupied = self.occupied
        for stage in range(self.num_stages):
            occupied[base + stage] = bool(queues[base + stage])
        self.total_in_flight += self.in_flight[sim]
        self._retired[sim] = False

    def occupancy(self, sim: int) -> int:
        """Number of flit rows buffered in ``sim``'s register stages."""
        base = sim * self.num_stages
        return sum(
            len(self.queues[base + stage]) for stage in range(self.num_stages)
        )


class TrafficBatch:
    """Open-loop traffic measurement over a batch of simulations.

    The batched sibling of :func:`repro.engine.traffic.run_vector_traffic`:
    every member is a fully built
    :class:`~repro.traffic.simulation.TrafficSimulation` (its own injector,
    pattern, injection schedule and source queues — the same construction
    path as a per-sim run, so every RNG substream is identical), and one
    :meth:`run` call drives all members through the shared
    :class:`SimBatch` in a single cycle loop.

    Members must be topology-compatible: built on clusters whose
    :class:`~repro.core.config.MemPoolConfig` compare equal.  They may
    differ in seed, injected load, pattern, injector — and, per
    :meth:`run`, in measurement windows.

    Parameters
    ----------
    simulations : sequence of TrafficSimulation
        The member simulations.  Their clusters must share one
        configuration; the first member's topology is compiled (or the
        cluster's cached compilation reused) for the whole batch.
    compiled : CompiledNetwork, optional
        Pre-compiled shared network (reused when given, e.g. by the
        sweep-level :class:`repro.experiments.batch.BatchRunner`).
    """

    @classmethod
    def of_seeds(
        cls,
        cluster,
        injection_rate: float,
        seeds,
        pattern=None,
        injector=None,
        pattern_params: dict | None = None,
        injector_params: dict | None = None,
    ) -> "TrafficBatch":
        """Batch one workload configuration across many seeds.

        The batch-of-seeds constructor behind the statistical result
        validator (:mod:`repro.validation`): ``len(seeds)`` member
        simulations differing *only* in their experiment seed share one
        compiled network and one cycle loop, so attaching per-seed
        confidence intervals to a metric costs barely more than a single
        run.  Each member is built exactly as
        :class:`~repro.traffic.simulation.TrafficSimulation` builds a
        per-sim run (same RNG substream contract), so per-seed results
        equal the per-sim engines' bit for bit.

        Parameters
        ----------
        cluster : MemPoolCluster
            Shared cluster (must be a SoA engine, e.g. ``engine="batch"``).
        injection_rate : float
            Offered load of every member.
        seeds : iterable of int
            One member simulation per seed, in order.
        pattern, injector, pattern_params, injector_params
            Workload selection forwarded to every member (registry names
            with optional parameters).
        """
        from repro.traffic.simulation import TrafficSimulation

        seeds = list(seeds)
        if not seeds:
            raise ValueError("of_seeds needs at least one seed")
        return cls(
            [
                TrafficSimulation(
                    cluster,
                    injection_rate,
                    pattern=pattern,
                    seed=seed,
                    injector=injector,
                    pattern_params=dict(pattern_params) if pattern_params else None,
                    injector_params=dict(injector_params) if injector_params else None,
                )
                for seed in seeds
            ]
        )

    def __init__(self, simulations, compiled: CompiledNetwork | None = None) -> None:
        simulations = list(simulations)
        if not simulations:
            raise ValueError("a TrafficBatch needs at least one simulation")
        config = simulations[0].cluster.config
        for simulation in simulations:
            if simulation._row_queues is None:
                raise ValueError(
                    "TrafficBatch members must be built on a SoA-engine "
                    "cluster (engine='batch' or 'vector'); got "
                    f"a {simulation.cluster.engine_kind!r}-engine simulation"
                )
            if simulation.cluster.config != config:
                raise ValueError(
                    "TrafficBatch members must share one cluster configuration; "
                    f"got {simulation.cluster.config.describe()!r} alongside "
                    f"{config.describe()!r}"
                )
        self.simulations = simulations
        self.compiled = compiled or simulations[0].cluster.compiled_network()
        self.config = config
        #: Tile of each core / bank as NumPy columns (locality accounting).
        self._core_tile = np.asarray(
            [config.tile_of_core(core) for core in range(config.num_cores)],
            dtype=np.int64,
        )
        self._bank_tile = np.asarray(self.compiled.tile_of_bank, dtype=np.int64)
        self.engine = SimBatch(self.compiled, len(simulations))

    @staticmethod
    def _per_sim(value, count: int, name: str) -> list:
        """Broadcast a scalar window knob to ``count`` members, or validate."""
        if isinstance(value, (list, tuple)):
            if len(value) != count:
                raise ValueError(
                    f"{name} must have one entry per member simulation "
                    f"({count}), got {len(value)}"
                )
            return list(value)
        return [value] * count

    def run(
        self,
        warmup_cycles,
        measure_cycles,
        record_flits: bool = False,
    ):
        """Run one measurement window on every member; return their results.

        Parameters
        ----------
        warmup_cycles, measure_cycles : int or sequence of int
            Warm-up and measurement windows — scalars are shared by every
            member, sequences give each member its own horizon (members
            past their horizon are retired and stop advancing, exactly as
            their per-sim run would have ended).
        record_flits : bool
            Attach per-flit completion logs to the results (used by the
            cross-engine golden tests).

        Returns
        -------
        list of repro.traffic.simulation.TrafficResult
            One result per member, field-for-field identical to what the
            member's own
            :meth:`~repro.traffic.simulation.TrafficSimulation.run` would
            have returned on the ``vector`` (or ``legacy``) engine.
        """
        engine = self.engine
        simulations = self.simulations
        count = len(simulations)
        warmups = self._per_sim(warmup_cycles, count, "warmup_cycles")
        measures = self._per_sim(measure_cycles, count, "measure_cycles")
        horizons = [w + m for w, m in zip(warmups, measures)]
        total_cycles = max(horizons)

        for sim_index in range(count):
            engine.resume(sim_index)
        row_start = [table.count for table in engine.flits]
        log_start = [len(log) for log in engine.completed_log]
        generated_in_window = [0] * count
        injected_in_window = [0] * count
        # Source-queue backlog per sim (persistent queues may carry backlog
        # from an earlier window) — lets idle cycles skip the whole
        # injection walk.
        pending = [
            sum(len(queue) for queue in simulation._row_queues)
            for simulation in simulations
        ]

        injectors = [simulation.injector for simulation in simulations]
        patterns = [simulation.pattern for simulation in simulations]
        scalar_pattern = [
            type(pattern).destinations is _BASE_DESTINATIONS
            for pattern in patterns
        ]
        schedules = [simulation._injection_schedule for simulation in simulations]
        source_queues = [simulation._row_queues for simulation in simulations]
        new_rows = engine.new_rows
        inject_rows = engine.inject_rows
        advance = engine.advance
        active = list(range(count))

        for cycle in range(total_cycles):
            advance(cycle)
            for sim_index in active:
                batch = injectors[sim_index].arrivals_batch(cycle)
                if batch:
                    sources: list[int] = []
                    extend = sources.extend
                    for core_id, arrivals in batch:
                        extend([core_id] * arrivals)
                    pattern = patterns[sim_index]
                    if scalar_pattern[sim_index]:
                        destination = pattern.destination
                        destinations = [destination(core) for core in sources]
                    else:
                        destinations = pattern.destinations(sources).tolist()
                    rows = new_rows(sim_index, sources, destinations, cycle)
                    queues = source_queues[sim_index]
                    for core_id, row in zip(sources, rows):
                        queues[core_id].append(row)
                    generated = len(sources)
                    pending[sim_index] += generated
                    if cycle >= warmups[sim_index]:
                        generated_in_window[sim_index] += generated
                if pending[sim_index]:
                    injected = inject_rows(
                        sim_index,
                        source_queues[sim_index],
                        schedules[sim_index].order(cycle),
                        cycle,
                    )
                    pending[sim_index] -= injected
                    if cycle >= warmups[sim_index]:
                        injected_in_window[sim_index] += injected
            if cycle + 1 in horizons and cycle + 1 < total_cycles:
                for sim_index in list(active):
                    if horizons[sim_index] == cycle + 1:
                        engine.retire(sim_index)
                        active.remove(sim_index)

        return [
            self._assemble(
                sim_index,
                warmups[sim_index],
                measures[sim_index],
                row_start[sim_index],
                log_start[sim_index],
                generated_in_window[sim_index],
                injected_in_window[sim_index],
                record_flits,
            )
            for sim_index in range(count)
        ]

    def _assemble(
        self,
        sim_index: int,
        warmup: int,
        measure: int,
        row_start: int,
        log_start: int,
        generated_in_window: int,
        injected_in_window: int,
        record_flits: bool,
    ):
        """Fold one member's batched run into its ``TrafficResult``.

        Latency statistics are replayed through the same accumulators the
        per-sim loop feeds (:class:`~repro.utils.stats.OnlineStats` is a
        running Welford mean, so sample *order* matters for bitwise
        equality) — but from the completion log after the run, over exact
        integer latencies gathered in one vectorized pass, instead of two
        method calls inside the hot cycle loop.
        """
        from repro.traffic.simulation import TrafficResult

        simulation = self.simulations[sim_index]
        engine = self.engine
        table = engine.flits[sim_index]
        table.sync()

        # Locality accounting over this window's generated rows (vectorized).
        generated_rows = slice(row_start, table.count)
        simulation._total_requests += table.count - row_start
        simulation._local_requests += int(
            np.count_nonzero(
                self._bank_tile[table.bank_id[generated_rows]]
                == self._core_tile[table.core_id[generated_rows]]
            )
        )
        local_fraction = (
            simulation._local_requests / simulation._total_requests
            if simulation._total_requests
            else 0.0
        )

        latency = OnlineStats()
        histogram = Histogram()
        log_slice = engine.completed_log[sim_index][log_start:]
        completed_in_window = 0
        if log_slice:
            rows = np.fromiter(log_slice, dtype=np.int64, count=len(log_slice))
            completed = table.completed_cycle[rows]
            in_window = completed >= warmup
            completed_in_window = int(np.count_nonzero(in_window))
            values = (completed - table.created_cycle[rows]).tolist()
            for value, measuring in zip(values, in_window.tolist()):
                if measuring:
                    latency.add(value)
                    histogram.add(value)

        return TrafficResult(
            topology=self.config.topology,
            injected_load=simulation.injection_rate,
            measured_cycles=measure,
            num_cores=self.config.num_cores,
            generated_requests=generated_in_window,
            injected_requests=injected_in_window,
            completed_requests=completed_in_window,
            average_latency=latency.mean,
            p95_latency=histogram.percentile(0.95),
            max_latency=int(latency.maximum) if latency.count else 0,
            local_fraction=local_fraction,
            flit_log=(
                [table.row_record(row) for row in log_slice]
                if record_flits
                else None
            ),
        )
