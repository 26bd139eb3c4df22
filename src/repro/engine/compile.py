"""Compilation of a :class:`ClusterTopology` into flat integer tables.

The object-model timing core (:mod:`repro.interconnect.resources`) walks
graphs of :class:`RegisterStage` / :class:`ArbitrationPoint` instances one
Python object at a time.  The vectorized engine instead operates on dense
integer state, and this module is the bridge: it numbers every resource of a
built topology once and turns core-to-bank paths into *path tables* — flat
tuples of stage and arbiter indices — that the transport passes of
:class:`repro.engine.vector.VectorEngine` consume without ever touching a
resource object again.

Every path of every topology has the shape ``request resources + bank stage
(+ response resources)``, where the request/response halves depend only on
the issuing core and the *tile* of the destination bank.  The compiler
exploits that: it compiles one **path template** per ``(core, destination
tile, direction)`` triple — about ``num_cores * num_tiles * 2`` templates,
versus ``num_cores * num_banks * 2`` concrete paths — and marks the bank
stage with the :data:`BANK` placeholder.  The engine resolves the
placeholder against the flit's destination bank at move time, so no
per-bank instantiation ever happens.

A compiled template is a *move chain*: a singly linked chain of
``(target, arbiters, next)`` triples, one per hop.  ``target`` is the next
register stage to enter (:data:`BANK`, a stage id, or :data:`COMPLETE`),
``arbiters`` the run of combinational arbitration points crossed on the
way, and ``next`` the following hop's triple (``None`` past the end).
``path_moves[p]`` is the chain head — the injection hop from the core.
The engine keeps each flit's *current* triple at hand, so advancing a flit
never indexes back into per-path tables: one list read yields everything
the hop needs, and the chain link yields the next hop on success.

The compiler also checks the *level monotonicity* invariant the vectorized
level-ordered passes rely on: along every path, register-stage pipeline
levels strictly increase.  Every topology of the paper satisfies this
(requests flow master -> boundary -> bank, responses bank -> boundary ->
master), and every family in :mod:`repro.topologies` is constructed to
satisfy it too (mesh/torus rings allocate one level per hop position, with
dateline virtual channels breaking the torus wrap cycle); a topology that
violated it could change arbitration behaviour under the vector engine, so
compilation fails loudly instead.
"""

from __future__ import annotations

import numpy as np

from repro.interconnect.resources import (
    RegisterStage,
    Resource,
    StageNetwork,
)
from repro.interconnect.topology import ClusterTopology
from repro.utils.rotation import PermutationSchedule

#: Move-table target marking the end of the path (the flit completes).
COMPLETE = -1
#: Move-table target marking the destination bank's stage, resolved against
#: the flit's ``bank_id`` at move time.
BANK = -2


class EngineCompileError(ValueError):
    """Raised when a topology cannot be compiled for the vector engine."""


class CompiledNetwork:
    """Flat integer tables describing one built topology.

    Parameters
    ----------
    topology : ClusterTopology
        A fully built topology.  Its :class:`StageNetwork` is used purely as
        the structural description: the compiler snapshots stage depths,
        levels, the per-level stage enumeration and the per-level arbitration
        permutation pools, so the vector engine replays the exact arbitration
        decisions the object engine would make.

    Attributes
    ----------
    stage_depth, stage_level : list of int
        Per-stage elastic-buffer depth and pipeline level, indexed by the
        stage ids used throughout the engine.
    bank_stage_ids : list of int
        Stage id of every bank's register stage, indexed by global bank id —
        the resolution table for the :data:`BANK` placeholder.
    level_orders : dict
        ``level -> tuple of permutations``, each permutation a tuple of
        *global stage ids* in the visiting order of one pooled cycle.
    level_orders_np : dict
        The same permutations as NumPy index arrays.
    full_orders : tuple of numpy.ndarray
        One concatenated downstream-first visiting order per pooled cycle —
        the index array behind the engine's single per-cycle occupancy
        gather.
    path_moves : list
        Per-template move-chain heads (see the module docstring).
    path_stage_seq : list
        Per-template register-stage sequences (with the :data:`BANK`
        placeholder), used for introspection and latency book-keeping.
    """

    def __init__(self, topology: ClusterTopology) -> None:
        self.topology = topology
        network: StageNetwork = topology.network
        stages = network.stages
        arbiters = network.arbiters
        self._stage_index = {id(stage): index for index, stage in enumerate(stages)}
        self._arbiter_index = {
            id(arbiter): index for index, arbiter in enumerate(arbiters)
        }
        self.num_stages = len(stages)
        self.num_arbiters = len(arbiters)
        self.stage_depth = [stage.depth for stage in stages]
        self.stage_level = [stage.level for stage in stages]
        self.stage_names = [stage.name for stage in stages]
        self.bank_stage_ids = [
            self._stage_index[id(stage)] for stage in topology.bank_stages
        ]
        # The network's own downstream-first level order: exactly
        # PIPELINE_LEVELS for the paper topologies, and the same order
        # extended with per-hop levels for the parameterized families of
        # :mod:`repro.topologies` (mesh/torus rings allocate one level per
        # hop position, so a path's stages always sort downstream-first).
        self.levels = network.active_levels
        self.level_orders: dict[int, tuple[tuple[int, ...], ...]] = {}
        self.level_orders_np: dict[int, tuple[np.ndarray, ...]] = {}
        self.level_pool_size: dict[int, int] = {}
        for level in self.levels:
            level_stages = network.stages_at_level(level)
            if not level_stages:
                continue
            ids = [self._stage_index[id(stage)] for stage in level_stages]
            schedule = PermutationSchedule(
                len(ids), seed=network.arbitration_seed + level
            )
            self.level_orders[level] = tuple(
                tuple(ids[i] for i in schedule.order(entry))
                for entry in range(schedule.pool_size)
            )
            self.level_orders_np[level] = tuple(
                np.array(order, dtype=np.intp)
                for order in self.level_orders[level]
            )
            self.level_pool_size[level] = schedule.pool_size

        # One concatenated visiting order per pooled cycle, covering every
        # level downstream-first.  Advancing a cycle is then a single
        # occupancy gather over this array: the flattening is exact because
        # a stage pops only when visited and level monotonicity rules out
        # pushes into a not-yet-visited level (see VectorEngine.advance).
        pool_sizes = set(self.level_pool_size.values())
        if len(pool_sizes) > 1:  # pragma: no cover - schedules share a pool
            raise EngineCompileError(
                f"arbitration pools of different sizes {sorted(pool_sizes)} "
                "cannot be flattened into one visiting order"
            )
        self.order_pool_size = pool_sizes.pop() if pool_sizes else 1
        self.full_orders = tuple(
            np.concatenate(
                [
                    self.level_orders_np[level][entry]
                    for level in self.levels
                    if level in self.level_orders_np
                ]
            )
            if self.level_orders_np
            else np.empty(0, dtype=np.intp)
            for entry in range(self.order_pool_size)
        )

        # Path-template tables, appended to lazily as (core, tile,
        # direction) triples are first requested.
        self.path_moves: list[tuple] = []
        self.path_stage_seq: list[tuple[int, ...]] = []
        #: Index (within the original resource list) of each template's
        #: first register stage, and the resource list's total length —
        #: used by the object facade to keep ``Flit.position`` semantics
        #: without materialising resource paths per flit.
        self.path_first_stage_pos: list[int] = []
        self.path_resource_len: list[int] = []
        self._template_ids: dict[tuple[int, int, bool], int] = {}
        self._template_tables: dict[bool, list[list[int]]] = {}
        #: Tile of every global bank id (placeholder-resolution helper).
        self.tile_of_bank = [
            topology.config.tile_of_bank(bank)
            for bank in range(topology.config.num_banks)
        ]

    # ------------------------------------------------------------------ #
    # Path compilation
    # ------------------------------------------------------------------ #

    def path_id(self, core_id: int, bank_id: int, needs_response: bool) -> int:
        """The path-template id for a ``core_id`` -> ``bank_id`` transaction.

        Templates are shared by every bank of the destination tile and are
        compiled on first use, so steady-state traffic only pays one
        dictionary lookup per request.
        """
        key = (core_id, self.tile_of_bank[bank_id], needs_response)
        path_id = self._template_ids.get(key)
        if path_id is None:
            resources = self.topology.build_path(core_id, bank_id, needs_response)
            path_id = self._compile_path(resources, self.bank_stage_ids[bank_id])
            self._template_ids[key] = path_id
        return path_id

    def template_table(self, needs_response: bool) -> list[list[int] | None]:
        """Per-core ``[core][tile] -> template id`` rows, compiled on demand.

        Returns a list with one slot per core, lazily filled by
        :meth:`template_row`: a core's row is compiled in one go the first
        time any flit of that core needs it, so hot loops resolve a
        template with two list reads instead of a dictionary lookup.
        Cached per direction.
        """
        table = self._template_tables.get(needs_response)
        if table is None:
            table = [None] * self.topology.config.num_cores
            self._template_tables[needs_response] = table
        return table

    def template_row(self, core_id: int, needs_response: bool) -> list[int]:
        """Compile (or fetch) ``core_id``'s per-tile template-id row."""
        table = self.template_table(needs_response)
        row = table[core_id]
        if row is None:
            config = self.topology.config
            banks_per_tile = config.banks_per_tile
            row = table[core_id] = [
                self.path_id(core_id, tile * banks_per_tile, needs_response)
                for tile in range(config.num_tiles)
            ]
        return row

    def _compile_path(self, resources: list[Resource], bank_stage: int) -> int:
        """Compile one resource path into a move chain; return its id."""
        stage_seq: list[int] = []
        moves: list[tuple[int, tuple[int, ...]]] = []
        pending_arbiters: list[int] = []
        first_stage_pos = -1
        for position, resource in enumerate(resources):
            if isinstance(resource, RegisterStage):
                stage_id = self._stage_index.get(id(resource))
                if stage_id is None:
                    raise EngineCompileError(
                        f"register stage {resource.name!r} is not part of the "
                        "compiled topology's stage network"
                    )
                target = BANK if stage_id == bank_stage else stage_id
                moves.append((target, tuple(pending_arbiters)))
                pending_arbiters.clear()
                stage_seq.append(target)
                if first_stage_pos < 0:
                    first_stage_pos = position
            else:
                arbiter_id = self._arbiter_index.get(id(resource))
                if arbiter_id is None:
                    raise EngineCompileError(
                        f"arbitration point {resource.name!r} is not part of "
                        "the compiled topology's stage network"
                    )
                pending_arbiters.append(arbiter_id)
        moves.append((COMPLETE, tuple(pending_arbiters)))

        levels = [
            self.stage_level[bank_stage if stage == BANK else stage]
            for stage in stage_seq
        ]
        if any(later <= earlier for earlier, later in zip(levels, levels[1:])):
            raise EngineCompileError(
                "path violates the level-monotonicity invariant of the "
                f"vector engine (stage levels {levels}); the object engine "
                "must be used for this topology"
            )

        # Link the hops back to front into the (target, arbiters, next)
        # chain the engine walks (see the module docstring).
        chain = None
        for target, arbiters in reversed(moves):
            chain = (target, arbiters, chain)

        path_id = len(self.path_moves)
        self.path_moves.append(chain)
        self.path_stage_seq.append(tuple(stage_seq))
        self.path_first_stage_pos.append(first_stage_pos)
        self.path_resource_len.append(len(resources))
        return path_id

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def num_paths(self) -> int:
        """Number of distinct path templates compiled so far."""
        return len(self.path_moves)

    def zero_load_latency(self, core_id: int, bank_id: int) -> int:
        """Register-stage count of the load path (matches the topology's)."""
        return len(self.path_stage_seq[self.path_id(core_id, bank_id, True)])
