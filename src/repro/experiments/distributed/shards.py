"""Shard planning: split an expanded sweep into distributable work units.

A :class:`Shard` is the unit the work-stealing scheduler hands to a
worker: a set of indices into the dispatcher's spec list.  Shards are cut
along :func:`repro.experiments.batch.spec_group_key` boundaries, so every
spec inside a shard shares a compiled network and cycle loop and the
worker can still run the whole shard as one
:class:`repro.engine.batch.SimBatch` — sharding never gives up the
batching speedup, it only bounds how much of a group travels together.

Groups larger than ``max_points`` are chopped into consecutive chunks
(each chunk still packs internally); unbatchable specs become singleton
shards so the scheduler can balance them at point granularity.  Shards
are emitted largest first — the classic longest-processing-time
heuristic, which keeps the final stretch of a sweep from waiting on one
giant shard that started last.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments.batch import spec_group_key
from repro.experiments.spec import ExperimentSpec


@dataclass(frozen=True)
class Shard:
    """One distributable work unit: indices into the dispatcher's spec list.

    Parameters
    ----------
    shard_id : int
        Stable identifier within one run; lease bookkeeping and the
        wire protocol refer to shards by this id.
    indices : tuple of int
        Positions of the member specs in the dispatcher's spec list,
        in original sweep order.
    group : tuple or None
        The batch-group key the members share, or ``None`` for an
        unbatchable singleton (observability only — never compared).
    """

    shard_id: int
    indices: tuple
    group: tuple | None = None

    @property
    def size(self) -> int:
        """Number of specs in the shard."""
        return len(self.indices)


def plan_shards(
    spec_list: Sequence[ExperimentSpec],
    miss_indices: Sequence[int] | None = None,
    max_points: int | None = None,
) -> list[Shard]:
    """Cut the cache misses of a sweep into scheduler-ready shards.

    Parameters
    ----------
    spec_list : sequence of ExperimentSpec
        The fully expanded sweep.
    miss_indices : sequence of int, optional
        Indices that actually need computing (the cache scan's misses);
        defaults to every index.
    max_points : int, optional
        Upper bound on specs per shard.  Batch groups larger than the
        bound are split into consecutive chunks that still pack
        internally; ``None`` keeps groups whole.

    Returns
    -------
    list of Shard
        Largest shard first; ids are dense and stable for a given input.

    Examples
    --------
    >>> specs = [ExperimentSpec("repro.experiments.demo:multiply", {"a": a})
    ...          for a in range(3)]
    >>> [shard.size for shard in plan_shards(specs)]
    [1, 1, 1]
    """
    if miss_indices is None:
        miss_indices = range(len(spec_list))
    groups: dict[tuple, list[int]] = {}
    order: list[tuple] = []
    singles: list[int] = []
    for index in miss_indices:
        key = spec_group_key(spec_list[index])
        if key is None:
            singles.append(index)
            continue
        if key not in groups:
            order.append(key)
        groups.setdefault(key, []).append(index)

    chunks: list[tuple[tuple | None, list[int]]] = []
    for key in order:
        members = groups[key]
        bound = max_points if max_points and max_points > 0 else len(members)
        for start in range(0, len(members), max(bound, 1)):
            chunks.append((key, members[start:start + bound]))
    chunks.extend((None, [index]) for index in singles)

    # Largest first (stable for equal sizes): long shards start early so
    # the tail of the run is short shards that balance well.
    chunks.sort(key=lambda chunk: -len(chunk[1]))
    return [
        Shard(shard_id=shard_id, indices=tuple(members), group=key)
        for shard_id, (key, members) in enumerate(chunks)
    ]
