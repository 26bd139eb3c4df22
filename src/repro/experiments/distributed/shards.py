"""Shard planning: split an expanded sweep into distributable work units.

A :class:`Shard` is the unit the work-stealing scheduler hands to a
worker: a set of indices into the dispatcher's spec list.  The planner
chunks the sweep's cache misses, in sweep order, into consecutive shards
of at most ``max_points`` specs each, so only the last shard can be
short; without a bound every spec is its own shard and the scheduler
balances at point granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    """

    shard_id: int
    indices: tuple

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
        Upper bound on specs per shard; ``None`` puts every spec in a
        shard of its own.

    Returns
    -------
    list of Shard
        Consecutive chunks of the misses in sweep order, so the largest
        shards come first; ids are dense and stable for a given input.

    Examples
    --------
    >>> specs = [ExperimentSpec("repro.experiments.demo:multiply", {"a": a})
    ...          for a in range(5)]
    >>> [shard.indices for shard in plan_shards(specs, max_points=2)]
    [(0, 1), (2, 3), (4,)]
    >>> [shard.size for shard in plan_shards(specs)]
    [1, 1, 1, 1, 1]
    """
    if miss_indices is None:
        miss_indices = range(len(spec_list))
    members = list(miss_indices)
    step = max_points or 1
    return [
        Shard(shard_id=shard_id, indices=tuple(members[start:start + step]))
        for shard_id, start in enumerate(range(0, len(members), step))
    ]
