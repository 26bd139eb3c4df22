"""Core agents: the operation stream a core executes on the timing model.

A *core agent* produces the sequence of operations a Snitch core performs.
Two kinds of agents exist:

* :class:`TraceAgent` wraps a plain Python generator yielding
  :class:`Compute` / :class:`Load` / :class:`Store` / :class:`Use` /
  :class:`Barrier` operations.  The benchmark kernels of Section V-C are
  written this way so that 64- and 256-core runs stay fast.
* ``repro.snitch.agent.SnitchAgent`` executes RV32IM(A) machine code on the
  functional ISS and emits the same operations, so small programs can be run
  with full functional fidelity.

Both feed :class:`repro.core.coremodel.CoreTimingModel`.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class Compute:
    """``cycles`` cycles of in-core computation (``muls`` of them multiplies).

    One compute cycle corresponds to one single-issue integer instruction; the
    split between simple ALU operations and multiplies only matters to the
    energy model.
    """

    cycles: int
    muls: int = 0

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ValueError("compute cycles must be non-negative")
        if not 0 <= self.muls <= max(self.cycles, 0):
            raise ValueError("muls must be between 0 and cycles")


@dataclass(frozen=True)
class Load:
    """A 32-bit load from ``address``; ``tag`` names the result for `Use`."""

    address: int
    tag: object = None


@dataclass(frozen=True)
class Store:
    """A 32-bit store to ``address`` (posted: no response is awaited)."""

    address: int


@dataclass(frozen=True)
class Use:
    """Consume the result of the load previously issued with ``tag``.

    The core stalls until that load has returned — this is how the kernels
    express the data dependencies that bound how much latency the Snitch
    core's outstanding-load support can hide.
    """

    tag: object


@dataclass(frozen=True)
class Barrier:
    """Synchronise with all other participating cores."""

    barrier_id: int = 0


#: Union of every operation a core agent may yield.  Spelled with
#: ``typing.Union``: a ``|`` of classes evaluated at import time needs
#: Python 3.10, and the package supports 3.9.
Operation = Union[Compute, Load, Store, Use, Barrier]


class CoreAgent:
    """Interface of an operation producer for one core."""

    def operations(self) -> Iterator[Operation]:
        """Yield the operations the core executes, in program order."""
        raise NotImplementedError

    def on_load_data(self, tag: object, value: int) -> None:
        """Receive the functional data of a completed load (optional hook)."""


class TraceAgent(CoreAgent):
    """Wraps a generator (or iterable) of operations."""

    def __init__(self, operations: Iterator[Operation] | list[Operation]) -> None:
        self._operations = operations

    def operations(self) -> Iterator[Operation]:
        return iter(self._operations)


class IdleAgent(CoreAgent):
    """An agent that performs no work (used for inactive cores)."""

    def operations(self) -> Iterator[Operation]:
        return iter(())
