"""Vectorized flit-transport engine (structure-of-arrays timing core).

The packages above this one describe *what* to simulate (topologies,
programs, traffic); :mod:`repro.engine` is an alternative implementation of
*how* the cycle-level transport is executed.  It compiles a built topology
into flat integer tables (:mod:`repro.engine.compile`), keeps every flit as
a row across preallocated NumPy columns (:mod:`repro.engine.soa`), and
advances all of them with level-ordered passes over dense lists
(:mod:`repro.engine.vector`) — several times faster than the per-object
legacy engine, and cycle-exact with it for fixed seeds.

Select an engine per cluster (``"legacy"`` or ``"vector"``)::

    cluster = MemPoolCluster(config, engine="vector")

or from the command line::

    python -m repro.evaluation fig5 --engine vector
    python -m repro.experiments run fig5 --engine vector

Both the open-loop traffic simulator (through
:mod:`repro.engine.traffic`) and the execution-driven system simulator
(through :class:`~repro.engine.vector.VectorStageNetwork`, a drop-in
``StageNetwork`` facade) run on it unchanged.
"""

from repro.core.cluster import ENGINES
from repro.engine.compile import CompiledNetwork, EngineCompileError
from repro.engine.soa import FlitTable
from repro.engine.vector import VectorEngine, VectorStageNetwork

__all__ = [
    "ENGINES",
    "CompiledNetwork",
    "EngineCompileError",
    "FlitTable",
    "VectorEngine",
    "VectorStageNetwork",
]
