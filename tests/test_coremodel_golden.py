"""Golden pin of the core timing model's per-core activity counters.

The energy and power models consume every field of every core's
:class:`~repro.core.coremodel.CoreStats` — stall counters included — so a
change to how cores are stepped must leave each of them untouched.  Each
case below pins the cycle count, the request and barrier totals and a
SHA-256 over all fields of all cores' stats, recorded with the
all-cores-every-cycle stepping loop and checked on both timing engines.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.core.agents import Barrier, Compute, Load, Store, TraceAgent, Use
from repro.core.cluster import ENGINES, MemPoolCluster
from repro.core.config import MemPoolConfig
from repro.core.coremodel import CoreStats
from repro.core.system import MemPoolSystem, SystemResult


def stats_digest(result: SystemResult) -> str:
    """SHA-256 over every :class:`CoreStats` field of every core, in core order."""
    names = [field.name for field in dataclasses.fields(CoreStats)]
    rows = [[getattr(stats, name) for name in names] for stats in result.core_stats]
    return hashlib.sha256(json.dumps([names, rows]).encode()).hexdigest()


def fingerprint(result: SystemResult) -> tuple:
    return (
        result.cycles,
        result.injected_requests,
        result.completed_requests,
        result.barrier_episodes,
        stats_digest(result),
    )


def _kernel(kernel, topology, scrambling, full_scale=False):
    def run(engine):
        from repro.evaluation.fig7 import simulate_fig7_point

        return simulate_fig7_point(
            kernel=kernel, topology=topology, scrambling=scrambling,
            full_scale=full_scale, verify=False, engine=engine,
        ).system

    return run


def _synthetic(engine):
    cluster = MemPoolCluster(MemPoolConfig.scaled("top1"), engine=engine)
    return MemPoolSystem.synthetic(cluster, 0.3, requests_per_core=32, seed=0).run()


def _skewed_barrier(engine):
    """Cores with skewed compute meet at two barriers around remote loads."""
    cluster = MemPoolCluster(MemPoolConfig.tiny("toph"), engine=engine)
    config = cluster.config
    agents = {}
    for core in range(0, config.num_cores, 3):
        remote_tile = (config.tile_of_core(core) + 1) % config.num_tiles
        base = remote_tile * config.seq_region_bytes_per_tile + 4 * core
        agents[core] = TraceAgent(
            [Compute(2 + 5 * core), Barrier(0)]
            + [Load(base + 64 * index, tag=index) for index in range(3)]
            + [Use(2), Compute(core % 4), Barrier(1), Store(base), Compute(1)]
        )
    return MemPoolSystem(cluster, agents).run()


def _snitch_program(engine):
    """A load-use loop over a remote buffer on the functional ISS."""
    from repro.snitch import assemble
    from repro.snitch.agent import SnitchAgent

    cluster = MemPoolCluster(MemPoolConfig.tiny("toph"), engine=engine)
    buffer = cluster.layout.alloc_tile_local("buf", 2, 64)
    cluster.memory.write_words(buffer.base, range(16))
    source = """
        la t0, buf
        li t1, 0
        li t2, 0
    loop:
        slli t3, t1, 2
        add  t3, t3, t0
        lw   t4, 0(t3)
        add  t2, t2, t4
        addi t1, t1, 1
        li   t5, 16
        blt  t1, t5, loop
        sw   t2, 0(t0)
        ecall
    """
    program = assemble(source, symbols={"buf": buffer.base})
    agent = SnitchAgent(program, core_id=0, memory=cluster.memory)
    result = MemPoolSystem(cluster, {0: agent}).run()
    assert cluster.memory.read_signed(buffer.base) == sum(range(16))
    return result


CASES = {
    **{
        f"{kernel}-{topology}-{'scr' if scrambling else 'noscr'}": _kernel(
            kernel, topology, scrambling
        )
        for kernel in ("dct", "2dconv")
        for topology in ("top1", "toph")
        for scrambling in (False, True)
    },
    "dct-toph-scr-256": _kernel("dct", "toph", True, full_scale=True),
    "synthetic-top1-0.3": _synthetic,
    "skewed-barrier": _skewed_barrier,
    "snitch-load-use": _snitch_program,
}

#: (cycles, injected, completed, barrier episodes, CoreStats digest).
GOLDEN = {
    "2dconv-top1-noscr": (
        6633, 38432, 38432, 0,
        "115090ca1d43aa8c6526cc4d570a3ec32a7ec844ff5cf74898afddb0c8f21dfa",
    ),
    "2dconv-top1-scr": (
        2156, 38432, 38432, 0,
        "6c8dc5f5b57091dc1ae8fbd338bfac040c1f474e1c79f5e89204869aeb62ecd7",
    ),
    "2dconv-toph-noscr": (
        2598, 38432, 38432, 0,
        "a6e7aacf6a897656ed229c93a1b630603365a8e0b4e302f645ece297b6c51840",
    ),
    "2dconv-toph-scr": (
        2132, 38432, 38432, 0,
        "bc2f9ae0edff8e139f0d647826ab3f7220effa047efd0df91271c862209915d9",
    ),
    "dct-top1-noscr": (
        4958, 16384, 16384, 0,
        "bbd1a86968df1ce6d980566c18a6188887c5f71c4f9b5e3c4ee87f0e1ef67edf",
    ),
    "dct-top1-scr": (
        819, 16384, 16384, 0,
        "990b6868ec11ff6cfc819383cc5ac3a7773fef8c29b7b241e8a66b93681ff19b",
    ),
    "dct-toph-noscr": (
        1594, 16384, 16384, 0,
        "1fefc86161c5d0c694d9077f06c8531daeaf2b8dd36c20fb6d667239ee50946a",
    ),
    "dct-toph-scr": (
        819, 16384, 16384, 0,
        "990b6868ec11ff6cfc819383cc5ac3a7773fef8c29b7b241e8a66b93681ff19b",
    ),
    "dct-toph-scr-256": (
        830, 65536, 65536, 0,
        "dc66ce0a2593f1545949ac358afe3cf42837f7dea74cb14f188c62a0d62a69aa",
    ),
    "skewed-barrier": (
        97, 24, 24, 2,
        "d3919e6d87d563e575dbca23f6ab82380de89fe4def4b454e9bf12dc8d62bd23",
    ),
    "snitch-load-use": (
        202, 17, 17, 0,
        "7e2e5028caee33846a1fcb673ef6c5181b73492936fb289db2bcba3263433423",
    ),
    "synthetic-top1-0.3": (
        247, 2048, 2048, 0,
        "848143610461147bdee0b16957efede69fc22c17cd0a2bb3f2a25eb48117aacd",
    ),
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_core_model_matches_golden(case, engine):
    assert fingerprint(CASES[case](engine)) == GOLDEN[case]
