"""Performance benchmark: SimBatch vs sequential vector sweep execution.

Runs the Figure-5 load sweep — all three topologies of the figure on the
64-core cluster, eleven injected loads each — two ways: sequentially (one
fresh vector-engine cluster and simulation per point, exactly what the
sweep engine does per point today) and batched (one
:class:`repro.engine.batch.TrafficBatch` per topology advancing the whole
load axis in lockstep).  Both produce identical results; the measured
wall-clock ratio is the batching speedup.

The sweep runs at *smoke* windows: short warm-up/measure windows and many
points is exactly the regime the batch engine exists for — figure-grid
regeneration and CI regression sweeps whose wall-clock is dominated by
Python per-point overhead (topology build, path compilation, per-flit
allocation, per-cycle loop entry) rather than steady-state transport.
Both engines run the same windows, so the comparison is apples to apples;
the snapshot records the windows next to the numbers.

The measured speedup is merged into the ``BENCH_engine.json`` snapshot
(under ``BENCH_OUT_DIR``, see ``conftest.py``) under a ``"batch"`` key,
reported by ``tools/bench_report.py`` and gated against
the committed baseline by ``make bench-engine`` / the CI bench-smoke job.
"""

from __future__ import annotations

import time

from repro.core.cluster import MemPoolCluster
from repro.core.config import MemPoolConfig
from repro.engine.batch import TrafficBatch
from repro.evaluation.fig5 import DEFAULT_LOADS, FIG5_TOPOLOGIES
from repro.traffic.simulation import TrafficSimulation

WARMUP_CYCLES = 20
MEASURE_CYCLES = 60
SEED = 0
#: Timing repetitions; the minimum filters scheduler noise (same policy
#: as ``test_perf_engine``).
REPETITIONS = 3
#: Minimum acceptable batch-over-sequential speedup — the ISSUE's ≥2x
#: target, kept as a hard floor below the recorded baseline so the suite
#: stays green on slow, noisy CI boxes while still catching a batch
#: engine that stopped amortising anything.
SPEEDUP_FLOOR = 2.0


def _sequential_sweep() -> tuple[float, list]:
    """One point at a time on fresh vector clusters (today's sweep path)."""
    started = time.perf_counter()
    results = []
    for topology in FIG5_TOPOLOGIES:
        for load in DEFAULT_LOADS:
            cluster = MemPoolCluster(
                MemPoolConfig.scaled(topology), engine="vector"
            )
            simulation = TrafficSimulation(cluster, load, seed=SEED)
            results.append(
                simulation.run(
                    warmup_cycles=WARMUP_CYCLES, measure_cycles=MEASURE_CYCLES
                )
            )
    return time.perf_counter() - started, results


def _batched_sweep() -> tuple[float, list]:
    """One TrafficBatch per topology over the whole load axis."""
    started = time.perf_counter()
    results = []
    for topology in FIG5_TOPOLOGIES:
        cluster = MemPoolCluster(MemPoolConfig.scaled(topology), engine="batch")
        simulations = [
            TrafficSimulation(cluster, load, seed=SEED) for load in DEFAULT_LOADS
        ]
        results.extend(
            TrafficBatch(simulations).run(WARMUP_CYCLES, MEASURE_CYCLES)
        )
    return time.perf_counter() - started, results


def test_batch_speedup_and_append_bench(report_sink, bench_snapshot):
    # Cycle-exactness gate first: the two execution styles must compute
    # the same sweep, or the timing comparison is meaningless.
    config = MemPoolConfig.scaled("top1")
    vector_log = (
        TrafficSimulation(MemPoolCluster(config, engine="vector"), 0.3, seed=SEED)
        .run(100, 250, record_flits=True)
        .flit_log
    )
    batch_cluster = MemPoolCluster(config, engine="batch")
    batch_log = (
        TrafficBatch([TrafficSimulation(batch_cluster, 0.3, seed=SEED)])
        .run(100, 250, record_flits=True)[0]
        .flit_log
    )
    assert vector_log == batch_log

    sequential_seconds = []
    batch_seconds = []
    for _ in range(REPETITIONS):
        seconds, sequential_results = _sequential_sweep()
        sequential_seconds.append(seconds)
        seconds, batch_results = _batched_sweep()
        batch_seconds.append(seconds)
        assert [r.average_latency for r in sequential_results] == [
            r.average_latency for r in batch_results
        ]
        assert [r.throughput for r in sequential_results] == [
            r.throughput for r in batch_results
        ]

    sequential_best = min(sequential_seconds)
    batch_best = min(batch_seconds)
    speedup = sequential_best / batch_best
    points = len(FIG5_TOPOLOGIES) * len(DEFAULT_LOADS)

    section = {
        "benchmark": (
            f"64-core fig5 load sweep ({len(FIG5_TOPOLOGIES)} topologies x "
            f"{len(DEFAULT_LOADS)} loads, {WARMUP_CYCLES}+{MEASURE_CYCLES} "
            "cycles/point, smoke windows)"
        ),
        "points": points,
        "sims_per_group": len(DEFAULT_LOADS),
        "warmup_cycles": WARMUP_CYCLES,
        "measure_cycles": MEASURE_CYCLES,
        "sequential_seconds": round(sequential_best, 4),
        "batch_seconds": round(batch_best, 4),
        "speedup": round(speedup, 2),
    }
    path = bench_snapshot("BENCH_engine.json", {"batch": section})
    report_sink.append(
        f"batch benchmark ({section['benchmark']}): "
        f"{points} points, sequential {sequential_best:.3f}s -> batched "
        f"{batch_best:.3f}s, speedup {speedup:.2f}x -> {path.name}"
    )
    assert speedup >= SPEEDUP_FLOOR
