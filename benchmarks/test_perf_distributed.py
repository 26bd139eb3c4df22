"""Performance benchmark: distributed sweep scaling, 4 local workers vs 1.

Runs the Figure-5 load sweep cold-cache (no cache attached, so every
point is computed) through the :class:`DistributedExecutor` twice — one
local worker, then four — and records the wall-clock ratio.  Both runs
pay the same fork/IPC overhead, so the ratio isolates what distribution
adds: work-stealing across genuinely parallel worker processes.

Scaling is physically bounded by the host's core count: on a 4+-core
machine four workers must deliver at least :data:`SPEEDUP_FLOOR`; on
smaller hosts (CI smoke containers are often 1-2 cores) the measured
ratio is recorded as informational and the floor is not asserted — a
1-core machine cannot exhibit parallel speedup no matter how good the
scheduler is.  The committed baseline records the ``cpus`` it was
measured on, and ``tools/bench_report.py`` only gates runs against a
baseline from a matching core count.

Results land in the ``BENCH_experiments.json`` snapshot (under
``BENCH_OUT_DIR``, see ``conftest.py``) under a ``"distributed"`` key;
``benchmarks/BENCH_experiments.baseline.json`` is
the committed reference.
"""

from __future__ import annotations

import os
import time

from repro.evaluation.settings import ExperimentSettings
from repro.experiments.distributed import DistributedExecutor
from repro.experiments.registry import EXPERIMENTS

WARMUP_CYCLES = 20
MEASURE_CYCLES = 60
WORKERS = 4
#: Minimum acceptable 4-worker-over-1-worker speedup on a host that can
#: physically deliver it (>= 4 cores).
SPEEDUP_FLOOR = 3.0


def _sweep_specs():
    settings = ExperimentSettings(
        engine="vector",
        warmup_cycles=WARMUP_CYCLES,
        measure_cycles=MEASURE_CYCLES,
    )
    return EXPERIMENTS["fig5"].build_sweep(settings).specs()


def _timed_run(workers: int, specs) -> tuple[float, list]:
    executor = DistributedExecutor(workers=workers)
    started = time.perf_counter()
    results = executor.run(specs)
    return time.perf_counter() - started, results


def test_distributed_scaling_and_write_bench(report_sink, bench_snapshot):
    specs = _sweep_specs()
    cpus = os.cpu_count() or 1

    serial_seconds, serial_results = _timed_run(1, specs)
    fleet_seconds, fleet_results = _timed_run(WORKERS, specs)

    # Identity first: a fleet that computes different numbers has no
    # business being compared on speed.
    assert [r.average_latency for r in serial_results] == [
        r.average_latency for r in fleet_results
    ]
    assert [r.throughput for r in serial_results] == [
        r.throughput for r in fleet_results
    ]

    speedup = serial_seconds / fleet_seconds if fleet_seconds else 0.0

    section = {
        "benchmark": (
            f"cold-cache fig5 load sweep ({len(specs)} points, "
            f"{WARMUP_CYCLES}+{MEASURE_CYCLES} cycles/point, vector engine) "
            f"on {WORKERS} local workers vs 1"
        ),
        "points": len(specs),
        "workers": WORKERS,
        "cpus": cpus,
        "warmup_cycles": WARMUP_CYCLES,
        "measure_cycles": MEASURE_CYCLES,
        "serial_seconds": round(serial_seconds, 4),
        "fleet_seconds": round(fleet_seconds, 4),
        "speedup_4v1": round(speedup, 2),
    }
    path = bench_snapshot("BENCH_experiments.json", {"distributed": section})
    report_sink.append(
        f"distributed benchmark ({section['benchmark']}): "
        f"1 worker {serial_seconds:.3f}s -> {WORKERS} workers "
        f"{fleet_seconds:.3f}s, speedup {speedup:.2f}x on {cpus} cpus "
        f"-> {path.name}"
    )

    if cpus >= WORKERS:
        assert speedup >= SPEEDUP_FLOOR
    # On narrower hosts the ratio is informational: parallel speedup is
    # bounded by the core count, not by the scheduler under test.
