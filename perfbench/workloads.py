"""The benchmark's workloads, built on the public sweep API.

Each workload expands to a list of :class:`repro.experiments.ExperimentSpec`
from a seed and an engine, labels its points independently of the engine
(so the ``vector`` run and the ``legacy`` oracle can be matched point by
point), folds its results through the registered figure assembler and
reports the simulated cycles it covered.

Settings are passed explicitly, so ``MEMPOOL_*`` environment variables do
not change what is measured.  ``repro`` is imported lazily, inside the
functions, so a process can time its own import.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

WORKLOADS = ("traffic_sweep", "kernels", "paper_scale")

#: Fig. 7 topologies of the ``kernels`` workload: the worst case, the
#: paper's design and the ideal-crossbar baseline (Top4 is left out to
#: keep a run within the benchmark's time budget).
KERNEL_TOPOLOGIES = ("top1", "toph", "topx")
#: Paper-scale points per run, each on its own seed derived from the run seed.
PAPER_SCALE_POINTS = 6
#: The paper's heavy load for the TopH latency claim (request/core/cycle).
PAPER_SCALE_LOAD = 0.33
#: Warm-up and measurement cycles of every traffic point.
WARMUP_CYCLES = 300
MEASURE_CYCLES = 1000
#: Scaled seconds of one cold run on the reference host.  They fix how many
#: cold runs a run of ``--seconds`` makes, so the count never depends on
#: the speed being measured.
NOMINAL_COLD_S = {"traffic_sweep": 8.5, "kernels": 20.0, "paper_scale": 12.5}


def cold_runs(workload: str, seconds: float) -> int:
    """Cold runs per benchmark run: as many as fit in ``seconds``, at least one."""
    return max(1, int(seconds // NOMINAL_COLD_S[workload]))


def settings(workload: str, seed: int, engine: str):
    """The explicit :class:`~repro.evaluation.settings.ExperimentSettings` of a workload."""
    from repro.evaluation.settings import ExperimentSettings

    return ExperimentSettings(
        full_scale=(workload == "paper_scale"),
        warmup_cycles=WARMUP_CYCLES,
        measure_cycles=MEASURE_CYCLES,
        seed=seed,
        engine=engine,
        pattern="uniform",
        injector="poisson",
        topology="toph",
        topology_params={},
        energy=False,
        trace=None,
    )


def paper_scale_seeds(seed: int) -> tuple[int, ...]:
    """Point seeds of a ``paper_scale`` run: disjoint blocks per run seed."""
    return tuple(seed * PAPER_SCALE_POINTS + index for index in range(PAPER_SCALE_POINTS))


def build_specs(workload: str, seed: int, engine: str = "vector") -> list:
    """Expand ``workload`` into its sweep specs."""
    from repro.experiments import Sweep
    from repro.experiments.registry import EXPERIMENTS

    chosen = settings(workload, seed, engine)
    if workload == "traffic_sweep":
        return EXPERIMENTS["fig5"].build_sweep(chosen).specs()
    if workload == "kernels":
        from repro.evaluation.fig7 import fig7_sweep

        return fig7_sweep(chosen, topologies=KERNEL_TOPOLOGIES).specs()
    if workload == "paper_scale":
        return Sweep(
            runner="repro.evaluation.fig5:simulate_fig5_point",
            grid={"seed": paper_scale_seeds(seed)},
            base={**chosen.as_params(), "topology": "toph", "load": PAPER_SCALE_LOAD},
            name="paper_scale",
        ).specs()
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def assemble(workload: str, specs: list, results: list):
    """Fold point results into the figure result object (it has ``report()``)."""
    from repro.experiments.registry import EXPERIMENTS

    figure = "fig7" if workload == "kernels" else "fig5"
    return EXPERIMENTS[figure].assemble(specs, results)


def label(spec) -> str:
    """Engine-independent name of a point, e.g. ``top1@0.1`` or ``dct/toph/scr``."""
    params = spec.params
    if "kernel" in params:
        scrambling = "scr" if params["scrambling"] else "plain"
        return f"{params['kernel']}/{params['topology']}/{scrambling}"
    if params.get("full_scale"):
        return f"{params['topology']}@{params['load']}/s{params['seed']}"
    return f"{params['topology']}@{params['load']}"


def simulated_cycles(specs: list, results: list) -> int:
    """Simulated cycles covered by the points (window length or kernel cycles)."""
    total = 0
    for spec, result in zip(specs, results):
        if "kernel" in spec.params:
            total += result.cycles
        else:
            total += spec.params["warmup_cycles"] + spec.params["measure_cycles"]
    return total


def digest(result) -> str:
    """Content digest of a point's simulated statistics.

    Traffic points hash every :class:`~repro.traffic.TrafficResult` field;
    kernel points hash their identity, cycles, instructions and the
    verification flag.  Floats are hashed through their exact ``repr``.
    """
    if hasattr(result, "system"):
        payload = {
            "kernel": result.kernel,
            "topology": result.topology,
            "scrambling": result.scrambling,
            "cycles": result.cycles,
            "instructions": result.instructions,
            "correct": result.correct,
        }
    else:
        payload = dataclasses.asdict(result)
    encoded = json.dumps(payload, sort_keys=True, default=repr).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()[:20]


def mismatches(labels: list, digests: list, expected: dict, errors: dict) -> list[str]:
    """Labels of points that raised or whose digest differs from the oracle's."""
    failed = set(errors)
    for name, actual in zip(labels, digests):
        if actual is None or expected.get(name) != actual:
            failed.add(name)
    return sorted(failed)


def failed_verification(results: list) -> int:
    """Kernel points whose memory contents differ from the numpy reference."""
    return sum(1 for result in results if hasattr(result, "system") and not result.correct)


def fidelity(workload: str, figure) -> list[str]:
    """Model-versus-paper lines for the report (informational, never gated)."""
    if workload == "paper_scale":
        latencies = figure.latency("toph")
        mean = sum(latencies) / len(latencies)
        return [
            f"TopH average latency at {PAPER_SCALE_LOAD} req/core/cycle, 256 cores: "
            f"{mean:.2f} cycles (mean of {len(latencies)} seeds); paper: < 6 cycles",
        ]
    if workload == "kernels":
        plain = figure.relative_performance("matmul", "toph", False)
        scrambled = figure.relative_performance("matmul", "toph", True)
        return [
            f"matmul TopH relative to TopX: {plain:.3f} (TopXS: {scrambled:.3f}); "
            "paper: within ~20 % of the ideal crossbar",
        ]
    return []
