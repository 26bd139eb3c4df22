"""Registry of the paper's experiments, as sweeps the engine can run.

Each figure/table of the paper is registered as an
:class:`ExperimentDefinition`: a sweep builder (settings -> :class:`Sweep`)
plus an assembler that folds the per-point results back into the figure's
result object (which knows how to :meth:`report` itself).  The registry is
what both command-line entry points (``python -m repro.experiments`` and
``python -m repro.evaluation``) iterate over, and it is the natural place
to register new experiments as the reproduction grows.

This module imports :mod:`repro.evaluation`; the engine modules
(:mod:`~repro.experiments.spec`, :mod:`~repro.experiments.sweep`,
:mod:`~repro.experiments.executor`, :mod:`~repro.experiments.cache`) do
not, so there is no import cycle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from repro.evaluation import (
    fig5,
    fig6,
    fig7,
    fig10,
    physical_tables,
    power_table,
    topologies,
    traces,
    workloads,
)
from repro.evaluation.settings import ExperimentSettings
from repro.experiments.executor import Executor
from repro.experiments.spec import ExperimentSpec
from repro.experiments.sweep import Sweep


@dataclass(frozen=True)
class ExperimentDefinition:
    """One registered experiment: how to build its sweep and fold results.

    Parameters
    ----------
    name : str
        Registry key (e.g. ``"fig7"``), also used on the command line.
    title : str
        One-line description shown by ``python -m repro.experiments list``.
    build_sweep : callable
        Maps :class:`ExperimentSettings` to the experiment's :class:`Sweep`.
    assemble : callable
        Maps ``(specs, results)`` to the figure's result object; the
        object must expose a ``report() -> str`` method.
    """

    name: str
    title: str
    build_sweep: Callable[[ExperimentSettings], Sweep]
    assemble: Callable[[list[ExperimentSpec], list[Any]], Any]

    def run(self, settings: ExperimentSettings, executor: Executor) -> Any:
        """Expand the sweep, run it on ``executor`` and assemble the result.

        Examples
        --------
        >>> from repro.experiments.registry import EXPERIMENTS
        >>> definition = EXPERIMENTS["fig10"]
        >>> result = definition.run(ExperimentSettings(), Executor())
        >>> "Figure 10" in result.report()
        True
        """
        specs = self.build_sweep(settings).specs()
        return self.assemble(specs, executor.run(specs))


def resolve_selection(names: Sequence[str]) -> tuple[list[str], str | None]:
    """Validate a CLI experiment selection against the registry.

    Parameters
    ----------
    names : sequence of str
        The names the user asked for; empty selects every experiment.

    Returns
    -------
    selected : list of str
        The validated selection (empty on error).
    error : str or None
        A printable error message naming the unknown experiments, or
        ``None`` when the selection is valid.

    Examples
    --------
    >>> resolve_selection(["fig10"])
    (['fig10'], None)
    >>> selected, error = resolve_selection(["nope"])
    >>> error.splitlines()[0]
    'unknown experiments: nope'
    """
    selected = list(names) or list(EXPERIMENTS)
    unknown = [name for name in selected if name not in EXPERIMENTS]
    if unknown:
        return [], (
            f"unknown experiments: {', '.join(unknown)}\n"
            f"available: {', '.join(EXPERIMENTS)}"
        )
    return selected, None


def run_experiments(
    selected: Sequence[str],
    settings: ExperimentSettings,
    executor: Executor,
) -> Iterator[tuple[str, Any, float]]:
    """Run experiments one by one, yielding ``(name, result, elapsed_s)``.

    The shared run loop of both command-line front-ends
    (``python -m repro.experiments`` and ``python -m repro.evaluation``);
    each caller formats the yielded results its own way.
    """
    for name in selected:
        start = time.perf_counter()
        result = EXPERIMENTS[name].run(settings, executor)
        yield name, result, time.perf_counter() - start


#: Every experiment of the paper, keyed by its CLI name.
EXPERIMENTS: dict[str, ExperimentDefinition] = {
    "fig5": ExperimentDefinition(
        name="fig5",
        title="throughput/latency of Top1/Top4/TopH vs injected load",
        build_sweep=fig5.fig5_sweep,
        assemble=fig5.assemble_fig5,
    ),
    "fig6": ExperimentDefinition(
        name="fig6",
        title="TopH under the hybrid addressing scheme (p_local sweep)",
        build_sweep=fig6.fig6_sweep,
        assemble=fig6.assemble_fig6,
    ),
    "fig7": ExperimentDefinition(
        name="fig7",
        title="benchmark performance relative to the ideal crossbar",
        build_sweep=fig7.fig7_sweep,
        assemble=fig7.assemble_fig7,
    ),
    "fig10": ExperimentDefinition(
        name="fig10",
        title="energy per instruction of the TopH tile",
        build_sweep=fig10.fig10_sweep,
        assemble=fig10.assemble_fig10,
    ),
    "power": ExperimentDefinition(
        name="power",
        title="tile/cluster power while running matmul (Section VI-D)",
        build_sweep=power_table.power_sweep,
        assemble=power_table.assemble_power,
    ),
    "physical": ExperimentDefinition(
        name="physical",
        title="tile/cluster area, timing and congestion (Sections VI-B/C)",
        build_sweep=physical_tables.physical_sweep,
        assemble=physical_tables.assemble_physical,
    ),
    "workloads": ExperimentDefinition(
        name="workloads",
        title="workload catalogue: every pattern x injector on one topology",
        build_sweep=workloads.workloads_sweep,
        assemble=workloads.assemble_workloads,
    ),
    "topologies": ExperimentDefinition(
        name="topologies",
        title="topology catalogue: every registered family at one load",
        build_sweep=topologies.topologies_sweep,
        assemble=topologies.assemble_topologies,
    ),
    "traces": ExperimentDefinition(
        name="traces",
        title="trace catalogue: one recorded trace replayed per topology family",
        build_sweep=traces.traces_sweep,
        assemble=traces.assemble_traces,
    ),
}
