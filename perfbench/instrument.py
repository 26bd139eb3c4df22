"""Which public functions of each ``repro`` layer the traced run wraps.

Every entry of :data:`TARGETS` names a span, the module and attribute of
the function it wraps, and whether the function is *hot* (called per
flit, per cycle or per core step, so its spans are aggregated rather
than kept).  :func:`install` patches the attributes in place from the
outside and returns the function that restores them; nothing under
``src/`` changes.  :func:`per_layer_metrics` turns a recorder's totals
into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
from typing import Callable

from perfbench.spans import SpanRecorder


def _inject_queues_attempts(args) -> int:
    # VectorEngine.inject_queues(self, source_queues, order, cycle): every
    # non-empty queue's head makes one attempt (order is a permutation).
    return sum(1 for queue in args[1] if queue)


def _make_observers(recorder: SpanRecorder) -> dict:
    count = recorder.count

    def queues_after(attempts, args, injected):
        count("engine.inject.attempts", attempts)
        count("engine.inject.accepted", injected)

    def try_inject_after(_, args, accepted):
        count("engine.inject.attempts")
        count("engine.inject.accepted", int(accepted))

    def destinations_after(_, args, banks):
        count("workloads.requests", len(banks))

    def cache_get_after(_, args, value):
        from repro.experiments.cache import MISS

        count("experiments.cache.gets")
        if value is not MISS:
            count("experiments.cache.hits")

    return {
        "inject_queues": (_inject_queues_attempts, queues_after),
        "try_inject": (None, try_inject_after),
        "destinations": (None, destinations_after),
        "cache_get": (None, cache_get_after),
    }


#: (span name, module, attribute, hot, observer key or None).  The span
#: names before the first dot are the layers; ``experiments.point`` (one
#: span per sweep point) and the ``run.*`` roots are not layers, and
#: their self time is the unattributed remainder.
TARGETS = (
    ("topologies.build", "repro.core.cluster", "build_topology", False, None),
    ("core.cluster_build", "repro.core.cluster", "MemPoolCluster.__init__", False, None),
    ("engine.compile", "repro.engine.compile", "CompiledNetwork.__init__", False, None),
    ("engine.path_compile", "repro.engine.compile", "CompiledNetwork.path_id", True, None),
    ("engine.advance", "repro.engine.vector", "VectorEngine.advance", True, None),
    ("engine.new_flit", "repro.engine.vector", "VectorEngine.new_flit", True, None),
    ("engine.inject", "repro.engine.vector", "VectorEngine.inject_queues", True,
     "inject_queues"),
    ("engine.inject", "repro.engine.vector", "VectorStageNetwork.try_inject", True,
     "try_inject"),
    ("workloads.arrivals", "repro.workloads.injection", "PoissonInjector.arrivals_batch",
     True, None),
    ("workloads.destinations", "repro.workloads.base", "DestinationPattern.destinations",
     True, "destinations"),
    ("traffic.driver", "repro.traffic.simulation", "TrafficSimulation.run", False, None),
    ("core.step", "repro.core.coremodel", "CoreTimingModel.step", True, None),
    ("core.on_response", "repro.core.coremodel", "CoreTimingModel.on_response", True, None),
    ("core.system", "repro.core.system", "MemPoolSystem.run", False, None),
    ("kernels.stage", "repro.kernels.matmul", "MatmulKernel.__init__", False, None),
    ("kernels.stage", "repro.kernels.conv2d", "Conv2dKernel.__init__", False, None),
    ("kernels.stage", "repro.kernels.dct", "DctKernel.__init__", False, None),
    ("kernels.stage", "repro.kernels.runtime", "Kernel.agents", False, None),
    ("kernels.verify", "repro.kernels.matmul", "MatmulKernel.result", False, None),
    ("kernels.verify", "repro.kernels.matmul", "MatmulKernel.reference", False, None),
    ("kernels.verify", "repro.kernels.conv2d", "Conv2dKernel.result", False, None),
    ("kernels.verify", "repro.kernels.conv2d", "Conv2dKernel.reference", False, None),
    ("kernels.verify", "repro.kernels.dct", "DctKernel.result", False, None),
    ("kernels.verify", "repro.kernels.dct", "DctKernel.reference", False, None),
    ("experiments.spec_key", "repro.experiments.spec", "ExperimentSpec.key", False, None),
    ("experiments.cache_get", "repro.experiments.cache", "ResultCache.get", False,
     "cache_get"),
    ("experiments.cache_put", "repro.experiments.cache", "ResultCache.put", False, None),
    ("experiments.executor", "repro.experiments.executor", "Executor.run", False, None),
    ("experiments.point", "repro.experiments.executor", "execute_spec", False, None),
)

#: Spans that are not layers: their self time is the unattributed remainder.
NOT_LAYERS = ("experiments.point", "run.cold", "run.warm")


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every target so its calls land in ``recorder``; return the undo."""
    observers = _make_observers(recorder)
    restore = []
    for name, module_name, attribute, hot, observer in TARGETS:
        owner = importlib.import_module(module_name)
        owner_name, _, member = attribute.rpartition(".")
        if owner_name:
            owner = getattr(owner, owner_name)
        original = vars(owner)[member]
        before, after = observers[observer] if observer else (None, None)
        if isinstance(original, functools.cached_property):
            replacement = functools.cached_property(
                recorder.wrap(name, original.func, hot, before, after)
            )
            replacement.__set_name__(owner, member)
        else:
            replacement = recorder.wrap(
                name, original, hot, before, after,
                point=(name == "experiments.point"),
            )
        setattr(owner, member, replacement)
        restore.append((owner, member, original))

    def uninstall() -> None:
        for owner, member, original in reversed(restore):
            setattr(owner, member, original)

    return uninstall


#: Per-layer metric -> (unit, better); the order is the report order.
PER_LAYER = {
    "topologies.build_s": ("s", "lower"),
    "topologies.build_calls": ("count", "lower"),
    "core.cluster_build_s": ("s", "lower"),
    "engine.compile_s": ("s", "lower"),
    "engine.path_compile_s": ("s", "lower"),
    "engine.path_compile_calls": ("count", "lower"),
    "engine.advance_s": ("s", "lower"),
    "engine.advance_calls": ("count", "lower"),
    "engine.new_flit_s": ("s", "lower"),
    "engine.new_flit_calls": ("count", "lower"),
    "engine.inject_s": ("s", "lower"),
    "engine.inject_calls": ("count", "lower"),
    "engine.inject_accept_ratio": ("ratio", "none"),
    "workloads.arrivals_s": ("s", "lower"),
    "workloads.destinations_s": ("s", "lower"),
    "workloads.requests": ("count", "none"),
    "traffic.driver_self_s": ("s", "lower"),
    "core.step_s": ("s", "lower"),
    "core.step_calls": ("count", "lower"),
    "core.on_response_s": ("s", "lower"),
    "core.on_response_calls": ("count", "lower"),
    "core.system_self_s": ("s", "lower"),
    "kernels.stage_s": ("s", "lower"),
    "kernels.verify_s": ("s", "lower"),
    "experiments.spec_key_s": ("s", "lower"),
    "experiments.cache_get_s": ("s", "lower"),
    "experiments.cache_put_s": ("s", "lower"),
    "experiments.cache_hit_ratio": ("ratio", "higher"),
    "experiments.executor_self_s": ("s", "lower"),
    "evaluation.assemble_s": ("s", "lower"),
    "evaluation.report_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.traced_wall_s": ("s", "lower"),
}

#: Per-layer metrics left out of the result line, though printed with the
#: rest.  One rule covers times and counts alike: a metric of a layer that
#: only some workloads run reads exactly 0 on the others, which measures
#: nothing there.  The last two are model output, which a change of speed
#: must leave as it is, so no direction is better for them.
PRINTED_ONLY = (
    "engine.new_flit_s",
    "engine.new_flit_calls",
    "workloads.arrivals_s",
    "workloads.destinations_s",
    "traffic.driver_self_s",
    "core.step_s",
    "core.step_calls",
    "core.on_response_s",
    "core.on_response_calls",
    "core.system_self_s",
    "kernels.stage_s",
    "kernels.verify_s",
    "workloads.requests",
    "engine.inject_accept_ratio",
)
#: The per-layer metrics of the result line (``per_layer`` in BENCHMARK.json).
RESULT_LINE = {name: kind for name, kind in PER_LAYER.items() if name not in PRINTED_ONLY}


def _ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    recorder: SpanRecorder, traced_wall_s: float, untraced_wall_s: float
) -> dict[str, float]:
    """The :data:`PER_LAYER` values of one traced run.

    Times are self times summed over the traced cold run and the warm
    re-run that follows it; ``trace.overhead_s`` compares the traced cold
    run with an untraced one of the same workload and seed.
    """
    self_s = recorder.self_time
    calls = recorder.calls
    counters = recorder.counters
    values = {}
    for span in (
        "topologies.build", "engine.path_compile", "engine.advance",
        "engine.new_flit", "engine.inject", "core.step", "core.on_response",
    ):
        values[f"{span}_s"] = self_s(span)
        values[f"{span}_calls"] = calls(span)
    for span in (
        "core.cluster_build", "engine.compile", "workloads.arrivals",
        "workloads.destinations", "kernels.stage", "kernels.verify",
        "experiments.spec_key", "experiments.cache_get", "experiments.cache_put",
        "evaluation.assemble", "evaluation.report",
    ):
        values[f"{span}_s"] = self_s(span)
    for span in ("traffic.driver", "core.system", "experiments.executor"):
        values[f"{span}_self_s"] = self_s(span)
    values["engine.inject_accept_ratio"] = _ratio(
        counters.get("engine.inject.accepted", 0),
        counters.get("engine.inject.attempts", 0),
    )
    values["workloads.requests"] = counters.get("workloads.requests", 0)
    values["experiments.cache_hit_ratio"] = _ratio(
        counters.get("experiments.cache.hits", 0),
        counters.get("experiments.cache.gets", 0),
    )
    values["trace.unattributed_s"] = self_s(*NOT_LAYERS)
    values["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    values["trace.traced_wall_s"] = traced_wall_s
    return {name: values[name] for name in PER_LAYER}
