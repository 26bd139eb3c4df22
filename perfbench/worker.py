"""One measured process of the benchmark (started by ``perfbench/run.py``).

Modes, each printing one JSON object as its last line of output:

``setup``
    Import ``repro`` and build the workload's specs; report ``setup_s``.
``measure``
    Set up, then run the workload cold once (every point computed and
    stored in a fresh ``ResultCache``) and re-run it warm against that
    cache.  With ``--trace`` the ``repro`` layers are wrapped first.

Every time is reported twice: as the host measured it, and scaled to the
reference host speed by the ticks :mod:`perfbench.hostspeed` takes while
the process runs (except in a traced run, which takes no ticks).
``oracle``
    Run the workload's points on the ``legacy`` engine through a serial
    executor whose ``ResultCache`` lives under ``perfbench/_runs/oracle``,
    and report their digests.  The cache keys hold the ``repro`` sources'
    fingerprint, so a legacy result is reused only while the sources that
    made it stay unchanged.

Every mode runs in one process on a serial ``Executor(workers=1)``.
"""

import time

_STARTED = time.perf_counter()

from perfbench.hostspeed import MIN_WINDOW_S, HostSpeed, tick_work  # noqa: E402

#: Started by main(), so importing this module starts no timer.
SPEED = HostSpeed()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from perfbench import workloads  # noqa: E402
from perfbench.spans import SpanRecorder, no_span  # noqa: E402

ORACLE_CACHE = Path(__file__).resolve().parent / "_runs" / "oracle"
#: Warm re-runs after the cold run; the median is reported.
WARM_RUNS = 10


def _run_points(executor, specs, on_point):
    """Run ``specs`` through ``executor``, surviving points that raise.

    Returns ``(results, errors)``; a raising point leaves ``None`` in its
    slot and its message in ``errors`` (keyed by index), and the sweep
    continues with the points after it.  ``on_point()`` is called once per
    finished or failed point.
    """
    results = [None] * len(specs)
    errors = {}
    pending = list(range(len(specs)))
    while pending:
        done = []

        def progress(spec, value, done=done):
            done.append(value)
            on_point()

        try:
            outputs = executor.run([specs[index] for index in pending], progress=progress)
        except Exception as error:  # a failing point is counted, not fatal
            on_point()
            for index, value in zip(pending, done):
                results[index] = value
            errors[pending[len(done)]] = f"{type(error).__name__}: {error}"
            pending = pending[len(done) + 1:]
            continue
        for index, value in zip(pending, outputs):
            results[index] = value
        pending = []
    return results, errors


def _sweep(workload, specs, cache_dir, span, root):
    """One run of the workload: points through the executor, assemble, report.

    Returns the run's window and the window of each point on the
    :meth:`HostSpeed.now` clock, with the results.
    """
    from repro.experiments import Executor, ResultCache

    executor = Executor(workers=1, cache=ResultCache(cache_dir))
    started = SPEED.now()
    marks = [started]
    with span(root):
        results, errors = _run_points(executor, specs, lambda: marks.append(SPEED.now()))
        figure = None
        if not errors:
            with span("evaluation.assemble"):
                figure = workloads.assemble(workload, specs, results)
            with span("evaluation.report"):
                figure.report()
    return {
        "window": (started, SPEED.now()),
        "points": list(zip(marks, marks[1:])),
        "results": results,
        "errors": errors,
        "figure": figure,
        "hits": executor.last_report.cache_hits,
    }


def _times(window) -> tuple[float, float]:
    """Host seconds of a window and its seconds at the reference host speed."""
    return window[1] - window[0], SPEED.scaled(*window)


def _digests(results):
    return [None if result is None else workloads.digest(result) for result in results]


def measure(args) -> dict:
    """The ``measure`` mode; see the module docstring."""
    specs = workloads.build_specs(args.workload, args.seed)
    setup = (_STARTED, SPEED.now())

    recorder = SpanRecorder() if args.trace else None
    span = recorder.span if recorder else no_span
    uninstall = None
    if recorder:
        SPEED.stop()
        from perfbench.instrument import install

        uninstall = install(recorder)

    cache_dir = Path(args.cache_dir)
    cold = _sweep(args.workload, specs, cache_dir, span, "run.cold")
    digests = _digests(cold["results"])
    warm = []
    for _ in range(1 if recorder else WARM_RUNS):
        warm_specs = workloads.build_specs(args.workload, args.seed)
        warm.append(_sweep(args.workload, warm_specs, cache_dir, span, "run.warm"))
    warm_consistent = all(
        run["hits"] == len(specs) and _digests(run["results"]) == digests for run in warm
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    SPEED.stop()

    host_wall_s, wall_s = _times(cold["window"])
    warm_times = [_times(run["window"]) for run in warm]
    completed = [result for result in cold["results"] if result is not None]
    outcome = {
        "setup": _times(setup),
        "host_wall_s": host_wall_s,
        "wall_s": wall_s,
        "point_max_s": max((_times(point)[1] for point in cold["points"]), default=0.0),
        "host_warm_s": statistics.median(host for host, _ in warm_times),
        "warm_s": statistics.median(scaled for _, scaled in warm_times),
        "host_speed": wall_s / host_wall_s,
        "ticks": len(SPEED.ticks),
        "peak_rss_mb": peak_rss_mb,
        "labels": [workloads.label(spec) for spec in specs],
        "digests": digests,
        "errors": {workloads.label(specs[i]): message for i, message in cold["errors"].items()},
        "unverified": workloads.failed_verification(completed),
        "warm_consistent": warm_consistent,
        "sim_cycles": workloads.simulated_cycles(
            [spec for spec, result in zip(specs, cold["results"]) if result is not None],
            completed,
        ),
        "fidelity": (
            workloads.fidelity(args.workload, cold["figure"]) if cold["figure"] else []
        ),
    }
    if recorder:
        uninstall()
        from perfbench.instrument import per_layer_metrics

        outcome["layers"] = per_layer_metrics(
            recorder, outcome["host_wall_s"], args.untraced_wall_s
        )
        outcome["totals"] = recorder.as_json()["totals"]
        Path(args.spans_out).write_text(json.dumps(recorder.as_json()))
    return outcome


def setup(args) -> dict:
    """The ``setup`` mode; see the module docstring."""
    workloads.build_specs(args.workload, args.seed)
    window = (_STARTED, SPEED.now())
    # Keep the host busy with reference work until the set-up window,
    # widened as HostSpeed.scaled widens it, holds its ticks.
    while SPEED.now() < window[0] + MIN_WINDOW_S:
        tick_work()
    SPEED.stop()
    return {"setup": _times(window)}


def oracle(args) -> dict:
    """The ``oracle`` mode: legacy-engine digests by point label."""
    from repro.experiments import Executor, ResultCache

    SPEED.stop()
    specs = workloads.build_specs(args.workload, args.seed, engine="legacy")
    if args.points:
        specs = [specs[int(index)] for index in args.points.split(",")]
    executor = Executor(workers=1, cache=ResultCache(ORACLE_CACHE))
    results, errors = _run_points(executor, specs, lambda: None)
    return {
        "digests": {
            workloads.label(spec): workloads.digest(result)
            for spec, result in zip(specs, results)
            if result is not None
        },
        "errors": {workloads.label(specs[i]): message for i, message in errors.items()},
    }


def main(argv=None) -> int:
    SPEED.start()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "oracle"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir", help="a fresh result cache (measure mode)")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--untraced-wall-s", type=float, default=0.0)
    parser.add_argument("--spans-out")
    parser.add_argument("--points", help="comma-separated point indices (oracle mode)")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        outcome = setup(args)
    elif args.mode == "measure":
        outcome = measure(args)
    else:
        outcome = oracle(args)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
