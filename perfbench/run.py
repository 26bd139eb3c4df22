"""Repository benchmark: wall-clock of the paper's sweeps, checked against the oracle.

Usage (from the repository root)::

    python3 perfbench/run.py --workload traffic_sweep --seed 0 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  ``--seconds`` fixes how many cold runs are
measured (:func:`perfbench.workloads.cold_runs`).  Every number is
produced in child processes (``perfbench/worker.py``) started one after
another, so one process at a time runs simulation code.  End-to-end
times are scaled to the reference host speed (``perfbench/hostspeed.py``).  Each run checks every point against the
``legacy`` engine (the oracle) and prints, as its last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--pin-oracle`` recomputes the pinned oracle digests of
the default seed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
ORACLE_FILE = BENCH / "oracle_digests.json"
RUNS_DIR = BENCH / "_runs"
#: Every run must finish within this many seconds, children included.
DEADLINE_S = 170.0
#: Set-up samples per run: one from each cold-run process, the rest from
#: processes that only set up.
SETUP_SAMPLES = 5
DEFAULT_SEED = 0

#: The end-to-end metrics of the result line (``end_to_end`` in BENCHMARK.json).
END_TO_END = {
    "wall_s": "s",
    "sim_cycles_per_s": "cycles/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Printed beside them but kept out of the result line.  ``point_max_s`` is
#: one point's time, and the host's speed changes within a point faster
#: than the ticks follow it; ``warm_s`` is tens of milliseconds of file
#: system calls, which the ticks do not speak for.  Both spread by 10-25 %
#: from run to run.  ``failed_points_ratio`` reads 0 on a healthy tree and
#: reaches the result line as ``failed`` and ``correct``.
REPORTED = {
    "point_max_s": "s",
    "warm_s": "s",
    "failed_points_ratio": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing sources, crashed child)."""


def _child_env() -> dict:
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(("MEMPOOL_", "REPRO_"))
    }
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(deadline: float, *args: str) -> dict:
    """Run ``perfbench.worker`` with ``args``; return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise BenchError("out of time before starting " + " ".join(args[:1]))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "perfbench.worker", *args],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"worker {args[0]} timed out") from error
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(
            f"worker {args[0]} exited with {done.returncode}:\n{done.stderr[-3000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def header(args) -> list[str]:
    """Which host and backend produced the numbers."""
    import numpy

    numba = "yes" if importlib.util.find_spec("numba") else "no"
    affinity = len(os.sched_getaffinity(0))
    return [
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}",
        f"host: {platform.machine()} python {platform.python_version()}, "
        f"numpy {numpy.__version__}, nproc {affinity} (cpu_count {os.cpu_count()}), "
        f"numba importable: {numba}",
        "load model: one process at a time, serial Executor(workers=1), "
        "engine=vector; oracle: engine=legacy",
    ]


def _legacy_digests(workload: str, seed: int, deadline: float, points: str = "") -> dict:
    """Legacy-engine digests of a workload's points (cached while the sources hold)."""
    args = ["oracle", "--workload", workload, "--seed", str(seed)]
    return _child(deadline, *(args + (["--points", points] if points else [])))


def _expected_digests(workload: str, seed: int, labels: list, deadline: float):
    """Oracle digests by label, a note on their source, and the oracle's errors.

    The default seed's digests are pinned in ``oracle_digests.json``.  The
    kernels' schedules do not depend on their input data, so their pinned
    digests hold for every seed; one point per run (chosen by the seed) is
    re-run on the legacy engine to keep that claim checked.  Traffic
    digests of any other seed come from a legacy run of the same tree.
    """
    pinned = json.loads(ORACLE_FILE.read_text()) if ORACLE_FILE.exists() else {}
    entry = pinned.get(workload)
    if workload == "kernels" and entry:
        index = seed % len(labels)
        live = _legacy_digests(workload, seed, deadline, points=str(index))
        expected = dict(entry["points"])
        spot = labels[index]
        stale = live["digests"].get(spot) != expected.get(spot)
        if stale:
            expected[spot] = live["digests"].get(spot)
        note = (f"pinned (seed-independent), live legacy spot check of {spot}: "
                f"{'MISMATCH with pin' if stale else 'agrees with pin'}")
        return expected, note, live["errors"]
    if entry and entry["seed"] == seed:
        return dict(entry["points"]), f"pinned for seed {seed}", {}
    live = _legacy_digests(workload, seed, deadline)
    return live["digests"], "legacy run", live["errors"]


def check(outcome: dict, workload: str, seed: int, deadline: float) -> tuple[list, list]:
    """Failed point labels of a measured run, and report lines on the check."""
    from perfbench.workloads import mismatches

    expected, source, oracle_errors = _expected_digests(
        workload, seed, outcome["labels"], deadline
    )
    failed = mismatches(outcome["labels"], outcome["digests"], expected, outcome["errors"])
    lines = [f"oracle: {source}; {len(outcome['labels']) - len(failed)}/"
             f"{len(outcome['labels'])} points match"]
    for label, message in sorted({**oracle_errors, **outcome["errors"]}.items()):
        lines.append(f"  error at {label}: {message}")
    for label in sorted(set(failed) - set(outcome["errors"])):
        lines.append(f"  mismatch at {label}")
    if outcome["unverified"]:
        lines.append(f"  {outcome['unverified']} kernel point(s) failed verification")
    return failed, lines


def _number(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def _consistency_lines(outcomes: list) -> tuple[bool, list[str]]:
    """Whether repeated runs agreed, and report lines if they did not."""
    lines = []
    if any(outcome["digests"] != outcomes[0]["digests"] for outcome in outcomes[1:]):
        lines.append("  repeated cold runs gave different results")
    if not all(outcome["warm_consistent"] for outcome in outcomes):
        lines.append("  a warm re-run did not serve identical results from the cache")
    return not lines, lines


def end_to_end(args, deadline: float, scratch: Path) -> tuple[dict, list[str]]:
    """Measure the end-to-end metrics of one workload run."""
    from perfbench.workloads import cold_runs

    common = ("--workload", args.workload, "--seed", str(args.seed))
    count = cold_runs(args.workload, args.seconds)
    # Each cold run gets a fresh interpreter and a fresh cache.  Processes
    # that only set up fill the set-up samples, one of them between the
    # cold runs and the oracle check, so the samples spread over the run.
    outcomes = [
        _child(deadline, "measure", *common, "--cache-dir", str(scratch / f"cold{index}"))
        for index in range(count)
    ]
    setups = [_child(deadline, "setup", *common)]
    failed, lines = check(outcomes[0], args.workload, args.seed, deadline)
    setups += [_child(deadline, "setup", *common) for _ in range(SETUP_SAMPLES - count - 1)]
    consistent, consistency = _consistency_lines(outcomes)
    lines += consistency

    def median(key):
        return statistics.median(outcome[key] for outcome in outcomes)

    wall = median("wall_s")
    values = {
        "wall_s": wall,
        "sim_cycles_per_s": outcomes[0]["sim_cycles"] / wall,
        "point_max_s": median("point_max_s"),
        "warm_s": median("warm_s"),
        "setup_s": statistics.median(sample["setup"][1] for sample in outcomes + setups),
        "peak_rss_mb": median("peak_rss_mb"),
    }
    attempted = len(outcomes[0]["labels"])
    values["failed_points_ratio"] = len(failed) / attempted
    host_setup = statistics.median(sample["setup"][0] for sample in outcomes + setups)
    lines += [
        f"{count} cold run(s) in fresh processes, {len(outcomes) + len(setups)} set-ups; "
        f"{outcomes[0]['sim_cycles']} simulated cycles per run",
        f"host speed during the cold run: {median('host_speed'):.3f} x the reference host "
        f"({median('ticks')} ticks); host times as measured: "
        f"wall {median('host_wall_s'):.4g} s, warm {median('host_warm_s'):.4g} s, "
        f"set-up {host_setup:.4g} s",
        "end-to-end metrics (times scaled to the reference host speed):",
    ]
    for name, unit in END_TO_END.items():
        lines.append(f"  {name:<20} {_number(values[name]):>14} {unit}")
    lines.append("reported, not in the result line:")
    for name, unit in REPORTED.items():
        lines.append(f"  {name:<20} {_number(values[name]):>14} {unit}")
    lines.append("fidelity (informational; the model is checked against the paper's "
                 "figures, not against silicon):")
    lines += [f"  {line}" for line in outcomes[0]["fidelity"]] or ["  (none for this workload)"]
    result = {
        "correct": not failed and consistent,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in END_TO_END.items()},
    }
    return result, lines


def per_layer(args, deadline: float, scratch: Path) -> tuple[dict, list[str]]:
    """Measure the per-layer metrics of one traced workload run."""
    from perfbench.instrument import PER_LAYER, RESULT_LINE

    common = ("--workload", args.workload, "--seed", str(args.seed))
    untraced = _child(deadline, "measure", *common, "--cache-dir", str(scratch / "untraced"))
    spans_out = RUNS_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    traced = _child(deadline, "measure", *common, "--trace",
                    "--untraced-wall-s", str(untraced["host_wall_s"]),
                    "--cache-dir", str(scratch / "traced"), "--spans-out", str(spans_out))
    failed, lines = check(traced, args.workload, args.seed, deadline)
    consistent, consistency = _consistency_lines([traced, untraced])
    lines += consistency
    if not consistent:
        failed = sorted(set(failed) | {
            label for label, a, b in
            zip(traced["labels"], untraced["digests"], traced["digests"]) if a != b
        })
    layers = traced["layers"]
    traced_total = sum(entry["self_s"] for entry in traced["totals"].values())
    lines.append(
        f"traced run (one cold + one warm run): {traced_total:.3f} s in spans; "
        f"cold run {layers['trace.traced_wall_s']:.3f} s traced vs "
        f"{untraced['host_wall_s']:.3f} s untraced (host times)"
    )
    lines.append(f"  {'span':<24} {'self s':>10} {'calls':>10} {'share':>7}")
    for name, entry in sorted(traced["totals"].items(), key=lambda item: -item[1]["self_s"]):
        share = entry["self_s"] / traced_total if traced_total else 0.0
        lines.append(f"  {name:<24} {entry['self_s']:>10.4f} {entry['calls']:>10} "
                     f"{share:>6.1%}")
    lines.append("per-layer metrics (* printed only: not measured on every workload, "
                 "or model output):")
    for name, (unit, _) in PER_LAYER.items():
        mark = " " if name in RESULT_LINE else "*"
        lines.append(f" {mark}{name:<30} {_number(layers[name]):>14} {unit}")
    lines.append(f"spans written to {spans_out.relative_to(ROOT)}")
    result = {
        "correct": not failed and consistent,
        "attempted": len(traced["labels"]),
        "failed": len(failed),
        "metrics": {name: {"value": layers[name], "unit": unit}
                    for name, (unit, _) in RESULT_LINE.items()},
    }
    return result, lines


def pin_oracle(deadline: float) -> None:
    """Recompute ``oracle_digests.json`` from legacy runs of the default seed."""
    from perfbench.workloads import WORKLOADS

    pinned = {"note": "legacy-engine digests of the default seed; kernel digests "
                      "hold for every seed (data-independent schedules)"}
    for workload in WORKLOADS:
        live = _child(deadline, "oracle", "--workload", workload, "--seed", str(DEFAULT_SEED))
        if live["errors"]:
            raise BenchError(f"legacy run of {workload} raised: {live['errors']}")
        pinned[workload] = {"seed": DEFAULT_SEED, "points": live["digests"]}
    ORACLE_FILE.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {ORACLE_FILE.relative_to(ROOT)}")


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin-oracle", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + (3000.0 if args.pin_oracle else DEADLINE_S)
    if args.pin_oracle:
        pin_oracle(deadline)
        return 0
    if not args.workload:
        parser.error("--workload is required")
    # Byte-compile up front, so no measured process pays for compilation.
    for tree in (ROOT / "src" / "repro", BENCH):
        compileall.compile_dir(tree, quiet=1)
    RUNS_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS_DIR))
    try:
        for line in header(args):
            print(line, flush=True)
        measure = per_layer if args.trace else end_to_end
        result, lines = measure(args, deadline, scratch)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
