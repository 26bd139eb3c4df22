#!/usr/bin/env python
"""Diff the current engine benchmarks against the committed baseline.

``benchmarks/test_perf_engine.py`` writes ``BENCH_engine.json`` with the
measured legacy-vs-vector transport speedup;
``benchmarks/BENCH_engine.baseline.json`` is the committed reference.
Current results are read from ``BENCH_OUT_DIR`` — the gitignored
``benchmarks/_out/`` when unset, where the benchmarks write by default —
so ``BENCH_OUT_DIR=benchmarks`` reports on the committed snapshots
instead.  This tool compares the two and fails (exit code 1) when a
measured *speedup* regressed by more than the threshold (default 20 %).

The comparison is on the speedup ratio, not on raw cycles/sec: absolute
throughput varies with the host machine, but the legacy engine runs on the
same machine in the same process, so the ratio is the portable signal.
Raw cycles/sec of both engines are reported for context.

A missing current-results file is not an error — the benchmark simply has
not run yet — so the Makefile can wire this report into the ``test`` flow
as a non-fatal step::

    python tools/bench_report.py                # report + regression gate
    python tools/bench_report.py --threshold 0.1
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
#: Where the benchmark modules write when ``BENCH_OUT_DIR`` is unset
#: (``benchmarks/conftest.py``); gitignored, so test runs leave the tree clean.
DEFAULT_OUT_DIR = BENCH_DIR / "_out"
#: Current results follow ``BENCH_OUT_DIR`` like the benchmark modules do;
#: baselines always come from the committed tree.
CURRENT_DIR = Path(os.environ.get("BENCH_OUT_DIR") or DEFAULT_OUT_DIR)
DEFAULT_CURRENT = CURRENT_DIR / "BENCH_engine.json"
DEFAULT_BASELINE = BENCH_DIR / "BENCH_engine.baseline.json"
EXPERIMENTS_CURRENT = CURRENT_DIR / "BENCH_experiments.json"
EXPERIMENTS_BASELINE = BENCH_DIR / "BENCH_experiments.baseline.json"


def load_result(path: Path) -> dict | None:
    """Load one benchmark JSON file, or None when it does not exist."""
    if not path.exists():
        return None
    return json.loads(path.read_text())


def compare(current: dict, baseline: dict, threshold: float) -> tuple[bool, str]:
    """Compare two benchmark results.

    Returns ``(ok, report)`` where ``ok`` is False when the current
    speedup fell more than ``threshold`` (a fraction) below the baseline.
    """
    current_speedup = current["speedup"]
    baseline_speedup = baseline["speedup"]
    floor = baseline_speedup * (1.0 - threshold)
    ok = current_speedup >= floor
    lines = [
        f"engine benchmark: {current.get('benchmark', 'unknown workload')}",
        f"  advance speedup : {current_speedup:.2f}x "
        f"(baseline {baseline_speedup:.2f}x, regression floor {floor:.2f}x)",
        f"  end-to-end      : {current.get('end_to_end_speedup', 0):.2f}x "
        f"(baseline {baseline.get('end_to_end_speedup', 0):.2f}x)",
    ]
    for engine in ("legacy", "vector"):
        cur = current.get(engine, {})
        base = baseline.get(engine, {})
        lines.append(
            f"  {engine:<6} advance : "
            f"{cur.get('advance_cycles_per_sec', 0):>8} cycles/s "
            f"(baseline {base.get('advance_cycles_per_sec', 0)}; "
            "machine-dependent, informational)"
        )
    lines.append(
        "  verdict         : "
        + ("OK" if ok else f"REGRESSION (> {threshold:.0%} below baseline)")
    )
    return ok, "\n".join(lines)


def topologies_report(
    current: dict, baseline: dict | None, threshold: float
) -> tuple[bool, str] | None:
    """Per-topology engine-speedup report and gate, or None when never run.

    ``benchmarks/test_perf_topologies.py`` merges a ``"topologies"``
    section into the current results file (one entry per gated family,
    e.g. mesh and torus).  Like the engine comparison, the gated signal is
    each family's legacy-vs-vector advance *speedup ratio*, compared
    against the committed baseline's entry for the same family when one
    exists; families without a baseline entry are informational.
    """
    section = current.get("topologies")
    if not section:
        return None
    base_section = (baseline or {}).get("topologies") or {}
    lines = [f"topology benchmark: {section.get('benchmark', 'topology sweep')}"]
    ok = True
    for name in sorted(section):
        if name == "benchmark":
            continue
        entry = section[name]
        speedup = entry.get("speedup", 0.0)
        detail = (
            f"  {name:<8} advance : {speedup:.2f}x vector speedup "
            f"(compile {entry.get('compile_seconds', 0)}s)"
        )
        base_entry = base_section.get(name)
        if base_entry and base_entry.get("speedup"):
            base_speedup = base_entry["speedup"]
            floor = base_speedup * (1.0 - threshold)
            entry_ok = speedup >= floor
            ok = ok and entry_ok
            detail += (
                f" — {'OK' if entry_ok else 'REGRESSION'} "
                f"(baseline {base_speedup:.2f}x, floor {floor:.2f}x)"
            )
        else:
            detail += " — no committed baseline (informational)"
        lines.append(detail)
    return ok, "\n".join(lines)


def distributed_report(
    current: dict | None, baseline: dict | None, threshold: float
) -> tuple[bool, str] | None:
    """Distributed-scaling report and gate, or None when never benchmarked.

    ``benchmarks/test_perf_distributed.py`` writes a ``"distributed"``
    section into ``BENCH_experiments.json`` with the 4-local-workers-vs-1
    wall-clock ratio of a cold-cache sweep and the core count it was
    measured on.  The gate is **cpu-aware**: parallel speedup is bounded
    by the host's core count, so the ratio is only compared against the
    committed baseline when both runs had the same number of cpus — a
    1-core smoke container legitimately measures ~1x and must never be
    gated against a 4-core baseline, or vice versa.
    """
    section = (current or {}).get("distributed")
    if not section:
        return None
    speedup = section.get("speedup_4v1", 0.0)
    cpus = section.get("cpus", 0)
    workers = section.get("workers", 4)
    lines = [
        f"distributed benchmark: {section.get('benchmark', 'scaling sweep')}",
        f"  fleet speedup   : {speedup:.2f}x on {workers} workers / {cpus} cpus "
        f"({section.get('serial_seconds', 0)}s -> "
        f"{section.get('fleet_seconds', 0)}s, "
        f"{section.get('points', 0)} points)",
    ]
    ok = True
    base_section = (baseline or {}).get("distributed")
    if base_section and base_section.get("speedup_4v1"):
        if base_section.get("cpus") != cpus:
            lines.append(
                f"  verdict         : cpu count differs from baseline "
                f"({base_section.get('cpus')} cpus) — not comparable, "
                "informational"
            )
        else:
            base_speedup = base_section["speedup_4v1"]
            floor = base_speedup * (1.0 - threshold)
            ok = speedup >= floor
            lines.append(
                "  verdict         : "
                + (
                    f"OK (baseline {base_speedup:.2f}x, floor {floor:.2f}x)"
                    if ok
                    else f"REGRESSION (> {threshold:.0%} below baseline "
                    f"{base_speedup:.2f}x)"
                )
            )
    else:
        lines.append(
            "  verdict         : no committed distributed baseline (informational)"
        )
    return ok, "\n".join(lines)


def workloads_report(current: dict) -> str | None:
    """Per-pattern dispatch-overhead report, or None when never benchmarked.

    ``benchmarks/test_perf_workloads.py`` appends a ``"workloads"`` section
    to the current results file; this prints each pattern's simulated
    cycles/sec relative to the ``uniform`` pattern on the same host (the
    machine-portable signal).  Informational: pattern cost legitimately
    varies with the congestion each pattern creates, so there is no
    regression gate here — the gate is the engine speedup above.
    """
    section = current.get("workloads")
    if not section:
        return None
    patterns = section.get("patterns", {})
    if not patterns:
        return None
    uniform = patterns.get("uniform", {}).get("cycles_per_sec", 0)
    lines = [f"workload benchmark: {section.get('benchmark', 'pattern sweep')}"]
    for name in sorted(patterns):
        metrics = patterns[name]
        rate = metrics.get("cycles_per_sec", 0)
        relative = f"{rate / uniform:5.2f}x uniform" if uniform else "     n/a"
        lines.append(
            f"  {name:<16}: {rate:>8} cycles/s ({relative}, "
            f"throughput {metrics.get('throughput', 0):.3f})"
        )
    return "\n".join(lines)


def validation_report(report_path: Path) -> str | None:
    """Summary of the last golden-band validation run, or None when absent.

    ``python -m repro.experiments validate`` (``make validate``) writes
    ``benchmarks/VALIDATION_report.json``; this section surfaces its
    verdict next to the perf numbers.  Informational here: the validate
    command itself is the gate (it exits 1 on a reject verdict), this
    report never re-fails an already-gated run.
    """
    document = load_result(report_path)
    if document is None:
        return None
    rows = document.get("rows", [])
    flagged = [row for row in rows if row.get("severity") != "ok"]
    lines = [
        f"golden validation : {len(rows)} metric rows, "
        f"worst severity {document.get('worst', '?').upper()}, "
        f"verdict {document.get('verdict', '?')}"
    ]
    for row in flagged:
        lines.append(
            f"  {row['case']:<24} {row['metric']:<16} "
            f"deviation {100.0 * row['deviation']:.2f}% "
            f"-> {row['severity'].upper()} ({row['action']})"
        )
    if not flagged:
        lines.append("  every metric matches its committed golden exactly")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--current", type=Path, default=DEFAULT_CURRENT,
        help=f"current results (default: {DEFAULT_CURRENT})",
    )
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE,
        help=f"committed baseline (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.2,
        help="allowed fractional speedup regression (default: 0.2)",
    )
    args = parser.parse_args(argv)

    current = load_result(args.current)
    if current is None:
        print(
            f"bench_report: no current results at {args.current} "
            "(run `make bench-engine` to produce them); nothing to compare"
        )
        return 0
    baseline = load_result(args.baseline)
    if baseline is None:
        print(f"bench_report: no committed baseline at {args.baseline}")
        return 1
    if "speedup" in current:
        ok, report = compare(current, baseline, args.threshold)
        print(report)
    else:
        # Only the secondary sweeps have run so far; nothing to gate on.
        ok = True
        print(
            "bench_report: current results carry no engine speedup yet "
            "(run `make bench-engine` for the legacy-vs-vector comparison)"
        )
    topologies = topologies_report(current, baseline, args.threshold)
    if topologies:
        topologies_ok, report = topologies
        ok = ok and topologies_ok
        print(report)
    workloads = workloads_report(current)
    if workloads:
        print(workloads)
    distributed = distributed_report(
        load_result(EXPERIMENTS_CURRENT),
        load_result(EXPERIMENTS_BASELINE),
        args.threshold,
    )
    if distributed:
        distributed_ok, report = distributed
        ok = ok and distributed_ok
        print(report)
    validation = validation_report(BENCH_DIR / "VALIDATION_report.json")
    if validation:
        print(validation)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
