"""The oracle check catches a perturbed result, and the pinned digests hold."""

import dataclasses
import json
from pathlib import Path

from perfbench import workloads


def _traffic_point(engine="vector"):
    from repro.evaluation.fig5 import simulate_fig5_point

    return simulate_fig5_point(
        topology="top1", load=0.1, engine=engine, warmup_cycles=20, measure_cycles=40
    )


def test_every_traffic_field_is_in_the_digest():
    result = _traffic_point()
    reference = workloads.digest(result)
    assert workloads.digest(_traffic_point(engine="legacy")) == reference
    for field in dataclasses.fields(result):
        value = getattr(result, field.name)
        if isinstance(value, bool) or value is None:
            continue
        if isinstance(value, str):
            changed = value + "x"
        elif isinstance(value, float):
            changed = value + abs(value) * 1e-15 + 1e-300
        else:
            changed = value + 1
        perturbed = dataclasses.replace(result, **{field.name: changed})
        assert workloads.digest(perturbed) != reference, field.name


def test_perturbed_point_counts_as_failed():
    result = _traffic_point()
    labels = ["top1@0.1", "top1@0.2"]
    expected = {label: workloads.digest(result) for label in labels}
    perturbed = dataclasses.replace(result, completed_requests=result.completed_requests + 1)
    digests = [workloads.digest(result), workloads.digest(perturbed)]
    assert workloads.mismatches(labels, digests, expected, {}) == ["top1@0.2"]
    assert workloads.mismatches(labels, [digests[0], None], expected, {}) == ["top1@0.2"]
    errors = {"top1@0.1": "RuntimeError: boom"}
    assert workloads.mismatches(labels, [None, digests[0]], expected, errors) == ["top1@0.1"]


def test_failed_kernel_verification_is_caught_by_the_pinned_digest():
    from repro.evaluation.fig7 import simulate_fig7_point

    pinned = json.loads(
        (Path(workloads.__file__).parent / "oracle_digests.json").read_text()
    )["kernels"]["points"]
    # Kernel schedules do not depend on their input data, so the pinned
    # legacy digest holds for a seed other than the one it was pinned at.
    result = simulate_fig7_point(
        kernel="dct", topology="toph", scrambling=True, engine="vector", seed=5
    )
    assert workloads.digest(result) == pinned["dct/toph/scr"]
    broken = dataclasses.replace(result, correct=False)
    assert workloads.digest(broken) != pinned["dct/toph/scr"]
    assert workloads.failed_verification([result, broken]) == 1
