"""Simulation-as-a-service: HTTP sweep API over the experiments engine.

The package turns the experiments engine into a long-running
service (ROADMAP item 2): submit sweeps over HTTP, watch NDJSON progress
streams, fetch results by content hash, and let the content-addressed
cache deduplicate repeated submissions.  See
:mod:`repro.service.app` for the endpoint surface and
:mod:`repro.service.jobs` for the job state machine.

Start one from the CLI::

    python -m repro.experiments serve --port 7654 --workers 4 --cache disk

or in-process::

    from repro.service import SweepService
    service = SweepService(workers="1", cache="memory").start()
"""

from __future__ import annotations

from repro.service.app import (
    DEFAULT_SERVICE_PORT,
    DEFAULT_TTL_S,
    SpecError,
    SweepService,
    build_specs,
)
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import (
    IllegalTransition,
    Job,
    JobCancelled,
    JobState,
    LEGAL_TRANSITIONS,
    expected_work,
    job_key,
)

__all__ = [
    "DEFAULT_SERVICE_PORT",
    "DEFAULT_TTL_S",
    "IllegalTransition",
    "Job",
    "JobCancelled",
    "JobState",
    "LEGAL_TRANSITIONS",
    "ServiceClient",
    "ServiceError",
    "SpecError",
    "SweepService",
    "build_specs",
    "expected_work",
    "job_key",
]
