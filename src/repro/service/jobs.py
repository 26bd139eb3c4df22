"""The job layer of the sweep service: state machine, cost model, registry types.

A :class:`Job` is one submitted sweep travelling through the service's
queue.  Its lifecycle is a strict state machine::

    queued ──> running ──> done
       │          ├──────> failed
       └──────────┴──────> cancelled

Only the transitions drawn above are legal; anything else (resurrecting
a terminal job, completing a job that never ran) raises
:class:`IllegalTransition` — the service never silently repairs an
impossible lifecycle, because an impossible lifecycle means a scheduler
bug.

Queue ordering is *shortest expected work first*: :func:`expected_work`
reuses the LPT cost estimates the distributed shard planner
(:func:`repro.experiments.distributed.shards.plan_shards`) already
computes, so a one-point probe submitted behind a 500-point catalogue
sweep is answered first — the classical weighted single-machine
scheduling result that minimises mean job turnaround.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence

from repro.experiments.distributed.shards import plan_shards
from repro.experiments.spec import ExperimentSpec


class JobState(str, Enum):
    """Lifecycle states of a submitted sweep job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        """Whether the state ends the job (no further transitions)."""
        return self in _TERMINAL


_TERMINAL = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED}
)

#: The legal transition table: current state -> states it may move to.
#: Terminal states map to the empty set; everything not listed here is an
#: :class:`IllegalTransition`.
LEGAL_TRANSITIONS: dict = {
    JobState.QUEUED: frozenset({JobState.RUNNING, JobState.CANCELLED}),
    JobState.RUNNING: frozenset(
        {JobState.DONE, JobState.FAILED, JobState.CANCELLED}
    ),
    JobState.DONE: frozenset(),
    JobState.FAILED: frozenset(),
    JobState.CANCELLED: frozenset(),
}


class IllegalTransition(RuntimeError):
    """A job was asked to move between states the lifecycle forbids."""


class JobCancelled(Exception):
    """Raised inside a job's worker thread when cancellation is requested."""


def job_key(specs: Sequence[ExperimentSpec]) -> str:
    """Content-addressed identity of a sweep submission.

    SHA-256 over the ordered cache keys of the expanded specs.  Two
    submissions that expand to the same points (same runners, same
    parameters, same program source) get the same key — the handle the
    service dedups on: a resubmitted sweep joins the live job or is
    served from cache instead of recomputing.

    Examples
    --------
    >>> spec = ExperimentSpec("repro.experiments.demo:multiply", {"a": 2})
    >>> job_key([spec]) == job_key([spec])
    True
    >>> len(job_key([spec]))
    64
    """
    digest = hashlib.sha256()
    for spec in specs:
        digest.update(spec.key.encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()


def expected_work(
    specs: Sequence[ExperimentSpec],
    miss_indices: Optional[Sequence[int]] = None,
) -> int:
    """Expected compute cost of a job, in sweep points still to run.

    Reuses the shard planner's cost model: the points are cut with
    :func:`~repro.experiments.distributed.shards.plan_shards` (the same
    LPT-ordered shards a distributed run would execute) and the shard
    sizes are summed.  Cached points cost nothing — pass the cache
    scan's ``miss_indices`` so a fully warm resubmission sorts ahead of
    every cold job.

    Examples
    --------
    >>> specs = [ExperimentSpec("repro.experiments.demo:multiply", {"a": a})
    ...          for a in range(4)]
    >>> expected_work(specs)
    4
    >>> expected_work(specs, miss_indices=[2])
    1
    """
    shards = plan_shards(list(specs), miss_indices)
    return sum(shard.size for shard in shards)


@dataclass
class Job:
    """One submitted sweep: specs, lifecycle state, and its event log.

    Parameters
    ----------
    job_id : str
        Service-local identifier (short hex), used in every URL.
    key : str
        Content hash from :func:`job_key` — the dedup identity.
    title : str
        Human-readable label (experiment name or runner path).
    specs : list of ExperimentSpec
        The expanded points, in sweep order.
    cost : int
        Expected work from :func:`expected_work`; the queue runs
        shortest-cost-first.
    assemble : callable, optional
        Registry assembler producing the figure result object (whose
        ``report()`` text is attached to the finished job), or ``None``
        for raw sweeps.
    """

    job_id: str
    key: str
    title: str
    specs: list
    cost: int = 0
    assemble: Optional[Callable] = None
    state: JobState = JobState.QUEUED
    submit_seq: int = 0
    created_s: float = field(default_factory=time.time)
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    error: Optional[str] = None
    report_text: Optional[str] = None
    cache_hits: int = 0
    computed: int = 0
    elapsed_s: float = 0.0
    #: Ordered NDJSON event log; each entry carries a dense ``seq``.
    events: list = field(default_factory=list)
    #: Set by ``DELETE /sweeps/{id}`` on a running job; the worker thread
    #: polls it between points (cancellation is best-effort mid-point).
    cancel_requested: threading.Event = field(default_factory=threading.Event)

    def transition(self, new_state: JobState) -> None:
        """Move to ``new_state``, enforcing the legal transition table.

        Raises
        ------
        IllegalTransition
            When the lifecycle forbids the move (e.g. any transition out
            of a terminal state, or ``queued -> done`` without running).
        """
        if new_state not in LEGAL_TRANSITIONS[self.state]:
            raise IllegalTransition(
                f"job {self.job_id}: illegal transition "
                f"{self.state.value} -> {new_state.value}"
            )
        self.state = new_state
        now = time.time()
        if new_state is JobState.RUNNING:
            self.started_s = now
        elif new_state.terminal:
            self.finished_s = now

    @property
    def result_keys(self) -> list:
        """Content-addressed cache key of every point, in sweep order."""
        return [spec.key for spec in self.specs]

    def to_dict(self) -> dict:
        """JSON-ready description served by ``GET /sweeps/{id}``."""
        return {
            "id": self.job_id,
            "key": self.key,
            "title": self.title,
            "state": self.state.value,
            "points": len(self.specs),
            "cost": self.cost,
            "cache_hits": self.cache_hits,
            "computed": self.computed,
            "created_s": round(self.created_s, 3),
            "started_s": (
                round(self.started_s, 3) if self.started_s is not None else None
            ),
            "finished_s": (
                round(self.finished_s, 3)
                if self.finished_s is not None
                else None
            ),
            "elapsed_s": round(self.elapsed_s, 3),
            "error": self.error,
            "events": len(self.events),
            "result_keys": self.result_keys,
            "report": self.report_text,
        }


def new_job_id() -> str:
    """A fresh 12-hex-digit job identifier."""
    import uuid

    return uuid.uuid4().hex[:12]


def sort_queued(jobs: Sequence[Job]) -> list:
    """Queued jobs in dispatch order: cheapest first, FIFO on ties.

    Examples
    --------
    >>> a = Job("a", "k", "t", [], cost=5, submit_seq=0)
    >>> b = Job("b", "k", "t", [], cost=1, submit_seq=1)
    >>> [job.job_id for job in sort_queued([a, b])]
    ['b', 'a']
    """
    return sorted(jobs, key=lambda job: (job.cost, job.submit_seq))


def prune_finished(
    jobs: dict, by_key: dict, ttl_s: float, now: Optional[float] = None
) -> list:
    """Drop terminal jobs older than ``ttl_s`` from both registries.

    Returns the pruned job ids.  Live jobs are never pruned; a pruned
    ``done`` job's results stay in the result cache, so a resubmission
    after expiry is served as an all-hits job rather than recomputed.
    """
    now = time.time() if now is None else now
    pruned = []
    for job_id, job in list(jobs.items()):
        if not job.state.terminal or job.finished_s is None:
            continue
        if now - job.finished_s >= ttl_s:
            del jobs[job_id]
            if by_key.get(job.key) == job_id:
                del by_key[job.key]
            pruned.append(job_id)
    return pruned


__all__ = [
    "IllegalTransition",
    "Job",
    "JobCancelled",
    "JobState",
    "LEGAL_TRANSITIONS",
    "expected_work",
    "job_key",
    "new_job_id",
    "prune_finished",
    "sort_queued",
]
