"""Simulation-as-a-service: the asyncio HTTP application around the engine.

:class:`SweepService` turns the experiments engine into a long-running
queryable oracle: clients submit sweep specs over HTTP, the service
queues them (shortest expected work first, bounded concurrency), streams
per-point/per-shard progress as NDJSON, and serves finished results
straight off the content-addressed cache.

Endpoints
---------

==========  =========================  =======================================
method      path                       behaviour
==========  =========================  =======================================
``POST``    ``/sweeps``                submit a sweep; dedups by content hash
``GET``     ``/sweeps/{id}``           job description + state
``GET``     ``/sweeps/{id}/events``    NDJSON progress stream (``?from=N``)
``DELETE``  ``/sweeps/{id}``           cancel (immediate when queued,
                                       best-effort when running)
``GET``     ``/results/{key}``         pickled result bytes by cache key
``GET``     ``/healthz``               liveness + queue counters
==========  =========================  =======================================

Submission bodies name either a registered experiment
(``{"experiment": "fig5", "settings": {...}}`` — the same knobs as
``ExperimentSettings``) or a raw sweep
(``{"runner": "pkg.mod:fn", "grid": {...}, "base": {...}}``).  Each
submission expands to specs whose content-addressed cache keys double as
the dedup identity: resubmitting an identical sweep joins the live job
(or the finished one), and after the finished job ages out of the
registry a resubmission is served entirely from the result cache — the
engine never computes the same point twice.

The HTTP side runs on one asyncio loop (optionally on a background
thread, for tests and embedding); jobs execute on worker threads through
the exact executor stack every CLI run uses — a serial
:class:`~repro.experiments.executor.Executor` for ``workers="1"``, a
:class:`~repro.experiments.distributed.DistributedExecutor` for anything
larger (including ``"node1:4,..."`` fleet specs), whose scheduler
observer feeds steal/shard/requeue events into the job's stream.
"""

from __future__ import annotations

import asyncio
import json
import pickle
import threading
import time
import traceback
from typing import Optional, Union

from repro.experiments.cache import MISS, CacheBackend
from repro.experiments.executor import Executor
from repro.experiments.distributed.cacheserver import parse_cache_spec
from repro.experiments.distributed.dispatcher import DistributedExecutor
from repro.experiments.distributed.transport import parse_workers
from repro.service import http
from repro.service.jobs import (
    Job,
    JobCancelled,
    JobState,
    expected_work,
    job_key,
    new_job_id,
    prune_finished,
    sort_queued,
)

#: Default TCP port of ``python -m repro.experiments serve``.
DEFAULT_SERVICE_PORT = 7654

#: How long a finished job stays in the registry before it is pruned.
#: Results live on in the cache backend regardless — expiry only means a
#: resubmission becomes a fresh (all-cache-hits) job instead of a dedup.
DEFAULT_TTL_S = 3600.0


class SpecError(ValueError):
    """A submission payload that cannot be turned into a valid sweep."""


def build_specs(payload) -> tuple:
    """Expand a submission payload into ``(title, specs, assemble)``.

    Raises
    ------
    SpecError
        With a client-presentable message when the payload is not a
        mapping, names an unknown experiment/runner, carries invalid
        settings, or sweeps unhashable parameter values.
    """
    # Imported here so the module can be imported without dragging in the
    # full evaluation stack until a submission actually needs it.
    from repro.evaluation.settings import ExperimentSettings
    from repro.experiments.registry import EXPERIMENTS
    from repro.experiments.spec import resolve_runner
    from repro.experiments.sweep import Sweep

    if not isinstance(payload, dict):
        raise SpecError(
            f"submission must be a JSON object, got {type(payload).__name__}"
        )
    if "experiment" in payload:
        name = payload["experiment"]
        if name not in EXPERIMENTS:
            raise SpecError(
                f"unknown experiment {name!r}; "
                f"available: {', '.join(EXPERIMENTS)}"
            )
        overrides = payload.get("settings", {})
        if not isinstance(overrides, dict):
            raise SpecError(
                f"'settings' must be a JSON object, got "
                f"{type(overrides).__name__}"
            )
        try:
            settings = ExperimentSettings(**overrides)
            settings.probe_topology()
        except TypeError as error:
            raise SpecError(f"bad settings: {error}") from error
        except ValueError as error:
            raise SpecError(str(error)) from error
        definition = EXPERIMENTS[name]
        specs = definition.build_sweep(settings).specs()
        return name, specs, definition.assemble
    if "runner" in payload:
        runner = payload["runner"]
        grid = payload.get("grid", {})
        base = payload.get("base", {})
        if not isinstance(grid, dict) or not isinstance(base, dict):
            raise SpecError("'grid' and 'base' must be JSON objects")
        try:
            resolve_runner(runner)
        except (ValueError, ImportError) as error:
            raise SpecError(f"bad runner: {error}") from error
        try:
            sweep = Sweep(
                runner=runner, grid=grid, base=base,
                name=payload.get("name", ""),
            )
            specs = sweep.specs()
            for spec in specs:
                spec.key  # noqa: B018 — force key hashing to validate params
        except TypeError as error:
            raise SpecError(str(error)) from error
        if not specs:
            raise SpecError("sweep expands to zero points")
        return payload.get("name") or runner, specs, None
    raise SpecError(
        "submission needs either 'experiment' (a registry name, optional "
        "'settings') or 'runner' (a 'pkg.mod:fn' path, optional "
        "'grid'/'base')"
    )


class SweepService:
    """The HTTP sweep service: queue, state machine, event streams, cache.

    Parameters
    ----------
    host, port : str, int
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` after :meth:`start`).
    workers : int or str
        Per-job executor fleet in :func:`parse_workers` grammar.  ``"1"``
        runs each job on an in-thread serial executor; anything larger —
        ``"4"`` or ``"node1:2,node2:7700:4"`` — fronts a
        :class:`DistributedExecutor` per job, so one service can drive a
        whole worker fleet.
    cache : CacheBackend or str or None
        Result cache: a live backend, a ``parse_cache_spec`` string
        (``"disk:..."``/``"memory"``/``"tcp://..."``), or ``None`` for no
        caching (disables ``/results`` and dedup-by-cache).  Default: a
        fresh in-memory cache.
    max_jobs : int
        Bounded concurrency: how many jobs may run simultaneously.
    ttl_s : float
        Seconds a finished job stays in the registry (see
        :data:`DEFAULT_TTL_S`).

    Examples
    --------
    >>> service = SweepService(workers="1", cache="memory").start()
    >>> from repro.service.client import ServiceClient
    >>> client = ServiceClient("127.0.0.1", service.port)
    >>> job = client.submit({"runner": "repro.experiments.demo:multiply",
    ...                      "grid": {"a": [2, 3]}, "base": {"b": 10}})["job"]
    >>> client.wait(job["id"])["state"]
    'done'
    >>> service.stop()
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: Union[int, str] = "1",
        cache: Union[CacheBackend, str, None] = "memory",
        max_jobs: int = 2,
        ttl_s: float = DEFAULT_TTL_S,
    ) -> None:
        if max_jobs < 1:
            raise ValueError(f"max_jobs must be positive, got {max_jobs}")
        self.host = host
        self.port = port  # replaced by the bound port after start()
        self._requested_port = port
        self.workers_spec = workers
        self._worker_entries = parse_workers(workers)
        self.cache = (
            parse_cache_spec(cache) if isinstance(cache, str) else cache
        )
        self.max_jobs = max_jobs
        self.ttl_s = ttl_s
        self._jobs: dict = {}
        self._by_key: dict = {}
        self._queued: list = []
        self._running: set = set()
        self._submit_seq = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server = None
        self._thread: Optional[threading.Thread] = None
        self._job_threads: list = []
        self._started = threading.Event()
        self._boot_error: Optional[BaseException] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "SweepService":
        """Boot the HTTP server on a background loop thread; returns self.

        Raises the bind error (e.g. ``OSError`` for a taken port) in the
        calling thread.
        """
        self._thread = threading.Thread(
            target=self._loop_main, name="sweep-service", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._boot_error is not None:
            raise self._boot_error
        return self

    def stop(self) -> None:
        """Cancel running jobs, close the server, and stop the loop."""
        loop = self._loop
        if loop is None or not loop.is_running():
            return

        def _shutdown() -> None:
            for job_id in list(self._running):
                self._jobs[job_id].cancel_requested.set()
            if self._server is not None:
                self._server.close()
            loop.stop()

        loop.call_soon_threadsafe(_shutdown)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        for thread in self._job_threads:
            thread.join(timeout=1.0)

    def _loop_main(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            boot = asyncio.start_server(
                self._handle, self.host, self._requested_port
            )
            self._server = loop.run_until_complete(boot)
            self.port = self._server.sockets[0].getsockname()[1]
        except BaseException as error:  # surface bind failures to start()
            self._boot_error = error
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            tasks = asyncio.all_tasks(loop)
            for task in tasks:
                task.cancel()
            if tasks:
                loop.run_until_complete(
                    asyncio.gather(*tasks, return_exceptions=True)
                )
            loop.run_until_complete(self._server.wait_closed())
            loop.close()

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #

    async def _handle(self, reader, writer) -> None:
        """Serve one connection: parse, dispatch, close."""
        try:
            try:
                request = await http.read_request(reader)
            except http.BadRequest as error:
                writer.write(http.error_response(400, str(error)))
                await writer.drain()
                return
            if request is None:
                return
            await self._dispatch(request, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-response
        except asyncio.CancelledError:
            raise
        except Exception:
            try:
                writer.write(
                    http.error_response(500, traceback.format_exc(limit=4))
                )
                await writer.drain()
            except OSError:
                pass
        finally:
            try:
                writer.close()
            except OSError:
                pass

    async def _dispatch(self, request: http.Request, writer) -> None:
        parts = request.parts
        if parts == ["healthz"]:
            if request.method != "GET":
                return await self._send(writer, 405, "use GET")
            return await self._reply(writer, 200, self._health())
        if parts == ["sweeps"]:
            if request.method != "POST":
                return await self._send(writer, 405, "use POST")
            return await self._handle_submit(request, writer)
        if len(parts) == 2 and parts[0] == "sweeps":
            job = self._jobs.get(parts[1])
            if job is None:
                return await self._send(writer, 404, f"no job {parts[1]!r}")
            if request.method == "GET":
                return await self._reply(writer, 200, {"job": job.to_dict()})
            if request.method == "DELETE":
                return await self._handle_cancel(job, writer)
            return await self._send(writer, 405, "use GET or DELETE")
        if len(parts) == 3 and parts[0] == "sweeps" and parts[2] == "events":
            if request.method != "GET":
                return await self._send(writer, 405, "use GET")
            job = self._jobs.get(parts[1])
            if job is None:
                return await self._send(writer, 404, f"no job {parts[1]!r}")
            return await self._handle_events(request, job, writer)
        if len(parts) == 2 and parts[0] == "results":
            if request.method != "GET":
                return await self._send(writer, 405, "use GET")
            return await self._handle_result(parts[1], writer)
        return await self._send(
            writer, 404, f"no route for {request.method} {request.path}"
        )

    async def _reply(self, writer, status: int, payload: dict) -> None:
        writer.write(http.json_response(status, payload))
        await writer.drain()

    async def _send(self, writer, status: int, detail: str) -> None:
        writer.write(http.error_response(status, detail))
        await writer.drain()

    # ------------------------------------------------------------------ #
    # Endpoint handlers
    # ------------------------------------------------------------------ #

    def _health(self) -> dict:
        states: dict = {}
        for job in self._jobs.values():
            states[job.state.value] = states.get(job.state.value, 0) + 1
        return {
            "status": "ok",
            "jobs": states,
            "queued": len(self._queued),
            "running": len(self._running),
            "max_jobs": self.max_jobs,
            "workers": str(self.workers_spec),
        }

    async def _handle_submit(self, request: http.Request, writer) -> None:
        try:
            payload = request.json()
            title, specs, assemble = build_specs(payload)
        except (http.BadRequest, SpecError) as error:
            return await self._send(writer, 400, str(error))

        prune_finished(self._jobs, self._by_key, self.ttl_s)
        key = job_key(specs)
        existing_id = self._by_key.get(key)
        if existing_id is not None:
            existing = self._jobs[existing_id]
            # Failed/cancelled jobs never dedup (they are dropped from
            # the key map at finish time); live and done jobs do.
            return await self._reply(
                writer,
                200,
                {"job": existing.to_dict(), "deduplicated": True},
            )

        _, miss_indices = Executor(workers=1, cache=self.cache).scan_cache(
            specs
        )
        job = Job(
            job_id=new_job_id(),
            key=key,
            title=title,
            specs=specs,
            cost=expected_work(specs, miss_indices),
            assemble=assemble,
            submit_seq=self._submit_seq,
        )
        self._submit_seq += 1
        job._waiter = self._loop.create_future()
        self._jobs[job.job_id] = job
        self._by_key[key] = job.job_id
        self._queued.append(job.job_id)
        self._emit(job, {"kind": "state", "state": JobState.QUEUED.value,
                         "points": len(specs), "cost": job.cost})
        self._maybe_start()
        await self._reply(
            writer, 201, {"job": job.to_dict(), "deduplicated": False}
        )

    async def _handle_cancel(self, job: Job, writer) -> None:
        if job.state is JobState.QUEUED:
            self._queued.remove(job.job_id)
            job.transition(JobState.CANCELLED)
            if self._by_key.get(job.key) == job.job_id:
                del self._by_key[job.key]
            self._emit(
                job, {"kind": "state", "state": JobState.CANCELLED.value}
            )
            return await self._reply(writer, 200, {"job": job.to_dict()})
        if job.state is JobState.RUNNING:
            job.cancel_requested.set()
            return await self._reply(
                writer, 202, {"job": job.to_dict(), "cancelling": True}
            )
        return await self._send(
            writer, 409, f"job {job.job_id} is already {job.state.value}"
        )

    async def _handle_events(
        self, request: http.Request, job: Job, writer
    ) -> None:
        try:
            index = int(request.query.get("from", "0"))
            if index < 0:
                raise ValueError(index)
        except ValueError:
            return await self._send(
                writer, 400, f"bad 'from' value {request.query.get('from')!r}"
            )
        writer.write(http.stream_head())
        await writer.drain()
        while True:
            # Capture the waiter BEFORE scanning, so an event emitted
            # between the scan and the await still wakes this stream.
            waiter = job._waiter
            while index < len(job.events):
                line = json.dumps(job.events[index], sort_keys=True) + "\n"
                writer.write(line.encode("utf-8"))
                await writer.drain()
                index += 1
            if job.state.terminal:
                return
            await waiter

    async def _handle_result(self, key: str, writer) -> None:
        if self.cache is None:
            return await self._send(
                writer, 404, "no cache backend attached (serve --cache ...)"
            )
        value = self.cache.get(key)
        if value is MISS:
            return await self._send(writer, 404, f"no cached result {key!r}")
        body = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        writer.write(http.response(status=200, body=body,
                                   content_type="application/octet-stream"))
        await writer.drain()

    # ------------------------------------------------------------------ #
    # Queue + execution (loop thread unless noted)
    # ------------------------------------------------------------------ #

    def _maybe_start(self) -> None:
        """Dispatch queued jobs while slots are free, cheapest job first."""
        while self._queued and len(self._running) < self.max_jobs:
            ordered = sort_queued(
                [self._jobs[job_id] for job_id in self._queued]
            )
            job = ordered[0]
            self._queued.remove(job.job_id)
            job.transition(JobState.RUNNING)
            self._running.add(job.job_id)
            self._emit(
                job, {"kind": "state", "state": JobState.RUNNING.value}
            )
            thread = threading.Thread(
                target=self._job_main,
                args=(job,),
                name=f"sweep-job-{job.job_id}",
                daemon=True,
            )
            self._job_threads.append(thread)
            thread.start()

    def _make_executor(self, job: Job) -> tuple:
        """Fresh per-job executor: ``(executor, is_distributed)``."""
        entries = self._worker_entries
        if len(entries) == 1 and entries[0].local and entries[0].count == 1:
            return Executor(workers=1, cache=self.cache), False
        return (
            DistributedExecutor(
                workers=self.workers_spec,
                cache=self.cache,
                observer=lambda payload, job=job: self._post_event(
                    job, payload
                ),
            ),
            True,
        )

    def _job_main(self, job: Job) -> None:
        """Worker-thread body: run the sweep, marshal the outcome back."""
        report = None
        try:
            if job.cancel_requested.is_set():
                raise JobCancelled()
            executor, distributed = self._make_executor(job)

            def progress(spec, value, job=job, distributed=distributed):
                # Raising from a distributed store() would kill a channel
                # thread, not the job — cancellation there is checked at
                # run boundaries instead.
                if not distributed and job.cancel_requested.is_set():
                    raise JobCancelled()
                self._post_event(
                    job,
                    {"kind": "point", "label": spec.label, "key": spec.key},
                )

            results = executor.run(job.specs, progress)
            report = executor.last_report
            if job.cancel_requested.is_set():
                raise JobCancelled()
            report_text = None
            if job.assemble is not None:
                report_text = job.assemble(job.specs, results).report()
            self._post_finish(job, JobState.DONE, report, report_text, None)
        except JobCancelled:
            self._post_finish(job, JobState.CANCELLED, report, None, None)
        except BaseException:
            self._post_finish(
                job, JobState.FAILED, report, None, traceback.format_exc()
            )

    def _post_event(self, job: Job, payload: dict) -> None:
        """Thread-safe event append (no-op once the loop is gone)."""
        try:
            self._loop.call_soon_threadsafe(self._emit, job, payload)
        except RuntimeError:
            pass  # service stopping; late events have nowhere to go

    def _post_finish(self, job, state, report, report_text, error) -> None:
        """Thread-safe completion marshalling (see :meth:`_finish`)."""
        try:
            self._loop.call_soon_threadsafe(
                self._finish, job, state, report, report_text, error
            )
        except RuntimeError:
            pass

    def _emit(self, job: Job, payload: dict) -> None:
        """Append one event and wake every waiting stream (loop thread)."""
        event = {"seq": len(job.events), "ts": round(time.time(), 3)}
        event.update(payload)
        job.events.append(event)
        waiter, job._waiter = job._waiter, self._loop.create_future()
        if not waiter.done():
            waiter.set_result(None)

    def _finish(self, job, state, report, report_text, error) -> None:
        """Land a job outcome: transition, final event, dispatch next."""
        self._running.discard(job.job_id)
        job.transition(state)
        job.error = error
        job.report_text = report_text
        if report is not None:
            job.cache_hits = report.cache_hits
            job.computed = report.computed
            job.elapsed_s = report.elapsed_s
        if state is not JobState.DONE and self._by_key.get(job.key) == job.job_id:
            # Failed/cancelled sweeps must not swallow a resubmission.
            del self._by_key[job.key]
        event = {"kind": "state", "state": state.value}
        if report is not None:
            event["summary"] = report.summary()
        if error is not None:
            event["error"] = error
        self._emit(job, event)
        self._maybe_start()


__all__ = [
    "DEFAULT_SERVICE_PORT",
    "DEFAULT_TTL_S",
    "SpecError",
    "SweepService",
    "build_specs",
]
