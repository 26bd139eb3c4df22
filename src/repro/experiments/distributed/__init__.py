"""Distributed sweep execution: shard scheduling, worker transport, cache sharing.

This package turns the single-host sweep engine into a horizontally
scalable one while keeping every result bit-identical to a serial run:

* :mod:`~repro.experiments.distributed.shards` — cut a sweep's cache
  misses into consecutive work units;
* :mod:`~repro.experiments.distributed.scheduler` — lease shards to
  workers with work stealing, heartbeats, and crash requeue;
* :mod:`~repro.experiments.distributed.transport` — length-prefixed
  pickle framing over pipes (forked local workers) and TCP (remote
  ``python -m repro.experiments worker`` servers);
* :mod:`~repro.experiments.distributed.worker` — the worker loop and
  the TCP worker server;
* :mod:`~repro.experiments.distributed.cacheserver` — the shared cache
  service and client, so all workers reuse one warm result cache;
* :mod:`~repro.experiments.distributed.dispatcher` — the
  :class:`DistributedExecutor` front-end that ties it all together
  behind the familiar executor contract.

Examples
--------
>>> from repro.experiments import Sweep
>>> from repro.experiments.distributed import DistributedExecutor
>>> sweep = Sweep("repro.experiments.demo:multiply",
...               grid={"a": (2, 3, 4)}, base={"b": 5})
>>> DistributedExecutor(workers=2).run(sweep.specs())
[10, 15, 20]
"""

from repro.experiments.distributed.cacheserver import (
    CacheClient,
    CacheServer,
    parse_cache_spec,
)
from repro.experiments.distributed.dispatcher import (
    DistributedExecutor,
    ShardExecutionError,
)
from repro.experiments.distributed.scheduler import Lease, ShardScheduler
from repro.experiments.distributed.shards import Shard, plan_shards
from repro.experiments.distributed.transport import (
    DEFAULT_PORT,
    PipeStream,
    SocketStream,
    StreamClosed,
    StreamTimeout,
    WorkerSpec,
    parse_workers,
)
from repro.experiments.distributed.worker import (
    WorkerServer,
    run_shard_specs,
    worker_loop,
)

__all__ = [
    "CacheClient",
    "CacheServer",
    "parse_cache_spec",
    "DistributedExecutor",
    "ShardExecutionError",
    "Lease",
    "ShardScheduler",
    "Shard",
    "plan_shards",
    "DEFAULT_PORT",
    "PipeStream",
    "SocketStream",
    "StreamClosed",
    "StreamTimeout",
    "WorkerSpec",
    "parse_workers",
    "WorkerServer",
    "run_shard_specs",
    "worker_loop",
]
