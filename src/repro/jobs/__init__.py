"""Background work for the 3DESS system (``repro.jobs``).

Two building blocks, both reusable outside their first clients:

* :mod:`repro.jobs.pool` — a persistent pool of *killable* worker
  processes: per-task deadlines enforced by SIGKILLing (and respawning)
  only the offending worker, bounded retry-on-fresh-worker, deterministic
  failures returned without costing a process.  Every parallel batch of
  :class:`repro.features.parallel.ParallelPipeline` runs on it.
* :mod:`repro.jobs.queue` + :mod:`repro.jobs.runner` — a durable job
  queue (JSON-lines journal, crash-safe resume) and the runner that
  drains it.  The built-in ``re-extract`` job type heals degraded
  records in the background — the incremental index-maintenance
  discipline of the Princeton search engine applied to this system.

See ``docs/JOBS.md`` for semantics and the CLI surface
(``three-dess jobs run/status``, ``three-dess verify``).
"""

from .pool import TaskResult, WorkerPool
from .queue import JOB_STATES, Job, JobQueue
from .runner import (
    RE_EXTRACT,
    JobRunner,
    JobRunReport,
    ReextractHandler,
    make_reextract_handler,
)

__all__ = [
    "WorkerPool",
    "TaskResult",
    "Job",
    "JobQueue",
    "JOB_STATES",
    "JobRunner",
    "JobRunReport",
    "ReextractHandler",
    "make_reextract_handler",
    "RE_EXTRACT",
]
