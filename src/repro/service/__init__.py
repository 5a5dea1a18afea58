"""repro.service — the persistent multi-job render service.

The service's state is its directories: one ``jobs/<id>/`` per job,
holding its record (``job.json``), its checkpoint spool and its frames.

* :mod:`~repro.service.job` — the :class:`Job` record, atomically
  replaced at every transition, and :func:`load_jobs`, the restart;
* :mod:`~repro.service.queue` — bounded priority admission with explicit
  shedding;
* :mod:`~repro.service.daemon` — :class:`RenderService`, the
  ``repro serve`` daemon tying job records + queue + farm together behind
  an RNW1 control socket;
* :mod:`~repro.service.client` — ``submit``/``wait``/``job_status``/
  ``cancel`` RPC helpers (re-exported from :mod:`repro.api`).

See DESIGN §13 for the state machine and the restart-recovery sequence.
"""

from .client import ServiceError, cancel, job_status, list_jobs, submit, wait
from .daemon import RenderService
from .job import JOB_STATES, TERMINAL_STATES, Job, load_jobs
from .queue import JobQueue

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "Job",
    "JobQueue",
    "RenderService",
    "ServiceError",
    "cancel",
    "job_status",
    "list_jobs",
    "load_jobs",
    "submit",
    "wait",
]
