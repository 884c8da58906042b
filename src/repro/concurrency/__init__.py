"""Concurrency primitives for serving many clients from one session.

* :class:`~repro.concurrency.rwlock.RWLock` — the readers–writer lock
  guarding session state (queries read, updates write);
* :class:`~repro.concurrency.procpool.ProcessQueryPool` — the
  process-parallel execution tier over shared-memory columnar
  encodings.

The thread-safety contract these enable is documented in
``docs/CONCURRENCY.md`` (the process tier under "Process-parallel
serving").
"""

from repro.concurrency.procpool import ProcessQueryPool
from repro.concurrency.rwlock import RWLock

__all__ = ["ProcessQueryPool", "RWLock"]
