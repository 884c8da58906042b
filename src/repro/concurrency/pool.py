"""Per-thread resource pooling with uniform close-all semantics.

A SQLite connection is only safe to drive from one thread at a time
(stdlib ``sqlite3`` enforces thread ownership outright with
``check_same_thread``), and a ``:memory:`` database is private to its
connection.  The SQLite backend therefore keeps **one connection per
worker thread**, created lazily the first time that thread executes, and
closes *all* of them — from whatever thread calls :meth:`Backend.close` —
in one idempotent sweep.

:class:`ThreadLocalPool` packages that pattern: ``get()`` returns the
calling thread's resource (creating and registering it on first use),
``close_all()`` closes every resource ever created.  Resources opened for
worker threads that have since exited are still tracked and closed.
"""

from __future__ import annotations

import threading
from typing import Callable, Generic, TypeVar

from repro.errors import ReproError

T = TypeVar("T")


class ThreadLocalPool(Generic[T]):
    """Lazily creates one resource per thread; closes them all at once.

    ``factory`` builds a fresh resource; ``close`` releases one (defaults
    to calling the resource's own ``close()``).  After :meth:`close_all`,
    ``get()`` raises — pools are single-lifecycle, like the backends that
    own them.
    """

    def __init__(self, factory: Callable[[], T],
                 close: Callable[[T], None] | None = None):
        self._factory = factory
        self._close = close if close is not None else lambda r: r.close()  # type: ignore[attr-defined]
        self._local = threading.local()
        self._lock = threading.Lock()
        self._resources: list[T] = []
        self._closed = False

    def get(self) -> T:
        """The calling thread's resource, created on first use."""
        if self._closed:
            raise ReproError("pool is closed")
        resource = getattr(self._local, "resource", None)
        if resource is None:
            with self._lock:
                if self._closed:
                    raise ReproError("pool is closed")
                resource = self._factory()
                self._resources.append(resource)
            self._local.resource = resource
        return resource

    def current(self) -> T | None:
        """The calling thread's resource, or ``None`` if not created yet."""
        return getattr(self._local, "resource", None)

    @property
    def size(self) -> int:
        """Number of live resources across all threads."""
        with self._lock:
            return len(self._resources)

    @property
    def closed(self) -> bool:
        return self._closed

    def close_all(self) -> None:
        """Close every resource ever handed out; idempotent.

        Safe to call from any thread: the per-thread resources are
        assumed to tolerate cross-thread ``close`` (sqlite connections are
        opened with ``check_same_thread=False`` for exactly this reason).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            resources, self._resources = self._resources, []
        errors: list[BaseException] = []
        for resource in resources:
            try:
                self._close(resource)
            except Exception as error:  # noqa: BLE001 — close the rest first
                errors.append(error)
        if errors:
            raise errors[0]

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"{self.size} resource(s)"
        return f"<ThreadLocalPool {state}>"
