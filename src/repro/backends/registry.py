"""The backend registry: name → factory.

All backend dispatch in the package — :func:`repro.run_xquery`,
:class:`repro.session.XQuerySession`, the benchmark cells, and the CLI —
goes through :func:`create_backend`; there is no string-compare chain to
extend.  A third-party engine participates fully by calling
:func:`register_backend` (or using it as a class decorator) at import
time:

    from repro.backends import Backend, register_backend

    @register_backend
    class MyBackend(Backend):
        name = "mydb"
        ...

    run_xquery(query, docs, backend="mydb")
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Callable, Iterator

from repro.backends.base import Backend
from repro.errors import ReproError, UnknownBackendError

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.breaker import CircuitBreaker

#: name → zero-config factory producing a fresh Backend instance.
_REGISTRY: dict[str, Callable[..., Backend]] = {}

#: name → the process-wide circuit breaker guarding that backend.
_BREAKERS: dict[str, "CircuitBreaker"] = {}

#: Guards _BREAKERS get-or-create so concurrent sessions share one breaker.
_BREAKERS_LOCK = threading.Lock()


def register_backend(factory: Callable[..., Backend] | None = None, *,
                     name: str | None = None,
                     replace: bool = False):
    """Register a backend factory (usable directly or as a decorator).

    ``factory`` is typically a :class:`Backend` subclass; any callable
    returning a ``Backend`` works.  The registry name defaults to the
    factory's ``name`` class attribute.  Re-registration requires
    ``replace=True`` to guard against accidental shadowing.
    """
    def _register(target: Callable[..., Backend]) -> Callable[..., Backend]:
        key = name or getattr(target, "name", None)
        if not key or key == "?":
            raise ReproError(
                f"cannot register backend {target!r} without a name; "
                f"set a `name` class attribute or pass name=..."
            )
        if key in _REGISTRY and not replace:
            raise ReproError(
                f"backend {key!r} is already registered; "
                f"pass replace=True to override"
            )
        _REGISTRY[key] = target
        return target

    if factory is None:
        return _register
    return _register(factory)


def unregister_backend(name: str) -> None:
    """Remove a backend from the registry (no-op when absent)."""
    _REGISTRY.pop(name, None)


def create_backend(name: str, **options: object) -> Backend:
    """Instantiate a fresh backend by registry name.

    ``options`` are forwarded to the factory (e.g. ``memory_budget`` for
    the naive baseline).  Unknown names raise
    :class:`~repro.errors.UnknownBackendError` listing what *is*
    registered.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise UnknownBackendError(name, registered_backends()) from None
    backend = factory(**options)
    if not isinstance(backend, Backend):
        raise ReproError(
            f"backend factory for {name!r} returned "
            f"{type(backend).__name__}, not a Backend"
        )
    return backend


def registered_backends() -> tuple[str, ...]:
    """Sorted names of every registered backend."""
    return tuple(sorted(_REGISTRY))


def backend_capabilities(name: str):
    """The declared :class:`BackendCapabilities` for a registered name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise UnknownBackendError(name, registered_backends()) from None
    return getattr(factory, "capabilities", Backend.capabilities)


def iter_backends() -> Iterator[tuple[str, Callable[..., Backend]]]:
    """(name, factory) pairs in sorted order."""
    for name in registered_backends():
        yield name, _REGISTRY[name]


# -- circuit breakers ---------------------------------------------------------

def backend_breaker(name: str,
                    clock: "Callable[[], float] | None" = None,
                    ) -> "CircuitBreaker":
    """The process-wide circuit breaker for a backend name (get-or-create).

    Breaker health is shared across every session in the process — the
    same scope at which backend factories live — so one session tripping
    the ``sqlite`` breaker protects all of them.  ``clock`` (the tests'
    fake-clock seam) applies only on first creation: pass it before any
    session touches the backend, or :func:`reset_breakers` first.
    Unregistered names are allowed: a breaker may outlive a temporarily
    unregistered backend.
    """
    from repro.resilience.breaker import CircuitBreaker

    with _BREAKERS_LOCK:
        breaker = _BREAKERS.get(name)
        if breaker is None:
            breaker = CircuitBreaker(name, clock=clock or time.monotonic)
            _BREAKERS[name] = breaker
        return breaker


def reset_breakers(name: str | None = None) -> None:
    """Drop breaker state for one backend, or for all of them."""
    with _BREAKERS_LOCK:
        if name is None:
            _BREAKERS.clear()
        else:
            _BREAKERS.pop(name, None)
