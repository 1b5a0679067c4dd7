"""Execution contexts: who owns the workers, and which backend runs them.

:class:`ExecutionContext` is the one object in the package that owns
worker resources — a ``ThreadPoolExecutor`` for the ``threads``
backend — and the only place such pools are constructed (lint rule
RPR011 enforces this).  There are two backends, ``serial`` and
``threads``, and one PME pipeline; every stage of it splits across the
context's workers:

* the gather-form spread and interpolate stages (row ranges of ``P^T``
  and ``P``, :func:`run_ranges` over the GIL-releasing C kernel),
* the FFTs (``workers=`` of :mod:`scipy.fft`),
* the chunked BCSR SpMM of the real-space term (Section IV.C).

``context=None`` everywhere means one worker run inline.  The headline
invariant: every partition writes disjoint outputs and keeps each
element's summation order, so for a fixed kernel configuration the
results are **bit-identical** at any worker count, and to the
no-context run.

Pools are created lazily on first dispatch and owned until
:meth:`ExecutionContext.close` (idempotent; the context is also a
context manager).  Dispatches are observable: each one increments the
``exec_tasks_total`` counter and records the pool queue lag (submit →
first task start) in the ``exec_queue_lag_seconds`` gauge.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any, Callable, Sequence

from .. import obs
from ..config import BACKENDS, get_config
from ..errors import ConfigurationError
from ..utils.timing import now

__all__ = ["ExecutionContext", "default_context", "reset_default_context",
           "run_ranges"]


class ExecutionContext:
    """Owns backend selection and worker resources for parallel stages.

    Parameters
    ----------
    backend:
        ``"serial"`` or ``"threads"``; default from
        :func:`repro.config.get_config`.
    workers:
        Worker count; default is the config's resolved count (one per
        available CPU when the ``exec_workers`` knob is 0).  The
        ``serial`` backend always reports one worker.
    """

    def __init__(self, backend: str | None = None,
                 workers: int | None = None):
        config = get_config()
        backend = (config.backend if backend is None
                   else str(backend).lower())
        if backend not in BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {'|'.join(BACKENDS)}, "
                f"got {backend!r}")
        if workers is None:
            workers = (1 if backend == "serial"
                       else config.resolved_workers())
        workers = max(1, int(workers))
        self._backend = backend
        self._workers = 1 if backend == "serial" else workers
        self._thread_pool: ThreadPoolExecutor | None = None
        self._closed = False
        self._lock = threading.Lock()

    # -- introspection --------------------------------------------------

    @property
    def backend(self) -> str:
        """The selected backend name."""
        return self._backend

    @property
    def workers(self) -> int:
        """Worker count (1 for the serial backend)."""
        return self._workers

    @property
    def closed(self) -> bool:
        return self._closed

    def span_args(self) -> dict[str, Any]:
        """Span/phase annotations identifying this context."""
        return {"backend": self._backend, "workers": self._workers}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return (f"ExecutionContext(backend={self._backend!r}, "
                f"workers={self._workers}, {state})")

    # -- pools ----------------------------------------------------------

    def thread_pool(self) -> ThreadPoolExecutor:
        """The lazily created thread pool (threads backend)."""
        self._check_open()
        if self._thread_pool is None:
            with self._lock:
                if self._thread_pool is None:
                    self._thread_pool = ThreadPoolExecutor(
                        max_workers=self._workers,
                        thread_name_prefix="repro-exec")
        return self._thread_pool

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigurationError(
                "ExecutionContext is closed; create a new one")

    # -- dispatch -------------------------------------------------------

    def run_tasks(self, tasks: Sequence[Callable[[], Any]],
                  stage: str = "exec") -> list[Any]:
        """Run independent thunks; barrier; returns results in order.

        ``threads`` dispatches to the owned pool (the compiled kernels
        release the GIL inside ``ctypes`` calls, so this is genuine
        parallelism); ``serial`` runs inline.
        """
        self._check_open()
        if not tasks:
            return []
        submit_t = now()
        if (self._backend == "threads" and self._workers > 1
                and len(tasks) > 1):
            first_start = [None]

            def timed(task: Callable[[], Any]) -> Any:
                if first_start[0] is None:
                    first_start[0] = now()
                return task()

            pool = self.thread_pool()
            futures = [pool.submit(timed, task) for task in tasks]
            results = [future.result() for future in futures]
            lag = ((first_start[0] or submit_t) - submit_t)
            self.record_dispatch(len(tasks), max(0.0, lag), stage)
            return results
        results = [task() for task in tasks]
        self.record_dispatch(len(tasks), 0.0, stage)
        return results

    def record_dispatch(self, n_tasks: int, queue_lag: float,
                        stage: str = "exec") -> None:
        """Publish dispatch metrics."""
        obs.inc("exec_tasks_total", n_tasks)
        registry = obs.get_metrics()
        if registry is not None:
            registry.gauge("exec_queue_lag_seconds",
                           help="pool queue lag of the last dispatch "
                                "(submit to first task start)",
                           backend=self._backend,
                           stage=stage).set(queue_lag)

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Release owned pools; idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._thread_pool is not None:
            self._thread_pool.shutdown(wait=True)
            self._thread_pool = None

    def __enter__(self) -> "ExecutionContext":
        self._check_open()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def run_ranges(context: ExecutionContext | None, n: int,
               body: Callable[[int, int], Any], stage: str = "exec") -> None:
    """Run ``body(lo, hi)`` over ``[0, n)`` split into one contiguous
    range per worker; ``context=None`` runs ``body(0, n)`` inline.

    Callers write disjoint outputs per range, so the split never
    changes the result.
    """
    if context is None:
        body(0, n)
        return
    workers = min(context.workers, max(1, n))
    bounds = [n * k // workers for k in range(workers + 1)]
    context.run_tasks([partial(body, lo, hi)
                       for lo, hi in zip(bounds, bounds[1:])], stage=stage)


# ----------------------------------------------------------------------
# process-default context (config-driven)
# ----------------------------------------------------------------------

_default: ExecutionContext | None = None
_default_key: tuple[str, int] | None = None
_atexit_registered = False


def _register_atexit() -> None:
    global _atexit_registered
    import atexit

    atexit.register(reset_default_context)
    _atexit_registered = True


def default_context() -> ExecutionContext | None:
    """The config-selected shared context, or ``None`` for serial.

    When the resolved :class:`~repro.config.RuntimeConfig` selects a
    parallel backend (``REPRO_BACKEND`` / ``--backend``), operators
    built without an explicit ``context=`` share this one; with the
    default ``serial`` backend they keep the legacy single-threaded
    code path, so existing digests are unchanged unless a parallel
    backend is asked for.
    """
    config = get_config()
    if config.backend == "serial":
        return None
    key = (config.backend, config.resolved_workers())
    global _default, _default_key
    if _default is not None and _default_key == key and not _default.closed:
        return _default
    if _default is not None:
        _default.close()        # stale config: release the old pool
    _default = ExecutionContext(config.backend, config.resolved_workers())
    _default_key = key
    if not _atexit_registered:
        # the shared context outlives any one operator, so interpreter
        # shutdown is the only reliable point to join its threads
        _register_atexit()
    return _default


def reset_default_context() -> None:
    """Close and forget the shared default context (test/CLI helper)."""
    global _default, _default_key
    if _default is not None:
        _default.close()
    _default = None
    _default_key = None
