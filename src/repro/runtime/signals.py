"""Graceful-shutdown signal handling.

One small context manager shared by everything that must stop cleanly
on SIGTERM/SIGINT: ``repro simulate --max-wall-time`` (stop at the
next step boundary, write a final checkpoint, exit 0 resumable),
``repro ensemble`` (the supervisor stops assigning tasks, drains
workers, persists the campaign manifest) and ``repro serve``.

The handler only *flags*; the owner passes ``lambda:
shutdown.triggered`` as the ``stop`` predicate of
:meth:`~repro.core.simulation.Simulation.run` or
:meth:`~repro.runtime.supervisor.Supervisor.run`, so shutdown always
lands at a well-defined boundary rather than wherever the signal
interrupted NumPy.  Each entry point enters exactly one instance, on
the main thread (the only thread that may install handlers).
"""

from __future__ import annotations

import signal
from typing import Callable

__all__ = ["GracefulShutdown"]

#: Signals that request a graceful drain.
_SHUTDOWN_SIGNALS = (signal.SIGTERM, signal.SIGINT)


class GracefulShutdown:
    """Context manager turning SIGTERM/SIGINT into a polled flag.

    Usage::

        with GracefulShutdown() as shutdown:
            sim.run(n_steps, stop=lambda: shutdown.triggered)
        if shutdown.triggered:
            ...   # exited at a step boundary; state is resumable

    A second signal while already draining is still absorbed (the
    handler stays installed until the ``with`` block exits), so an
    impatient ``kill`` repeated by an init system does not abort the
    final checkpoint write.  Original handlers are restored on exit.

    Parameters
    ----------
    on_signal:
        Optional callback invoked (once per delivery) from the signal
        handler with the signal name — ``repro serve`` uses it to wake
        its event loop.  Keep it async-signal-safe cheap: set flags,
        don't do I/O beyond appending to a queue.
    """

    def __init__(self, on_signal: Callable[[str], None] | None = None):
        self.triggered = False
        #: Name of the first signal received (``"SIGTERM"``/``"SIGINT"``).
        self.signal_name: str | None = None
        self._on_signal = on_signal
        self._previous: dict[int, object] = {}

    def _handler(self, signum, frame) -> None:
        self.triggered = True
        if self.signal_name is None:
            self.signal_name = signal.Signals(signum).name
        if self._on_signal is not None:
            self._on_signal(signal.Signals(signum).name)

    def __enter__(self) -> "GracefulShutdown":
        for sig in _SHUTDOWN_SIGNALS:
            self._previous[sig] = signal.getsignal(sig)
            signal.signal(sig, self._handler)
        return self

    def __exit__(self, *exc) -> None:
        for sig, previous in self._previous.items():
            signal.signal(sig, previous)
        self._previous.clear()
