"""In-memory span recorder and the wrappers that feed it.

The traced run measures the layers of a BD step and of a served
request without touching the package: :func:`instrument` replaces the
public entry points of ``pme``, ``krylov``, ``core`` and ``serve``
with thin wrappers that record one span per call, and
:meth:`Instrumentation.close` puts the originals back.  A span is
``(id, parent, name, start, end, attrs)``; the parent is the span open
in the caller's context (a context variable, so concurrent asyncio
tasks each see their own parent).
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager

_current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None)


class Recorder:
    """Collects spans in memory; :meth:`write` dumps them as JSON lines."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, **attrs):
        """Record ``name`` around the body; yields the mutable attrs."""
        span_id = next(self._ids)
        parent = _current.get()
        token = _current.set(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            _current.reset(token)
            with self._lock:
                self.spans.append({"id": span_id, "parent": parent,
                                   "name": name, "start": start,
                                   "end": end, "attrs": attrs})

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(s) + "\n")


class Instrumentation:
    """The set of patched entry points; restores them on :meth:`close`.

    Operators built while instrumented are kept in :attr:`operators`
    until the caller harvests them with :meth:`take_operators`, so
    their phase timers can be read once they are no longer in use.
    """

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.operators: list = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Record a span named ``name`` around ``owner.attr``.

        ``after(attrs, args)`` may add attributes once the call returned
        (``args[0]`` is ``self`` for methods).
        """
        original = getattr(owner, attr)
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with recorder.span(name) as attrs:
                result = original(*args, **kwargs)
                if after is not None:
                    after(attrs, args)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def take_operators(self) -> list:
        ops, self.operators = self.operators, []
        return ops

    def close(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self.operators = []


def _columns(attrs, args) -> None:
    forces = args[1]
    attrs["cols"] = 1 if forces.ndim == 1 else int(forces.shape[1])


def instrument(recorder: Recorder) -> Instrumentation:
    """Wrap the layer entry points a BD step and a served request use."""
    from repro.core import integrators
    from repro.core.brownian import KrylovBrownianGenerator
    from repro.core.forces import RepulsiveHarmonic
    from repro.core.simulation import Simulation
    from repro.pme.operator import PMEOperator
    from repro.serve import protocol

    inst = Instrumentation(recorder)

    def built(attrs, args):
        op = args[0]
        attrs.update(n=op.n, K=op.params.K)
        inst.operators.append(op)

    def iterations(attrs, args):
        info = args[0].last_info
        attrs["iterations"] = 0 if info is None else int(info.iterations)

    # pme: parameter tuning (as the integrator calls it), operator
    # construction, the batched and the per-vector application
    inst.wrap(integrators, "tune_parameters", "pme.tune")
    inst.wrap(PMEOperator, "__init__", "pme.build", after=built)
    inst.wrap(PMEOperator, "apply_block", "pme.apply_block", after=_columns)
    inst.wrap(PMEOperator, "apply", "pme.apply", after=_columns)
    # krylov: block Lanczos M^(1/2) Z behind the Brownian generator
    inst.wrap(KrylovBrownianGenerator, "generate", "krylov.generate",
              after=iterations)
    # core: one Simulation.run call per lambda_RPY block, and forces
    inst.wrap(Simulation, "run", "core.run")
    inst.wrap(RepulsiveHarmonic, "forces", "core.forces")
    # serve: the client-side wire codec
    inst.wrap(protocol, "encode_array", "serve.codec")
    inst.wrap(protocol, "decode_array", "serve.codec")
    return inst
