"""The ``serve-mixed`` workload: ``python -m repro serve`` under mixed traffic.

One asyncio generator (this process's main thread) drives a server
subprocess, started with default settings and a private ``--work-dir``,
over two Unix-socket connections:

* an **apply phase**: an open loop of seeded Poisson
  ``mobility.apply`` requests at ``RATE`` per second, 90 % to system A
  (n=100) and 10 % to system B (n=400), both at ``e_p = 1e-2``; a few
  requests repeat an earlier force vector so the result cache answers
  them.  Every request is timed from its *due* time, never retried on
  ``shed``, and the generator's lateness is recorded;
* a **simulate phase**: a closed loop of served ``simulate`` jobs
  (n=16, distinct seeds, so the cache never answers).

The two phases run one after the other, not at once: on the current
server a running simulate job holds the only compute thread, and an
overlapping apply stream is then almost entirely shed (see
``README.md``).
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext

import numpy as np
from repro import Simulation, make_suspension
from repro.runtime.tasks import positions_digest
from repro.serve import SystemSpec, protocol
from repro.serve.batching import build_operator
from repro.serve.jobs import task_spec_for

from spans import Recorder, instrument
from stats import goodput, percentile, summarize

RATE = 50.0
SHARE_B = 0.1
REPEAT = 0.05
SYSTEM_A = {"n": 100, "e_p": 1e-2}
SYSTEM_B = {"n": 400, "e_p": 1e-2}
SIM_SYSTEM = {"n": 16}
SIM_STEPS = 32
#: Latency limit (seconds) an apply must meet to count as goodput.
APPLY_LIMIT = 0.05
#: Share of the measured window given to the apply phase.
APPLY_SHARE = 0.5
SETUPS = 3
#: Seconds to wait for answers still outstanding after a phase ends.
GRACE = 15.0
START_TIMEOUT = 60.0


class Server:
    """A ``python -m repro serve`` subprocess on a private socket."""

    def __init__(self, root: str, scratch: str):
        self.dir = tempfile.mkdtemp(prefix="serve-", dir=scratch)
        # relative to the repository root, which is every process's cwd,
        # so the path stays short of the AF_UNIX length limit
        self.socket = os.path.relpath(os.path.join(self.dir, "s.sock"),
                                      root)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self._log = open(os.path.join(self.dir, "server.log"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", self.socket,
             "--work-dir", os.path.join(self.dir, "jobs")],
            cwd=root, env=env, stdout=self._log, stderr=subprocess.STDOUT)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self._log.close()


class Connection:
    """One JSON-lines connection; answers are matched to requests by id."""

    def __init__(self, reader, writer):
        self._reader = reader
        self._writer = writer
        self._pending: dict[str, asyncio.Future] = {}
        self._task = asyncio.get_running_loop().create_task(self._read())

    @classmethod
    async def open(cls, path: str, deadline: float) -> "Connection":
        while True:
            try:
                reader, writer = await asyncio.open_unix_connection(
                    path, limit=2 ** 25)
                return cls(reader, writer)
            except OSError:
                if time.perf_counter() > deadline:
                    raise
                await asyncio.sleep(0.02)

    async def _read(self) -> None:
        while True:
            line = await self._reader.readline()
            if not line:
                break
            message = json.loads(line)
            if "event" in message:
                continue
            future = self._pending.pop(str(message.get("id")), None)
            if future is not None and not future.done():
                future.set_result((time.perf_counter(), message))
        for future in self._pending.values():
            if not future.done():
                future.set_exception(ConnectionError("server closed"))

    def send(self, message: dict) -> asyncio.Future:
        """Write one request; the future resolves to (t_answer, response)."""
        future = asyncio.get_running_loop().create_future()
        self._pending[str(message["id"])] = future
        self._writer.write(protocol.encode_message(message))
        return future

    async def close(self) -> None:
        self._writer.close()
        await self._writer.wait_closed()
        await self._task


def make_schedule(seed: int, duration: float) -> list[dict]:
    """Seeded Poisson arrivals over ``duration`` seconds."""
    rng = np.random.default_rng([seed, 1])
    schedule: list[dict] = []
    seen = {"A": [], "B": []}
    t = 0.0
    while True:
        t += rng.exponential(1.0 / RATE)
        if t >= duration:
            return schedule
        name = "B" if rng.random() < SHARE_B else "A"
        system = SYSTEM_B if name == "B" else SYSTEM_A
        if seen[name] and rng.random() < REPEAT:
            forces = seen[name][int(rng.integers(len(seen[name])))]
        else:
            forces = rng.standard_normal(3 * system["n"])
            seen[name].append(forces)
        schedule.append({"t": t, "name": name, "system": system,
                         "forces": forces})


async def _apply(conn, item, due, sent_at, recorder) -> dict:
    request_id = f"a{item['index']}"
    span = (recorder.span("serve.apply", id=request_id, system=item["name"])
            if recorder is not None else nullcontext({}))
    with span as attrs:
        message = {"op": "mobility.apply", "id": request_id,
                   "system": item["system"],
                   "forces": protocol.encode_array(item["forces"])}
        try:
            t_answer, response = await asyncio.wait_for(
                conn.send(message), GRACE + item["window"])
        except (asyncio.TimeoutError, ConnectionError):
            attrs["status"] = "timeout"
            return {"status": "timeout"}
        status = response["status"]
        attrs["status"] = status
        out = {"status": status, "reason": response.get("reason"),
               "latency": t_answer - due, "from_send": t_answer - sent_at}
        if status == "ok":
            out["velocities"] = protocol.decode_array(
                response["result"]["velocities"])
            out["cached"] = bool(response["result"].get("cached"))
        return out


async def apply_phase(conns, schedule, window, recorder) -> dict:
    """Send every request at its due time; wait for all answers."""
    loop = asyncio.get_running_loop()
    tasks, late = [], []
    start = time.perf_counter() + 0.01
    for index, item in enumerate(schedule):
        due = start + item["t"]
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        sent_at = time.perf_counter()
        late.append(max(0.0, sent_at - due))
        item = {**item, "index": index, "window": window}
        tasks.append(loop.create_task(
            _apply(conns[index % len(conns)], item, due, sent_at, recorder)))
    results = await asyncio.gather(*tasks)
    return {"results": results, "late": late}


async def simulate_phase(conn, seed: int, budget: float, recorder) -> dict:
    """Closed loop of served simulates for about ``budget`` seconds."""
    jobs = []
    start = time.perf_counter()
    k = 0
    while True:
        job_seed = seed * 1000 + k
        request_id = f"s{seed}-{k}"
        span = (recorder.span("serve.simulate", id=request_id, seed=job_seed)
                if recorder is not None else nullcontext({}))
        with span as attrs:
            t0 = time.perf_counter()
            try:
                t_answer, response = await asyncio.wait_for(conn.send({
                    "op": "simulate", "id": request_id,
                    "system": SIM_SYSTEM, "steps": SIM_STEPS,
                    "seed": job_seed}), GRACE + budget)
                status = response["status"]
                result = response.get("result", {})
            except (asyncio.TimeoutError, ConnectionError):
                t_answer, status, result = time.perf_counter(), "timeout", {}
            attrs["status"] = status
        jobs.append({"seed": job_seed, "status": status,
                     "state": result.get("state"),
                     "digest": result.get("digest"),
                     "cached": result.get("cached"),
                     "latency": t_answer - t0})
        k += 1
        elapsed = time.perf_counter() - start
        if elapsed + jobs[-1]["latency"] > budget:
            return {"jobs": jobs, "wall": elapsed}


async def _start(server: Server) -> list:
    """Connect and warm both operators; returns the two connections."""
    conns = [await Connection.open(server.socket,
                                   time.perf_counter() + START_TIMEOUT)
             for _ in range(2)]
    rng = np.random.default_rng(12345)
    warm = [conns[0].send({
        "op": "mobility.apply", "id": f"warm-{i}", "system": system,
        "forces": protocol.encode_array(
            rng.standard_normal(3 * system["n"]))})
        for i, system in enumerate((SYSTEM_A, SYSTEM_B))]
    for future in warm:
        _t, response = await asyncio.wait_for(future, START_TIMEOUT)
        if response["status"] != "ok":
            raise RuntimeError(f"warm-up apply failed: {response}")
    return conns


async def _stats(conn) -> dict:
    _t, response = await asyncio.wait_for(
        conn.send({"op": "stats", "id": "stats"}), START_TIMEOUT)
    return response["result"]


def _boot(root: str, scratch: str) -> tuple:
    """Start a server and wait until both operators are warm."""
    t0 = time.perf_counter()
    server = Server(root, scratch)
    loop = asyncio.new_event_loop()
    try:
        conns = loop.run_until_complete(_start(server))
    except BaseException:
        loop.close()
        server.stop()
        raise
    return server, loop, conns, time.perf_counter() - t0


def _shutdown(server, loop, conns) -> None:
    try:
        for conn in conns:
            loop.run_until_complete(conn.close())
    finally:
        loop.close()
        server.stop()


def _run_pass(loop, conns, seed, seconds, recorder) -> dict:
    apply_window = APPLY_SHARE * seconds
    schedule = make_schedule(seed, apply_window)
    # the generator's own garbage collections would stall it and show
    # up as server latency; the server keeps its default collector
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        applies = loop.run_until_complete(
            apply_phase(conns, schedule, apply_window, recorder))
        sims = loop.run_until_complete(simulate_phase(
            conns[1], seed, (1.0 - APPLY_SHARE) * seconds, recorder))
    finally:
        gc.enable()
        gc.unfreeze()
    return {"schedule": schedule, "applies": applies, "sims": sims,
            "window": apply_window}


def _direct_simulate(seed: int) -> tuple[str, float]:
    """Digest and seconds of the same TaskSpec run in-process."""
    task = task_spec_for(SystemSpec(**SIM_SYSTEM), seed, SIM_STEPS)
    t0 = time.perf_counter()
    suspension = make_suspension(task.n, task.phi, seed=task.system_seed)
    sim = Simulation(suspension, dt=task.dt, lambda_rpy=task.lambda_rpy,
                     seed=task.seed, pme_params=task.pme, e_k=task.e_k)
    traj, _stats = sim.run(task.n_steps, record_interval=task.n_steps)
    took = time.perf_counter() - t0
    return positions_digest(traj.positions[-1]), took


def _verify(run: dict, tally) -> dict:
    """Account every operation and check it against a direct answer."""
    operators = {name: build_operator(SystemSpec(**system))[0]
                 for name, system in (("A", SYSTEM_A), ("B", SYSTEM_B))}
    outcomes = []
    for item, res in zip(run["schedule"], run["applies"]["results"]):
        if res["status"] != "ok":
            tally.fail(f"apply {res['status']} {res.get('reason') or ''}"
                       .strip())
            outcomes.append(None)
            continue
        want = operators[item["name"]].apply_block(
            item["forces"].reshape(-1, 1))[:, 0]
        if tally.check(res["velocities"].tobytes() == want.tobytes(),
                       "served apply differs from direct"):
            outcomes.append(res["latency"])
        else:
            outcomes.append(None)
    direct_s = []
    for job in run["sims"]["jobs"]:
        if job["status"] != "ok" or job["state"] != "done":
            tally.fail(f"simulate {job['status']} {job['state'] or ''}"
                       .strip())
            continue
        digest, took = _direct_simulate(job["seed"])
        direct_s.append(took)
        tally.check(digest == job["digest"] and not job["cached"],
                    "served simulate digest differs from direct")
    return {"outcomes": outcomes, "direct_s": direct_s}


def _end_to_end(run: dict, checked: dict, setups, rss) -> tuple:
    results = run["applies"]["results"]
    lat = [r["latency"] for r in results if r["status"] == "ok"]
    done = [j for j in run["sims"]["jobs"] if j["state"] == "done"]
    sim_lat = [j["latency"] for j in done]
    blocks_per_job = SIM_STEPS / SystemSpec(**SIM_SYSTEM).lambda_rpy
    metrics = {
        "steps_per_s": SIM_STEPS * len(done) / run["sims"]["wall"],
        "block_s_p50": statistics.median(sim_lat) / blocks_per_job,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "apply_p50_ms": percentile(lat, 50) * 1e3,
        "apply_goodput_rps": goodput(checked["outcomes"], APPLY_LIMIT,
                                     run["window"]),
        "simulate_s_p50": statistics.median(sim_lat),
    }
    info = {"setups_s": list(setups), "applies": len(results),
            "apply_latency": summarize(lat, (50.0, 95.0, 99.0)),
            "apply_limit_s": APPLY_LIMIT, "rate_per_s": RATE,
            "cached_answers": sum(1 for r in results if r.get("cached")),
            "simulates": len(run["sims"]["jobs"]),
            "simulate_latency": summarize(sim_lat, (50.0,)),
            "generator_late": summarize(run["applies"]["late"])}
    return metrics, info


def run_untraced(root: str, scratch: str, seed: int, seconds: float,
                 tally) -> tuple:
    setups = []
    for _ in range(SETUPS - 1):
        server, loop, conns, took = _boot(root, scratch)
        _shutdown(server, loop, conns)
        setups.append(took)
    server, loop, conns, took = _boot(root, scratch)
    setups.append(took)
    try:
        run = _run_pass(loop, conns, seed, seconds, None)
        rss = server.peak_rss_mb()
    finally:
        _shutdown(server, loop, conns)
    checked = _verify(run, tally)
    return _end_to_end(run, checked, setups, rss)


def run_traced(root: str, scratch: str, seed: int, seconds: float, tally,
               out_prefix: str) -> tuple:
    """An untraced and a traced pass against one server.

    The passes draw their schedules from different sub-seeds, so the
    traced pass's repeats are not answered by the untraced pass's
    cache entries.  Server counters are differenced over the traced
    pass; server latency quantiles cover the server's whole life.
    """
    server, loop, conns, _took = _boot(root, scratch)
    recorder = Recorder()
    try:
        plain = _run_pass(loop, conns, 2 * seed, seconds / 2, None)
        before = loop.run_until_complete(_stats(conns[0]))
        inst = instrument(recorder)
        try:
            traced = _run_pass(loop, conns, 2 * seed + 1, seconds / 2,
                               recorder)
        finally:
            inst.close()
        after = loop.run_until_complete(_stats(conns[0]))
    finally:
        _shutdown(server, loop, conns)
    recorder.write(f"{out_prefix}.spans.jsonl")
    checked_plain = _verify(plain, tally)
    checked = _verify(traced, tally)

    def delta(*path):
        a, b = after, before
        for key in path:
            a, b = a[key], b[key]
        return a - b

    ok = [r for r in traced["applies"]["results"] if r["status"] == "ok"]
    client_p50 = percentile([r["from_send"] for r in ok], 50)
    # both passes, for more samples beyond the p99 (counted in info)
    both = ok + [r for r in plain["applies"]["results"]
                 if r["status"] == "ok"]
    server_lat = after["latency"]["mobility.apply"]
    hits, misses = delta("cache", "hits"), delta("cache", "misses")
    batches = delta("batcher", "batches_flushed")
    served_s = [j["latency"] for j in traced["sims"]["jobs"]
                if j["state"] == "done"]
    plain_steps = (SIM_STEPS * sum(1 for j in plain["sims"]["jobs"]
                                   if j["state"] == "done")
                   / plain["sims"]["wall"])
    traced_steps = SIM_STEPS * len(served_s) / traced["sims"]["wall"]
    metrics = {
        "serve.server_p50_ms": server_lat["p50_s"] * 1e3,
        "serve.server_p99_ms": server_lat["p99_s"] * 1e3,
        "serve.client_p99_ms": percentile([r["latency"] for r in both],
                                          99) * 1e3,
        "serve.transport_p50_ms": (client_p50 - server_lat["p50_s"]) * 1e3,
        "serve.batch_occupancy": (delta("batcher", "requests_batched")
                                  / batches if batches else 0.0),
        "serve.shed": delta("admission", "shed_total"),
        "serve.operator_builds": after["operators"]["builds"],
        "serve.cache_hit_ratio": (hits / (hits + misses)
                                  if hits + misses else 0.0),
        "serve.codec_s": recorder.total("serve.codec"),
        "serve.simulate_overhead": (statistics.median(served_s)
                                    / statistics.median(checked["direct_s"])),
        "serve.gen_late_p99_ms": percentile(traced["applies"]["late"],
                                            99) * 1e3,
        "bench.trace_overhead": traced_steps / plain_steps,
    }
    info = {"untraced_goodput_rps": goodput(checked_plain["outcomes"],
                                            APPLY_LIMIT, plain["window"]),
            "traced_goodput_rps": goodput(checked["outcomes"], APPLY_LIMIT,
                                          traced["window"]),
            "client_latency": summarize([r["latency"] for r in both]),
            "spans": len(recorder.spans)}
    return metrics, info
