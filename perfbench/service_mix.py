"""The ``service-mix`` workload: an open-loop client against ``repro serve``.

The server runs in a child process (:mod:`launcher`) with two job
workers, one reserved per bulkhead class, and a fresh ``--data-dir``.
One single-threaded client sends a seeded schedule:

* interactive ``throughput`` jobs (seeded capacities inside each graph's
  bound box) and ``minimal-distribution`` jobs (seeded targets up to the
  first Pareto point) on modem, samplerate and satellite;
* batch ``dse`` jobs on seed-generated random consistent graphs, which
  share nothing, each capped at its lower-bound corner plus
  :data:`RANDOM_DSE_SLACK`;
* one ``dse`` of samplerate (up to size :data:`GALLERY_DSE_MAX_SIZE`)
  at :data:`GALLERY_DSE_AT` of the window, which fills samplerate's
  shared memo bank for every later interactive job on that graph.

Arrival times are a Poisson process conditioned on its count: a fixed
number of jobs per class, each due at a seeded uniform time in the
window.  The client sends each job when it is due and does nothing else
until the last one is sent; latencies run from the due time to the
server's ``finished_at`` stamp, read once per job afterwards.
"""

from __future__ import annotations

import json
import os
import random
import select
import signal
import socket
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import fronts
from measure import percentile

HERE = Path(__file__).resolve().parent

#: Job worker threads of the server: one reserved per class.
WORKERS = 2

#: Interactive and batch arrivals per second of window.  The interactive
#: capacity measured with this batch mix on a 2-core x86-64 host is about
#: 18 jobs/s (p90 0.57 s at 16 jobs/s, 2.0 s at 22 jobs/s, against the
#: limit below); at half of it queueing moved the interactive median by
#: up to 40% between runs, so the rate is lower (perfbench/README.md).
INTERACTIVE_PER_S = 4.0
BATCH_PER_S = 1.0

#: The interactive p90 limit that defines the capacity.
INTERACTIVE_P90_LIMIT_S = 1.0

#: Share of the window at which the samplerate DSE is due, and its size
#: cap: the DSE leaves about 600 records in samplerate's memo bank while
#: keeping the batch worker's share of the interpreter lock small.
GALLERY_DSE_AT = 0.25
GALLERY_DSE_MAX_SIZE = 40

#: Size slack of the random batch DSE jobs above their lower bound.
RANDOM_DSE_SLACK = 6

#: A run whose sends were later than this at p90 measured the client,
#: not the server; it is reported invalid.
LATE_P90_LIMIT_S = 0.05

#: How long the jobs may take to settle after the last send.
SETTLE_TIMEOUT_S = 120.0

#: Results re-checked against direct library calls after the window.
RECHECK = {"throughput": 8, "minimal-distribution": 4, "dse": 4}


class Client:
    """One keep-alive HTTP/1.1 connection, pipelined, without threads.

    :meth:`send` writes a request and returns at once; responses are
    read while the client waits for the next due time (:meth:`wait_until`)
    and matched to requests in order.  Every request carries an
    ``X-Trace-Id``.
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.socket = socket.create_connection((host, port), timeout=60)
        self.received = bytearray()
        self.responses: list[tuple[int, dict]] = []
        self.trace_ids: list[str] = []

    def send(self, method: str, path: str, payload=None) -> int:
        """Write one request; returns its index in :attr:`trace_ids`."""
        index = len(self.trace_ids)
        trace_id = f"pb-{index}"
        self.trace_ids.append(trace_id)
        body = json.dumps(payload).encode("utf-8") if payload is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"X-Trace-Id: {trace_id}\r\nAccept: application/json\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        self.socket.sendall(head.encode("ascii") + body)
        return index

    def wait_until(self, deadline: float) -> None:
        """Read responses as they arrive until ``time.monotonic()`` reaches
        *deadline*."""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            readable, _, _ = select.select([self.socket], [], [], remaining)
            if readable:
                self._receive()

    def response(self, index: int) -> tuple[int, dict]:
        """The response to request *index*, reading until it has arrived."""
        while len(self.responses) <= index:
            self._receive()
        return self.responses[index]

    def request(self, method: str, path: str, payload=None) -> tuple[int, dict]:
        return self.response(self.send(method, path, payload))

    def _receive(self) -> None:
        chunk = self.socket.recv(65536)
        if not chunk:
            raise RuntimeError("the server closed the connection")
        self.received += chunk
        while True:
            end = self.received.find(b"\r\n\r\n")
            if end < 0:
                return
            head = self.received[:end].decode("latin-1").split("\r\n")
            length = next(
                int(line.split(":", 1)[1])
                for line in head
                if line.lower().startswith("content-length:")
            )
            if len(self.received) < end + 4 + length:
                return
            body = bytes(self.received[end + 4 : end + 4 + length])
            del self.received[: end + 4 + length]
            self.responses.append((int(head[0].split()[1]), json.loads(body)))

    def close(self) -> None:
        self.socket.close()


class Server:
    """``repro serve`` in a child process, launched through :mod:`launcher`."""

    def __init__(self, work: Path, trace: bool):
        self.report_path = work / "server-report.json"
        self.log_path = work / "server.log"
        data_dir = work / "data"
        env = dict(os.environ, REPRO_CACHE_DIR=str(work / "cache"), TMPDIR=str(work / "tmp"))
        (work / "tmp").mkdir(parents=True, exist_ok=True)
        command = [
            sys.executable, str(HERE / "launcher.py"), str(self.report_path), "1" if trace else "0",
            "serve", "--port", "0", "--workers", str(WORKERS),
            "--bulkhead-interactive", "1", "--bulkhead-batch", "1",
            "--data-dir", str(data_dir),
        ]
        with self.log_path.open("w") as log:
            self.process = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=log, env=env, text=True
            )
        line = self.process.stdout.readline()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {self.log_tail()}")
        host, port = line.rsplit("http://", 1)[1].strip().rsplit(":", 1)
        self.host, self.port = host, int(port)

    def log_tail(self) -> str:
        lines = self.log_path.read_text(errors="replace").strip().splitlines()
        return " | ".join(lines[-3:]) or "no output"

    def stop(self) -> dict:
        """Drain the server (SIGTERM), wait for it and return its report."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
            raise RuntimeError("repro serve did not drain within 60 s") from None
        if self.process.returncode != 0:
            raise RuntimeError(f"repro serve exited {self.process.returncode}: {self.log_tail()}")
        return json.loads(self.report_path.read_text(encoding="utf-8"))


class ServiceMix:
    """Seeded inputs, the open-loop schedule and the checks."""

    def __init__(self, seed: int, seconds: int):
        from repro.buffers.bounds import lower_bound_distribution, upper_bound_distribution
        from repro.gallery import random_consistent_graph

        rng = random.Random(seed)
        self.window = float(seconds)
        self.reference = fronts.load_reference()
        self.graphs = {name: fronts.bml99_graph(name) for name in fronts.BML99}
        self.random_graphs = []
        batch_count = round(BATCH_PER_S * self.window)
        for _ in range(batch_count):
            graph = random_consistent_graph(rng, max_actors=5)
            self.random_graphs.append((graph, lower_bound_distribution(graph).size + RANDOM_DSE_SLACK))

        interactive_count = round(INTERACTIVE_PER_S * self.window)
        # Every (graph, kind) in equal shares, except that modem constraint
        # queries take three.  Sorted by latency the jobs then run: cheap
        # point probes on modem and satellite (1/4), satellite and modem
        # constraint queries (1/8 and 3/8, in either order as the host's
        # speed varies), samplerate jobs (1/4).  The printed median falls
        # inside the modem constraint queries with 1/8 to spare on either
        # side, instead of on the edge between two classes of jobs.
        combos = [
            (graph, kind)
            for graph in self.graphs
            for kind in ("throughput", "minimal-distribution")
        ] + [("modem", "minimal-distribution")] * 2
        jobs = [combos[i % len(combos)] for i in range(interactive_count)]
        rng.shuffle(jobs)
        boxes = {
            name: (lower_bound_distribution(graph), upper_bound_distribution(graph))
            for name, graph in self.graphs.items()
        }
        #: [(due offset, graph key, kind, params)], sorted by due time.
        self.schedule: list[tuple[float, str, str, dict]] = []
        for graph, kind in jobs:
            if kind == "throughput":
                low, high = boxes[graph]
                params = {"capacities": {c: rng.randint(low[c], high[c]) for c in low}}
            else:
                first = Fraction(self.reference[graph][0][1])
                params = {"throughput": str(fronts.draw_in(rng, Fraction(0), first))}
            self.schedule.append((rng.uniform(0, self.window), graph, kind, params))
        for index, (_graph, cap) in enumerate(self.random_graphs):
            self.schedule.append(
                (rng.uniform(0, self.window), f"random{index}", "dse", {"max_size": cap})
            )
        self.schedule.append(
            (GALLERY_DSE_AT * self.window, "samplerate", "dse", {"max_size": GALLERY_DSE_MAX_SIZE})
        )
        self.schedule.sort(key=lambda entry: entry[0])
        self.recheck_rng = random.Random(rng.random())

    # -- set-up ------------------------------------------------------------
    def register(self, client: Client) -> dict[str, str]:
        """POST every graph; returns ``{graph key: fingerprint}``."""
        from repro.io.jsonio import graph_to_dict

        documents = {name: graph for name, graph in self.graphs.items()}
        documents.update(
            {f"random{i}": graph for i, (graph, _cap) in enumerate(self.random_graphs)}
        )
        fingerprints = {}
        for key, graph in documents.items():
            status, body = client.request("POST", "/v1/graphs", graph_to_dict(graph))
            if status not in (200, 201):
                raise RuntimeError(f"registering {key} answered {status}: {body}")
            fingerprints[key] = body["fingerprint"]
        return fingerprints

    # -- the timed window ----------------------------------------------------
    def send_all(self, client: Client, fingerprints: dict[str, str]) -> dict:
        """Send every job when it is due; return what was sent.

        Sends do not wait for their responses, so a slow admission on
        the server delays the jobs (and shows in their latency), not the
        schedule.
        """
        entries = []
        late = []
        start_mono = time.monotonic()
        start_wall = time.time()
        for offset, graph, kind, params in self.schedule:
            client.wait_until(start_mono + offset)
            late.append(time.monotonic() - start_mono - offset)
            index = client.send(
                "POST",
                "/v1/jobs",
                {"graph": fingerprints[graph], "kind": kind, "params": params},
            )
            entries.append(
                {"due": start_wall + offset, "graph": graph, "kind": kind, "params": params, "request": index}
            )
        sent, refused = [], []
        for entry in entries:
            status, body = client.response(entry.pop("request"))
            if status == 202:
                entry["id"] = body["id"]
                sent.append(entry)
            else:
                entry["error"] = f"submit answered {status}: {body.get('error')}"
                refused.append(entry)
        return {"sent": sent, "refused": refused, "late": late, "first_due": start_wall + self.schedule[0][0]}

    def settle(self, client: Client, expected: int) -> None:
        """Wait, after the last send, until no job is queued or running."""
        deadline = time.monotonic() + SETTLE_TIMEOUT_S
        while True:
            _status, health = client.request("GET", "/v1/healthz")
            jobs = health["jobs"]
            if jobs["queued"] + jobs["running"] == 0 and sum(jobs.values()) >= expected:
                return
            if time.monotonic() > deadline:
                raise RuntimeError(f"jobs did not settle within {SETTLE_TIMEOUT_S} s: {jobs}")
            time.sleep(0.25)

    def collect(self, client: Client, sent: list[dict]) -> None:
        """Read each job once: state, result and server stamps."""
        for entry in sent:
            status, job = client.request("GET", f"/v1/jobs/{entry['id']}")
            if status != 200:
                entry["error"] = f"GET job answered {status}"
                continue
            entry["job"] = job

    # -- checks ---------------------------------------------------------------
    def check(self, sent: list[dict]) -> None:
        """Mark each job's ``error``: wrong state or wrong answer.

        Every minimal-distribution answer and the gallery DSE front are
        checked against the reference fronts; a seeded sample of
        results is recomputed by direct library calls.
        """
        from repro.analysis.throughput import throughput
        from repro.buffers.explorer import explore_design_space, minimal_distribution_for_throughput

        by_kind: dict[str, list[dict]] = {}
        for entry in sent:
            job = entry.get("job")
            if job is None:
                continue
            if job["state"] != "done":
                entry["error"] = f"{entry['kind']} on {entry['graph']} ended {job['state']}: {job.get('error')}"
                continue
            by_kind.setdefault(entry["kind"], []).append(entry)
            result = job["result"]
            label = f"{entry['kind']} {entry['graph']}"
            if entry["kind"] == "minimal-distribution":
                entry["error"] = fronts.check_constraint(
                    Fraction(entry["params"]["throughput"]),
                    result["size"] if result["found"] else None,
                    Fraction(result["throughput"]) if result["found"] else None,
                    self.reference[entry["graph"]],
                    label,
                )
            elif entry["kind"] == "dse" and entry["graph"] in self.reference:
                entry["error"] = fronts.check_front(
                    job_front(result),
                    fronts.cut_at(self.reference[entry["graph"]], entry["params"]["max_size"]),
                    label,
                )
        for kind, count in RECHECK.items():
            # The gallery DSE was compared with its reference front above.
            candidates = [
                entry
                for entry in by_kind.get(kind, ())
                if entry.get("error") is None and entry["graph"] not in self.reference
            ] if kind == "dse" else [
                entry for entry in by_kind.get(kind, ()) if entry.get("error") is None
            ]
            for entry in self.recheck_rng.sample(candidates, min(count, len(candidates))):
                result = entry["job"]["result"]
                graph = self.graph_of(entry["graph"])
                label = f"recheck {kind} {entry['graph']}"
                if kind == "throughput":
                    want = throughput(graph, entry["params"]["capacities"])
                    if Fraction(result["throughput"]) != want:
                        entry["error"] = f"{label}: service {result['throughput']} != library {want}"
                elif kind == "minimal-distribution":
                    point = minimal_distribution_for_throughput(
                        graph, Fraction(entry["params"]["throughput"])
                    )
                    if point is None or point.size != result["size"]:
                        entry["error"] = f"{label}: service size {result['size']} != library {point}"
                else:
                    direct = explore_design_space(graph, max_size=entry["params"].get("max_size"))
                    entry["error"] = fronts.check_front(
                        job_front(result), fronts.canonical(direct.front), label
                    )

    def graph_of(self, key: str):
        if key in self.graphs:
            return self.graphs[key]
        return self.random_graphs[int(key[len("random"):])][0]


def job_front(result: dict) -> fronts.Canonical:
    """The comparable form of a DSE job's ``pareto_front``."""
    return [
        [point["size"], point["throughput"], sorted(sorted(w.items()) for w in point["witnesses"])]
        for point in result["pareto_front"]
    ]


def latency_metrics(sent: list[dict]) -> dict:
    """End-to-end latencies (due time to ``finished_at``), interactive
    execution times and per-class queue/exec totals, from the stamps."""
    latencies = {"interactive": [], "batch": []}
    interactive_exec = []
    totals = {f"jobs.{cls}.{part}": 0.0 for cls in latencies for part in ("wait_s", "exec_s")}
    finished = []
    for entry in sent:
        job = entry.get("job")
        if job is None or job["state"] != "done" or entry.get("error"):
            continue
        cls = job["class"]
        latencies[cls].append(job["finished_at"] - entry["due"])
        totals[f"jobs.{cls}.wait_s"] += job["started_at"] - job["submitted_at"]
        totals[f"jobs.{cls}.exec_s"] += job["finished_at"] - job["started_at"]
        finished.append(job["finished_at"])
        if cls == "interactive":
            interactive_exec.append(job["finished_at"] - job["started_at"])
    return {
        "interactive_exec_s": interactive_exec,
        "interactive_p50_s": percentile(latencies["interactive"], 0.5),
        "interactive_p90_s": percentile(latencies["interactive"], 0.9),
        "batch_p50_s": percentile(latencies["batch"], 0.5),
        "last_finished": max(finished),
        "counts": {cls: len(values) for cls, values in latencies.items()},
        "totals": totals,
    }
