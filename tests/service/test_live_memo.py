"""Jobs on one graph share its live memo: no per-job copy, no job-level
lock, the maximal throughput computed once per (graph, observe)."""

import random
import threading
import time
from fractions import Fraction

import repro.buffers.frontier as frontier
from repro.analysis.throughput import max_throughput, throughput
from repro.buffers.bounds import lower_bound_distribution, upper_bound_distribution
from repro.buffers.explorer import explore_design_space, minimal_distribution_for_throughput
from repro.gallery import modem, modem_modes, sample_rate_converter
from repro.service.jobs import JobManager, JobSpec
from repro.service.registry import GraphRegistry
from repro.service.resilience import Bulkhead


def wait_for(predicate, timeout=60.0, step=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(step)
    raise AssertionError("condition not reached within timeout")


def manager_for(graph, **kwargs):
    registry = GraphRegistry()
    fingerprint, _ = registry.add(graph)
    return JobManager(registry, **kwargs), fingerprint


def answer(job):
    """The comparable part of a finished job's result."""
    result = job.result
    if job.spec.kind == "throughput":
        return result["throughput"]
    if job.spec.kind == "minimal-distribution":
        return (result["size"], result["throughput"], result["distribution"])
    return result["pareto_front"]


def test_interactive_jobs_pass_a_dse_held_inside_its_probe_callback():
    graph = modem()
    observe = graph.actor_names[-1]
    manager, fingerprint = manager_for(
        graph, workers=2, bulkhead=Bulkhead(2, reserved={"interactive": 1})
    )
    held, release = threading.Event(), threading.Event()

    def hold(job, event):
        if job.spec.kind == "dse" and event.name == "probe_finish":
            held.set()
            release.wait(timeout=60)

    manager.probe_callback = hold
    capacities = dict(upper_bound_distribution(graph))
    constraint = max_throughput(graph, observe) / 2
    try:
        dse = manager.submit(JobSpec(kind="dse", fingerprint=fingerprint, observe=observe))
        assert held.wait(timeout=30)
        point = manager.submit(
            JobSpec(
                kind="throughput",
                fingerprint=fingerprint,
                observe=observe,
                params={"capacities": capacities},
            )
        )
        minimal = manager.submit(
            JobSpec(
                kind="minimal-distribution",
                fingerprint=fingerprint,
                observe=observe,
                params={"throughput": str(constraint)},
            )
        )
        # Neither waits for the DSE: the memo lock is not held across
        # its probe callback, nor for the whole job.
        wait_for(lambda: point.state == "done" and minimal.state == "done", timeout=30)
        assert dse.state == "running"
        release.set()
        wait_for(lambda: dse.state == "done")
    finally:
        release.set()
        manager.drain()
    assert point.result["throughput"] == str(throughput(graph, capacities, observe))
    direct = minimal_distribution_for_throughput(graph, constraint, observe)
    assert minimal.result["size"] == direct.size
    assert minimal.result["distribution"] == dict(direct.distribution)
    assert dse.result["pareto_front"] == explore_design_space(graph, observe).front.to_dicts()


def test_mixed_jobs_from_four_threads_match_direct_calls():
    graph = sample_rate_converter()
    observe = graph.actor_names[-1]
    lower, upper = lower_bound_distribution(graph), upper_bound_distribution(graph)
    maximum = max_throughput(graph, observe)
    manager, fingerprint = manager_for(graph, workers=4)
    bank = manager.registry.bank(fingerprint, observe)

    def specs(seed):
        rng = random.Random(seed)
        for round_ in range(4):
            yield JobSpec(
                kind="throughput",
                fingerprint=fingerprint,
                observe=observe,
                params={"capacities": {c: rng.randint(lower[c], upper[c]) for c in lower}},
            )
            yield JobSpec(
                kind="minimal-distribution",
                fingerprint=fingerprint,
                observe=observe,
                params={"throughput": str(maximum * rng.randint(1, 8) / 8)},
            )
            if round_ % 2 == 0:
                yield JobSpec(
                    kind="dse",
                    fingerprint=fingerprint,
                    observe=observe,
                    params={"max_size": lower.size + rng.randint(0, 6)},
                )

    submitted, errors, full = [], [], {}
    done = threading.Event()

    def submitter(seed):
        for spec in specs(seed):
            submitted.append(manager.submit(spec))

    def exporter():
        # Exports iterate the memo while the jobs write it; a full
        # record, once exported, never comes back thin.
        try:
            while not done.is_set():
                for entry in bank.snapshot()["memo"]:
                    key = tuple(entry["caps"])
                    if entry["blocked"] is not None:
                        full[key] = entry["blocked"]
                    elif key in full:
                        errors.append(f"{key} exported thin after a full record")
                time.sleep(0.001)
        except RuntimeError as error:  # pragma: no cover - what the test guards
            errors.append(repr(error))

    watcher = threading.Thread(target=exporter)
    watcher.start()
    threads = [threading.Thread(target=submitter, args=(seed,)) for seed in range(4)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wait_for(lambda: all(job.state == "done" for job in submitted), timeout=120)
    finally:
        done.set()
        watcher.join()
        manager.drain()
    assert errors == []
    assert len(submitted) == 40
    for job in submitted:
        params = job.spec.params
        if job.spec.kind == "throughput":
            want = str(throughput(graph, params["capacities"], observe))
        elif job.spec.kind == "minimal-distribution":
            point = minimal_distribution_for_throughput(
                graph, Fraction(params["throughput"]), observe
            )
            want = (point.size, str(point.throughput), dict(point.distribution))
        else:
            want = explore_design_space(
                graph, observe, max_size=params["max_size"]
            ).front.to_dicts()
        assert answer(job) == want, job.spec
    # Whatever each job found was memoised once, for all of them.
    for key, blocked in full.items():
        assert bank.records[key].space_blocked == frozenset(blocked)


def test_max_throughput_runs_once_per_graph(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return max_throughput(*args, **kwargs)

    monkeypatch.setattr(frontier, "max_throughput", counted)
    graph = modem()
    observe = graph.actor_names[-1]
    maximum = max_throughput(graph, observe)
    manager, fingerprint = manager_for(graph)
    try:
        jobs = [
            manager.submit(
                JobSpec(
                    kind="minimal-distribution",
                    fingerprint=fingerprint,
                    observe=observe,
                    params={"throughput": str(maximum * k / 5)},
                )
            )
            for k in range(1, 6)
        ]
        wait_for(lambda: all(job.state == "done" for job in jobs))
    finally:
        manager.drain()
    assert all(job.result["found"] for job in jobs)
    assert len(calls) == 1


def test_second_sadf_job_on_modem_modes_runs_no_probe():
    graph = modem_modes()
    manager, fingerprint = manager_for(graph)
    observe = graph.actor_names[-1]
    try:
        first = manager.submit(JobSpec(kind="dse-sadf", fingerprint=fingerprint, observe=observe))
        wait_for(lambda: first.state == "done")
        second = manager.submit(JobSpec(kind="dse-sadf", fingerprint=fingerprint, observe=observe))
        wait_for(lambda: second.state == "done")
    finally:
        manager.drain()
    assert first.result["stats"]["evaluations"] > 0
    assert second.result["stats"]["evaluations"] == 0
    assert second.result["pareto_front"] == first.result["pareto_front"]
