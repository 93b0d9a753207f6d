"""Wire-level resilience: client retries, circuit breaking, graceful
server drain, idempotent reloads, and the cache-warmup job.

The integration tests drive a real :class:`QueryServer` through the
chaos layer (:mod:`repro.robust.chaos`): injected request faults model a
melting-down server, and every scenario is deterministic from the plan
seed.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from queue import Empty, Queue
from random import Random

import pytest

from repro.core.config import SystemConfig
from repro.core.system import ThreeDESS
from repro.geometry import box, cylinder
from repro.jobs import JobQueue, JobRunner
from repro.obs import get_registry
from repro.robust import chaos
from repro.service import (
    STATE_DRAINING,
    STATE_HEALTHY,
    CircuitBreaker,
    CircuitOpenError,
    QueryServer,
    RetryPolicy,
    ServiceClient,
    ServiceError,
    ServiceUnavailableError,
    SnapshotManager,
    WARM_CACHE,
    WarmCacheHandler,
    warm_system,
)

RES = 10


def small_config() -> SystemConfig:
    return SystemConfig(voxel_resolution=RES)


@pytest.fixture(scope="module")
def db_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("resilience") / "db"
    system = ThreeDESS(small_config())
    system.insert(box((2, 3, 4)), name="b1", group="boxes")
    system.insert(box((2.1, 3.1, 3.9)), name="b2", group="boxes")
    system.insert(box((1.9, 2.8, 4.2)), name="b3", group="boxes")
    system.insert(cylinder(1, 4, 16), name="c1", group="cyls")
    system.save(root)
    return root


@pytest.fixture
def server(db_dir):
    srv = QueryServer(SnapshotManager(db_dir, config=small_config()), port=0)
    srv.start()
    yield srv
    srv.stop()


# ----------------------------------------------------------------------
# RetryPolicy (unit)
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-1.0)

    def test_full_jitter_stays_under_exponential_cap(self):
        policy = RetryPolicy(base_delay_s=0.1, max_delay_s=10.0)
        rng = Random(0)
        for attempt in range(6):
            for _ in range(50):
                d = policy.delay(attempt, rng)
                assert 0.0 <= d <= 0.1 * (2.0**attempt)

    def test_max_delay_caps_the_jitter(self):
        policy = RetryPolicy(base_delay_s=1.0, max_delay_s=0.25)
        rng = Random(0)
        assert all(policy.delay(8, rng) <= 0.25 for _ in range(100))

    def test_retry_after_bumps_the_delay(self):
        policy = RetryPolicy(base_delay_s=0.01, max_delay_s=0.01)
        assert policy.delay(0, Random(0), retry_after=1.5) == 1.5

    def test_seed_makes_jitter_deterministic(self):
        policy = RetryPolicy(base_delay_s=0.1, seed=99)
        a = [policy.delay(i, Random(99)) for i in range(5)]
        b = [policy.delay(i, Random(99)) for i in range(5)]
        assert a == b


# ----------------------------------------------------------------------
# CircuitBreaker (unit, driven by a fake clock)
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def make(self, **kwargs):
        now = [0.0]
        defaults = dict(
            window=10,
            failure_threshold=0.5,
            min_samples=4,
            reset_timeout_s=5.0,
            clock=lambda: now[0],
        )
        defaults.update(kwargs)
        return CircuitBreaker(**defaults), now

    def test_stays_closed_below_min_samples(self):
        breaker, _ = self.make()
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_opens_at_failure_threshold(self):
        breaker, _ = self.make()
        for _ in range(2):
            breaker.record_success()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_half_open_after_reset_timeout_then_closes_on_success(self):
        breaker, now = self.make()
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state == "open"
        now[0] += 5.0
        assert breaker.state == "half-open"
        assert breaker.allow()  # the single probe
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        breaker, now = self.make()
        for _ in range(4):
            breaker.record_failure()
        now[0] += 5.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        # ... and the fresh open period starts from the probe failure.
        now[0] += 5.0
        assert breaker.state == "half-open"

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0.0)
        with pytest.raises(ValueError):
            CircuitBreaker(window=0)

    def test_client_fails_fast_when_open(self, server):
        breaker, now = self.make()
        for _ in range(4):
            breaker.record_failure()
        requests_before = get_registry().counter("service.requests").value
        client = ServiceClient(server.url, breaker=breaker)
        with pytest.raises(CircuitOpenError):
            client.health()
        # Failed fast: nothing touched the wire.
        assert get_registry().counter("service.requests").value == requests_before


# ----------------------------------------------------------------------
# Retry + breaker against a 30%-fault server (acceptance c)
# ----------------------------------------------------------------------
FAULTY_PLAN = {
    "seed": 42,
    "faults": [{"point": "service.request", "kind": "error", "rate": 0.3}],
}


class TestFaultyServer:
    def run_load(self, server, queries: int = 20):
        client = ServiceClient(
            server.url,
            timeout=30.0,
            retry=RetryPolicy(
                max_attempts=6,
                base_delay_s=0.001,
                max_delay_s=0.005,
                retry_statuses=(500, 502, 503),
                seed=7,
            ),
            breaker=CircuitBreaker(
                window=8, failure_threshold=0.9, min_samples=8,
                reset_timeout_s=0.01,
            ),
        )
        with chaos.active_plan(FAULTY_PLAN) as ctl:
            for _ in range(queries):
                response = client.search(shape_id=1, k=2)
                assert len(response["hits"]) >= 1
            injected = ctl.fired.get("service.request", 0)
            hits = ctl.hits.get("service.request", 0)
        client.close()
        return injected, hits, client.breaker.state

    def test_sustains_30_percent_faults_and_ends_closed(self, server):
        injected, hits, state = self.run_load(server)
        # Faults really flowed (~30% of hits) yet every query succeeded.
        assert injected >= 3
        assert hits >= 20
        assert state == "closed"

    def test_fault_schedule_is_deterministic_from_the_seed(self, server):
        first = self.run_load(server)
        second = self.run_load(server)
        assert first == second

    def test_unretried_faults_surface_as_500(self, server):
        client = ServiceClient(server.url)  # no retry policy
        plan = {"faults": [{"point": "service.request", "kind": "error",
                            "at": 1}]}
        with chaos.active_plan(plan):
            with pytest.raises(ServiceError) as err:
                client.search(shape_id=1, k=2)
        assert err.value.status == 500
        client.close()


# ----------------------------------------------------------------------
# Idempotent reloads (zero duplicate side effects)
# ----------------------------------------------------------------------
class TestIdempotentReload:
    def test_retried_reload_applies_exactly_once(self, server):
        """The response to the first reload dies on the wire *after* the
        snapshot swapped; the retry must replay the server's cached
        answer instead of swapping again."""
        client = ServiceClient(
            server.url,
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.001,
                              retry_statuses=(500,), seed=3),
        )
        start_gen = client.health()["generation"]
        replays_before = get_registry().counter(
            "service.idempotent_replays"
        ).value
        plan = {"faults": [{"point": "service.response.write",
                            "kind": "error", "at": 1,
                            "exception": "BrokenPipeError"}]}
        with chaos.active_plan(plan):
            result = client.reload()
        assert result["generation"] == start_gen + 1
        assert client.health()["generation"] == start_gen + 1  # not +2
        assert (
            get_registry().counter("service.idempotent_replays").value
            == replays_before + 1
        )
        client.close()

    def test_distinct_reloads_use_distinct_keys(self, server):
        client = ServiceClient(server.url)
        gen_a = client.reload()["generation"]
        gen_b = client.reload()["generation"]
        assert gen_b == gen_a + 1  # no accidental replay across calls
        client.close()

    def test_idempotency_cache_is_bounded(self, server):
        for i in range(140):
            server.idempotent_store(f"key-{i}", {"i": i})
        assert server.idempotent_lookup("key-0") is None
        assert server.idempotent_lookup("key-139") == {"i": 139}


# ----------------------------------------------------------------------
# Timeout semantics: a timed-out connection is discarded, never retried
# ----------------------------------------------------------------------
class TestTimeoutDiscard:
    def test_timed_out_connection_is_closed_and_not_retried(
        self, server, monkeypatch
    ):
        system = server.snapshots.current.system
        original = system.search
        calls = []
        release = threading.Event()

        def slow_search(request, deadline=None):
            calls.append(1)
            release.wait(5.0)
            return original(request, deadline=deadline)

        monkeypatch.setattr(system, "search", slow_search)
        client = ServiceClient(
            server.url,
            timeout=0.3,
            retry=RetryPolicy(max_attempts=4, base_delay_s=0.001,
                              retry_statuses=(500,)),
        )
        with pytest.raises(ServiceUnavailableError) as err:
            client.search(shape_id=1, k=2)
        assert err.value.timed_out
        # Not retried (the server may still be working on it) ...
        assert len(calls) == 1
        # ... and the poisoned keep-alive socket was discarded.
        assert client._conn is None
        release.set()
        monkeypatch.setattr(system, "search", original)
        assert client.search(shape_id=1, k=2)["hits"]
        client.close()


# ----------------------------------------------------------------------
# Health states and graceful drain (acceptance a)
# ----------------------------------------------------------------------
def raw_healthz(url: str) -> tuple:
    """(status, body) for GET /healthz, tolerating non-2xx statuses."""
    try:
        with urllib.request.urlopen(f"{url}/healthz", timeout=10.0) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode("utf-8"))


class TestDrain:
    def test_initial_state_is_healthy(self, server):
        assert server.state == STATE_HEALTHY
        status, body = raw_healthz(server.url)
        assert status == 200
        assert body["ok"] is True
        assert body["state"] == "healthy"

    def test_drain_waits_for_inflight_and_sheds_new_work(
        self, server, monkeypatch
    ):
        system = server.snapshots.current.system
        original = system.search
        release = threading.Event()

        def gated_search(request, deadline=None):
            release.wait(10.0)
            return original(request, deadline=deadline)

        monkeypatch.setattr(system, "search", gated_search)
        inflight_result = {}

        def inflight_call():
            client = ServiceClient(server.url, timeout=30.0)
            try:
                inflight_result["response"] = client.search(shape_id=1, k=2)
            finally:
                client.close()

        worker = threading.Thread(target=inflight_call, daemon=True)
        worker.start()
        deadline = time.monotonic() + 10.0
        while server.inflight == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.inflight == 1

        drain_result = {}
        drainer = threading.Thread(
            target=lambda: drain_result.update(
                clean=server.drain(deadline_s=10.0)
            ),
            daemon=True,
        )
        drainer.start()
        deadline = time.monotonic() + 10.0
        while not server.draining and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.state == STATE_DRAINING

        # Probes keep answering (503 + the draining state) ...
        status, body = raw_healthz(server.url)
        assert status == 503
        assert body["ok"] is False
        assert body["state"] == "draining"
        # ... while new work is shed with a retryable 503.
        shed_client = ServiceClient(server.url, timeout=10.0)
        with pytest.raises(ServiceError) as err:
            shed_client.search(shape_id=1, k=2)
        assert err.value.status == 503
        assert err.value.code == "service.draining"
        shed_client.close()

        # The admitted request still completes: zero dropped responses.
        release.set()
        worker.join(timeout=10.0)
        drainer.join(timeout=10.0)
        assert drain_result["clean"] is True
        assert inflight_result["response"]["hits"]

    def test_drain_deadline_expiry_reports_unclean(self, server, monkeypatch):
        system = server.snapshots.current.system
        original = system.search
        release = threading.Event()
        monkeypatch.setattr(
            system,
            "search",
            lambda request, deadline=None: (
                release.wait(10.0),
                original(request, deadline=deadline),
            )[1],
        )

        def stuck_call():
            client = ServiceClient(server.url, timeout=30.0)
            try:
                client.search(shape_id=1, k=2)
            except ServiceError:
                pass
            finally:
                client.close()

        worker = threading.Thread(target=stuck_call, daemon=True)
        worker.start()
        deadline = time.monotonic() + 10.0
        while server.inflight == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.drain(deadline_s=0.2) is False
        release.set()
        worker.join(timeout=10.0)

    def test_drain_is_idempotent(self, server):
        assert server.drain(deadline_s=1.0) is True
        assert server.drain(deadline_s=1.0) is True

    def test_drain_under_16_client_load_drops_nothing(
        self, db_dir, monkeypatch
    ):
        """Acceptance (a): 16 concurrent clients, drain mid-load — every
        admitted request completes, late arrivals get the retryable
        draining 503, nothing is dropped on the floor."""
        server = QueryServer(
            SnapshotManager(db_dir, config=small_config()),
            port=0,
            max_concurrent=16,
            queue_limit=64,
        )
        server.start()
        try:
            system = server.snapshots.current.system
            original = system.search
            monkeypatch.setattr(
                system,
                "search",
                lambda request, deadline=None: (
                    time.sleep(0.02),
                    original(request, deadline=deadline),
                )[1],
            )
            stop = threading.Event()
            outcomes = [[] for _ in range(16)]
            unexpected = []

            def load(slot):
                client = ServiceClient(server.url, timeout=30.0)
                try:
                    while not stop.is_set():
                        try:
                            response = client.search(shape_id=1, k=2)
                            outcomes[slot].append(
                                ("ok", len(response["hits"]))
                            )
                        except ServiceError as exc:
                            if exc.code == "service.draining":
                                outcomes[slot].append(("draining", 0))
                                return
                            if isinstance(exc, ServiceUnavailableError):
                                outcomes[slot].append(("down", 0))
                                return
                            raise
                # repro-lint: disable=RPL001 -- the assertion below
                except Exception as exc:
                    unexpected.append(exc)  # re-raised as a test failure
                finally:
                    client.close()

            workers = [
                threading.Thread(target=load, args=(slot,), daemon=True)
                for slot in range(16)
            ]
            for worker in workers:
                worker.start()
            deadline = time.monotonic() + 10.0
            while (
                sum(len(o) for o in outcomes) < 32
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            clean = server.drain(deadline_s=10.0)
            stop.set()
            for worker in workers:
                worker.join(timeout=10.0)
            assert not unexpected, unexpected
            assert clean is True
            flat = [kind for slots in outcomes for kind, _ in slots]
            assert flat.count("ok") >= 32  # real load was in flight
            # Every thread ended via success/shed — nothing dropped.
            for slots in outcomes:
                assert all(
                    kind in ("ok", "draining", "down") for kind, _ in slots
                )
        finally:
            server.stop()


# ----------------------------------------------------------------------
# SIGTERM end-to-end: the CLI drains and exits 0 (acceptance a)
# ----------------------------------------------------------------------
class TestSigterm:
    def test_serve_drains_on_sigterm_and_exits_zero(self, db_dir):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        env.pop("REPRO_CHAOS", None)
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve",
             str(db_dir), "--port", "0", "--drain-deadline", "10"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            cwd="/root/repo",
            env=env,
        )
        try:
            url = None
            deadline = time.monotonic() + 60.0
            lines = []
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if not line:
                    break
                lines.append(line)
                if " on http://" in line:
                    url = line.rsplit(" on ", 1)[1].strip()
                    break
            assert url, f"server never came up: {''.join(lines)}"
            status, body = raw_healthz(url)
            assert status == 200 and body["state"] == "healthy"
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60.0)
            assert proc.returncode == 0
            assert "drained; shutting down" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10.0)

    def test_serve_ready_line_reaches_a_pipe_without_unbuffered_io(
        self, db_dir
    ):
        # A supervisor learns the port --port 0 picked from the ready
        # line, so it must arrive while the server runs, not at exit,
        # even with block-buffered stdout (no -u, no PYTHONUNBUFFERED).
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(repo, "src"), env.get("PYTHONPATH")])
        )
        env.pop("PYTHONUNBUFFERED", None)
        env.pop("REPRO_CHAOS", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(db_dir),
             "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            cwd=repo,
            env=env,
        )
        lines: "Queue[str]" = Queue()

        def pump() -> None:
            for line in proc.stdout:
                lines.put(line)

        reader = threading.Thread(target=pump, daemon=True)
        reader.start()
        try:
            seen = []
            deadline = time.monotonic() + 20.0
            while not any(" on http://" in line for line in seen):
                try:
                    seen.append(
                        lines.get(timeout=max(0.0, deadline - time.monotonic()))
                    )
                except Empty:
                    pytest.fail(f"no ready line within 20 s: {seen}")
            assert proc.poll() is None, "ready line arrived only at exit"
            # The line is printed before the serve loop installs its
            # SIGTERM handler; a health answer proves the loop is up.
            url = seen[-1].rsplit(" on ", 1)[1].strip()
            assert raw_healthz(url)[0] == 200
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)
            reader.join(timeout=10.0)
            proc.stdout.close()


# ----------------------------------------------------------------------
# Cache warmup (the warm-cache job type)
# ----------------------------------------------------------------------
class TestWarmup:
    def test_warm_system_touches_every_column(self, db_dir):
        system = ThreeDESS.load(db_dir, config=small_config(),
                                load_meshes=False)
        report = warm_system(system)
        assert report["columns"] == len(
            system.database.matrix_store.columns()
        )
        assert report["columns"] >= 1
        assert report["rows"] >= 4
        assert report["bytes"] > 0

    def test_warm_cache_job_runs_through_the_queue(self, db_dir, tmp_path):
        system = ThreeDESS.load(db_dir, config=small_config(),
                                load_meshes=False)
        with JobQueue(tmp_path / "jobs.jsonl") as queue:
            queue.enqueue(WARM_CACHE, {"generation": 1})
            report = JobRunner(
                queue, {WARM_CACHE: WarmCacheHandler(system)}
            ).run()
        assert report.executed == 1
        assert report.done

    def test_run_jobs_dispatches_warm_cache(self, db_dir, tmp_path):
        system = ThreeDESS.load(db_dir, config=small_config(),
                                load_meshes=False)
        with JobQueue(tmp_path / "jobs.jsonl") as queue:
            queue.enqueue(WARM_CACHE, {"generation": 1})
            report = system.run_jobs(queue)
        assert report.executed == 1
        # The measures the job warmed are still cached afterwards, keyed
        # on the current store generation: run_jobs must not drop them.
        generation = system.database.store_generation
        names = system.database.matrix_store.columns()
        assert names
        for fname in names:
            assert system.engine._measures[fname][0] == generation

    def test_snapshot_manager_warms_before_serving(self, db_dir):
        manager = SnapshotManager(
            db_dir, config=small_config(), warm=True
        )
        snap = manager.current
        assert snap.generation == 1
        assert len(snap.system.database) == 4
