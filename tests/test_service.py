"""The query-service daemon: wire protocol, admission control,
deadlines, snapshot reload, the jobs watcher, and the stdlib client
(including the ``three-dess serve`` / ``query --server`` CLI surface).

Servers bind port 0 (the OS picks a free port) so tests can run in
parallel workers without colliding.
"""

from __future__ import annotations

import json
import threading
import urllib.request

import numpy as np
import pytest

from repro.cli import main
from repro.core.config import SystemConfig
from repro.core.system import ThreeDESS
from repro.geometry import box, cylinder, save_mesh
from repro.robust.deadline import Deadline, DeadlineExceededError
from repro.service import (
    JobWatcher,
    ProtocolError,
    QueryServer,
    QueueFullError,
    ServiceClient,
    ServiceError,
    ServiceUnavailableError,
    SnapshotManager,
    decode_request,
)
from repro.service.server import AdmissionGate

from .faults import good_mesh

RES = 10


def small_config() -> SystemConfig:
    return SystemConfig(voxel_resolution=RES)


@pytest.fixture(scope="module")
def db_dir(tmp_path_factory):
    """A four-shape database saved to disk, served by every test."""
    root = tmp_path_factory.mktemp("service") / "db"
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


@pytest.fixture
def client(server):
    return ServiceClient(server.url, timeout=30.0)


# ----------------------------------------------------------------------
# Deadline primitive
# ----------------------------------------------------------------------
class TestDeadline:
    def test_after_and_remaining(self):
        d = Deadline.after(60.0)
        assert 0.0 < d.remaining() <= 60.0
        assert not d.expired()
        d.check("anywhere")  # no raise

    def test_expired_check_raises_with_context(self):
        d = Deadline.after(1e-9)
        while not d.expired():
            pass
        with pytest.raises(DeadlineExceededError) as err:
            d.check("index_probe")
        assert err.value.code == "service.deadline_exceeded"
        assert err.value.context["where"] == "index_probe"

    def test_non_positive_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline.after(0.0)

    def test_is_a_timeout(self):
        assert issubclass(DeadlineExceededError, TimeoutError)


# ----------------------------------------------------------------------
# Admission gate (unit)
# ----------------------------------------------------------------------
class TestAdmissionGate:
    def test_zero_queue_sheds_while_slot_held(self):
        gate = AdmissionGate(max_concurrent=1, queue_limit=0)
        entered = threading.Event()
        release = threading.Event()

        def hold():
            with gate.admit():
                entered.set()
                release.wait(10.0)

        worker = threading.Thread(target=hold, daemon=True)
        worker.start()
        assert entered.wait(10.0)
        # The one slot is busy and nobody may wait: immediate refusal.
        with pytest.raises(QueueFullError) as err:
            with gate.admit(retry_after=2.5):
                pass
        assert err.value.retry_after == 2.5
        release.set()
        worker.join(timeout=10.0)
        assert gate.active == 0 and gate.waiting == 0

    def test_expired_waiter_raises_deadline(self):
        gate = AdmissionGate(max_concurrent=1, queue_limit=4)
        release = threading.Event()
        entered = threading.Event()

        def hold():
            with gate.admit():
                entered.set()
                release.wait(10.0)

        worker = threading.Thread(target=hold, daemon=True)
        worker.start()
        assert entered.wait(10.0)
        with pytest.raises(DeadlineExceededError):
            with gate.admit(deadline=Deadline.after(0.05)):
                pass
        release.set()
        worker.join(timeout=10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionGate(0, 1)
        with pytest.raises(ValueError):
            AdmissionGate(1, -1)

    def test_waiting_and_active_read_under_lock(self):
        """Regression (RPL100): the ``waiting``/``active`` properties
        must take the gate lock — they used to read the counters
        lock-free, racing the condition-variable updates in admit()."""
        gate = AdmissionGate(max_concurrent=1, queue_limit=1)

        class RecordingLock:
            def __init__(self, inner):
                self._inner = inner
                self.entries = 0

            def __enter__(self):
                self.entries += 1
                return self._inner.__enter__()

            def __exit__(self, *exc_info):
                return self._inner.__exit__(*exc_info)

        gate._lock = RecordingLock(gate._lock)
        before = gate._lock.entries
        assert gate.waiting == 0
        assert gate.active == 0
        assert gate._lock.entries == before + 2


# ----------------------------------------------------------------------
# Wire protocol (unit)
# ----------------------------------------------------------------------
class TestProtocol:
    def test_decode_minimal(self):
        request, budget, wire_v = decode_request({"shape_id": 1})
        assert request.query == 1 and request.mode == "knn"
        assert budget is None
        assert wire_v == 1

    def test_deadline_ms_converted_to_seconds(self):
        _, budget, _ = decode_request({"shape_id": 1, "deadline_ms": 1500})
        assert budget == pytest.approx(1.5)

    def test_decode_v2_with_strategy(self):
        request, _, wire_v = decode_request(
            {
                "shape_id": 1,
                "v": 2,
                "mode": "cascade",
                "strategy": [
                    {"kind": "scan", "keep": 20, "feature_name": "principal_moments", "quantized": True},
                    {"kind": "rerank", "keep": 5, "feature_name": "principal_moments"},
                ],
            }
        )
        assert wire_v == 2
        assert request.mode == "cascade"
        assert request.strategy is not None
        assert [s.kind for s in request.strategy.stages] == ["scan", "rerank"]

    def test_strategy_requires_v2(self):
        with pytest.raises(ProtocolError):
            decode_request(
                {
                    "shape_id": 1,
                    "mode": "cascade",
                    "strategy": [
                        {"kind": "scan", "keep": 5, "feature_name": "principal_moments"}
                    ],
                }
            )

    def test_unsupported_version_rejected(self):
        with pytest.raises(ProtocolError):
            decode_request({"shape_id": 1, "v": 3})

    @pytest.mark.parametrize(
        "payload",
        [
            {},  # no query
            {"shape_id": 1, "vector": [1.0]},  # two queries
            {"shape_id": "one"},  # wrong type
            {"shape_id": 1, "bogus": True},  # unknown field
            {"shape_id": 1, "deadline_ms": -5},  # non-positive budget
            {"vector": []},  # empty vector
            {"mesh": {"vertices": []}},  # unbuildable mesh
            [1, 2, 3],  # not an object
        ],
    )
    def test_bad_payloads_rejected(self, payload):
        with pytest.raises(ProtocolError):
            decode_request(payload)


# ----------------------------------------------------------------------
# End-to-end HTTP round trips
# ----------------------------------------------------------------------
class TestSearchEndpoint:
    def test_knn_by_shape_id(self, client):
        response = client.search(shape_id=1, k=2)
        assert response["ok"] and response["generation"] == 1
        hits = client.hits(response)
        assert [h["rank"] for h in hits] == [1, 2]
        assert {h["shape_id"] for h in hits} == {2, 3}
        assert all(0.0 <= h["similarity"] <= 1.0 for h in hits)
        assert response["degraded"]["degraded_records"] == 0

    def test_mesh_round_trip(self, client):
        # A TriangleMesh is JSON-encoded client-side, rebuilt and
        # feature-extracted server-side.
        hits = client.hits(client.search(mesh=box((2, 3, 4)), k=1))
        assert hits[0]["name"] == "b1"

    def test_threshold_mode(self, client):
        response = client.search(shape_id=1, mode="threshold", threshold=0.0)
        assert len(client.hits(response)) == 3

    def test_multi_step_mode(self, client):
        # The multi_step mode and its steps field are gone from the wire
        # (the paper's plan travels as a v2 cascade strategy); a request
        # that still sends either is a bad request, not a default run.
        with pytest.raises(ServiceError) as err:
            client.search(shape_id=1, mode="multi_step")
        assert (err.value.status, err.value.code) == (400, "service.bad_request")
        steps = [["principal_moments", 3], ["geometric_params", 2]]
        for body in (
            {"shape_id": 1, "mode": "multi_step", "steps": steps},
            {"shape_id": 1, "mode": "cascade", "steps": steps, "v": 2},
        ):
            with pytest.raises(ServiceError) as err:
                client._call("POST", "/search", body)
            assert (err.value.status, err.value.code) == (
                400,
                "service.bad_request",
            )

    def test_v1_request_gets_v1_response(self, server):
        # A raw request without "v" must be answered byte-compatible
        # with the pre-versioning wire: no "v", no staged provenance.
        request = urllib.request.Request(
            f"{server.url}/search",
            data=json.dumps({"shape_id": 1, "k": 2}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=30.0) as resp:
            body = json.loads(resp.read().decode("utf-8"))
        assert "v" not in body and "stages" not in body
        assert all("stage" not in h for h in body["hits"])

    def test_v2_cascade_over_the_wire(self, client):
        response = client.search(
            shape_id=1,
            mode="cascade",
            k=2,
            strategy=[
                {
                    "kind": "scan",
                    "keep": 3,
                    "feature_name": "principal_moments",
                    "quantized": True,
                },
                {"kind": "rerank", "keep": 2, "feature_name": "principal_moments"},
            ],
        )
        assert response["v"] == 2 and response["mode"] == "cascade"
        assert [s["stage"] for s in response["stages"]] == [1, 2]
        assert response["stages"][0]["path"] == "quantized"
        assert response["stages"][0]["candidates_in"] == 4
        hits = client.hits(response)
        assert len(hits) == 2
        assert all(h["stage"] == 2 and h["path"] == "cascade" for h in hits)

    def test_client_negotiates_down_to_v1(self, client, monkeypatch):
        # Simulate a pre-versioning server: reject any body carrying
        # "v" with the old unknown-field 400, else pass through.
        real_call = client._call

        def legacy_call(method, path, body=None, **kwargs):
            if body is not None and "v" in body:
                raise ServiceError(
                    "unknown request field(s): v; expected a subset of ...",
                    status=400,
                    code="service.bad_request",
                )
            return real_call(method, path, body, **kwargs)

        monkeypatch.setattr(client, "_call", legacy_call)
        response = client.search(shape_id=1, k=1)
        assert response["ok"] and "v" not in response
        assert client._wire_v == 1
        # The downgrade sticks: the next call goes straight to v1.
        response = client.search(shape_id=1, k=1)
        assert response["ok"]

    def test_strategy_not_expressible_on_v1_server(self, client, monkeypatch):
        def legacy_call(method, path, body=None, **kwargs):
            assert body is not None and ("v" in body or "strategy" in body)
            raise ServiceError(
                "unknown request field(s): strategy, v; expected a subset of ...",
                status=400,
                code="service.bad_request",
            )

        monkeypatch.setattr(client, "_call", legacy_call)
        with pytest.raises(ServiceError) as err:
            client.search(shape_id=1, mode="cascade", strategy=[
                {"kind": "scan", "keep": 2, "feature_name": "principal_moments"},
            ])
        assert err.value.status == 400

    def test_unknown_shape_id_is_client_error(self, client):
        with pytest.raises(ServiceError) as err:
            client.search(shape_id=999)
        assert err.value.status == 400
        assert err.value.code == "service.unknown_reference"

    def test_malformed_json_is_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/search",
            data=b"{definitely not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=30.0)
        assert err.value.code == 400
        body = json.loads(err.value.read().decode("utf-8"))
        assert body["error"]["code"] == "service.bad_request"

    def test_unknown_endpoint_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client._call("GET", "/nope")
        assert err.value.status == 404
        assert err.value.code == "service.not_found"

    def test_deadline_expiry_is_504(self, client):
        with pytest.raises(ServiceError) as err:
            client.search(shape_id=1, deadline_ms=1e-4)
        assert err.value.status == 504
        assert err.value.code == "service.deadline_exceeded"

    def test_health_and_metrics(self, client):
        health = client.health()
        assert health["ok"] and health["shapes"] == 4
        assert health["admission"]["max_concurrent"] == 8
        client.search(shape_id=1, k=1)
        snapshot = client.metrics()
        assert snapshot["counters"]["service.requests"] >= 1
        assert snapshot["histograms"]["service.request.search"]["count"] >= 1


# ----------------------------------------------------------------------
# Concurrency, backpressure, reload-under-load
# ----------------------------------------------------------------------
class TestConcurrency:
    def test_sixteen_concurrent_clients_zero_failures(self, server):
        results: list = []
        errors: list = []
        barrier = threading.Barrier(16)

        def worker():
            client = ServiceClient(server.url, timeout=60.0)
            barrier.wait(timeout=30.0)
            try:
                for _ in range(3):
                    response = client.search(shape_id=1, k=2)
                    results.append(response["ok"])
            except Exception as exc:  # collected and asserted below
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
        assert errors == []
        assert len(results) == 48 and all(results)

    def test_queue_full_is_503_with_retry_after(self, db_dir):
        srv = QueryServer(
            SnapshotManager(db_dir, config=small_config()),
            port=0,
            max_concurrent=1,
            queue_limit=0,
            retry_after_s=2.0,
        )
        # Make the one executing request hold its slot until released.
        snapshot = srv.snapshots.current
        original = snapshot.system.search
        started = threading.Event()
        release = threading.Event()

        def slow_search(request, deadline=None):
            started.set()
            release.wait(30.0)
            return original(request, deadline=deadline)

        snapshot.system.search = slow_search
        srv.start()
        try:
            blocker_error: list = []

            def blocker():
                try:
                    ServiceClient(srv.url, timeout=60.0).search(shape_id=1)
                except Exception as exc:
                    blocker_error.append(exc)

            thread = threading.Thread(target=blocker)
            thread.start()
            assert started.wait(30.0)
            with pytest.raises(ServiceError) as err:
                ServiceClient(srv.url, timeout=60.0).search(shape_id=2)
            assert err.value.status == 503
            assert err.value.code == "service.queue_full"
            assert err.value.context["retry_after"] == "2"
            release.set()
            thread.join(timeout=60.0)
            assert blocker_error == []
        finally:
            release.set()
            srv.stop()

    def test_reload_under_load_drops_nothing(self, db_dir):
        srv = QueryServer(SnapshotManager(db_dir, config=small_config()), port=0)
        srv.start()
        try:
            stop = threading.Event()
            generations: list = []
            errors: list = []

            def querier():
                client = ServiceClient(srv.url, timeout=60.0)
                while not stop.is_set():
                    try:
                        response = client.search(shape_id=1, k=1)
                        generations.append(response["generation"])
                    except Exception as exc:
                        errors.append(exc)
                        return

            threads = [threading.Thread(target=querier) for _ in range(4)]
            for t in threads:
                t.start()
            admin = ServiceClient(srv.url, timeout=60.0)
            for _ in range(3):
                admin.reload()
            stop.set()
            for t in threads:
                t.join(timeout=60.0)
            assert errors == []
            assert generations, "queriers never completed a request"
            # Every response came from a well-defined generation, and the
            # final reload is visible to a fresh request.
            assert set(generations) <= {1, 2, 3, 4}
            assert admin.search(shape_id=1, k=1)["generation"] == 4
        finally:
            srv.stop()


# ----------------------------------------------------------------------
# Snapshot manager
# ----------------------------------------------------------------------
class TestSnapshotManager:
    def test_generation_increments_and_old_snapshot_survives(self, db_dir):
        manager = SnapshotManager(db_dir, config=small_config())
        first = manager.current
        assert first.generation == 1
        second = manager.reload()
        assert second.generation == 2
        assert manager.current is second
        # The old snapshot still answers queries for whoever holds it.
        from repro.search.api import SearchRequest

        assert first.system.search(SearchRequest(query=1, mode="knn", k=1)).hits

    def test_failed_reload_keeps_serving(self, db_dir, tmp_path):
        manager = SnapshotManager(db_dir, config=small_config())
        before = manager.current
        manager.directory = str(tmp_path / "missing")
        with pytest.raises(Exception):
            manager.reload()
        assert manager.current is before


# ----------------------------------------------------------------------
# Jobs watcher
# ----------------------------------------------------------------------
class TestJobWatcher:
    def test_idle_cycle_executes_nothing(self, db_dir, tmp_path):
        watcher = JobWatcher(db_dir, tmp_path / "q.jsonl", config=small_config())
        assert watcher.run_cycle() == 0
        assert watcher.jobs_executed == 0

    def test_heals_degraded_records_and_reloads(self, monkeypatch, tmp_path):
        import repro.features.base as base
        from repro.robust.errors import SkeletonizationError

        def broken_thin(voxels):
            raise SkeletonizationError("injected", code="skeleton.no_convergence")

        system = ThreeDESS(small_config())
        with monkeypatch.context() as patch:
            patch.setattr(base, "thin", broken_thin)
            result = system.insert_batch([good_mesh(), good_mesh(1.5)])
        assert result.degraded_ids == [1, 2]
        db = tmp_path / "db"
        system.save(db)

        manager = SnapshotManager(db, config=small_config())
        assert manager.current.degraded_records == 2

        watcher = JobWatcher(
            db,
            tmp_path / "q.jsonl",
            snapshots=manager,
            max_cycles=1,
            config=small_config(),
        )
        executed = watcher.run_cycle()
        # Two re-extract heals plus the warm-cache job priming the
        # reloaded serving snapshot.
        assert executed == 3
        # Healing saved the db and reloaded the serving snapshot.
        assert manager.current.generation == 2
        assert manager.current.degraded_records == 0

    def test_bounded_loop_stops_itself(self, db_dir, tmp_path):
        watcher = JobWatcher(
            db_dir,
            tmp_path / "q.jsonl",
            interval=0.05,
            max_cycles=2,
            config=small_config(),
        )
        watcher.start()
        watcher.join(timeout=60.0)
        assert watcher.cycles_run == 2

    def test_interval_validated(self, db_dir, tmp_path):
        with pytest.raises(ValueError):
            JobWatcher(db_dir, tmp_path / "q.jsonl", interval=0.0)


# ----------------------------------------------------------------------
# Client transport errors
# ----------------------------------------------------------------------
class TestClient:
    def test_unreachable_server(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=2.0)
        with pytest.raises(ServiceUnavailableError) as err:
            client.health()
        assert err.value.code == "service.unavailable"
        assert err.value.status == 0

    def test_bare_host_port_promoted(self):
        assert ServiceClient("localhost:8707").base_url == "http://localhost:8707"


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestServeCli:
    def test_query_against_running_server(self, server, db_dir, tmp_path, capsys):
        mesh_path = tmp_path / "query.off"
        save_mesh(box((2, 3, 4)), mesh_path)
        code = main(
            ["query", str(db_dir), str(mesh_path), "--server", server.url, "-k", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "generation 1" in out
        assert "b1" in out

    def test_query_unreachable_server_exits_9(self, db_dir, tmp_path, capsys):
        mesh_path = tmp_path / "query.off"
        save_mesh(box((2, 3, 4)), mesh_path)
        code = main(
            ["query", str(db_dir), str(mesh_path), "--server", "127.0.0.1:9"]
        )
        err = capsys.readouterr().err
        assert code == 9
        assert "service.unavailable" in err

    def test_jobs_watch_single_cycle(self, db_dir, capsys):
        code = main(["jobs", "watch", str(db_dir), "--max-cycles", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "watched 1 cycle(s)" in out


# ----------------------------------------------------------------------
# Keep-alive client transport
# ----------------------------------------------------------------------
class TestKeepAlive:
    def test_connection_reused_across_calls(self, server):
        client = ServiceClient(server.url)
        client.health()
        conn = client._conn
        assert conn is not None
        client.search(shape_id=1, k=2)
        assert client._conn is conn
        client.close()
        assert client._conn is None

    def test_keep_alive_off_never_persists(self, server):
        client = ServiceClient(server.url, keep_alive=False)
        client.health()
        client.search(shape_id=1, k=2)
        assert client._conn is None

    def test_stale_socket_retried_once(self, server):
        client = ServiceClient(server.url)
        client.health()
        # Simulate the server closing an idle kept-alive socket.
        client._conn.sock.close()
        out = client.health()
        assert out["ok"] is True
        assert client._conn is not None
        client.close()

    def test_fresh_connection_failure_is_unavailable(self):
        client = ServiceClient("127.0.0.1:9", timeout=2.0)
        with pytest.raises(ServiceUnavailableError):
            client.health()
        assert client._conn is None

    def test_error_responses_keep_connection(self, server):
        client = ServiceClient(server.url)
        with pytest.raises(ServiceError) as err:
            client.search(shape_id=999999, k=2)
        assert err.value.status == 400
        conn = client._conn
        assert conn is not None
        assert client.health()["ok"] is True
        assert client._conn is conn
        client.close()

    def test_context_manager_closes(self, server):
        with ServiceClient(server.url) as client:
            client.health()
            assert client._conn is not None
        assert client._conn is None

    def test_healthz_reports_store(self, client):
        out = client.health()
        assert out["store"]["columns"] >= 1
        assert out["store"]["rows"] > 0
        assert out["store"]["bytes"] > 0
        assert isinstance(out["store"]["zero_copy"], bool)
