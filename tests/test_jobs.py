"""Tests for :mod:`repro.jobs`: the killable worker pool, the durable
job queue/runner, and background re-extraction healing (including the
``three-dess jobs``/``verify`` CLI surface)."""

from __future__ import annotations

import hashlib
import json
import os
import time

import numpy as np
import pytest

from repro.cli import main
from repro.core.config import SystemConfig
from repro.core.system import ThreeDESS
from repro.db.database import ShapeDatabase
from repro.db.storage import verify_database
from repro.features.pipeline import FeaturePipeline
from repro.features.parallel import ParallelPipeline
from repro.jobs import (
    RE_EXTRACT,
    JobQueue,
    JobRunner,
    WorkerPool,
    make_reextract_handler,
)
from repro.robust.errors import (
    RETRYABLE_CODES,
    FailureInfo,
    SkeletonizationError,
    is_retryable,
)
from repro.search.api import SearchRequest

from .faults import good_mesh, hanging_mesh, register_sleeping_extractor

RES = 10


# ----------------------------------------------------------------------
# Worker-pool task handlers (module level: picklable by reference)
# ----------------------------------------------------------------------
def _toy_factory():
    def handle(payload):
        kind = payload[0] if isinstance(payload, tuple) else payload
        if kind == "hang":
            time.sleep(120.0)
        if kind == "slow":
            time.sleep(payload[1])
        if kind == "boom":
            raise ValueError("deterministic boom")
        if kind == "die":
            os._exit(13)
        return ("ok", payload, os.getpid())

    return handle


class TestWorkerPool:
    def test_results_ordered_and_workers_reused(self):
        with WorkerPool(_toy_factory, workers=2) as pool:
            first = pool.map(["a", "b", "c", "d"])
            second = pool.map(["e", "f"])
        assert [r.index for r in first] == [0, 1, 2, 3]
        assert all(r.ok and r.attempts == 1 for r in first + second)
        assert [r.value[1] for r in first] == ["a", "b", "c", "d"]
        pids_first = {r.value[2] for r in first}
        pids_second = {r.value[2] for r in second}
        assert len(pids_first) <= 2
        # Second map reuses the same live workers: no new PIDs appear.
        assert pids_second <= pids_first
        assert pool.respawns == 0

    def test_hung_task_killed_other_in_flight_tasks_survive(self):
        with WorkerPool(
            _toy_factory, workers=2, task_timeout=2.0, retries=0
        ) as pool:
            start = time.monotonic()
            results = pool.map([("slow", 1.0), "hang", "x", "y"])
            elapsed = time.monotonic() - start
        assert elapsed < 30, "deadline sweep must not wait out the hang"
        # The slow-but-legal task shared the pool with the hang and
        # still completed — only the offending worker was killed.
        assert results[0].ok and results[2].ok and results[3].ok
        hung = results[1]
        assert not hung.ok
        assert hung.failure.code == "extract.timeout"
        assert "timed out" in hung.failure.message
        assert pool.respawns == 1

    def test_timeout_retried_on_fresh_worker(self):
        with WorkerPool(
            _toy_factory, workers=1, task_timeout=1.0, retries=1
        ) as pool:
            result = pool.run("hang")
            assert not result.ok
            assert result.failure.code == "extract.timeout"
            assert result.attempts == 2
            assert pool.respawns == 2
            # The pool respawns lazily and keeps serving.
            assert pool.run("after").ok

    def test_deterministic_failure_returned_worker_survives(self):
        with WorkerPool(_toy_factory, workers=1, retries=2) as pool:
            before = pool.run("pid-probe")
            result = pool.run("boom")
            after = pool.run("pid-probe")
        assert not result.ok
        assert result.attempts == 1, "permanent failures must not retry"
        assert "boom" in result.failure.message
        # Raising inside the handler costs no process.
        assert before.value[2] == after.value[2]
        assert pool.respawns == 0

    def test_worker_crash_classified_and_retried(self):
        with WorkerPool(_toy_factory, workers=1, retries=1) as pool:
            result = pool.run("die")
            assert not result.ok
            assert result.failure.code == "extract.worker_crash"
            assert result.attempts == 2
            assert pool.run("alive").ok

    def test_closed_pool_rejects_work(self):
        pool = WorkerPool(_toy_factory, workers=1)
        assert pool.run("x").ok
        pool.close()
        pool.close()  # idempotent
        assert pool.alive_workers == 0
        with pytest.raises(RuntimeError, match="closed"):
            pool.map(["y"])

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            WorkerPool(_toy_factory, workers=0)
        with pytest.raises(ValueError):
            WorkerPool(_toy_factory, task_timeout=0.0)
        with pytest.raises(ValueError):
            WorkerPool(_toy_factory, retries=-1)


class TestRetryClassification:
    def test_transient_codes_retryable(self):
        for code in ("extract.timeout", "extract.worker_crash",
                     "extract.MemoryError"):
            assert code in RETRYABLE_CODES
            assert is_retryable(code)

    def test_deterministic_codes_permanent(self):
        for code in ("mesh.zero_volume", "skeleton.no_convergence",
                     "extract.ValueError", "storage.corrupt"):
            assert not is_retryable(code)


class TestJobQueue:
    def test_lifecycle_pending_running_done(self, tmp_path):
        with JobQueue(tmp_path / "q.jsonl") as queue:
            job = queue.enqueue("touch", {"n": 1})
            assert job.state == "pending" and job.attempts == 0
            claimed = queue.claim()
            assert claimed.job_id == job.job_id
            assert claimed.state == "running" and claimed.attempts == 1
            queue.complete(claimed)
            assert queue.get(job.job_id).state == "done"
            assert queue.claim() is None
            assert queue.counts()["done"] == 1
            assert not queue.pending_work()

    def test_claims_are_fifo(self, tmp_path):
        with JobQueue(tmp_path / "q.jsonl") as queue:
            ids = [queue.enqueue("touch", {"n": i}).job_id for i in range(3)]
            assert [queue.claim().job_id for _ in range(3)] == ids

    def test_dedupe_unfinished_jobs(self, tmp_path):
        with JobQueue(tmp_path / "q.jsonl") as queue:
            a = queue.enqueue(RE_EXTRACT, {"shape_id": 7})
            b = queue.enqueue(RE_EXTRACT, {"shape_id": 7})
            assert a.job_id == b.job_id
            assert len(queue) == 1
            job = queue.claim()
            queue.complete(job)
            # A finished job no longer blocks a fresh enqueue.
            c = queue.enqueue(RE_EXTRACT, {"shape_id": 7})
            assert c.job_id != a.job_id

    def test_failed_jobs_reclaim_until_dead(self, tmp_path):
        failure = FailureInfo(stage="jobs", code="jobs.test", message="nope")
        with JobQueue(tmp_path / "q.jsonl") as queue:
            queue.enqueue("touch", max_attempts=2)
            job = queue.claim()
            queue.fail(job, failure)
            assert job.state == "failed"
            job = queue.claim()  # failed jobs are re-claimable
            assert job.attempts == 2
            queue.fail(job, failure)
            assert job.state == "dead"
            assert job.error["code"] == "jobs.test"
            assert queue.claim() is None, "dead jobs are never re-claimed"

    def test_crash_resume_running_returns_to_pending(self, tmp_path):
        path = tmp_path / "q.jsonl"
        queue = JobQueue(path)
        queue.enqueue("touch", {"n": 1})
        queue.enqueue("touch", {"n": 2})
        queue.claim()  # crash here: never completed, handle never closed
        queue.close()

        resumed = JobQueue(path)
        counts = resumed.counts()
        assert counts["running"] == 0
        assert counts["pending"] == 2
        # The interrupted job keeps its consumed attempt.
        assert resumed.claim().attempts == 2
        resumed.close()

    def test_crash_resume_exhausted_attempts_go_dead(self, tmp_path):
        path = tmp_path / "q.jsonl"
        queue = JobQueue(path)
        queue.enqueue("touch", max_attempts=1)
        queue.claim()
        queue.close()

        resumed = JobQueue(path)
        job = resumed.jobs()[0]
        assert job.state == "dead"
        assert job.error["code"] == "jobs.interrupted"
        resumed.close()

    def test_truncated_tail_discarded_not_fatal(self, tmp_path):
        path = tmp_path / "q.jsonl"
        queue = JobQueue(path)
        queue.enqueue("touch", {"n": 1})
        done = queue.claim()
        queue.complete(done)
        queue.enqueue("touch", {"n": 2})
        queue.close()
        # Simulate a crash mid-append: the last line is cut in half.
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - len(raw.splitlines()[-1]) // 2 - 1])

        resumed = JobQueue(path)
        assert resumed.corrupt_lines == 1
        # The completed job's history is intact; the torn enqueue is
        # rolled back to its previous journaled state (absent here).
        assert resumed.get(done.job_id).state == "done"
        resumed.close()

    def test_journal_is_jsonl(self, tmp_path):
        path = tmp_path / "q.jsonl"
        with JobQueue(path) as queue:
            queue.enqueue("touch", {"n": 1})
            queue.complete(queue.claim())
        lines = path.read_text().strip().split("\n")
        snapshots = [json.loads(line) for line in lines]
        assert [snap["state"] for snap in snapshots] == [
            "pending", "running", "done",
        ]


class TestJobRunner:
    def test_drains_queue_and_reports(self, tmp_path):
        ran = []
        with JobQueue(tmp_path / "q.jsonl") as queue:
            for i in range(3):
                queue.enqueue("touch", {"n": i})
            runner = JobRunner(
                queue, {"touch": lambda job: ran.append(job.payload["n"])}
            )
            report = runner.run()
        assert report.ok
        assert report.executed == 3 and len(report.done) == 3
        assert ran == [0, 1, 2]
        assert "3 done" in report.summary()

    def test_unknown_job_type_fails_job(self, tmp_path):
        with JobQueue(tmp_path / "q.jsonl") as queue:
            queue.enqueue("mystery", max_attempts=1)
            report = JobRunner(queue).run()
            assert not report.ok
            assert report.dead and not report.done
            assert "no handler" in queue.jobs()[0].error["message"]

    def test_failing_handler_touches_job_once_per_drain(self, tmp_path):
        calls = []

        def explode(job):
            calls.append(job.attempts)
            raise RuntimeError("handler down")

        with JobQueue(tmp_path / "q.jsonl") as queue:
            queue.enqueue("touch", max_attempts=3)
            runner = JobRunner(queue, {"touch": explode})
            assert calls == [] and not runner.run().ok
            assert calls == [1], "one drain must not spin on a failing job"
            runner.run()
            report = runner.run()
        assert calls == [1, 2, 3]
        assert report.dead

    def test_max_jobs_caps_a_drain(self, tmp_path):
        with JobQueue(tmp_path / "q.jsonl") as queue:
            for i in range(4):
                queue.enqueue("touch", {"n": i})
            report = JobRunner(queue, {"touch": lambda job: None}).run(
                max_jobs=2
            )
            assert report.executed == 2
            assert queue.counts()["pending"] == 2


# ----------------------------------------------------------------------
# Re-extraction healing
# ----------------------------------------------------------------------
def _broken_thin(voxels):
    raise SkeletonizationError(
        "injected thinning failure", code="skeleton.no_convergence"
    )


@pytest.fixture
def corpus():
    return [good_mesh(), good_mesh(1.5), good_mesh(2.0)]


def _build_faulted_system(monkeypatch, corpus):
    """Ingest with skeletonization broken: every record degraded."""
    import repro.features.base as base

    system = ThreeDESS(SystemConfig(voxel_resolution=RES))
    with monkeypatch.context() as patch:
        patch.setattr(base, "thin", _broken_thin)
        result = system.insert_batch(corpus)
    assert result.degraded_ids == [1, 2, 3]
    return system


class TestReextractionHealing:
    def test_heal_restores_clean_ingest_state(self, monkeypatch, tmp_path, corpus):
        clean = ThreeDESS(SystemConfig(voxel_resolution=RES))
        clean.insert_batch(corpus)

        faulted = _build_faulted_system(monkeypatch, corpus)
        assert faulted.database.degraded_ids() == [1, 2, 3]

        queue_path = tmp_path / "jobs.jsonl"
        queued = faulted.enqueue_reextraction(queue_path)
        assert len(queued) == 3
        # Idempotent: re-enqueueing returns the same unfinished jobs.
        assert faulted.enqueue_reextraction(queue_path) == queued

        report = faulted.run_jobs(queue_path)
        assert report.ok and len(report.done) == 3
        assert faulted.database.degraded_ids() == []

        for shape_id in (1, 2, 3):
            healed = faulted.database.get(shape_id)
            reference = clean.database.get(shape_id)
            assert not healed.is_degraded()
            assert "missing.eigenvalues" not in healed.metadata
            assert sorted(healed.features) == sorted(reference.features)
            for fname, vec in reference.features.items():
                np.testing.assert_allclose(healed.features[fname], vec)

        # Search over the once-missing feature space now matches a
        # clean ingest exactly — vectors and index both healed.
        request = SearchRequest(query=1, mode="knn",
                                feature_name="eigenvalues", k=3)
        healed_hits = faulted.search(request)
        clean_hits = clean.search(request)
        assert healed_hits.shape_ids == clean_hits.shape_ids
        assert [h.distance for h in healed_hits.hits] == pytest.approx(
            [h.distance for h in clean_hits.hits]
        )
        assert all(not h.degraded for h in healed_hits.hits)

    def test_handler_reports_healing(self, monkeypatch, tmp_path, corpus):
        faulted = _build_faulted_system(monkeypatch, corpus)
        with JobQueue(tmp_path / "q.jsonl") as queue:
            queue.enqueue(RE_EXTRACT, {"shape_id": 2})
            runner = JobRunner(
                queue,
                {RE_EXTRACT: make_reextract_handler(faulted.database)},
            )
            report = runner.run()
        job_id = report.done[0]
        assert report.results[job_id] == {"shape_id": 2, "was_degraded": True}
        assert faulted.database.degraded_ids() == [1, 3]

    def test_reextract_missing_record_fails_job(self, tmp_path, corpus):
        system = ThreeDESS(SystemConfig(voxel_resolution=RES))
        system.insert_batch(corpus)
        with JobQueue(tmp_path / "q.jsonl") as queue:
            queue.enqueue(RE_EXTRACT, {"shape_id": 99}, max_attempts=1)
            report = system.run_jobs(queue)
        assert not report.ok and report.dead


class TestJobsCli:
    def _save_faulted_db(self, monkeypatch, tmp_path, corpus):
        faulted = _build_faulted_system(monkeypatch, corpus)
        db_dir = tmp_path / "db"
        faulted.save(db_dir)
        return db_dir

    def test_jobs_run_heals_and_saves(self, monkeypatch, tmp_path, capsys, corpus):
        db_dir = self._save_faulted_db(monkeypatch, tmp_path, corpus)
        assert main(["jobs", "run", str(db_dir)]) == 0
        out = capsys.readouterr().out
        assert "3 degraded record(s) queued" in out
        assert "healed database saved" in out
        assert os.path.exists(f"{db_dir}.jobs.jsonl")

        back = ThreeDESS.load(db_dir)
        assert back.database.degraded_ids() == []
        # Re-running is a no-op with exit 0 (nothing left to heal).
        assert main(["jobs", "run", str(db_dir)]) == 0
        capsys.readouterr()

    def test_jobs_status_lists_jobs(self, monkeypatch, tmp_path, capsys, corpus):
        db_dir = self._save_faulted_db(monkeypatch, tmp_path, corpus)
        assert main(["jobs", "status", str(db_dir)]) == 0
        assert "0 job(s)" in capsys.readouterr().out
        main(["jobs", "run", str(db_dir)])
        capsys.readouterr()
        assert main(["jobs", "status", str(db_dir)]) == 0
        out = capsys.readouterr().out
        assert "3 done" in out and RE_EXTRACT in out

    def test_jobs_run_exit_7_when_healing_fails(
        self, monkeypatch, tmp_path, capsys, corpus
    ):
        import repro.features.base as base

        db_dir = self._save_faulted_db(monkeypatch, tmp_path, corpus)
        # Skeletonization is *still* broken at healing time: every
        # re-extract job fails and the CLI must say so.
        monkeypatch.setattr(base, "thin", _broken_thin)
        assert main(["jobs", "run", str(db_dir)]) == 7
        err = capsys.readouterr().err
        assert "skeleton.no_convergence" in err


class TestVerifyCli:
    def _save_db(self, tmp_path, corpus):
        system = ThreeDESS(SystemConfig(voxel_resolution=RES))
        system.insert_batch(corpus)
        db_dir = tmp_path / "db"
        system.save(db_dir)
        return db_dir

    def test_verify_clean_exits_0(self, tmp_path, capsys, corpus):
        db_dir = self._save_db(tmp_path, corpus)
        assert main(["verify", str(db_dir)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_verify_corrupt_features_exits_6(self, tmp_path, capsys, corpus):
        from .faults import flip_byte

        db_dir = self._save_db(tmp_path, corpus)
        flip_byte(db_dir / "features.npz")
        assert main(["verify", str(db_dir)]) == 6
        captured = capsys.readouterr()
        assert "integrity problem" in captured.err

    def test_verify_pinpoints_damaged_record(self, tmp_path, capsys, corpus):
        db_dir = self._save_db(tmp_path, corpus)
        # Silently substitute record 2's vector and re-checksum the
        # archive file: only the per-record digest can catch this.
        features_path = db_dir / "features.npz"
        with np.load(features_path) as data:
            arrays = {key: np.asarray(data[key]) for key in data.files}
        arrays["2/eigenvalues"] = arrays["2/eigenvalues"] + 1.0
        np.savez(features_path, **arrays)
        manifest_path = db_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["checksums"]["features.npz"] = hashlib.sha256(
            features_path.read_bytes()
        ).hexdigest()
        manifest_path.write_text(json.dumps(manifest))

        problems = verify_database(db_dir)
        assert list(problems) == ["record:2"]
        assert main(["verify", str(db_dir)]) == 6
        captured = capsys.readouterr()
        assert "record:2" in captured.out
        assert "damaged record ids: 2" in captured.err


class TestPersistentPoolIngestion:
    def test_pool_strategies_equivalent(self):
        # The serial loop, the pool, and the pool under a deadline all
        # produce bitwise-identical outcomes; only the deadline path can
        # stop the hanging mesh.
        feature = register_sleeping_extractor()
        pipeline = FeaturePipeline(
            feature_names=["geometric_params", feature],
            voxel_resolution=RES,
        )
        meshes = [good_mesh(), good_mesh(1.5), good_mesh(2.0)]
        outcomes = {}
        for label, workers, timeout in (
            ("serial", 0, None),
            ("pool", 2, None),
            ("deadline", 2, 2.0),
        ):
            with ParallelPipeline(
                pipeline, workers=workers, task_timeout=timeout, retries=1
            ) as par:
                batch = meshes + [hanging_mesh()] if timeout else meshes
                outcomes[label] = par.extract_batch(batch)
        for label in ("pool", "deadline"):
            for a, b in zip(outcomes["serial"], outcomes[label]):
                assert a.ok and b.ok and a.index == b.index
                assert sorted(a.features) == sorted(b.features)
                for fname in a.features:
                    assert a.features[fname].tobytes() == b.features[fname].tobytes()
        hung = outcomes["deadline"][-1]
        assert hung.failure.code == "extract.timeout"
        assert hung.attempts == 2

    def test_insert_meshes_persistent_pool(self):
        feature = register_sleeping_extractor()
        pipeline = FeaturePipeline(
            feature_names=["geometric_params", feature],
            voxel_resolution=RES,
        )
        db = ShapeDatabase(pipeline)
        result = db.insert_meshes(
            [good_mesh(), hanging_mesh()],
            workers=2,
            timeout=2.0,
            retries=0,
            degraded=False,
        )
        assert result.shape_ids == [1, None]
        assert result.errors[0].code == "extract.timeout"
