"""Parallel ingestion, persistent feature cache, and bench harness."""

from __future__ import annotations

import os
from types import SimpleNamespace

import numpy as np
import pytest

from repro.db.database import ShapeDatabase
from repro.features import (
    CachingPipeline,
    FeaturePipeline,
    ParallelPipeline,
    PersistentFeatureStore,
    PipelineSpec,
    mesh_content_key,
)
from repro.geometry import box, cylinder, tube
from repro.geometry.mesh import TriangleMesh

RES = 8


def small_meshes():
    meshes = [
        box((4.0, 3.0, 2.0)),
        cylinder(1.0, 3.0, 16),
        tube(2.0, 1.0, 1.5, 16),
        box((1.0, 5.0, 1.0)),
    ]
    for mesh, name in zip(meshes, ["box", "cyl", "tube", "bar"]):
        mesh.name = name
    return meshes


def flat_mesh():
    """Zero-volume mesh: extraction raises, by design."""
    return TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]], name="flat")


class TestParallelDeterminism:
    def test_parallel_matches_serial_bitwise(self):
        meshes = small_meshes()

        def build(workers):
            db = ShapeDatabase(FeaturePipeline(voxel_resolution=RES))
            result = db.insert_meshes(meshes, workers=workers)
            return db, result

        db_serial, res_serial = build(0)
        db_parallel, res_parallel = build(2)
        assert res_serial.shape_ids == res_parallel.shape_ids
        assert not res_parallel.errors
        for shape_id in res_serial.inserted_ids:
            a = db_serial.get(shape_id)
            b = db_parallel.get(shape_id)
            assert a.name == b.name
            assert sorted(a.features) == sorted(b.features)
            for fname, vec in a.features.items():
                assert np.array_equal(vec, b.features[fname]), (shape_id, fname)

    def test_ids_follow_input_order(self):
        db = ShapeDatabase(FeaturePipeline(voxel_resolution=RES))
        result = db.insert_meshes(small_meshes(), workers=2)
        assert result.shape_ids == [1, 2, 3, 4]

    def test_outcomes_ordered_by_input_index(self):
        parallel = ParallelPipeline(
            FeaturePipeline(voxel_resolution=RES), workers=2
        )
        outcomes = parallel.extract_batch(small_meshes())
        assert [o.index for o in outcomes] == [0, 1, 2, 3]
        assert all(o.ok for o in outcomes)

    def test_spec_roundtrip(self):
        pipeline = FeaturePipeline(voxel_resolution=10, prune_spur_length=2)
        spec = PipelineSpec.of(pipeline)
        rebuilt = spec.build()
        assert rebuilt.feature_names == pipeline.feature_names
        assert rebuilt.voxel_resolution == 10
        assert rebuilt.prune_spur_length == 2

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            ParallelPipeline(FeaturePipeline(voxel_resolution=RES), workers=-1)


class TestWorkerFailureIsolation:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_bad_mesh_recorded_batch_completes(self, workers):
        meshes = small_meshes()
        meshes.insert(1, flat_mesh())
        db = ShapeDatabase(FeaturePipeline(voxel_resolution=RES))
        result = db.insert_meshes(meshes, workers=workers)
        assert len(result.errors) == 1
        assert result.errors[0].index == 1
        assert result.errors[0].name == "flat"
        assert "volume" in result.errors[0].message
        # The failure consumed no ID and aborted nothing.
        assert result.shape_ids == [1, None, 2, 3, 4]
        assert len(db) == 4

    def test_all_good_after_failure_match_serial(self):
        meshes = small_meshes()
        meshes.append(flat_mesh())
        serial = ShapeDatabase(FeaturePipeline(voxel_resolution=RES))
        parallel = ShapeDatabase(FeaturePipeline(voxel_resolution=RES))
        rs = serial.insert_meshes(meshes, workers=0)
        rp = parallel.insert_meshes(meshes, workers=2)
        assert rs.shape_ids == rp.shape_ids
        for shape_id in rs.inserted_ids:
            for fname, vec in serial.get(shape_id).features.items():
                assert np.array_equal(vec, parallel.get(shape_id).features[fname])


class TestPersistentCache:
    def test_rerun_hits_disk(self, tmp_path):
        store = PersistentFeatureStore(tmp_path)
        meshes = small_meshes()
        first = CachingPipeline(FeaturePipeline(voxel_resolution=RES), store=store)
        for mesh in meshes:
            first.extract(mesh)
        assert len(store) == len(meshes)

        second = CachingPipeline(FeaturePipeline(voxel_resolution=RES), store=store)
        for mesh in meshes:
            features = second.extract(mesh)
            assert all(np.isfinite(vec).all() for vec in features.values())
        assert second.misses == 0
        assert second.disk_hits == len(meshes)

    def test_disk_hit_matches_fresh_extraction(self, tmp_path):
        store = PersistentFeatureStore(tmp_path)
        mesh = small_meshes()[0]
        fresh = FeaturePipeline(voxel_resolution=RES).extract(mesh)
        CachingPipeline(FeaturePipeline(voxel_resolution=RES), store=store).extract(mesh)
        cached = CachingPipeline(
            FeaturePipeline(voxel_resolution=RES), store=store
        ).extract(mesh)
        assert sorted(cached) == sorted(fresh)
        for fname, vec in fresh.items():
            assert np.array_equal(vec, cached[fname])

    def test_truncated_file_is_miss_not_crash(self, tmp_path):
        store = PersistentFeatureStore(tmp_path)
        mesh = small_meshes()[0]
        pipeline = CachingPipeline(FeaturePipeline(voxel_resolution=RES), store=store)
        pipeline.extract(mesh)
        (path,) = [
            os.path.join(tmp_path, name)
            for name in os.listdir(tmp_path)
            if name.endswith(".npz")
        ]
        with open(path, "wb") as handle:
            handle.write(b"\x00garbage")

        recovered = CachingPipeline(
            FeaturePipeline(voxel_resolution=RES), store=store
        )
        features = recovered.extract(mesh)
        assert recovered.disk_hits == 0
        assert recovered.misses == 1
        assert all(np.isfinite(vec).all() for vec in features.values())
        # The corrupt entry was replaced by the re-extraction.
        assert store.load(recovered._key(mesh)) is not None

    def test_different_params_different_entries(self, tmp_path):
        store = PersistentFeatureStore(tmp_path)
        mesh = small_meshes()[0]
        CachingPipeline(FeaturePipeline(voxel_resolution=8), store=store).extract(mesh)
        CachingPipeline(FeaturePipeline(voxel_resolution=10), store=store).extract(mesh)
        assert len(store) == 2

    def test_clear(self, tmp_path):
        store = PersistentFeatureStore(tmp_path)
        CachingPipeline(
            FeaturePipeline(voxel_resolution=RES), store=store
        ).extract(small_meshes()[0])
        assert len(store) == 1
        store.clear()
        assert len(store) == 0


class TestContentKey:
    def test_shape_included_in_hash(self):
        # Same bytes, different array shapes must not collide (tobytes()
        # alone would).  Duck-typed stand-ins keep the buffers identical.
        data = np.arange(18, dtype=np.float64)
        faces = np.zeros((1, 3), dtype=np.int64)
        a = SimpleNamespace(vertices=data.reshape(6, 3), faces=faces)
        b = SimpleNamespace(vertices=data.reshape(3, 6), faces=faces)
        assert mesh_content_key(a) != mesh_content_key(b)

    def test_dtype_included_in_hash(self):
        ones64 = np.ones((2, 3), dtype=np.float64)
        # float32 buffer padded to the same byte length as the float64 one
        raw = ones64.tobytes()
        ones32 = np.frombuffer(raw, dtype=np.float32).reshape(2, 6)
        faces = np.zeros((1, 3), dtype=np.int64)
        a = SimpleNamespace(vertices=ones64, faces=faces)
        b = SimpleNamespace(vertices=ones32, faces=faces)
        assert a.vertices.tobytes() == b.vertices.tobytes()
        assert mesh_content_key(a) != mesh_content_key(b)

    def test_real_meshes_distinct(self):
        keys = {mesh_content_key(mesh) for mesh in small_meshes()}
        assert len(keys) == len(small_meshes())

    def test_stable_across_calls(self):
        mesh = small_meshes()[0]
        assert mesh_content_key(mesh) == mesh_content_key(mesh)


class TestBenchHarness:
    def test_quick_bench_schema(self, tmp_path):
        from repro.evaluation import bench

        report = bench.run_bench(quick=True)
        for key in ("schema_version", "revision", "machine", "params",
                    "ingestion", "query", "service"):
            assert key in report, key
        assert "thinning" not in report and "timeout_pool" not in report
        assert all(
            run["identical_to_serial"] for run in report["ingestion"]["parallel"]
        )
        assert "pipeline.skeletonize" in report["ingestion"]["stages"]

        out = tmp_path / "bench.json"
        bench.write_bench(report, str(out))
        import json

        loaded = json.loads(out.read_text())
        assert loaded["schema_version"] == bench.SCHEMA_VERSION
        assert all(
            run["failed"] == 0 for run in report["service"]["runs"]
        )
        summary = bench.format_summary(report)
        assert "ingestion" in summary and "thinning" not in summary
        assert "service" in summary
