"""Surface of revolution and the feature cache."""

import numpy as np
import pytest

from repro.db import ShapeDatabase
from repro.features import CachingPipeline, FeaturePipeline, mesh_content_key
from repro.geometry import (
    MeshError,
    box,
    pappus_volume,
    surface_of_revolution,
    translate,
    volume,
)


class TestRevolution:
    def test_cylinder_volume(self):
        prof = [[1.0, 0.0], [1.0, 2.0]]
        mesh = surface_of_revolution(prof, segments=128)
        assert volume(mesh) == pytest.approx(pappus_volume(prof), rel=1e-3)
        assert mesh.is_watertight()

    def test_cone_volume(self):
        prof = [[1.5, 0.0], [0.0, 3.0]]
        mesh = surface_of_revolution(prof, segments=128)
        assert volume(mesh) == pytest.approx(np.pi * 1.5**2, rel=1e-3)

    def test_stepped_shaft(self):
        prof = [[2.0, 0.0], [2.0, 1.0], [1.2, 1.0], [1.2, 3.0], [0.8, 3.0], [0.8, 5.0]]
        mesh = surface_of_revolution(prof, segments=96)
        assert mesh.is_watertight()
        assert volume(mesh) == pytest.approx(pappus_volume(prof), rel=5e-3)

    def test_sphere_like_profile(self):
        theta = np.linspace(0, np.pi, 24)
        prof = np.column_stack([np.sin(theta), -np.cos(theta)])
        mesh = surface_of_revolution(prof, segments=48)
        assert volume(mesh) == pytest.approx(4 / 3 * np.pi, rel=2e-2)
        assert mesh.is_watertight()

    def test_pappus_matches_known_values(self):
        assert pappus_volume([[2.0, 0.0], [2.0, 3.0]]) == pytest.approx(
            np.pi * 4 * 3
        )

    def test_validation(self):
        with pytest.raises(MeshError):
            surface_of_revolution([[1.0, 0.0]])
        with pytest.raises(MeshError):
            surface_of_revolution([[-1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(MeshError):
            surface_of_revolution([[1.0, 0.0], [1.0, 1.0]], segments=2)


class TestCachingPipeline:
    def test_hit_on_identical_geometry(self):
        cp = CachingPipeline(FeaturePipeline(voxel_resolution=10))
        mesh = box((2, 3, 4))
        first = cp.extract(mesh)
        second = cp.extract(mesh.copy())
        assert cp.hits == 1 and cp.misses == 1
        for name in first:
            assert np.array_equal(first[name], second[name])

    def test_miss_on_moved_geometry(self):
        cp = CachingPipeline(FeaturePipeline(voxel_resolution=10))
        mesh = box((2, 3, 4))
        cp.extract(mesh)
        cp.extract(translate(mesh, [1, 0, 0]))
        assert cp.misses == 2

    def test_key_includes_parameters(self):
        a = CachingPipeline(FeaturePipeline(voxel_resolution=10))
        b = CachingPipeline(FeaturePipeline(voxel_resolution=12))
        mesh = box((1, 1, 1))
        assert a._key(mesh) != b._key(mesh)

    def test_lru_eviction(self):
        cp = CachingPipeline(
            FeaturePipeline(feature_names=["geometric_params"], voxel_resolution=10),
            max_entries=2,
        )
        meshes = [box((1 + i * 0.1, 1, 1)) for i in range(3)]
        for mesh in meshes:
            cp.extract(mesh)
        cp.extract(meshes[0])  # evicted: must be a miss again
        assert cp.misses == 4

    def test_returned_arrays_are_copies(self):
        cp = CachingPipeline(
            FeaturePipeline(feature_names=["geometric_params"], voxel_resolution=10)
        )
        mesh = box((2, 2, 2))
        first = cp.extract(mesh)
        first["geometric_params"][0] = 999.0
        second = cp.extract(mesh)
        assert second["geometric_params"][0] != 999.0

    def test_usable_by_database(self):
        cp = CachingPipeline(FeaturePipeline(voxel_resolution=10))
        db = ShapeDatabase(cp)
        i1 = db.insert_mesh(box((2, 3, 4)))
        i2 = db.insert_mesh(box((2, 3, 4)))
        assert cp.hits == 1
        assert np.array_equal(
            db.get(i1).feature("principal_moments"),
            db.get(i2).feature("principal_moments"),
        )

    def test_content_key_sensitive_to_faces(self):
        mesh = box((1, 1, 1))
        other = mesh.flipped()
        assert mesh_content_key(mesh) != mesh_content_key(other)

    def test_validation(self):
        with pytest.raises(ValueError):
            CachingPipeline(FeaturePipeline(voxel_resolution=10), max_entries=0)
