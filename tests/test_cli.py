"""Command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.geometry import box, save_mesh


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "fig4"])
        assert args.name == "fig4"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_build_db_defaults(self):
        args = build_parser().parse_args(["build-db", "/tmp/x"])
        assert args.seed == 42
        assert args.resolution == 24
        assert args.workers == 0
        assert args.cache_dir is None

    def test_build_db_workers_and_cache(self):
        args = build_parser().parse_args(
            ["build-db", "/tmp/x", "--workers", "4", "--cache-dir", "/tmp/fc"]
        )
        assert args.workers == 4
        assert args.cache_dir == "/tmp/fc"

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.resolution == 32
        assert args.workers == "1,2,4"
        assert not args.quick
        args = build_parser().parse_args(["bench", "--quick", "--output", "b.json"])
        assert args.quick
        assert args.output == "b.json"


class TestCommands:
    def test_experiment_fig4(self, capsys, eval_db):
        # eval_db fixture guarantees the cache exists, keeping this fast.
        code = main(["experiment", "fig4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FIG4" in out
        assert "noise shapes: 27" in out

    def test_build_query_browse_roundtrip(self, tmp_path, capsys, monkeypatch):
        # A tiny corpus via a patched GROUP_SIZES would complicate things;
        # instead build a minimal DB by hand and exercise query/browse.
        from repro import SystemConfig, ThreeDESS

        sys3d = ThreeDESS(SystemConfig(voxel_resolution=10))
        sys3d.insert(box((2, 3, 4)), name="b1", group="boxes")
        sys3d.insert(box((2.2, 3.1, 3.8)), name="b2", group="boxes")
        sys3d.insert(box((5, 5, 1)), name="plate")
        sys3d.save(tmp_path / "db")

        mesh_path = tmp_path / "query.off"
        save_mesh(box((2, 3, 4)), mesh_path)

        code = main(["query", str(tmp_path / "db"), str(mesh_path), "-k", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "b1" in out

        code = main(["browse", str(tmp_path / "db")])
        out = capsys.readouterr().out
        assert code == 0
        assert "shapes]" in out

    def test_render_mesh_file_and_db_shape(self, tmp_path, capsys):
        from repro import SystemConfig, ThreeDESS

        mesh_path = tmp_path / "part.off"
        save_mesh(box((2, 3, 4)), mesh_path)
        out_svg = tmp_path / "part.svg"
        assert main(["render", str(mesh_path), str(out_svg)]) == 0
        assert out_svg.read_text().startswith("<svg")

        sys3d = ThreeDESS(SystemConfig(voxel_resolution=10))
        sys3d.insert(box((2, 3, 4)), name="b1")
        sys3d.save(tmp_path / "db")
        out_ppm = tmp_path / "b1.ppm"
        assert main(["render", str(tmp_path / "db"), str(out_ppm), "--id", "1"]) == 0
        assert out_ppm.read_bytes().startswith(b"P6")
        capsys.readouterr()

    def test_sketch_query(self, tmp_path, capsys):
        import numpy as np

        from repro import SystemConfig, ThreeDESS
        from repro.geometry import cylinder
        from repro.viewer import save_ppm

        cfg = SystemConfig(
            feature_names=["view_hu"], voxel_resolution=10
        )
        sys3d = ThreeDESS(cfg)
        sys3d.insert(box((4, 3, 1)), name="plate")
        sys3d.insert(cylinder(1, 5, 16), name="rod")
        sys3d.save(tmp_path / "db")

        drawing = np.zeros((64, 64, 3), dtype=np.uint8)
        drawing[20:44, 12:52] = 255  # white rectangle sketch
        save_ppm(drawing, tmp_path / "sketch.ppm")

        code = main(
            ["sketch", str(tmp_path / "db"), str(tmp_path / "sketch.ppm"), "-k", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "plate" in out

    def test_sketch_requires_view_features(self, tmp_path, capsys):
        import numpy as np

        from repro import SystemConfig, ThreeDESS
        from repro.viewer import save_ppm

        sys3d = ThreeDESS(SystemConfig(voxel_resolution=10))
        sys3d.insert(box((1, 2, 3)), name="b")
        sys3d.save(tmp_path / "db")
        drawing = np.zeros((16, 16, 3), dtype=np.uint8)
        save_ppm(drawing, tmp_path / "s.ppm")
        code = main(["sketch", str(tmp_path / "db"), str(tmp_path / "s.ppm")])
        out = capsys.readouterr().out
        assert code == 2
        assert "view_hu" in out

    def test_bench_writes_json(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "bench.json"
        code = main(
            [
                "bench",
                "--resolution", "8",
                "--shapes", "3",
                "--workers", "1",
                "--repeats", "1",
                "--output", str(out_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ingestion" in out and "query" in out
        report = json.loads(out_path.read_text())
        assert all(
            run["identical_to_serial"] for run in report["ingestion"]["parallel"]
        )
        assert report["params"]["resolution"] == 8

    def test_build_db_parallel_with_cache(self, tmp_path, capsys, monkeypatch):
        # Shrink the corpus so the CLI path stays fast.
        from repro.datasets import generator

        monkeypatch.setattr(
            generator, "GROUP_SIZES", {"l_bracket": 2, "block": 2}
        )
        monkeypatch.setattr(
            generator, "make_noise_shapes", lambda rng, count: []
        )
        code = main(
            [
                "build-db",
                str(tmp_path / "db"),
                "--resolution", "8",
                "--workers", "2",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "built 4 shapes" in out and "2 workers" in out
        cached = [p.name for p in (tmp_path / "cache").iterdir()]
        assert any(name.endswith(".npz") for name in cached)
