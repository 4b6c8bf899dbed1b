"""Runner behavior: artifact formats, determinism, layering, exit codes."""

import json

import numpy as np
import pytest

from scext.cli import ScenarioConfig, emit_grid, main, run_scenario
from scext.errors import InputError
from scext.geometry import BallRegion
from scext.scenarios import envelope_neg_norm
from scext.semiconcavity import ModulusParams, certify


class _Zero:
    def evaluate_many(self, pts):
        return np.zeros(np.atleast_2d(pts).shape[0])


def _read_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    return header, rows


class TestEmitGrid:
    def test_example2_coarse_grid(self, ex2, tmp_path):
        path = emit_grid(
            ex2["field"], BallRegion((0.0, 0.0), 1.0), 0.5, "csv", tmp_path / "g.csv"
        )
        text = path.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "x1,x2,value"
        assert "-0.5,0,0.25" in lines[1:]
        # 5x5 lattice intersected with the closed unit disk
        assert len(lines) - 1 == 13

    def test_rows_sorted_and_lossless(self, ex2, tmp_path):
        path = emit_grid(
            ex2["field"], BallRegion((0.0, 0.0), 1.0), 0.3, "csv", tmp_path / "g.csv"
        )
        header, rows = _read_rows(path)
        assert header == ["x1", "x2", "value"]
        order = np.lexsort((rows[:, 1], rows[:, 0]))
        assert np.array_equal(order, np.arange(rows.shape[0]))
        # 17 significant digits round-trip to the exact doubles
        again = ex2["field"].evaluate_many(rows[:, :2])
        assert np.array_equal(again, rows[:, 2])

    def test_json_format_matches_csv(self, ex2, tmp_path):
        csv_path = emit_grid(
            ex2["field"], BallRegion((0.0, 0.0), 1.0), 0.5, "csv", tmp_path / "g.csv"
        )
        json_path = emit_grid(
            ex2["field"], BallRegion((0.0, 0.0), 1.0), 0.5, "json", tmp_path / "g.json"
        )
        _, rows = _read_rows(csv_path)
        payload = json.loads(json_path.read_text())
        assert payload["columns"] == ["x1", "x2", "value"]
        assert np.array_equal(np.array(payload["rows"]), rows)

    def test_zero_field_prints_bare_zeros(self, tmp_path):
        path = emit_grid(
            _Zero(), BallRegion((0.0, 0.0), 1.0), 0.5, "csv", tmp_path / "g.csv"
        )
        for line in path.read_text().strip().split("\n")[1:]:
            assert line.split(",")[-1] == "0"

    def test_unknown_format_rejected(self, ex2, tmp_path):
        with pytest.raises(InputError):
            emit_grid(
                ex2["field"], BallRegion((0.0, 0.0), 1.0), 0.5, "xml", tmp_path / "g"
            )


class TestExitCodes:
    def test_unknown_scenario_is_usage_error(self, capsys):
        assert main(["--scenario", "example9"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": "example2", "sweeps": 3}))
        assert main(["--config", str(cfg)]) == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_unsupported_schema_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": "example2", "schema": 2}))
        assert main(["--config", str(cfg)]) == 2
        assert "schema" in capsys.readouterr().err

    def test_unknown_stage_is_usage_error(self, capsys):
        assert main(["--scenario", "example2", "--stages", "polish"]) == 2
        assert "unknown stages" in capsys.readouterr().err

    def test_knobs_that_are_not_an_object_are_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": "example2", "knobs": [1, 2]}))
        assert main(["--config", str(cfg)]) == 2
        assert "knobs must be an object" in capsys.readouterr().err

    def test_incomplete_custom_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": "custom"}))
        assert main(["--config", str(cfg)]) == 2

    def test_failed_certificate_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "scenario": "custom",
                    "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0},
                    "function": {"identifier": "sq-norm"},
                    "ball": {"center": [0.0, 0.0], "radius": 0.8},
                    "stages": ["certify"],
                    "knobs": {"C": 0.0, "triples": 800},
                }
            )
        )
        assert main(["--config", str(cfg)]) == 1
        assert "[fail] certify" in capsys.readouterr().out

    def test_missing_glue_setup_exits_three(self, capsys):
        assert main(["--scenario", "example2", "--stages", "glue"]) == 3
        out = capsys.readouterr().out
        assert "[error] glue" in out
        assert "does not define a glue setup" in out

    def test_passing_stage_exits_zero(self, capsys):
        code = main(
            ["--scenario", "example2", "--stages", "certify", "--triples", "1500"]
        )
        assert code == 0
        assert "[pass] certify" in capsys.readouterr().out


class TestLayeringAndDeterminism:
    def test_flags_beat_config_and_reruns_are_byte_identical(self, tmp_path):
        out = tmp_path / "artifacts"
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "scenario": "example2",
                    "stages": ["certify", "support", "extend"],
                    "knobs": {"triples": 3000, "sweep_spacing": 0.05},
                    "out": str(out),
                }
            )
        )
        argv = ["--config", str(cfg), "--triples", "1500", "--spacing", "0.05"]
        assert main(argv) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert set(first) == {
            "certify.json",
            "support.json",
            "field.json",
            "field_grid.csv",
            "report.json",
            "timings.json",
        }
        report = json.loads(first["report.json"])
        assert report["all_passed"] is True
        # the flag wins over the config knob and is echoed everywhere
        assert report["config"]["knobs"]["triples"] == 1500
        cert = json.loads(first["certify.json"])
        assert cert["n_triples"] == 1500
        assert main(argv) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert set(second) == set(first)
        for name in first:
            if name == "timings.json":
                continue
            assert second[name] == first[name], name

    def test_same_run_in_two_directories_is_byte_identical(self, tmp_path):
        argv = ["--scenario", "example2", "--stages", "certify,support,extend",
                "--triples", "1500", "--spacing", "0.05"]
        runs = []
        for name in ("first", "second"):
            out = tmp_path / name
            assert main(argv + ["--out", str(out)]) == 0
            runs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert set(runs[0]) == set(runs[1])
        assert "report.json" in runs[0]
        for name in runs[0]:
            if name != "timings.json":
                assert runs[0][name] == runs[1][name], name

    def test_example3_condition_records_false(self, tmp_path):
        out = tmp_path / "artifacts"
        code = main(
            ["--scenario", "example3", "--stages", "condition", "--out", str(out)]
        )
        assert code == 0
        cond = json.loads((out / "condition.json").read_text())
        assert cond["holds"] is False
        assert cond["p0"] is None
        assert cond["thetas"] == [[-1.0, 0.0]]
        report = json.loads((out / "report.json").read_text())
        stage = report["stages"][0]
        assert stage["metrics"]["holds"] is False
        assert stage["metrics"]["fallback"] is True


@pytest.fixture(scope="module")
def example1_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("example1-artifacts")
    config = ScenarioConfig(
        scenario="example1",
        stages=("certify", "support", "extend"),
        knobs={"triples": 2000, "sweep_spacing": 0.04},
        out=str(out),
    )
    report = run_scenario(config)
    return report, out


class TestReportRoundTrip:
    def test_certificate_metrics_recompute(self, example1_run, half_disk, unit_ball, ex1):
        report, out = example1_run
        metrics = {s["name"]: s["metrics"] for s in report.stages}
        cert = json.loads((out / "certify.json").read_text())
        params = ModulusParams(alpha=cert["alpha"], C=cert["C"])
        again = certify(
            ex1["func"], half_disk, unit_ball, params, cert["n_triples"], cert["seed"]
        )
        assert again.max_defect == metrics["certify"]["max_defect"]
        assert again.passed == (cert["passed"] is True)

    def test_grid_artifact_reproduces_sup_error(self, example1_run):
        report, out = example1_run
        metrics = {s["name"]: s["metrics"] for s in report.stages}
        header, rows = _read_rows(out / "field_grid.csv")
        sup = float(np.max(np.abs(rows[:, 2] - envelope_neg_norm(rows[:, :2]))))
        assert rows.shape[0] == metrics["extend"]["n_sweep"]
        assert abs(sup - metrics["extend"]["sup_error"]) <= 1e-12
        assert metrics["extend"]["sup_error"] <= 0.02


class TestAffineSanity:
    def test_every_stage_is_exact(self):
        report = run_scenario(
            ScenarioConfig(
                scenario="affine-sanity",
                knobs={
                    "triples": 1500,
                    "spacing": 0.05,
                    "mollify_triples": 200,
                    "sweep_spacing": 0.05,
                    "mollify_spacing": 0.1,
                },
            )
        )
        assert report.all_passed
        metrics = {s["name"]: s["metrics"] for s in report.stages}
        assert abs(metrics["certify"]["max_defect"]) <= 1e-6
        assert metrics["certify"]["n_witnesses"] == 0
        assert metrics["extend"]["identity_max"] <= 1e-12
        assert metrics["extend"]["raw_identity_max"] <= 1e-12
        for entry in metrics["mollify"]["entries"]:
            assert entry["sup_error"] <= 1e-9
            assert entry["certified"] is True
        assert metrics["glue"]["sup_error_u"] <= 1e-9
        assert metrics["glue"]["sup_error_field"] <= 1e-9
