"""Runner behavior: artifact formats, determinism, layering, exit codes."""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scext import scenarios
from scext.cli import ScenarioConfig, emit_grid, main, run_scenario
from scext.errors import ConfigError, InputError
from scext.extension import ExtensionField, SupportSet, build_support_set
from scext.geometry import BallRegion, _ball_lattice
from scext.scenarios import (
    _PAIR_BLOCK,
    SCENARIOS,
    StageContext,
    _json_default,
    build_scenario,
    default_knobs,
    envelope_neg_norm,
    resolve_knobs,
    scenario_from_spec,
    stage_extend,
    write_pairs_json,
)
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

    def test_csv_spells_repeats_signed_zeros_and_nan_payloads(self, tmp_path):
        # the CSV spells each distinct value of a column once; the bytes are
        # those of one %.17g template per row
        region = BallRegion((0.0, 0.0), 1.0)
        nodes = _ball_lattice(region, 0.1)
        values = np.tile([0.5, -0.0, 0.0, 1.0 / 3.0, np.inf], nodes.shape[0])[: nodes.shape[0]]
        values[7::9] = np.array([0x7FF8000000000001], np.uint64).view(float)[0]
        values[8::9] = np.array([0xFFF8000000000000], np.uint64).view(float)[0]
        path = emit_grid(_Zero(), region, 0.1, "csv", tmp_path / "g.csv", values=values)
        rows = np.column_stack([nodes, values]).tolist()
        want = "x1,x2,value\n" + "\n".join("%.17g,%.17g,%.17g" % tuple(r) for r in rows) + "\n"
        text = path.read_text()
        assert ",-0\n" in text and ",0\n" in text and "nan" in text
        assert text == want

    def test_given_values_are_the_fields_own(self, ex2, tmp_path):
        region = BallRegion((0.0, 0.0), 1.0)
        values = ex2["field"].evaluate_many(_ball_lattice(region, 0.3))
        given = emit_grid(_Zero(), region, 0.3, "csv", tmp_path / "a.csv", values=values)
        computed = emit_grid(ex2["field"], region, 0.3, "csv", tmp_path / "b.csv")
        assert given.read_bytes() == computed.read_bytes()

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

    def test_empty_h_list_is_usage_error(self, capsys):
        argv = ["--scenario", "affine-sanity", "--stages", "mollify", "--h-list", ""]
        assert main(argv) == 2
        assert "'h_list' has the wrong type" in capsys.readouterr().err

    def test_unknown_stage_is_usage_error(self, capsys):
        assert main(["--scenario", "example2", "--stages", "polish"]) == 2
        assert "unknown stages" in capsys.readouterr().err

    def test_empty_stage_flag_is_usage_error(self, capsys):
        assert main(["--scenario", "glue-1d", "--stages", ""]) == 2
        assert "stages must be a nonempty list" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, message", [
        ({"stages": []}, "stages must be a nonempty list"),
        ({"stages": 5}, "stages must be a nonempty list"),
        ({"stages": [["glue"]]}, "unknown stages"),
        ({"delta": "0.5"}, "delta must be a number"),
        ({"delta": True}, "delta must be a number"),
        ({"delta": float("inf")}, "delta must be positive and finite"),
        ({"out": 5}, "out must be a directory path string"),
    ], ids=["empty-stages", "int-stages", "nested-stages", "text-delta", "bool-delta",
            "inf-delta", "int-out"])
    def test_malformed_run_setting_is_usage_error(self, extra, message, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": "glue-1d", "stages": ["glue"], **extra}))
        assert main(["--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err

    def test_knobs_that_are_not_an_object_are_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": "example2", "knobs": [1, 2]}))
        assert main(["--config", str(cfg)]) == 2
        assert "knobs must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, message", [
        ({"knobs": {"eps_q": 1}}, "unknown knob"),
        ({"knobs": {"triples": "many"}}, "'triples' has the wrong type"),
        ({"knobs": {"alpha": True}}, "'alpha' has the wrong type"),
        ({"knobs": {"h_list": [10, 2.5]}}, "'h_list' has the wrong type"),
        ({"function": {"identifier": "nope"}}, "unknown function identifier"),
        ({"domain": {"kind": "disk", "center": [0.0, 0.0], "radius": -1}}, "radius"),
        ({"ball": {"center": [0.0, 0.0], "radius": float("inf")}}, "positive and finite"),
        ({"domain": {"kind": "disk", "center": [0, "a"], "radius": 1.0}},
         "could not convert string to float"),
        ({"ball": {"center": [0, "a"], "radius": 0.8}}, "could not convert string to float"),
        ({"function": {"identifier": "sq-norm", "params": "ab"}}, "bad custom scenario spec"),
        ({"ball": {"center": [0.0, 0.0, 0.0], "radius": 0.8}},
         "a 3D ball on a 2D domain"),
        ({"domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0,
                     "normal": [1.0, 0.0]}}, "unexpected keyword argument 'normal'"),
        ({"ball": {"center": [0.0, 0.0], "radius": 0.8, "offset": 0.0}},
         "unexpected keyword argument 'offset'"),
        ({"domain": {"kind": "ellipse"}}, "unknown domain kind 'ellipse'; known:"),
        ({"knobs": {"seed": -1}}, "'seed' has the wrong type or value"),
        ({"knobs": {"C": float("nan")}}, "'C' has the wrong type or value"),
        ({"knobs": {"alpha": float("nan")}}, "'alpha' has the wrong type or value"),
        ({"knobs": {"spacing": float("inf")}}, "'spacing' has the wrong type or value"),
        ({"domain": {"kind": "disk", "center": [0.0, None], "radius": 1.0}},
         "domain center must be finite"),
        ({"ball": {"center": [0.0, None], "radius": 0.8}}, "ball center must be finite"),
        ({"domain": {"kind": "box", "center": [0.0, 0.0], "half_widths": [1.0, float("inf")]}},
         "box half-widths must be finite"),
        ({"domain": {"kind": "capped-disk", "center": [0.0, 0.0], "radius": 1.0,
                     "normal": [float("nan"), 0.0], "offset": 0.0}},
         "half-space normal must be finite"),
        ({"domain": {"kind": "capped-disk", "center": [0.0, 0.0], "radius": 1.0,
                     "normal": [1.0, 0.0], "offset": float("nan")}},
         "half-space offset must be finite"),
        ({"domain": {"kind": "disk", "center": [0.0, 0.0], "radius": float("inf")}},
         "disk radius must be positive and finite"),
        ({"function": {"identifier": "sq-norm", "parms": {"scale": -1.0}}},
         "unexpected keyword argument 'parms'"),
    ], ids=["unknown-knob", "text-triples", "bool-alpha", "float-h", "bad-function",
            "negative-radius", "infinite-ball", "text-domain-center", "text-ball-center",
            "text-params", "3d-ball-on-2d-domain", "unknown-domain-key", "unknown-ball-key",
            "unknown-domain-kind", "negative-seed", "nan-C", "nan-alpha", "infinite-spacing",
            "null-center", "null-ball-center", "infinite-half-width", "nan-normal",
            "nan-offset", "infinite-disk-radius", "misspelt-params"])
    def test_bad_knob_or_custom_spec_is_usage_error(self, extra, message, tmp_path, capsys):
        config = {
            "scenario": "custom",
            "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0},
            "function": {"identifier": "sq-norm"},
            "ball": {"center": [0.0, 0.0], "radius": 0.8},
            "stages": ["certify"],
        }
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**config, **extra}))
        assert main(["--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err

    def test_negative_seed_flag_is_usage_error(self, capsys):
        assert main(["--scenario", "example2", "--stages", "certify", "--seed", "-1"]) == 2
        assert "error: knob 'seed'" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read config"),
        ("{", "line 1"),
        ("[1, 2]", "top level must be an object"),
    ], ids=["missing", "not-json", "not-an-object"])
    def test_unreadable_config_is_usage_error(self, text, message, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        if text is not None:
            cfg.write_text(text)
        assert main(["--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err

    def test_null_modulus_and_spacing_keep_their_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "scenario": "example2", "stages": ["certify"],
            "knobs": {"C": None, "spacing": None, "triples": 1500},
        }))
        assert main(["--config", str(cfg)]) == 0
        assert "[pass] certify" in capsys.readouterr().out

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

    def test_trace_without_a_direction_fails(self, tmp_path, capsys):
        # example3's function without example3's fallback direction
        cfg = tmp_path / "c.json"
        spec = {k: SCENARIOS["example3"][k] for k in ("domain", "function", "ball")}
        cfg.write_text(json.dumps({"scenario": "custom", **spec}))
        out = tmp_path / "artifacts"
        argv = ["--config", str(cfg), "--stages", "condition,trace", "--spacing", "0.05"]
        assert main(argv + ["--out", str(out)]) == 1
        assert "[fail] trace" in capsys.readouterr().out
        trace = json.loads((out / "report.json").read_text())["stages"][1]
        assert trace["metrics"] == {"n_arcs": 0, "passed": False,
                                    "note": "no direction to trace"}
        assert json.loads((out / "arcs.json").read_text()) == []

    def test_passing_stage_exits_zero(self, capsys):
        code = main(
            ["--scenario", "example2", "--stages", "certify", "--triples", "1500"]
        )
        assert code == 0
        assert "[pass] certify" in capsys.readouterr().out


# SHA-256 of every artifact but timings.json of `scext --scenario S --out DIR`
_PINNED_ARTIFACTS = {
    "example2": {
        "arcs.json": "5d467fd440f52368bcc70eaa82fc0bda8011235879e8b00fe739fe8a9935fc32",
        "certify.json": "a729f05d17854cb7473f3900a82b9def83a50242a836fcb4bd34583cc37c1b72",
        "condition.json": "15dcd2f0562c331d3bd098379624e880cdfd37180db2f801ec5f95e1767c98f3",
        "field.json": "b0376fde8df3b5c3c16bed107409d817389c0169902d2b87c092ca6763820aa4",
        "field_grid.csv": "e02db68dee548a5929516ab5cc77adef4a77ea44bb34a390cd0fc27439db50ee",
        "gradients.json": "bd81b3cfe49d9807d73ddbc1f3e3d18ed4084bb70a7b5612fea2e4643f8c8614",
        "report.json": "b944a4775a4b91fd5414f6fa7b030cf93c030be79e785d24fc44b0f40bcd8b9d",
        "support.json": "cfb863df7115f0157d9de1cd230f0e49bb6d05eb07dcf44f9a70a189e18761d2",
    },
    "example3": {
        "arcs.json": "748206c0a0ce9f954b1c6e54e0b4c7ff0d4ccecd015cf77167f17538d9abc827",
        "certify.json": "5942c27142c62d49a98bae17a708df93c461f7f09f8fe696bf610dbfbb4bf8c3",
        "condition.json": "b04a53ec1d3f150d1a7ee3b98596abc80e0877525af349e50aa83014e8a6aecf",
        "field.json": "faee07b2767cc69af5cc8a588cd95bb83d26d6607c806c38b01d12c820798c23",
        "field_grid.csv": "d2b901e5359444dbc37b0f8052345be7438ddba59ff3d8ac85bdd3136d82e291",
        "gradients.json": "d30e81353055f55843bcc7614b34472c49eb9f8c40251bc94b79f171b2d0c046",
        "report.json": "7e4f7121439432d51156c4dc6ddf8a7976c58788af2cf977486cf3081fb22be7",
        "support.json": "fc6599de21af19971b455b11750d582e4b86fd2404bd5159f7b2153396165310",
    },
    "glue-1d": {
        "certify.json": "6102fe2dc02081cccee6a939d7d51c867cbacf3acdf4bf2870ec9b1d7667be11",
        "glue.json": "0eb9321b510147bc0e6cabb87eb15b6037dfcc96bdfe3e600a68a1772acb80c4",
        "report.json": "abc338f30e246ab25076ca07ddffa0054e15b885e5d8417495bcc87bf90f284b",
    },
}


def _failing_certify_config(tmp_path):
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
    return cfg


class TestArtifactContract:
    """A failing stage still writes its artifacts, an erroring one writes none,
    and report.json lists exactly the files each stage wrote, in order."""

    def test_failing_stage_writes_its_artifacts(self, tmp_path):
        out = tmp_path / "artifacts"
        assert main(["--config", str(_failing_certify_config(tmp_path)), "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        (stage,) = report["stages"]
        assert stage["status"] == "fail"
        assert stage["artifacts"] == ["certify.json"]
        assert json.loads((out / "certify.json").read_text())["passed"] is False

    def test_erroring_stage_writes_no_artifacts(self, tmp_path):
        out = tmp_path / "artifacts"
        assert main(["--scenario", "example2", "--stages", "glue", "--out", str(out)]) == 3
        assert sorted(p.name for p in out.iterdir()) == ["report.json", "timings.json"]
        report = json.loads((out / "report.json").read_text())
        (stage,) = report["stages"]
        assert stage["status"] == "error"
        assert stage["artifacts"] == []

    def test_report_lists_the_files_written_in_order(self, tmp_path):
        out = tmp_path / "artifacts"
        assert main(["--scenario", "glue-1d", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        listed = [(s["name"], s["artifacts"]) for s in report["stages"]]
        assert listed == [("certify", ["certify.json"]), ("glue", ["glue.json"])]
        written = {p.name for p in out.iterdir()} - {"report.json", "timings.json"}
        assert written == {name for _, names in listed for name in names}


class TestBenchmarkTracer:
    def test_layer_tracer_installs_and_sees_the_grid_writer(self, tmp_path):
        # run in a subprocess: the tracer monkeypatches scext module globals
        root = Path(__file__).resolve().parents[1]
        code = (
            "import sys\n"
            f"sys.path[:0] = [{str(root / 'perfbench')!r}, {str(root / 'src')!r}]\n"
            "from layers import Tracer\n"
            "from scext import cli\n"
            "tracer = Tracer()\n"
            "tracer.install()\n"
            "code = cli.main(['--scenario', 'example2', '--stages', 'certify,support,extend',\n"
            "                 '--triples', '1500', '--spacing', '0.05', '--out', sys.argv[1]])\n"
            "print(sorted({span.name for span in tracer.spans}))\n"
            "sys.exit(code)\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "artifacts")],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        spans = proc.stdout.strip().splitlines()[-1]
        for name in ("cli.emit_grid", "scenarios.extend", "extension.build_extension"):
            assert repr(name) in spans


def test_cli_import_loads_no_scipy():
    # a fresh process: this one may have imported scipy for other tests
    root = Path(__file__).resolve().parents[1]
    code = "import sys, scext.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestBenchmarkReference:
    @pytest.mark.parametrize("workload", ["example1", "affine-glue", "alpha-half"])
    def test_workload_artifacts_match_reference(self, workload, tmp_path, monkeypatch, capsys):
        # the benchmark's workloads at its recorded seed, hashed as its worker
        # hashes them: every Tier-1 run checks byte-identity against
        # perfbench/reference.json, which it only reads
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        bench, worker = importlib.import_module("run"), importlib.import_module("worker")
        reference = json.loads(bench.REFERENCE.read_text())[workload]
        argv = bench.WORKLOADS[workload] + ["--seed", str(reference["seed"])]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert worker.artifact_digests(tmp_path) == reference["digests"]

def _dumped(obj) -> str:
    """What ``write_json`` writes for a support set or a field: its
    ``header()`` with the support's pairs built as dicts in the empty list."""
    support = getattr(obj, "support", obj)
    record = obj.header()
    body = record if support is obj else record["support"]
    body["pairs"] = [
        {
            "y": support.points[i].tolist(),
            "p": support.gradients[i].tolist(),
            "u": float(support.values[i]),
            "source": support.sources[i],
        }
        for i in range(support.size)
    ]
    return json.dumps(record, indent=2, sort_keys=True, default=_json_default) + "\n"


def _streamed(tmp_path, obj, support) -> str:
    path = tmp_path / "streamed.json"
    write_pairs_json(path, obj.header(), support)
    return path.read_text()


def _synthetic_support(k: int, d: int = 2) -> SupportSet:
    rng = np.random.default_rng(k)
    sources = ["smooth" if i % 3 else "reachable" for i in range(k)]
    return SupportSet(
        rng.normal(size=(k, d)), rng.normal(size=(k, d)) * 1e3, rng.normal(size=k) / 7.0,
        sources, BallRegion(np.zeros(d), 1.0), 0.25,
    )


class TestPairWriter:
    """write_pairs_json writes the bytes write_json writes for ``_dumped``'s
    record of the support set or field."""

    @pytest.mark.parametrize("scenario", ["affine-sanity", "example1", "example2", "example3"])
    def test_builtin_support_and_field(self, scenario, tmp_path):
        sc = build_scenario(scenario)
        ctx = StageContext(sc, resolve_knobs(sc, {}))
        support, field = ctx.support, ctx.field
        if scenario in ("example1", "example3"):
            assert field.n_pruned > 0  # the field's support is not the stage's
        assert _streamed(tmp_path, support, support) == _dumped(support)
        assert _streamed(tmp_path, field, field.support) == _dumped(field)

    def test_one_and_three_dimensional_supports(self, tmp_path):
        sc = build_scenario("glue-1d")
        line = build_support_set(sc.func, sc.domain, sc.ball)
        assert line.points.shape[1] == 1
        sc = scenario_from_spec("custom", {
            "domain": {"kind": "capped-disk", "center": [0.0, 0.0, 0.0], "radius": 1.0,
                       "normal": [1.0, 0.0, 0.0], "offset": 0.0},
            "function": {"identifier": "neg-norm"},
            "ball": {"center": [0.0, 0.0, 0.0], "radius": 0.5},
        })
        solid = build_support_set(sc.func, sc.domain, sc.ball, spacing=0.15)
        assert set(solid.sources) == {"smooth", "reachable"}
        for support in (line, solid):
            assert _streamed(tmp_path, support, support) == _dumped(support)

    @pytest.mark.parametrize("k", [1, _PAIR_BLOCK, _PAIR_BLOCK + 1])
    def test_block_edges(self, k, tmp_path):
        support = _synthetic_support(k)
        assert _streamed(tmp_path, support, support) == _dumped(support)

    def test_non_finite_values_and_gradients(self, tmp_path):
        support = _synthetic_support(40, d=3)
        support.values[[0, 5, 39]] = [np.nan, np.inf, -np.inf]
        support.gradients[1] = [np.nan, -np.inf, np.inf]
        support.gradients[38, 2] = -0.0
        text = _streamed(tmp_path, support, support)
        assert "NaN" in text and "-Infinity" in text and "-0.0" in text
        assert text == _dumped(support)

    def test_repeated_values_signed_zeros_and_nan_payloads(self, tmp_path):
        # each distinct bit pattern is spelled once per column: repeats share
        # a spelling, while 0.0 and -0.0 (and NaNs of any payload) keep their own
        support = _synthetic_support(_PAIR_BLOCK + 7)
        nans = np.array([0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000ABC], np.uint64)
        support.values[::3] = 0.25
        support.values[1::7] = -0.0
        support.values[2::11] = nans.view(float)[0]
        support.values[5::13] = nans.view(float)[1]
        support.values[-1] = nans.view(float)[2]
        payloads = support.values[np.isnan(support.values)].view(np.uint64)
        assert set(payloads.tolist()) == set(nans.tolist())
        support.points[::5, 0] = 0.0
        support.points[1::5, 0] = -0.0
        support.gradients[::4] = [1e300, -5e-324]
        text = _streamed(tmp_path, support, support)
        assert "-0.0" in text and "NaN" in text and "5e-324" in text
        assert text == _dumped(support)

    def test_stages_stream_without_building_the_pairs(self, tmp_path, monkeypatch):
        # the package has no per-pair dict rendering, and the stages write
        # both pair files through the streamed writer
        assert not hasattr(SupportSet, "to_dict")
        assert not hasattr(ExtensionField, "to_dict")
        streamed = []

        def spy(path, header, support):
            streamed.append(Path(path).name)
            write_pairs_json(path, header, support)

        monkeypatch.setattr(scenarios, "write_pairs_json", spy)
        argv = ["--scenario", "example2", "--stages", "support,extend", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert (tmp_path / "field.json").exists()
        assert sorted(streamed) == ["field.json", "support.json"]

    def test_timings_record_each_stage_write(self, tmp_path):
        argv = ["--scenario", "example2", "--stages", "certify,support", "--triples", "1500",
                "--out", str(tmp_path)]
        assert main(argv) == 0
        timings = json.loads((tmp_path / "timings.json").read_text())
        assert sorted(timings) == [
            "certify", "certify.peak_rss_mb", "certify.write",
            "support", "support.peak_rss_mb", "support.write",
        ]
        assert timings["support.write"] >= 0.0
        # the process's running peak, read after each stage's writes
        assert 0.0 < timings["certify.peak_rss_mb"] <= timings["support.peak_rss_mb"]
        report = json.loads((tmp_path / "report.json").read_text())
        assert all("write_time" not in s for s in report["stages"])


class TestScenarioSpecs:
    def test_builtin_spec_as_custom_config_writes_the_same_support(self, tmp_path):
        # a built-in entry's domain, function and ball are a custom config
        spec = {k: SCENARIOS["example2"][k] for k in ("domain", "function", "ball")}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": "custom", **spec}))
        runs = {}
        for name, argv in (("builtin", ["--scenario", "example2"]),
                           ("custom", ["--config", str(cfg)])):
            out = tmp_path / name
            assert main(argv + ["--stages", "support", "--spacing", "0.02",
                                "--out", str(out)]) == 0
            runs[name] = (out / "support.json").read_bytes()
        assert runs["custom"] == runs["builtin"]

    def test_delta_flag_replaces_the_ball_radius(self, tmp_path):
        argv = ["--scenario", "example2", "--stages", "certify", "--delta", "0.5",
                "--triples", "1500", "--out", str(tmp_path)]
        assert main(argv) == 0
        region = json.loads((tmp_path / "certify.json").read_text())["region"]
        assert region == {"center": [0.0, 0.0], "radius": 0.5}

    def test_all_stages_runs_the_default_stages(self, tmp_path):
        assert main(["--scenario", "glue-1d", "--stages", "all", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert [s["name"] for s in report["stages"]] == ["certify", "glue"]
        assert report["config"]["stages"] is None

    def test_unknown_top_level_key_of_a_spec_is_a_config_error(self):
        spec = {**SCENARIOS["example2"], "colour": "red"}
        with pytest.raises(ConfigError, match="unexpected keyword argument 'colour'"):
            scenario_from_spec("example2", spec)


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

    def test_three_dimensional_support_is_pinned(self, tmp_path, capsys):
        # the reachable-gradient sampler stays dimension-generic: a 3D custom
        # run goes through the sphere directions of the annuli
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "scenario": "custom",
                    "domain": {
                        "kind": "capped-disk",
                        "center": [0.0, 0.0, 0.0],
                        "radius": 1.0,
                        "normal": [1.0, 0.0, 0.0],
                        "offset": 0.0,
                    },
                    "function": {"identifier": "neg-norm"},
                    "ball": {"center": [0.0, 0.0, 0.0], "radius": 0.5},
                }
            )
        )
        out = tmp_path / "artifacts"
        argv = ["--config", str(cfg), "--stages", "support", "--spacing", "0.15"]
        assert main(argv + ["--out", str(out)]) == 0
        assert "[pass] support" in capsys.readouterr().out
        digest = hashlib.sha256((out / "support.json").read_bytes()).hexdigest()
        assert digest == (
            "d57b6a6c1d2aacb27e5e076d6e88e38386d424018df1da7861c2b9105a9d02e1"
        )

    @pytest.mark.parametrize("scenario", sorted(_PINNED_ARTIFACTS))
    def test_default_run_artifacts_are_pinned(self, scenario, tmp_path, capsys):
        # the built-in scenarios that perfbench/reference.json does not pin;
        # example3 traces its fallback direction
        assert main(["--scenario", scenario, "--out", str(tmp_path)]) == 0
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.iterdir()
            if p.name != "timings.json"
        }
        assert digests == _PINNED_ARTIFACTS[scenario]

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
        ref = envelope_neg_norm(rows[:, :2], 1.0, metrics["extend"]["coefficient"])
        sup = float(np.max(np.abs(rows[:, 2] - ref)))
        assert rows.shape[0] == metrics["extend"]["n_sweep"]
        assert abs(sup - metrics["extend"]["sup_error"]) <= 1e-12
        assert metrics["extend"]["sup_error"] <= 0.02

    @pytest.mark.parametrize("knobs", [{"alpha": 0.5}, {"alpha": 0.5, "C": 0.5}], ids=["c1", "c1.5"])
    @pytest.mark.parametrize("scenario", ["example1", "example2", "example3"])
    def test_fractional_extend_meets_its_reference(self, scenario, knobs):
        # off the data the reference envelope is -|x2| + c|x1|^(1+alpha); the
        # alpha = 1 form x1^2 was about 0.1 off at alpha = 0.5
        report = run_scenario(ScenarioConfig(
            scenario=scenario, stages=("certify", "support", "extend"), knobs=knobs,
        ))
        assert report.all_passed
        assert report.stages[-1]["metrics"]["sup_error"] <= 0.02


def test_default_knobs_are_the_values_callers_set():
    knobs = default_knobs(build_scenario("example2"))
    assert sorted(knobs) == sorted([
        "alpha", "C", "seed", "triples", "spacing", "sweep_spacing", "h_list",
        "mollify_spacing", "mollify_triples",
    ])


class TestAffineSanity:
    def test_extend_fails_when_the_field_undercuts_u(self):
        # affine-sanity has no reference envelope, so the verdict rests on the
        # raw envelope reproducing u at the support nodes
        scenario = build_scenario("affine-sanity")
        ctx = StageContext(scenario, resolve_knobs(scenario, {"spacing": 0.05}))
        good = ctx.support
        lowered = good.values.copy()
        lowered[0] -= 1e-3
        support = SupportSet(
            good.points, good.gradients, lowered, good.sources, good.ball, good.spacing
        )
        ctx.__dict__["field"] = ExtensionField(
            support, ctx.params, ctx.params.C + 1.0, scenario.func, scenario.domain
        )
        metrics, _ = stage_extend(ctx)
        assert metrics["raw_identity_max"] == pytest.approx(1e-3, rel=1e-9)
        assert metrics["passed"] is False

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
