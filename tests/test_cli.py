"""Command-line contract: flags, exit codes, JSON schemas, determinism."""

import json
import math
from importlib import resources

import jsonschema
import numpy as np
import pytest

from gouruin import cli

E_RATIO = math.e / (math.e - 1.0)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def load_schema(name):
    with resources.files("gouruin.schemas").joinpath(name).open() as fh:
        return json.load(fh)


class TestCheck:
    def test_continuous_preset(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--preset", "continuous_example", "--c", "0")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("ruin_report.schema.json"))
        assert doc["decision"]["kind"] == "no_ruin_from"
        assert doc["decision"]["threshold"] == 1.0

    def test_jump_preset(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--preset", "jump_example", "--c", "1", "--lambda", "1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["decision"]["threshold"] == pytest.approx(E_RATIO, abs=1e-12)
        assert doc["thetas"]["theta4"] == "inf"

    def test_inline_spec_ruin_everywhere(self, capsys, tmp_path):
        spec = {
            "gamma_tilde": [0.0, 0.0],
            "sigma": [[1.0, 0.0], [0.0, 1.0]],
            "jumps": {"atoms": []},
        }
        jsonschema.validate(spec, load_schema("process_spec.schema.json"))
        f = tmp_path / "spec.json"
        f.write_text(json.dumps(spec))
        code, out, _ = run_cli(capsys, "check", "--spec", str(f))
        assert code == 0
        assert json.loads(out)["decision"]["kind"] == "ruin_everywhere"

    def test_delta_at(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check", "--preset", "jump_example", "--c", "1", "--lambda", "1",
            "--delta-at", "1.8", "--delta-at", "0.5",
        )
        doc = json.loads(out)
        assert doc["delta"]["1.8"] == pytest.approx(1.8)
        assert doc["delta"]["0.5"] == "-inf"

    def test_malformed_spec_exits_one(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"gamma_tilde": [0.0, 0.0]}))
        code, _, err = run_cli(capsys, "check", "--spec", str(f))
        assert code == 1
        assert "sigma" in err or "triplet" in err

    def test_spec_roundtrip_is_identity(self, capsys, tmp_path):
        from gouruin.model import triplet_from_json, triplet_to_json

        spec = {
            "gamma_tilde": [0.25, -0.5],
            "sigma": [[1.0, -1.0], [-1.0, 1.0]],
            "jumps": {"atoms": [{"x": 1.0, "y": -1.0, "rate": 2.0}]},
        }
        assert triplet_to_json(triplet_from_json(spec)) == spec


def _disk_atom_spec(rng, n_atoms):
    """Zero-Gaussian spec with ``n_atoms`` atoms inside the unit disk, each a
    breakpoint of the piecewise drift form."""
    r = np.sqrt(rng.uniform(0.01, 0.9, n_atoms))
    ang = rng.uniform(0.0, 2.0 * math.pi, n_atoms)
    rates = rng.uniform(0.05, 2.0, n_atoms)
    return {
        "gamma_tilde": [float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 2.0))],
        "sigma": [[0.0, 0.0], [0.0, 0.0]],
        "jumps": {"atoms": [
            {"x": float(ri * math.cos(ai)), "y": float(ri * math.sin(ai)), "rate": float(wi)}
            for ri, ai, wi in zip(r, ang, rates)
        ]},
    }


def _delta_flags(levels):
    return [flag for z in levels for flag in ("--delta-at", repr(z))]


LEVELS = (-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0)


class TestCheckEvaluatesOnce:
    def test_drift_form_and_thetas_once_per_check(self, capsys, tmp_path, monkeypatch):
        from gouruin import classify, regions

        calls = {"drift_lhs_piecewise": 0, "thetas": 0}

        def counted(name):
            fn = getattr(regions, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in calls:
            wrapper = counted(name)
            monkeypatch.setattr(regions, name, wrapper)
            monkeypatch.setattr(classify, name, wrapper)
        f = tmp_path / "disk.json"
        f.write_text(json.dumps(_disk_atom_spec(np.random.default_rng(5), 100)))
        code, out, _ = run_cli(capsys, "check", "--spec", str(f), *_delta_flags(LEVELS))
        assert code == 0
        assert len(json.loads(out)["delta"]) == len(LEVELS)
        assert calls == {"drift_lhs_piecewise": 1, "thetas": 1}

    def test_report_matches_the_standalone_functions(self, capsys, tmp_path):
        from gouruin.acceptance import random_atom_triplet
        from gouruin.classify import delta
        from gouruin.model import triplet_to_json
        from gouruin.numerics import ext_to_json
        from gouruin.regions import drift_lhs_piecewise

        rng = np.random.default_rng(31)
        f = tmp_path / "spec.json"
        for _ in range(50):
            t = random_atom_triplet(rng)
            f.write_text(json.dumps(triplet_to_json(t)))
            code, out, _ = run_cli(capsys, "check", "--spec", str(f), *_delta_flags(LEVELS))
            assert code == 0
            doc = json.loads(out)
            jsonschema.validate(doc, load_schema("ruin_report.schema.json"))
            assert doc["delta"] == {str(z): ext_to_json(delta(t, z)) for z in LEVELS}
            expected = json.loads(json.dumps(drift_lhs_piecewise(t).to_json()))
            assert doc["drift_lhs_piecewise"] == expected


class TestSimulate:
    def test_deterministic_output(self, capsys, tmp_path):
        args = [
            "simulate", "--preset", "jump_example", "--c", "1", "--lambda", "1",
            "--z", "2.0", "--horizon", "2.0", "--step", "0.25",
            "--seed", "7", "--paths", "2",
        ]
        code1, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "a"))
        code2, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "b"))
        assert code1 == code2 == 0
        for name in ("path_0000.csv", "path_0001.csv"):
            assert (tmp_path / "a" / name).read_text() == (
                tmp_path / "b" / name
            ).read_text()
        man_a = json.loads((tmp_path / "a" / "manifest.json").read_text())
        man_b = json.loads((tmp_path / "b" / "manifest.json").read_text())
        jsonschema.validate(man_a, load_schema("manifest.schema.json"))
        assert man_a["content_hash"] == man_b["content_hash"]
        assert man_a["step_used_for_dynamics"] is False

    def test_inline_zero_gaussian_atom_spec_is_event_driven(self, capsys, tmp_path):
        spec = {
            "gamma_tilde": [0.3, -0.2],
            "sigma": [[0.0, 0.0], [0.0, 0.0]],
            "jumps": {"atoms": [{"x": 0.5, "y": -0.4, "rate": 1.0}]},
        }
        f = tmp_path / "atoms.json"
        f.write_text(json.dumps(spec))
        code, _, _ = run_cli(
            capsys,
            "simulate", "--spec", str(f), "--z", "1.0", "--horizon", "2.0",
            "--step", "0.25", "--seed", "7", "--paths", "1",
            "--out", str(tmp_path / "out"),
        )
        assert code == 0
        man = json.loads((tmp_path / "out" / "manifest.json").read_text())
        jsonschema.validate(man, load_schema("manifest.schema.json"))
        assert man["step_used_for_dynamics"] is False

    def test_csv_rows_satisfy_the_path_identity(self, capsys, tmp_path):
        run_cli(
            capsys,
            "simulate", "--preset", "continuous_example", "--c", "0.2",
            "--z", "1.5", "--horizon", "1.0", "--step", "0.125",
            "--seed", "3", "--paths", "1", "--out", str(tmp_path),
        )
        rows = (tmp_path / "path_0000.csv").read_text().strip().splitlines()
        assert rows[0] == "time,xi,eta,Z,V,jump"
        for row in rows[1:]:
            _, xi, _, Z, V, _ = row.split(",")
            assert float(V) == pytest.approx(
                math.exp(float(xi)) * (1.5 + float(Z)), rel=1e-9
            )


class TestEstimate:
    def test_negprob_json(self, capsys, tmp_path):
        spec = {
            "gamma_tilde": [0.0, 0.0],
            "sigma": [[0.0, 0.0], [0.0, 1.0]],
            "jumps": {"atoms": []},
        }
        f = tmp_path / "bm.json"
        f.write_text(json.dumps(spec))
        code, out, _ = run_cli(
            capsys,
            "estimate", "--spec", str(f), "--what", "negprob",
            "--horizon", "1.0", "--paths", "4000", "--seed", "2",
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("estimate_result.schema.json"))
        assert abs(doc["estimate"]["point"] - 0.5) < 0.03

    def test_ruin_zero_events_above_threshold(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "estimate", "--preset", "jump_example", "--c", "1", "--lambda", "1",
            "--what", "ruin", "--z", "2.0", "--horizon", "200",
            "--paths", "2000", "--seed", "4",
        )
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("estimate_result.schema.json"))
        assert doc["estimate"]["n_events"] == 0

    def test_precondition_failure_surfaces(self, capsys, tmp_path):
        spec = {
            "gamma_tilde": [-1.0, 0.0],
            "sigma": [[0.0, 0.0], [0.0, 1.0]],
            "jumps": {"atoms": []},
        }
        f = tmp_path / "div.json"
        f.write_text(json.dumps(spec))
        code, _, err = run_cli(
            capsys,
            "estimate", "--spec", str(f), "--what", "zinf",
            "--horizon", "5", "--paths", "100", "--seed", "1",
        )
        assert code == 2
        assert "does not converge" in err

    @pytest.mark.parametrize("preset, flags, field", [
        ("jump_example", ["--horizon", "-1", "--paths", "10"], "horizon"),
        ("jump_example", ["--paths", "0"], "number of paths"),
        ("continuous_example", ["--step", "-0.1", "--paths", "10"], "step"),
    ])
    def test_bad_sizes_are_input_errors(self, capsys, preset, flags, field):
        code, out, err = run_cli(
            capsys, "estimate", "--preset", preset, "--what", "ruin", *flags
        )
        assert code == 1 and out == ""
        assert err.startswith("input error: ") and field in err


class TestValidate:
    def test_exact_suite_passes_and_is_deterministic(self, capsys):
        code1, out1, err1 = run_cli(capsys, "validate", "--suite", "exact", "--seed", "1")
        code2, out2, err2 = run_cli(capsys, "validate", "--suite", "exact", "--seed", "1")
        assert code1 == code2 == 0
        doc1, doc2 = json.loads(out1), json.loads(out2)
        for d in (doc1, doc2):
            for c in d["criteria"]:
                c.pop("elapsed_s")
        assert doc1 == doc2
        assert doc1["all_passed"] is True
        assert "ALL PASSED" in err1

    def test_broken_build_fails(self, capsys, monkeypatch):
        from gouruin import acceptance

        def broken(seed):
            return acceptance.CriterionResult("2 jump-example threshold", False, 0.0, 1.0, "perturbed")

        monkeypatch.setitem(acceptance._CRITERIA, 2, broken)
        code, out, err = run_cli(capsys, "validate", "--suite", "exact", "--seed", "1")
        assert code != 0
        assert "FAIL" in err


class TestUndeterminedExit:
    def test_density_continuum_exits_two(self, capsys, tmp_path):
        spec = {
            "gamma_tilde": [0.0, 0.0],
            "sigma": [[0.0, 0.0], [0.0, 0.0]],
            "jumps": {
                "density": {
                    "kind": "uniform_box",
                    "params": {"c": 0.3},
                    "box": [1.1, 1.8, 0.5, 1.2],
                }
            },
        }
        f = tmp_path / "dens.json"
        f.write_text(json.dumps(spec))
        code, out, _ = run_cli(capsys, "check", "--spec", str(f))
        assert code == 2
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("ruin_report.schema.json"))
        assert doc["decision"]["kind"] == "undetermined"

    @pytest.mark.parametrize("levels", [(), (0.5, 1.5)])
    def test_density_continuum_reports_its_reason(self, capsys, tmp_path, levels):
        spec = {
            "gamma_tilde": [0.0, 0.0],
            "sigma": [[0.0, 0.0], [0.0, 0.0]],
            "jumps": {"density": {"kind": "uniform_box", "params": {"c": 0.3},
                                  "box": [1.1, 1.8, 0.5, 1.2]}},
        }
        f = tmp_path / "dens.json"
        f.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "check", "--spec", str(f), *_delta_flags(levels))
        assert code == 2
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("ruin_report.schema.json"))
        assert doc["decision"]["kind"] == "undetermined"
        assert "delta" not in doc and "residual" not in doc
        assert err == f"undetermined: {doc['warnings'][-1]}\n"
        assert "continuum of levels" in err

    def test_check_carries_the_quadrature_residual(self, capsys, tmp_path, monkeypatch):
        from gouruin import classify
        from gouruin.errors import UndeterminedError

        def unresolved(m):
            raise UndeterminedError("2-d quadrature tolerance not reached", residual=0.25)

        monkeypatch.setattr(classify, "thetas", unresolved)
        code, out, err = run_cli(
            capsys, "check", "--preset", "jump_example", "--c", "1", "--lambda", "1",
            "--delta-at", "1.8",
        )
        assert code == 2
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("ruin_report.schema.json"))
        assert doc["decision"]["kind"] == "undetermined"
        assert doc["residual"] == 0.25
        assert "delta" not in doc
        assert err == "undetermined: 2-d quadrature tolerance not reached residual=0.25\n"

    def test_quadrature_residual_is_printed(self, capsys, tmp_path, monkeypatch):
        from gouruin import quadrature

        def unresolved(*args, **kwargs):
            return 0.0, 0.25  # (value, error estimate) far above any tolerance

        monkeypatch.setattr(quadrature._si, "dblquad", unresolved)
        monkeypatch.setattr(quadrature._si, "quad", unresolved)
        spec = {
            "gamma_tilde": [0.3, 0.1],
            "sigma": [[0.0, 0.0], [0.0, 0.0]],
            "jumps": {
                "density": {"kind": "uniform_box", "params": {"c": 0.3},
                            "box": [0.5, 1.5, -1.5, 0.5]}
            },
        }
        f = tmp_path / "dens.json"
        f.write_text(json.dumps(spec))
        code, _, err = run_cli(
            capsys, "estimate", "--spec", str(f), "--what", "ruin", "--paths", "5",
            "--horizon", "1", "--truncation-eps", "0.3",
        )
        assert code == 2
        assert err.startswith("undetermined: ")
        assert err.rstrip().endswith("residual=0.25")

    def test_overflowing_paths_exit_undetermined(self, capsys, tmp_path):
        # exp(-xi) overflows near t = 709 before any path reaches -1e300.
        spec = {"gamma_tilde": [-1.0, 0.0], "sigma": [[0.0, 0.0], [0.0, 1.0]],
                "jumps": {"atoms": []}}
        f = tmp_path / "spec.json"
        f.write_text(json.dumps(spec))
        code, out, err = run_cli(
            capsys, "estimate", "--spec", str(f), "--what", "ruin", "--z", "1e300",
            "--horizon", "800", "--step", "0.05", "--paths", "20",
        )
        assert code == 2 and out == ""
        assert err.startswith("undetermined: nonfinite_paths=20 of 20")

    def test_ruin_records_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "records.csv"
        code, out, _ = run_cli(
            capsys,
            "estimate", "--preset", "jump_example", "--c", "1", "--lambda", "1",
            "--what", "ruin", "--z", "0.5", "--horizon", "20",
            "--paths", "200", "--seed", "9", "--out", str(out_csv),
        )
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "path,hit,time,value_at_hit,continuous_crossing"
        assert len(lines) == 201
        n_hits = sum(int(l.split(",")[1]) for l in lines[1:])
        doc = json.loads(out)
        assert n_hits == doc["estimate"]["n_events"]

    @pytest.mark.parametrize("engine", ["grid_bridge", "expmart"])
    def test_ruin_records_csv_on_grid_engines(self, capsys, tmp_path, engine):
        if engine == "grid_bridge":
            spec = {
                "gamma_tilde": [1.0, 0.0],
                "sigma": [[0.0, 0.0], [0.0, 1.0]],
                "jumps": {"atoms": []},
            }
        else:
            spec = {"preset": "continuous_example", "c": 0.4}
        f = tmp_path / "spec.json"
        f.write_text(json.dumps(spec))
        out_csv = tmp_path / "records.csv"
        code, out, _ = run_cli(
            capsys,
            "estimate", "--spec", str(f), "--what", "ruin", "--z", "0.5",
            "--horizon", "5", "--step", "0.01", "--paths", "300", "--seed", "9",
            "--out", str(out_csv),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["estimate"]["diagnostics"]["engine"] == engine
        rows = [l.split(",") for l in out_csv.read_text().strip().splitlines()[1:]]
        assert len(rows) == 300
        n_hits = sum(int(r[1]) for r in rows)
        assert n_hits == doc["estimate"]["n_events"] > 0
        assert all(0.0 <= float(r[2]) <= 5.0 for r in rows if r[1] == "1")
