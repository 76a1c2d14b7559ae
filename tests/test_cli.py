"""Command-line contract: flags, exit codes, JSON schemas, determinism."""

import io
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

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

    def test_missing_spec_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "check")
        assert code == 1 and out == ""
        assert err.strip() == "input error: provide --preset or --spec (field: spec)"

    def test_spec_roundtrip_is_identity(self, capsys, tmp_path):
        from gouruin.model import triplet_from_json, triplet_to_json

        spec = {
            "gamma_tilde": [0.25, -0.5],
            "sigma": [[1.0, -1.0], [-1.0, 1.0]],
            "jumps": {"atoms": [{"x": 1.0, "y": -1.0, "rate": 2.0}]},
        }
        assert triplet_to_json(triplet_from_json(spec)) == spec


DENSITY_SPEC = {
    "gamma_tilde": [0.3, 0.1],
    "sigma": [[0.0, 0.0], [0.0, 0.0]],
    "jumps": {
        "density": {"kind": "uniform_box", "params": {"c": 0.3},
                    "box": [0.5, 1.5, -1.5, 0.5]}
    },
}


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


class TestLazyQuadratureImport:
    @staticmethod
    def run_script(script, **env_extra):
        """Runs ``script`` in a fresh interpreter; returns its last stderr line."""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, **env_extra, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        return run.stderr.splitlines()[-1]

    def test_scipy_integrate_loads_only_for_the_density_tier(self, tmp_path):
        f = tmp_path / "dens.json"
        f.write_text(json.dumps(DENSITY_SPEC))
        script = (
            "import sys\n"
            "from gouruin import cli\n"
            "loaded = []\n"
            "loaded.append('scipy.integrate' in sys.modules)\n"
            "assert cli.main(['check', '--preset', 'jump_example']) == 0\n"
            "loaded.append('scipy.integrate' in sys.modules)\n"
            f"cli.main(['check', '--spec', {str(f)!r}])\n"
            "loaded.append('scipy.integrate' in sys.modules)\n"
            "print('loaded', *loaded, file=sys.stderr)\n"
        )
        assert self.run_script(script) == "loaded False False True"

    def test_single_thread_estimate_loads_neither_scipy_nor_threads(self):
        script = (
            "import sys\n"
            "import gouruin\n"
            "from gouruin.presets import continuous_example_triplet\n"
            "gouruin.estimate_ruin(continuous_example_triplet(0.4), 0.5, 1.0, 300, 1)\n"
            "loaded = [m for m in sys.modules\n"
            "          if m.split('.')[0] == 'scipy' or m.startswith('concurrent.futures')]\n"
            "print('loaded', *loaded, file=sys.stderr)\n"
        )
        assert self.run_script(script, GOU_THREADS="1") == "loaded"


class TestCheckEvaluatesOnce:
    def test_drift_form_and_thetas_once_per_check(self, capsys, tmp_path, monkeypatch):
        from gouruin import classify, regions

        calls = {"drift_lhs_piecewise": 0, "thetas": 0, "nonneg_set": 0}
        nonneg_set = regions.PiecewiseLinearFn.nonneg_set

        def counted_nonneg_set(self):
            calls["nonneg_set"] += 1
            return nonneg_set(self)

        def counted(name):
            fn = getattr(regions, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in ("drift_lhs_piecewise", "thetas"):
            wrapper = counted(name)
            monkeypatch.setattr(regions, name, wrapper)
            monkeypatch.setattr(classify, name, wrapper)
        monkeypatch.setattr(regions.PiecewiseLinearFn, "nonneg_set", counted_nonneg_set)
        f = tmp_path / "disk.json"
        f.write_text(json.dumps(_disk_atom_spec(np.random.default_rng(5), 100)))
        # jump_example has a threshold, whose display form also reads the drift set
        for argv in (["--spec", str(f)], ["--preset", "jump_example"]):
            calls.update(dict.fromkeys(calls, 0))
            code, out, _ = run_cli(capsys, "check", *argv, *_delta_flags(LEVELS))
            assert code == 0
            assert len(json.loads(out)["delta"]) == len(LEVELS)
            assert calls == {"drift_lhs_piecewise": 1, "thetas": 1, "nonneg_set": 1}

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

    def test_density_spec_builds_the_jump_table_once(self, capsys, tmp_path, monkeypatch):
        from gouruin import simulate

        builds = []
        build = simulate._density_jump_table

        def counted(*args):
            builds.append(args)
            return build(*args)

        for mod in (simulate, cli):  # wherever the command finds it
            monkeypatch.setattr(mod, "_density_jump_table", counted, raising=False)
        f = tmp_path / "dens.json"
        f.write_text(json.dumps(DENSITY_SPEC))
        code, _, _ = run_cli(
            capsys,
            "simulate", "--spec", str(f), "--z", "1.0", "--horizon", "1.0",
            "--step", "0.25", "--seed", "7", "--paths", "3", "--truncation-eps", "0.3",
            "--out", str(tmp_path / "out"),
        )
        assert code == 0
        assert len(builds) == 1
        # the paths are those of simulate_pair, which builds its own table
        t, _ = cli.triplet_from_spec(DENSITY_SPEC)
        cfg = simulate.PathConfig(1.0, 0.25, 7, 0.3)
        for i in range(3):
            expected = io.StringIO(newline="")
            simulate.write_path_csv(simulate.simulate_pair(t, cfg, path_index=i), 1.0, expected)
            with open(tmp_path / "out" / f"path_{i:04d}.csv", newline="") as fh:
                assert fh.read() == expected.getvalue()

    MIXED_ATOM_SPEC = {
        "gamma_tilde": [0.5, 0.3],
        "sigma": [[0.25, 0.1], [0.1, 0.5]],
        "jumps": {"atoms": [{"x": 0.3, "y": -0.5, "rate": 1.0},
                            {"x": -0.2, "y": 0.4, "rate": 0.5}]},
    }

    @pytest.mark.parametrize("spec, args, files, content", [
        (None,
         ["--preset", "jump_example", "--c", "1", "--lambda", "1", "--z", "2.0",
          "--horizon", "5.0", "--step", "0.25"],
         ["a183c2e785521c00c098e1941df991d4cfb6a14c91d74f0953e87a4969d66616",
          "5c7dfefbee17e8a595e2f599aee04d9589a8f08dc0c9f38943cd87782ce9ce26",
          "9bad1dff79a49a1d4ddb813606b767682b17bf614399bf23a9b7b64b8998c961"],
         "269ba15be82cf5f64e7718847510f0b08e4aaa181e8af7ac53905af09aa2bc96"),
        (MIXED_ATOM_SPEC,
         ["--z", "0.5", "--horizon", "3.0", "--step", "0.1"],
         ["04cec43a04b9793265c6e4aa4298d07a0d3b822cdf0c0f869771542175d9f7af",
          "6c18285abdec7a65430a0969839cea5185b06acc33157121258a21990ba35686",
          "04eead89405fa58f0db89bafce69375180977bdce89d5e258ccae08cd48e57b4"],
         "7915d730cb7f33c4fd4457fbb36f0089f391139fa875253617e7c005597244f5"),
        (DENSITY_SPEC,
         ["--z", "1.0", "--horizon", "2.0", "--step", "0.25", "--truncation-eps", "0.3"],
         ["b846d05465f2811b97e1c563611e2afd97cbd312a0901c2c274403fb527ede54",
          "956c4ccd0a71fc8eb6450ef52089b2bf58efb6208ed8bf107874b6c9fdb93bd8",
          "12f8503187cc48a2912513f4b931773ea53e1780bb3df0124e0a74c90e2bbf9d"],
         "890e73a6a2a8548f76d693bce014c1987fedfeebfaa27b8a57fa2de72acf7cbc"),
    ], ids=["jump_example", "mixed_atoms", "uniform_box"])
    def test_output_is_pinned(self, capsys, tmp_path, spec, args, files, content):
        # The paths of the exact, the jump-adapted Euler and the density
        # table engines, pinned by the sha256 of their CSVs.
        if spec is not None:
            f = tmp_path / "spec.json"
            f.write_text(json.dumps(spec))
            args = args + ["--spec", str(f)]
        code, _, _ = run_cli(capsys, "simulate", *args, "--seed", "7", "--paths", "3",
                             "--out", str(tmp_path / "out"))
        assert code == 0
        man = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert [f["sha256"] for f in man["files"]] == files
        assert man["content_hash"] == content

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

    DRIFTING_BM = {
        "gamma_tilde": [1.0, 0.0],
        "sigma": [[0.0, 0.0], [0.0, 1.0]],
        "jumps": {"atoms": []},
    }

    def test_zinf_quantiles_and_samples_csv(self, capsys, tmp_path):
        f = tmp_path / "bm.json"
        f.write_text(json.dumps(self.DRIFTING_BM))
        samples = tmp_path / "out" / "zinf.csv"
        code, out, _ = run_cli(
            capsys,
            "estimate", "--spec", str(f), "--what", "zinf", "--horizon", "5",
            "--paths", "200", "--seed", "3", "--out", str(samples),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["what"] == "zinf" and doc["n"] == 200
        assert list(doc["quantiles"]) == ["0.01", "0.05", "0.25", "0.5", "0.75", "0.95", "0.99"]
        assert doc["samples_csv"] == str(samples)
        lines = samples.read_text().splitlines()
        assert lines[0] == "z_T" and len(lines) == 200 + 1
        assert all(math.isfinite(float(v)) for v in lines[1:])

    def test_theorem3_reports_both_sides(self, capsys, tmp_path):
        f = tmp_path / "bm.json"
        f.write_text(json.dumps(self.DRIFTING_BM))
        code, out, _ = run_cli(
            capsys,
            "estimate", "--spec", str(f), "--what", "theorem3", "--z", "1.0",
            "--horizon", "5", "--paths", "200", "--seed", "3",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["what"] == "theorem3" and doc["z"] == 1.0
        assert {"lhs", "rhs", "consistent"} <= set(doc)
        assert doc["lhs"]["n_paths"] == doc["rhs"]["n_paths"] == 200
        assert isinstance(doc["consistent"], bool)

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
    def test_density_continuum_exits_two(self, capsys, tmp_path, monkeypatch):
        # Only the spec's integrability spot check integrates; the decision
        # is refused before any theta or quadrature.
        from scipy import integrate

        from gouruin import classify

        calls = {"thetas": 0, "quad": 0, "dblquad": 0}
        loaded = []
        load = cli.triplet_from_spec

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += bool(loaded)
                return fn(*args, **kwargs)

            return wrapper

        def load_then_count(spec):
            out = load(spec)
            loaded.append(True)
            return out

        monkeypatch.setattr(cli, "triplet_from_spec", load_then_count)
        monkeypatch.setattr(classify, "thetas", counted("thetas", classify.thetas))
        for name in ("quad", "dblquad"):
            monkeypatch.setattr(integrate, name, counted(name, getattr(integrate, name)))
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
        assert loaded and calls == {"thetas": 0, "quad": 0, "dblquad": 0}

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

    def test_density_continuum_report_is_strict_json(self, capsys, tmp_path):
        # The certificate of a refused decision has no negative-jump mass:
        # it prints null, not the non-JSON constant NaN.
        spec = {
            "gamma_tilde": [0.0, 0.0],
            "sigma": [[0.0, 0.0], [0.0, 0.0]],
            "jumps": {"density": {"kind": "uniform_box", "params": {"c": 0.3},
                                  "box": [1.1, 1.8, 0.5, 1.2]}},
        }
        f = tmp_path / "dens.json"
        f.write_text(json.dumps(spec))
        code, out, _ = run_cli(capsys, "check", "--spec", str(f))
        assert code == 2

        def refuse(name):
            raise ValueError(f"non-JSON constant {name}")

        doc = json.loads(out, parse_constant=refuse)
        assert doc["certificate"]["negative_jumps_mass"] is None

    @pytest.mark.parametrize("params, named", [
        ({"c": -1.0}, "'c' must be positive"),
        ({"c": 1.0, "a": -800.0, "b": 1.5}, "a = -800.0"),
        ({"c": 1.0, "b": 1.5}, "requires parameter 'a'"),
    ])
    def test_invalid_family_parameters_exit_one(self, capsys, tmp_path, params, named):
        kind = "uniform_box" if list(params) == ["c"] else "exp_tails"
        spec = {
            "gamma_tilde": [0.0, 0.0],
            "sigma": [[0.0, 0.0], [0.0, 0.0]],
            "jumps": {"density": {"kind": kind, "params": params, "box": [1.0, 3.0, 0.5, 2.0]}},
        }
        f = tmp_path / "dens.json"
        f.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "check", "--spec", str(f))
        assert code == 1 and out == ""
        assert err.startswith("input error: ") and named in err
        if params["c"] <= 0.0:  # the schema states the bound on c too
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(spec, load_schema("process_spec.schema.json"))

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

    def test_unresolved_density_spot_check_still_reports(self, capsys, tmp_path, monkeypatch):
        from scipy import integrate

        def unresolved(*args, **kwargs):
            return 0.0, 0.25  # (value, error estimate) far above any tolerance

        monkeypatch.setattr(integrate, "dblquad", unresolved)
        monkeypatch.setattr(integrate, "quad", unresolved)
        f = tmp_path / "dens.json"
        f.write_text(json.dumps(DENSITY_SPEC))
        code, out, err = run_cli(capsys, "check", "--spec", str(f), "--delta-at", "1.0")
        assert code == 2
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("ruin_report.schema.json"))
        assert doc["decision"]["kind"] == "undetermined"
        assert doc["certificate"]["verdict"] == "undetermined"
        assert doc["branch"] == "sigma_zero" and doc["spec"] == {"inline": True}
        assert doc["residual"] == 0.25 and "delta" not in doc
        assert err == "undetermined: 2-d quadrature tolerance not reached residual=0.25\n"

    def test_quadrature_residual_is_printed(self, capsys, tmp_path, monkeypatch):
        from scipy import integrate

        def unresolved(*args, **kwargs):
            return 0.0, 0.25  # (value, error estimate) far above any tolerance

        monkeypatch.setattr(integrate, "dblquad", unresolved)
        monkeypatch.setattr(integrate, "quad", unresolved)
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

    @pytest.mark.parametrize("argv, digest", [
        (["--preset", "jump_example", "--c", "1", "--lambda", "1", "--horizon", "20",
          "--paths", "200"],
         "21d64e3471a8be9860eb68e76a7a3ef029b54add5160c87d4383214e0c057c0e"),
        (["--horizon", "5", "--step", "0.01", "--paths", "300"],
         "e6afb1d510b2bf7863691cc128c6e9cd2c7ac335c4a9d526a1fce4f8bb864642"),
    ], ids=["exact_fv", "grid_bridge"])
    def test_ruin_records_come_from_the_estimate_batch(
        self, capsys, tmp_path, monkeypatch, argv, digest
    ):
        # The digests are those of the CSVs written when the records came
        # from a second simulation of the same paths.
        import hashlib

        from gouruin import estimate

        if "--preset" not in argv:
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps({"gamma_tilde": [1.0, 0.0],
                                        "sigma": [[0.0, 0.0], [0.0, 1.0]],
                                        "jumps": {"atoms": []}}))
            argv = ["--spec", str(spec)] + argv
        argv = ["estimate", "--what", "ruin", "--z", "0.5", "--seed", "9"] + argv
        code, plain, _ = run_cli(capsys, *argv)
        batches = []
        dispatch = estimate._dispatch_batch
        monkeypatch.setattr(
            estimate, "_dispatch_batch",
            lambda *a, **kw: batches.append(kw) or dispatch(*a, **kw),
        )
        out_csv = tmp_path / "records.csv"
        code_out, out, _ = run_cli(capsys, *argv, "--out", str(out_csv))
        assert code == code_out == 0
        assert len(batches) == 1
        doc = json.loads(out)
        assert doc.pop("records_csv") == str(out_csv)
        assert doc == json.loads(plain)
        assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == digest

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
