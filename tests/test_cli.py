"""Command-line contract: flags, exit codes, JSON schemas, determinism."""

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

    def test_delta_at_nan_is_an_input_error(self, capsys):
        # a NaN level used to skip no interval and print the top one
        code, out, err = run_cli(
            capsys,
            "check", "--preset", "jump_example", "--c", "1", "--lambda", "1",
            "--delta-at", "nan",
        )
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert err == "input error: level must be a number, got nan\n"

    def test_delta_at_infinite_levels(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check", "--preset", "jump_example", "--c", "1", "--lambda", "1",
            "--delta-at", "inf", "--delta-at=-inf",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["delta"]["inf"] == pytest.approx(2.0, abs=1e-12)
        assert doc["delta"]["-inf"] == "-inf"

    def test_delta_at_takes_a_negative_infinity_after_a_space(self, capsys):
        # argparse alone reads "--delta-at -inf" as an option with no value
        argv = ["check", "--preset", "jump_example", "--c", "1", "--lambda", "1"]
        spaced = run_cli(capsys, *argv, "--delta-at", "-inf", "--delta-at", "-Infinity")
        joined = run_cli(capsys, *argv, "--delta-at=-inf", "--delta-at=-Infinity")
        assert spaced == joined
        assert spaced[0] == 0 and json.loads(spaced[1])["delta"] == {"-inf": "-inf"}

    def test_malformed_spec_exits_one(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"gamma_tilde": [0.0, 0.0]}))
        code, _, err = run_cli(capsys, "check", "--spec", str(f))
        assert code == 1
        assert "sigma" in err or "triplet" in err

    @pytest.mark.parametrize("spec, field", [
        ({"preset": "continuous_example", "c": "abc"}, "'c'"),
        ({"preset": "jump_example", "c": None}, "'c'"),
        ({"gamma_tilde": [1], "sigma": [[0, 0], [0, 0]]}, "gamma_tilde"),
        ({"gamma_tilde": "ab", "sigma": [[0, 0], [0, 0]]}, "gamma_tilde"),
        ({"gamma_tilde": [0, 0], "sigma": [[1, 0]]}, "sigma"),
        ({"gamma_tilde": [0, 0], "sigma": [[0, 0], [0, 0]],
          "jumps": {"atoms": [{"x": "a", "y": 1, "rate": 1}]}}, "jumps.atoms"),
        ({"gamma_tilde": [0, 0], "sigma": [[0, 0], [0, 0]], "jumps": {"atoms": {"x": 1}}},
         "jumps.atoms"),
        ([1, 2], "spec"),
    ])
    def test_malformed_field_is_an_input_error(self, capsys, tmp_path, spec, field):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "check", "--spec", str(f))
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert err.startswith("input error: ") and field in err
        assert "Traceback" not in err

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


def euler_csv(p, z):
    """The CSV bytes that ``simulate`` writes for a ``simulate_pair`` path
    (the csv module's CRLF line ends)."""
    from gouruin.simulate import compute_V, compute_Z

    Z = compute_Z(p)
    cols = (a.tolist() for a in (p.times, p.xi, Z, compute_V(p, z, Z), p.jump_flags))
    rows = [f"{t:.12g},{xi:.12g},{zz:.12g},{v:.12g},{int(j)}\r\n" for t, xi, zz, v, j in zip(*cols)]
    return ("time,xi,Z,V,jump\r\n" + "".join(rows)).encode()


def read_paths(out_dir, n):
    """The rows of each path CSV that ``simulate`` wrote, as float arrays."""
    paths = []
    for i in range(n):
        lines = (out_dir / f"path_{i:04d}.csv").read_text().splitlines()
        assert lines[0] == "time,xi,Z,V,jump"
        paths.append(np.array([[float(v) for v in row.split(",")] for row in lines[1:]]))
    return paths


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


class TestUsage:
    """A usage error that argparse finds is an input error (exit 1), with
    argparse's message; exit 2 stays for undetermined or refused answers."""

    @pytest.mark.parametrize("argv, message", [
        (["check", "--preset", "jump_example", "--c", "abc"],
         "argument --c: invalid float value: 'abc'"),
        (["check", "--preset", "jump_example", "--bogus"], "unrecognized arguments: --bogus"),
        (["estimate", "--preset", "jump_example", "--what", "ruin", "--truncation-eps", "0.3"],
         "unrecognized arguments: --truncation-eps 0.3"),
    ], ids=["bad_value", "unknown_flag", "truncation_eps"])
    def test_usage_error_exits_one(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert err.startswith("usage: gouruin") and err.endswith(f"error: {message}\n")

    def test_help_exits_zero(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--help")
        assert (code, err) == (cli.EXIT_OK, "")
        assert out.startswith("usage: gouruin simulate")


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
        # a rigid Gaussian part leaves one level, whose drift is integrated
        spec = {**DENSITY_SPEC, "sigma": [[1.0, -1.2], [-1.2, 1.44]]}
        f = tmp_path / "dens.json"
        f.write_text(json.dumps(spec))
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

    def test_import_loads_neither_numpy_random_nor_scipy_integrate(self):
        script = (
            "import sys\n"
            "import gouruin\n"
            "loaded = [m for m in ('numpy.random', 'scipy.integrate') if m in sys.modules]\n"
            "print('loaded', *loaded, file=sys.stderr)\n"
        )
        assert self.run_script(script) == "loaded"

    def test_import_leaves_the_keyed_layout_uncompiled(self):
        # check never runs a simulation, so it loads neither gouruin.bridge
        # nor the event engines' rounds
        script = (
            "import sys\n"
            "import gouruin, gouruin.cli\n"
            "print('loaded', *[m for m in ('gouruin.bridge', 'gouruin.events')"
            " if m in sys.modules], file=sys.stderr)\n"
        )
        assert self.run_script(script) == "loaded"

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
        assert man_a["engine"] == "exact_fv"

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
        assert man["engine"] == "exact_fv"

    def test_density_spec_builds_the_jump_table_once(self, capsys, tmp_path):
        from gouruin import simulate

        f = tmp_path / "dens.json"
        f.write_text(json.dumps(DENSITY_SPEC))
        simulate._density_jump_table.cache_clear()
        code, _, _ = run_cli(
            capsys,
            "simulate", "--spec", str(f), "--z", "1.0", "--horizon", "1.0",
            "--step", "0.25", "--seed", "7", "--paths", "3",
            "--out", str(tmp_path / "out"),
        )
        assert code == 0
        assert simulate._density_jump_table.cache_info().misses == 1
        # the paths are those of simulate_pair
        t, _ = cli.triplet_from_spec(DENSITY_SPEC)
        cfg = simulate.PathConfig(1.0, 0.25, 7)
        for i in range(3):
            expected = euler_csv(simulate.simulate_pair(t, cfg, path_index=i), 1.0)
            assert (tmp_path / "out" / f"path_{i:04d}.csv").read_bytes() == expected

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
         ["7ababdf89d1f338163dfdfe3488dd663df6bb2c0d16bc239258553332be69e59",
          "9509ae3390be0f642126c39758a73e7d485607116befe9220088eadd360ea196",
          "7a908b9f3d568333a145d4f7c3dd427a8e16d57561c121f8f0113d1aca2aabb6"],
         "694da49cd9985164e283bc70c61233d7beb8aa462bbe6674ab0ae34f5a33d13c"),
        (MIXED_ATOM_SPEC,
         ["--z", "0.5", "--horizon", "3.0", "--step", "0.1"],
         ["42be39a624a64587b645b8979e6e1f33ecc41e1a1f05e4ff0ba63309903d4913",
          "3bdab31b9085afe6267a350c51438e1aab56c2895e02482b56b2f7b72111fd2d",
          "b1bea73802843aa1c297a9e22aab403b74115ce1a9d0a7ef6492dd2a7b4397d2"],
         "7a9d2de99cdf2521d630b98ebe94675683e21a334c1cd8ad0b9c41cefda38b0e"),
        (DENSITY_SPEC,
         ["--z", "1.0", "--horizon", "2.0", "--step", "0.25"],
         ["0aafdeb0e6b2b07683001d91f349a91877da479dcab9c4f02d8eddeb80f03199",
          "012f4b388917d6052afde0efe6490fb5dac7f00c6b3f817abdc128dd4a0dd493",
          "8c6431a5a462f11ce06956dc96eee4b2d3a30631133e77924ef65d5740ebbd26"],
         "40b6bc681f5bce6e4e773796f4ccbb8996af987162223c60016e304b5cc97c37"),
    ], ids=["jump_example", "mixed_atoms", "uniform_box"])
    def test_output_is_pinned(self, capsys, tmp_path, spec, args, files, content):
        # The paths of the exact, the jump-adapted Euler and the density
        # table engines, pinned by the sha256 of their CSVs (time, xi, Z, V
        # and jump at each monitored instant).  Every file is the one that
        # the keyed oracle of oracles.py (keyed_exact_path,
        # keyed_euler_path) gives, one counter at a time.
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

    @pytest.mark.parametrize("preset", ["continuous_example", "jump_example"])
    def test_csv_rows_satisfy_the_path_identity(self, capsys, tmp_path, preset):
        code, _, _ = run_cli(
            capsys,
            "simulate", "--preset", preset, "--c", "0.2",
            "--z", "1.5", "--horizon", "3.0", "--step", "0.125",
            "--seed", "3", "--paths", "4", "--out", str(tmp_path),
        )
        assert code == 0
        for rows in read_paths(tmp_path, 4):
            time, xi, Z, V, jump = rows.T
            assert (time[0], xi[0], Z[0], V[0]) == (0.0, 0.0, 0.0, 1.5)
            assert time[-1] == 3.0 and np.all(np.diff(time) >= 0.0)
            assert np.allclose(V, np.exp(xi) * (1.5 + Z), rtol=1e-9)
            assert set(jump.tolist()) <= {0.0, 1.0}

    SIMULATE_ENGINES = [
        ("exact_fv", {"preset": "jump_example", "c": 1.0, "lambda": 1.0}),
        ("mixed_grid", MIXED_ATOM_SPEC),
        ("grid_bridge", {"gamma_tilde": [1.0, 0.0], "sigma": [[0.0, 0.0], [0.0, 1.0]],
                         "jumps": {"atoms": []}}),
        ("expmart", {"preset": "continuous_example", "c": 0.2}),
        ("expmart", {"preset": "continuous_example", "c": -0.2}),
        ("expmart", {"gamma_tilde": [0.3, -0.2], "sigma": [[1.0, 1.0], [1.0, 1.0]],
                     "jumps": {"atoms": []}}),  # u0 = -1: the other sign of the key
        ("mixed_grid", {"gamma_tilde": [0.2, 0.1], "sigma": [[0.5, 0.2], [0.2, 0.6]],
                        "jumps": {"atoms": []}}),  # random xi and no jumps
    ]

    @pytest.mark.parametrize("engine, spec", SIMULATE_ENGINES, ids=[
        "exact_fv", "mixed_grid", "grid_bridge", "expmart+c", "expmart-c", "expmart_u0<0",
        "mixed_grid_no_jumps"])
    def test_paths_are_those_the_estimators_reduce(
        self, capsys, tmp_path, monkeypatch, engine, spec
    ):
        # The CSVs hold the states of the batch that empirical_lower_bound
        # and ruin_records reduce, with the same seed, step and level.
        from gouruin import estimate

        z, horizon, step, n, seed = 0.5, 5.0, 0.25, 200, 7
        f = tmp_path / "spec.json"
        f.write_text(json.dumps(spec))
        hashes = []
        for threads, elems in (("1", 8192), ("2", 8192), ("1", 112)):
            monkeypatch.setenv("GOU_THREADS", threads)
            monkeypatch.setattr(estimate, "_CHUNK_ELEMS", elems)
            out_dir = tmp_path / f"out{len(hashes)}"
            code, out, _ = run_cli(
                capsys, "simulate", "--spec", str(f), "--z", str(z), "--horizon", str(horizon),
                "--step", str(step), "--seed", str(seed), "--paths", str(n),
                "--out", str(out_dir),
            )
            assert code == 0
            man = json.loads((out_dir / "manifest.json").read_text())
            jsonschema.validate(man, load_schema("manifest.schema.json"))
            assert man["engine"] == engine
            hashes.append(man["content_hash"])
        assert hashes[0] == hashes[1] == hashes[2]  # threads and chunk sizes
        t, _ = cli.triplet_from_spec(spec)
        paths = read_paths(tmp_path / "out0", n)
        bound = estimate.empirical_lower_bound(t, z, horizon, n, seed, step=step)
        assert min(p[:, 3].min() for p in paths) == float(f"{bound:.12g}")
        below = np.array([(p[:, 3] < 0.0).any() for p in paths])
        hit = estimate.ruin_records(t, z, horizon, n, seed, step=step)[0]
        assert below.any() and not below.all()
        if engine in ("grid_bridge", "expmart"):
            assert hit[below].all()  # a bridge-corrected hit needs no negative row
        else:
            assert np.array_equal(below, hit)

    def test_default_step_is_that_of_estimate(self, capsys, tmp_path):
        # Without --step, simulate takes estimate's min(0.01, T/100): at T =
        # 0.5 the 100 equal steps of the grid the estimators reduce.
        from gouruin import estimate

        z, horizon, n, seed = 0.5, 0.5, 30, 4
        spec = {"preset": "continuous_example", "c": -0.2}
        f = tmp_path / "spec.json"
        f.write_text(json.dumps(spec))
        code, _, _ = run_cli(capsys, "simulate", "--spec", str(f), "--z", str(z),
                             "--horizon", str(horizon), "--seed", str(seed), "--paths", str(n),
                             "--out", str(tmp_path / "out"))
        assert code == 0
        man = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert man["step"] == 0.005
        paths = read_paths(tmp_path / "out", n)
        grid = [float(f"{v:.12g}") for v in np.linspace(0.0, horizon, 101)]
        assert all(p[:, 0].tolist() == grid for p in paths)
        t, _ = cli.triplet_from_spec(spec)
        bound = estimate.empirical_lower_bound(t, z, horizon, n, seed)
        assert min(p[:, 3].min() for p in paths) == float(f"{bound:.12g}")

    def test_overflow_is_reported(self, capsys, tmp_path):
        # e^-xi overflows before T = 800 and Z turns non-finite: the run
        # writes its files and counts each path whose file holds such a row.
        f = tmp_path / "spec.json"
        f.write_text(json.dumps({"gamma_tilde": [-1, 0], "sigma": [[0, 0], [0, 1]],
                                 "jumps": {"atoms": []}}))
        code, _, _ = run_cli(capsys, "simulate", "--spec", str(f), "--z", "1",
                             "--horizon", "800", "--step", "0.5", "--paths", "2",
                             "--out", str(tmp_path / "out"))
        assert code == 0
        man = json.loads((tmp_path / "out" / "manifest.json").read_text())
        jsonschema.validate(man, load_schema("manifest.schema.json"))
        nonfinite_files = sum(not np.isfinite(p).all() for p in read_paths(tmp_path / "out", 2))
        assert man["nonfinite_paths"] >= 1
        assert man["nonfinite_paths"] == nonfinite_files


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

    def test_step_count_above_the_cap_is_an_input_error(self, capsys, monkeypatch):
        # 10 / 1e-9 steps would be per-step arrays of 1e10 floats: refused
        # before any engine builds its grid
        from gouruin import estimate, simulate

        def no_grid(*args):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(simulate, "time_grid", no_grid)
        monkeypatch.setattr(estimate, "time_grid", no_grid)
        code, out, err = run_cli(
            capsys, "estimate", "--preset", "continuous_example", "--what", "ruin",
            "--horizon", "10", "--step", "1e-9", "--paths", "10",
        )
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert err == (
            "input error: step 1e-09 over horizon 10.0 asks for 10000000000 grid steps; "
            f"the cap is {simulate.MAX_GRID_STEPS}\n"
        )


    def test_nan_level_is_an_input_error(self, capsys):
        # the batch used to key its levels by a NaN that no lookup matches
        code, out, err = run_cli(
            capsys, "estimate", "--preset", "continuous_example", "--what", "ruin",
            "--z", "nan", "--paths", "10",
        )
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert err == "input error: level z must be a number, got nan\n"

    @pytest.mark.parametrize("z", ["inf", "-inf"])
    def test_infinite_level_is_an_input_error(self, capsys, z):
        # the report used to print "z": Infinity, which is not strict JSON
        code, out, err = run_cli(
            capsys, "estimate", "--preset", "continuous_example", "--what", "ruin",
            f"--z={z}", "--paths", "10", "--horizon", "1",
        )
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert err == f"input error: level z must be finite, got {z}\n"

    def test_negative_infinite_level_after_a_space_is_an_input_error(self, capsys):
        # argparse alone would exit 2 with "expected one argument"
        code, out, err = run_cli(
            capsys, "estimate", "--preset", "continuous_example", "--what", "ruin",
            "--z", "-inf", "--paths", "10", "--horizon", "1",
        )
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert err == "input error: level z must be finite, got -inf\n"


class TestSimulateChecksBeforeWriting:
    """``simulate`` refuses bad input with exit 1 before it creates --out."""

    @pytest.mark.parametrize("flags, message", [
        (["--paths", "-2"], "the number of paths must be at least 1, got -2"),
        (["--paths", "0"], "the number of paths must be at least 1, got 0"),
        (["--horizon", "-1"], "horizon must be positive and finite, got -1.0"),
        (["--seed", "-3"], "seed must be a non-negative integer, got -3"),
        (["--z", "nan"], "level z must be a number, got nan"),
        (["--z=inf"], "level z must be finite, got inf"),
        (["--z=-inf"], "level z must be finite, got -inf"),
        (["--z", "-inf"], "level z must be finite, got -inf"),
    ])
    def test_no_directory_is_left_behind(self, capsys, tmp_path, flags, message):
        out_dir = tmp_path / "paths"
        code, out, err = run_cli(
            capsys, "simulate", "--preset", "continuous_example", *flags,
            "--out", str(out_dir),
        )
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert err == f"input error: {message}\n"
        assert not out_dir.exists()

    def test_density_past_the_event_cap_leaves_no_directory(self, capsys, tmp_path):
        # c = 3e8 on a box of area 2 is a rate of 6e8: over the default
        # horizon of 10, 6e9 arrivals, past the cap
        dens = DENSITY_SPEC["jumps"]["density"]
        spec = {**DENSITY_SPEC, "jumps": {"density": {**dens, "params": {"c": 3e8}}}}
        f = tmp_path / "spec.json"
        f.write_text(json.dumps(spec))
        out_dir = tmp_path / "paths"
        code, out, err = run_cli(capsys, "simulate", "--spec", str(f), "--out", str(out_dir))
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert err.startswith("input error: a path expects 6e+09 arrivals and grid steps")
        assert not out_dir.exists()


class TestNegativeSeed:
    """A negative seed is an input error, not a traceback."""

    def test_estimate(self, capsys):
        code, out, err = run_cli(
            capsys, "estimate", "--preset", "jump_example", "--what", "ruin",
            "--paths", "10", "--seed", "-1",
        )
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert err == "input error: seed must be a non-negative integer, got -1\n"

    def test_simulate(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "simulate", "--preset", "continuous_example", "--horizon", "1",
            "--seed", "-3", "--out", str(tmp_path / "paths"),
        )
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert err == "input error: seed must be a non-negative integer, got -3\n"

    def test_validate(self, capsys):
        code, out, err = run_cli(capsys, "validate", "--suite", "exact", "--seed", "-1")
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert err == "input error: seed must be a non-negative integer, got -1\n"


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
        # Loading a named family integrates nothing (its sup times its box
        # area bounds its mass), and the decision is refused before any
        # theta or quadrature.
        from scipy import integrate

        from gouruin import classify

        calls = {"thetas": 0, "quad": 0, "nquad": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(classify, "thetas", counted("thetas", classify.thetas))
        for name in ("quad", "nquad"):
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
        assert calls == {"thetas": 0, "quad": 0, "nquad": 0}

    def test_undetermined_report_prints_null_thetas(self, capsys, tmp_path):
        # Thetas that were never computed print as null, not as values.
        spec = {"gamma_tilde": [0.0, 0.0], "sigma": [[0.0, 0.0], [0.0, 0.0]],
                "jumps": {"density": {"kind": "exp_tails", "params": {"c": 2.0, "a": 1.0, "b": 1.5},
                                      "box": [1.0, 3.0, 0.5, 2.0]}}}
        f = tmp_path / "dens.json"
        f.write_text(json.dumps(spec))
        code, out, _ = run_cli(capsys, "check", "--spec", str(f))
        assert code == 2
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("ruin_report.schema.json"))
        assert doc["decision"]["kind"] == "undetermined"
        assert doc["thetas"] is None
        decided = json.loads(run_cli(capsys, "check", "--preset", "jump_example")[1])
        jsonschema.validate(decided, load_schema("ruin_report.schema.json"))
        assert decided["thetas"]["theta4"] == "inf"
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**decided, "thetas": {"theta1": 0.0}},
                                load_schema("ruin_report.schema.json"))

    def test_a_decision_without_a_threshold_attains_none(self, capsys, tmp_path):
        # Only a no_ruin_from decision has a threshold to attain: the
        # undetermined exp_tails continuum and a ruin_everywhere report
        # print attained null, and the schema refuses a boolean there.
        schema = load_schema("ruin_report.schema.json")
        f = tmp_path / "spec.json"
        f.write_text(json.dumps({
            "gamma_tilde": [0.0, 0.0], "sigma": [[0.0, 0.0], [0.0, 0.0]],
            "jumps": {"density": {"kind": "exp_tails", "params": {"c": 2.0, "a": 1.0, "b": 1.5},
                                  "box": [1.0, 3.0, 0.5, 2.0]}}}))
        code, out, _ = run_cli(capsys, "check", "--spec", str(f))
        undetermined = json.loads(out)
        assert code == 2
        f.write_text(json.dumps({"gamma_tilde": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]],
                                 "jumps": {"atoms": []}}))
        everywhere = json.loads(run_cli(capsys, "check", "--spec", str(f))[1])
        for doc, kind in ((undetermined, "undetermined"), (everywhere, "ruin_everywhere")):
            assert doc["decision"] == {"kind": kind, "threshold": None, "attained": None}
            jsonschema.validate(doc, schema)
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate({**doc, "decision": {**doc["decision"], "attained": True}}, schema)
        decided = json.loads(run_cli(capsys, "check", "--preset", "jump_example")[1])
        assert decided["decision"]["kind"] == "no_ruin_from"
        assert decided["decision"]["attained"] is True
        jsonschema.validate(decided, schema)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**decided, "decision": {**decided["decision"], "attained": None}},
                                schema)

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

    def test_zero_gaussian_density_spec_refuses_without_scipy_integrate(self, tmp_path):
        # In a fresh interpreter: the spec loads and the continuum decision
        # is refused, and neither step imports the quadrature backend.
        f = tmp_path / "dens.json"
        f.write_text(json.dumps(DENSITY_SPEC))
        script = (
            "import contextlib, io, sys\n"
            "from gouruin import cli\n"
            "err = io.StringIO()\n"
            "with contextlib.redirect_stderr(err):\n"
            f"    code = cli.main(['check', '--spec', {str(f)!r}])\n"
            "print(code, 'scipy.integrate' in sys.modules, err.getvalue().strip(),\n"
            "      file=sys.stderr)\n"
        )
        assert TestLazyQuadratureImport.run_script(script) == (
            "2 False undetermined: drift feasibility over a continuum of levels "
            "needs the atom tier"
        )

    def test_quadrature_residual_is_printed(self, capsys, tmp_path, monkeypatch):
        from scipy import integrate

        def unresolved(*args, **kwargs):
            return 0.0, 0.25  # (value, error estimate) far above any tolerance

        monkeypatch.setattr(integrate, "nquad", unresolved)
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
            "--horizon", "1",
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
         "006c6382e1a3a6618a5a7076b3adf73d68c91b3dc66c29a62a6542c552ec8204"),
        (["--horizon", "5", "--step", "0.01", "--paths", "300"],
         "f800255e3ccce3f8b0e023c315f8ab06507308579d5833bdbe758c132ac82c18"),
    ], ids=["exact_fv", "grid_bridge"])
    def test_ruin_records_come_from_the_estimate_batch(
        self, capsys, tmp_path, monkeypatch, argv, digest
    ):
        # The exact_fv digest is that of the records of the keyed oracle
        # (oracles.keyed_exact_path); the grid_bridge one, that of the
        # keyed midpoint layout.
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
