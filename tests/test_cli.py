import hashlib
import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
import scipy

import permsym.cli as cli
from permsym.cli import list_experiments, main, run_experiment
from permsym.errors import IntegrityError

from helpers import RECURSION_MUTATIONS, rowwise_write_rows


def run(args):
    return main([str(a) for a in args])


def read_manifest(outdir):
    with open(os.path.join(outdir, "manifest.json")) as fh:
        return json.load(fh)


class TestCatalog:
    def test_lists_grid_experiment(self, capsys):
        assert run(["list-experiments"]) == 0
        out = capsys.readouterr().out
        assert "tmi-grid" in out
        assert "averaged TMI" in out

    def test_machine_readable_schema(self):
        catalog = json.loads(list_experiments(as_json=True))
        assert set(catalog) >= {"ensemble-spectrum", "averages", "vn-scaling",
                                "tmi-random", "timeseries", "otoc", "tmi-grid",
                                "phase-portrait", "lyapunov", "concentration"}
        assert catalog["otoc"]["parameters"]["j"]["type"] == "float"

    def test_unknown_subcommand_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["no-such-experiment"])
        assert exc.value.code == 2
        assert "ensemble-spectrum" in capsys.readouterr().err


class TestImportGraph:
    def test_cli_import_loads_no_heavy_module(self):
        # Every command pays for `import permsym.cli` before it computes.
        # scipy.special, scipy.sparse and scipy.linalg each load scipy's
        # array-API layer (numpy.f2py and more, about 0.2-0.3 s), so the
        # package imports them, and the thread pool, only where used.
        heavy = ("scipy.special", "scipy.sparse", "scipy.linalg", "numpy.f2py",
                 "concurrent.futures")
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        code = ("import sys, permsym.cli; "
                f"print(' '.join(m for m in {heavy!r} if m in sys.modules))")
        done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120, check=True)
        assert done.stdout.split() == []

    def test_kicked_top_runs_load_no_scipy(self, tmp_path):
        # scipy is a test dependency only: the OTOC and the TMI grid run on numpy
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        code = ("import sys, permsym.cli as cli; "
                "assert cli.main(['otoc', '--j', '30', '--steps', '2', "
                f"'--out', {str(tmp_path / 'o')!r}]) == 0; "
                "assert cli.main(['tmi-grid', '--j', '3', '--n-theta', '3', '--n-phi', '4', "
                f"'--steps', '3', '--out', {str(tmp_path / 'g')!r}]) == 0; "
                "print('loaded:', *(m for m in sys.modules if m.startswith('scipy')))")
        done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120, check=True)
        assert done.stdout.splitlines()[-1] == "loaded:"


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        args = ["ensemble-spectrum", "--kind", "ps", "--n", 10, "--q", 3,
                "--samples", 200, "--bins", 40, "--seed", 5]
        digests = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run(args + ["--out", out]) == 0
            digests.append(hashlib.sha256((out / "spectrum.csv").read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_shard_count_does_not_change_bytes(self, tmp_path):
        base = ["averages", "--n", 8, "--sweep-q", "--samples", 300, "--seed", 9]
        assert run(base + ["--out", tmp_path / "t1", "--threads", 1]) == 0
        assert run(base + ["--out", tmp_path / "t2", "--threads", 3]) == 0
        assert ((tmp_path / "t1" / "averages.csv").read_bytes()
                == (tmp_path / "t2" / "averages.csv").read_bytes())

    def test_manifest_hash_matches_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        out = tmp_path / "run"
        assert run(["lyapunov", "--k", 0, "--average", 200, "--trajectories", 4,
                    "--out", out]) == 0
        manifest = read_manifest(out)
        entry = manifest["outputs"][0]
        digest = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]
        assert manifest["version"]
        assert manifest["wall_time_s"] >= 0
        env = manifest["env"]
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert env == {"python": platform.python_version(), "numpy": np.__version__,
                       "scipy": scipy.__version__,
                       "blas": {"name": blas["name"], "version": blas["version"]},
                       "threads": 1, "OMP_NUM_THREADS": "3"}


class TestExitCodes:
    def test_validation_failure_names_field(self, tmp_path, capsys):
        assert run(["averages", "--n", 3, "--q", 7, "--samples", 10,
                    "--out", tmp_path]) == 2
        assert "Q" in capsys.readouterr().err

    def test_capacity_exit(self, tmp_path):
        assert run(["tmi-random", "--n", 20, "--ensemble", "wishart",
                    "--samples", 2, "--out", tmp_path]) == 3

    @pytest.mark.parametrize("args,code,message", [
        (["tmi-random", "--ensemble", "both", "--n", 17, "--samples", 200],
         3, "capacity error: full-space sampling capped at 16 qubits, got 17"),
        (["concentration", "--epsilons", "0.1,-0.1", "--samples", 1000],
         2, "error: epsilon=-0.1 must be >= 0"),
        (["concentration", "--epsilons", "nan,0.1", "--samples", 1000],
         2, "error: epsilon=nan must be >= 0"),
    ], ids=["tmi-random-both-n17", "concentration-negative-eps", "concentration-nan-eps"])
    def test_rejected_before_any_draw(self, tmp_path, monkeypatch, capsys, args, code, message):
        import permsym.concentration as concentration
        import permsym.ensembles as ensembles
        draws = []

        def spy(*args, **kwargs):
            draws.append(args)
            return sampler(*args, **kwargs)
        sampler = ensembles.ps_amplitude_batch
        for module in (ensembles, concentration):
            monkeypatch.setattr(module, "ps_amplitude_batch", spy)
        assert run(args + ["--out", tmp_path]) == code
        assert capsys.readouterr().err == message + "\n"
        assert draws == []

    def test_bad_functional(self, tmp_path):
        assert run(["concentration", "--functional", "junk", "--out", tmp_path]) == 2

    @pytest.mark.parametrize("args", [
        pytest.param(["otoc", "--j", 2, "--steps", 3, "--k", "inf"], id="--k-inf"),
        pytest.param(["otoc", "--j", 2, "--steps", 3, "--p", "nan"], id="--p-nan"),
        pytest.param(["otoc", "--j", "nan", "--steps", 3], id="--j-nan"),
        pytest.param(["lyapunov", "--k", "inf", "--average", 10, "--trajectories", 2,
                      "--transient", 0], id="lyapunov--k-inf"),
        pytest.param(["phase-portrait", "--k", "nan", "--points", 2, "--steps", 2],
                     id="phase-portrait--k-nan"),
    ])
    def test_non_finite_kicked_top_params(self, tmp_path, args, capsys):
        assert run(args + ["--out", tmp_path]) == 2
        assert "finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args", [
        ["tmi-grid", "--blocks", "1,a,2"],
        ["concentration", "--functional", "vn:x"],
        ["concentration", "--epsilons", "0.1,x"],
        ["tmi-random", "--kind", "renyi"],
        ["tmi-random", "--samples", 0],
        ["vn-scaling", "--n-min", 4, "--n-max", 4, "--samples", 0],
        ["averages", "--samples", -5],
        ["averages", "--n", 1, "--sweep-q", "--samples", 10],
        ["averages", "--n", 1, "--sweep-q"],
        ["concentration", "--n", 3, "--functional", "linear:0"],
        ["concentration", "--n", 3, "--functional", "linear:3"],
        ["concentration", "--n", 3, "--functional", "vn:3"],
        ["averages", "--config", "missing.json"],
        ["averages", "--config", "broken.json"],
        ["averages", "--config", "typed.json"],
        ["averages", "--config", "bool_text.json"],
        ["averages", "--config", "seed_text.json"],
        ["averages", "--config", "threads_text.json"],
        ["averages", "--config", "bool_for_int.json"],
        ["averages", "--config", "fraction_for_int.json"],
        ["averages", "--config", "seed_bool.json"],
        ["averages", "--config", "threads_bool.json"],
        ["averages", "--config", "threads_fraction.json"],
        ["averages", "--threads", 0],
        ["averages", "--threads", -3],
        ["timeseries", "--blocks", "0,1,1"],
        # each of these once fell back silently, or exited 4
        ["ensemble-spectrum", "--kind", "bogus", "--samples", 10, "--bins", 5],
        ["tmi-random", "--ensemble", "bogus", "--samples", 2],
        ["vn-scaling", "--n-min", 4, "--n-max", 3, "--samples", 2],
        ["vn-scaling", "--n-min", 5, "--n-max", 5, "--samples", 2],
        ["concentration", "--n", 3, "--samples", 1000, "--epsilons", "nan"],
        ["concentration", "--n", 3, "--samples", 1000, "--epsilons", "0.1,nan"],
        ["timeseries", "--j", 3, "--steps", 2, "--theta", "nan"],
        ["timeseries", "--j", 3, "--steps", 2, "--phi", "inf"],
    ])
    def test_malformed_input_exits_2(self, tmp_path, monkeypatch, args, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "broken.json").write_text("{not json")
        (tmp_path / "typed.json").write_text(json.dumps({"n": "twelve"}))
        # bool("false") is True: a bool parameter takes only a JSON boolean
        (tmp_path / "bool_text.json").write_text(json.dumps({"n": 5, "sweep_q": "false"}))
        (tmp_path / "seed_text.json").write_text(json.dumps({"seed": "x"}))
        (tmp_path / "threads_text.json").write_text(json.dumps({"threads": "two"}))
        (tmp_path / "bool_for_int.json").write_text(json.dumps({"n": True}))
        # int() would truncate these to n=12 and threads=1
        (tmp_path / "fraction_for_int.json").write_text(json.dumps({"n": 12.7}))
        (tmp_path / "seed_bool.json").write_text(json.dumps({"seed": True}))
        (tmp_path / "threads_bool.json").write_text(json.dumps({"threads": True}))
        (tmp_path / "threads_fraction.json").write_text(json.dumps({"threads": 1.9}))
        assert run(args + ["--out", tmp_path / "run"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    def test_integrity_failure_exits_4(self, tmp_path, monkeypatch, capsys):
        import permsym.kickedtop as kickedtop

        def fail(u):
            raise IntegrityError("Floquet unitarity defect 1.00e-03 > 1e-10")
        monkeypatch.setattr(kickedtop, "_check_unitary", fail)
        assert run(["otoc", "--j", 2, "--steps", 3, "--out", tmp_path]) == 4
        err = capsys.readouterr().err
        assert err.startswith("integrity error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mutation", sorted(RECURSION_MUTATIONS))
    def test_perturbed_floquet_rotation_exits_4(self, tmp_path, monkeypatch, mutation, capsys):
        # a mutated d-matrix recursion fails the column-norm or the unitarity
        # check of the rotation, through the Floquet matrix and the OTOC
        RECURSION_MUTATIONS[mutation](monkeypatch)
        for args in (["tmi-grid", "--j", 2, "--n-theta", 2, "--n-phi", 2, "--steps", 2],
                     ["otoc", "--j", 2, "--steps", 3]):
            assert run(args + ["--out", tmp_path]) == 4
            err = capsys.readouterr().err
            assert err.startswith("integrity error: ") and err.count("\n") == 1
            assert list(tmp_path.iterdir()) == []

    def test_eigensolver_failure_exits_4(self, tmp_path, monkeypatch, capsys):
        # a NaN amplitude leaves eigvalsh unconverged at block size 3
        import permsym.kickedtop as kickedtop
        coherent = kickedtop.coherent_amplitudes

        def corrupt(n, theta, phi):
            amps = coherent(n, theta, phi)
            amps[1] = np.nan
            return amps
        monkeypatch.setattr(kickedtop, "coherent_amplitudes", corrupt)
        with np.errstate(invalid="ignore"):
            code = run(["timeseries", "--j", 3, "--steps", 2, "--kinds", "vn",
                        "--out", tmp_path])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("integrity error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestOutputs:
    def test_averages_zero_samples_empty_mc_columns(self, tmp_path):
        assert run(["averages", "--n", 6, "--sweep-q", "--out", tmp_path]) == 0
        lines = (tmp_path / "averages.csv").read_text().splitlines()
        assert lines[0] == "N,Q,quantity,analytic,montecarlo,stderr"
        assert len(lines) == 1 + 2 * 5
        assert all(line.endswith(",,") for line in lines[1:])

    def test_timeseries_columns(self, tmp_path):
        assert run(["timeseries", "--j", 3, "--k", 6, "--steps", 4,
                    "--blocks", "1,1,1", "--kinds", "vn,lin", "--out", tmp_path]) == 0
        header = (tmp_path / "timeseries.csv").read_text().splitlines()[0].split(",")
        assert header[0] == "step"
        for col in ("S_A_vn", "I2_AB_vn", "I2_A_BC_vn", "I3_vn", "S_A_lin", "I3_lin"):
            assert col in header

    def test_timeseries_residual_columns(self, tmp_path):
        assert run(["timeseries", "--j", 3, "--k", 6, "--steps", 4,
                    "--kinds", "vn", "--residual-reference", 0.24,
                    "--out", tmp_path]) == 0
        header = (tmp_path / "timeseries.csv").read_text().splitlines()[0].split(",")
        assert "residual_I3_vn" in header

    def test_otoc_csv_shape(self, tmp_path):
        assert run(["otoc", "--j", 5, "--k", 6, "--steps", 6, "--out", tmp_path]) == 0
        lines = (tmp_path / "otoc.csv").read_text().splitlines()
        assert lines[0] == "n,F,C2,C4"
        assert len(lines) == 8
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[1]) == 0.0

    def test_otoc_near_half_integer_spin(self, tmp_path):
        # j within 1e-9 of 30 runs as j = 30; the raw value failed the
        # d-matrix column-norm check and exited 4
        for j, out in (("30.0000000001", "near"), ("30", "exact")):
            assert run(["otoc", "--j", j, "--steps", 2, "--out", tmp_path / out]) == 0
        assert ((tmp_path / "near" / "otoc.csv").read_bytes()
                == (tmp_path / "exact" / "otoc.csv").read_bytes())

    def test_grid_axes_in_header(self, tmp_path):
        assert run(["tmi-grid", "--j", 2, "--n-theta", 3, "--n-phi", 4,
                    "--steps", 5, "--out", tmp_path]) == 0
        lines = (tmp_path / "tmi_grid.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "theta\\phi"
        assert len(header) == 5
        assert len(lines) == 4

    def test_phase_portrait_columns(self, tmp_path):
        assert run(["phase-portrait", "--points", 3, "--steps", 4,
                    "--out", tmp_path]) == 0
        lines = (tmp_path / "phase_portrait.csv").read_text().splitlines()
        assert lines[0] == "phi,Z,trajectory_id,step"
        assert len(lines) == 1 + 3 * 5

    def test_json_mirror(self, tmp_path):
        assert run(["concentration", "--n", 10, "--samples", 1000,
                    "--epsilons", "0.1,0.2", "--format", "json",
                    "--out", tmp_path]) == 0
        records = json.loads((tmp_path / "concentration.json").read_text())
        assert [r["epsilon"] for r in records] == [0.1, 0.2]
        assert all(r["empirical_tail"] <= 2.0 for r in records)

    def test_outdir_env_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PERMSYM_OUTDIR", str(tmp_path / "envout"))
        assert run(["averages", "--n", 5]) == 0
        assert (tmp_path / "envout" / "averages.csv").exists()


# One small run of every experiment, for the writer oracle.
SMALL_RUNS = {
    "ensemble-spectrum": {"kind": "ps", "n": 6, "q": 4, "samples": 60, "bins": 10},
    "averages": {"n": 6, "sweep_q": True, "samples": 100},
    "vn-scaling": {"n_min": 4, "n_max": 6, "samples": 20},
    "tmi-random": {"n": 6, "blocks": "1,1,1", "ensemble": "both", "samples": 20},
    "timeseries": {"j": 3.0, "steps": 4, "residual_reference": 0.24},
    "otoc": {"j": 5.0, "steps": 4},
    "tmi-grid": {"j": 2.0, "n_theta": 3, "n_phi": 4, "steps": 5},
    "phase-portrait": {"points": 3, "steps": 4},
    "lyapunov": {"k": 0.0, "average": 100, "trajectories": 2},
    "concentration": {"n": 10, "samples": 1000, "epsilons": "0.1,0.2"},
}


class TestWriter:
    """cli._write_rows against the per-value writer it replaced (helpers.rowwise_write_rows)."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_mixed_table_matches_the_rowwise_writer(self, tmp_path, fmt):
        header = ("py_float", "np_float", "py_int", "np_int", "mixed", "text")
        specials = [-0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 0.1, 1e300]
        rows = [(x, np.float64(x), i - 3, np.int64(7 - i),
                 [x, np.float64(x), i, np.int64(i), "", "ps"][i % 6], ["", "ps", "a,b"][i % 3])
                for i, x in enumerate(specials)]
        rows.append((2.5, np.float64(-2.5), 0, np.int64(0), "", ""))
        cli._write_rows(tmp_path / "got", fmt, header, rows)
        rowwise_write_rows(tmp_path / "want", fmt, header, rows)
        assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()

    def test_empty_table_is_the_header(self, tmp_path):
        cli._write_rows(tmp_path / "got", "csv", ("a", "b"), [])
        assert (tmp_path / "got").read_bytes() == b"a,b\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", sorted(SMALL_RUNS))
    def test_every_experiment_matches_the_rowwise_writer(self, tmp_path, monkeypatch,
                                                         name, fmt):
        assert set(SMALL_RUNS) == set(cli.EXPERIMENTS)
        handed = []
        writer = cli._write_rows

        def spy(path, fmt, header, rows):
            handed.append((header, rows))
            writer(path, fmt, header, rows)
        monkeypatch.setattr(cli, "_write_rows", spy)
        (path,) = run_experiment(name, SMALL_RUNS[name], seed=3, out_dir=str(tmp_path / "out"),
                                 fmt=fmt)
        (header, rows), = handed
        rowwise_write_rows(tmp_path / "want", fmt, header, rows)
        assert open(path, "rb").read() == (tmp_path / "want").read_bytes()


class TestConfigPrecedence:
    def test_flags_override_config_override_defaults(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n": 7, "q": 2, "samples": 50}))
        out = tmp_path / "run"
        assert run(["averages", "--config", config, "--q", 3, "--out", out]) == 0
        manifest = read_manifest(out)
        assert manifest["config"]["n"] == 7        # from config file
        assert manifest["config"]["q"] == 3        # flag wins
        assert manifest["config"]["samples"] == 50
        assert manifest["seed"] == 0               # default

    def test_json_boolean_config_value(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n": 5, "sweep_q": False}))
        out = tmp_path / "run"
        assert run(["averages", "--config", config, "--out", out]) == 0
        assert read_manifest(out)["config"]["sweep_q"] is False
        rows = (out / "averages.csv").read_text().splitlines()[1:]
        assert {row.split(",")[1] for row in rows} == {"2"}

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"bogus": 1}))
        assert run(["averages", "--config", config, "--out", tmp_path]) == 2


class TestRunExperimentApi:
    def test_returns_written_paths(self, tmp_path):
        paths = run_experiment("lyapunov", {"k": 0.0, "average": 100,
                                            "trajectories": 2},
                               seed=1, out_dir=str(tmp_path))
        assert len(paths) == 1
        assert os.path.exists(paths[0])
        rows = (tmp_path / "lyapunov.csv").read_text().splitlines()
        assert abs(float(rows[1].split(",")[-1])) < 0.05
