import json
from pathlib import Path

import numpy as np
import pytest

from gramspec import cli
from gramspec.closed_forms import mp_stieltjes


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return path


MP_SOLVE = {
    "c": 1.0,
    "profile": {"kind": "constant", "value": 1.0},
    "H": {"type": "uniform", "M": 64},
    "quadrature_nodes": 64,
    "z_grid": [[0.0, 1.0]],
    "solver": {"tol": 1e-12},
}

SIM_BASE = {
    "profile": {"kind": "constant", "value": 1.0},
    "H": {"type": "uniform", "M": 48},
    "quadrature_nodes": 48,
    "ensemble": {"entry_law": "gaussian", "N": 60, "n": 120},
    "seeds": [1, 2],
    "epsilon": 0.005,
    "x_grid": {"points": 250},
    "solver": {"tol": 1e-9, "max_iters": 40000},
    "noise": {"s_sq": 1.0},
}


def read_rows(path):
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return rows


class TestSolveCommand:
    def test_mp_row_matches_quadratic(self, tmp_path):
        cfg = write_config(tmp_path, MP_SOLVE)
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out / "solve.csv")
        assert len(rows) == 1
        f = complex(float(rows[0]["f_re"]), float(rows[0]["f_im"]))
        assert abs(f - mp_stieltjes(1j, 1.0, 1.0)) <= 1e-8
        assert float(rows[0]["dual_resid"]) <= 1e-10

    def test_threads_match_serial(self, tmp_path):
        cfg_dict = dict(MP_SOLVE, z_grid=[[0.0, 1.0], [0.5, 2.0], [1.0, 0.8]])
        cfg = write_config(tmp_path, cfg_dict)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out2),
                         "--threads", "3"]) == 0
        assert (out1 / "solve.csv").read_bytes() == (out2 / "solve.csv").read_bytes()

    def test_rows_report_total_iters_and_rescued(self, tmp_path):
        cfg = write_config(tmp_path, dict(MP_SOLVE, z_grid=[[0.5, 0.1], [0.5, 8.0]]))
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        header = [line for line in (out / "solve.csv").read_text().splitlines()
                  if not line.startswith("#")][0]
        assert header.split(",")[-3:] == ["iters", "total_iters", "rescued"]
        rows = read_rows(out / "solve.csv")
        assert len(rows) == 2
        for row in rows:
            # both targets converge from the cold start at the target
            assert int(row["total_iters"]) == int(row["iters"]) > 0
            assert row["rescued"] == "0"

    def test_zero_threads_exits_2_before_creating_out(self, tmp_path, capsys):
        no_profile = {k: v for k, v in MP_SOLVE.items() if k != "profile"}
        ensemble = SIM_BASE["ensemble"]
        cases = [
            ("solve", MP_SOLVE, ["--threads", "0"], "--threads"),
            ("solve", no_profile, [], "profile.kind"),
            # compare rejects this config too: c must match the ensemble's N/n
            ("simulate", dict(SIM_BASE, c=0.25), [], "c"),
            # the command's own fields are read before --out too
            ("solve", dict(MP_SOLVE, z_grid=[[0, -1]]), [], "z_grid"),
            ("density", dict(SIM_BASE, x_grid=[1.0, 0.5]), [], "x_grid"),
            ("density", dict(SIM_BASE, epsilon=0), [], "epsilon"),
            ("simulate", dict(SIM_BASE, ensemble=dict(ensemble, entry_law="cauchy")), [],
             "ensemble"),
            ("capacity", dict(SIM_BASE, noise={"s_sq": -1.0}), [], "noise.s_sq"),
            # the transposed curve has an atom at zero, which capacity rejects
            ("capacity", dict(SIM_BASE, transpose_curve=True), [], "transpose_curve"),
            # solver accepts only tol and max_iters, both numbers
            ("solve", dict(MP_SOLVE, solver={"tol": 1e-12, "damping": 0.5}), [],
             "solver.damping"),
            ("density", dict(SIM_BASE, solver={"min_denominator": 1e-14}), [],
             "solver.min_denominator"),
            ("solve", dict(MP_SOLVE, solver={"tol": "tight"}), [], "solver.tol"),
            # every field is a JSON value of its own kind: an integer is never
            # a float, a number never a string or a bool, a flag only a bool
            ("solve", dict(MP_SOLVE, quadrature_nodes="x"), [], "quadrature_nodes"),
            ("solve", dict(MP_SOLVE, c=0.5, quadrature_nodes=2.7), [], "quadrature_nodes"),
            ("solve", dict(MP_SOLVE, c=0.5, quadrature_nodes=True), [], "quadrature_nodes"),
            ("solve", dict(MP_SOLVE, H={"type": "uniform", "M": 2.7}), [], "H.M"),
            ("solve", dict(MP_SOLVE, H={"type": "uniform", "M": "x"}), [], "H.M"),
            ("solve", dict(MP_SOLVE, H={"type": "uniform", "lambda": "x"}), [], "H.lambda"),
            ("solve", dict(MP_SOLVE, c=True), [], "c"),
            ("solve", dict(MP_SOLVE, c=2, transpose="no"), [], "transpose"),
            ("solve", dict(MP_SOLVE, solver={"max_iters": 2.7}), [], "solver.max_iters"),
            ("solve", dict(MP_SOLVE, solver={"tol": True}), [], "solver.tol"),
            ("solve", dict(MP_SOLVE, solver={"tol": "1e-3"}), [], "solver.tol"),
            ("density", dict(SIM_BASE, epsilon="abc"), [], "epsilon"),
            ("density", dict(SIM_BASE, x_grid="abc"), [], "x_grid"),
            ("density", dict(SIM_BASE, x_grid={"points": "x"}), [], "x_grid.points"),
            ("density", dict(SIM_BASE, x_grid={"points": 2.7}), [], "x_grid.points"),
            ("density", dict(SIM_BASE, x_grid=["a", "b"]), [], "x_grid"),
            ("density", dict(SIM_BASE, transpose_curve="no"), [], "transpose_curve"),
            ("capacity", dict(SIM_BASE, noise=5), [], "noise"),
            ("capacity", dict(SIM_BASE, noise={"s_sq": "x"}), [], "noise.s_sq"),
            ("simulate", dict(SIM_BASE, ensemble=dict(ensemble, N=True)), [], "ensemble.N"),
        ]
        for k, (command, cfg_dict, extra, field) in enumerate(cases):
            cfg = write_config(tmp_path, cfg_dict, name=f"cfg{k}.json")
            out = tmp_path / f"never{k}"
            assert cli.main([command, "--config", str(cfg), "--out", str(out),
                             *extra]) == 2, field
            assert not out.exists(), field
            assert f"{field}: " in capsys.readouterr().err, field

    @pytest.mark.parametrize("command", ["compare", "capacity"])
    def test_empty_seed_list_exits_2_before_creating_out(self, tmp_path, command):
        cfg = write_config(tmp_path, SIM_BASE)
        out = tmp_path / "never"
        assert cli.main([command, "--config", str(cfg), "--out", str(out),
                         "--seeds", ","]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command,cfg_seeds,extra", [
        ("simulate", [-1], []),
        ("simulate", [1, 2], ["--seeds", "-1"]),
        ("compare", [1, 2], ["--seeds", "3,-1"]),
        ("capacity", [2 ** 128], []),
        ("simulate", ["one"], []),
        # config seeds are JSON integers: no floats, booleans or strings
        ("simulate", [1.5], []),
        ("compare", [True], []),
        ("capacity", ["7"], []),
    ])
    def test_bad_seed_exits_2_before_creating_out(self, tmp_path, command, cfg_seeds,
                                                  extra):
        # a seed outside the Philox key range [0, 2**128) is a config error
        cfg = write_config(tmp_path, dict(SIM_BASE, seeds=cfg_seeds))
        out = tmp_path / "never"
        assert cli.main([command, "--config", str(cfg), "--out", str(out), *extra]) == 2
        assert not out.exists()

    def test_invalid_ratio_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, dict(MP_SOLVE, c=1.5))
        assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    def test_transpose_directive_allows_big_ratio(self, tmp_path):
        cfg = write_config(tmp_path, dict(MP_SOLVE, c=2.0, transpose=True))
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out / "solve.csv")
        f = complex(float(rows[0]["f_re"]), float(rows[0]["f_im"]))
        assert abs(f - mp_stieltjes(1j, 0.5, 1.0)) <= 1e-8

    def test_missing_field_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"c": 1.0, "z_grid": [[0, 1]]})
        assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    def test_broken_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path / "x")]) == 2

    def test_no_convergence_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, dict(MP_SOLVE, solver={"tol": 1e-12,
                                                            "max_iters": 2}))
        assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3

    def test_numerical_failure_exits_4(self, tmp_path):
        # a curve cut off far inside the bulk fails the distribution mass check
        cfg = write_config(tmp_path, dict(SIM_BASE, x_grid={"max": 0.4,
                                                            "points": 50}))
        assert cli.main(["compare", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 4


class TestSimulateCommand:
    def test_deterministic_reruns(self, tmp_path):
        cfg = write_config(tmp_path, SIM_BASE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        for seed in (1, 2):
            name = f"eigenvalues_seed{seed}.csv"
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_threads_write_the_same_bytes(self, tmp_path, command):
        # --threads reaches only the sampling pool, never the output
        cfg = write_config(tmp_path, dict(SIM_BASE, seeds=[3, 1, 2]))
        outs = [tmp_path / f"threads{threads}" for threads in (1, 2)]
        for threads, out in zip((1, 2), outs):
            assert cli.main([command, "--config", str(cfg), "--out", str(out),
                             "--threads", str(threads)]) == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        assert len(names) == 3      # three seeds, or compare's three files
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_every_table_ends_its_lines_with_newline(self, tmp_path):
        cfg = write_config(tmp_path, SIM_BASE)
        sim_out, out = tmp_path / "sims", tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(sim_out)]) == 0
        assert cli.main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        tables = sorted(sim_out.glob("*.csv")) + sorted(out.glob("*.csv"))
        assert len(tables) == 4
        for path in tables:
            data = path.read_bytes()
            assert b"\r" not in data and data.endswith(b"\n")

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path, SIM_BASE)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--seeds", "7"]) == 0
        assert (out / "eigenvalues_seed7.csv").exists()
        assert not (out / "eigenvalues_seed1.csv").exists()

    def test_embeds_config_hash(self, tmp_path):
        cfg_dict = dict(SIM_BASE)
        cfg = write_config(tmp_path, cfg_dict)
        out = tmp_path / "out"
        cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
        text = (out / "eigenvalues_seed1.csv").read_text()
        assert f"config_hash: {cli.config_hash(cfg_dict)}" in text

    def test_tall_ensemble_transposed_automatically(self, tmp_path):
        cfg_dict = dict(SIM_BASE,
                        ensemble={"entry_law": "gaussian", "N": 120, "n": 60})
        cfg = write_config(tmp_path, cfg_dict)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--seeds", "4"]) == 0
        text = (out / "eigenvalues_seed4.csv").read_text()
        assert "# N: 60" in text and "# n: 120" in text
        assert "transposed: True" in text


class TestCompareCommand:
    def test_compare_on_fresh_sims(self, tmp_path):
        cfg = write_config(tmp_path, SIM_BASE)
        out = tmp_path / "out"
        assert cli.main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "compare.json").read_text())
        assert report["config_hash"] == cli.config_hash(SIM_BASE)
        assert len(report["per_seed"]) == 2
        assert 0 <= report["median_ks"] <= 0.2
        rows = read_rows(out / "compare.csv")
        assert [r["seed"] for r in rows] == ["1", "2"]
        assert all(0 <= float(r["ks"]) <= 0.2 for r in rows)

    def test_refuses_mismatched_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, SIM_BASE)
        sim_out = tmp_path / "sims"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(sim_out)]) == 0
        other = dict(SIM_BASE, noise={"s_sq": 2.0})
        cfg2 = write_config(tmp_path, other, name="other.json")
        code = cli.main(["compare", "--config", str(cfg2), "--out", str(tmp_path / "x"),
                         "--sim-dir", str(sim_out)])
        assert code == 2

    def test_reuses_matching_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, SIM_BASE)
        sim_out = tmp_path / "sims"
        cli.main(["simulate", "--config", str(cfg), "--out", str(sim_out)])
        out = tmp_path / "out"
        assert cli.main(["compare", "--config", str(cfg), "--out", str(out),
                         "--sim-dir", str(sim_out)]) == 0
        report = json.loads((out / "compare.json").read_text())
        assert {r["seed"] for r in report["per_seed"]} == {1, 2}

    @pytest.mark.parametrize("old,new", [
        ("# N: 60\n", ""),
        ("\neigenvalue\n", "\neigenvalue\nnot-a-number\n"),
        ("# seed: 1\n", "# seed: x\n"),
    ])
    def test_malformed_artifact_exits_2_before_creating_out(self, tmp_path, capsys,
                                                            old, new):
        cfg = write_config(tmp_path, dict(SIM_BASE, seeds=[1]))
        sim_out = tmp_path / "sims"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(sim_out)]) == 0
        path = sim_out / "eigenvalues_seed1.csv"
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
        out = tmp_path / "never"
        assert cli.main(["compare", "--config", str(cfg), "--out", str(out),
                         "--sim-dir", str(sim_out)]) == 2
        assert not out.exists()
        assert "eigenvalues_seed1.csv" in capsys.readouterr().err

    def test_transposed_side_comparison(self, tmp_path):
        cfg = write_config(tmp_path, dict(SIM_BASE, transpose_curve=True))
        out = tmp_path / "out"
        assert cli.main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "compare.json").read_text())
        # padded spectra against the atom-bearing curve stay close too
        assert report["median_ks"] <= 0.2


class TestCapacityCommand:
    def test_empirical_close_to_limit(self, tmp_path):
        cfg = write_config(tmp_path, SIM_BASE)
        out = tmp_path / "out"
        assert cli.main(["capacity", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "capacity.json").read_text())
        assert report["units"] == "nats"
        assert abs(report["empirical_mean"] - report["limit"]) / report["limit"] <= 0.05

    def test_integer_noise_keeps_its_float_spelling(self, tmp_path):
        cfg = write_config(tmp_path, dict(SIM_BASE, noise={"s_sq": 2}))
        out = tmp_path / "out"
        assert cli.main(["capacity", "--config", str(cfg), "--out", str(out)]) == 0
        assert '"s_sq": 2.0' in (out / "capacity.json").read_text()

    def test_bits_flag_scales(self, tmp_path):
        cfg = write_config(tmp_path, SIM_BASE)
        out_n = tmp_path / "nats"
        out_b = tmp_path / "bits"
        cli.main(["capacity", "--config", str(cfg), "--out", str(out_n)])
        cli.main(["capacity", "--config", str(cfg), "--out", str(out_b), "--bits"])
        nats = json.loads((out_n / "capacity.json").read_text())
        bits = json.loads((out_b / "capacity.json").read_text())
        assert bits["limit"] == pytest.approx(nats["limit"] / np.log(2), rel=1e-12)


class TestDensityCommand:
    def test_outputs_curve_and_summary(self, tmp_path):
        cfg_dict = {
            "c": 1.0,
            "profile": {"kind": "constant", "value": 1.0},
            "H": {"type": "uniform", "M": 48},
            "quadrature_nodes": 48,
            "epsilon": 0.005,
            "x_grid": {"points": 200},
            "solver": {"tol": 1e-9, "max_iters": 40000},
        }
        cfg = write_config(tmp_path, cfg_dict)
        out = tmp_path / "out"
        assert cli.main(["density", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out / "density.csv")
        assert len(rows) == 200
        summary = json.loads((out / "density.json").read_text())
        assert summary["atom_at_zero"] == 0.0
        assert abs(summary["mass_defect"]) <= 0.05
        # density near x=2 approximates the known bulk value
        xs = np.array([float(r["x"]) for r in rows])
        vals = np.array([float(r["density"]) for r in rows])
        assert np.interp(2.0, xs, vals) == pytest.approx(1 / (2 * np.pi), abs=5e-3)


class TestReadmeExample:
    def test_every_command_reads_the_example_config(self):
        # the README's example config must pass the strict reader as written
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("Example config", 1)[1]
        cfg = json.loads(example.split("```json\n", 1)[1].split("```", 1)[0])
        model = cli.build_model(cfg)
        assert model.c == 0.5 and len(model.H.u) == 256 and len(model.quad) == 256
        assert cli.build_z_grid(cfg) == [1j, 0.5j, 2 + 0.1j]
        grid = cli.build_curve_grid(model)
        assert grid.x_grid.size == 2000 and grid.epsilon == 0.001 and not grid.transpose
        sampling = cli.build_sampling(model, None)
        assert (sampling.spec.N, sampling.spec.n) == (200, 400)
        assert sampling.lambda_diag.shape == (200,)
        assert sampling.seeds == [0, 1, 2, 3, 4]
