import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gramspec
from gramspec import cli, master_solver, simulator
from gramspec.closed_forms import centered_profile_k, iid_noncentered_f, mp_stieltjes
from gramspec.errors import InvalidInput
from gramspec.measures import VarianceProfile


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
            # both targets converge from the mean-field start at the target
            assert int(row["total_iters"]) == int(row["iters"]) > 0
            assert row["rescued"] == "0"

    def test_rescued_row_counts_every_attempt(self, tmp_path, monkeypatch):
        # the zgrid benchmark's system: from the cold start -num/z at
        # 2.37+0.021i Newton converges outside the Stieltjes class, and the
        # ladder serves it.  The mean-field start there needs no rescue, so
        # every solve without a start of its own starts from -num/z here.
        monkeypatch.setattr(master_solver._Stepper, "start", lambda self, z: -self.num / z)
        cfg = write_config(tmp_path, {
            "c": 0.5,
            "profile": {"kind": "separable", "g_values": [0.5, 1.0, 1.5],
                        "h_values": [1.5, 1.0, 0.5]},
            "H": {"type": "product", "h_lambda": [[0.0, 0.5], [0.5, 0.3], [2.0, 0.2]],
                  "M": 64},
            "quadrature_nodes": 64,
            "z_grid": [[2.37, 0.021], [1.9, 0.06]],
            "solver": {"tol": 1e-10, "max_iters": 60000},
        })
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        direct, rescued = read_rows(out / "solve.csv")
        assert direct["rescued"] == "0" and rescued["rescued"] == "1"
        assert int(direct["total_iters"]) == int(direct["iters"]) > 0
        assert int(rescued["total_iters"]) > int(rescued["iters"]) > 0

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
            # an x_grid bound is used or rejected, never ignored
            ("density", dict(SIM_BASE, x_grid={"points": 50, "min": 1.0}), [], "x_grid.min"),
            ("density", dict(SIM_BASE, x_grid={"min": 2, "max": 1}), [], "x_grid.max"),
            # a profile kind has one name, the README's
            ("solve", dict(MP_SOLVE, profile={"kind": "bilinear-grid",
                                              "values": [[1.0, 1.0], [1.0, 2.0]]}), [],
             "profile.kind"),
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

    @pytest.mark.parametrize("command, cfg", [("solve", MP_SOLVE), ("density", SIM_BASE)])
    @pytest.mark.parametrize("seeds", ["5,6", ","])
    def test_seeds_on_a_command_without_samples_exits_2(self, tmp_path, capsys, command,
                                                        cfg, seeds):
        # solve and density draw no sample: --seeds is not one of their flags
        path = write_config(tmp_path, cfg)
        out = tmp_path / "never"
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, "--config", str(path), "--out", str(out), "--seeds", seeds])
        assert exit_info.value.code == 2
        assert not out.exists()
        assert "unrecognized arguments: --seeds" in capsys.readouterr().err

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
        # a repeated seed would count one sample twice
        ("compare", [3, 3], []),
        ("simulate", [1, 2], ["--seeds", "7,7"]),
    ])
    def test_bad_seed_exits_2_before_creating_out(self, tmp_path, command, cfg_seeds,
                                                  extra):
        # a seed outside the Philox key range [0, 2**128) is a config error
        cfg = write_config(tmp_path, dict(SIM_BASE, seeds=cfg_seeds))
        out = tmp_path / "never"
        assert cli.main([command, "--config", str(cfg), "--out", str(out), *extra]) == 2
        assert not out.exists()

    def test_invalid_ratio_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, dict(MP_SOLVE, c=0.0))
        assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    def test_big_ratio_solves_the_transposed_model(self, tmp_path):
        # c = 2 is solved as the ratio-1/2 model with profile 2 sigma2(y, x)
        cfg = write_config(tmp_path, dict(MP_SOLVE, c=2.0))
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out / "solve.csv")
        f = complex(float(rows[0]["f_re"]), float(rows[0]["f_im"]))
        assert abs(f - mp_stieltjes(1j, 0.5, 2.0)) <= 1e-8

    def test_missing_field_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"c": 1.0, "z_grid": [[0, 1]]})
        assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    def test_broken_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path / "x")]) == 2

    def test_no_convergence_exits_3(self, tmp_path):
        # on a constant profile the mean-field start is the answer, found in
        # 2 map applications; this profile's rows have different means
        cfg = write_config(tmp_path, dict(
            MP_SOLVE, profile={"kind": "bilinear", "values": [[0.5, 1.0], [0.2, 0.8]]},
            solver={"tol": 1e-12, "max_iters": 2}))
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
        ("# seed: 1\n", ""),
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

    def test_repeated_seed_exits_2_before_creating_out(self, tmp_path, capsys):
        # a copy of a file still matches eigenvalues_seed*.csv, and its
        # sample would count twice
        cfg = write_config(tmp_path, dict(SIM_BASE, seeds=[2, 10, 3]))
        sim_out = tmp_path / "sims"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(sim_out)]) == 0
        (sim_out / "eigenvalues_seed3.bak.csv").write_bytes(
            (sim_out / "eigenvalues_seed3.csv").read_bytes())
        out = tmp_path / "never"
        assert cli.main(["compare", "--config", str(cfg), "--out", str(out),
                         "--sim-dir", str(sim_out)]) == 2
        assert not out.exists()
        assert "sim-dir: repeats seed 3" in capsys.readouterr().err

    def test_seeds_with_sim_dir_exits_2_before_creating_out(self, tmp_path, capsys):
        # the files carry seeds 1 and 2; --seeds 5,6 must not be dropped unread
        cfg = write_config(tmp_path, SIM_BASE)
        sim_out = tmp_path / "sims"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(sim_out)]) == 0
        out = tmp_path / "never"
        assert cli.main(["compare", "--config", str(cfg), "--out", str(out),
                         "--sim-dir", str(sim_out), "--seeds", "5,6"]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "config error: --seeds: " in err and "--sim-dir" in err

    def test_seeds_override_the_config_without_sim_dir(self, tmp_path):
        cfg = write_config(tmp_path, SIM_BASE)
        out = tmp_path / "out"
        assert cli.main(["compare", "--config", str(cfg), "--out", str(out),
                         "--seeds", "5"]) == 0
        assert [r["seed"] for r in read_rows(out / "compare.csv")] == ["5"]

    def test_loaded_samples_give_the_bytes_of_fresh_ones(self, tmp_path):
        # seed order, not file-name order (eigenvalues_seed10 before _seed2)
        cfg = write_config(tmp_path, dict(SIM_BASE, seeds=[2, 10, 3]))
        sim_out, fresh, loaded = tmp_path / "sims", tmp_path / "fresh", tmp_path / "loaded"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(sim_out)]) == 0
        assert cli.main(["compare", "--config", str(cfg), "--out", str(fresh)]) == 0
        assert cli.main(["compare", "--config", str(cfg), "--out", str(loaded),
                         "--sim-dir", str(sim_out)]) == 0
        for name in ("compare.csv", "compare.json", "limit_cdf.csv"):
            assert (fresh / name).read_bytes() == (loaded / name).read_bytes(), name
        assert [r["seed"] for r in read_rows(loaded / "compare.csv")] == ["2", "3", "10"]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_eigenvalue_not_finite_exits_2_before_creating_out(self, tmp_path, capsys, value):
        # the last line holds the largest eigenvalue, so an inf there keeps
        # the file sorted
        cfg = write_config(tmp_path, dict(SIM_BASE, seeds=[1]))
        sim_out = tmp_path / "sims"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(sim_out)]) == 0
        path = sim_out / "eigenvalues_seed1.csv"
        lines = path.read_text().splitlines()
        lines[-1] = value
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "never"
        assert cli.main(["compare", "--config", str(cfg), "--out", str(out),
                         "--sim-dir", str(sim_out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "eigenvalues_seed1.csv" in err and f"got {value}" in err

    def test_transposed_side_comparison(self, tmp_path):
        cfg = write_config(tmp_path, dict(SIM_BASE, transpose_curve=True))
        out = tmp_path / "out"
        assert cli.main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "compare.json").read_text())
        # padded spectra against the atom-bearing curve stay close too
        assert report["median_ks"] <= 0.2


class TestTallEnsemble:
    """At c = N/n > 1 every command solves and samples the transposed
    model, whose Gram side is the n x n ``Sigma^T Sigma``."""

    CFG = {
        "profile": {"kind": "separable", "g_values": [0.5, 1.0, 2.0], "h_values": [1.5, 0.7]},
        "H": {"type": "product", "h_lambda": [[0.0, 0.5], [4.0, 0.5]], "M": 200},
        "quadrature_nodes": 256,
        "ensemble": {"entry_law": "gaussian", "N": 400, "n": 200},
        "solver": {"tol": 1e-12},
    }

    def test_limit_matches_the_papers_matrix(self):
        model = cli.build_model(self.CFG)
        (N, n), z = model.dims, 1.0 + 0.3j
        assert model.c == 0.5
        report = master_solver.solve_with_continuation([z], model.c, model.H, model.profile,
                                                       model.quad, model.opts)[z]
        # Sigma_ij = sigma(i/N, j/n) X_ij / sqrt(n) + Lambda_ii 1{i = j}, drawn
        # here as the paper's N x n matrix with the config's own profile
        sigma_sq = cli.build_profile(self.CFG).evaluate(np.arange(1, N + 1)[:, None] / N,
                                                        np.arange(1, n + 1)[None, :] / n)
        lam = model.offsets(n)
        seeds = range(8)
        papers = []
        for seed in seeds:
            sigma = (np.sqrt(sigma_sq) * np.random.default_rng(seed).standard_normal((N, n))
                     / np.sqrt(n))
            sigma[np.arange(n), np.arange(n)] += lam
            papers.append(np.linalg.eigvalsh(sigma.T @ sigma))
        # the sampler draws the transposed model's n x N matrix
        sampled = [simulator.sample_spectrum(spec, model.profile, lam).eigenvalues
                   for spec in cli.build_sampling(model, list(seeds)).specs]
        for draws in (papers, sampled):
            fs = np.array([np.mean(1.0 / (ev - z)) for ev in draws])
            stderr = np.sqrt((fs.real.var(ddof=1) + fs.imag.var(ddof=1)) / fs.size)
            assert abs(fs.mean() - report.f) <= 3.0 * stderr


class TestEigenvalueFiles:
    """``simulate`` writes each sample with the CLI's one CSV writer, and
    ``compare --sim-dir`` reads it back with the CLI's one reader."""

    SMALL = dict(SIM_BASE, ensemble={"entry_law": "gaussian", "N": 5, "n": 8}, seeds=[3])

    def simulated(self, tmp_path):
        """The eigenvalue file of seed 3 at 5 x 8, and the sample it holds."""
        cfg = write_config(tmp_path, self.SMALL)
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        sample = simulator.sample_spectrum(simulator.EnsembleSpec("gaussian", 3, 5, 8),
                                           VarianceProfile.constant(1.0), np.zeros(5))
        return tmp_path / "eigenvalues_seed3.csv", sample

    def test_simulate_and_load(self, tmp_path):
        path, sample = self.simulated(tmp_path)
        loaded, meta = cli._load_csv(path)
        np.testing.assert_array_equal(loaded.eigenvalues, sample.eigenvalues)
        assert loaded.seed == 3
        assert loaded.dims == (5, 8)
        assert meta["config_hash"] == cli.config_hash(self.SMALL)
        assert meta["rng"] == "philox4x64"
        assert list(meta) == ["seed", "N", "n", "rng", "config_hash", "config", "transposed"]
        assert b"\r" not in path.read_bytes()

    def test_loads_files_with_crlf_rows(self, tmp_path):
        # files written before every table ended its lines with \n alone
        path, sample = self.simulated(tmp_path)
        head, _, rows = path.read_bytes().partition(b"eigenvalue\n")
        path.write_bytes(head + b"eigenvalue\r\n" + rows.replace(b"\n", b"\r\n"))
        loaded, _ = cli._load_csv(path)
        np.testing.assert_array_equal(loaded.eigenvalues, sample.eigenvalues)

    @pytest.mark.parametrize("old,new,where", [
        ("# N: 5\n", "", "no '# N:' header line"),
        ("# seed: 3\n", "", "no '# seed:' header line"),
        ("\neigenvalue\n", "\neigenvalue\n1.5e\n", "line 9: cannot read '1.5e'"),
        ("# seed: 3\n", "# seed: x\n", "line 1: cannot read 'x'"),
        ("# seed: 3\n", "# seed: -1\n", "seed must be an integer in [0, 2**128)"),
        ("\neigenvalue\n", "\neigenvalue\n0.5\n", "6 eigenvalues for N=5"),
    ])
    def test_malformed_file_names_file_and_line(self, tmp_path, old, new, where):
        path, _ = self.simulated(tmp_path)
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
        with pytest.raises(InvalidInput, match="eigenvalues_seed3.csv") as info:
            cli._load_csv(path)
        assert where in str(info.value)


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


ATOMS_H = {"type": "atoms", "atoms": [[0.25, 0.0, 0.5], [0.75, 2.25, 0.5]]}

# branches of the config reader that no other test reaches:
# (command, config as JSON, as raw text or None for no file, extra
# arguments with EMPTY for an empty directory, the field in the message)
CONFIG_ERRORS = {
    "unreadable-config": ("solve", None, [], "config"),
    "config-not-an-object": ("solve", "[1, 2]", [], "config"),
    "ragged-rows": ("solve", dict(MP_SOLVE, profile={"kind": "bilinear",
                                                     "values": [[1.0, 1.0], [1.0]]}),
                    [], "profile.values"),
    "unknown-H-type": ("solve", dict(MP_SOLVE, H={"type": "gaussian"}), [], "H.type"),
    "no-c-no-ensemble": ("solve", {k: v for k, v in MP_SOLVE.items() if k != "c"}, [], "c"),
    "empty-z-grid": ("solve", dict(MP_SOLVE, z_grid=[]), [], "z_grid"),
    "one-point-x-grid": ("density", dict(SIM_BASE, x_grid=[1.0]), [], "x_grid"),
    "atoms-simulated": ("simulate", dict(SIM_BASE, H=ATOMS_H), [], "H.type"),
    "lambda-diag-not-N": ("simulate", dict(SIM_BASE, H={"type": "diagonal",
                                                        "lambda_diag": [0.0, 1.0, 2.0]}),
                          [], "H.lambda_diag"),
    "sim-dir-without-csvs": ("compare", SIM_BASE, ["--sim-dir", "EMPTY"], "sim-dir"),
    "seeds-not-integers": ("simulate", SIM_BASE, ["--seeds", "1,x"], "--seeds"),
    # c is the paper's N/n, checked against the ensemble before any transpose
    "c-below-tall-ensemble": ("simulate", dict(SIM_BASE, c=0.5, ensemble={
        "entry_law": "gaussian", "N": 120, "n": 60}), [], "c"),
    # an older version read c > 1 under this field with the profile kept
    "transpose-directive": ("solve", dict(MP_SOLVE, c=2.0, transpose=True), [], "transpose"),
    "transpose-off": ("solve", dict(MP_SOLVE, c=0.5, transpose=False), [], "transpose"),
}


class TestConfigKinds:
    """Profile kinds, H types and grids the command tests above do not use,
    each checked against an oracle, and the config errors they miss."""

    @pytest.mark.parametrize("profile, reference", [
        ({"kind": "bilinear", "values": [[1.0, 1.0], [1.0, 2.0]]},
         VarianceProfile.bilinear([[1.0, 1.0], [1.0, 2.0]])),
        ({"kind": "blocks", "values": [[0.5, 1.5, 1.0], [2.0, 1.0, 0.7]]},
         VarianceProfile.blocks([[0.5, 1.5, 1.0], [2.0, 1.0, 0.7]])),
    ], ids=["bilinear", "blocks"])
    def test_profile_kind_matches_position_oracle(self, tmp_path, profile, reference):
        cfg = write_config(tmp_path, dict(MP_SOLVE, c=0.5, profile=profile,
                                          z_grid=[[0.0, 1.0], [1.0, 0.5]]))
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out / "solve.csv")
        assert len(rows) == 2
        # zero offsets: f is the mean of k over the u grid of H's 64 atoms
        grid = (np.arange(64) + 0.5) / 64
        for row in rows:
            z = complex(float(row["z_re"]), float(row["z_im"]))
            f = complex(float(row["f_re"]), float(row["f_im"]))
            assert abs(f - complex(centered_profile_k(z, 0.5, reference, grid).mean())) <= 1e-10

    @pytest.mark.parametrize("H", [
        {"type": "diagonal", "lambda_diag": [0.0, 1.5] * 32},
        ATOMS_H,
    ], ids=["diagonal", "atoms"])
    def test_H_type_matches_offset_oracle(self, tmp_path, H):
        # both give squared offsets 0 and 2.25 with weight 1/2 each
        cfg = write_config(tmp_path, dict(MP_SOLVE, c=0.5, H=H,
                                          z_grid=[[0.0, 1.0], [2.0, 0.5]]))
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out / "solve.csv")
        assert len(rows) == 2
        for row in rows:
            z = complex(float(row["z_re"]), float(row["z_im"]))
            f = complex(float(row["f_re"]), float(row["f_im"]))
            assert abs(f - iid_noncentered_f(z, 0.5, 1.0, [(0.0, 0.5), (2.25, 0.5)])) <= 1e-10

    def test_explicit_x_grid_is_the_curve_grid(self, tmp_path):
        xs = [0.5, 1.0, 2.0, 3.0]
        cfg = write_config(tmp_path, dict(MP_SOLVE, epsilon=0.01, x_grid=xs))
        out = tmp_path / "out"
        assert cli.main(["density", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out / "density.csv")
        assert [float(r["x"]) for r in rows] == xs
        for x, row in zip(xs, rows):
            expect = mp_stieltjes(complex(x, 0.01), 1.0, 1.0).imag / np.pi
            assert abs(float(row["density"]) - expect) <= 1e-8

    @pytest.mark.parametrize("case", CONFIG_ERRORS.values(), ids=CONFIG_ERRORS.keys())
    def test_config_error_exits_2_before_creating_out(self, tmp_path, capsys, case):
        command, cfg_dict, extra, field = case
        cfg = tmp_path / "cfg.json"
        if cfg_dict is not None:
            cfg.write_text(cfg_dict if isinstance(cfg_dict, str) else json.dumps(cfg_dict))
        (tmp_path / "empty").mkdir()
        extra = [str(tmp_path / "empty") if arg == "EMPTY" else arg for arg in extra]
        out = tmp_path / "never"
        assert cli.main([command, "--config", str(cfg), "--out", str(out), *extra]) == 2
        assert not out.exists()
        assert f"config error: {field}: " in capsys.readouterr().err


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
        assert [(spec.seed, spec.N, spec.n) for spec in sampling.specs] == [
            (seed, 200, 400) for seed in range(5)]
        assert sampling.lambda_diag.shape == (200,)

    def test_library_quick_start_runs(self, capsys):
        # the quick start must call only names and parameters that exist
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("## Library quick start", 1)[1]
        exec(compile(example.split("```python\n", 1)[1].split("```", 1)[0], "README.md",
                     "exec"), {})
        assert capsys.readouterr().out.strip()


# run in a fresh interpreter, so no other test's imports reach sys.modules
IMPORT_PROBE = """
import json, sys
import numpy as np
import gramspec, gramspec.cli
cfg, out = sys.argv[1:]
codes = [gramspec.cli.run([cmd, "--config", cfg, "--out", out + "/" + cmd])
         for cmd in ("solve", "density")]
solver_path = "scipy.linalg" in sys.modules
gramspec.simulator.gram_eigenvalues(np.ones((2, 3)))
print(json.dumps([codes, solver_path, "scipy.linalg" in sys.modules]))
"""


class TestImportBoundary:
    def test_solver_path_does_not_load_scipy_linalg(self, tmp_path):
        cfg = write_config(tmp_path, dict(MP_SOLVE, H={"type": "uniform", "M": 16},
                                          quadrature_nodes=16, epsilon=0.01,
                                          x_grid={"points": 100}))
        src = str(Path(gramspec.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(cfg), str(tmp_path)],
                              capture_output=True, text=True, check=True,
                              env=dict(os.environ, PYTHONPATH=src))
        codes, solver_path, simulator_path = json.loads(done.stdout.splitlines()[-1])
        assert codes == [0, 0]
        assert not solver_path
        # the probe sees the import once the simulator does linear algebra
        assert simulator_path


class TestParser:
    def test_consecutive_calls_parse_independently(self, tmp_path):
        # one parser serves every call in the process; no option of a call
        # reaches the next
        assert cli.build_parser() is cli.build_parser()
        cfg = write_config(tmp_path, dict(SIM_BASE, seeds=[1]))

        def run(command, *extra):
            out = tmp_path / f"{command}{len(list(tmp_path.iterdir()))}"
            assert cli.main([command, "--config", str(cfg), "--out", str(out), *extra]) == 0
            return out

        sims = run("simulate", "--seeds", "4", "--threads", "2")
        assert [p.name for p in sims.iterdir()] == ["eigenvalues_seed4.csv"]
        loaded = json.loads((run("compare", "--sim-dir", str(sims)) / "compare.json")
                            .read_text())
        assert [r["seed"] for r in loaded["per_seed"]] == [4]
        # with --sim-dir left over, --seeds would be an error
        fresh = json.loads((run("compare", "--seeds", "5") / "compare.json").read_text())
        assert [r["seed"] for r in fresh["per_seed"]] == [5]
        bits = json.loads((run("capacity", "--bits", "--seeds", "6") / "capacity.json")
                          .read_text())
        nats = json.loads((run("capacity") / "capacity.json").read_text())
        assert (bits["units"], [r["seed"] for r in bits["per_seed"]]) == ("bits", [6])
        assert (nats["units"], [r["seed"] for r in nats["per_seed"]]) == ("nats", [1])


class TestConsoleScript:
    @pytest.mark.parametrize("extra, code", [([], 0), (["--threads", "0"], 2)])
    def test_main_without_argv_exits_with_the_code(self, tmp_path, monkeypatch, extra, code):
        # the console script calls main() with no argv: it reads sys.argv
        # and ends the process with the command's exit code
        cfg = write_config(tmp_path, MP_SOLVE)
        out = tmp_path / "out"
        monkeypatch.setattr(sys, "argv", ["gramspec", "solve", "--config", str(cfg),
                                          "--out", str(out), *extra])
        with pytest.raises(SystemExit) as exit_info:
            cli.main()
        assert exit_info.value.code == code
        assert (out / "solve.csv").exists() == (code == 0)
