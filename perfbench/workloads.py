"""The three benchmark workloads, written against gramspec's public API.

Each workload has three parts:

* ``setup()`` builds what every rep shares (profile, limit measure,
  quadrature, reference curves) and is timed as set-up;
* ``inputs(state, rep)`` makes the inputs of one rep from the workload seed
  and the rep index, so no two reps ask the program the same question;
  the inputs of rep 0 are part of the timed set-up;
* ``run(state, inputs)`` calls the program and checks its outputs.  It
  returns a :class:`RepResult`; a failed check counts its items as failed.

Why these three: ``density`` spends nearly all its time in the warm-started
sweep of ``master_solver``, ``zgrid`` drives the same solver through
``cli`` with a cold continuation ladder per target, and ``montecarlo``
spends nearly all its time in ``simulator`` and none in ``master_solver``.
"""

import csv
import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from gramspec import (capacity, cli, closed_forms, master_solver, measures,
                      simulator, spectra)

C = 0.5
TWO_ATOM_LAW = [(0.0, 0.5), (1.0, 0.5)]      # lambda^2 in {0, 1}
THREE_ATOM_LAW = [(0.0, 0.5), (0.5, 0.3), (2.0, 0.2)]
NOISE = capacity.NoiseLevel(1.0)
MASS_WINDOW = (0.95, 1.05)
DUAL_RESID_MAX = 1e-8

SIZES = {
    "full": {"atoms": 256, "nodes": 256, "density_points": 60,
             "zgrid_cells": (4, 4), "N": 800, "n": 1600, "batch": 4,
             "ref_points": 500},
    "small": {"atoms": 32, "nodes": 32, "density_points": 24,
              "zgrid_cells": (2, 2), "N": 100, "n": 200, "batch": 2,
              "ref_points": 300},
}

# Monte Carlo acceptance bounds: KS distance, relative capacity gap, and
# |f_n(z0) - f(z0)| of the normalized resolvent trace.  Each is 1.6 to 3
# times the largest value seen over 36 matrices (full) and 200 (small).
MC_BOUNDS = {
    "full": {"ks": 0.01, "capacity_gap": 0.005, "stieltjes": 0.05},
    "small": {"ks": 0.06, "capacity_gap": 0.03, "stieltjes": 0.3},
}


@dataclass
class RepResult:
    """One rep: items attempted and failed, and the largest and the median
    error of its items against their reference."""

    items: int
    failed: int
    max_error: float
    median_error: float
    notes: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def _rng(seed, rep):
    return np.random.default_rng([seed, rep])


class Density:
    """Density curve of the ``1 + xy`` profile with a two-atom offset law."""

    item = "x point"

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.size = SIZES[size]

    def setup(self):
        profile = measures.VarianceProfile.bilinear([[1.0, 1.0], [1.0, 2.0]])
        H = measures.product_H(TWO_ATOM_LAW, self.size["atoms"])
        quad = measures.QuadratureRule.midpoint(C, self.size["nodes"])
        x_grid = spectra.default_x_grid(profile, H, C,
                                        points=self.size["density_points"])
        opts = master_solver.SolverOptions(tol=1e-9, max_iters=60000)
        return profile, H, quad, x_grid, opts

    def inputs(self, state, rep):
        # A relative change of at most 1e-6 in the inversion height makes
        # every rep a distinct question without changing the work it takes.
        return 1e-3 * (1.0 + 1e-6 * _rng(self.seed, rep).random())

    def items(self, state, epsilon):
        return state[3].size

    def run(self, state, epsilon):
        profile, H, quad, x_grid, opts = state
        curve = spectra.limit_density(H, profile, quad, C, x_grid, epsilon, opts)
        spectra.cdf_with_atom(curve)
        limit = capacity.capacity_from_limit(curve, C, NOISE)
        mass = curve.mass()
        problems = []
        if not MASS_WINDOW[0] <= mass <= MASS_WINDOW[1]:
            problems.append(f"curve mass {mass!r} outside {MASS_WINDOW}")
        if not (math.isfinite(limit) and limit > 0):
            problems.append(f"limiting capacity {limit!r} is not positive")
        items = self.items(state, epsilon)
        defect = abs(1.0 - mass)
        return RepResult(items, items if problems else 0, defect, defect,
                         {"mass_defect": defect}, problems)


def config_hash(cfg):
    """The CLI's documented config hash, recomputed independently."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


class ZGrid:
    """``gramspec solve`` through ``cli.run`` on seeded z targets."""

    item = "z target"
    # One solver thread: with one per CPU (2 on the reference host) the rep
    # time drifted from 6.2 s to 11.7 s within a run, following the load
    # other tenants put on the second CPU.
    threads = 1

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.size = SIZES[size]
        self.workdir = workdir

    def setup(self):
        return {
            "c": C,
            "profile": {"kind": "separable", "g_values": [0.5, 1.0, 1.5],
                        "h_values": [1.5, 1.0, 0.5]},
            "H": {"type": "product", "h_lambda": [list(p) for p in THREE_ATOM_LAW],
                  "M": self.size["atoms"]},
            "quadrature_nodes": self.size["nodes"],
            "solver": {"tol": 1e-10, "max_iters": 60000},
        }

    def inputs(self, state, rep):
        # One target drawn uniformly in each cell of a grid over Re z in
        # [-0.5, 6] and log Im z in [0.02, 2].  Marginals stay uniform and
        # log-uniform, and every rep covers the plane alike: the cost of a
        # target depends strongly on where it lies, and pure random draws
        # made the cost of a rep, and so wall_s, spread too widely.
        levels_im, levels_re = self.size["zgrid_cells"]
        rng = _rng(self.seed, rep)
        i, j = np.meshgrid(np.arange(levels_im), np.arange(levels_re),
                           indexing="ij")
        b = (i.ravel() + rng.random(i.size)) / levels_im
        a = (j.ravel() + rng.random(j.size)) / levels_re
        targets = [[float(-0.5 + 6.5 * ai), float(0.02 * 100.0 ** bi)]
                   for ai, bi in zip(a, b)]
        cfg = dict(state, z_grid=targets)
        return rep, cfg, json.dumps(cfg)

    def items(self, state, inputs):
        return len(inputs[1]["z_grid"])

    def run(self, state, inputs):
        # Writing the config file is part of the rep: timed in set-up, its
        # file-system latency swung the median set-up time by 2x between
        # sets of runs.
        rep, cfg, text = inputs
        path = self.workdir / f"solve-{rep}.json"
        path.write_text(text)
        out = path.with_suffix("")
        argv = ["solve", "--config", str(path), "--out", str(out),
                "--threads", str(self.threads)]
        targets = {(re, im) for re, im in cfg["z_grid"]}
        items = self.items(state, inputs)
        code = cli.run(argv)
        if code != 0:
            return RepResult(items, items, math.nan, math.nan,
                             problems=[f"exit code {code}"])
        meta, rows = _read_solve_csv(out / "solve.csv")
        problems = []
        if meta.get("config_hash") != config_hash(cfg):
            problems.append(f"config_hash {meta.get('config_hash')} does not "
                            f"match {config_hash(cfg)}")
            return RepResult(items, items, math.nan, math.nan, problems=problems)
        bad = 0
        for row in rows:
            if row["dual_resid"] > DUAL_RESID_MAX or row["f_im"] < 0:
                bad += 1
                problems.append(f"z={row['z']}: dual_resid {row['dual_resid']!r}"
                                f", Im f {row['f_im']!r}")
        found = {row["z"] for row in rows}
        missing = len(targets - found) + max(0, len(rows) - len(found))
        if missing or len(rows) != items:
            problems.append(f"{len(rows)} rows for {items} targets")
        resid = [row["dual_resid"] for row in rows] or [math.nan]
        return RepResult(items, min(items, bad + missing), max(resid),
                         statistics.median(resid), {}, problems)


def _read_solve_csv(path):
    meta = {}
    body = []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("# "):
                key, _, value = line[2:].partition(": ")
                meta[key] = value.rstrip("\n")
            else:
                body.append(line)
    rows = []
    for rec in csv.DictReader(body):
        rows.append({"z": (float(rec["z_re"]), float(rec["z_im"])),
                     "f_im": float(rec["f_im"]),
                     "dual_resid": float(rec["dual_resid"])})
    return meta, rows


class MonteCarlo:
    """Seeded N x n ensembles against the constant-profile closed form."""

    item = "matrix"

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.size = SIZES[size]
        self.bounds = MC_BOUNDS[size]

    def setup(self):
        profile = measures.VarianceProfile.constant(1.0)
        H = measures.product_H(TWO_ATOM_LAW, self.size["N"])
        lambda_diag = np.sqrt(H.lam)
        x_grid = spectra.default_x_grid(profile, H, C,
                                        points=self.size["ref_points"])
        curve = spectra.density_from_stieltjes(self._limit_f, x_grid, 1e-3)
        cdf = spectra.cdf_with_atom(curve)
        limit = capacity.capacity_from_limit(curve, C, NOISE)
        z0 = complex(np.random.default_rng(self.seed).uniform(0.5, 3.0), 0.1)
        return {"profile": profile, "lambda_diag": lambda_diag, "cdf": cdf,
                "capacity": limit, "z0": z0, "f0": self._limit_f(z0),
                "mass_defect": abs(1.0 - curve.mass())}

    @staticmethod
    def _limit_f(z):
        return closed_forms.iid_noncentered_f(z, C, 1.0, TWO_ATOM_LAW)

    def inputs(self, state, rep):
        laws = ("gaussian", "complex-gaussian")
        keys = np.random.SeedSequence([self.seed, rep]).generate_state(
            self.size["batch"], dtype=np.uint64)
        return [simulator.EnsembleSpec(laws[k % 2], int(key), self.size["N"],
                                       self.size["n"])
                for k, key in enumerate(keys)]

    def items(self, state, specs):
        return len(specs)

    def run(self, state, specs):
        problems = []
        ks_values = []
        caps = []
        bad = 0
        for spec in specs:
            sigma = simulator.sample_sigma_matrix(spec, state["profile"],
                                                  state["lambda_diag"])
            sample = simulator.gram_eigenvalues(sigma, seed=spec.seed)
            ks = simulator.ks_compare(sample, state["cdf"])
            cap = capacity.capacity_from_spectrum(sample, NOISE)
            _, f_n = simulator.empirical_stieltjes(sigma, state["lambda_diag"],
                                                   state["z0"])
            gap = abs(cap - state["capacity"]) / state["capacity"]
            f_err = abs(f_n - state["f0"])
            ks_values.append(ks)
            caps.append(cap)
            if (ks > self.bounds["ks"] or gap > self.bounds["capacity_gap"]
                    or f_err > self.bounds["stieltjes"]):
                bad += 1
                problems.append(f"{spec.entry_law} seed {spec.seed}: ks {ks!r}, "
                                f"capacity gap {gap!r}, |f_n - f| {f_err!r}")
        rel_gap = abs(float(np.mean(caps)) - state["capacity"]) / state["capacity"]
        notes = {"rel_gap": rel_gap, "mass_defect": state["mass_defect"]}
        return RepResult(len(specs), bad, max(ks_values),
                         statistics.median(ks_values), notes, problems)


WORKLOADS = {"density": Density, "zgrid": ZGrid, "montecarlo": MonteCarlo}
