"""Configuration-driven command line front end.

One JSON config file describes the model (profile, limit measure, ratio,
ensemble, noise, grids, solver options); subcommands run the workflows:

    gramspec solve    --config cfg.json --out outdir
    gramspec density  --config cfg.json --out outdir
    gramspec simulate --config cfg.json --out outdir [--seeds 1,2,3]
    gramspec compare  --config cfg.json --out outdir [--sim-dir dir]
    gramspec capacity --config cfg.json --out outdir [--bits]

Every config field is read once, by one typed reader that names the
field by its dotted path (``H.M``) in any error; a bool is only ever a
flag, never a number.  The :class:`Model` and the fields the command reads
are read before the output directory exists, so a bad field leaves none.
``--threads`` sets how many seeds are sampled at once (simulate, compare,
capacity); solve and density run serially.

Numeric tables are CSV, reports are JSON; every output embeds a hash of
the canonical config so downstream steps can refuse mismatched artifacts.
Reruns with identical configs and seeds are byte-identical.

Exit codes: 0 success, 2 config validation, 3 no convergence, 4 numerical
failure.
"""

import argparse
import concurrent.futures
import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import capacity as cap
from . import master_solver, measures, simulator, spectra
from .errors import (ConfigError, DegenerateDenominator, InvalidInput,
                     NoConvergence, NumericalFailure)

DEFAULT_QUAD_NODES = 256
DEFAULT_EPSILON = 1e-3
DEFAULT_X_POINTS = 2000

# The JSON kinds of a config value; a bool is only ever a flag.
_KINDS = {
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: _KINDS["integer"](v) or isinstance(v, float) and math.isfinite(v),
    "flag": lambda v: isinstance(v, bool),
    "text": lambda v: isinstance(v, str),
    "list": lambda v: isinstance(v, list),
    "list of numbers": lambda v: isinstance(v, list) and all(map(_KINDS["number"], v)),
    "object": lambda v: isinstance(v, dict),
}
_REQUIRED = object()


def config_hash(cfg):
    """Stable short hash of the canonical JSON form."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"line {exc.lineno}, col {exc.colno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config", "expected a JSON object")
    return cfg


def _require(cfg, path, kinds, default=_REQUIRED):
    """The value at the dotted ``path`` of ``cfg``, of one of the JSON ``kinds``
    (e.g. ``"list or object"``); ``default`` when it is absent, else an
    error.  Every section on the path must be an object."""
    section, _, key = path.rpartition(".")
    node = _require(cfg, section, "object", {}) if section else cfg
    value = node.get(key, default)
    if value is _REQUIRED:
        raise ConfigError(path, "missing required field")
    if key in node and not any(_KINDS[kind](value) for kind in kinds.split(" or ")):
        raise ConfigError(path, f"expected {kinds}, got {json.dumps(value)[:40]}")
    return value


def _rows(cfg, path, width=None):
    """The list at ``path`` of lists of ``width`` numbers (or as many as the first)."""
    rows = _require(cfg, path, "list")
    width = width or (len(rows[0]) if rows and isinstance(rows[0], list) else 1)
    if not all(_KINDS["list of numbers"](row) and len(row) == width for row in rows):
        raise ConfigError(path, f"expected a list of {width}-number rows")
    return rows


@contextlib.contextmanager
def _field(field):
    """Report an :class:`InvalidInput` raised inside as a config error on ``field``."""
    try:
        yield
    except ConfigError:
        raise
    except InvalidInput as exc:
        raise ConfigError(field, str(exc)) from exc


def build_profile(cfg):
    kind = _require(cfg, "profile.kind", "text")
    with _field("profile"):
        if kind == "constant":
            return measures.VarianceProfile.constant(_require(cfg, "profile.value", "number"))
        if kind in ("separable", "separable-product"):
            return measures.VarianceProfile.separable(
                _require(cfg, "profile.g_values", "list of numbers"),
                _require(cfg, "profile.h_values", "list of numbers"))
        if kind in ("bilinear", "bilinear-grid"):
            return measures.VarianceProfile.bilinear(_rows(cfg, "profile.values"))
        if kind in ("blocks", "piecewise-constant-blocks"):
            return measures.VarianceProfile.blocks(_rows(cfg, "profile.values"))
    raise ConfigError("profile.kind", f"unknown kind {kind!r}")


def build_H(cfg):
    """The limit measure and ``offsets(N)``, the diagonal of Lambda that it
    gives a simulated ensemble with N rows (None for ``atoms``)."""
    kind = _require(cfg, "H.type", "text")
    with _field("H"):
        if kind == "diagonal":
            lam = np.asarray(_require(cfg, "H.lambda_diag", "list of numbers"), dtype=float)
            return measures.empirical_H_from_diagonal(lam), lambda n_rows: lam
        if kind == "product":
            pairs = _rows(cfg, "H.h_lambda", 2)
            return (measures.product_H(pairs, _require(cfg, "H.M", "integer", 256)),
                    lambda n_rows: np.sqrt(measures.product_H(pairs, n_rows).lam))
        if kind == "uniform":
            lam = float(_require(cfg, "H.lambda", "number", 0.0))
            return (measures.uniform_H(_require(cfg, "H.M", "integer", 256), lam),
                    lambda n_rows: np.full(n_rows, np.sqrt(lam)))
        if kind == "atoms":
            u, lam, w = np.array(_rows(cfg, "H.atoms", 3), dtype=float).reshape(-1, 3).T.copy()
            return measures.JointLimitMeasure(u, lam, w), None
    raise ConfigError("H.type", f"unknown type {kind!r}")


def resolve_ratio(cfg, dims):
    """Ratio c in (0, 1]; c > 1 needs an explicit transpose directive.
    ``dims`` are the ensemble's (N, n), or None."""
    c = _require(cfg, "c", "number", None)
    transpose = _require(cfg, "transpose", "flag", False)
    if c is None:
        if dims is None:
            raise ConfigError("c", "missing (give c or an ensemble)")
        c = dims[0] / dims[1]
        return 1.0 / c if c > 1.0 else c
    if not c > 0:
        raise ConfigError("c", "must be > 0")
    c = float(c)
    if c > 1.0 and not transpose:
        raise ConfigError("c", f"c={c} > 1; set \"transpose\": true to relabel "
                               "the two Gram sides")
    c = 1.0 / c if c > 1.0 else c
    if dims is not None and abs(c - min(dims) / max(dims)) > 1e-12:
        raise ConfigError("c", f"c={c} conflicts with ensemble N/n={min(dims) / max(dims)}")
    return c


def build_quad(cfg, c):
    with _field("quadrature_nodes"):
        return measures.QuadratureRule.midpoint(
            c, _require(cfg, "quadrature_nodes", "integer", DEFAULT_QUAD_NODES))


def build_solver_opts(cfg):
    """The solver options; ``solver`` accepts only ``tol`` and ``max_iters``,
    so a key this version does not read is an error, not ignored."""
    unknown = sorted(set(_require(cfg, "solver", "object", {})) - {"tol", "max_iters"})
    if unknown:
        raise ConfigError("solver." + unknown[0],
                          "unknown key; solver accepts only tol and max_iters")
    with _field("solver"):
        return master_solver.SolverOptions(
            tol=float(_require(cfg, "solver.tol", "number", 1e-12)),
            max_iters=_require(cfg, "solver.max_iters", "integer", 10000))


def build_z_grid(cfg):
    zs = [complex(re, im) for re, im in _rows(cfg, "z_grid", 2)]
    if not zs:
        raise ConfigError("z_grid", "must be nonempty")
    if any(z.imag <= 0 for z in zs):
        raise ConfigError("z_grid", "all points need Im(z) > 0")
    return zs


def build_x_grid(cfg, profile, H, c):
    spec = _require(cfg, "x_grid", "list of numbers or object", {})
    if isinstance(spec, list):
        if len(spec) < 2 or np.any(np.diff(spec) <= 0):
            raise ConfigError("x_grid", "explicit grid must be increasing, length >= 2")
        return np.asarray(spec, dtype=float)
    points = _require(cfg, "x_grid.points", "integer", DEFAULT_X_POINTS)
    lower = _require(cfg, "x_grid.min", "number", 0.0)
    upper = _require(cfg, "x_grid.max", "number", None)
    if points < 2:
        raise ConfigError("x_grid.points", "must be >= 2")
    if upper is None:
        return spectra.default_x_grid(profile, H, c, points=points)
    return np.linspace(float(lower), float(upper), points)


def _checked_seeds(seeds, field):
    """``seeds`` if it is nonempty and each passes :func:`simulator.check_seed`."""
    if not seeds:
        raise ConfigError(field, "names no seed")
    with _field(field):
        for seed in seeds:
            simulator.check_seed(seed)
    return seeds


@dataclasses.dataclass(frozen=True)
class Sampling:
    """What sampling reads from the config: the ensemble (its seed left
    unset, its dims in Gram order), its diagonal offsets and the seeds."""

    spec: simulator.EnsembleSpec
    lambda_diag: np.ndarray
    seeds: list


def build_sampling(model, seeds_override):
    law = _require(model.cfg, "ensemble.entry_law", "text")
    # the entry law is present, so the model read the ensemble's dims too
    with _field("ensemble"):
        spec = simulator.EnsembleSpec(law, None, min(model.dims), max(model.dims))
    if model.offsets is None:
        raise ConfigError("H.type", "type 'atoms' cannot drive a simulation "
                                    "(use diagonal, uniform or product)")
    with _field("H"):
        lambda_diag = model.offsets(spec.N)
    if lambda_diag.size != spec.N:
        raise ConfigError("H.lambda_diag", f"length {lambda_diag.size} != N={spec.N}")
    seeds = _checked_seeds(_require(model.cfg, "seeds", "list", [0]), "seeds")
    return Sampling(spec, lambda_diag, seeds if seeds_override is None else seeds_override)


@dataclasses.dataclass(frozen=True)
class Model:
    """What every command reads from the config, built once: ``meta`` is the
    output header, ``dims`` (N, n) or None, ``offsets`` from :func:`build_H`."""

    cfg: dict
    profile: measures.VarianceProfile
    H: measures.JointLimitMeasure
    c: float
    quad: measures.QuadratureRule
    opts: master_solver.SolverOptions
    meta: dict
    dims: tuple
    offsets: object


def build_model(cfg):
    profile = build_profile(cfg)
    H, offsets = build_H(cfg)
    dims = None
    if _require(cfg, "ensemble", "object", None) is not None:
        dims = _require(cfg, "ensemble.N", "integer"), _require(cfg, "ensemble.n", "integer")
        if min(dims) < 1:
            raise ConfigError("ensemble", "dimensions must be >= 1")
    c = resolve_ratio(cfg, dims)
    return Model(cfg, profile, H, c, build_quad(cfg, c), build_solver_opts(cfg),
                 _meta(cfg), dims, offsets)


def _write_json(path, model, fields):
    report = {"config_hash": model.meta["config_hash"], "rng": model.meta["rng"], **fields}
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _meta(cfg):
    return {"config_hash": config_hash(cfg), "rng": simulator.RNG_NAME,
            "config": json.dumps(cfg, sort_keys=True, separators=(",", ":"))}


def cmd_solve(model, zs, out_dir):
    # one stepper for all targets; each target is solved from its own cold start
    reports = master_solver.solve_with_continuation(zs, model.c, model.H, model.profile,
                                                    model.quad, model.opts)
    rows = []
    for z in zs:
        rep = reports[z]
        f, ft, dual = spectra.stieltjes_pair(rep, model.c, z)
        rows.append((z.real, z.imag, f.real, f.imag, ft.real, ft.imag, dual,
                     rep.iterations, rep.total_iterations, int(rep.rescued)))
    rows.sort(key=lambda r: (r[0], r[1]))
    simulator.write_csv(out_dir / "solve.csv", model.meta, [
        "z_re", "z_im", "f_re", "f_im", "ft_re", "ft_im", "dual_resid", "iters", "total_iters",
        "rescued"], rows)
    return 0


@dataclasses.dataclass(frozen=True)
class CurveGrid:
    """Where the density curve is sampled, and which Gram side it shows."""

    x_grid: np.ndarray
    epsilon: float
    transpose: bool


def build_curve_grid(model):
    epsilon = float(_require(model.cfg, "epsilon", "number", DEFAULT_EPSILON))
    if not epsilon > 0:
        raise ConfigError("epsilon", "must be > 0")
    return CurveGrid(build_x_grid(model.cfg, model.profile, model.H, model.c), epsilon,
                     _require(model.cfg, "transpose_curve", "flag", False))


def _limit_curve(model, grid):
    return spectra.limit_density(model.H, model.profile, model.quad, model.c, grid.x_grid,
                                 grid.epsilon, model.opts, transpose=grid.transpose)


def cmd_density(model, grid, out_dir):
    curve = _limit_curve(model, grid)
    simulator.write_csv(out_dir / "density.csv", model.meta, ["x", "density"],
                        list(zip(curve.x_grid.tolist(), curve.values.tolist())))
    _write_json(out_dir / "density.json", model, {
        "epsilon": curve.epsilon,
        "atom_at_zero": curve.atom_at_zero,
        "mass": curve.mass(),
        "mass_defect": 1.0 - curve.mass(),
    })
    return 0


def _simulate_all(model, sampling, threads):
    """The (seed, sample) pairs in seed order."""
    def one(seed):
        spec = dataclasses.replace(sampling.spec, seed=seed)
        return seed, simulator.sample_spectrum(spec, model.profile, sampling.lambda_diag)

    seeds = sorted(sampling.seeds)
    if threads > 1:
        with concurrent.futures.ThreadPoolExecutor(threads) as pool:
            return list(pool.map(one, seeds))
    return [one(s) for s in seeds]


def cmd_simulate(model, sampling, threads, out_dir):
    extra = dict(model.meta, transposed=model.dims[0] > model.dims[1])
    for seed, sample in _simulate_all(model, sampling, threads):
        simulator.export_csv(sample, out_dir / f"eigenvalues_seed{seed}.csv", extra)
    return 0


def _pad_to_transposed(sample):
    n_rows, n_cols = sample.dims
    padded = np.concatenate([np.zeros(n_cols - n_rows), sample.eigenvalues])
    return simulator.SpectrumSample(padded, sample.seed, (n_cols, n_cols))


def _load_samples(model, sim_dir):
    """The (seed, sample) pairs of a previous simulate run of this config."""
    want_hash = model.meta["config_hash"]
    samples = []
    paths = sorted(Path(sim_dir).glob("eigenvalues_seed*.csv"))
    if not paths:
        raise ConfigError("sim-dir", f"no eigenvalue CSVs under {sim_dir}")
    for path in paths:
        sample, meta = simulator.load_csv(path)
        if meta.get("config_hash") != want_hash:
            raise ConfigError("sim-dir", f"{path.name} was produced by config "
                                         f"{meta.get('config_hash')}, expected {want_hash}")
        samples.append((sample.seed, sample))
    return samples


def cmd_compare(model, grid, sampling, threads, loaded, out_dir):
    """Compare the limit with the ``loaded`` samples, or with fresh ones
    drawn by ``sampling`` when ``loaded`` is None."""
    samples = _simulate_all(model, sampling, threads) if loaded is None else loaded
    curve = _limit_curve(model, grid)
    cdf = spectra.cdf_with_atom(curve)
    if grid.transpose:
        # transposed Gram side: same nonzero spectrum plus n - N exact zeros
        samples = [(seed, _pad_to_transposed(sample)) for seed, sample in samples]
    per_seed = [{"seed": seed, "ks": simulator.ks_compare(sample, cdf)}
                for seed, sample in samples]
    _write_json(out_dir / "compare.json", model, {
        "per_seed": per_seed,
        "median_ks": float(np.median([r["ks"] for r in per_seed])),
    })
    simulator.write_csv(out_dir / "compare.csv", model.meta, ["seed", "ks"],
                        [(r["seed"], r["ks"]) for r in per_seed])
    simulator.write_csv(out_dir / "limit_cdf.csv", model.meta, ["x", "cdf"],
                        list(zip(curve.x_grid.tolist(), cdf(curve.x_grid).tolist())))
    return 0


def cmd_capacity(model, grid, sampling, threads, noise, bits, out_dir):
    values = [(seed, cap.capacity_from_spectrum(sample, noise, bits=bits))
              for seed, sample in _simulate_all(model, sampling, threads)]
    curve = _limit_curve(model, grid)
    _write_json(out_dir / "capacity.json", model, {
        "s_sq": noise.s_sq,
        "units": "bits" if bits else "nats",
        "per_seed": [{"seed": s, "capacity": v} for s, v in values],
        "empirical_mean": float(np.mean([v for _, v in values])),
        "limit": cap.capacity_from_limit(curve, model.c, noise, bits=bits),
    })
    return 0


def _parse_seeds(text):
    try:
        seeds = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError("--seeds", "expected comma-separated integers") from exc
    return _checked_seeds(seeds, "--seeds")


def build_parser():
    parser = argparse.ArgumentParser(prog="gramspec",
                                     description="limiting Gram-matrix spectra: "
                                                 "solve, invert, simulate, compare")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "density", "simulate", "compare", "capacity"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--seeds", default=None, help="comma-separated seed list")
        if name == "compare":
            p.add_argument("--sim-dir", default=None,
                           help="reuse eigenvalue CSVs from a previous simulate run")
        if name == "capacity":
            p.add_argument("--bits", action="store_true", help="report log2 capacity")
    return parser


def run(argv=None):
    args = build_parser().parse_args(argv)
    cfg = load_config(args.config)
    if args.threads < 1:
        raise ConfigError("--threads", "must be >= 1")
    seeds = _parse_seeds(args.seeds) if args.seeds else None
    model = build_model(cfg)
    command = _bind_command(args, model, seeds)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return command(out_dir)


def _bind_command(args, model, seeds):
    """The command with every input it reads parsed and checked, so that a
    bad field fails before the output directory exists; call it with the
    output directory."""
    if args.command == "solve":
        return functools.partial(cmd_solve, model, build_z_grid(model.cfg))
    if args.command == "simulate":
        return functools.partial(cmd_simulate, model, build_sampling(model, seeds),
                                 args.threads)
    grid = build_curve_grid(model)
    if args.command == "density":
        return functools.partial(cmd_density, model, grid)
    if args.command == "compare":
        loaded = None if args.sim_dir is None else _load_samples(model, args.sim_dir)
        sampling = build_sampling(model, seeds) if loaded is None else None
        return functools.partial(cmd_compare, model, grid, sampling, args.threads, loaded)
    if grid.transpose and model.c < 1.0:
        # the transposed curve carries the atom 1 - c at zero
        raise ConfigError("transpose_curve", "capacity is defined on the Gram-side "
                                             "curve; drop transpose_curve or use c = 1")
    with _field("noise.s_sq"):
        noise = cap.NoiseLevel(float(_require(model.cfg, "noise.s_sq", "number", 1.0)))
    return functools.partial(cmd_capacity, model, grid, build_sampling(model, seeds),
                             args.threads, noise, args.bits)


def main(argv=None):
    try:
        code = run(argv)
    except InvalidInput as exc:
        kind = "config error" if isinstance(exc, ConfigError) else "invalid input"
        print(f"{kind}: {exc}", file=sys.stderr)
        code = 2
    except NoConvergence as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        code = 3
    except (NumericalFailure, DegenerateDenominator) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        code = 4
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
