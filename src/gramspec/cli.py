"""Configuration-driven command line front end.

One JSON config file describes the model (profile, limit measure, ratio,
ensemble, noise, grids, solver options); subcommands run the workflows:

    gramspec solve    --config cfg.json --out outdir
    gramspec density  --config cfg.json --out outdir
    gramspec simulate --config cfg.json --out outdir [--seeds 1,2,3]
    gramspec compare  --config cfg.json --out outdir [--sim-dir dir]
    gramspec capacity --config cfg.json --out outdir [--bits]

The :class:`Model` and every field the command reads (z grid, x grid and
epsilon, ensemble, offsets and seeds, noise) are read once, before the
output directory is created, so a bad field leaves no output behind.
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
import dataclasses
import functools
import hashlib
import json
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


def config_hash(cfg):
    """Stable short hash of the canonical JSON form."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"line {exc.lineno}, col {exc.colno}: {exc.msg}") from exc


def _require(cfg, field, types, where=""):
    if field not in cfg:
        raise ConfigError(where + field, "missing required field")
    value = cfg[field]
    if types is not None and not isinstance(value, types):
        raise ConfigError(where + field, f"expected {types}, got {type(value).__name__}")
    return value


def build_profile(cfg):
    spec = _require(cfg, "profile", dict)
    kind = _require(spec, "kind", str, "profile.")
    try:
        if kind == "constant":
            return measures.VarianceProfile.constant(_require(spec, "value", (int, float), "profile."))
        if kind in ("separable", "separable-product"):
            return measures.VarianceProfile.separable(
                _require(spec, "g_values", list, "profile."),
                _require(spec, "h_values", list, "profile."))
        if kind in ("bilinear", "bilinear-grid"):
            return measures.VarianceProfile.bilinear(_require(spec, "values", list, "profile."))
        if kind in ("blocks", "piecewise-constant-blocks"):
            return measures.VarianceProfile.blocks(_require(spec, "values", list, "profile."))
    except InvalidInput as exc:
        raise ConfigError("profile", str(exc)) from exc
    raise ConfigError("profile.kind", f"unknown kind {kind!r}")


def build_H(cfg):
    spec = _require(cfg, "H", dict)
    kind = _require(spec, "type", str, "H.")
    try:
        if kind == "diagonal":
            return measures.empirical_H_from_diagonal(_require(spec, "lambda_diag", list, "H."))
        if kind == "product":
            pairs = [tuple(p) for p in _require(spec, "h_lambda", list, "H.")]
            return measures.product_H(pairs, int(spec.get("M", 256)))
        if kind == "uniform":
            return measures.uniform_H(int(spec.get("M", 256)), float(spec.get("lambda", 0.0)))
        if kind == "atoms":
            atoms = _require(spec, "atoms", list, "H.")
            u, lam, w = (np.asarray(col, dtype=float) for col in zip(*atoms))
            return measures.JointLimitMeasure(u, lam, w)
    except (InvalidInput, TypeError, ValueError) as exc:
        raise ConfigError("H", str(exc)) from exc
    raise ConfigError("H.type", f"unknown type {kind!r}")


def resolve_ratio(cfg):
    """Ratio c in (0, 1]; c > 1 needs an explicit transpose directive."""
    if "c" not in cfg:
        if "ensemble" not in cfg:
            raise ConfigError("c", "missing (give c or an ensemble)")
        n_rows, n_cols = _ensemble_dims(cfg)
        c = n_rows / n_cols
        return 1.0 / c if c > 1.0 else c
    c = cfg["c"]
    if not isinstance(c, (int, float)) or not c > 0:
        raise ConfigError("c", "must be a number > 0")
    c = float(c)
    if c > 1.0:
        if not cfg.get("transpose", False):
            raise ConfigError("c", f"c={c} > 1; set \"transpose\": true to "
                                   "relabel the two Gram sides")
        c = 1.0 / c
    if "ensemble" in cfg:
        n_rows, n_cols = _ensemble_dims(cfg)
        ratio = min(n_rows, n_cols) / max(n_rows, n_cols)
        if abs(c - ratio) > 1e-12:
            raise ConfigError("c", f"c={c} conflicts with ensemble N/n={ratio}")
    return c


def _ensemble_dims(cfg):
    ens = _require(cfg, "ensemble", dict)
    n_rows = _require(ens, "N", int, "ensemble.")
    n_cols = _require(ens, "n", int, "ensemble.")
    if n_rows < 1 or n_cols < 1:
        raise ConfigError("ensemble", "dimensions must be >= 1")
    return n_rows, n_cols


def build_quad(cfg, c):
    return measures.QuadratureRule.midpoint(c, int(cfg.get("quadrature_nodes", DEFAULT_QUAD_NODES)))


def build_solver_opts(cfg):
    """The solver options; ``solver`` accepts only ``tol`` and ``max_iters``,
    so a key this version does not read is an error, not ignored."""
    spec = cfg.get("solver", {})
    if not isinstance(spec, dict):
        raise ConfigError("solver", "expected an object")
    unknown = sorted(set(spec) - {"tol", "max_iters"})
    if unknown:
        raise ConfigError("solver." + unknown[0],
                          "unknown key; solver accepts only tol and max_iters")
    try:
        return master_solver.SolverOptions(
            tol=float(spec.get("tol", 1e-12)),
            max_iters=int(spec.get("max_iters", 10000)),
        )
    except (InvalidInput, TypeError, ValueError) as exc:
        raise ConfigError("solver", str(exc)) from exc


def build_z_grid(cfg):
    raw = _require(cfg, "z_grid", list)
    try:
        zs = [complex(float(re), float(im)) for re, im in raw]
    except (TypeError, ValueError) as exc:
        raise ConfigError("z_grid", "expected a list of [re, im] pairs") from exc
    if not zs:
        raise ConfigError("z_grid", "must be nonempty")
    if any(z.imag <= 0 for z in zs):
        raise ConfigError("z_grid", "all points need Im(z) > 0")
    return zs


def build_x_grid(cfg, profile, H, c):
    spec = cfg.get("x_grid", {})
    if isinstance(spec, list):
        grid = np.asarray(spec, dtype=float)
        if grid.size < 2 or np.any(np.diff(grid) <= 0):
            raise ConfigError("x_grid", "explicit grid must be increasing, length >= 2")
        return grid
    points = int(spec.get("points", DEFAULT_X_POINTS))
    if "max" in spec:
        return np.linspace(float(spec.get("min", 0.0)), float(spec["max"]), points)
    return spectra.default_x_grid(profile, H, c, points=points)


def _checked_seeds(seeds, field):
    """``seeds`` if it is nonempty and each seed passes
    :func:`simulator.check_seed`."""
    if not seeds:
        raise ConfigError(field, "names no seed")
    try:
        for seed in seeds:
            simulator.check_seed(seed)
    except InvalidInput as exc:
        raise ConfigError(field, str(exc)) from exc
    return seeds


def resolve_seeds(cfg, override):
    if override is not None:
        return override
    seeds = cfg.get("seeds", [0])
    if not isinstance(seeds, list):
        raise ConfigError("seeds", "must be a nonempty list of integers")
    return _checked_seeds(seeds, "seeds")


def build_lambda_diag(cfg, n_rows):
    spec = _require(cfg, "H", dict)
    kind = spec.get("type")
    if kind == "diagonal":
        lam = np.asarray(_require(spec, "lambda_diag", list, "H."), dtype=float)
        if lam.size != n_rows:
            raise ConfigError("H.lambda_diag", f"length {lam.size} != N={n_rows}")
        return lam
    if kind == "uniform":
        return np.full(n_rows, np.sqrt(float(spec.get("lambda", 0.0))))
    if kind == "product":
        pairs = [tuple(p) for p in _require(spec, "h_lambda", list, "H.")]
        try:
            return np.sqrt(measures.product_H(pairs, n_rows).lam)
        except InvalidInput as exc:
            raise ConfigError("H.h_lambda", str(exc)) from exc
    raise ConfigError("H.type", f"type {kind!r} cannot drive a simulation "
                                "(use diagonal, uniform or product)")


def build_ensemble(cfg, seed):
    spec = _require(cfg, "ensemble", dict)
    law = _require(spec, "entry_law", str, "ensemble.")
    n_rows, n_cols = _ensemble_dims(cfg)
    transposed = n_rows > n_cols
    if transposed:
        n_rows, n_cols = n_cols, n_rows
    try:
        return simulator.EnsembleSpec(law, seed, n_rows, n_cols), transposed
    except InvalidInput as exc:
        raise ConfigError("ensemble", str(exc)) from exc


@dataclasses.dataclass(frozen=True)
class Sampling:
    """What sampling reads from the config: the ensemble (its seed left
    unset), whether it was transposed, its diagonal offsets and the seeds."""

    spec: simulator.EnsembleSpec
    transposed: bool
    lambda_diag: np.ndarray
    seeds: list


def build_sampling(cfg, seeds_override):
    spec, transposed = build_ensemble(cfg, None)
    return Sampling(spec, transposed, build_lambda_diag(cfg, spec.N),
                    resolve_seeds(cfg, seeds_override))


@dataclasses.dataclass(frozen=True)
class Model:
    """What every command reads from the config, built once; ``meta`` is
    the header (config hash, RNG, canonical config) every output embeds."""

    cfg: dict
    profile: measures.VarianceProfile
    H: measures.JointLimitMeasure
    c: float
    quad: measures.QuadratureRule
    opts: master_solver.SolverOptions
    meta: dict


def build_model(cfg):
    profile = build_profile(cfg)
    H = build_H(cfg)
    c = resolve_ratio(cfg)
    return Model(cfg, profile, H, c, build_quad(cfg, c), build_solver_opts(cfg),
                 _meta(cfg))


def _write_csv(path, header_meta, columns, rows):
    lines = [f"# {k}: {v}" for k, v in header_meta.items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


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
    _write_csv(out_dir / "solve.csv", model.meta,
               ["z_re", "z_im", "f_re", "f_im", "ft_re", "ft_im", "dual_resid", "iters",
                "total_iters", "rescued"],
               rows)
    return 0


def build_curve_grid(model):
    """The x grid and the height epsilon of the model's density curve."""
    epsilon = float(model.cfg.get("epsilon", DEFAULT_EPSILON))
    if not epsilon > 0:
        raise ConfigError("epsilon", "must be > 0")
    return build_x_grid(model.cfg, model.profile, model.H, model.c), epsilon


def _limit_curve(model, grid):
    x_grid, epsilon = grid
    return spectra.limit_density(model.H, model.profile, model.quad, model.c, x_grid,
                                 epsilon, model.opts,
                                 transpose=bool(model.cfg.get("transpose_curve", False)))


def cmd_density(model, grid, out_dir):
    curve = _limit_curve(model, grid)
    _write_csv(out_dir / "density.csv", model.meta, ["x", "density"],
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
    extra = dict(model.meta, transposed=sampling.transposed)
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
    if bool(model.cfg.get("transpose_curve", False)):
        # transposed Gram side: same nonzero spectrum plus n - N exact zeros
        samples = [(seed, _pad_to_transposed(sample)) for seed, sample in samples]
    per_seed = [{"seed": seed, "ks": simulator.ks_compare(sample, cdf)}
                for seed, sample in samples]
    _write_json(out_dir / "compare.json", model, {
        "per_seed": per_seed,
        "median_ks": float(np.median([r["ks"] for r in per_seed])),
    })
    _write_csv(out_dir / "compare.csv", model.meta, ["seed", "ks"],
               [(r["seed"], r["ks"]) for r in per_seed])
    _write_csv(out_dir / "limit_cdf.csv", model.meta, ["x", "cdf"],
               list(zip(curve.x_grid.tolist(), np.asarray(cdf(curve.x_grid)).tolist())))
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
        return functools.partial(cmd_simulate, model, build_sampling(model.cfg, seeds),
                                 args.threads)
    grid = build_curve_grid(model)
    if args.command == "density":
        return functools.partial(cmd_density, model, grid)
    if args.command == "compare":
        if args.sim_dir is not None:
            return functools.partial(cmd_compare, model, grid, None, args.threads,
                                     _load_samples(model, args.sim_dir))
        return functools.partial(cmd_compare, model, grid,
                                 build_sampling(model.cfg, seeds), args.threads, None)
    if model.cfg.get("transpose_curve", False) and model.c < 1.0:
        # the transposed curve carries the atom 1 - c at zero
        raise ConfigError("transpose_curve", "capacity is defined on the Gram-side "
                                             "curve; drop transpose_curve or use c = 1")
    noise = cap.NoiseLevel(float(model.cfg.get("noise", {}).get("s_sq", 1.0)))
    return functools.partial(cmd_capacity, model, grid, build_sampling(model.cfg, seeds),
                             args.threads, noise, args.bits)


def main(argv=None):
    try:
        code = run(argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        code = 2
    except InvalidInput as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
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
