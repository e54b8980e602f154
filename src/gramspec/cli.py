"""Configuration-driven command line front end.

One JSON config file describes the model (profile, limit measure, ratio,
ensemble, noise, grids, solver options); subcommands run the workflows:

    gramspec solve    --config cfg.json --out outdir
    gramspec density  --config cfg.json --out outdir
    gramspec simulate --config cfg.json --out outdir [--seeds 1,2,3]
    gramspec compare  --config cfg.json --out outdir [--sim-dir dir | --seeds 1,2]
    gramspec capacity --config cfg.json --out outdir [--bits] [--seeds 1,2]

Every config field is read once, by one typed reader that names the
field by its dotted path (``H.M``) in any error; a bool is only ever a
flag, never a number.  The :class:`Model` and the fields the command reads
are read before the output directory exists, so a bad field leaves none.
``--threads N`` draws up to N seeds at once (simulate, compare,
capacity); solve and density run serially.  Only the commands that draw
samples take ``--seeds``.

This module owns every file format: CSV tables (one writer), JSON reports,
and the eigenvalue files that ``compare --sim-dir`` reads back (one reader).
Every output embeds a hash of the canonical config so downstream steps can
refuse mismatched artifacts.  Reruns with identical configs and seeds are
byte-identical.

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
from .errors import (ConfigError, DegenerateDenominator, InvalidInput, NoConvergence,
                     NumericalFailure, check_count, check_range, check_x_grid, positive_height,
                     upper_half_plane)

DEFAULT_QUAD_NODES = 256
DEFAULT_H_ATOMS = 256
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
        if kind == "separable":
            return measures.VarianceProfile.separable(
                _require(cfg, "profile.g_values", "list of numbers"),
                _require(cfg, "profile.h_values", "list of numbers"))
        if kind == "bilinear":
            return measures.VarianceProfile.bilinear(_rows(cfg, "profile.values"))
        if kind == "blocks":
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
            return (measures.product_H(pairs, _require(cfg, "H.M", "integer", DEFAULT_H_ATOMS)),
                    lambda n_rows: np.sqrt(measures.product_H(pairs, n_rows).lam))
        if kind == "uniform":
            lam = float(_require(cfg, "H.lambda", "number", 0.0))
            return (measures.uniform_H(_require(cfg, "H.M", "integer", DEFAULT_H_ATOMS), lam),
                    lambda n_rows: np.full(n_rows, np.sqrt(lam)))
        if kind == "atoms":
            u, lam, w = np.array(_rows(cfg, "H.atoms", 3), dtype=float).reshape(-1, 3).T.copy()
            return measures.JointLimitMeasure(u, lam, w), None
    raise ConfigError("H.type", f"unknown type {kind!r}")


def resolve_ratio(cfg, dims):
    """The paper's ratio c = N/n > 0: the config's ``c``, which must agree
    with the ensemble's ``dims`` (N, n) when both are given, or N/n.
    ``dims`` is None without an ensemble."""
    if "transpose" in cfg:
        # an older version read c > 1 as the ratio of the relabelled Gram
        # sides with the profile kept: never run such a config silently
        raise ConfigError("transpose", "no longer read; every c > 0 is the paper's "
                                       "N/n, so drop the field")
    c = _require(cfg, "c", "number", None)
    if c is None:
        if dims is None:
            raise ConfigError("c", "missing (give c or an ensemble)")
        return dims[0] / dims[1]
    with _field("c"):
        c = check_range(c, "c", open_low=True)
    if dims is not None and not math.isclose(c, dims[0] / dims[1], rel_tol=1e-12,
                                             abs_tol=1e-12):
        raise ConfigError("c", f"c={c} conflicts with ensemble N/n={dims[0] / dims[1]}")
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
    options = master_solver.SolverOptions   # an absent key takes its default
    with _field("solver"):
        return options(tol=float(_require(cfg, "solver.tol", "number", options.tol)),
                       max_iters=_require(cfg, "solver.max_iters", "integer", options.max_iters))


def build_z_grid(cfg):
    rows = _rows(cfg, "z_grid", 2)
    if not rows:
        raise ConfigError("z_grid", "must be nonempty")
    with _field("z_grid"):
        return [upper_half_plane(complex(re, im), "z_grid point") for re, im in rows]


def build_x_grid(cfg, profile, H, c):
    spec = _require(cfg, "x_grid", "list of numbers or object", {})
    if isinstance(spec, list):
        with _field("x_grid"):
            return check_x_grid(spec)
    points = _require(cfg, "x_grid.points", "integer", DEFAULT_X_POINTS)
    lower = float(_require(cfg, "x_grid.min", "number", 0.0))
    upper = _require(cfg, "x_grid.max", "number", None)
    with _field("x_grid.points"):
        check_count(points, "points", 2)
    if upper is None:
        if "min" in spec:
            raise ConfigError("x_grid.min", "needs x_grid.max")
        return spectra.default_x_grid(profile, H, c, points)
    if not upper > lower:
        raise ConfigError("x_grid.max", "must exceed x_grid.min")
    return np.linspace(lower, float(upper), points)


def _checked_seeds(seeds, field):
    """``seeds`` if it is nonempty, each passes :func:`simulator.check_seed`
    and none repeats: a repeated seed would count one sample twice."""
    if not seeds:
        raise ConfigError(field, "names no seed")
    with _field(field):
        for k, seed in enumerate(seeds):
            simulator.check_seed(seed)
            if seed in seeds[:k]:
                raise ConfigError(field, f"repeats seed {seed}")
    return seeds


@dataclasses.dataclass(frozen=True)
class Sampling:
    """What sampling reads from the config: one keyed ensemble per seed in
    seed order, its dims in Gram order, and the offsets they share."""

    specs: list
    lambda_diag: np.ndarray


def build_sampling(model, seeds_override):
    law = _require(model.cfg, "ensemble.entry_law", "text")
    seeds = _checked_seeds(_require(model.cfg, "seeds", "list", [0]), "seeds")
    # the entry law is present, so the model read the ensemble's dims too;
    # at N > n the draw is of the transposed model, whose rows are the fewer
    with _field("ensemble"):
        specs = [simulator.EnsembleSpec(law, seed, min(model.dims), max(model.dims))
                 for seed in sorted(seeds if seeds_override is None else seeds_override)]
    if model.offsets is None:
        raise ConfigError("H.type", "type 'atoms' cannot drive a simulation "
                                    "(use diagonal, uniform or product)")
    with _field("H"):
        lambda_diag = model.offsets(specs[0].N)
    if lambda_diag.size != specs[0].N:
        raise ConfigError("H.lambda_diag", f"length {lambda_diag.size} != min(N, n)="
                                           f"{specs[0].N}, the diagonal's length")
    return Sampling(specs, lambda_diag)


@dataclasses.dataclass(frozen=True)
class Model:
    """What every command reads from the config, built once: ``meta`` is the
    output header, ``dims`` the ensemble's (N, n) or None, ``offsets`` from
    :func:`build_H`.  ``c``, ``profile`` and ``quad`` are those of the
    model that every command solves and samples, see :func:`build_model`."""

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
    """The config's model.  At c = N/n > 1 it is the transposed model, of
    the n x N matrix ``Sigma^T``: ratio 1/c, profile
    ``profile.transposed(c)``, the same limit measure H, the quadrature of
    ratio 1/c and one offset for each of its n rows.  Its Gram side is the
    n x n ``Sigma^T Sigma``, which holds the nonzero eigenvalues of the
    paper's N x N ``Sigma Sigma^T``."""
    profile = build_profile(cfg)
    H, offsets = build_H(cfg)
    dims = None
    if _require(cfg, "ensemble", "object", None) is not None:
        dims = _require(cfg, "ensemble.N", "integer"), _require(cfg, "ensemble.n", "integer")
        with _field("ensemble"):
            check_count(dims, "dimensions (N, n)", 1)
    c = resolve_ratio(cfg, dims)
    if c > 1.0:
        profile = profile.transposed(c)
        c = 1.0 / c
    return Model(cfg, profile, H, c, build_quad(cfg, c), build_solver_opts(cfg),
                 _meta(cfg), dims, offsets)


def _write_json(path, model, fields):
    report = {"config_hash": model.meta["config_hash"], "rng": model.meta["rng"], **fields}
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _write_csv(path, header, columns, rows):
    """A table as ``# key: value`` lines, the column names and the rows,
    each line ended by ``\\n``; a (Python, not numpy) float is written by
    ``repr``, which reads back to the same double."""
    lines = [f"# {k}: {v}" for k, v in header.items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", newline="")


def _load_csv(path):
    """(sample, header dict) of an eigenvalue file of ``simulate``.  A file with
    no ``# seed:``, ``# N:`` or ``# n:`` line, a value or a header that does not
    parse, a seed outside the Philox keys or other than N eigenvalues raises
    :class:`InvalidInput` naming the file and, where there is one, the line."""
    meta, lines, values = {}, {}, []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if line.startswith("#"):
                key, _, val = line[1:].partition(":")
                meta[key.strip()] = val.strip()
                lines[key.strip()] = number
            elif line and line != "eigenvalue":
                values.append(_parse(float, line, path, number))
    for key in ("seed", "N", "n"):
        if key not in meta:
            raise InvalidInput(f"{path}: no '# {key}:' header line")
    seed, *dims = (_parse(int, meta[key], path, lines[key]) for key in ("seed", "N", "n"))
    try:
        simulator.check_seed(seed)
        if len(values) != dims[0]:
            raise InvalidInput(f"{len(values)} eigenvalues for N={dims[0]}")
        return simulator.SpectrumSample(np.asarray(values), seed, dims), meta
    except InvalidInput as exc:
        raise InvalidInput(f"{path}: {exc}") from exc


def _parse(kind, text, path, number):
    """``kind(text)``, or :class:`InvalidInput` naming line ``number`` of
    ``path`` when ``text`` does not parse."""
    try:
        return kind(text)
    except ValueError as exc:
        raise InvalidInput(f"{path}, line {number}: cannot read {text!r} "
                           f"as {kind.__name__}") from exc


def _meta(cfg):
    return {"config_hash": config_hash(cfg), "rng": simulator.RNG_NAME,
            "config": json.dumps(cfg, sort_keys=True, separators=(",", ":"))}


def cmd_solve(model, zs, out_dir):
    # one stepper for all targets; each target is solved from its own start,
    # the mean-field start
    reports = master_solver.solve_with_continuation(zs, model.c, model.H, model.profile,
                                                    model.quad, model.opts)
    rows = []
    for z in zs:
        rep = reports[z]
        f, ft, dual = spectra.stieltjes_pair(rep, model.c, z)
        rows.append((z.real, z.imag, f.real, f.imag, ft.real, ft.imag, dual,
                     rep.iterations, rep.total_iterations, int(rep.rescued)))
    rows.sort(key=lambda r: (r[0], r[1]))
    _write_csv(out_dir / "solve.csv", model.meta, [
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
    with _field("epsilon"):
        epsilon = positive_height(_require(model.cfg, "epsilon", "number", DEFAULT_EPSILON),
                                  "epsilon")
    return CurveGrid(build_x_grid(model.cfg, model.profile, model.H, model.c), epsilon,
                     _require(model.cfg, "transpose_curve", "flag", False))


def _limit_curve(model, grid):
    return spectra.limit_density(model.H, model.profile, model.quad, model.c, grid.x_grid,
                                 grid.epsilon, model.opts, transpose=grid.transpose)


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
    """The spectra of ``sampling``'s specs in seed order, up to ``threads`` drawn at once."""
    with concurrent.futures.ThreadPoolExecutor(threads) as pool:
        return list(pool.map(lambda spec: simulator.sample_spectrum(
            spec, model.profile, sampling.lambda_diag), sampling.specs))


def cmd_simulate(model, sampling, threads, out_dir):
    transposed = model.dims[0] > model.dims[1]
    for sample in _simulate_all(model, sampling, threads):
        header = {"seed": sample.seed, "N": sample.dims[0], "n": sample.dims[1],
                  "rng": simulator.RNG_NAME, **model.meta, "transposed": transposed}
        _write_csv(out_dir / f"eigenvalues_seed{sample.seed}.csv", header, ["eigenvalue"],
                   ([v] for v in sample.eigenvalues.tolist()))
    return 0


def _pad_to_transposed(sample):
    n_rows, n_cols = sample.dims
    padded = np.concatenate([np.zeros(n_cols - n_rows), sample.eigenvalues])
    return simulator.SpectrumSample(padded, sample.seed, (n_cols, n_cols))


def _load_samples(model, sim_dir):
    """The samples of a previous simulate run of this config, in seed order."""
    want_hash = model.meta["config_hash"]
    samples = []
    paths = sorted(Path(sim_dir).glob("eigenvalues_seed*.csv"))
    if not paths:
        raise ConfigError("sim-dir", f"no eigenvalue CSVs under {sim_dir}")
    for path in paths:
        sample, meta = _load_csv(path)
        if meta.get("config_hash") != want_hash:
            raise ConfigError("sim-dir", f"{path.name} was produced by config "
                                         f"{meta.get('config_hash')}, expected {want_hash}")
        samples.append(sample)
    _checked_seeds([sample.seed for sample in samples], "sim-dir")
    return sorted(samples, key=lambda sample: sample.seed)


def cmd_compare(model, grid, sampling, threads, loaded, out_dir):
    """Compare the limit with the ``loaded`` samples, or with fresh ones
    drawn by ``sampling`` when ``loaded`` is None."""
    samples = _simulate_all(model, sampling, threads) if loaded is None else loaded
    curve = _limit_curve(model, grid)
    cdf = spectra.cdf_with_atom(curve)
    if grid.transpose:
        # transposed Gram side: same nonzero spectrum plus n - N exact zeros
        samples = [_pad_to_transposed(sample) for sample in samples]
    per_seed = [{"seed": sample.seed, "ks": simulator.ks_compare(sample, cdf)}
                for sample in samples]
    _write_json(out_dir / "compare.json", model, {
        "per_seed": per_seed,
        "median_ks": float(np.median([r["ks"] for r in per_seed])),
    })
    _write_csv(out_dir / "compare.csv", model.meta, ["seed", "ks"],
               [(r["seed"], r["ks"]) for r in per_seed])
    _write_csv(out_dir / "limit_cdf.csv", model.meta, ["x", "cdf"],
               list(zip(curve.x_grid.tolist(), cdf(curve.x_grid).tolist())))
    return 0


def cmd_capacity(model, grid, sampling, threads, noise, bits, out_dir):
    per_seed = [{"seed": s.seed, "capacity": cap.capacity_from_spectrum(s, noise, bits=bits)}
                for s in _simulate_all(model, sampling, threads)]
    curve = _limit_curve(model, grid)
    _write_json(out_dir / "capacity.json", model, {
        "s_sq": noise.s_sq,
        "units": "bits" if bits else "nats",
        "per_seed": per_seed,
        "empirical_mean": float(np.mean([r["capacity"] for r in per_seed])),
        "limit": cap.capacity_from_limit(curve, model.c, noise, bits=bits),
    })
    return 0


def _parse_seeds(text):
    try:
        seeds = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError("--seeds", "expected comma-separated integers") from exc
    return _checked_seeds(seeds, "--seeds")


@functools.cache
def build_parser():
    """The command line parser, built once per process: ``parse_args``
    reads it and never changes it, and a build costs about 15 parses."""
    parser = argparse.ArgumentParser(prog="gramspec",
                                     description="limiting Gram-matrix spectra: "
                                                 "solve, invert, simulate, compare")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "density", "simulate", "compare", "capacity"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--threads", type=int, default=1)
        if name in ("simulate", "compare", "capacity"):
            p.add_argument("--seeds", help="comma-separated seed list")
        if name == "compare":
            p.add_argument("--sim-dir", help="reuse eigenvalue CSVs from a previous simulate run")
        if name == "capacity":
            p.add_argument("--bits", action="store_true", help="report log2 capacity")
    return parser


def run(argv=None):
    args = build_parser().parse_args(argv)
    cfg = load_config(args.config)
    with _field("--threads"):
        check_count(args.threads, "threads", 1)
    seeds = _parse_seeds(args.seeds) if getattr(args, "seeds", None) else None
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
        if args.sim_dir is not None and seeds is not None:
            # the files name their own seeds, and no rule picks some of them
            raise ConfigError("--seeds", "cannot be given with --sim-dir, whose "
                                         "files carry their seeds")
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
