"""Spans at the boundaries of the gramspec modules, for traced benchmark runs.

A traced run installs thin wrappers on the public functions of each module
that the workloads reach; the benchmark's own calls and the calls one module
makes into another through a module attribute both pass through them.  Each
wrapper records a span: layer, function, phase ("setup" or "timed"), start,
end, the span that caused it, and counts read from the arguments and the
result.  Nothing in
``src/gramspec`` is edited, and untraced runs install nothing.

A layer's self time is its span's duration minus the part of that interval
covered by its child spans.  Spans opened in worker threads with no open span
of their own are children of the span open on the main thread, so a thread
pool's time waiting for its workers is not counted as the caller's work.
"""

import functools
import inspect
import threading
import time

import numpy as np

from gramspec import (capacity, cli, closed_forms, master_solver, measures,
                      simulator, spectra)


class Span:
    __slots__ = ("sid", "parent", "layer", "name", "phase", "start", "end",
                 "counts", "failed")

    def __init__(self, sid, parent, layer, name, phase):
        self.sid = sid
        self.parent = parent
        self.layer = layer
        self.name = name
        self.phase = phase
        self.start = time.perf_counter()
        self.end = None
        self.counts = {}
        self.failed = False

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Keeps finished spans in memory; the caller sets ``phase``."""

    def __init__(self):
        self.phase = "setup"
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._main_open = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer, fn, count, args, kwargs):
        stack = self._stack()
        on_main = threading.current_thread() is threading.main_thread()
        parent = stack[-1] if stack else (None if on_main else self._main_open)
        with self._lock:
            self._next_id += 1
            sid = self._next_id
        span = Span(sid, parent.sid if parent else None, layer, fn.__qualname__,
                    self.phase)
        stack.append(span)
        if on_main and len(stack) == 1:
            self._main_open = span
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if on_main and not stack:
                self._main_open = None
            with self._lock:
                self.spans.append(span)
        if count is not None:
            count(span, args, kwargs, result)
        return result


# ---- counts read at the boundaries -------------------------------------

_EVALUATE_SIG = inspect.signature(measures.VarianceProfile.evaluate)
_CONTINUATION_SIG = inspect.signature(master_solver.solve_with_continuation)


def _count_points(span, args, kwargs, result):
    _, x, y = _EVALUATE_SIG.bind(*args, **kwargs).args
    span.counts["points"] = np.broadcast(np.asarray(x), np.asarray(y)).size


def _count_sweep(span, args, kwargs, result):
    span.counts["reported_iterations"] = sum(rep.iterations for rep in result)


def _count_continuation(span, args, kwargs, result):
    # SolveReport.iterations covers only the last rung of each target; the
    # rung ladder itself is recomputed here the way the solver builds it.
    bound = _CONTINUATION_SIG.bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    height = master_solver.contraction_start_height(
        a["profile"].sigma_max_sq, a["c"], measures.lambda_moment(a["H"]))
    rungs = 0
    for zt in a["z_targets"]:
        zt = complex(zt)
        y = max(height if a["y_start"] is None else a["y_start"], zt.imag)
        rungs += 1
        while y > zt.imag * (1 + 1e-12):
            y = max(zt.imag, a["factor"] * y)
            rungs += 1
    span.counts["rungs"] = rungs
    span.counts["reported_iterations"] = sum(rep.iterations
                                             for rep in result.values())


def _count_draws(span, args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    per_entry = 16 if spec.entry_law == "complex-gaussian" else 8
    span.counts["bytes_drawn"] = spec.N * spec.n * per_entry


def _gram_flops(sigma):
    rows, cols = sigma.shape
    return 2.0 * rows * rows * cols * (4 if np.iscomplexobj(sigma) else 1)


def _count_eig_flops(span, args, kwargs, result):
    sigma = np.asarray(args[0] if args else kwargs["sigma"])
    rows = sigma.shape[0]
    # Gram product plus the Hermitian tridiagonal reduction (4/3 N^3)
    tridiag = 4.0 / 3.0 * rows ** 3 * (4 if np.iscomplexobj(sigma) else 1)
    span.counts["flops"] = _gram_flops(sigma) + tridiag


def _count_resolvent_flops(span, args, kwargs, result):
    sigma = np.asarray(args[0] if args else kwargs["sigma"])
    rows = sigma.shape[0]
    # Gram product, complex LU (8/3 N^3) and N complex solves (8 N^3)
    span.counts["flops"] = _gram_flops(sigma) + (8.0 / 3.0 + 8.0) * rows ** 3


def _targets():
    vp = measures.VarianceProfile
    return [
        (vp, "constant", "measures", None),
        (vp, "separable", "measures", None),
        (vp, "bilinear", "measures", None),
        (vp, "evaluate", "measures", _count_points),
        (measures.QuadratureRule, "midpoint", "measures", None),
        (measures, "product_H", "measures", None),
        (master_solver, "solve_with_continuation", "master_solver",
         _count_continuation),
        (master_solver, "sweep_line", "master_solver", _count_sweep),
        (closed_forms, "iid_noncentered_f", "closed_forms", None),
        (spectra, "limit_density", "spectra", None),
        (spectra, "density_from_stieltjes", "spectra", None),
        (spectra, "cdf_with_atom", "spectra", None),
        (spectra, "stieltjes_pair", "spectra", None),
        (spectra, "default_x_grid", "spectra", None),
        (simulator, "sample_sigma_matrix", "simulator", _count_draws),
        (simulator, "gram_eigenvalues", "simulator", _count_eig_flops),
        (simulator, "empirical_stieltjes", "simulator", _count_resolvent_flops),
        (simulator, "ks_compare", "simulator", None),
        (capacity, "capacity_from_spectrum", "capacity", None),
        (capacity, "capacity_from_limit", "capacity", None),
        (cli, "run", "cli", None),
    ]


def install(tracer):
    """Wrap every target; returns a function that restores the originals."""
    saved = []
    for owner, name, layer, count in _targets():
        raw = owner.__dict__[name]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw

        def traced(*args, _fn=fn, _layer=layer, _count=count, **kwargs):
            return tracer.call(_layer, _fn, _count, args, kwargs)

        traced = functools.wraps(fn)(traced)
        setattr(owner, name,
                classmethod(traced) if isinstance(raw, classmethod) else traced)
        saved.append((owner, name, raw))

    def restore():
        for owner, name, raw in reversed(saved):
            setattr(owner, name, raw)

    return restore


# ---- per-layer metrics --------------------------------------------------

def _union_length(intervals):
    total = 0.0
    end = -np.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans):
    """Map span id -> duration minus the time its children cover."""
    children = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        covered = [(max(ch.start, sp.start), min(ch.end, sp.end))
                   for ch in children.get(sp.sid, ())]
        covered = [(lo, hi) for lo, hi in covered if hi > lo]
        out[sp.sid] = sp.duration - _union_length(covered)
    return out


def tail_percentile(samples):
    """Highest whole percentile with at least ten samples beyond it.

    Falls back to the median when there are fewer than twenty samples.
    """
    n = len(samples)
    if n < 20:
        return 50
    return int(np.floor(100.0 * (1.0 - 10.0 / n)))


def layer_metrics(tracer, reps, setups, threads, notes):
    """Per-layer figures of one traced run; ``notes`` come from the workload.

    Times and counts of the timed phase are per rep; those of the set-up
    phase are per set-up.
    """
    spans = tracer.spans
    own = self_times(spans)
    by_id = {sp.sid: sp for sp in spans}

    def busy(layer, phase, names=None):
        return sum(own[sp.sid] for sp in spans
                   if sp.layer == layer and sp.phase == phase
                   and (names is None or sp.name.split(".")[-1] in names))

    def count(layer, phase, key):
        return sum(sp.counts.get(key, 0) for sp in spans
                   if sp.layer == layer and sp.phase == phase)

    per_rep = 1.0 / reps
    per_setup = 1.0 / setups
    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    solver_busy = busy("master_solver", "timed")
    iters = count("master_solver", "timed", "reported_iterations")
    calls = [sp.duration * 1e3 for sp in spans
             if sp.layer == "master_solver" and sp.phase == "timed"]
    tail = tail_percentile(calls)
    put("master_solver.busy_s", solver_busy * per_rep, "s")
    put("master_solver.reported_iterations", iters * per_rep, "count")
    put("master_solver.us_per_reported_iteration",
        1e6 * solver_busy / iters if iters else 0.0, "us")
    put("master_solver.rungs_computed",
        count("master_solver", "timed", "rungs") * per_rep, "count")
    put("master_solver.call_p50_ms",
        np.percentile(calls, 50) if calls else 0.0, "ms")
    put("master_solver.call_ptail_ms",
        np.percentile(calls, tail) if calls else 0.0, "ms")
    put("master_solver.call_ptail_pct", tail if calls else 0, "%")
    put("master_solver.call_samples", len(calls), "count")
    put("master_solver.failures",
        sum(sp.failed for sp in spans if sp.layer == "master_solver"), "count")

    put("measures.build_s", busy("measures", "setup") * per_setup, "s")
    put("measures.busy_s", busy("measures", "timed") * per_rep, "s")
    for grid, parent_layer in (("solver_grid", "master_solver"),
                               ("matrix_grid", "simulator")):
        evals = [sp for sp in spans
                 if sp.name.endswith("evaluate") and sp.parent is not None
                 and by_id[sp.parent].layer == parent_layer]
        points = sum(sp.counts["points"] for sp in evals)
        put(f"measures.profile_eval_ns_per_point_{grid}",
            1e9 * sum(own[sp.sid] for sp in evals) / points if points else 0.0,
            "ns")

    put("closed_forms.setup_busy_s", busy("closed_forms", "setup") * per_setup,
        "s")
    put("closed_forms.calls", sum(1 for sp in spans
                                  if sp.layer == "closed_forms"
                                  and sp.phase == "setup") * per_setup, "count")

    put("spectra.busy_s", busy("spectra", "timed") * per_rep, "s")
    put("spectra.setup_busy_s", busy("spectra", "setup") * per_setup, "s")
    put("spectra.mass_defect", notes.get("mass_defect", 0.0), "ratio")

    sim = {key: busy("simulator", "timed", {fn}) * per_rep
           for key, fn in (("sample_s", "sample_sigma_matrix"),
                           ("eig_s", "gram_eigenvalues"),
                           ("resolvent_s", "empirical_stieltjes"),
                           ("ks_s", "ks_compare"))}
    put("simulator.busy_s", busy("simulator", "timed") * per_rep, "s")
    for key, value in sim.items():
        put(f"simulator.{key}", value, "s")
    gflop = count("simulator", "timed", "flops") * per_rep / 1e9
    dense_s = sim["eig_s"] + sim["resolvent_s"]
    put("simulator.gflop_computed", gflop, "GFLOP")
    put("simulator.gflop_per_s", gflop / dense_s if dense_s else 0.0, "GFLOP/s")
    put("simulator.bytes_drawn_computed",
        count("simulator", "timed", "bytes_drawn") * per_rep, "B")

    put("capacity.busy_s", busy("capacity", "timed") * per_rep, "s")
    put("capacity.rel_gap", notes.get("rel_gap", 0.0), "ratio")

    cli_wall = sum(sp.duration for sp in spans
                   if sp.layer == "cli" and sp.phase == "timed")
    put("cli.busy_s", busy("cli", "timed") * per_rep, "s")
    put("cli.parallel_efficiency",
        solver_busy / (threads * cli_wall) if cli_wall else 0.0, "ratio")
    return m
