"""The two workloads of the path-lifecycle benchmark, their correctness
checks and their per-layer metrics.

iterreg's promise is "optimize once, store the path, then get the ridge
solution for any lambda by re-weighting alone".  Each op of a workload
runs two parts of that life cycle, one after the other, so that every
layer of the package is timed in one of them:

* ``store-sweep`` -- the whole life cycle at MNIST size (2000 x 784,
  10 classes).  The "pay once" half: IDX files -> ``load_idx`` ->
  ``QuadraticProblem.from_data`` -> one deterministic GD path and one
  mini-batch path -> ``save_path`` for both; its step loop is GEMM-bound
  (sigma @ W) and no averaging runs in it.  Then the "re-weight per
  lambda" half: ``load_path`` of the stored 501 x 7840 GD path and, for
  100 log-spaced lambda in [1e-6, 1e3], ``weights_sgd_adaptive`` +
  ``averaged_path``; no optimizer step runs in it, so the per-lambda time
  (``item_ms``) must not move when only the optimizers change.
* ``kernel-mc`` -- the two small-problem paths.  ``KernelProblem`` on a
  seeded n=200 Gram matrix -> one ``kernel_gd_run`` -> a grid of
  lambda-hat, each ``weights_kernel`` + ``averaged_path``: the only place
  where ``linalg`` runs and where averaging uses per-eigenvalue (matrix)
  schemes, so a speed-up for scalar schemes that slows matrix schemes
  shows here.  Then ``cli.main(["variance-mc", ...])``, the costliest
  verification gate: on the 2-D toy problem its cost is Python per-step
  overhead, one scheme rebuilt per seed and the CLI's thread pool, so it
  loads the optimizers in an overhead-bound way, unlike ``store-sweep``.

Why two workloads of two parts rather than four of one: on a host of two
shared cores the speed of the same CPU-bound loop drifts by 10-30% over
tens of seconds, and ten 10 s runs of the 9 s store part alone, one or
two ops each, spread by up to 0.22 of their median.  With two workloads
each run can measure 35 s rather than 10 s in the same total time, and
the per-item figures are medians over 100 lambdas or 400 lambda-hats
per op.

Choices that keep the workloads valid across the planned refactors
(eigensolver, seed-batched optimizer, binary path store, lambda-grid
engine):

* The stored-path file is opaque.  Save and load get the same name, and
  the file size is the total size of what the save created in a fresh
  directory, so a store that changes format, suffix or file count is
  measured as it is.
* ``variance-mc`` gets no ``--workers`` flag: the pool is the program's
  choice and may be removed.
* The program's own ``wall_clock_s``, ``optimize_s`` and ``average_s``
  fields are never read; every time is taken from outside the calls.
* ``variance-mc`` ignores ``--seed`` and always runs seeds 0..S-1 (a
  program defect).  The workload seed is passed anyway, but until that is
  fixed the ``variance-mc`` part does the same work for every workload
  seed.  ``--mc-seeds`` is 25 rather than the default 200, so that the
  gate is a quarter of the op rather than most of it; seeds per second
  hardly depends on the count.

All checks run outside the timed regions; every failed or raising check
counts in the run's ``failed`` total.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from iterreg import averaging, cli, data_io, optimizers, oracles, problems

from bench_trace import Tracer, self_time_by_module, self_times

now = time.perf_counter

PATH_NAME = "stored-path"   # no suffix: the store chooses its own format
ETA = 0.01          # MNIST-size runs; stable since eta * beta < 2
KERNEL_ETA = 0.2
MU_RANGE = (0.5, 2.0)
LAMBDA_RANGE = (1e-6, 1e3)
LAMHAT_RANGE = (0.5, 50.0)
KERNEL_IDENTITY_TOL = 1e-9
KERNEL_LIMIT_TOL = 1e-6
# The identity check reruns the regularized path, 500 steps, per lambda-hat
# checked; this many, evenly spread over the grid, keep it near 1 s per op.
KERNEL_IDENTITY_CHECKS = 50

# Sweep tolerance, fixed before any measurement:
#     tol(lam) = SWEEP_TOL_FACTOR * (K + 1) * eps * max|w_K| / P_K(lam).
# Each of the K + 1 steps and averaging terms adds round-off of order
# eps * max|w|, and the average divides by P_K, which amplifies it by
# 1 / P_K (about 2e5 at lam = 1e-6).  The factor covers the growth of
# step errors by |1 - eta * s| < 2 per step, the length-d reductions in
# the GEMMs and the reference's own eigendecomposition.
SWEEP_TOL_FACTOR = 1e3


@dataclass(frozen=True)
class Sizes:
    n: int = 2000           # images
    side: int = 28          # image side, so d = side**2 = 784
    steps: int = 500
    batch: int = 500
    lambdas: int = 100
    mc_seeds: int = 25
    kernel_n: int = 200
    lamhats: int = 400


FULL = Sizes()
TINY = Sizes(n=100, side=6, batch=30, lambdas=6, mc_seeds=3, kernel_n=10, lamhats=4)


@dataclass
class Op:
    """One timed operation: its wall time, per-item times and outputs."""

    op_s: float
    items: List[float]
    outputs: object
    phases: Dict[str, float] = field(default_factory=dict)


class Tally:
    """Counts checks attempted and failed; a raising check is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def expect(self, name: str, ok, detail: str = "") -> None:
        self.attempted += 1
        if not bool(ok):
            self.failed += 1
            self.failures.append(f"{name}: {detail}")
            print(f"check failed: {name}: {detail}", file=sys.stderr)

    @contextlib.contextmanager
    def guard(self, name: str):
        try:
            yield
        except Exception:
            self.expect(name, False, traceback.format_exc())


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(root, f))
               for root, _, files in os.walk(path) for f in files)


class Workload:
    name = ""
    item = ""               # what one entry of Op.items is

    def __init__(self, sizes: Sizes, seed: int, workdir: str):
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir
        self.stats: Dict[str, float] = {}

    def _fresh_dir(self) -> str:
        return tempfile.mkdtemp(dir=self.workdir)

    def setup(self) -> None:
        """Make the inputs from the seed; may be called again to redo it."""

    def op(self) -> Op:
        raise NotImplementedError

    def check(self, op: Op, tally: Tally) -> None:
        raise NotImplementedError

    def named(self, ops: List[Op]) -> Dict[str, tuple]:
        """Workload-specific end-to-end figures: name -> (value, unit, samples)."""
        raise NotImplementedError


def _median(values) -> float:
    return float(np.median(values))


def _items(ops: List[Op]) -> List[float]:
    return [t for op in ops for t in op.items]


def _gd_gain(s: np.ndarray, rate: float, steps: int) -> np.ndarray:
    """(1 - (1 - rate * s)^steps) / s: GD from zero after ``steps`` steps,
    per eigenvalue s, without cancellation for small rate * s."""
    x = rate * s
    small = x < 1.0
    done = np.empty_like(x)
    done[small] = -np.expm1(steps * np.log1p(-x[small]))
    done[~small] = 1.0 - (1.0 - x[~small]) ** steps
    return done / s


def sweep_reference(sigma, a, eta, steps, lams):
    """Final weighted averages the sweep must produce, and their tolerances.

    In sigma's eigenbasis the plain GD path w_K and the penalized path
    what_K (rate gamma = eta / (1 + lam eta) on sigma + lam I) are closed
    forms, and the mixing identity gives the final average as
    (what_K - (1 - P_K) w_K) / P_K with P_K = 1 - (1 - lam gamma)^(K+1).
    """
    s, basis = np.linalg.eigh(sigma)
    b = basis.T @ np.asarray(a, dtype=np.float64).reshape(sigma.shape[0], -1)
    plain = _gd_gain(s, eta, steps)
    scale = float(np.abs((basis * plain) @ b).max())
    refs, tols = [], []
    for lam in lams:
        gamma = eta / (1.0 + lam * eta)
        p_last = -np.expm1((steps + 1) * np.log1p(-lam * gamma))
        coeff = (_gd_gain(s + lam, gamma, steps) - (1.0 - p_last) * plain) / p_last
        refs.append(((basis * coeff) @ b).ravel())
        tols.append(SWEEP_TOL_FACTOR * (steps + 1) * np.finfo(float).eps * scale / p_last)
    return np.array(refs), np.array(tols)


class StoreSweep(Workload):
    name = "store-sweep"
    item = "one lambda (weights_sgd_adaptive + averaged_path)"

    def setup(self):
        s = self.sizes
        images, labels = data_io.synthetic_mnist(n=s.n, seed=self.seed, side=s.side)
        inputs = self._fresh_dir()
        self.images = os.path.join(inputs, "images.idx")
        self.labels = os.path.join(inputs, "labels.idx")
        data_io.write_idx_images(self.images, images)
        data_io.write_idx_labels(self.labels, labels)
        self.stats["idx_bytes"] = dir_bytes(inputs)
        # The op's problem is built from these files; load_idx scales the
        # same way, so the reference comes from the same sigma and a.
        x = images.reshape(s.n, -1).astype(np.float64) / 255.0
        prob = problems.QuadraticProblem.from_data(x, data_io.one_hot(labels, 10))
        self.lams = [float(v) for v in np.logspace(*np.log10(LAMBDA_RANGE), s.lambdas)]
        self.refs, self.tols = sweep_reference(prob.sigma, prob.a, ETA, s.steps, self.lams)

    def op(self):
        s = self.sizes
        out = self._fresh_dir()
        runs = {"gd": {}, "minibatch": dict(batch_size=s.batch, seed=self.seed,
                                            deterministic=False)}
        for kind in runs:
            os.mkdir(os.path.join(out, kind))
        phases = {}
        t0 = now()
        data = data_io.load_idx(self.images, self.labels)
        prob = problems.QuadraticProblem.from_data(data.X, data.Y)
        bounds = problems.convexity_bounds(prob)
        sched = optimizers.make_schedule(ETA)
        records = {}
        for kind, kwargs in runs.items():
            t1 = now()
            rec = optimizers.sgd_run(prob, problems.Regularizer.none(), sched, s.steps,
                                     **kwargs)
            optimizers.save_path(rec, os.path.join(out, kind, PATH_NAME))
            phases[f"{kind}_path_s"] = now() - t1
            records[kind] = rec
        t1 = now()
        loaded = optimizers.load_path(os.path.join(out, "gd", PATH_NAME))
        t2 = now()
        finals = np.empty_like(self.refs)
        items = []
        for i, lam in enumerate(self.lams):
            t3 = now()
            scheme = averaging.weights_sgd_adaptive(loaded.schedule, lam, s.steps)
            finals[i] = averaging.averaged_path(loaded, scheme)[-1]
            items.append(now() - t3)
        t4 = now()
        phases.update(store_s=t1 - t0, load_s=t2 - t1, sweep_s=t4 - t1)
        return Op(t4 - t0, items, (out, records, bounds.beta, loaded, finals), phases)

    def check(self, op, tally):
        out, records, beta, loaded, finals = op.outputs
        tally.expect("store/stable-rate", ETA * beta < 2.0, f"eta*beta = {ETA * beta}")
        for kind, rec in records.items():
            with tally.guard(f"store/{kind}/load"):
                # The sweep's own load_path of the GD path is checked as it is.
                back = loaded if kind == "gd" else optimizers.load_path(
                    os.path.join(out, kind, PATH_NAME))
                same = (back.iterates.dtype == rec.iterates.dtype
                        and np.array_equal(back.iterates, rec.iterates))
                tally.expect(f"store/{kind}/bit-exact", same)
                tally.expect(f"store/{kind}/fingerprint",
                             rec.problem_fingerprint
                             and back.problem_fingerprint == rec.problem_fingerprint,
                             f"{back.problem_fingerprint!r} vs {rec.problem_fingerprint!r}")
            self.stats["path_bytes"] = dir_bytes(os.path.join(out, kind))
        shutil.rmtree(out)
        errors = np.abs(finals - self.refs).max(axis=1)
        for lam, err, tol in zip(self.lams, errors, self.tols):
            tally.expect(f"sweep/lam={lam:.4g}", err <= tol, f"error {err:.3e} > {tol:.3e}")

    def named(self, ops):
        paths = [o.phases[f"{kind}_path_s"] for o in ops for kind in ("gd", "minibatch")]
        items_ms = np.array(_items(ops)) * 1e3
        return {"store_s": (_median([o.phases["store_s"] for o in ops]), "s", len(ops)),
                "path_s": (_median(paths), "s", len(paths)),
                "load_s": (_median([o.phases["load_s"] for o in ops]), "s", len(ops)),
                "lambda_ms": (_median(items_ms), "ms", items_ms.size),
                "lambda_ms_p90": (float(np.percentile(items_ms, 90)), "ms", items_ms.size),
                "sweep_s": (_median([o.phases["sweep_s"] for o in ops]), "s", len(ops))}


class KernelMc(Workload):
    name = "kernel-mc"
    item = "one lambda-hat (weights_kernel + averaged_path)"
    n_optimizers = 3        # variance-mc runs plain, preconditioned and Nesterov SGD

    def setup(self):
        n = self.sizes.kernel_n
        rng = np.random.default_rng(self.seed)
        basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
        mu = rng.uniform(*MU_RANGE, size=n)
        gram = basis @ np.diag(mu) @ basis.T
        self.gram = 0.5 * (gram + gram.T)
        self.y = rng.standard_normal(n)
        self.lamhats = [float(v) for v in
                        np.logspace(*np.log10(LAMHAT_RANGE), self.sizes.lamhats)]
        self.refs = np.array([np.linalg.solve(self.gram + lh * np.eye(n), self.y)
                              for lh in self.lamhats])

    def op(self):
        steps = self.sizes.steps
        finals = np.empty_like(self.refs)
        items = []
        t0 = now()
        kernel = problems.KernelProblem(K=self.gram, y=self.y)
        sched = optimizers.make_schedule(KERNEL_ETA)
        plain = optimizers.kernel_gd_run(kernel, sched, steps)
        for i, lam_hat in enumerate(self.lamhats):
            t1 = now()
            scheme = averaging.weights_kernel(kernel, sched, 0.0, lam_hat, steps)
            finals[i] = averaging.averaged_path(plain, scheme)[-1]
            items.append(now() - t1)
        t1 = now()
        out = self._fresh_dir()
        argv = ["variance-mc", "--out", out, "--seed", str(self.seed),
                "--mc-seeds", str(self.sizes.mc_seeds), "--steps", str(steps)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        t2 = now()
        return Op(t2 - t0, items, (kernel, sched, plain, finals, code, out),
                  {"kernel_s": t1 - t0, "cli_s": t2 - t1})

    def check(self, op, tally):
        kernel, sched, plain, finals, code, out = op.outputs
        steps = self.sizes.steps
        n = len(self.lamhats)
        checked = set(np.linspace(0, n - 1, min(n, KERNEL_IDENTITY_CHECKS)).round().astype(int))
        for i, (lam_hat, final, ref) in enumerate(zip(self.lamhats, finals, self.refs)):
            if i in checked:
                with tally.guard(f"kernel/identity/lam_hat={lam_hat:.4g}"):
                    reg = optimizers.kernel_gd_run(kernel, sched, steps, lam=0.0,
                                                   lam_hat=lam_hat)
                    scheme = averaging.weights_kernel(kernel, sched, 0.0, lam_hat, steps)
                    residual = oracles.identity_check(plain, reg, scheme)
                    tally.expect(f"kernel/identity/lam_hat={lam_hat:.4g}",
                                 residual <= KERNEL_IDENTITY_TOL, f"residual {residual:.3e}")
            err = float(np.abs(final - ref).max())
            tally.expect(f"kernel/limit/lam_hat={lam_hat:.4g}", err <= KERNEL_LIMIT_TOL,
                         f"error {err:.3e}")
        tally.expect("mc/exit-code", code == 0, f"exit code {code}")
        with tally.guard("mc/checks.json"):
            with open(os.path.join(out, "checks.json"), encoding="ascii") as fh:
                entries = json.load(fh)["checks"]
            tally.expect("mc/one-check-per-optimizer", len(entries) == self.n_optimizers,
                         f"{len(entries)} entries")
            for entry in entries:
                tally.expect(f"mc/{entry['check']}", entry["pass"] is True,
                             f"residual {entry['residual']} threshold {entry['threshold']}")
        shutil.rmtree(out)

    def named(self, ops):
        items_ms = np.array(_items(ops)) * 1e3
        runs = self.sizes.mc_seeds * self.n_optimizers
        return {"kernel_s": (_median([o.phases["kernel_s"] for o in ops]), "s", len(ops)),
                "lamhat_ms": (_median(items_ms), "ms", items_ms.size),
                "lamhat_ms_p90": (float(np.percentile(items_ms, 90)), "ms", items_ms.size),
                "cli_s": (_median([o.phases["cli_s"] for o in ops]), "s", len(ops)),
                "seeds_per_s": (_median([runs / o.phases["cli_s"] for o in ops]), "1/s",
                                len(ops))}


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    w.name: w for w in (StoreSweep, KernelMc)
}


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced run.  "<function>.s" is inclusive seconds
# per call, "<module>.self_s" and "cli.self_s" are seconds per op, and a
# name the program no longer has reads zero calls.

OPTIMIZER_RUNS = ("sgd_run", "psgd_run", "nsgd_run", "kernel_gd_run")
MODULES = ("optimizers", "averaging", "linalg", "problems", "data_io", "oracles", "bench")
ORACLES = ("expectation_path", "identity_check", "kernel_solution", "ridge_solution")
PER_CALL = ("optimizers.save_path", "optimizers.load_path", "linalg.jacobi_eigh",
            "problems.KernelProblem", "problems.QuadraticProblem.from_data",
            "problems.convexity_bounds", "data_io.load_idx")


def _arg_key(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.ndarray) and value.size <= 4096:
        return ("array", value.shape, value.tobytes())
    return ("object", id(value))


def trace_hooks() -> Dict[str, Callable]:
    """What a traced call keeps: steps run, rows and bytes averaged, or the
    arguments a scheme was built from (to count distinct schemes)."""
    hooks = {f"optimizers.{f}": (lambda args, kwargs, result: len(result) - 1)
             for f in OPTIMIZER_RUNS}
    hooks["averaging.averaged_path"] = lambda args, kwargs, result: (
        result.shape[0], result.nbytes)
    for name in averaging.__all__:
        if name.startswith("weights_"):
            hooks[f"averaging.{name}"] = lambda args, kwargs, result, name=name: (
                name, tuple(map(_arg_key, args)),
                tuple(sorted((k, _arg_key(v)) for k, v in kwargs.items())))
    return hooks


def layer_metrics(tracer: Tracer, traced_walls: List[float], untraced_walls: List[float],
                  stats: Dict[str, float]) -> Dict[str, tuple]:
    """name -> (value, unit) from the spans of ``len(traced_walls)`` ops."""
    n_ops = len(traced_walls)
    names = {s.name for s in tracer.spans}
    summary = tracer.summary(names | set(PER_CALL) | {"averaging.averaged_path"}
                             | {f"optimizers.{fn}" for fn in OPTIMIZER_RUNS}
                             | {f"oracles.{fn}" for fn in ORACLES})

    def per_call(name):
        calls, total = summary[name]
        return total / calls if calls else 0.0

    out = {}
    all_steps = 0
    for fn in OPTIMIZER_RUNS:
        name = f"optimizers.{fn}"
        steps = sum(r for r in tracer.results(name) if r is not None)
        all_steps += steps
        total = summary[name][1]
        out[f"{name}.step_us"] = (total / steps * 1e6 if steps else 0.0, "us")
    out["optimizers.steps"] = (all_steps / n_ops, "count")

    save_s, load_s = per_call("optimizers.save_path"), per_call("optimizers.load_path")
    path_mb = stats.get("path_bytes", 0) / 1e6
    out["optimizers.save_path.s"] = (save_s, "s")
    out["optimizers.save_path.file_mb"] = (path_mb if save_s else 0.0, "MB")
    out["optimizers.load_path.s"] = (load_s, "s")
    out["optimizers.load_path.mb_per_s"] = (path_mb / load_s if load_s else 0.0, "MB/s")

    calls, total = summary["averaging.averaged_path"]
    shapes = [r for r in tracer.results("averaging.averaged_path") if r is not None]
    rows = sum(r for r, _ in shapes)
    computed = sum(b for _, b in shapes)
    out["averaging.averaged_path.ms"] = (total / calls * 1e3 if calls else 0.0, "ms")
    out["averaging.averaged_path.calls"] = (calls / n_ops, "count")
    out["averaging.averaged_path.computed_mb"] = (computed / calls / 1e6 if calls else 0.0,
                                                  "MB")
    out["averaging.averaged_path.gb_per_s"] = (computed / total / 1e9 if total else 0.0,
                                               "GB/s")
    # Every caller in these workloads reads only the final row.
    out["averaging.averaged_path.rows_used_ratio"] = (calls / rows if rows else 0.0, "ratio")

    scheme_names = [n for n in names if n.startswith("averaging.weights_")]
    keys = [k for n in scheme_names for k in tracer.results(n)]
    scheme_calls = sum(summary[n][0] for n in scheme_names)
    scheme_s = sum(summary[n][1] for n in scheme_names)
    out["averaging.scheme.s"] = (scheme_s / scheme_calls if scheme_calls else 0.0, "s")
    out["averaging.scheme.calls"] = (scheme_calls / n_ops, "count")
    out["averaging.scheme.distinct_ratio"] = (
        len(set(keys)) / scheme_calls if scheme_calls else 0.0, "ratio")

    out["linalg.jacobi_eigh.s"] = (per_call("linalg.jacobi_eigh"), "s")
    out["linalg.jacobi_eigh.calls"] = (summary["linalg.jacobi_eigh"][0] / n_ops, "count")
    out["problems.KernelProblem.s"] = (per_call("problems.KernelProblem"), "s")
    out["problems.from_data.s"] = (per_call("problems.QuadraticProblem.from_data"), "s")
    out["problems.convexity_bounds.s"] = (per_call("problems.convexity_bounds"), "s")
    idx_s = per_call("data_io.load_idx")
    out["data_io.load_idx.s"] = (idx_s, "s")
    out["data_io.load_idx.mb_per_s"] = (
        stats.get("idx_bytes", 0) / 1e6 / idx_s if idx_s else 0.0, "MB/s")
    for fn in ORACLES:
        out[f"oracles.{fn}.s"] = (per_call(f"oracles.{fn}"), "s")

    spans = tracer.spans
    own = self_times(spans)
    cli_spans = [i for i, s in enumerate(spans) if s.name == "cli.main"]
    cli_wall = sum(spans[i].end - spans[i].start for i in cli_spans)
    workers = sum(s.end - s.start for s in spans
                  if s.thread != tracer.main_thread
                  and (s.parent is None or spans[s.parent].thread != s.thread))
    out["cli.self_s"] = (sum(own[i] for i in cli_spans) / n_ops, "s")
    out["cli.pool.concurrency"] = (workers / cli_wall if cli_wall else 0.0, "ratio")

    by_module = self_time_by_module(spans)
    for module in MODULES:
        out[f"{module}.self_s"] = (by_module.get(module, 0.0) / n_ops, "s")
    out["trace.self_sum_ratio"] = (sum(own) / sum(traced_walls), "ratio")
    out["trace.overhead_frac"] = (
        _median(traced_walls) / _median(untraced_walls) - 1.0, "ratio")
    return out
