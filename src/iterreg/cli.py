"""Experiment driver: every desk-scale experiment as a subcommand.

Each subcommand wires problems -> optimizers -> averaging -> oracles,
writes report files plus a ``checks.json`` with one entry per verified
claim, and exits 0 only if every check passed: 1 on a failed check, 2 on
an invalid configuration or an input file that cannot be read, and 3 when
a run diverges or a numerical step fails (a linear solve or
eigendecomposition that misses its accuracy bound, a solver that does not
converge).

Subcommands:
    demo2d          2-D quadratic demo: identities, decay rates, limits
    kernel-demo     dual kernel paths vs (K + lam_hat I)^{-1} y
    mnist-linear    least squares on IDX data (or a seeded stand-in)
    mnist-logistic  softmax-with-ridge variant of the same
    variance-mc     Chebyshev deviation bound under injected noise
    sandwich        entry-wise bracket for a general strongly convex loss
    l1-hull         l1 solutions escape the hull of the descent path
    sweep           one stored gd or ngd path re-averaged across a lambda grid
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import shutil
import sys
import time
from functools import partial

import numpy as np

from . import data_io, oracles
from .averaging import (
    averaged_path,
    scheme_to_csv,
    weights_kernel,
    weights_nsgd,
    weights_sgd_adaptive,
)
from .data_io import Dataset, Report, one_hot, write_report
from .optimizers import (
    DivergenceError,
    kernel_gd_run,
    load_path,
    make_schedule,
    nsgd_run,
    problem_fingerprint,
    psgd_run,
    sgd_run,
)
from .problems import (
    KernelProblem,
    LogisticProblem,
    QuadraticProblem,
    Regularizer,
    convexity_bounds,
    toy_problem,
)

__all__ = ["main", "ConfigError"]


class ConfigError(ValueError):
    """Invalid experiment configuration (exit code 2)."""


# ---------------------------------------------------------------------------
# Output files and check bookkeeping


def _write_json(out_dir: str, name: str, payload) -> None:
    with open(os.path.join(out_dir, name), "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=1)


def _write_report(args, out_dir, stem, experiment, plain, reg, avg, scheme, config, t0):
    """Write ``<stem>.<format>`` for a plain/regularized run pair and its average.

    Returns the per-iteration l1 distances of the plain and averaged paths
    from the regularized one.  A per-eigenvalue scheme reports its smallest P_k.
    """
    err_plain = np.abs(plain.iterates - reg.iterates).sum(axis=1)
    err_avg = np.abs(avg - reg.iterates).sum(axis=1)
    p_cum = scheme.cumulative[: len(plain)]
    if p_cum.ndim == 2:
        p_cum = p_cum.min(axis=1)
    report = Report(
        experiment=experiment,
        iters=list(range(len(plain))),
        err_plain=err_plain.tolist(),
        err_avg=err_avg.tolist(),
        p_cumulative=p_cum.tolist(),
        config=config,
        wall_clock_s=time.perf_counter() - t0,
    )
    write_report(report, os.path.join(out_dir, f"{stem}.{args.format}"), args.format)
    return err_plain, err_avg


class Checks:
    def __init__(self):
        self.entries = []

    def add(self, name: str, residual: float, threshold: float, params=None,
            direction: str = "<="):
        self.entries.append({
            "check": name,
            "params": params or {},
            "residual": float(residual),
            "threshold": float(threshold),
            "pass": bool({"<=": operator.le, ">=": operator.ge}[direction](residual, threshold)),
        })

    @property
    def all_pass(self) -> bool:
        return all(e["pass"] for e in self.entries)

    def dump(self, out_dir: str) -> None:
        _write_json(out_dir, "checks.json", {"pass": self.all_pass, "checks": self.entries})
        for e in self.entries:
            status = "PASS" if e["pass"] else "FAIL"
            print(f"[{status}] {e['check']}: residual={e['residual']:.6g} "
                  f"threshold={e['threshold']:.6g}")


def _need_steps(steps: int, least: int, what: str) -> None:
    if steps < least:
        raise ConfigError(f"--steps {steps} is too short for {what}, "
                          f"which needs --steps >= {least}")


_SLOPE_SLACK = 1e-3  # a decay-slope check passes a log10 slope up to log10(rate) + this


def _fit_slope(values: np.ndarray, floor: float, rate: float) -> float:
    """Least-squares slope of log10(values) against the iteration index.

    The values are rate^k times a gap between two paths from zero, which,
    rising like 1 - rate^k, tilts the slope by |log10 rate| rate^k / (1 - rate^k).
    The fit starts at step max(k0, K // 2), k0 the first step where that tilt
    is within _SLOPE_SLACK, and stops where the values sink below ``floor``,
    the round-off plateau; fewer than 20 live points there mean the decay
    outran any measurable rate, -inf.  A run too short to hold 20 points
    from k0 is a ConfigError.
    """
    steps = values.size - 1
    tilt = _SLOPE_SLACK / -np.log10(rate)  # rate^k <= tilt / (1 + tilt) from k0 on
    k0 = int(np.ceil(np.log(tilt / (1.0 + tilt)) / np.log(rate)))
    start = max(k0, steps // 2)
    _need_steps(steps, k0 + 20 - 1, "the decay-slope fit")
    live = np.nonzero(values > floor)[0]
    end = int(live.max()) + 1 if live.size else 0
    if end - start < 20:
        return float("-inf")
    ks = np.arange(start, end)
    logs = np.log10(np.maximum(values[start:end], 1e-300))
    return float(np.polyfit(ks, logs, 1)[0])


# ---------------------------------------------------------------------------
# Subcommands


def cmd_demo2d(args, checks: Checks, out_dir: str):
    eta, lam, alpha, steps = args.eta, args.lam, args.alpha, args.steps
    prob = toy_problem()
    bounds = convexity_bounds(prob)
    sched = make_schedule(eta, bounds=bounds)
    gamma = sched.coupled(lam).eta(0)
    for name in ("gd", "pgd", "ngd"):
        # Runs inside the loop, so each report's wall clock covers its own runs.
        t0 = time.perf_counter()
        p, r, scheme = _run_pair(prob, name, sched, lam, steps, alpha)
        residual = oracles.identity_check(p, r, scheme)
        checks.add(f"demo2d/identity/{name}", residual, 1e-10,
                   {"eta": eta, "lam": lam, "steps": steps})
        avg = averaged_path(p, scheme)
        err = np.linalg.norm(avg - r.iterates, axis=1)
        rate = scheme.params["decay"] if name == "ngd" else 1.0 - lam * gamma
        slope = _fit_slope(err, 1e-13, rate)
        checks.add(f"demo2d/decay-slope/{name}", slope, np.log10(rate) + _SLOPE_SLACK,
                   {"rate": rate})
        # The mixing identity pins the end gap at (1 - P_K) * ||w_K - wavg_K||;
        # verify the realized gap agrees with that exact prediction.
        p_last = scheme.cumulative[steps]
        predicted = (1.0 - p_last) * np.abs(p.iterates[-1] - avg[-1]).max()
        realized = np.abs(avg[-1] - r.iterates[-1]).max()
        checks.add(f"demo2d/final-gap-vs-theory/{name}",
                   abs(realized - predicted), 1e-10 + 1e-6 * predicted)
        _write_report(args, out_dir, f"demo2d_{name}", f"demo2d-{name}", p, r, avg, scheme,
                      {"eta": eta, "lam": lam, "alpha": alpha, "steps": steps}, t0)
        if name == "gd":
            scheme_to_csv(scheme, os.path.join(out_dir, "demo2d_gd_scheme.csv"))


_KERNEL_MAX_N = 1000  # kernel-demo's largest Gram matrix


def _random_kernel(n: int, seed: int):
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    mu = rng.uniform(0.5, 2.0, size=n)
    gram = basis @ np.diag(mu) @ basis.T
    gram = 0.5 * (gram + gram.T)
    y = rng.standard_normal(n)
    return KernelProblem(K=gram, y=y)


def _kernel_limit_gap(kernel, eta: float, lam_hat: float, steps: int) -> float:
    """max |wavg_K - (K + lam_hat I)^{-1} y| after ``steps`` of kernel GD at rate eta.

    In the Gram eigenbasis, from zero, the plain run ends at w_K = (1 - a^K) y/mu
    with a = 1 - eta mu^2, the lam_hat run at what_K = (1 - (a r)^K) t with
    t = y/(mu + lam_hat) and r = 1/(1 + lam_hat eta mu), and 1 - P_K = r^(K+1).
    The identity P_K wavg_K = what_K - (1 - P_K) w_K then gives
    P_K (wavg_K - t) = -(a r)^K t - r^(K+1) (w_K - t).
    """
    mu, y = kernel.eigenvalues, kernel.basis.T @ kernel.y
    a, r, t = 1.0 - eta * mu * mu, 1.0 / (1.0 + lam_hat * eta * mu), y / (mu + lam_hat)
    tail = r ** (steps + 1)
    gap = -((a * r) ** steps * t + tail * ((1.0 - a ** steps) * y / mu - t)) / (1.0 - tail)
    return float(np.abs(kernel.basis @ gap).max())


def cmd_kernel_demo(args, checks: Checks, out_dir: str):
    kernel = _random_kernel(args.kernel_n, args.seed)
    eta = 0.2
    mu = kernel.eigenvalues
    # Plain GD is stable, eta mu^2 <= 0.2 * 2^2 < 1 on _random_kernel's spectrum,
    # and so is the regularized run: its factor (eta mu^2 + lam_hat eta mu) /
    # (1 + lam_hat eta mu) is at most 1 for lam_hat > 0 (lam_hat <= 0 is rejected).
    sched = make_schedule(eta)
    plain = kernel_gd_run(kernel, sched, args.steps, lam=0.0)
    for lam_hat in args.lam_hats:
        t0 = time.perf_counter()
        reg = kernel_gd_run(kernel, sched, args.steps, lam=0.0, lam_hat=lam_hat)
        scheme = weights_kernel(kernel, sched, 0.0, lam_hat, args.steps)
        residual = oracles.identity_check(plain, reg, scheme)
        checks.add(f"kernel/identity/lam_hat={lam_hat}", residual, 1e-9)
        avg = averaged_path(plain, scheme)
        target = oracles.kernel_solution(kernel, lam_hat)
        # Within 1e-6 of the limit, or, where K steps cannot get that close,
        # within the identity check's 1e-9 of the gap that K steps leave.
        floor = _kernel_limit_gap(kernel, eta, lam_hat, args.steps)
        checks.add(f"kernel/limit/lam_hat={lam_hat}",
                   np.abs(avg[-1] - target).max(), max(1e-6, floor + 1e-9))
        err = np.linalg.norm(avg - reg.iterates, axis=1)
        rate = 1.0 / (1.0 + lam_hat * eta * mu.min())
        slope = _fit_slope(err, 1e-12, rate)
        checks.add(f"kernel/decay-slope/lam_hat={lam_hat}", slope,
                   np.log10(rate) + _SLOPE_SLACK, {"rate": rate})
        _write_report(args, out_dir, f"kernel_{lam_hat}", f"kernel-{lam_hat}", plain, reg,
                      avg, scheme,
                      {"n": kernel.n, "eta": eta, "lam_hat": lam_hat, "seed": args.seed}, t0)


def _mnist_dataset(args) -> Dataset:
    if args.images and args.labels:
        return data_io.load_idx(args.images, args.labels, limit=args.limit)
    if args.images or args.labels:
        raise ConfigError("--images and --labels must be given together")
    images, labels = data_io.synthetic_mnist(n=args.limit, seed=args.seed)
    return Dataset(
        X=images.reshape(images.shape[0], -1).astype(np.float64) / 255.0,
        Y=one_hot(labels, 10),
        provenance=f"synthetic(seed={args.seed}, n={args.limit})",
    )


def _optimizer(prob, name, alpha, q=None):
    """Runner, penalty of the regularized run (a function of lambda) and scheme
    constructor (schedule, lambda, steps) of gd, pgd (preconditioned with q, by
    default the quadratic's Sigma) or ngd (momentum for strong convexity alpha)."""
    if name == "gd":
        return sgd_run, Regularizer.l2, weights_sgd_adaptive
    if name == "pgd":
        q = prob.sigma if q is None else q
        return (partial(psgd_run, Q=q), partial(Regularizer.generalized_l2, Q=q),
                weights_sgd_adaptive)
    return (partial(nsgd_run, alpha=alpha), Regularizer.l2,  # ngd, the parser admits no other
            lambda sched, lam, steps: weights_nsgd(sched.eta(0), lam, alpha, steps))


def _run_pair(prob, optimizer, sched, lam, steps, alpha, batch=None, seed=None, q=None):
    """Plain and lambda-regularized runs of one optimizer, and their scheme.

    The regularized run steps at ``sched.coupled(lam)``; a ``batch`` of None
    is the full gradient.
    """
    run, penalty, make_scheme = _optimizer(prob, optimizer, alpha, q)
    kwargs = dict(batch_size=batch, seed=seed, deterministic=batch is None)
    plain = run(prob, Regularizer.none(), sched, steps, **kwargs)
    regp = run(prob, penalty(lam), sched.coupled(lam), steps, **kwargs)
    return plain, regp, make_scheme(sched, lam, steps)


def _eta_schedule(prob, args):
    """The plain run's schedule.  The accelerated scheme assumes eta < 1/beta
    and --alpha <= alpha, the problem's own curvature; either breach exits 2."""
    bounds = convexity_bounds(prob) if args.optimizer == "ngd" else None
    sched = make_schedule(args.eta, bounds=bounds)
    if bounds is not None and args.alpha > bounds.alpha:
        raise ConfigError(f"--alpha {args.alpha:g} > alpha = {bounds.alpha:.6g}, "
                          "the problem's strong convexity")
    return sched


def cmd_mnist_linear(args, checks: Checks, out_dir: str):
    eta, lam, steps = args.eta, args.lam, args.steps
    _need_steps(steps, 11, "the monotonicity check after step 10")
    data = _mnist_dataset(args)
    n, d = data.X.shape
    if n < d:  # Sigma = X^T X / n then has rank at most n
        raise ConfigError(f"--limit {args.limit} loaded n = {n} rows for d = {d} features; "
                          "least squares needs n >= d")
    prob = QuadraticProblem.from_data(data.X, data.Y)
    sched = _eta_schedule(prob, args)
    t0 = time.perf_counter()

    plain, reg, scheme = _run_pair(prob, args.optimizer, sched, lam, steps, args.alpha,
                                   seed=args.seed)
    avg = averaged_path(plain, scheme)
    _, err_avg = _write_report(
        args, out_dir, "mnist_linear_det", "mnist-linear-deterministic", plain, reg,
        avg, scheme,
        {"eta": eta, "lam": lam, "steps": steps, "n": data.n,
         "optimizer": args.optimizer, "provenance": data.provenance}, t0)
    checks.add("mnist-linear/deterministic-monotone-after-10",
               float(np.max(np.diff(err_avg[10:]))), 0.0, {"optimizer": args.optimizer})
    ridge_norm = np.abs(reg.iterates[-1]).sum()
    # By the identity the gap at step K is (1 - P_K) ||w_K - wavg_K||_1 exactly, which
    # no run of K steps gets below; the check allows it where it tops 1e-4 ||what_K||_1.
    floor = (1.0 - scheme.cumulative[steps]) * np.abs(plain.iterates[-1] - avg[-1]).sum()
    checks.add("mnist-linear/deterministic-final-error",
               float(err_avg[-1]), max(1e-4 * ridge_norm, (1.0 + 1e-6) * floor),
               {"ridge_l1_norm": float(ridge_norm)})

    if not args.deterministic:
        t0 = time.perf_counter()
        plain, reg, scheme = _run_pair(prob, args.optimizer, sched, lam, steps, args.alpha,
                                       batch=args.batch, seed=args.seed)
        err_plain, err_avg = _write_report(
            args, out_dir, "mnist_linear_stoch", "mnist-linear-stochastic", plain, reg,
            averaged_path(plain, scheme), scheme,
            {"eta": eta, "lam": lam, "steps": steps, "batch": args.batch,
             "seed": args.seed, "optimizer": args.optimizer}, t0)
        checks.add("mnist-linear/stochastic-avg-below-plain",
                   float(err_avg[-1] - err_plain[-1]), 0.0,
                   {"batch": args.batch, "seed": args.seed})


def cmd_mnist_logistic(args, checks: Checks, out_dir: str):
    eta, lam, steps = args.eta, args.lam, args.steps
    data = _mnist_dataset(args)
    prob = LogisticProblem(X=data.X, Y=data.Y, base_ridge=args.base_ridge)
    sched = _eta_schedule(prob, args)
    q = None
    if args.optimizer == "pgd":
        # Feature second moment plus the loss's own ridge as preconditioner,
        # so the Hessian (at most Sigma/2 + base_ridge I) stays below Q; the
        # 1e-8 floor keeps Q factorizable at --base-ridge 0.
        q = prob.X.T @ prob.X / prob.n_samples
        q = q + (args.base_ridge + 1e-8) * np.eye(q.shape[0])
    for batch in (None,) if args.deterministic else (None, args.batch):
        t0 = time.perf_counter()
        plain, regp, scheme = _run_pair(prob, args.optimizer, sched, lam, steps, args.alpha,
                                        batch=batch, seed=args.seed, q=q)
        mode = "deterministic" if batch is None else "stochastic"
        err_plain, err_avg = _write_report(
            args, out_dir, f"mnist_logistic_{mode}", f"mnist-logistic-{mode}", plain, regp,
            averaged_path(plain, scheme), scheme,
            {"eta": eta, "lam": lam, "gamma": sched.coupled(lam).eta(0), "steps": steps,
             "base_ridge": args.base_ridge, "optimizer": args.optimizer}, t0)
        checks.add(f"mnist-logistic/{mode}-avg-below-plain",
                   float(err_avg[-1] - err_plain[-1]), 0.0,
                   {"optimizer": args.optimizer})


def cmd_variance_mc(args, checks: Checks, out_dir: str):
    prob = toy_problem()
    bounds = convexity_bounds(prob)
    eta, lam, steps = args.eta, args.lam, args.steps
    sigma, delta = args.sigma, args.delta
    sched = make_schedule(eta, bounds=bounds)
    gamma = sched.coupled(lam).eta(0)
    results = {}
    for name, kind in (("gd", "sgd"), ("pgd", "psgd"), ("ngd", "nsgd")):
        run, penalty, make_scheme = _optimizer(prob, name, args.alpha)
        # NGD's bound takes the momentum's alpha; PSGD's has Q = Sigma, ||Q||_2 = beta.
        eps = oracles.variance_epsilon(kind, sigma, delta, gamma, lam,
                                       args.alpha if name == "ngd" else bounds.alpha, bounds.beta,
                                       eta=eta, lam_min=bounds.alpha, q_norm=bounds.beta)
        # The penalty at lambda = 0 adds nothing; for PGD it carries Q.
        mean_rec = oracles.expectation_path(prob, penalty(0.0), sched, steps, kind=name,
                                            alpha=args.alpha)
        scheme = make_scheme(sched, lam, steps)
        p_last = scheme.cumulative[steps]
        target = averaged_path(mean_rec, scheme)[-1]
        runs = run(prob, Regularizer.none(), sched, steps,
                   seed=range(args.seed, args.seed + args.mc_seeds), noise_sigma=sigma)
        finals = [averaged_path(rec, scheme)[-1] for rec in runs]
        deviations = [float(np.linalg.norm(p_last * f - p_last * target)) for f in finals]
        freq = float(np.mean(np.asarray(deviations) > eps))
        results[kind] = {"epsilon": eps, "frequency": freq,
                         "max_deviation": max(deviations)}
        checks.add(f"variance-mc/{kind}", freq, delta + 0.05,
                   {"epsilon": eps, "sigma": sigma, "delta": delta,
                    "seeds": args.mc_seeds, "max_deviation": max(deviations)})
    _write_json(out_dir, "variance_mc.json", results)


def cmd_sandwich(args, checks: Checks, out_dir: str):
    eta, gamma, steps = args.eta, args.gamma, args.steps
    _need_steps(steps, 50, "the envelope fit over steps 10-50")
    prob = _sandwich_problem(args.seed)
    bounds = convexity_bounds(prob)
    lam1, lam2 = oracles.lambda_pair(eta, gamma, bounds)
    sched_eta = make_schedule(eta)
    sched_gamma = make_schedule(gamma)
    plain = sgd_run(prob, Regularizer.none(), sched_eta, steps)
    reg1 = sgd_run(prob, Regularizer.l2(lam1), sched_gamma, steps)
    reg2 = sgd_run(prob, Regularizer.l2(lam2), sched_gamma, steps)
    scheme = weights_sgd_adaptive(eta, (eta - gamma) / (eta * gamma), steps)
    avg = averaged_path(plain, scheme)
    bseq = oracles.bounding_sequences(prob, bounds, eta, gamma, lam1, lam2, steps)
    slack = oracles.sandwich_check(avg, reg1, reg2, bseq, scheme)
    checks.add("sandwich/entrywise-slack", slack, -1e-8,
               {"alpha": bounds.alpha, "beta": bounds.beta,
                "eta": eta, "gamma": gamma, "lam1": lam1, "lam2": lam2},
               direction=">=")
    rate = max(1.0 - gamma * (bounds.alpha + lam1),
               1.0 - gamma * (bounds.alpha + lam2), gamma / eta)
    dist = np.linalg.norm(avg - bseq.center[None, :], axis=1)
    excess = dist - np.linalg.norm(bseq.halfgap)
    fit_window = excess[10:51]
    powers = rate ** np.arange(10, 51, dtype=np.float64)
    envelope = float(np.max(fit_window / powers))
    later = excess[51:]
    later_powers = rate ** np.arange(51, excess.size, dtype=np.float64)
    worst = float(np.max(later - envelope * later_powers)) if later.size else 0.0
    checks.add("sandwich/envelope", worst, 1e-12,
               {"rate": rate, "envelope_constant": envelope})
    _write_json(out_dir, "sandwich.json", {"lam1": lam1, "lam2": lam2, "slack": slack,
                                           "rate": rate, "envelope_constant": envelope})


def _sandwich_problem(seed: int) -> LogisticProblem:
    """Small softmax-with-ridge fixture scaled so beta = 2 (with alpha = 1)."""
    rng = np.random.default_rng(seed)
    n, d, classes = 60, 5, 2
    x = rng.uniform(0.0, 1.0, size=(n, d))
    labels = (x @ rng.uniform(0.5, 1.0, size=d) + 0.3 * rng.standard_normal(n)
              > np.median(x @ np.ones(d))).astype(int)
    sigma = x.T @ x / n
    x *= np.sqrt(2.0 / np.linalg.eigvalsh(sigma).max())
    return LogisticProblem(X=x, Y=one_hot(labels, classes), base_ridge=1.0)


def cmd_l1_hull(args, checks: Checks, out_dir: str):
    prob = toy_problem()
    sched = make_schedule(args.eta)
    plain = sgd_run(prob, Regularizer.none(), sched, args.steps)
    points = plain.iterates
    outside, inside_l2 = [], []
    for lam in args.lams:
        l1_sol = oracles.l1_prox_solution(prob, lam, tol=1e-12)
        ridge = oracles.ridge_solution(prob, Regularizer.l2(lam))
        outside.append(not oracles.hull_contains(points, l1_sol))
        inside_l2.append(oracles.hull_contains(points, ridge))
    checks.add("l1-hull/some-l1-outside", float(sum(outside)), 1.0,
               {"lams": args.lams}, direction=">=")
    checks.add("l1-hull/all-l2-inside", float(sum(inside_l2)), float(len(args.lams)),
               {"lams": args.lams}, direction=">=")
    _write_json(out_dir, "l1_hull.json", {"lams": list(args.lams), "l1_outside": outside,
                                          "l2_inside": inside_l2})


def cmd_sweep(args, checks: Checks, out_dir: str):
    steps, name, alpha = args.steps, "gd", None
    prob = toy_problem()
    t0 = time.perf_counter()
    if args.path:
        plain = load_path(args.path)
        if plain.schedule is None:
            raise ConfigError(f"{args.path}: stored path carries no schedule")
        if plain.problem_fingerprint != problem_fingerprint(prob):
            raise ConfigError(f"{args.path}: stored path is not of the demo problem")
        if float(plain.extras.get("lam", 0.0)) > 0:
            raise ConfigError(f"{args.path}: stored path has a penalty, lam > 0")
        # A pgd record lacks its Q; a noisy path meets the identity at K only in mean.
        name, alpha = plain.tag, plain.extras.get("alpha")
        if name not in ("gd", "ngd") or name == "ngd" and type(alpha) not in (int, float):
            raise ConfigError(f"{args.path}: sweep re-weights gd records and ngd records "
                              f"with a numeric alpha, not {name!r} (alpha {alpha!r})")
        steps, sched = len(plain) - 1, plain.schedule
    else:
        sched = make_schedule(args.eta)
        plain = sgd_run(prob, Regularizer.none(), sched, steps)
    optimize_s = time.perf_counter() - t0

    _, penalty, make_scheme = _optimizer(prob, name, alpha)
    points = []
    for lam in args.lams:
        t1 = time.perf_counter()
        scheme = make_scheme(sched, lam, steps)
        avg = averaged_path(plain, scheme)
        average_s = time.perf_counter() - t1
        # Mixing identity at step K, an equality: P_K wavg_K = what_K -
        # (1 - P_K) w_K, where what_K ends the penalized run from the oracle.
        reg = penalty(lam)
        what = oracles.expectation_path(prob, reg, sched.coupled(lam), steps,
                                        kind=name, alpha=alpha).iterates[-1]
        p_k, w_k, wavg_k = float(scheme.cumulative[steps]), plain.iterates[-1], avg[-1]
        residual = float(np.abs(p_k * wavg_k - (what - (1.0 - p_k) * w_k)).max())
        checks.add(f"sweep/mixing-identity-at-K/lam={lam}", residual, 1e-10,
                   {"lam": lam, "optimize_s": optimize_s, "average_s": average_s})
        # By the identity the certificate equals |wavg_K - what_K|, for free.
        ridge = oracles.ridge_solution(prob, reg)
        points.append({"lam": lam, "P_K": p_k, "residual": residual,
                       "certificate": (1.0 - p_k) * float(np.abs(w_k - wavg_k).max()),
                       "ridge_gap": float(np.abs(wavg_k - ridge).max()),
                       "average_s": average_s})
    _write_json(out_dir, "sweep.json", {"optimize_s": optimize_s, "points": points})


# ---------------------------------------------------------------------------
# Argument plumbing


def _parse_lams(text: str):
    try:
        vals = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        vals = []
    if not vals:
        raise argparse.ArgumentTypeError(f"expected a list of numbers, got {text!r}")
    return vals


def _count(text: str, most: int = 0) -> int:
    """An integer of at least 1, and at most ``most`` if that is set."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1 or (most and n > most):
        span = f"in [1, {most}]" if most else ">= 1"
        raise argparse.ArgumentTypeError(f"expected an integer {span}, got {text!r}")
    return n


class _Given(argparse.Action):
    """Store a flag's value and note that it was given (or set by --config)."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = namespace.given | {self.dest}


# Every flag a subcommand can take: key -> (option string, add_argument keywords).
# A command lists the keys it reads and sets its own defaults by dest.
_FLAGS = {
    "out": ("--out", dict(default="iterreg-out")),
    "seed": ("--seed", dict(type=int, default=0)),
    "steps": ("--steps", dict(type=_count, default=500)),
    "lam": ("--lambda", dict(dest="lam", type=float, default=0.1)),
    "lams": ("--lambda", dict(dest="lams", type=_parse_lams)),
    "eta": ("--eta", dict(type=float, default=0.1)),
    "alpha": ("--alpha", dict(type=float, default=0.05)),
    "batch": ("--batch", dict(type=_count, default=500)),
    "deterministic": ("--deterministic", dict(action="store_true")),
    "limit": ("--limit", dict(type=_count, default=2000)),
    "format": ("--format", dict(choices=("csv", "json"), default="csv")),
    "kernel_n": ("--kernel-n", dict(type=partial(_count, most=_KERNEL_MAX_N))),
    "lam_hats": ("--lam-hats", dict(type=_parse_lams, default=[0.5, 1.0, 2.0])),
    "images": ("--images", {}),
    "labels": ("--labels", {}),
    "optimizer": ("--optimizer", dict(choices=("gd", "pgd", "ngd"), default="gd")),
    "base_ridge": ("--base-ridge", dict(type=float, default=1.0)),
    "sigma": ("--sigma", dict(type=float, default=0.5)),
    "delta": ("--delta", dict(type=float, default=0.1)),
    "mc_seeds": ("--mc-seeds", dict(type=_count, default=200)),
    "gamma": ("--gamma", dict(type=float, default=0.25)),
    "path": ("--path", dict(help="stored path record (.npz)")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iterreg",
        description="Adjustable regularization from one stored optimization path.",
    )
    parser.add_argument("--config", help="JSON file with argument defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, text, flags, **defaults):
        """Subparser for one experiment, taking exactly the flags it reads."""
        p = sub.add_parser(name, help=text)
        for key in flags:
            option, kwargs = _FLAGS[key]
            p.add_argument(option, **{"action": _Given, **kwargs})
        p.set_defaults(given=frozenset(), **defaults)

    mnist = ("out", "seed", "steps", "lam", "eta", "alpha", "batch", "deterministic", "limit",
             "format", "images", "labels", "optimizer")
    command("demo2d", "2-D quadratic demo (identities, rates)",
            ("out", "steps", "lam", "eta", "alpha", "format"))
    command("kernel-demo", "kernel dual paths vs closed form",
            ("out", "seed", "steps", "format", "kernel_n", "lam_hats"), kernel_n=40)
    for name, extra in (("mnist-linear", ()), ("mnist-logistic", ("base_ridge",))):
        command(name, f"{name} experiment (IDX data or stand-in)", mnist + extra,
                eta=0.01, lam=4.0, alpha=1.0)
    command("variance-mc", "Chebyshev deviation bound, many seeds",
            ("out", "seed", "steps", "lam", "eta", "alpha", "sigma", "delta", "mc_seeds"))
    command("sandwich", "entry-wise bracket for a general loss",
            ("out", "seed", "steps", "eta", "gamma"), eta=0.4)
    command("l1-hull", "l1 solutions vs the descent-path hull",
            ("out", "steps", "lams", "eta"), lams=[0.01, 0.03, 0.1, 0.3, 1.0, 3.0])
    command("sweep", "many lambdas from one stored path",
            ("out", "steps", "lams", "eta", "path"), lams=[0.01, 0.1, 1.0, 10.0])
    return parser


# Flags a command does not read in a mode, one that all its mode flags set, a
# (key, value) flag to that value: command -> ((mode flags, unread flags), ...).
_MNIST_MODES = ((("deterministic",), ("batch",)),  # draws no batches
                (("deterministic", "images", "labels"), ("seed",)),  # nor a stand-in
                *(((("optimizer", name),), ("alpha",)) for name in ("gd", "pgd")))  # no momentum
_UNREAD_IN_MODE = {"sweep": ((("path",), ("steps", "eta")),),  # the stored path fixes both
                   "mnist-linear": _MNIST_MODES, "mnist-logistic": _MNIST_MODES}


def _check_mode_flags(args) -> None:
    for mode, unread in _UNREAD_IN_MODE.get(args.command, ()):
        flags = [(m, None) if isinstance(m, str) else m for m in mode]
        for key in unread:
            if key in args.given and all(getattr(args, m) == v if v else getattr(args, m)
                                         for m, v in flags):
                mode_flags = " ".join(f"{_FLAGS[m][0]} {v}" if v else _FLAGS[m][0]
                                      for m, v in flags)
                raise ConfigError(f"{args.command} {mode_flags} does not read {_FLAGS[key][0]}")


_COMMANDS = {
    "demo2d": cmd_demo2d,
    "kernel-demo": cmd_kernel_demo,
    "mnist-linear": cmd_mnist_linear,
    "mnist-logistic": cmd_mnist_logistic,
    "variance-mc": cmd_variance_mc,
    "sandwich": cmd_sandwich,
    "l1-hull": cmd_l1_hull,
    "sweep": cmd_sweep,
}


def _apply_config_file(argv):
    """Pull --config out of argv and fold its values in as defaults."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    try:
        cfg_path = argv[idx + 1]
    except IndexError:
        raise ConfigError("--config needs a file argument")
    try:
        with open(cfg_path, "r", encoding="ascii") as fh:
            payload = json.load(fh)
    except ValueError as exc:  # not JSON, or not ASCII (UnicodeDecodeError)
        raise ConfigError(f"{cfg_path}: not an ASCII JSON config ({exc})") from exc
    settings = payload.get("args", {}) if isinstance(payload, dict) else None
    if not isinstance(settings, dict) or payload.get("version") != 1:
        raise ConfigError(f'{cfg_path}: expected {{"version": 1, "args": {{...}}}}')
    rest = argv[:idx] + argv[idx + 2:]
    extra = []
    for key, value in settings.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                extra.append(flag)
        elif isinstance(value, list):
            extra.extend([flag, ",".join(str(v) for v in value)])
        else:
            extra.extend([flag, str(value)])
    # Right after the subcommand, so that its explicit flags, parsed later, win.
    return rest[:1] + extra + rest[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    created = None  # the output directory, if this run made it
    try:
        args = parser.parse_args(_apply_config_file(argv))
        _check_mode_flags(args)
        if not os.path.isdir(args.out):
            os.makedirs(args.out)
            created = args.out
        checks = Checks()
        _COMMANDS[args.command](args, checks, args.out)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except ValueError as exc:  # ConfigError included
        code, message = 2, f"config error: {exc}"
    except OSError as exc:  # names the file: --config, --path, --images, ...
        code, message = 2, f"file error: {exc}"
    except RuntimeError as exc:  # DivergenceError included
        kind = "diverged" if isinstance(exc, DivergenceError) else "numerical failure"
        code, message = 3, f"{kind}: {exc}"
    else:
        checks.dump(args.out)
        return 0 if checks.all_pass else 1
    print(message, file=sys.stderr)
    if created is not None:  # a failed run leaves no directory of its own behind
        shutil.rmtree(created)
    return code


if __name__ == "__main__":
    sys.exit(main())
