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
    verify-identity exact mixing identity for GD / PGD / NGD / kernel GD
    kernel-demo     dual kernel paths vs (K + lam_hat I)^{-1} y
    mnist-linear    least squares on IDX data (or a seeded stand-in)
    mnist-logistic  softmax-with-ridge variant of the same
    variance-mc     Chebyshev deviation bound under injected noise
    sandwich        entry-wise bracket for a general strongly convex loss
    l1-hull         l1 solutions escape the hull of the descent path
    sweep           one stored path re-averaged across a lambda grid
    avg-geometric   geometric checkpoint averaging over stored paths
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import time
from functools import partial

import numpy as np

from . import data_io, oracles
from .averaging import (
    averaged_path,
    scheme_to_csv,
    weights_general,
    weights_geometric,
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
        if direction == "<=":
            ok = bool(residual <= threshold)
        elif direction == ">=":
            ok = bool(residual >= threshold)
        else:
            raise ValueError(direction)
        self.entries.append({
            "check": name,
            "params": params or {},
            "residual": float(residual),
            "threshold": float(threshold),
            "pass": ok,
        })
        return ok

    @property
    def all_pass(self) -> bool:
        return all(e["pass"] for e in self.entries)

    def dump(self, out_dir: str) -> None:
        _write_json(out_dir, "checks.json", {"pass": self.all_pass, "checks": self.entries})
        for e in self.entries:
            status = "PASS" if e["pass"] else "FAIL"
            print(f"[{status}] {e['check']}: residual={e['residual']:.6g} "
                  f"threshold={e['threshold']:.6g}")


def _fit_slope(values: np.ndarray, start: int, floor: float = 0.0) -> float:
    """Least-squares slope of log10(values) against the iteration index.

    With a positive ``floor`` the fit stops where the values sink below
    it (the float round-off plateau would otherwise flatten the slope);
    if fewer than 20 live points remain the decay already outran any
    measurable geometric rate and -inf is returned.
    """
    live = np.nonzero(values > floor)[0] if floor > 0 else np.arange(values.size)
    end = int(live.max()) + 1 if live.size else 0
    if end - start < 20:
        return float("-inf")
    ks = np.arange(start, end)
    logs = np.log10(np.maximum(values[start:end], 1e-300))
    return float(np.polyfit(ks, logs, 1)[0])


# ---------------------------------------------------------------------------
# Subcommands


def _single(values, flag: str) -> float:
    """The value of a list flag that a single-lambda command reads."""
    if len(values) != 1:
        raise ConfigError(f"{flag} takes one value for this command, got {len(values)}")
    return values[0]


def cmd_demo2d(args, checks: Checks, out_dir: str):
    eta, lam, alpha, steps = args.eta, _single(args.lams, "--lambda"), args.alpha, args.steps
    prob = toy_problem()
    bounds = convexity_bounds(prob)
    sched = make_schedule(eta, lam, bounds)
    gamma = sched.gamma(0)
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
        # Fit over the late half of the run: early iterations carry a
        # transient from ||w_k - wavg_k|| still growing toward its limit.
        slope = _fit_slope(err, max(50, steps // 2), floor=1e-13)
        checks.add(f"demo2d/decay-slope/{name}", slope, np.log10(rate) + 1e-3,
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


def cmd_verify_identity(args, checks: Checks, out_dir: str):
    lam_hat = _single(args.lam_hats, "--lam-hats")
    cmd_demo2d(args, checks, out_dir)
    # Kernel identity on a seeded well-conditioned Gram matrix.
    kernel = _random_kernel(args.kernel_n, args.seed)
    eta = 0.2
    sched = make_schedule(eta)
    plain = kernel_gd_run(kernel, sched, args.steps, lam=0.0)
    reg = kernel_gd_run(kernel, sched, args.steps, lam=0.0, lam_hat=lam_hat)
    scheme = weights_kernel(kernel, sched, 0.0, lam_hat, args.steps)
    residual = oracles.identity_check(plain, reg, scheme)
    checks.add("verify-identity/kernel", residual, 1e-9,
               {"n": kernel.n, "lam_hat": lam_hat, "eta": eta})


def _random_kernel(n: int, seed: int, mu_min: float = 0.5, mu_max: float = 2.0):
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    mu = rng.uniform(mu_min, mu_max, size=n)
    gram = basis @ np.diag(mu) @ basis.T
    gram = 0.5 * (gram + gram.T)
    y = rng.standard_normal(n)
    return KernelProblem(K=gram, y=y)


_KERNEL_DEMO_MAX_N = 1000


def cmd_kernel_demo(args, checks: Checks, out_dir: str):
    if args.kernel_n > _KERNEL_DEMO_MAX_N:
        raise ConfigError(f"kernel demo is desk-scale: n must be <= {_KERNEL_DEMO_MAX_N}")
    kernel = _random_kernel(args.kernel_n, args.seed)
    eta = 0.2
    mu = kernel.eigenvalues
    # Plain GD needs eta mu^2 <= 1.  The regularized run's per-eigenvalue
    # factor (eta mu^2 + lam_hat eta mu) / (1 + lam_hat eta mu) is then at
    # most 1 for every lam_hat > 0, and lam_hat <= 0 is rejected below.
    stability = 1.0 / mu.max() ** 2
    if eta > stability:
        raise ConfigError(f"eta {eta} exceeds the kernel stability bound {stability:.4g}")
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
        checks.add(f"kernel/limit/lam_hat={lam_hat}",
                   np.abs(avg[-1] - target).max(), 1e-6)
        err = np.linalg.norm(avg - reg.iterates, axis=1)
        slope = _fit_slope(err, max(50, args.steps // 2), floor=1e-12)
        rate = 1.0 / (1.0 + lam_hat * eta * mu.min())
        checks.add(f"kernel/decay-slope/lam_hat={lam_hat}", slope,
                   np.log10(rate) + 1e-3, {"rate": rate})
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


def _run_pair(prob, optimizer, sched, lam, steps, alpha, batch=None, seed=None,
              deterministic=True, reg_sched=None, q=None, scheme=None):
    """Plain and lambda-regularized runs of one optimizer, and their scheme.

    By default the regularized run takes the coupled rates of ``sched``,
    PGD preconditions with the quadratic's Sigma, and the scheme follows
    from the optimizer; a general loss passes its own regularized
    schedule, preconditioner and scheme.
    """
    reg_sched = sched if reg_sched is None else reg_sched
    kwargs = dict(batch_size=None if deterministic else batch, seed=seed,
                  deterministic=deterministic)
    if optimizer == "gd":
        plain = sgd_run(prob, Regularizer.none(), sched, steps, **kwargs)
        regp = sgd_run(prob, Regularizer.l2(lam), reg_sched, steps, **kwargs)
    elif optimizer == "pgd":
        q = prob.sigma if q is None else q
        plain = psgd_run(prob, Regularizer.none(), sched, steps, Q=q, **kwargs)
        regp = psgd_run(prob, Regularizer.generalized_l2(lam, q), reg_sched, steps,
                        Q=q, **kwargs)
    elif optimizer == "ngd":
        plain = nsgd_run(prob, Regularizer.none(), sched, steps, alpha=alpha, **kwargs)
        regp = nsgd_run(prob, Regularizer.l2(lam), reg_sched, steps, alpha=alpha, **kwargs)
    else:
        raise ConfigError(f"unknown optimizer {optimizer!r}")
    if scheme is None:
        scheme = weights_nsgd(sched.eta(0), lam, alpha, steps) if optimizer == "ngd" \
            else weights_sgd_adaptive(sched, lam, steps)
    return plain, regp, scheme


def cmd_mnist_linear(args, checks: Checks, out_dir: str):
    eta, lam, steps = args.eta, _single(args.lams, "--lambda"), args.steps
    data = _mnist_dataset(args)
    prob = QuadraticProblem.from_data(data.X, data.Y)
    sched = make_schedule(eta, lam)
    t0 = time.perf_counter()

    plain, reg, scheme = _run_pair(prob, args.optimizer, sched, lam, steps, args.alpha,
                                   seed=args.seed)
    _, err_avg = _write_report(
        args, out_dir, "mnist_linear_det", "mnist-linear-deterministic", plain, reg,
        averaged_path(plain, scheme), scheme,
        {"eta": eta, "lam": lam, "steps": steps, "n": data.n,
         "optimizer": args.optimizer, "provenance": data.provenance}, t0)
    checks.add("mnist-linear/deterministic-monotone-after-10",
               float(np.max(np.diff(err_avg[10:]))), 0.0, {"optimizer": args.optimizer})
    ridge_norm = np.abs(reg.iterates[-1]).sum()
    checks.add("mnist-linear/deterministic-final-error",
               float(err_avg[-1]), 1e-4 * ridge_norm,
               {"ridge_l1_norm": float(ridge_norm)})

    if not args.deterministic:
        t0 = time.perf_counter()
        plain, reg, scheme = _run_pair(prob, args.optimizer, sched, lam, steps, args.alpha,
                                       batch=args.batch, seed=args.seed, deterministic=False)
        err_plain, err_avg = _write_report(
            args, out_dir, "mnist_linear_stoch", "mnist-linear-stochastic", plain, reg,
            averaged_path(plain, scheme), scheme,
            {"eta": eta, "lam": lam, "steps": steps, "batch": args.batch,
             "seed": args.seed, "optimizer": args.optimizer}, t0)
        checks.add("mnist-linear/stochastic-avg-below-plain",
                   float(err_avg[-1] - err_plain[-1]), 0.0,
                   {"batch": args.batch, "seed": args.seed})


def cmd_mnist_logistic(args, checks: Checks, out_dir: str):
    eta, lam, steps = args.eta, _single(args.lams, "--lambda"), args.steps
    data = _mnist_dataset(args)
    prob = LogisticProblem(X=data.X, Y=data.Y, base_ridge=args.base_ridge)
    gamma = 1.0 / (lam + 1.0 / eta)
    sched_eta = make_schedule(eta)
    sched_gamma = make_schedule(gamma)
    q = None
    if args.optimizer == "pgd":
        # Feature second moment plus the loss's own ridge as preconditioner,
        # so the Hessian (at most Sigma/2 + base_ridge I) stays below Q; the
        # 1e-8 floor keeps Q factorizable at --base-ridge 0.
        q = prob.X.T @ prob.X / prob.n_samples
        q = q + (args.base_ridge + 1e-8) * np.eye(q.shape[0])
    for deterministic in (True, False) if not args.deterministic else (True,):
        t0 = time.perf_counter()
        plain, regp, scheme = _run_pair(
            prob, args.optimizer, sched_eta, lam, steps, args.alpha, batch=args.batch,
            seed=args.seed, deterministic=deterministic, reg_sched=sched_gamma, q=q,
            scheme=weights_general(eta, gamma, steps))
        mode = "deterministic" if deterministic else "stochastic"
        err_plain, err_avg = _write_report(
            args, out_dir, f"mnist_logistic_{mode}", f"mnist-logistic-{mode}", plain, regp,
            averaged_path(plain, scheme), scheme,
            {"eta": eta, "lam": lam, "gamma": gamma, "steps": steps,
             "base_ridge": args.base_ridge, "optimizer": args.optimizer}, t0)
        checks.add(f"mnist-logistic/{mode}-avg-below-plain",
                   float(err_avg[-1] - err_plain[-1]), 0.0,
                   {"optimizer": args.optimizer})


def cmd_variance_mc(args, checks: Checks, out_dir: str):
    prob = toy_problem()
    bounds = convexity_bounds(prob)
    eta, lam, steps = args.eta, _single(args.lams, "--lambda"), args.steps
    sigma, delta = args.sigma, args.delta
    sched = make_schedule(eta, lam, bounds)
    gamma = sched.gamma(0)
    mu = np.linalg.eigvalsh(prob.sigma)
    results = {}
    for kind in ("sgd", "psgd", "nsgd"):
        if kind == "sgd":
            eps = oracles.variance_epsilon("sgd", sigma, delta, gamma, lam,
                                           bounds.alpha, bounds.beta)
            mean_rec = oracles.expectation_path(prob, Regularizer.none(), sched, steps)
            scheme = weights_sgd_adaptive(sched, lam, steps)
            run = partial(sgd_run, prob, Regularizer.none(), sched, steps)
        elif kind == "psgd":
            q_norm = float(np.abs(mu).max())
            eps = oracles.variance_epsilon("psgd", sigma, delta, gamma, lam,
                                           bounds.alpha, bounds.beta, q_norm=q_norm)
            # lambda = 0 adds no penalty; the generalized penalty carries Q = Sigma.
            mean_rec = oracles.expectation_path(
                prob, Regularizer.generalized_l2(0.0, prob.sigma), sched, steps, kind="pgd")
            scheme = weights_sgd_adaptive(sched, lam, steps)
            run = partial(psgd_run, prob, Regularizer.none(), sched, steps, Q=prob.sigma)
        else:
            eps = oracles.variance_epsilon("nsgd", sigma, delta, gamma, lam,
                                           args.alpha, bounds.beta, eta=eta,
                                           lam_min=float(mu.min()))
            mean_rec = oracles.expectation_path(prob, Regularizer.none(), sched,
                                                steps, kind="ngd", alpha=args.alpha)
            scheme = weights_nsgd(eta, lam, args.alpha, steps)
            run = partial(nsgd_run, prob, Regularizer.none(), sched, steps, alpha=args.alpha)
        p_last = scheme.cumulative[steps]
        target = averaged_path(mean_rec, scheme)[-1]
        deviations = []
        for seed in range(args.seed, args.seed + args.mc_seeds):
            final = averaged_path(run(seed=seed, noise_sigma=sigma), scheme)[-1]
            deviations.append(float(np.linalg.norm(p_last * final - p_last * target)))
        freq = float(np.mean(np.asarray(deviations) > eps.epsilon))
        results[kind] = {"epsilon": eps.epsilon, "frequency": freq,
                         "max_deviation": max(deviations)}
        checks.add(f"variance-mc/{kind}", freq, delta + 0.05,
                   {"epsilon": eps.epsilon, "sigma": sigma, "delta": delta,
                    "seeds": args.mc_seeds, "max_deviation": max(deviations)})
    _write_json(out_dir, "variance_mc.json", results)


def cmd_sandwich(args, checks: Checks, out_dir: str):
    prob = _sandwich_problem(args.seed)
    bounds = convexity_bounds(prob)
    eta, gamma, steps = args.eta, args.gamma, args.steps
    lam1, lam2 = oracles.lambda_pair(eta, gamma, bounds)
    sched_eta = make_schedule(eta)
    sched_gamma = make_schedule(gamma)
    plain = sgd_run(prob, Regularizer.none(), sched_eta, steps)
    reg1 = sgd_run(prob, Regularizer.l2(lam1), sched_gamma, steps)
    reg2 = sgd_run(prob, Regularizer.l2(lam2), sched_gamma, steps)
    scheme = weights_general(eta, gamma, steps)
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
        ridge = oracles.ridge_solution(prob, Regularizer.l2(lam)).w_hat
        outside.append(not oracles.hull_contains(points, l1_sol))
        inside_l2.append(oracles.hull_contains(points, ridge))
    checks.add("l1-hull/some-l1-outside", float(sum(outside)), 1.0,
               {"lams": args.lams}, direction=">=")
    checks.add("l1-hull/all-l2-inside", float(sum(inside_l2)), float(len(args.lams)),
               {"lams": args.lams}, direction=">=")
    _write_json(out_dir, "l1_hull.json", {"lams": list(args.lams), "l1_outside": outside,
                                          "l2_inside": inside_l2})


def cmd_sweep(args, checks: Checks, out_dir: str):
    steps = args.steps
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
        steps = len(plain) - 1
        sched = plain.schedule
    else:
        sched = make_schedule(args.eta)
        plain = sgd_run(prob, Regularizer.none(), sched, steps)
    optimize_s = time.perf_counter() - t0

    etas = sched.etas_upto(steps + 1)
    points = []
    for lam in args.lams:
        t1 = time.perf_counter()
        scheme = weights_sgd_adaptive(etas, lam, steps)
        avg = averaged_path(plain, scheme)
        average_s = time.perf_counter() - t1
        # Mixing identity at step K, an equality: P_K wavg_K = what_K -
        # (1 - P_K) w_K, where what_K ends the penalized run from the oracle.
        reg = Regularizer.l2(lam)
        what = oracles.expectation_path(prob, reg, make_schedule(etas, lam), steps).iterates[-1]
        p_k, w_k, wavg_k = float(scheme.cumulative[steps]), plain.iterates[-1], avg[-1]
        residual = float(np.abs(p_k * wavg_k - (what - (1.0 - p_k) * w_k)).max())
        checks.add(f"sweep/mixing-identity-at-K/lam={lam}", residual, 1e-10,
                   {"lam": lam, "optimize_s": optimize_s, "average_s": average_s})
        # By the identity the certificate equals |wavg_K - what_K|, for free.
        ridge = oracles.ridge_solution(prob, reg).w_hat
        points.append({"lam": lam, "P_K": p_k, "residual": residual,
                       "certificate": (1.0 - p_k) * float(np.abs(w_k - wavg_k).max()),
                       "ridge_gap": float(np.abs(wavg_k - ridge).max()),
                       "average_s": average_s})
    _write_json(out_dir, "sweep.json", {"optimize_s": optimize_s, "points": points})


def cmd_avg_geometric(args, checks: Checks, out_dir: str):
    if not args.checkpoints:
        raise ConfigError("avg-geometric needs --checkpoints <dir>")
    files = sorted(glob.glob(os.path.join(args.checkpoints, "*.npz")))
    if not files:
        raise ConfigError(f"no *.npz path records under {args.checkpoints}")
    stack = np.array([load_path(f).final for f in files])
    scheme = weights_geometric(args.p_success, stack.shape[0] - 1)
    checks.add("avg-geometric/weights-normalized",
               abs(float(scheme.cumulative[-1]) - 1.0), 1e-12,
               {"p": args.p_success, "checkpoints": len(files)})
    average = averaged_path(stack, scheme)[-1]
    _write_json(out_dir, "avg_geometric.json", {"p_success": args.p_success,
                                                "checkpoints": files,
                                                "average": [float(v) for v in average]})


# ---------------------------------------------------------------------------
# Argument plumbing


def _parse_lams(text: str):
    try:
        vals = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"bad --lambda list: {text!r}") from exc
    if not vals:
        raise ConfigError("--lambda list is empty")
    return vals


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iterreg",
        description="Adjustable regularization from one stored optimization path.",
    )
    parser.add_argument("--config", help="JSON file with argument defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, text):
        """Subparser for one experiment, with the flags every experiment takes."""
        p = sub.add_parser(name, help=text)
        p.add_argument("--out", default="iterreg-out")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--steps", type=int, default=500)
        p.add_argument("--lambda", dest="lams", type=_parse_lams, default=[0.1])
        p.add_argument("--eta", type=float, default=0.1)
        p.add_argument("--alpha", type=float, default=0.05)
        p.add_argument("--batch", type=int, default=500)
        p.add_argument("--deterministic", action="store_true")
        p.add_argument("--limit", type=int, default=2000)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        return p

    command("demo2d", "2-D quadratic demo (identities, rates)")

    p = command("verify-identity", "exact identity for all optimizers")
    p.add_argument("--kernel-n", type=int, default=20)
    p.add_argument("--lam-hats", type=_parse_lams, default=[1.0])

    p = command("kernel-demo", "kernel dual paths vs closed form")
    p.add_argument("--kernel-n", type=int, default=40)
    p.add_argument("--lam-hats", type=_parse_lams, default=[0.5, 1.0, 2.0])

    for name in ("mnist-linear", "mnist-logistic"):
        p = command(name, f"{name} experiment (IDX data or stand-in)")
        p.add_argument("--images")
        p.add_argument("--labels")
        p.add_argument("--optimizer", choices=("gd", "pgd", "ngd"), default="gd")
        p.set_defaults(eta=0.01, lams=[4.0], alpha=1.0)
        if name == "mnist-logistic":
            p.add_argument("--base-ridge", type=float, default=1.0)

    p = command("variance-mc", "Chebyshev deviation bound, many seeds")
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--mc-seeds", type=int, default=200)

    p = command("sandwich", "entry-wise bracket for a general loss")
    p.set_defaults(eta=0.4)
    p.add_argument("--gamma", type=float, default=0.25)

    p = command("l1-hull", "l1 solutions vs the descent-path hull")
    p.set_defaults(lams=[0.01, 0.03, 0.1, 0.3, 1.0, 3.0])

    p = command("sweep", "many lambdas from one stored path")
    p.set_defaults(lams=[0.01, 0.1, 1.0, 10.0])
    p.add_argument("--path", help="stored path record (.npz)")

    p = command("avg-geometric", "geometric checkpoint averaging")
    p.add_argument("--checkpoints", help="directory of stored path records")
    p.add_argument("--p-success", type=float, default=0.99)
    return parser


_COMMANDS = {
    "demo2d": cmd_demo2d,
    "verify-identity": cmd_verify_identity,
    "kernel-demo": cmd_kernel_demo,
    "mnist-linear": cmd_mnist_linear,
    "mnist-logistic": cmd_mnist_logistic,
    "variance-mc": cmd_variance_mc,
    "sandwich": cmd_sandwich,
    "l1-hull": cmd_l1_hull,
    "sweep": cmd_sweep,
    "avg-geometric": cmd_avg_geometric,
}


def _apply_config_file(parser, argv):
    """Pull --config out of argv and fold its values in as defaults."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    try:
        cfg_path = argv[idx + 1]
    except IndexError:
        raise ConfigError("--config needs a file argument")
    with open(cfg_path, "r", encoding="ascii") as fh:
        payload = json.load(fh)
    if payload.get("version") != 1:
        raise ConfigError(f"unsupported config version {payload.get('version')!r}")
    rest = argv[:idx] + argv[idx + 2:]
    extra = []
    for key, value in payload.get("args", {}).items():
        flag = "--" + key.replace("_", "-")
        if flag in rest:
            continue  # explicit flags win
        if isinstance(value, bool):
            if value:
                extra.append(flag)
        elif isinstance(value, list):
            extra.extend([flag, ",".join(str(v) for v in value)])
        else:
            extra.extend([flag, str(value)])
    return rest + extra


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_apply_config_file(parser, argv))
        os.makedirs(args.out, exist_ok=True)
        checks = Checks()
        _COMMANDS[args.command](args, checks, args.out)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except ValueError as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # names the file: --config, --path, --images, ...
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # DivergenceError included
        kind = "diverged" if isinstance(exc, DivergenceError) else "numerical failure"
        print(f"{kind}: {exc}", file=sys.stderr)
        return 3
    checks.dump(args.out)
    return 0 if checks.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
