"""Acceptance gates: every headline claim, checked end to end.

Each test prints one PASS/FAIL line so the suite doubles as a report:

    pytest tests/test_acceptance.py -s

Gates 1-9 cover the exact mixing identity, its decay rate, the limit
oracle, adaptive rates, the Chebyshev deviation bound, the entry-wise
sandwich for general strongly convex losses, the desk-scale regression
experiment, the l1 hull demonstration, and the property suites.

Gate 2's final-gap clauses and the mixing identity: for GD and PGD the
identity fixes the final averaged-vs-regularized gap exactly,

    wavg_K - what_K = -(1 - P_K) * (w_K - wavg_K),

with tail factor 1 - P_K = (1 - lambda*gamma)^(K+1) and lambda*gamma =
0.0099 at the 2-D demo's eta = lambda = 0.1.  At K = 500 that factor is
6.8e-3 and ||w_K - wavg_K||_inf is 0.57 (GD) / 0.09 (PGD), so the gap is
3.9e-3 / 6.3e-4 whatever the implementation.  Gate 2d checks the
realized gap against that prediction at 500 steps; gate 2c checks the
1e-6 gap at HORIZON = 1500 steps, where the factor has fallen to 3.3e-7.
The accelerated run's scheme tail decays like 0.945^k, so gate 2b
reaches 3e-13 within the 500 steps.
"""

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from iterreg.averaging import (
    WeightScheme,
    averaged_path,
    weights_kernel,
    weights_nsgd,
    weights_sgd_adaptive,
)
from iterreg.cli import _random_kernel, _sandwich_problem
from iterreg.data_io import (
    Dataset,
    load_idx,
    one_hot,
    synthetic_mnist,
    write_idx_images,
    write_idx_labels,
)
from iterreg.optimizers import make_schedule, nsgd_run, psgd_run, sgd_run
from iterreg.oracles import (
    bounding_sequences,
    expectation_path,
    hull_contains,
    identity_check,
    kernel_solution,
    l1_prox_solution,
    lambda_pair,
    nsgd_expectation_increment,
    ridge_solution,
    sandwich_check,
    variance_epsilon,
)
from iterreg.problems import (
    QuadraticProblem,
    Regularizer,
    convexity_bounds,
    toy_problem,
)

ETA, LAM, ALPHA, STEPS = 0.1, 0.1, 0.05, 500
HORIZON = 1500  # steps for gate 2c; the tail factor is below 1e-6 from 1388


class Budget:
    """Context manager asserting a wall-clock budget for one gate."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.seconds, (
                f"runtime {self.elapsed:.2f}s exceeded budget {self.seconds}s")
        return False


def gate(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {number}] {name}: {status} ({detail})")
    assert ok, f"acceptance gate {number} ({name}): {detail}"


def demo_runs(steps=STEPS, ngd=True):
    """The coupled run pairs on the 2-D demo problem: GD, PGD and, unless
    ngd is False, the accelerated run."""
    prob = toy_problem()
    sched = make_schedule(ETA, bounds=convexity_bounds(prob))
    out = {}
    out["gd"] = (
        sgd_run(prob, Regularizer.none(), sched, steps),
        sgd_run(prob, Regularizer.l2(LAM), sched.coupled(LAM), steps),
        weights_sgd_adaptive(sched, LAM, steps),
    )
    out["pgd"] = (
        psgd_run(prob, Regularizer(0.0, prob.sigma), sched, steps),
        psgd_run(prob, Regularizer.generalized_l2(LAM, prob.sigma), sched.coupled(LAM), steps),
        weights_sgd_adaptive(sched, LAM, steps),
    )
    if ngd:
        out["ngd"] = (
            nsgd_run(prob, Regularizer.none(), sched, steps, alpha=ALPHA),
            nsgd_run(prob, Regularizer.l2(LAM), sched.coupled(LAM), steps, alpha=ALPHA),
            weights_nsgd(ETA, LAM, ALPHA, steps),
        )
    return prob, sched, out


def test_criterion_1_exact_identity():
    """Gate 1: max_k || P_k wavg_k - (what_k - (1-P_k) w_k) ||_inf <= 1e-10
    for GD, PGD (Q = Sigma) and NGD (alpha = 0.05) on the 2-D demo
    (eta = 0.1, lambda = 0.1, 500 deterministic steps)."""
    with Budget(1.0) as budget:
        _, _, runs = demo_runs()
        residuals = {name: identity_check(p, r, s) for name, (p, r, s) in runs.items()}
    worst = max(residuals.values())
    gate(1, "exact-identity", worst <= 1e-10,
         f"max residual {worst:.3e}, runtime {budget.elapsed:.2f}s")


def test_criterion_2_decay_rate_slopes():
    """Gate 2a: regressing log10 || wavg_k - what_k || on k over k in
    [50, 500] gives slope <= log10(1 - lambda*gamma) + 1e-3 for GD/PGD and
    <= log10(C) + 1e-3 for NGD, C = (1 - sqrt(gamma(alpha+lambda))) /
    (1 - sqrt(eta*alpha)).  Slopes are in decades per iteration; the
    1e-3 allowance absorbs the finite-window transient of
    ||w_k - wavg_k||, which is still growing toward its limit early on."""
    with Budget(1.0) as budget:
        _, sched, runs = demo_runs()
        gamma = sched.coupled(LAM).eta(0)
        ks = np.arange(50, STEPS + 1)
        results = {}
        for name, (p, r, s) in runs.items():
            err = np.linalg.norm(averaged_path(p, s) - r.iterates, axis=1)
            slope = float(np.polyfit(ks, np.log10(err[50:]), 1)[0])
            rate = s.params["decay"] if name == "ngd" else 1.0 - LAM * gamma
            results[name] = (slope, np.log10(rate) + 1e-3)
    ok = all(slope <= bound for slope, bound in results.values())
    detail = ", ".join(f"{n}: {s:.5f} vs {b:.5f}" for n, (s, b) in results.items())
    gate(2, "decay-rate-slopes", ok, detail + f", runtime {budget.elapsed:.2f}s")


def test_criterion_2_final_error_ngd():
    """Gate 2b: the accelerated run's final averaged-vs-regularized gap is
    below 1e-6 (its scheme tail C^499 with C = 0.945 is ~5e-13)."""
    with Budget(1.0):
        _, _, runs = demo_runs()
        p, r, s = runs["ngd"]
        err = float(np.abs(averaged_path(p, s)[-1] - r.iterates[-1]).max())
    gate(2, "final-error-ngd", err <= 1e-6, f"gap {err:.3e}")


def test_criterion_2_final_error_gd_pgd():
    """Gate 2c: the averaged GD and PGD paths come within 1e-6 (inf norm)
    of the penalized paths at eta = lambda = 0.1, after HORIZON = 1500
    steps.

    The horizon comes from the mixing identity, which pins the final gap
    at (1 - P_K) * ||w_K - wavg_K||_inf with 1 - P_K =
    (1 - lambda*gamma)^(K+1), lambda*gamma = 0.0099:

        K = 500:  1 - P_K = 0.9901^501  = 6.8e-3, gaps 3.9e-3 (GD), 6.3e-4 (PGD)
        K = 1500: 1 - P_K = 0.9901^1501 = 3.3e-7, gaps 1.9e-7 (GD), 3.0e-8 (PGD)

    ||w_K - wavg_K||_inf stays near 0.57 (GD) and 0.09 (PGD), so no
    implementation can reach 1e-6 at 500 steps (gate 2d pins that floor);
    the GD gap drops below 1e-6 near K = 1330 and the tail factor itself
    at K = 1388.
    """
    with Budget(1.0) as budget:
        _, _, runs = demo_runs(HORIZON, ngd=False)
        gaps = {}
        for name, (p, r, s) in runs.items():
            gaps[name] = float(np.abs(averaged_path(p, s)[-1] - r.iterates[-1]).max())
        tail = 1.0 - runs["gd"][2].cumulative[HORIZON]
    ok = all(g <= 1e-6 for g in gaps.values())
    gate(2, "final-error-gd-pgd", ok,
         f"K = {HORIZON}, tail 1 - P_K = {tail:.2e}, "
         + ", ".join(f"{n}: gap {g:.3e} vs 1e-6" for n, g in gaps.items())
         + f", runtime {budget.elapsed:.2f}s")


def test_criterion_2_final_gap_matches_identity_prediction():
    """Gate 2d: the realized final gap equals the identity's exact
    prediction (1 - P_K) * ||w_K - wavg_K||_inf to 1e-12 for all three
    optimizers, confirming the gap floor is theory, not implementation."""
    with Budget(1.0):
        _, _, runs = demo_runs()
        worst = 0.0
        for name, (p, r, s) in runs.items():
            avg = averaged_path(p, s)
            realized = np.abs(avg[-1] - r.iterates[-1]).max()
            predicted = (1.0 - s.cumulative[STEPS]) * np.abs(p.iterates[-1] - avg[-1]).max()
            worst = max(worst, abs(realized - predicted))
    gate(2, "final-gap-equals-identity-prediction", worst <= 1e-12,
         f"max |realized - predicted| = {worst:.3e}")


def test_criterion_3_limit_oracle():
    """Gate 3: the averaged path at step 500 matches the closed-form
    regularized solution within 1e-6 (inf norm).

    The 2-D demo part runs at lambda = 1.0: the scheme tail
    (1 - lambda*gamma)^501 = 2e-21 is then negligible within 500
    iterations, so the limit claim is actually testable at the stated
    tolerance (at lambda = 0.1 the tail alone is 6.8e-3; see gate 2d).
    The kernel part uses a random SPD Gram (n = 40, spectrum in
    [0.5, 2]), lambda = 0, lambda_hat in {0.5, 1, 2}, eta = 0.2.
    """
    with Budget(2.0) as budget:
        prob = toy_problem()
        lam = 1.0
        sched = make_schedule(ETA, bounds=convexity_bounds(prob))
        results = {}

        plain = sgd_run(prob, Regularizer.none(), sched, STEPS)
        scheme = weights_sgd_adaptive(sched, lam, STEPS)
        target = ridge_solution(prob, Regularizer.l2(lam))
        results["gd"] = np.abs(averaged_path(plain, scheme)[-1] - target).max()

        pplain = psgd_run(prob, Regularizer(0.0, prob.sigma), sched, STEPS)
        gen_target = ridge_solution(
            prob, Regularizer.generalized_l2(lam, prob.sigma))
        results["pgd"] = np.abs(averaged_path(pplain, scheme)[-1] - gen_target).max()

        nplain = nsgd_run(prob, Regularizer.none(), sched, STEPS, alpha=ALPHA)
        nscheme = weights_nsgd(ETA, lam, ALPHA, STEPS)
        results["ngd"] = np.abs(averaged_path(nplain, nscheme)[-1] - target).max()

        kernel = _random_kernel(40, seed=0)
        ksched = make_schedule(0.2)
        from iterreg.optimizers import kernel_gd_run

        kpath = kernel_gd_run(kernel, ksched, STEPS, lam=0.0)
        for lam_hat in (0.5, 1.0, 2.0):
            kscheme = weights_kernel(kernel, ksched, 0.0, lam_hat, STEPS)
            ktarget = kernel_solution(kernel, lam_hat)
            results[f"kernel-{lam_hat}"] = np.abs(
                averaged_path(kpath, kscheme)[-1] - ktarget).max()
    worst = max(results.values())
    gate(3, "limit-oracle", worst <= 1e-6,
         f"max gap {worst:.3e}, runtime {budget.elapsed:.2f}s")


def test_criterion_4_adaptive_rates():
    """Gate 4: with eta_k alternating between 0.5/beta and 0.9/beta the
    mixing identity still holds to 1e-10 (GD and PGD; the accelerated
    scheme is constant-rate by construction)."""
    with Budget(1.0) as budget:
        prob = toy_problem()
        bounds = convexity_bounds(prob)
        etas = [0.5 / bounds.beta, 0.9 / bounds.beta]
        sched = make_schedule(etas, bounds=bounds)
        scheme = weights_sgd_adaptive(sched, LAM, STEPS)
        res_gd = identity_check(
            sgd_run(prob, Regularizer.none(), sched, STEPS),
            sgd_run(prob, Regularizer.l2(LAM), sched.coupled(LAM), STEPS),
            scheme,
        )
        res_pgd = identity_check(
            psgd_run(prob, Regularizer(0.0, prob.sigma), sched, STEPS),
            psgd_run(prob, Regularizer.generalized_l2(LAM, prob.sigma), sched.coupled(LAM), STEPS),
            scheme,
        )
    worst = max(res_gd, res_pgd)
    gate(4, "adaptive-rates-identity", worst <= 1e-10,
         f"gd {res_gd:.3e}, pgd {res_pgd:.3e}, runtime {budget.elapsed:.2f}s")


def test_criterion_5_deviation_bound():
    """Gate 5: with spherical gradient noise of radius sigma = 0.5 injected
    into 500-step runs, over 200 seeds the frequency of
    ||P_K wavg_K - P_K E[wavg_K]||_2 > epsilon stays below delta + 0.05
    for plain, preconditioned, and accelerated variants (Chebyshev-style
    bound, delta = 0.1)."""
    sigma, delta, seeds = 0.5, 0.1, 200
    with Budget(30.0) as budget:
        prob = toy_problem()
        bounds = convexity_bounds(prob)
        sched = make_schedule(ETA, bounds=bounds)
        gamma = sched.coupled(LAM).eta(0)
        mu = np.linalg.eigvalsh(prob.sigma)
        freqs = {}

        def pgd_mean():
            target = prob.minimizer()
            path = np.zeros((STEPS + 1, 2))
            diff = -target
            for k in range(STEPS):
                diff = (1.0 - ETA) * diff
                path[k + 1] = diff + target
            return path

        cases = {
            "sgd": (
                variance_epsilon("sgd", sigma, delta, gamma, LAM,
                                 bounds.alpha, bounds.beta),
                expectation_path(prob, Regularizer.none(), sched, STEPS).iterates,
                weights_sgd_adaptive(sched, LAM, STEPS),
                lambda s: sgd_run(prob, Regularizer.none(), sched, STEPS,
                                  seed=s, noise_sigma=sigma),
            ),
            "psgd": (
                variance_epsilon("psgd", sigma, delta, gamma, LAM,
                                 bounds.alpha, bounds.beta,
                                 q_norm=float(mu.max())),
                pgd_mean(),
                weights_sgd_adaptive(sched, LAM, STEPS),
                lambda s: psgd_run(prob, Regularizer(0.0, prob.sigma), sched, STEPS,
                                   seed=s, noise_sigma=sigma),
            ),
            "nsgd": (
                variance_epsilon("nsgd", sigma, delta, gamma, LAM, ALPHA,
                                 bounds.beta, eta=ETA, lam_min=float(mu.min())),
                expectation_path(prob, Regularizer.none(), sched, STEPS,
                                 kind="ngd", alpha=ALPHA).iterates,
                weights_nsgd(ETA, LAM, ALPHA, STEPS),
                lambda s: nsgd_run(prob, Regularizer.none(), sched, STEPS,
                                   alpha=ALPHA, seed=s, noise_sigma=sigma),
            ),
        }
        for kind, (eps, mean_path, scheme, runner) in cases.items():
            p_last = scheme.cumulative[STEPS]
            mean_final = averaged_path(mean_path, scheme)[-1]

            def deviation(seed, runner=runner, scheme=scheme,
                          mean_final=mean_final, p_last=p_last):
                final = averaged_path(runner(seed), scheme)[-1]
                return float(np.linalg.norm(p_last * (final - mean_final)))

            with ThreadPoolExecutor(max_workers=8) as pool:
                devs = np.array(list(pool.map(deviation, range(seeds))))
            freqs[kind] = (float(np.mean(devs > eps)), eps,
                           float(devs.max()))
    ok = all(f <= delta + 0.05 for f, _, _ in freqs.values())
    detail = ", ".join(
        f"{k}: freq {f:.3f} (eps {e:.3g}, max dev {m:.3g})"
        for k, (f, e, m) in freqs.items())
    gate(5, "deviation-bound", ok, detail + f", runtime {budget.elapsed:.1f}s")


def test_criterion_6_sandwich():
    """Gate 6: for a 10-parameter softmax-with-ridge problem (ridge 1.0,
    data scaled so beta = 2) and an admissible pair eta = 0.4,
    gamma = 0.25, the averaged GD path stays entry-wise inside
    [what_{k,lam1} + (1-P_k)(lavg-l), what_{k,lam2} + (1-P_k)(uavg-u)]
    with slack >= -1e-8 at every step, and the distance to the midpoint m
    of the two regularized limits stays within ||d|| plus a fitted
    C^k envelope, C = max(1-gamma(alpha+lam1), 1-gamma(alpha+lam2),
    gamma/eta).  The envelope constant is fitted on k in [10, 50] and
    verified on k in [51, 500]."""
    with Budget(5.0) as budget:
        prob = _sandwich_problem(seed=0)
        assert prob.param_dim == 10
        bounds = convexity_bounds(prob)
        eta, gamma = 0.4, 0.25
        lam1, lam2 = lambda_pair(eta, gamma, bounds)
        plain = sgd_run(prob, Regularizer.none(), make_schedule(eta), STEPS)
        reg1 = sgd_run(prob, Regularizer.l2(lam1), make_schedule(gamma), STEPS)
        reg2 = sgd_run(prob, Regularizer.l2(lam2), make_schedule(gamma), STEPS)
        scheme = weights_sgd_adaptive(eta, (eta - gamma) / (eta * gamma), STEPS)
        avg = averaged_path(plain, scheme)
        bseq = bounding_sequences(prob, bounds, eta, gamma, lam1, lam2, STEPS)
        slack = sandwich_check(avg, reg1, reg2, bseq, scheme)

        rate = max(1 - gamma * (bounds.alpha + lam1),
                   1 - gamma * (bounds.alpha + lam2), gamma / eta)
        dist = np.linalg.norm(avg - bseq.center[None, :], axis=1)
        excess = dist - np.linalg.norm(bseq.halfgap)
        fit_ks = np.arange(10, 51)
        envelope = float(np.max(excess[10:51] / rate**fit_ks))
        later_ks = np.arange(51, STEPS + 1)
        violation = float(np.max(excess[51:] - envelope * rate**later_ks))
    ok = slack >= -1e-8 and violation <= 1e-12
    gate(6, "sandwich", ok,
         f"slack {slack:.3e}, envelope violation {violation:.3e}, "
         f"lam1 {lam1:.3g}, lam2 {lam2:.3g}, runtime {budget.elapsed:.2f}s")


def test_criterion_7_mnist_desk_scale(tmp_path):
    """Gate 7 (2000 rows, IDX round trip): deterministic least-squares
    error || wavg_t - what_t ||_1 decreases monotonically after iteration
    10 and ends below 1e-4 * || what_500 ||_1; with mini-batches
    (b = 500, lambda = 4, eta = 0.01) the final averaged error is below
    the final unaveraged error."""
    with Budget(60.0) as budget:
        images, labels = synthetic_mnist(n=2000, seed=7)
        ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
        write_idx_images(ip, images)
        write_idx_labels(lp, labels)
        data = load_idx(ip, lp, limit=2000)
        prob = QuadraticProblem.from_data(data.X, data.Y)
        eta, lam = 0.01, 4.0
        sched = make_schedule(eta)
        scheme = weights_sgd_adaptive(sched, lam, STEPS)

        plain = sgd_run(prob, Regularizer.none(), sched, STEPS)
        reg = sgd_run(prob, Regularizer.l2(lam), sched.coupled(lam), STEPS)
        avg = averaged_path(plain, scheme)
        err_avg = np.abs(avg - reg.iterates).sum(axis=1)
        monotone = float(np.max(np.diff(err_avg[10:])))
        final_rel = float(err_avg[-1] / np.abs(reg.iterates[-1]).sum())

        st_plain = sgd_run(prob, Regularizer.none(), sched, STEPS,
                           batch_size=500, seed=13, deterministic=False)
        st_reg = sgd_run(prob, Regularizer.l2(lam), sched.coupled(lam), STEPS,
                         batch_size=500, seed=13, deterministic=False)
        st_avg_err = float(
            np.abs(averaged_path(st_plain, scheme)[-1] - st_reg.iterates[-1]).sum())
        st_plain_err = float(np.abs(st_plain.iterates[-1] - st_reg.iterates[-1]).sum())
    ok = monotone <= 0.0 and final_rel <= 1e-4 and st_avg_err < st_plain_err
    gate(7, "regression-desk-scale", ok,
         f"max increment after 10: {monotone:.2e}, final/ridge-norm "
         f"{final_rel:.2e}, stochastic avg {st_avg_err:.3g} vs plain "
         f"{st_plain_err:.3g}, runtime {budget.elapsed:.1f}s")


def test_criterion_8_l1_hull():
    """Gate 8: sweeping lambda over {0.01, 0.03, 0.1, 0.3, 1, 3} on the
    2-D demo, at least one l1-penalized solution leaves the convex hull
    of the 500-step GD path while every ridge solution stays inside."""
    with Budget(1.0) as budget:
        prob = toy_problem()
        path = sgd_run(prob, Regularizer.none(), make_schedule(ETA), STEPS).iterates
        lams = (0.01, 0.03, 0.1, 0.3, 1.0, 3.0)
        l1_outside = []
        l2_inside = []
        for lam in lams:
            l1_outside.append(
                not hull_contains(path, l1_prox_solution(prob, lam, tol=1e-12)))
            l2_inside.append(
                hull_contains(path, ridge_solution(prob, Regularizer.l2(lam))))
    ok = any(l1_outside) and all(l2_inside)
    gate(8, "l1-hull", ok,
         f"l1 outside at {sum(l1_outside)}/6 grid points, all ridge inside: "
         f"{all(l2_inside)}, runtime {budget.elapsed:.2f}s")


def test_criterion_9_property_suites():
    """Gate 9: the mixing identity on 500 random schemes (<= 1e-10), the
    one-dimensional interval/gradient pinch on 20 random strongly convex
    functions, accelerated mean increments vs the brute-force recurrence
    for k <= 100 (<= 1e-10), streaming vs batch averaging (<= 1e-12),
    and an exact IDX round trip."""
    with Budget(10.0) as budget:
        # (a) mixing identity on random schemes and increments
        rng = np.random.default_rng(99)
        worst_identity = 0.0
        for _ in range(500):
            steps = int(rng.integers(3, 30))
            p_cum = np.sort(rng.uniform(0, 1, size=steps + 1))
            scheme = WeightScheme(p_cum)
            inc = rng.standard_normal((steps, 2))
            x = np.vstack([np.zeros(2), np.cumsum(inc, axis=0)])
            x_hat = np.zeros_like(x)
            for k in range(steps):
                x_hat[k + 1] = x_hat[k] + (1 - p_cum[k]) * (x[k + 1] - x[k])
            res = p_cum[:, None] * (x - averaged_path(x, scheme)) - (x - x_hat)
            worst_identity = max(worst_identity, float(np.abs(res).max()))

        # (b) 1-D interval containment and gradient pinch
        pinch_ok = True
        for _ in range(20):
            alpha = float(rng.uniform(0.1, 1.0))
            beta = alpha + float(rng.uniform(0.1, 2.0))
            sharp = float(rng.uniform(0.5, 4.0))
            x_star = float(rng.uniform(0.5, 3.0))
            span = beta - alpha

            def grad(x, bias=0.0, sharp=sharp, span=span, alpha=alpha,
                     x_star=x_star):
                z = np.clip(sharp * (x - x_star / 2), -500, 500)
                return alpha * x + (span / sharp) * np.logaddexp(0, z) - bias

            bias = grad(x_star)
            x = 0.0
            for _ in range(150):
                x = x - (0.9 / beta) * (grad(x) - bias)
                pinch_ok &= 0.0 < x <= x_star * (1 + 1e-12)
            grid = np.linspace(1e-6, x_star - 1e-6, 50)
            vals = np.array([grad(v) - bias for v in grid])
            pinch_ok &= bool(np.all(vals <= alpha * (grid - x_star) + 1e-10))
            pinch_ok &= bool(np.all(vals >= beta * (grid - x_star) - 1e-10))

        # (c) accelerated increments against the two-term recurrence
        worst_ngd = 0.0
        for _ in range(10):
            dim = int(rng.integers(1, 4))
            alpha = float(rng.uniform(0.02, 0.2))
            eigs = rng.uniform(alpha + 0.05, 1.5, size=dim)
            eta = float(rng.uniform(0.1, 0.9)) / eigs.max()
            a = rng.standard_normal(dim)
            tau = (1 - np.sqrt(eta * alpha)) / (1 + np.sqrt(eta * alpha))
            coef_a = (1 + tau) * (1 - eta * eigs)
            coef_b = -tau * (1 - eta * eigs)
            z_prev, z_curr = np.zeros(dim), eta * a
            for k in range(1, 101):
                closed = nsgd_expectation_increment(eigs, a, eta, alpha, k)
                worst_ngd = max(worst_ngd, float(np.abs(closed - z_curr).max()))
                z_prev, z_curr = z_curr, coef_a * z_curr + coef_b * z_prev

        # (d) streaming equals batch recomputation
        prob = toy_problem()
        sched = make_schedule(ETA)
        rec = sgd_run(prob, Regularizer.none(), sched, STEPS)
        scheme = weights_sgd_adaptive(sched, LAM, STEPS)
        from iterreg.averaging import RunningAverage

        state = RunningAverage(scheme)
        for w in rec.iterates:
            state.update(w)
        batch = (scheme.increments[:, None] * rec.iterates).sum(axis=0)
        batch /= scheme.cumulative[-1]
        stream_gap = float(np.abs(state.finalize() - batch).max())

        # (e) IDX round trip, byte-decoded values exactly equal
        import tempfile, os

        images, labels = synthetic_mnist(n=128, seed=5, side=9)
        with tempfile.TemporaryDirectory() as tmp:
            ip, lp = os.path.join(tmp, "i.idx"), os.path.join(tmp, "l.idx")
            write_idx_images(ip, images)
            write_idx_labels(lp, labels)
            data = load_idx(ip, lp)
        idx_exact = bool(
            np.array_equal(data.X, images.reshape(128, -1) / 255.0)
            and np.array_equal(np.argmax(data.Y, axis=1), labels))
    ok = (worst_identity <= 1e-10 and pinch_ok and worst_ngd <= 1e-10
          and stream_gap <= 1e-12 and idx_exact)
    gate(9, "property-suites", ok,
         f"identity {worst_identity:.2e}, pinch {pinch_ok}, accel "
         f"{worst_ngd:.2e}, streaming {stream_gap:.2e}, idx {idx_exact}, "
         f"runtime {budget.elapsed:.1f}s")
