from functools import partial

import numpy as np
import pytest
import scipy.linalg

from iterreg import optimizers, oracles, problems
from iterreg.averaging import (
    WeightScheme,
    averaged_path,
    weights_kernel,
    weights_sgd_adaptive,
)
from iterreg.optimizers import make_schedule, nsgd_run, psgd_run, sgd_run
from iterreg.oracles import (
    bounding_sequences,
    convex_hull,
    expectation_path,
    hull_contains,
    identity_check,
    kernel_solution,
    l1_prox_solution,
    lambda_pair,
    minimize_objective,
    nsgd_expectation_increment,
    ridge_solution,
    sandwich_check,
    variance_epsilon,
)
from iterreg.problems import (
    ConvexityBounds,
    KernelProblem,
    LogisticProblem,
    QuadraticProblem,
    Regularizer,
    eval_loss_grad,
    make_rotated_quadratic,
    toy_problem,
)


def diag_problem():
    return QuadraticProblem(sigma=np.diag([0.1, 1.0]), a=np.array([0.1, 1.0]))


class TestRidgeSolution:
    def test_hand_solved_diagonal(self):
        sol = ridge_solution(diag_problem(), Regularizer.l2(0.1))
        np.testing.assert_allclose(sol, [0.1 / 0.2, 1.0 / 1.1], atol=1e-15)

    def test_zero_penalty_recovers_minimizer(self):
        sol = ridge_solution(diag_problem(), Regularizer.none())
        np.testing.assert_allclose(sol, [1.0, 1.0], atol=1e-14)

    def test_huge_penalty_shrinks_to_zero(self):
        sol = ridge_solution(diag_problem(), Regularizer.l2(1e12))
        assert np.abs(sol).max() <= 1e-11

    def test_generalized_penalty(self):
        prob = toy_problem()
        sol = ridge_solution(prob, Regularizer.generalized_l2(0.5, prob.sigma))
        np.testing.assert_allclose(sol, prob.minimizer() / 1.5, atol=1e-12)

    def test_inaccurate_solve_is_a_numerical_failure(self):
        # Eigenvalues 1 down to 1e-13 in a random basis: full rank by the
        # rank rule (floor 2.7e-15), but the solve leaves a residual near
        # 5e-5, against the 1e-10 bound: a failed solve, not a bad input.
        basis, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((12, 12)))
        sigma = basis @ np.diag(np.logspace(0, -13, 12)) @ basis.T
        prob = QuadraticProblem(sigma=0.5 * (sigma + sigma.T), a=np.ones(12))
        with pytest.raises(RuntimeError, match="residual too large"):
            ridge_solution(prob, Regularizer.l2(1e-300))


class TestKernelSolution:
    def test_two_by_two_hand_inversion(self):
        kern = KernelProblem(K=np.array([[2.0, 1.0], [1.0, 2.0]]),
                             y=np.array([1.0, 0.0]))
        alpha = kernel_solution(kern, 1.0)
        # (K + I)^-1 y = [[3,1],[1,3]]^-1 (1,0) = (3/8, -1/8)
        np.testing.assert_allclose(alpha, [0.375, -0.125], atol=1e-14)

    def test_zero_penalty_inverts_gram(self):
        kern = KernelProblem(K=np.diag([2.0, 4.0]), y=np.array([1.0, 2.0]))
        np.testing.assert_allclose(kernel_solution(kern, 0.0), [0.5, 0.5],
                                   atol=1e-14)

    def test_zero_labels_give_zero(self):
        kern = KernelProblem(K=np.diag([2.0, 1.0]), y=np.zeros(2))
        np.testing.assert_array_equal(kernel_solution(kern, 0.7), 0.0)

    def test_rank_deficient_null_space_untouched(self):
        kern = KernelProblem(K=np.diag([2.0, 0.0]), y=np.array([1.0, 5.0]))
        alpha = kernel_solution(kern, 0.5)
        j = int(np.argmin(kern.eigenvalues))
        assert (kern.basis.T @ alpha)[j] == 0.0

    def test_negative_penalty_rejected(self):
        kern = KernelProblem(K=np.eye(2), y=np.zeros(2))
        with pytest.raises(ValueError):
            kernel_solution(kern, -0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_penalty_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            kernel_solution(KernelProblem(K=np.eye(2), y=np.zeros(2)), bad)


class TestExpectationPath:
    def test_matches_deterministic_gd(self):
        prob = toy_problem()
        sched = make_schedule(0.1)
        rec = sgd_run(prob, Regularizer.none(), sched, 200)
        mean = expectation_path(prob, Regularizer.none(), sched, 200)
        assert np.abs(rec.iterates - mean.iterates).max() <= 1e-12

    def test_matches_regularized_gd(self):
        prob = toy_problem()
        sched = make_schedule(0.1).coupled(0.3)
        rec = sgd_run(prob, Regularizer.l2(0.3), sched, 200)
        mean = expectation_path(prob, Regularizer.l2(0.3), sched, 200)
        assert np.abs(rec.iterates - mean.iterates).max() <= 1e-12

    def test_matches_accelerated_run(self):
        prob = toy_problem()
        sched = make_schedule(0.1).coupled(0.1)
        rec = nsgd_run(prob, Regularizer.l2(0.1), sched, 150, alpha=0.05)
        mean = expectation_path(prob, Regularizer.l2(0.1), sched, 150,
                                kind="ngd", alpha=0.05)
        assert np.abs(rec.iterates - mean.iterates).max() <= 1e-11

    @pytest.mark.parametrize("kind, lam, etas, wide", [
        ("pgd", 0.3, 0.1, False),   # a Q that is neither Sigma nor I
        ("pgd", 0.0, 0.1, False),
        ("gd", 0.2, [0.1, 1.5], False),  # alternating rates
        ("ngd", 0.0, 0.1, False),
        ("gd", 0.01, 0.05, True),   # d = 24, three outputs, condition number ~1e4
        ("pgd", 0.01, 0.05, True),
    ])
    def test_matches_gradient_loop(self, kind, lam, etas, wide):
        rng = np.random.default_rng(5)
        if wide:
            x = rng.standard_normal((200, 24)) * np.logspace(-1.5, 0.5, 24)
            prob = QuadraticProblem.from_data(x, rng.standard_normal((200, 3)))
            assert np.linalg.cond(prob.sigma) > 5e3
        else:
            prob = toy_problem()
        m = rng.standard_normal((prob.d, prob.d))
        q = m @ m.T / prob.d + np.eye(prob.d)
        reg = Regularizer.generalized_l2(lam, q) if kind == "pgd" \
            else Regularizer.l2(lam) if lam > 0 else Regularizer.none()
        sched = make_schedule(etas).coupled(lam)
        steps = 300
        if kind == "gd":
            rec = sgd_run(prob, reg, sched, steps)
        elif kind == "pgd":
            rec = psgd_run(prob, reg, sched, steps, Q=q)
        else:
            rec = nsgd_run(prob, reg, sched, steps, alpha=0.05)
        mean = expectation_path(prob, reg, sched, steps, kind=kind, alpha=0.05)
        scale = np.abs(rec.iterates).max()
        assert np.abs(rec.iterates - mean.iterates).max() <= 1e-12 * scale

    @pytest.mark.parametrize("sched, reg, message", [
        (make_schedule([0.1, 0.5]), Regularizer.none(), "constant learning rates only"),
        (make_schedule(0.1).coupled(0.2), Regularizer.generalized_l2(0.2, np.diag([2.0, 1.0])),
         "none/l2 regularizers only"),
    ])
    def test_accelerated_refuses_what_nsgd_run_refuses(self, sched, reg, message):
        prob = toy_problem()
        for route in (partial(nsgd_run, prob, reg, sched, 20, alpha=0.05),
                      partial(expectation_path, prob, reg, sched, 20, kind="ngd", alpha=0.05)):
            with pytest.raises(ValueError, match=message):
                route()

    def test_never_reaches_the_gradient_loop(self, monkeypatch):
        # The oracle is the second route to every optimizer's path.
        def refuse(*args, **kwargs):
            raise AssertionError("expectation_path reached the gradient loop")

        for module, name in ((problems, "_full_grad"), (problems, "_batch_grad"),
                             (optimizers, "_full_grad"), (optimizers, "_batch_grad"),
                             (optimizers, "_run")):
            monkeypatch.setattr(module, name, refuse)
        prob = toy_problem()
        sched = make_schedule(0.1).coupled(0.2)
        for kind, reg in (("gd", Regularizer.l2(0.2)), ("ngd", Regularizer.l2(0.2)),
                          ("pgd", Regularizer.generalized_l2(0.2, prob.sigma))):
            mean = expectation_path(prob, reg, sched, 50, kind=kind, alpha=0.05)
            assert np.all(np.isfinite(mean.iterates)) and np.abs(mean.iterates[-1]).max() > 0

    def test_basis_orthonormal_at_mnist_size(self, monkeypatch):
        # The divide-and-conquer eigensolver keeps V^T V = I to ~3e-15 on the
        # MNIST stand-in; eigh's default solver ("evr") misses it at 6.2e-13.
        from iterreg.data_io import one_hot, synthetic_mnist
        images, labels = synthetic_mnist(n=2000, seed=7)
        x = images.reshape(images.shape[0], -1).astype(np.float64) / 255.0
        prob = QuadraticProblem.from_data(x, one_hot(labels, 10))
        bases = []
        eigh = scipy.linalg.eigh

        def spy(*args, **kwargs):
            mu, vecs = eigh(*args, **kwargs)
            bases.append(vecs)
            return mu, vecs

        monkeypatch.setattr(scipy.linalg, "eigh", spy)
        expectation_path(prob, Regularizer.l2(1e-4), make_schedule(0.01).coupled(1e-4), 2)
        [vecs] = bases
        assert np.abs(vecs.T @ vecs - np.eye(prob.d)).max() <= 1e-13

    def test_long_run_reaches_ridge_limit(self):
        prob = toy_problem()
        sched = make_schedule(0.1).coupled(0.5)
        mean = expectation_path(prob, Regularizer.l2(0.5), sched, 4000)
        target = ridge_solution(prob, Regularizer.l2(0.5))
        assert np.abs(mean.iterates[-1] - target).max() <= 1e-12

    def test_zero_steps(self):
        mean = expectation_path(toy_problem(), Regularizer.none(),
                                make_schedule(0.1), 0)
        np.testing.assert_array_equal(mean.iterates, np.zeros((1, 2)))


class TestNsgdIncrement:
    def test_initial_conditions(self):
        z0 = nsgd_expectation_increment([1.0], [1.0], 0.5, 0.5, 0)
        np.testing.assert_array_equal(z0, 0.0)
        z1 = nsgd_expectation_increment([1.0], [1.0], 0.5, 0.5, 1)
        np.testing.assert_allclose(z1, [0.5], atol=1e-15)

    def test_second_increment_brute_force(self):
        # two-term recurrence z_{k+1} = A z_k + B z_{k-1} gives z_2 = 1/3
        z2 = nsgd_expectation_increment([1.0], [1.0], 0.5, 0.5, 2)
        np.testing.assert_allclose(z2, [1.0 / 3.0], atol=1e-15)

    def test_matches_brute_force_recurrence(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            dim = int(rng.integers(1, 5))
            alpha = float(rng.uniform(0.01, 0.3))
            eigs = rng.uniform(alpha + 0.05, 2.0, size=dim)
            eta = float(rng.uniform(0.05, 0.95)) / eigs.max()
            a = rng.standard_normal(dim)
            lam = float(rng.uniform(0.01, 1.0)) if rng.random() < 0.5 else None
            if lam is None:
                rate, shift = eta, 0.0
            else:
                rate, shift = eta / (1 + lam * eta), lam
            tau_num = 1 - np.sqrt(rate * (alpha + shift))
            tau = tau_num / (1 + np.sqrt(rate * (alpha + shift)))
            coef_a = (1 + tau) * (1 - rate * (eigs + shift))
            coef_b = -tau * (1 - rate * (eigs + shift))
            z_prev, z_curr = np.zeros(dim), rate * a
            for k in range(1, 101):
                closed = nsgd_expectation_increment(eigs, a, eta, alpha, k, lam=lam)
                assert np.abs(closed - z_curr).max() <= 1e-10
                z_prev, z_curr = z_curr, coef_a * z_curr + coef_b * z_prev

    def test_alpha_touching_spectrum_rejected(self):
        with pytest.raises(ValueError, match="strictly below"):
            nsgd_expectation_increment([0.5, 1.0], [1.0, 1.0], 0.2, 0.5, 3)


class TestVarianceEpsilon:
    def test_closed_form_value(self):
        gamma = 0.1 / 1.01
        bound = variance_epsilon("sgd", sigma=1.0, delta=0.1, gamma=gamma,
                                 lam=0.1, alpha=0.1, beta=1.0)
        # independent evaluation through the variance-sum arrangement
        trace_bound = 0.1 / (gamma**3 * (2 - 0.1 * gamma) * 0.2**2 * 1.1**4)
        np.testing.assert_allclose(bound, np.sqrt(trace_bound / 0.1),
                                   rtol=1e-12)
        assert abs(bound - 94.02) < 0.05

    def test_noiseless_bound_is_zero(self):
        b = variance_epsilon("sgd", 0.0, 0.1, 0.05, 0.1, 0.1, 1.0)
        assert b == 0.0

    def test_identity_preconditioner_matches_sgd(self):
        kw = dict(sigma=0.7, delta=0.2, gamma=0.08, lam=0.3, alpha=0.2, beta=1.5)
        assert variance_epsilon("psgd", q_norm=1.0, **kw) == \
            variance_epsilon("sgd", **kw)

    def test_accelerated_requires_spectral_gap(self):
        with pytest.raises(ValueError, match="lam_min"):
            variance_epsilon("nsgd", 1.0, 0.1, 0.09, 0.1, 0.5, 1.0, eta=0.1,
                             lam_min=0.4)

    def test_accelerated_value_positive_and_monotone_in_sigma(self):
        kw = dict(delta=0.1, gamma=0.1 / 1.01, lam=0.1, alpha=0.05, beta=1.0,
                  eta=0.1, lam_min=0.1)
        b1 = variance_epsilon("nsgd", 0.5, **kw)
        b2 = variance_epsilon("nsgd", 1.0, **kw)
        assert 0 < b1 < b2

    def test_delta_monotonicity(self):
        kw = dict(sigma=1.0, gamma=0.09, lam=0.1, alpha=0.1, beta=1.0)
        eps_small = variance_epsilon("sgd", delta=0.01, **kw)
        eps_large = variance_epsilon("sgd", delta=0.5, **kw)
        assert eps_small > eps_large


    @pytest.mark.parametrize("name", ["sigma", "gamma", "lam", "alpha", "beta", "eta"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_each_non_finite_value_rejected(self, name, bad):
        kw = dict(sigma=1.0, delta=0.1, gamma=0.1 / 1.01, lam=0.1, alpha=0.05, beta=1.0,
                  eta=0.1, lam_min=0.1)
        with pytest.raises(ValueError, match=f"{name} must be"):
            variance_epsilon("nsgd", **{**kw, name: bad})


class TestLambdaPair:
    def test_worked_example(self):
        lam1, lam2 = lambda_pair(0.4, 0.25, ConvexityBounds(1.0, 2.0))
        assert abs(lam1 - 2.5) < 1e-14 and abs(lam2 - 0.5) < 1e-14

    def test_equal_curvatures_collapse(self):
        lam1, lam2 = lambda_pair(1.0, 0.5, ConvexityBounds(0.5, 0.5))
        assert abs(lam1 - lam2) < 1e-15
        assert abs(lam1 - (1 / 0.5 - 1 / 1.0)) < 1e-15

    def test_each_violation_named(self):
        bounds = ConvexityBounds(1.0, 2.0)
        with pytest.raises(ValueError, match="1/beta"):
            lambda_pair(0.6, 0.25, bounds)
        with pytest.raises(ValueError, match=r"2\*beta"):
            lambda_pair(0.3, 0.25, bounds)
        with pytest.raises(ValueError, match="gamma"):
            lambda_pair(0.4, 0.4 / 1.4, bounds)  # at the cap, rejected
        with pytest.raises(ValueError, match="gamma"):
            lambda_pair(0.4, 0.0, bounds)

    @pytest.mark.parametrize("bounds", [ConvexityBounds(1.0, 2.0), ConvexityBounds(0.5, 0.5)])
    def test_nan_rates_rejected(self, bounds):
        with pytest.raises(ValueError, match="eta = nan"):
            lambda_pair(np.nan, 0.25, bounds)
        with pytest.raises(ValueError, match="gamma"):
            lambda_pair(0.4 if bounds.beta > 1.0 else 1.0, np.nan, bounds)


class TestBoundingSequences:
    def test_one_dimensional_geometric_series(self):
        # b = 1, alpha = 0.5, eta = 0.5: upper_k = 2 (1 - 0.75^k)
        prob = QuadraticProblem(sigma=np.array([[0.5]]), a=np.array([1.0]))
        bounds = ConvexityBounds(0.5, 0.5)
        seq = bounding_sequences(prob, bounds, 0.5, 0.25, 1.0, 1.0, steps=20)
        expected = 2.0 * (1.0 - 0.75 ** np.arange(21))
        np.testing.assert_allclose(seq.upper.ravel(), expected, atol=1e-12)
        np.testing.assert_allclose(seq.upper, seq.lower, atol=1e-14)

    def test_zero_steps(self):
        prob = QuadraticProblem(sigma=np.array([[0.5]]), a=np.array([1.0]))
        seq = bounding_sequences(prob, ConvexityBounds(0.5, 0.5), 0.5, 0.25,
                                 1.0, 1.0, steps=0)
        assert seq.upper.shape == (1, 1) and seq.upper[0, 0] == 0.0

    def test_identity_pairing_of_regularized_bounds(self):
        # (1 - P_k)(upper_{k+1} - upper_k) == lower_hat_{k+1} - lower_hat_k
        # and the lam1 analogue, exactly.
        rng = np.random.default_rng(3)
        prob = QuadraticProblem(sigma=np.diag([1.0, 1.8]),
                                a=np.array([0.7, 2.0]))
        bounds = ConvexityBounds(1.0, 1.8)
        eta, gamma = 0.4, 0.2
        lam1, lam2 = lambda_pair(eta, gamma, bounds)
        steps = 60
        seq = bounding_sequences(prob, bounds, eta, gamma, lam1, lam2, steps)
        p_cum = weights_sgd_adaptive(eta, (eta - gamma) / (eta * gamma), steps).cumulative
        du = np.diff(seq.upper, axis=0)
        dv = np.diff(seq.lower, axis=0)
        dhat_low = np.diff(seq.lower_hat, axis=0)
        dhat_up = np.diff(seq.upper_hat, axis=0)
        np.testing.assert_allclose((1 - p_cum[:-1])[:, None] * du, dhat_low,
                                   atol=1e-12)
        np.testing.assert_allclose((1 - p_cum[:-1])[:, None] * dv, dhat_up,
                                   atol=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, -0.1, 0.5, 0.6, np.nan])
    def test_gamma_outside_zero_to_eta_rejected(self, gamma):
        prob = QuadraticProblem(sigma=np.diag([0.5, 0.5]), a=np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="0 < gamma < eta"):
            bounding_sequences(prob, ConvexityBounds(0.5, 0.5), 0.5, gamma, 1.0, 1.0, steps=5)

    def test_orientation_flags_zero_coordinates(self):
        prob = QuadraticProblem(sigma=np.diag([0.5, 0.5]), a=np.array([1.0, 0.0]))
        seq = bounding_sequences(prob, ConvexityBounds(0.5, 0.5), 0.5, 0.25,
                                 1.0, 1.0, steps=5)
        assert seq.mask[0] and not seq.mask[1]


def _gd_pair():
    """Coupled plain and l2 GD runs on the toy problem, their scheme and bound."""
    prob = toy_problem()
    sched = make_schedule(0.1)
    plain = sgd_run(prob, Regularizer.none(), sched, 500)
    reg = sgd_run(prob, Regularizer.l2(0.1), sched.coupled(0.1), 500)
    return plain, reg, weights_sgd_adaptive(sched, 0.1, 500), 1e-10


def _kernel_pair():
    """Plain and lam_hat = 2 kernel GD runs, their scheme and bound."""
    rng = np.random.default_rng(11)
    basis, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    gram = basis @ np.diag(rng.uniform(0.5, 2.0, 30)) @ basis.T
    kern = KernelProblem(K=0.5 * (gram + gram.T), y=rng.standard_normal(30))
    sched = make_schedule(0.2)
    plain = optimizers.kernel_gd_run(kern, sched, 200)
    reg = optimizers.kernel_gd_run(kern, sched, 200, lam=0.0, lam_hat=2.0)
    return plain, reg, weights_kernel(kern, sched, 0.0, 2.0, 200), 1e-9


class TestIdentityCheck:
    def test_single_point_paths(self):
        scheme = WeightScheme([0.5])
        assert identity_check(np.zeros((1, 2)), np.zeros((1, 2)), scheme) == 0.0

    def test_coupled_toy_paths(self):
        plain, reg, scheme, _ = _gd_pair()
        assert identity_check(plain, reg, scheme) <= 1e-10

    def test_kernel_record_and_array_give_the_same_residual(self):
        plain, reg, scheme, _ = _kernel_pair()
        residual = identity_check(plain, reg, scheme)
        assert residual <= 1e-10
        assert residual == identity_check(plain.iterates, reg.iterates, scheme)

    @pytest.mark.parametrize("pair", [_gd_pair, _kernel_pair])
    def test_scheme_shifted_by_one_step_fails(self, pair):
        plain, reg, scheme, bound = pair()
        assert identity_check(plain, reg, scheme) <= bound
        p_cum = scheme.cumulative
        shifted = WeightScheme(
            np.concatenate([np.zeros_like(p_cum[:1]), p_cum[:-1]]), basis=scheme.basis)
        assert identity_check(plain, reg, shifted) > bound

    @pytest.mark.parametrize("pair", [_gd_pair, _kernel_pair])
    def test_average_blended_with_regularized_path_fails(self, pair, monkeypatch):
        plain, reg, scheme, bound = pair()
        reg_rows = reg.iterates if scheme.basis is None else reg.iterates @ scheme.basis
        average = oracles._average
        monkeypatch.setattr(oracles, "_average",
                            lambda rows, s, out=None: 0.5 * (average(rows, s) + reg_rows))
        assert identity_check(plain, reg, scheme) > bound

    def test_length_mismatch_rejected(self):
        scheme = WeightScheme([0.5, 1.0])
        with pytest.raises(ValueError, match="shapes"):
            identity_check(np.zeros((2, 1)), np.zeros((3, 1)), scheme)
        kernel = weights_kernel(KernelProblem(K=2.0 * np.eye(5), y=np.ones(5)), 0.1, 0.0,
                                1.0, 10)
        with pytest.raises(ValueError, match="shapes"):
            identity_check(np.zeros((11, 5)), np.zeros((11, 4)), kernel)


class TestGeneralizedRidgeFromPlainPath:
    """A plain GD path re-weighted per eigenvalue of Sigma, at strengths lam q_j,
    averages to the generalized ridge solution for Q = sum_j q_j u_j u_j^T."""

    ETA, LAM, STEPS = 0.1, 0.5, 2000

    def _gaps(self, q_scheme):
        """Ridge gap and identity residual of the scheme built from ``q_scheme``,
        both against the target Q = Sigma^{-1}."""
        prob = toy_problem()
        mu, basis = np.linalg.eigh(prob.sigma)
        q = 1.0 / mu
        gen_q = basis @ np.diag(q) @ basis.T
        gen_q = 0.5 * (gen_q + gen_q.T)
        target = ridge_solution(prob, Regularizer.generalized_l2(self.LAM, gen_q))
        plain = sgd_run(prob, Regularizer.none(), make_schedule(self.ETA), self.STEPS)
        # The companion steps direction j at eta / (1 + lam eta q_j).
        rates = basis @ np.diag(self.ETA / (1.0 + self.LAM * self.ETA * q)) @ basis.T
        companion = np.zeros((self.STEPS + 1, prob.d))
        for k in range(self.STEPS):
            w = companion[k]
            grad = prob.sigma @ w + self.LAM * (gen_q @ w) - prob.a[:, 0]
            companion[k + 1] = w - rates @ grad
        scheme = weights_sgd_adaptive(self.ETA, self.LAM * q_scheme(mu), self.STEPS,
                                      basis=basis)
        gap = np.abs(averaged_path(plain, scheme)[-1] - target).max()
        return gap, identity_check(plain, companion, scheme)

    def test_inverse_covariance_penalty(self):
        gap, residual = self._gaps(lambda mu: 1.0 / mu)
        assert gap <= 1e-12
        assert residual <= 1e-10

    def test_wrong_q_misses_both_checks(self):
        # q = mu builds the scheme of Q = Sigma, not of the Sigma^{-1} target.
        gap, residual = self._gaps(lambda mu: mu)
        assert gap > 0.1
        assert residual > 0.1


class TestSandwich:
    def test_quadratic_with_equal_curvatures_collapses(self):
        # alpha == beta: both bounds coincide with the averaged path.
        prob = QuadraticProblem(sigma=np.diag([0.5, 0.5]),
                                a=np.array([0.6, 1.1]))
        bounds = ConvexityBounds(0.5, 0.5)
        eta, gamma, steps = 1.0, 0.5, 120
        lam1, lam2 = lambda_pair(eta, gamma, bounds)
        plain = sgd_run(prob, Regularizer.none(), make_schedule(eta), steps)
        reg1 = sgd_run(prob, Regularizer.l2(lam1), make_schedule(gamma), steps)
        reg2 = sgd_run(prob, Regularizer.l2(lam2), make_schedule(gamma), steps)
        scheme = weights_sgd_adaptive(eta, (eta - gamma) / (eta * gamma), steps)
        avg = averaged_path(plain, scheme)
        seq = bounding_sequences(prob, bounds, eta, gamma, lam1, lam2, steps)
        slack = sandwich_check(avg, reg1, reg2, seq, scheme)
        assert slack >= -1e-10
        # collapse: upper and lower bounds agree with the average
        np.testing.assert_allclose(seq.halfgap, 0.0, atol=1e-12)

    def test_zero_row_contributes_zero_slack(self):
        prob = QuadraticProblem(sigma=np.diag([0.5, 0.5]),
                                a=np.array([0.6, 1.1]))
        bounds = ConvexityBounds(0.5, 0.5)
        seq = bounding_sequences(prob, bounds, 1.0, 0.5, 1.0, 1.0, steps=0)
        scheme = weights_sgd_adaptive(1.0, 1.0, 0)  # gamma / eta = 1/2
        slack = sandwich_check(np.zeros((1, 2)), np.zeros((1, 2)),
                               np.zeros((1, 2)), seq, scheme)
        assert abs(slack) <= 1e-15


class TestGronwallInterval:
    """One-dimensional descent from zero stays inside (0, x*), where the
    gradient is pinched between alpha (x - x*) and beta (x - x*)."""

    @staticmethod
    def make_function(alpha, beta, sharpness, x_star):
        span = beta - alpha

        def grad(x):
            z = np.clip(sharpness * (x - x_star / 2), -500, 500)
            return alpha * x + (span / sharpness) * np.logaddexp(0, z) - bias

        # choose the offset so that grad(x_star) == 0 exactly
        bias = 0.0
        bias = grad(x_star)
        return grad

    def test_twenty_random_functions(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            alpha = float(rng.uniform(0.1, 1.0))
            beta = alpha + float(rng.uniform(0.1, 2.0))
            sharpness = float(rng.uniform(0.5, 4.0))
            x_star = float(rng.uniform(0.5, 3.0))
            grad = self.make_function(alpha, beta, sharpness, x_star)
            assert abs(grad(x_star)) < 1e-12
            eta = 0.9 / beta
            x = 0.0
            for _ in range(200):
                x = x - eta * grad(x)
                # open interval in exact arithmetic; float may saturate at x*
                assert 0.0 < x <= x_star * (1 + 1e-12)
            grid = np.linspace(1e-6, x_star - 1e-6, 100)
            g = np.array([grad(v) for v in grid])
            upper = alpha * (grid - x_star)
            lower = beta * (grid - x_star)
            assert np.all(g <= upper + 1e-10)
            assert np.all(g >= lower - 1e-10)


class TestL1Prox:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_penalty_rejected_before_iterating(self, bad):
        with pytest.raises(ValueError, match="finite"):
            l1_prox_solution(toy_problem(), bad)

    def test_zero_penalty_recovers_minimizer(self):
        prob = toy_problem()
        sol = l1_prox_solution(prob, 0.0, tol=1e-12)
        np.testing.assert_allclose(sol, prob.minimizer(), atol=1e-9)

    def test_identity_quadratic_soft_threshold(self):
        prob = QuadraticProblem(sigma=np.eye(2), a=np.array([1.0, 1.0]))
        sol = l1_prox_solution(prob, 0.5, tol=1e-13)
        np.testing.assert_allclose(sol, [0.5, 0.5], atol=1e-10)

    def test_large_penalty_gives_zero(self):
        # zero is optimal as soon as |a_j| <= lam for every j
        prob = diag_problem()
        lam = float(np.abs(prob.a).max())
        sol = l1_prox_solution(prob, lam + 1e-6, tol=1e-13)
        np.testing.assert_array_equal(sol, 0.0)

    def test_first_order_conditions_on_support(self):
        prob = toy_problem()
        lam = 0.3
        sol = l1_prox_solution(prob, lam, tol=1e-13)
        grad = prob.grad(sol)
        on = sol != 0
        assert np.abs(grad[on] + lam * np.sign(sol[on])).max() <= 1e-8
        assert np.all(np.abs(grad[~on]) <= lam + 1e-8)


class TestHull:
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])

    def test_interior_point(self):
        assert hull_contains(self.square, (0.5, 0.5))

    def test_exterior_point(self):
        assert not hull_contains(self.square, (2.0, 0.0))

    def test_boundary_counts_as_inside(self):
        assert hull_contains(self.square, (1.0, 0.5))
        assert hull_contains(self.square, (0.0, 0.0))

    def test_collinear_degenerates_to_segment(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        assert hull_contains(pts, (1.5, 1.5))
        assert not hull_contains(pts, (1.5, 1.6))
        assert not hull_contains(pts, (3.0, 3.0))

    def test_hull_vertices_of_square_cloud(self):
        rng = np.random.default_rng(5)
        cloud = rng.uniform(0.2, 0.8, size=(50, 2))
        pts = np.vstack([self.square, cloud])
        hull = convex_hull(pts)
        assert hull.shape == (4, 2)


def _angular_gap_inside(points, query):
    """Reference membership: a query off the points is inside their hull iff
    the directions to them leave no angular gap of pi or more."""
    rel = points - query
    if np.any(np.all(rel == 0, axis=1)):
        return True
    angles = np.sort(np.arctan2(rel[:, 1], rel[:, 0]))
    return np.diff(np.append(angles, angles[0] + 2 * np.pi)).max() < np.pi


class TestHullAroundPaths:
    """hull_contains on a fixed grid around two 500-step GD paths: the toy
    path at eta = 0.1 (Qhull keeps 272 of the 327 vertices a monotone chain
    keeps) and a path that is a segment after its first step (3 of 8)."""

    @pytest.mark.parametrize("prob, eta, inside", [
        (toy_problem(), 0.1, 64),
        (make_rotated_quadratic((0.3, 2.0), 0.7, (-1.0, 2.0)), 0.5, 52),
    ])
    def test_grid_membership(self, prob, eta, inside):
        pts = sgd_run(prob, Regularizer.none(), make_schedule(eta), 500).iterates
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        pad = 0.1 * (hi - lo)
        axes = [np.linspace(lo[i] - pad[i], hi[i] + pad[i], 21) for i in range(2)]
        grid = np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, 2)
        got = [hull_contains(pts, q) for q in grid]
        assert got == [_angular_gap_inside(pts, q) for q in grid]
        assert sum(got) == inside  # the count of the monotone chain it replaced
        on_path = np.vstack([pts, 0.5 * (pts[1:] + pts[:-1])])[::25]
        assert all(hull_contains(pts, q) for q in on_path)

    def test_vertices_counter_clockwise(self):
        pts = sgd_run(toy_problem(), Regularizer.none(), make_schedule(0.1), 500).iterates
        hull = convex_hull(pts)
        edge = np.roll(hull, -1, axis=0) - hull
        turn = edge[:, 0] * np.roll(edge[:, 1], -1) - edge[:, 1] * np.roll(edge[:, 0], -1)
        assert turn.min() > 0
        assert np.isin(hull.view("f8,f8"), pts.view("f8,f8")).all()


class TestMinimizeObjective:
    def test_quadratic_closed_form(self):
        prob = toy_problem()
        w = minimize_objective(prob, Regularizer.l2(0.4))
        np.testing.assert_allclose(
            w, ridge_solution(prob, Regularizer.l2(0.4)), atol=1e-14)

    def test_logistic_newton_reaches_stationarity(self):
        rng = np.random.default_rng(9)
        prob = LogisticProblem(
            X=rng.uniform(0, 1, size=(40, 3)),
            Y=np.eye(2)[rng.integers(0, 2, size=40)],
            base_ridge=1.0,
        )
        for lam in (0.0, 0.8):
            reg = Regularizer.l2(lam) if lam else Regularizer.none()
            w = minimize_objective(prob, reg)
            _, g = eval_loss_grad(prob, reg, w)
            assert np.abs(g).max() <= 1e-12
