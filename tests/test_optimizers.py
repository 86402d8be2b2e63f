import dataclasses
import json

import numpy as np
import pytest
import scipy.linalg

from iterreg.optimizers import (
    DivergenceError,
    _sphere_noise_matrix,
    _step_rng,
    LRSchedule,
    PathRecord,
    kernel_gd_run,
    load_path,
    make_schedule,
    nesterov_momentum,
    nsgd_run,
    psgd_run,
    save_path,
    sgd_run,
)
from iterreg.problems import (
    KernelProblem,
    LogisticProblem,
    QuadraticProblem,
    Regularizer,
    convexity_bounds,
    eval_loss_grad,
    toy_problem,
)


class TestSchedule:
    def test_constant_coupling(self):
        s = make_schedule(0.1).coupled(0.1)
        # gamma = eta / (1 + lam eta), evaluated independently
        assert abs(s.eta(0) - 0.1 / 1.01) < 1e-16

    def test_paper_rate_pair(self):
        s = make_schedule(0.01).coupled(4.0)
        assert abs(s.eta(0) - 1.0 / 104.0) < 1e-18

    def test_zero_lambda_collapses(self):
        s = make_schedule([0.1, 0.05, 0.02])
        assert s.coupled(0.0).etas.tobytes() == s.etas.tobytes()
        for k in range(6):
            assert s.coupled(0.0).eta(k) == s.eta(k)

    @pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
    def test_coupling_lambda_out_of_range_rejected(self, lam):
        with pytest.raises(ValueError, match="lambda must be nonnegative and finite"):
            make_schedule(0.1).coupled(lam)

    def test_schedule_takes_no_lambda(self):
        # A lambda passed by position is no longer read as the bounds.
        with pytest.raises(TypeError):
            make_schedule(0.1, 0.5)
        with pytest.raises(TypeError):
            LRSchedule(0.1, 0.5)

    def test_rate_above_curvature_limit_rejected(self):
        bounds = convexity_bounds(toy_problem())
        with pytest.raises(ValueError, match="1/beta"):
            make_schedule(1.0, bounds=bounds)

    def test_coupling_identity_tight(self):
        s = make_schedule([0.09, 0.05, 0.013])
        e = s.etas_upto(9)
        g = s.coupled(2.3).etas_upto(9)
        assert np.abs((1 - 2.3 * g) - g / e).max() <= 1e-14

    @pytest.mark.parametrize("etas", [0.1, [0.09, 0.05, 0.013]])
    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_rate_tables_match_per_step_rates(self, etas, n):
        s = make_schedule(etas)
        e, g = s.etas_upto(n), s.coupled(2.3).etas_upto(n)
        assert e.shape == g.shape == (n,)
        for k in range(n):
            assert e[k].tobytes() == np.float64(s.eta(k)).tobytes()
            assert g[k].tobytes() == np.float64(s.eta(k) / (1.0 + 2.3 * s.eta(k))).tobytes()


class TestSgdRun:
    def test_zero_steps_is_origin(self):
        rec = sgd_run(toy_problem(), Regularizer.none(), make_schedule(0.1), 0)
        assert rec.iterates.shape == (1, 2)
        np.testing.assert_array_equal(rec.iterates[0], 0.0)

    def test_deterministic_convergence_matches_contraction(self):
        # The distance to the minimizer contracts exactly by (I - eta Sigma)
        # per step; verify against the closed-form power and reach 1e-6.
        prob = toy_problem()
        eta, steps = 0.1, 2500
        rec = sgd_run(prob, Regularizer.none(), make_schedule(eta), steps)
        w_star = prob.minimizer()
        contraction = np.eye(2) - eta * prob.sigma
        predicted = np.linalg.matrix_power(contraction, steps) @ (-w_star) + w_star
        np.testing.assert_allclose(rec.iterates[-1], predicted, atol=1e-12)
        assert np.abs(rec.iterates[-1] - w_star).max() <= 1e-6

    def test_same_seed_reproduces_bit_exactly(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=(12, 3))
        prob = QuadraticProblem.from_data(x, rng.standard_normal((12, 1)))
        sched = make_schedule(0.05)
        a = sgd_run(prob, Regularizer.none(), sched, 40, batch_size=3, seed=9,
                    deterministic=False)
        b = sgd_run(prob, Regularizer.none(), sched, 40, batch_size=3, seed=9,
                    deterministic=False)
        assert a.iterates.tobytes() == b.iterates.tobytes()

    def test_full_batch_coincides_with_deterministic(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, size=(10, 2))
        prob = QuadraticProblem.from_data(x, rng.standard_normal((10, 1)))
        sched = make_schedule(0.05)
        st = sgd_run(prob, Regularizer.none(), sched, 30, batch_size=10, seed=3,
                     deterministic=False)
        det = sgd_run(prob, Regularizer.none(), sched, 30)
        assert st.iterates.tobytes() == det.iterates.tobytes()

    @pytest.mark.parametrize("cls", [QuadraticProblem, LogisticProblem])
    @pytest.mark.parametrize("reg", [Regularizer.none(), Regularizer(0.1)])
    def test_minibatch_steps_take_the_problem_gradient_at_the_drawn_rows(self, monkeypatch,
                                                                         cls, reg):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, size=(12, 3))
        y = np.eye(2)[rng.integers(0, 2, size=12)]
        prob = (QuadraticProblem.from_data(x, y) if cls is QuadraticProblem
                else LogisticProblem(X=x, Y=y, base_ridge=0.5))
        seen, grad = [], cls.grad
        monkeypatch.setattr(cls, "grad", lambda self, w, rows=None:
                            seen.append(rows) or grad(self, w, rows))
        sgd_run(prob, reg, make_schedule(0.05), 5, batch_size=4, seed=9, deterministic=False)
        drawn = [_step_rng(9, k).integers(0, 12, size=4) for k in range(5)]
        assert len(seen) == 5 and all(np.array_equal(a, b) for a, b in zip(seen, drawn))

    def test_divergence_guard_raises(self):
        with pytest.raises(DivergenceError, match="diverged"):
            sgd_run(toy_problem(), Regularizer.none(), make_schedule(25.0), 200)

    def test_loss_monotone_under_stable_rate(self):
        prob = toy_problem()
        for rec in (
            sgd_run(prob, Regularizer.none(), make_schedule(0.1), 100),
            psgd_run(prob, Regularizer(0.0, prob.sigma), make_schedule(0.1), 100),
        ):
            losses = [eval_loss_grad(prob, Regularizer.none(), w)[0]
                      for w in rec.iterates]
            assert np.all(np.diff(losses) <= 1e-15)

    def test_regularized_geometric_rate(self):
        # ||what_k - what_*|| <= (1 - gamma(alpha+lam))^k ||what_*||, exactly
        # on quadratics.
        prob = toy_problem()
        lam = 0.1
        sched = make_schedule(0.1).coupled(lam)
        rec = sgd_run(prob, Regularizer(lam), sched, 300)
        target = np.linalg.solve(prob.sigma + lam * np.eye(2), prob.a).ravel()
        bounds = convexity_bounds(prob)
        rate = 1.0 - sched.eta(0) * (bounds.alpha + lam)
        norms = np.linalg.norm(rec.iterates - target, axis=1)
        budget = rate ** np.arange(301) * np.linalg.norm(target)
        assert np.all(norms <= budget + 1e-10)

    def test_stochastic_needs_batch_and_seed(self):
        with pytest.raises(ValueError, match="batch_size"):
            sgd_run(toy_problem(), Regularizer.none(), make_schedule(0.1), 3,
                    deterministic=False)
        with pytest.raises(ValueError, match="batch_size >= 1"):
            sgd_run(toy_problem(), Regularizer.none(), make_schedule(0.1), 3,
                    batch_size=0, seed=1, deterministic=False)


class TestPsgdRun:
    def test_newton_preconditioner_update_form(self):
        # With Q = Sigma the update is w_{k+1} = (1-eta) w_k + eta w*.
        prob = toy_problem()
        eta = 0.1
        rec = psgd_run(prob, Regularizer(0.0, prob.sigma), make_schedule(eta), 50)
        w_star = prob.minimizer()
        w = np.zeros(2)
        for k in range(50):
            w = (1 - eta) * w + eta * w_star
            np.testing.assert_allclose(rec.iterates[k + 1], w, atol=1e-13)

    def test_identity_preconditioner_equals_sgd(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, size=(9, 2))
        prob = QuadraticProblem.from_data(x, rng.standard_normal((9, 1)))
        sched = make_schedule(0.07)
        a = psgd_run(prob, Regularizer(0.0, np.eye(2)), sched, 40,
                     batch_size=3, seed=11, deterministic=False)
        b = sgd_run(prob, Regularizer.none(), sched, 40, batch_size=3, seed=11,
                    deterministic=False)
        assert a.iterates.tobytes() == b.iterates.tobytes()

    def test_converges_to_minimizer(self):
        prob = toy_problem()
        rec = psgd_run(prob, Regularizer(0.0, prob.sigma), make_schedule(0.1), 500)
        assert np.abs(rec.iterates[-1] - prob.minimizer()).max() <= 1e-6

    def test_regularized_needs_generalized_penalty(self):
        with pytest.raises(ValueError, match=r"Regularizer\(lam, Q\)"):
            psgd_run(toy_problem(), Regularizer(0.1), make_schedule(0.1).coupled(0.1), 3)

    def test_explicit_q_must_be_symmetric_and_definite(self):
        # cho_factor reads only one triangle, so an asymmetric Q would run as
        # the symmetric matrix of that triangle; Regularizer refuses it too.
        asym = np.array([[2.0, 0.5], [0.0, 1.0]])
        for q, message in ((asym, "symmetric"), (np.ones((2, 3)), "square"),
                           (np.diag([1.0, -1.0]), "positive definite")):
            with pytest.raises(ValueError, match=message):
                psgd_run(toy_problem(), Regularizer(0.0, q), make_schedule(0.1), 5)
        with pytest.raises(ValueError, match="symmetric"):
            Regularizer(0.1, asym)

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    @pytest.mark.parametrize("size", [1, 3])
    def test_q_of_another_size_is_refused(self, lam, size):
        # Refused before the first step, at lam = 0 too, where Q only preconditions.
        with pytest.raises(ValueError, match=f"Q is {size}x{size}, but the problem has d = 2"):
            psgd_run(toy_problem(), Regularizer(lam, np.eye(size)),
                     make_schedule(0.1).coupled(lam), 5)

    def test_step_solves_like_cho_solve(self):
        # One step from zero is -eta Q^{-1}(-a): the LAPACK call on the cached
        # factor gives the bits of scipy's checked wrapper.
        rng = np.random.default_rng(4)
        prob = QuadraticProblem.from_data(rng.standard_normal((30, 4)),
                                          rng.standard_normal((30, 3)))
        m = rng.standard_normal((4, 4))
        q = m @ m.T + np.eye(4)
        rec = psgd_run(prob, Regularizer(0.0, q), make_schedule(0.1), 1)
        step = scipy.linalg.cho_solve(scipy.linalg.cho_factor(q), -prob.a).ravel()
        assert rec.iterates[1].tobytes() == (0.0 - 0.1 * step).tobytes()


class TestNsgdRun:
    def test_first_iterates_are_zero(self):
        rec = nsgd_run(toy_problem(), Regularizer.none(), make_schedule(0.1), 10,
                       alpha=0.05)
        np.testing.assert_array_equal(rec.iterates[0], 0.0)
        np.testing.assert_array_equal(rec.iterates[1], 0.0)

    def test_one_dimensional_increments_brute_force(self):
        # 1-D problem with Sigma = 1, a = 1, eta = 0.5, alpha = 0.5.
        # Hand recursion: w_2 = eta a = 0.5, v_2 = w_2 + tau w_2 = 2/3,
        # w_3 = v_2 - eta (v_2 - 1) = 5/6, so increments are 1/2 then 1/3.
        prob = QuadraticProblem(sigma=np.array([[1.0]]), a=np.array([1.0]))
        rec = nsgd_run(prob, Regularizer.none(), make_schedule(0.5), 3, alpha=0.5)
        w = rec.iterates.ravel()
        assert abs((w[2] - w[1]) - 0.5) < 1e-15
        assert abs((w[3] - w[2]) - 1.0 / 3.0) < 1e-15

    def test_momentum_vanishes_as_rate_alpha_approaches_one(self):
        assert nesterov_momentum(0.5, 1.9999) < 2e-5
        with pytest.raises(ValueError):
            nesterov_momentum(0.5, 2.0)

    def test_converges_on_toy(self):
        prob = toy_problem()
        rec = nsgd_run(prob, Regularizer.none(), make_schedule(0.1), 500, alpha=0.05)
        assert np.abs(rec.iterates[-1] - prob.minimizer()).max() <= 1e-6

    def test_full_batch_coincides_with_deterministic(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 1, size=(6, 2))
        prob = QuadraticProblem.from_data(x, rng.standard_normal((6, 1)))
        sched = make_schedule(0.05)
        st = nsgd_run(prob, Regularizer.none(), sched, 25, alpha=0.01,
                      batch_size=6, seed=2, deterministic=False)
        det = nsgd_run(prob, Regularizer.none(), sched, 25, alpha=0.01)
        assert st.iterates.tobytes() == det.iterates.tobytes()

    def test_adaptive_rate_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            nsgd_run(toy_problem(), Regularizer.none(),
                     make_schedule([0.1, 0.05]), 10, alpha=0.05)

    def test_generalized_penalty_rejected(self):
        with pytest.raises(ValueError, match="none/l2"):
            nsgd_run(toy_problem(), Regularizer(0.1, np.eye(2)),
                     make_schedule(0.1).coupled(0.1), 10, alpha=0.05)


class TestNoisePlacement:
    """Where injected noise enters each update, against hand-written steps."""

    sigma, seed, steps, eta = 0.5, 5, 3, 0.1

    def grad(self, prob, w):
        return eval_loss_grad(prob, Regularizer.none(), w)[1]

    def test_sgd_subtracts_noise_from_gradient(self):
        prob = toy_problem()
        rec = sgd_run(prob, Regularizer.none(), make_schedule(self.eta), self.steps,
                      seed=self.seed, noise_sigma=self.sigma)
        noise = _sphere_noise_matrix(self.seed, self.steps, 2, self.sigma)
        w = np.zeros(2)
        for k in range(self.steps):
            w = w - self.eta * (self.grad(prob, w) - noise[k])
            np.testing.assert_allclose(rec.iterates[k + 1], w, rtol=0, atol=1e-15)

    def test_nsgd_subtracts_noise_at_lookahead_from_row_one(self):
        prob = toy_problem()
        alpha = 0.05
        rec = nsgd_run(prob, Regularizer.none(), make_schedule(self.eta), self.steps + 1,
                       alpha=alpha, seed=self.seed, noise_sigma=self.sigma)
        noise = _sphere_noise_matrix(self.seed, self.steps + 1, 2, self.sigma)
        tau = nesterov_momentum(self.eta, alpha)
        prev = w = np.zeros(2)
        for k in range(1, self.steps + 1):
            v = w + tau * (w - prev)
            prev, w = w, v - self.eta * (self.grad(prob, v) - noise[k])
            np.testing.assert_allclose(rec.iterates[k + 1], w, rtol=0, atol=1e-15)

    def test_psgd_subtracts_noise_after_the_solve(self):
        prob = toy_problem()
        q = np.array([[2.0, 0.3], [0.3, 1.0]])
        rec = psgd_run(prob, Regularizer(0.0, q), make_schedule(self.eta), self.steps,
                       seed=self.seed, noise_sigma=self.sigma)
        noise = _sphere_noise_matrix(self.seed, self.steps, 2, self.sigma)
        w = np.zeros(2)
        for k in range(self.steps):
            w = w - self.eta * (np.linalg.solve(q, self.grad(prob, w)) - noise[k])
            np.testing.assert_allclose(rec.iterates[k + 1], w, rtol=0, atol=1e-14)

    n, batch = 40, 4

    def batch_problem(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 1, size=(self.n, 3))
        return QuadraticProblem.from_data(x, rng.standard_normal((self.n, 1)))

    def batch_grad(self, prob, w, k):
        batch = _step_rng(self.seed, k).integers(0, self.n, size=self.batch)
        return prob.grad(w, batch)

    def batch_runs(self, run, steps, **kwargs):
        """A mini-batch run with noise and the same run without it."""
        prob = self.batch_problem()
        kwargs.update(batch_size=self.batch, seed=self.seed, deterministic=False)
        noisy = run(prob, Regularizer.none(), make_schedule(self.eta), steps,
                    noise_sigma=self.sigma, **kwargs)
        quiet = run(prob, Regularizer.none(), make_schedule(self.eta), steps, **kwargs)
        assert not np.array_equal(noisy.iterates, quiet.iterates)
        return prob, noisy, _sphere_noise_matrix(self.seed, steps, 3, self.sigma)

    def test_minibatch_sgd_subtracts_noise_from_estimate(self):
        prob, rec, noise = self.batch_runs(sgd_run, self.steps)
        w = np.zeros(3)
        for k in range(self.steps):
            w = w - self.eta * (self.batch_grad(prob, w, k) - noise[k])
            np.testing.assert_allclose(rec.iterates[k + 1], w, rtol=0, atol=1e-15)

    def test_minibatch_nsgd_subtracts_noise_at_lookahead(self):
        alpha = 0.05
        prob, rec, noise = self.batch_runs(nsgd_run, self.steps + 1, alpha=alpha)
        tau = nesterov_momentum(self.eta, alpha)
        prev = w = np.zeros(3)
        for k in range(1, self.steps + 1):
            v = w + tau * (w - prev)
            prev, w = w, v - self.eta * (self.batch_grad(prob, v, k) - noise[k])
            np.testing.assert_allclose(rec.iterates[k + 1], w, rtol=0, atol=1e-15)


def _noisy_runs(prob):
    """The three noisy runs of the deviation gate, as functions of the seed."""
    sched = make_schedule(0.1)
    q = prob.sigma + np.eye(prob.d)
    return {
        "sgd": lambda seed: sgd_run(prob, Regularizer.none(), sched, 200, seed=seed,
                                    noise_sigma=0.5),
        "psgd": lambda seed: psgd_run(prob, Regularizer(0.0, q), sched, 200, seed=seed,
                                      noise_sigma=0.5),
        "nsgd": lambda seed: nsgd_run(prob, Regularizer(0.1), sched.coupled(0.1), 200,
                                      alpha=0.05, seed=seed, noise_sigma=0.5),
    }


def _multi_output():
    rng = np.random.default_rng(8)
    return QuadraticProblem(sigma=np.diag([0.2, 0.5, 1.0]), a=rng.standard_normal((3, 2)))


class TestSeedStack:
    @pytest.mark.parametrize("kind", ["sgd", "psgd", "nsgd"])
    @pytest.mark.parametrize("make", [toy_problem, _multi_output])
    def test_each_seed_matches_its_single_run(self, kind, make):
        run = _noisy_runs(make())[kind]
        seeds = [1, 3, 5]
        stack = run(seeds)
        assert [rec.seed for rec in stack] == seeds
        for rec, seed in zip(stack, seeds):
            single = run(seed)
            assert rec.tag == single.tag and rec.iterates.shape == single.iterates.shape
            scale = np.abs(single.iterates).max()
            assert np.abs(rec.iterates - single.iterates).max() <= 1e-12 * scale

    @pytest.mark.parametrize("kind", ["sgd", "psgd", "nsgd"])
    def test_stack_of_one_is_the_single_run(self, kind):
        run = _noisy_runs(toy_problem())[kind]
        [rec] = run([3])
        assert rec.iterates.tobytes() == run(3).iterates.tobytes()

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="seed sequence"):
            _noisy_runs(toy_problem())["sgd"]([])

    def test_minibatch_and_logistic_stacks_rejected(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((12, 3))
        quad = QuadraticProblem.from_data(x, rng.standard_normal((12, 2)))
        with pytest.raises(ValueError, match="seed sequence"):
            sgd_run(quad, Regularizer.none(), make_schedule(0.05), 5, batch_size=3,
                    seed=[1, 2], deterministic=False)
        logistic = LogisticProblem(x, np.eye(2)[rng.integers(0, 2, 12)], base_ridge=0.1)
        with pytest.raises(ValueError, match="seed sequence"):
            sgd_run(logistic, Regularizer.none(), make_schedule(0.05), 5, seed=[1, 2],
                    noise_sigma=0.1)

    def test_divergence_names_the_seed(self):
        def run(seed):
            return sgd_run(toy_problem(), Regularizer.none(), make_schedule(25.0), 200,
                           seed=seed, noise_sigma=0.5)
        # The first seed past the guard is named; its step and norm are those
        # of its own run.
        with pytest.raises(DivergenceError) as stacked:
            run([7, 2])
        with pytest.raises(DivergenceError) as single:
            run(7)
        assert str(stacked.value) == str(single.value).replace(":", " (seed 7):", 1)


class TestKernelRun:
    def make_kernel(self):
        rng = np.random.default_rng(3)
        basis, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        mu = rng.uniform(0.5, 2.0, size=5)
        gram = basis @ np.diag(mu) @ basis.T
        return KernelProblem(K=0.5 * (gram + gram.T), y=rng.standard_normal(5))

    def test_plain_run_matches_direct_updates(self):
        kern = self.make_kernel()
        eta, lam = 0.1, 0.3
        rec = kernel_gd_run(kern, make_schedule(eta), 20, lam=lam)
        alpha = np.zeros(5)
        for k in range(20):
            grad = kern.K @ (kern.K @ alpha - kern.y) + lam * (kern.K @ alpha)
            alpha = alpha - eta * grad
            np.testing.assert_allclose(rec.iterates[k + 1], alpha, atol=1e-12)

    def test_regularized_run_matches_matrix_rate_updates(self):
        kern = self.make_kernel()
        lam, lam_hat = 0.0, 1.0
        for sched in (make_schedule(0.1), make_schedule([0.1, 0.05, 0.02])):
            rec = kernel_gd_run(kern, sched, 15, lam=lam, lam_hat=lam_hat)
            alpha = np.zeros(5)
            for k in range(15):
                eta = sched.eta(k)
                rate = eta * np.linalg.inv(np.eye(5) + (lam_hat - lam) * eta * kern.K)
                grad = kern.K @ (kern.K @ alpha - kern.y) + lam_hat * (kern.K @ alpha)
                alpha = alpha - rate @ grad
                np.testing.assert_allclose(rec.iterates[k + 1], alpha, atol=1e-12)

    def test_record_stores_the_strength_it_stepped_with(self):
        kern, sched = self.make_kernel(), make_schedule(0.1)
        assert kernel_gd_run(kern, sched, 5, lam=0.5).lam == 0.5
        companion = kernel_gd_run(kern, sched, 5, lam=0.0, lam_hat=2.0)
        assert companion.lam == 2.0 and companion.alpha is None and companion.seed is None

    def test_lam_hat_must_exceed_lam(self):
        with pytest.raises(ValueError, match="lam_hat"):
            kernel_gd_run(self.make_kernel(), make_schedule(0.1), 5, lam=1.0,
                          lam_hat=0.5)

    def test_generic_runs_refuse_kernels(self):
        # Only kernel_gd_run steps a kernel problem; sgd_run points there.
        with pytest.raises(ValueError, match="kernel_gd_run"):
            sgd_run(self.make_kernel(), Regularizer.none(), make_schedule(0.1), 5)


class TestPathRecord:
    def make_record(self):
        rng = np.random.default_rng(8)
        x = np.vstack([np.zeros(6), rng.standard_normal((30, 6))])
        return PathRecord(iterates=x, tag="test", seed=None, schedule=make_schedule(0.1)), rng

    @staticmethod
    def read_only(a):
        a = a.copy()
        a.flags.writeable = False
        return a

    def test_iterates_are_read_only(self):
        rec, _ = self.make_record()
        with pytest.raises(ValueError, match="read-only"):
            rec.iterates[1, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            rec.iterates[-1] = 0.0

    def test_record_without_w0_rejected(self):
        # A path starts at w_0 = 0, so it has at least one row.
        with pytest.raises(ValueError, match="w_0 included"):
            PathRecord(iterates=np.zeros((0, 6)), tag="test", seed=None,
                       schedule=make_schedule(0.1))

    def test_rotation_kept_for_the_last_read_only_basis(self):
        rec, rng = self.make_record()
        first = self.read_only(np.linalg.qr(rng.standard_normal((6, 6)))[0])
        second = self.read_only(np.linalg.qr(rng.standard_normal((6, 6)))[0])
        rotated = rec.in_basis(first)
        assert rec.in_basis(first) is rotated
        assert rotated.tobytes() == (rec.iterates @ first).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            rotated[0, 0] = 1.0
        other = rec.in_basis(second)
        assert other.tobytes() == (rec.iterates @ second).tobytes()
        assert rec.in_basis(second) is other
        assert rec.in_basis(first) is not rotated  # replaced, so computed again

    def test_writable_basis_is_multiplied_every_call(self):
        rec, rng = self.make_record()
        basis = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        once = rec.in_basis(basis)
        assert once.tobytes() == (rec.iterates @ basis).tobytes()
        basis[0, 0] += 1.0  # a writable basis may change between calls
        again = rec.in_basis(basis)
        assert again is not once
        assert again.tobytes() == (rec.iterates @ basis).tobytes()
        assert rec._rotation is None

    def test_kernel_basis_and_eigenvalues_are_read_only(self):
        kern = TestKernelRun().make_kernel()
        assert not kern.basis.flags.writeable
        assert not kern.eigenvalues.flags.writeable
        rec = kernel_gd_run(kern, make_schedule(0.1), 10)
        assert rec.in_basis(kern.basis) is rec.in_basis(kern.basis)


class TestSerialization:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, size=(7, 2))
        prob = QuadraticProblem.from_data(x, rng.standard_normal((7, 1)))
        rec = sgd_run(prob, Regularizer.none(), make_schedule([0.05, 0.03]), 25,
                      batch_size=2, seed=5, deterministic=False)
        path = tmp_path / "run.npz"
        save_path(rec, str(path))
        back = load_path(str(path))
        assert back.iterates.tobytes() == rec.iterates.tobytes()
        assert back.tag == rec.tag and back.seed == rec.seed
        assert back.problem_fingerprint == rec.problem_fingerprint
        np.testing.assert_array_equal(back.schedule.etas, rec.schedule.etas)

    def test_ngd_header_stores_lam_and_alpha_but_not_tau(self, tmp_path):
        # tau = nesterov_momentum(eta, alpha + lam) is derived, so it is not stored.
        rec = nsgd_run(toy_problem(), Regularizer(0.2), make_schedule(0.1).coupled(0.2), 30,
                       alpha=0.05)
        path = tmp_path / "ngd"
        save_path(rec, str(path))
        with np.load(path) as archive:
            header = json.loads(archive["header"].tobytes())
        assert header["version"] == 4 and (header["lam"], header["alpha"]) == (0.2, 0.05)
        assert "tau" not in json.dumps(header) and "extras" not in header
        back = load_path(str(path))
        assert (back.lam, back.alpha) == (0.2, 0.05) and back.tag == "ngd"
        assert back.iterates.tobytes() == rec.iterates.tobytes()

    def test_value_json_cannot_hold_is_refused_and_leaves_no_file(self, tmp_path):
        # Written as it is, never widened: a float32 lam is a TypeError, not 0.1000000015.
        # Regularizer stores a float, so the record is given the float32 directly.
        rec = sgd_run(toy_problem(), Regularizer(0.1), make_schedule(0.1).coupled(0.1), 5)
        with pytest.raises(TypeError, match="float32"):
            save_path(dataclasses.replace(rec, lam=np.float32(0.1)), str(tmp_path / "f32"))
        assert not (tmp_path / "f32").exists()

    def test_run_at_a_numpy_scalar_lam_round_trips(self, tmp_path):
        # Regularizer keeps float(lam), which JSON holds; the record keeps that value.
        rec = sgd_run(toy_problem(), Regularizer(np.float32(0.1)),
                      make_schedule(0.1).coupled(0.1), 5)
        save_path(rec, str(tmp_path / "f32"))
        back = load_path(str(tmp_path / "f32"))
        assert type(back.lam) is float and back.lam == float(np.float32(0.1))
        assert back.iterates.tobytes() == rec.iterates.tobytes()

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(ValueError, match="not a path record"):
            load_path(str(path))

    @staticmethod
    def _stored(tmp_path):
        rec = sgd_run(toy_problem(), Regularizer.none(), make_schedule(0.1), 40)
        path = tmp_path / "stored"
        save_path(rec, str(path))
        return rec, path

    @staticmethod
    def _write_archive(path, header, iterates):
        with open(path, "wb") as fh:
            np.savez(fh, header=np.bytes_(json.dumps(header)), iterates=iterates)

    def test_bare_name_is_the_only_file(self, tmp_path):
        rec, path = self._stored(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["stored"]
        assert path.stat().st_size <= rec.iterates.nbytes + 64 * 1024
        assert load_path(str(path)).iterates.tobytes() == rec.iterates.tobytes()

    def test_truncated_archive_rejected(self, tmp_path):
        _, path = self._stored(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="truncated") as err:
            load_path(str(path))
        assert str(path) in str(err.value)

    def _header(self, tmp_path):
        rec, path = self._stored(tmp_path)
        with np.load(path) as archive:
            return rec, json.loads(archive["header"].tobytes())

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_other_versions_rejected(self, tmp_path, version):
        rec, header = self._header(tmp_path)
        header["version"] = version
        self._write_archive(tmp_path / "v", header, rec.iterates)
        with pytest.raises(ValueError, match=f"unsupported version {version}"):
            load_path(str(tmp_path / "v"))

    @pytest.mark.parametrize("key, value", [
        ("steps", "40"), ("dim", True), ("tag", 3), ("seed", 1.5), ("etas", ["0.1"]),
        ("etas", 0.1), ("alpha", [1]),
        # typed, but out of the schedule's range
        ("etas", []), ("etas", [0.0]),
        # JSON's NaN and Infinity, which LRSchedule refuses too
        ("etas", [float("nan")]), ("etas", [float("inf")]),
        # typed, but no path has them
        ("steps", -1), ("dim", 0),
    ], ids=["steps-40", "dim-True", "tag-3", "seed-1.5", "etas-value4", "etas-0.1",
            "alpha-value7", "etas-value9", "etas-value10", "etas-value11", "etas-value12",
            "steps-negative", "dim-0"])
    def test_malformed_header_keys_rejected(self, tmp_path, key, value):
        rec, header = self._header(tmp_path)
        (header["schedule"] if key == "etas" else header)[key] = value
        self._write_archive(tmp_path / "m", header, rec.iterates)
        with pytest.raises(ValueError, match=f"key '{key}' is missing or malformed") as err:
            load_path(str(tmp_path / "m"))
        assert str(tmp_path / "m") in str(err.value)

    @pytest.mark.parametrize("key, value, shape", [("steps", -1, (0, 2)), ("dim", 0, (41, 0))])
    def test_empty_path_matching_its_header_rejected(self, tmp_path, key, value, shape):
        # Iterates of the shape the header names still need a w_0 and a coordinate.
        rec, header = self._header(tmp_path)
        header[key] = value
        self._write_archive(tmp_path / "e", header, np.zeros(shape))
        with pytest.raises(ValueError, match=f"key '{key}' is missing or malformed"):
            load_path(str(tmp_path / "e"))

    @pytest.mark.parametrize("alpha", [0, -1, float("nan"), True, "0.05"])
    def test_alpha_that_is_no_positive_number_rejected(self, tmp_path, alpha):
        rec, header = self._header(tmp_path)
        header["alpha"] = alpha
        self._write_archive(tmp_path / "a", header, rec.iterates)
        with pytest.raises(ValueError, match="key 'alpha' is missing or malformed") as err:
            load_path(str(tmp_path / "a"))
        assert str(tmp_path / "a") in str(err.value)

    def test_dim_mismatch_rejected(self, tmp_path):
        rec, header = self._header(tmp_path)
        header["dim"] += 1
        self._write_archive(tmp_path / "d", header, rec.iterates)
        with pytest.raises(ValueError, match="shape"):
            load_path(str(tmp_path / "d"))

    def test_float32_rejected(self, tmp_path):
        rec, header = self._header(tmp_path)
        self._write_archive(tmp_path / "f", header, rec.iterates.astype(np.float32))
        with pytest.raises(ValueError, match="float32"):
            load_path(str(tmp_path / "f"))

    def test_pickled_object_array_refused_unread(self, tmp_path):
        rec, header = self._header(tmp_path)
        payload = np.empty(1, dtype=object)
        payload[0] = _Tripwire()
        self._write_archive(tmp_path / "p", header, payload)
        _Tripwire.fired.clear()
        with pytest.raises(ValueError, match="allow_pickle"):
            load_path(str(tmp_path / "p"))
        assert _Tripwire.fired == []


def _trip():
    _Tripwire.fired.append(True)
    return _Tripwire()


class _Tripwire:
    """Records, on unpickling, that a loader ran code from the file."""

    fired = []

    def __reduce__(self):
        return _trip, ()


def test_schedule_validation():
    with pytest.raises(ValueError):
        LRSchedule(np.array([0.1, -0.2]))
    with pytest.raises(ValueError):
        LRSchedule(np.array([]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_rates_and_strengths_rejected(bad):
    # NaN fails every comparison, so each range test is written to fail it.
    with pytest.raises(ValueError, match="finite"):
        LRSchedule(np.array([0.1, bad]))
    with pytest.raises(ValueError, match="finite"):
        make_schedule(0.1).coupled(bad)
    kern = KernelProblem(K=np.eye(3), y=np.ones(3))
    with pytest.raises(ValueError, match="finite"):
        kernel_gd_run(kern, make_schedule(0.1), 5, lam_hat=bad)
    with pytest.raises(ValueError, match="finite"):
        kernel_gd_run(kern, make_schedule(0.1), 5, lam=bad)
    with pytest.raises(ValueError, match="finite"):
        sgd_run(toy_problem(), Regularizer.none(), make_schedule(0.1), 5, seed=0,
                noise_sigma=bad)
    with pytest.raises(ValueError, match="finite"):
        LogisticProblem(X=np.ones((2, 1)), Y=np.eye(2), base_ridge=bad)
