import json

import numpy as np
import pytest

from iterreg.optimizers import (
    DivergenceError,
    _sphere_noise_matrix,
    _step_rng,
    LRSchedule,
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
    QuadraticProblem,
    Regularizer,
    convexity_bounds,
    eval_loss_grad,
    stochastic_grad,
    toy_problem,
)


class TestSchedule:
    def test_constant_coupling(self):
        s = make_schedule(0.1, lam=0.1)
        # gamma = eta / (1 + lam eta), evaluated independently
        assert abs(s.gamma(0) - 0.1 / 1.01) < 1e-16

    def test_paper_rate_pair(self):
        s = make_schedule(0.01, lam=4.0)
        assert abs(s.gamma(0) - 1.0 / 104.0) < 1e-18

    def test_zero_lambda_collapses(self):
        s = make_schedule([0.1, 0.05, 0.02], lam=0.0)
        for k in range(6):
            assert s.gamma(k) == s.eta(k)

    def test_rate_above_curvature_limit_rejected(self):
        bounds = convexity_bounds(toy_problem())
        with pytest.raises(ValueError, match="1/beta"):
            make_schedule(1.0, lam=0.1, bounds=bounds)

    def test_coupling_identity_tight(self):
        s = make_schedule([0.09, 0.05, 0.013], lam=2.3)
        e = s.etas_upto(9)
        g = s.gammas_upto(9)
        assert np.abs((1 - 2.3 * g) - g / e).max() <= 1e-14

    @pytest.mark.parametrize("etas", [0.1, [0.09, 0.05, 0.013]])
    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_rate_tables_match_per_step_rates(self, etas, n):
        s = make_schedule(etas, lam=2.3)
        e, g = s.etas_upto(n), s.gammas_upto(n)
        assert e.shape == g.shape == (n,)
        for k in range(n):
            assert e[k].tobytes() == np.float64(s.eta(k)).tobytes()
            assert g[k].tobytes() == np.float64(s.gamma(k)).tobytes()

    def test_mismatched_coupled_schedule_rejected(self):
        s = make_schedule(0.1, lam=0.5)
        with pytest.raises(ValueError, match="lambda"):
            sgd_run(toy_problem(), Regularizer.l2(0.2), s, 3)


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
        np.testing.assert_allclose(rec.final, predicted, atol=1e-12)
        assert np.abs(rec.final - w_star).max() <= 1e-6

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

    def test_divergence_guard_raises(self):
        with pytest.raises(DivergenceError, match="diverged"):
            sgd_run(toy_problem(), Regularizer.none(), make_schedule(25.0), 200)

    def test_loss_monotone_under_stable_rate(self):
        prob = toy_problem()
        for rec in (
            sgd_run(prob, Regularizer.none(), make_schedule(0.1), 100),
            psgd_run(prob, Regularizer.none(), make_schedule(0.1), 100,
                     Q=prob.sigma),
        ):
            losses = [eval_loss_grad(prob, Regularizer.none(), w)[0]
                      for w in rec.iterates]
            assert np.all(np.diff(losses) <= 1e-15)

    def test_regularized_geometric_rate(self):
        # ||what_k - what_*|| <= (1 - gamma(alpha+lam))^k ||what_*||, exactly
        # on quadratics.
        prob = toy_problem()
        lam = 0.1
        sched = make_schedule(0.1, lam=lam)
        rec = sgd_run(prob, Regularizer.l2(lam), sched, 300)
        target = np.linalg.solve(prob.sigma + lam * np.eye(2), prob.a)
        bounds = convexity_bounds(prob)
        rate = 1.0 - sched.gamma(0) * (bounds.alpha + lam)
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
        rec = psgd_run(prob, Regularizer.none(), make_schedule(eta), 50, Q=prob.sigma)
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
        a = psgd_run(prob, Regularizer.none(), sched, 40, Q=np.eye(2),
                     batch_size=3, seed=11, deterministic=False)
        b = sgd_run(prob, Regularizer.none(), sched, 40, batch_size=3, seed=11,
                    deterministic=False)
        assert a.iterates.tobytes() == b.iterates.tobytes()

    def test_converges_to_minimizer(self):
        prob = toy_problem()
        rec = psgd_run(prob, Regularizer.none(), make_schedule(0.1), 500, Q=prob.sigma)
        assert np.abs(rec.final - prob.minimizer()).max() <= 1e-6

    def test_regularized_needs_generalized_penalty(self):
        with pytest.raises(ValueError, match="generalized_l2"):
            psgd_run(toy_problem(), Regularizer.l2(0.1), make_schedule(0.1, 0.1), 3,
                     Q=np.eye(2))


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
        assert np.abs(rec.final - prob.minimizer()).max() <= 1e-6

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
            nsgd_run(toy_problem(), Regularizer.generalized_l2(0.1, np.eye(2)),
                     make_schedule(0.1, 0.1), 10, alpha=0.05)


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
        rec = psgd_run(prob, Regularizer.none(), make_schedule(self.eta), self.steps,
                       Q=q, seed=self.seed, noise_sigma=self.sigma)
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
        return stochastic_grad(prob, Regularizer.none(), w, batch)

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

    def test_lam_hat_must_exceed_lam(self):
        with pytest.raises(ValueError, match="lam_hat"):
            kernel_gd_run(self.make_kernel(), make_schedule(0.1), 5, lam=1.0,
                          lam_hat=0.5)


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

    @pytest.mark.parametrize("version", [1, 3])
    def test_other_versions_rejected(self, tmp_path, version):
        rec, header = self._header(tmp_path)
        header["version"] = version
        self._write_archive(tmp_path / "v", header, rec.iterates)
        with pytest.raises(ValueError, match=f"unsupported version {version}"):
            load_path(str(tmp_path / "v"))

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
