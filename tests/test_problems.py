import itertools

import numpy as np
import pytest

from iterreg import problems
from iterreg.problems import (
    ConvexityBounds,
    KernelProblem,
    LogisticProblem,
    QuadraticProblem,
    Regularizer,
    convexity_bounds,
    eval_loss_grad,
    make_rotated_quadratic,
    make_synthetic_quadratic,
    stochastic_grad,
    toy_problem,
)


def diag_problem():
    return QuadraticProblem(sigma=np.diag([0.1, 1.0]), a=np.array([0.1, 1.0]))


class TestRegularizer:
    def test_q_required_iff_generalized(self):
        with pytest.raises(ValueError):
            Regularizer("l2", 0.1, Q=np.eye(2))
        with pytest.raises(ValueError):
            Regularizer("generalized_l2", 0.1)
        Regularizer.generalized_l2(0.1, np.eye(2))

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            Regularizer.l2(-0.5)

    def test_l1_has_no_gradient(self):
        prob = diag_problem()
        with pytest.raises(ValueError, match="l1"):
            eval_loss_grad(prob, Regularizer.l1(0.1), np.zeros(2))


class TestQuadratic:
    def test_gradient_zero_at_minimizer(self):
        prob = diag_problem()
        _, g = eval_loss_grad(prob, Regularizer.none(), np.array([1.0, 1.0]))
        np.testing.assert_allclose(g, 0.0, atol=1e-15)

    def test_gradient_at_origin_with_ridge(self):
        # Sigma w - a + lam w at w = 0 is -a.
        prob = diag_problem()
        _, g = eval_loss_grad(prob, Regularizer.l2(0.1), np.zeros(2))
        np.testing.assert_allclose(g, [-0.1, -1.0], atol=1e-15)

    def test_gradient_vanishes_at_ridge_solution(self):
        prob = diag_problem()
        w_hat = np.linalg.solve(prob.sigma + 0.1 * np.eye(2), prob.a)
        # The rounded value from a hand solve stays within 1e-6.
        np.testing.assert_allclose(w_hat, [0.5, 0.909091], atol=5e-7)
        _, g = eval_loss_grad(prob, Regularizer.l2(0.1), np.array([0.5, 0.909091]))
        assert np.abs(g).max() <= 1e-6

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            eval_loss_grad(diag_problem(), Regularizer.none(), np.zeros(3))

    def test_symmetry_and_spd_enforced(self):
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticProblem(sigma=np.array([[1.0, 0.1], [0.0, 1.0]]), a=np.zeros(2))
        with pytest.raises(ValueError, match="definite"):
            QuadraticProblem(sigma=np.diag([1.0, -0.1]), a=np.zeros(2))

    def test_raw_data_consistency_enforced(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 2))
        y = rng.standard_normal((6, 1))
        QuadraticProblem.from_data(x, y)
        with pytest.raises(ValueError, match="sigma"):
            QuadraticProblem(sigma=np.eye(2), a=x.T @ y / 6, X=x, Y=y)


def test_finite_difference_gradients():
    # Directional finite differences agree with the analytic gradient for
    # every smooth problem/penalty combination.
    rng = np.random.default_rng(42)
    quad = toy_problem()
    logi = LogisticProblem(
        X=rng.uniform(0, 1, size=(30, 3)),
        Y=np.eye(2)[rng.integers(0, 2, size=30)],
        base_ridge=1.0,
    )
    q = np.array([[2.0, 0.3], [0.3, 1.0]])
    cases = [
        (quad, Regularizer.none()),
        (quad, Regularizer.l2(0.3)),
        (quad, Regularizer.generalized_l2(0.2, q)),
        (logi, Regularizer.none()),
        (logi, Regularizer.l2(0.5)),
    ]
    h = 1e-5
    for prob, reg in cases:
        dim = prob.param_dim
        w = rng.standard_normal(dim)
        _, grad = eval_loss_grad(prob, reg, w)
        for _ in range(20):
            u = rng.standard_normal(dim)
            u /= np.linalg.norm(u)
            lp, _ = eval_loss_grad(prob, reg, w + h * u)
            lm, _ = eval_loss_grad(prob, reg, w - h * u)
            fd = (lp - lm) / (2 * h)
            assert abs(fd - grad @ u) <= 1e-5


def test_logistic_hessian_matches_gradient_differences():
    # Column j of the Hessian against central differences of the gradient
    # along e_j; three classes so the off-diagonal class blocks count.
    rng = np.random.default_rng(7)
    prob = LogisticProblem(X=rng.uniform(0, 1, size=(25, 4)),
                           Y=np.eye(3)[rng.integers(0, 3, size=25)], base_ridge=0.5)
    w = rng.standard_normal(prob.param_dim)
    h = 1e-5
    fd = np.column_stack([(prob.grad(w + h * e) - prob.grad(w - h * e)) / (2 * h)
                          for e in np.eye(prob.param_dim)])
    hess = prob.hessian(w)
    assert hess.shape == (12, 12)
    assert np.abs(hess - fd).max() <= 1e-8


class TestStochasticGrad:
    def test_full_batch_equals_gradient(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, size=(8, 3))
        y = rng.standard_normal((8, 2))
        prob = QuadraticProblem.from_data(x, y)
        w = rng.standard_normal(prob.param_dim)
        reg = Regularizer.l2(0.2)
        g_full = eval_loss_grad(prob, reg, w)[1]
        g_batch = stochastic_grad(prob, reg, w, np.arange(8))
        np.testing.assert_array_equal(g_batch, g_full)

    def test_identical_samples_have_zero_variance(self):
        # duplicated rows keep Sigma positive definite only in 1-D
        x = np.tile([[0.5]], (2, 1))
        y = np.tile([[1.0]], (2, 1))
        prob = QuadraticProblem.from_data(x, y)
        w = np.array([0.3])
        g_full = eval_loss_grad(prob, Regularizer.none(), w)[1]
        for batch in ([0], [1], [0, 1]):
            # zero-variance data: any batch agrees with the full gradient
            # (up to reassociated float arithmetic on the moment path)
            np.testing.assert_allclose(
                stochastic_grad(prob, Regularizer.none(), w, batch), g_full,
                rtol=1e-13, atol=1e-15)

    def test_enumerated_batches_average_to_full_gradient(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, size=(4, 2))
        y = rng.standard_normal((4, 1))
        prob = QuadraticProblem.from_data(x, y)
        w = rng.standard_normal(2)
        g_full = eval_loss_grad(prob, Regularizer.none(), w)[1]
        singles = np.mean(
            [stochastic_grad(prob, Regularizer.none(), w, [i]) for i in range(4)],
            axis=0)
        np.testing.assert_allclose(singles, g_full, atol=1e-12)
        # exhaustive size-2 batches as well
        pairs = np.mean(
            [stochastic_grad(prob, Regularizer.none(), w, list(b))
             for b in itertools.product(range(4), repeat=2)], axis=0)
        np.testing.assert_allclose(pairs, g_full, atol=1e-12)

    def test_kernel_and_momentless_problems_rejected(self):
        kern = KernelProblem(K=np.eye(3), y=np.zeros(3))
        with pytest.raises(ValueError):
            stochastic_grad(kern, Regularizer.none(), np.zeros(3), [0])
        with pytest.raises(ValueError, match="raw data"):
            stochastic_grad(diag_problem(), Regularizer.none(), np.zeros(2), [0])

    def test_bad_indices_rejected(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, size=(4, 2))
        prob = QuadraticProblem.from_data(x, rng.standard_normal((4, 1)))
        with pytest.raises(ValueError):
            stochastic_grad(prob, Regularizer.none(), np.zeros(2), [4])


class TestConvexityBounds:
    def test_plain_quadratic_extreme_eigenvalues(self):
        b = convexity_bounds(diag_problem())
        assert abs(b.alpha - 0.1) < 1e-14 and abs(b.beta - 1.0) < 1e-14

    def test_whitening_with_q_equal_sigma(self):
        prob = toy_problem()
        b = convexity_bounds(prob, Regularizer.generalized_l2(0.1, prob.sigma))
        np.testing.assert_allclose([b.alpha, b.beta], [1.0, 1.0], atol=1e-10)
        # semidefinite sandwich alpha Q <= Sigma <= beta Q
        eigs = np.linalg.eigvalsh(prob.sigma - b.alpha * prob.sigma)
        assert eigs.min() >= -1e-10

    def test_logistic_alpha_is_base_ridge(self):
        rng = np.random.default_rng(4)
        prob = LogisticProblem(
            X=rng.uniform(0, 1, size=(40, 4)),
            Y=np.eye(2)[rng.integers(0, 2, size=40)],
            base_ridge=1.0,
        )
        b = convexity_bounds(prob)
        assert b.alpha == 1.0 and b.beta > 1.0

    def test_logistic_without_ridge_flagged(self):
        rng = np.random.default_rng(5)
        prob = LogisticProblem(
            X=rng.uniform(0, 1, size=(10, 2)),
            Y=np.eye(2)[rng.integers(0, 2, size=10)],
        )
        with pytest.raises(ValueError, match="strongly convex"):
            convexity_bounds(prob)

    def test_curvature_inequalities_on_random_pairs(self):
        # alpha ||dw||^2 <= <dgrad, dw> <= beta ||dw||^2 for 100 random pairs.
        rng = np.random.default_rng(6)
        quad = toy_problem()
        logi = LogisticProblem(
            X=rng.uniform(0, 1, size=(50, 4)),
            Y=np.eye(3)[rng.integers(0, 3, size=50)],
            base_ridge=0.7,
        )
        for prob, slack in ((quad, 0.0), (logi, 1e-8)):
            b = convexity_bounds(prob)
            dim = prob.param_dim
            for _ in range(100):
                w1, w2 = rng.standard_normal((2, dim))
                g1 = eval_loss_grad(prob, Regularizer.none(), w1)[1]
                g2 = eval_loss_grad(prob, Regularizer.none(), w2)[1]
                inner = (g1 - g2) @ (w1 - w2)
                sq = float((w1 - w2) @ (w1 - w2))
                assert b.alpha * sq - slack - 1e-12 <= inner <= b.beta * sq + slack + 1e-12


class TestSyntheticQuadratic:
    def test_requested_spectrum_recovered(self):
        for seed in range(5):
            prob = make_synthetic_quadratic(4, 0.5, 3.0, rotation_seed=seed)
            vals = np.linalg.eigvalsh(prob.sigma)
            np.testing.assert_allclose(vals, np.linspace(0.5, 3.0, 4), atol=1e-12)

    def test_w_star_is_minimizer(self):
        w_star = np.array([1.0, -2.0, 0.5])
        prob = make_synthetic_quadratic(3, 0.2, 2.0, 1, w_star=w_star)
        np.testing.assert_allclose(prob.minimizer(), w_star, atol=1e-12)

    def test_zero_rotation_is_diagonal(self):
        prob = make_rotated_quadratic((0.1, 1.0), 0.0, (1.0, 1.0))
        np.testing.assert_allclose(prob.sigma, np.diag([0.1, 1.0]), atol=1e-15)

    def test_paper_toy_minimizer(self):
        prob = toy_problem()
        np.testing.assert_allclose(prob.minimizer(), [1.0, 1.0], atol=1e-12)

    def test_bad_spectrum_rejected(self):
        with pytest.raises(ValueError):
            make_synthetic_quadratic(2, 0.0, 1.0)


class TestKernelProblem:
    def test_eigendecomposition_cached_and_consistent(self):
        rng = np.random.default_rng(7)
        basis, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        mu = rng.uniform(0.2, 2.0, size=6)
        gram = basis @ np.diag(mu) @ basis.T
        kern = KernelProblem(K=0.5 * (gram + gram.T), y=rng.standard_normal(6))
        recon = kern.basis @ np.diag(kern.eigenvalues) @ kern.basis.T
        np.testing.assert_allclose(recon, kern.K, atol=1e-10)
        assert kern.eigenvalues.min() >= -1e-12

    def test_indefinite_gram_rejected(self):
        with pytest.raises(ValueError, match="semi-definite"):
            KernelProblem(K=np.diag([1.0, -0.5]), y=np.zeros(2))

    def test_non_orthonormal_basis_rejected(self, monkeypatch):
        # [e1, e2, e3 + e1] reconstructs diag(1, 1, 0) exactly, but U^T is
        # not its inverse, so averaging would rotate back wrongly.
        skewed = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        monkeypatch.setattr(problems, "jacobi_eigh",
                            lambda k: (np.array([1.0, 1.0, 0.0]), skewed))
        with pytest.raises(RuntimeError, match="orthonormal"):
            KernelProblem(K=np.diag([1.0, 1.0, 0.0]), y=np.zeros(3))


def test_one_hot_labels_validated():
    with pytest.raises(ValueError, match="one-hot"):
        LogisticProblem(X=np.zeros((2, 2)), Y=np.array([[0.5, 0.5], [1, 0]]))


def test_convexity_bounds_dataclass_ordering():
    with pytest.raises(ValueError):
        ConvexityBounds(2.0, 1.0)
