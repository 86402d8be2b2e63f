import dataclasses
import itertools

import numpy as np
import pytest

from iterreg import problems
from iterreg.oracles import _regularized_system
from iterreg.problems import (
    ConvexityBounds,
    KernelProblem,
    LogisticProblem,
    QuadraticProblem,
    Regularizer,
    convexity_bounds,
    eval_loss_grad,
    make_rotated_quadratic,
    stochastic_grad,
    toy_problem,
)


def diag_problem():
    return QuadraticProblem(sigma=np.diag([0.1, 1.0]), a=np.array([0.1, 1.0]))


class TestRegularizer:
    def test_q_required_iff_generalized(self):
        # A penalty is (lam, Q) and nothing else: a given Q is the generalized
        # penalty, so no third field can disagree with it.
        assert [f.name for f in dataclasses.fields(Regularizer)] == ["lam", "Q"]
        reg = Regularizer.generalized_l2(0.1, np.eye(2))
        assert (reg.lam, reg.Q.tolist()) == (0.1, np.eye(2).tolist())

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            Regularizer.l2(-0.5)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(ValueError, match="finite"):
            Regularizer.l2(lam)

    def test_at_shares_the_checked_q(self):
        # A penalty family is one checked Q at many strengths: .at re-checks
        # lambda, never Q.
        base = Regularizer(0.0, np.array([[2.0, 0.5], [0.5, 1.0]]))
        reg = base.at(0.3)
        assert reg.lam == 0.3 and reg.Q is base.Q
        for lam in (np.nan, -1.0, np.inf):
            with pytest.raises(ValueError, match="finite"):
                base.at(lam)

    def test_l1_has_no_gradient(self):
        # l1 solutions come from the proximal oracle, never from a gradient: a
        # Regularizer has no kind that could name l1, only (lam, Q).
        assert [f.name for f in dataclasses.fields(Regularizer)] == ["lam", "Q"]
        with pytest.raises(TypeError):
            Regularizer("l1", 0.1, None)


    def test_step_gradient_and_oracle_system_read_one_penalty(self):
        # The step loop's gradient and the oracles' regularized system read the
        # same (lam, Q): l2 at lam, generalized l2 at lam, and no penalty at
        # lam = 0 whatever Q a PGD run carries there.
        rng = np.random.default_rng(9)
        prob = QuadraticProblem.from_data(rng.standard_normal((12, 3)),
                                          rng.standard_normal((12, 2)))
        m = rng.standard_normal((3, 3))
        q = m @ m.T + np.eye(3)
        w = rng.standard_normal(prob.param_dim)
        for reg in (Regularizer(0.5), Regularizer(0.5, q), Regularizer(0.0, q)):
            want = _regularized_system(prob, reg) @ w.reshape(3, 2) - prob.a
            np.testing.assert_allclose(problems._objective_grad(prob, reg)(w), want.ravel(),
                                       rtol=1e-13, atol=1e-14)


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
        w_hat = np.linalg.solve(prob.sigma + 0.1 * np.eye(2), prob.a).ravel()
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

    def test_duplicated_column_refused(self):
        # Sigma has rank 5 in 6 dimensions; its smallest eigenvalue is rounding,
        # of either sign, far below the rank tolerance max eig * d * eps.
        x = np.random.default_rng(0).uniform(0.0, 1.0, size=(40, 5))
        with pytest.raises(ValueError, match="rank tolerance"):
            QuadraticProblem.from_data(np.hstack([x, x[:, :1]]), np.ones(40))

    def test_raw_data_consistency_enforced(self):
        # Raw data comes only through from_data, which forms the moments from
        # it, so no problem holds data that disagrees with its moments.
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 2))
        y = rng.standard_normal((6, 1))
        with pytest.raises(TypeError):
            QuadraticProblem(sigma=np.eye(2), a=x.T @ y / 6, X=x, Y=y)
        with pytest.raises(ValueError, match="row counts"):
            QuadraticProblem.from_data(x, y[:5])
        prob = QuadraticProblem.from_data(x, y)
        assert prob.sigma.tobytes() == (x.T @ x / 6).tobytes()
        assert prob.a.tobytes() == (x.T @ y / 6).tobytes()
        assert prob.X.tobytes() == x.tobytes() and prob.Y.shape == (6, 1)


def mnist_width_data(rng, n=600, d=512, c=10):
    """Uniform features and one-hot labels at MNIST's output count."""
    return rng.uniform(0, 1, size=(n, d)), np.eye(c)[rng.integers(0, c, size=n)]


def softmax_grad_written_out(x, y, mat, ridge):
    """x^T (P - Y) / n + ridge W, with P the row softmax of x W."""
    logits = x @ mat
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    return x.T @ (probs - y) / x.shape[0] + ridge * mat


def assert_within_ulps(got, want, scale, ulps=4):
    # Another BLAS kernel may round a product differently, by an ulp or two of
    # the largest |terms| sum, so a few ulps of that scale and not byte equality.
    assert np.abs(got - want).max() <= ulps * np.finfo(np.float64).eps * scale


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
    x, y = mnist_width_data(rng)
    wide_quad = QuadraticProblem.from_data(x, y)
    wide_logi = LogisticProblem(X=x, Y=y, base_ridge=1.0)
    wide_q = wide_quad.sigma + np.eye(wide_quad.d)
    cases = [
        (quad, Regularizer.none()),
        (quad, Regularizer.l2(0.3)),
        (quad, Regularizer.generalized_l2(0.2, q)),
        (logi, Regularizer.none()),
        (logi, Regularizer.l2(0.5)),
        (wide_quad, Regularizer.none()),
        (wide_quad, Regularizer.generalized_l2(0.2, wide_q)),
        (wide_logi, Regularizer.l2(0.5)),
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
        if getattr(prob, "X", None) is not None:
            # The rows route over every sample is the same objective's gradient.
            rows = problems._objective_grad(prob, reg)(w, np.arange(prob.n_samples))
            np.testing.assert_allclose(rows, grad, rtol=1e-12, atol=1e-12)

    # At MNIST width the gradients also meet the written-out (d, c) formulas,
    # Sigma W - a (for two seeds' matrices side by side too) and the softmax's
    # X^T (P - Y) / n + base_ridge W.
    d, c = wide_quad.d, wide_quad.n_outputs
    sigma, a = wide_quad.sigma, wide_quad.a
    for seeds in (1, 2):
        w = rng.standard_normal(d * seeds * c)
        mat = w.reshape(d, seeds, c)
        want = np.stack([sigma @ mat[:, s] - a for s in range(seeds)], axis=1)
        scale = (np.abs(sigma) @ np.abs(w.reshape(d, -1))).max() + np.abs(a).max()
        assert_within_ulps(wide_quad.grad(w), want.ravel(), scale)
    w = rng.standard_normal(d * c)
    mat = w.reshape(d, c)
    want = sigma @ mat - a + 0.2 * (wide_q @ mat)
    scale = ((np.abs(sigma) + 0.2 * np.abs(wide_q)) @ np.abs(mat)).max() + np.abs(a).max()
    assert_within_ulps(eval_loss_grad(wide_quad, Regularizer.generalized_l2(0.2, wide_q),
                                      w)[1], want.ravel(), scale)
    # With rows, the quadratic's gradient is x_b^T (x_b W - Y_b) / b over those rows.
    rows = rng.integers(0, x.shape[0], size=500)
    xb, yb = x[rows], y[rows]
    scale = (np.abs(xb.T) @ (np.abs(xb) @ np.abs(mat) + yb)).max() / 500
    assert_within_ulps(wide_quad.grad(w, rows), (xb.T @ (xb @ mat - yb) / 500).ravel(), scale)
    # x in [0, 1] and |p - y| <= 1, so no data term exceeds 1 in size.
    assert_within_ulps(wide_logi.grad(w), softmax_grad_written_out(x, y, mat, 1.0).ravel(),
                       1.0 + np.abs(mat).max())


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
        # MNIST width, c = 10: the full batch is still the full gradient, and a
        # mini-batch meets x_b^T (x_b W - Y_b) / b and x_b^T (P_b - Y_b) / b + ridge W.
        x, y = mnist_width_data(rng)
        quad = QuadraticProblem.from_data(x, y)
        logi = LogisticProblem(X=x, Y=y, base_ridge=0.5)
        w = rng.standard_normal(quad.param_dim)
        mat = w.reshape(quad.d, quad.n_outputs)
        for prob in (quad, logi):
            np.testing.assert_array_equal(stochastic_grad(prob, reg, w, np.arange(600)),
                                          eval_loss_grad(prob, reg, w)[1])
        # The softmax gradient is one formula: rows naming every sample give its bytes.
        np.testing.assert_array_equal(logi.grad(w, np.arange(600)), logi.grad(w))
        batch = rng.integers(0, 600, size=500)
        xb, yb = x[batch], y[batch]
        scale = (np.abs(xb.T) @ (np.abs(xb) @ np.abs(mat) + yb)).max() / 500
        assert_within_ulps(stochastic_grad(quad, Regularizer.none(), w, batch),
                           (xb.T @ (xb @ mat - yb) / 500).ravel(), scale)
        assert_within_ulps(stochastic_grad(logi, Regularizer.none(), w, batch),
                           softmax_grad_written_out(xb, yb, mat, 0.5).ravel(),
                           1.0 + 0.5 * np.abs(mat).max())

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
        with pytest.raises(ValueError, match="raw data"):
            diag_problem().grad(np.zeros(2), [0])

    def test_bad_indices_rejected(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, size=(4, 2))
        prob = QuadraticProblem.from_data(x, rng.standard_normal((4, 1)))
        with pytest.raises(ValueError):
            stochastic_grad(prob, Regularizer.none(), np.zeros(2), [4])
        # An empty mini-batch is refused by name, not averaged into 0/0 = NaN.
        logi = LogisticProblem(X=x, Y=np.eye(2)[[0, 1, 1, 0]], base_ridge=1.0)
        for problem in (prob, logi):
            with pytest.raises(ValueError, match="rows"):
                problem.grad(np.zeros(problem.param_dim), np.array([], dtype=np.intp))


class TestConvexityBounds:
    def test_plain_quadratic_extreme_eigenvalues(self):
        b = convexity_bounds(diag_problem())
        assert abs(b.alpha - 0.1) < 1e-14 and abs(b.beta - 1.0) < 1e-14

    def test_quadratic_spectrum_computed_once(self, monkeypatch):
        # The definiteness check's eigenvalues serve the bounds too.
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(1) or eigvalsh(m))
        x = np.random.default_rng(8).uniform(0, 1, size=(40, 6))
        prob = QuadraticProblem.from_data(x, np.ones(40))
        b = convexity_bounds(prob)
        assert len(calls) == 1
        assert (b.alpha, b.beta) == (prob.eigenvalues.min(), prob.eigenvalues.max())
        assert not prob.eigenvalues.flags.writeable

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
    def test_zero_rotation_is_diagonal(self):
        prob = make_rotated_quadratic((0.1, 1.0), 0.0, (1.0, 1.0))
        np.testing.assert_allclose(prob.sigma, np.diag([0.1, 1.0]), atol=1e-15)

    def test_paper_toy_minimizer(self):
        prob = toy_problem()
        np.testing.assert_allclose(prob.minimizer(), [1.0, 1.0], atol=1e-12)


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

    @pytest.mark.parametrize("gram, message", [
        (np.ones((2, 3)), "square"),
        (np.array([[1.0, 0.5], [0.0, 1.0]]), "symmetric"),
    ])
    def test_non_square_or_asymmetric_gram_rejected(self, gram, message):
        with pytest.raises(ValueError, match=message):
            KernelProblem(K=gram, y=np.zeros(2))

    def test_indefinite_gram_rejected(self):
        with pytest.raises(ValueError, match="semi-definite"):
            KernelProblem(K=np.diag([1.0, -0.5]), y=np.zeros(2))

    def test_generic_gradient_refuses_kernels(self):
        # Kernel paths step in the Gram eigenbasis, in kernel_gd_run only.
        kern = KernelProblem(K=np.eye(3), y=np.ones(3))
        with pytest.raises(ValueError, match="kernel_gd_run"):
            eval_loss_grad(kern, Regularizer.none(), np.zeros(3))

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
