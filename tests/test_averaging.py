import csv
import decimal

import numpy as np
import pytest

from iterreg.averaging import (
    DegenerateSchemeError,
    RunningAverage,
    WeightScheme,
    averaged_path,
    scheme_to_csv,
    weights_general,
    weights_geometric,
    weights_kernel,
    weights_nsgd,
    weights_sgd_adaptive,
)
from iterreg.optimizers import make_schedule, sgd_run
from iterreg.problems import KernelProblem, Regularizer, toy_problem


class TestSgdAdaptiveScheme:
    def test_constant_rate_values(self):
        eta, lam = 0.1, 0.1
        gamma = eta / (1 + lam * eta)
        scheme = weights_sgd_adaptive(eta, lam, 9)
        # independent evaluation of 1 - (1 - lam*gamma)^(k+1)
        assert abs(scheme.P(0) - lam * gamma) < 1e-16
        assert abs(scheme.P(9) - (1 - (1 - lam * gamma) ** 10)) < 1e-15

    def test_adaptive_rates_product(self):
        lam = 0.1
        etas = [0.1, 0.05]
        g0 = 0.1 / (1 + lam * 0.1)
        g1 = 0.05 / (1 + lam * 0.05)
        expected_p1 = 1 - (1 - lam * g0) * (1 - lam * g1)
        scheme = weights_sgd_adaptive(etas, lam, 5)
        assert abs(scheme.P(1) - expected_p1) < 1e-15

    def test_huge_lambda_puts_mass_on_first_iterate(self):
        scheme = weights_sgd_adaptive(0.1, 1e7, 5)
        assert scheme.P(0) > 0.999

    def test_zero_lambda_rejected(self):
        with pytest.raises(DegenerateSchemeError):
            weights_sgd_adaptive(0.1, 0.0, 5)

    def test_coupled_schedule_lambda_must_agree(self):
        sched = make_schedule(0.1, lam=0.3)
        with pytest.raises(ValueError, match="coupled"):
            weights_sgd_adaptive(sched, 0.1, 5)


def test_cumulative_relative_accuracy():
    """P_K against 60-digit decimal arithmetic on the same float inputs.

    A cumsum of K + 1 logs carries an error of about K * eps / 4, which
    puts the bound at 1e-13 for K = 2000."""
    D = decimal.Decimal
    worst = {}
    with decimal.localcontext(decimal.Context(prec=60)):
        for lam in np.logspace(-12, 3, 16):
            for eta in (0.1, 0.01):
                gamma = eta / (1 + lam * eta)
                for K in (1, 500, 2000):
                    cases = [(weights_sgd_adaptive, (eta, lam, K), 1 / (1 + D(lam) * D(eta))),
                             (weights_general, (eta, gamma, K), D(gamma) / D(eta))]
                    for build, args, ratio in cases:
                        expected = float(1 - ratio ** (K + 1))
                        if build is weights_general and expected < 1e-6:
                            continue  # refused as ill-conditioned
                        err = abs(build(*args).P(K) - expected) / expected
                        worst[build.__name__] = max(worst.get(build.__name__, 0.0), err)
    assert set(worst) == {"weights_sgd_adaptive", "weights_general"}
    assert max(worst.values()) <= 1e-13, worst


class TestNsgdScheme:
    def test_toy_values(self):
        eta, lam, alpha = 0.1, 0.1, 0.05
        gamma = eta / (1 + lam * eta)
        decay = (1 - np.sqrt(gamma * (alpha + lam))) / (1 - np.sqrt(eta * alpha))
        scheme = weights_nsgd(eta, lam, alpha, 10)
        assert abs(decay - 0.9449514911748493) < 1e-12
        assert abs(scheme.params["decay"] - decay) < 1e-15
        assert scheme.P(0) == 0.0
        assert abs(scheme.P(1) - (1 - gamma / eta)) < 1e-15
        assert abs(scheme.P(2) - (1 - (gamma / eta) * decay)) < 1e-15

    def test_limit_reaches_one(self):
        scheme = weights_nsgd(0.1, 0.1, 0.05, 2000)
        assert scheme.P(500) > 1 - 1e-10
        assert scheme.P(2000) <= 1.0

    def test_zero_lambda_rejected(self):
        with pytest.raises(DegenerateSchemeError):
            weights_nsgd(0.1, 0.0, 0.05, 5)

    def test_rate_alpha_window_enforced(self):
        with pytest.raises(ValueError):
            weights_nsgd(2.0, 0.1, 0.5, 5)


class TestGeneralScheme:
    def test_powers_of_ratio(self):
        scheme = weights_general(0.2, 0.1, 2)
        np.testing.assert_allclose(scheme.cumulative, [0.5, 0.75, 0.875], atol=1e-15)

    def test_tiny_ratio_concentrates_on_first(self):
        scheme = weights_general(1.0, 1e-9, 3)
        assert scheme.P(0) > 1 - 1e-8

    def test_ratio_one_rejected(self):
        with pytest.raises(ValueError):
            weights_general(0.1, 0.1, 5)

    def test_ill_conditioned_flagged(self):
        with pytest.raises(DegenerateSchemeError, match="ill-conditioned"):
            weights_general(0.1, 0.1 * (1 - 1e-12), 100)


class TestKernelScheme:
    def test_per_eigen_first_step(self):
        kern = KernelProblem(K=np.diag([3.0, 1.0]), y=np.zeros(2))
        scheme = weights_kernel(kern, 0.1, 0.0, 1.0, 4)
        # 1 - 1/(1 + (lam_hat-lam) * eta * mu), evaluated by hand
        p0 = sorted(scheme.cumulative[0])
        assert abs(p0[1] - (1 - 1 / 1.3)) < 1e-15
        assert abs(p0[0] - (1 - 1 / 1.1)) < 1e-15

    def test_null_eigenvalue_never_regularizes(self):
        kern = KernelProblem(K=np.diag([2.0, 0.0]), y=np.zeros(2))
        scheme = weights_kernel(kern, 0.1, 0.0, 1.0, 50)
        j = int(np.argmin(kern.eigenvalues))
        assert np.all(scheme.cumulative[:, j] == 0.0)

    def test_huge_gap_saturates(self):
        kern = KernelProblem(K=np.diag([3.0, 1.0]), y=np.zeros(2))
        scheme = weights_kernel(kern, 0.1, 0.0, 1e9, 1)
        assert scheme.cumulative[0].min() > 1 - 1e-7

    def test_ordering_enforced(self):
        kern = KernelProblem(K=np.diag([1.0, 2.0]), y=np.zeros(2))
        with pytest.raises(ValueError, match="lam_hat"):
            weights_kernel(kern, 0.1, 1.0, 0.5, 4)

    def test_commutes_with_gram_matrix(self):
        rng = np.random.default_rng(0)
        basis, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        mu = rng.uniform(0.1, 2.0, 6)
        gram = basis @ np.diag(mu) @ basis.T
        kern = KernelProblem(K=0.5 * (gram + gram.T), y=rng.standard_normal(6))
        scheme = weights_kernel(kern, 0.1, 0.0, 1.0, 10)
        for k in (0, 3, 10):
            dense = kern.basis @ np.diag(scheme.cumulative[k]) @ kern.basis.T
            comm = dense @ kern.K - kern.K @ dense
            assert np.abs(comm).max() <= 1e-10


class TestGeometricScheme:
    def test_renormalized_weights(self):
        scheme = weights_geometric(0.5, 2)
        np.testing.assert_allclose(scheme.increments, [4 / 7, 2 / 7, 1 / 7],
                                   atol=1e-15)
        assert abs(scheme.P(2) - 1.0) < 1e-15

    def test_success_probability_one_limit(self):
        scheme = weights_geometric(1 - 1e-12, 5)
        assert scheme.increments[0] > 1 - 1e-11

    def test_checkpoint_grid_values_accepted(self):
        for p in (0.9999, 0.999, 0.99, 0.9):
            weights_geometric(p, 239)

    def test_out_of_range_rejected(self):
        for p in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                weights_geometric(p, 5)


class TestSchemeTails:
    def test_geometric_tail_rates(self):
        K = 200
        eta, lam, alpha = 0.1, 0.1, 0.05
        gamma = eta / (1 + lam * eta)
        sgd = weights_sgd_adaptive(eta, lam, K)
        rho = 1 - lam * gamma
        assert 1 - sgd.P(K) <= rho**K * (1 + 1e-12)
        nsgd = weights_nsgd(eta, lam, alpha, K)
        decay = nsgd.params["decay"]
        assert 1 - nsgd.P(K) <= (gamma / eta) / decay * decay**K * (1 + 1e-12)
        gen = weights_general(eta, gamma, K)
        assert 1 - gen.P(K) <= (gamma / eta) ** K * (1 + 1e-12)
        for scheme in (sgd, nsgd, gen):
            assert np.all(np.diff(scheme.cumulative) >= -1e-15)
            assert scheme.cumulative.max() <= 1.0 + 1e-12


class TestRunningAverage:
    def test_single_iterate(self):
        scheme = WeightScheme.from_cumulative([0.3, 0.6, 1.0])
        avg = RunningAverage(scheme).update(np.array([2.0, -1.0]))
        np.testing.assert_allclose(avg.finalize(), [2.0, -1.0], atol=1e-16)

    def test_two_equal_weights_are_arithmetic_mean(self):
        scheme = WeightScheme.from_cumulative([0.5, 1.0])
        state = RunningAverage(scheme)
        state.update(np.zeros(2))
        state.update(np.array([4.0, 4.0]))
        np.testing.assert_allclose(state.finalize(), [2.0, 2.0], atol=1e-15)

    def test_streaming_matches_batch_recomputation(self):
        prob = toy_problem()
        lam, steps = 0.1, 500
        sched = make_schedule(0.1, lam=lam)
        rec = sgd_run(prob, Regularizer.none(), sched, steps)
        scheme = weights_sgd_adaptive(sched, lam, steps)
        state = RunningAverage(scheme)
        for w in rec.iterates:
            state = state.update(w)
        # direct weighted sum, computed independently
        direct = (scheme.increments[:, None] * rec.iterates).sum(axis=0)
        direct /= scheme.P(steps)
        np.testing.assert_allclose(state.finalize(), direct, atol=1e-12)
        np.testing.assert_allclose(averaged_path(rec, scheme)[-1], direct,
                                   atol=1e-12)

    def test_kernel_scheme_matches_averaged_path(self):
        kern = _null_eigen_kernel(40, 1)
        scheme = weights_kernel(kern, 0.1, 0.0, 2.0, 200)
        x = np.random.default_rng(2).standard_normal((201, 40))
        state = RunningAverage(scheme)
        for w in x:
            state.update(w)
        final = state.finalize()
        np.testing.assert_allclose(final, averaged_path(x, scheme)[-1], rtol=0, atol=1e-12)
        null = kern.basis[:, np.argmin(kern.eigenvalues)]
        assert abs(final @ null) <= 1e-12

    def test_out_of_order_rejected(self):
        scheme = WeightScheme.from_cumulative([0.5, 1.0])
        state = RunningAverage(scheme)
        with pytest.raises(ValueError, match="out-of-order"):
            state.update(np.zeros(1), k=1)

    def test_zero_mass_finalize_rejected(self):
        scheme = WeightScheme.from_cumulative([0.0, 1.0])
        state = RunningAverage(scheme).update(np.ones(1))
        with pytest.raises(ValueError, match="zero"):
            state.finalize()

    def test_more_updates_than_horizon_rejected(self):
        scheme = WeightScheme.from_cumulative([1.0])
        state = RunningAverage(scheme).update(np.ones(1))
        with pytest.raises(ValueError, match="horizon"):
            state.update(np.ones(1))


def _same_bits(a, b):
    """Equal bit for bit: unlike np.array_equal, -0.0 differs from 0.0."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _averaged_path_reference(x, scheme):
    """The prefix-sum formula averaged_path computes, written out directly."""
    steps = x.shape[0] - 1
    p_cum = scheme.cumulative[: steps + 1]
    weighted = np.cumsum(scheme.increments[: steps + 1, None] * x, axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(p_cum[:, None] > 0,
                        weighted / np.where(p_cum > 0, p_cum, 1.0)[:, None], 0.0)


def _null_eigen_kernel(n, seed):
    """Full-rank Gram matrix on n - 1 coordinates plus an exact zero eigenvalue."""
    a = np.random.default_rng(seed).standard_normal((n - 1, n - 1))
    gram = np.zeros((n, n))
    gram[:-1, :-1] = a @ a.T / n
    return KernelProblem(K=0.5 * (gram + gram.T), y=np.zeros(n))


def _per_eigen_reference(x, scheme):
    """(cumsum(p_inc * (x @ U)) / P) @ U.T, zero where P = 0, written out directly."""
    steps = x.shape[0] - 1
    p_cum = scheme.cumulative[: steps + 1]
    weighted = np.cumsum(scheme.increments[: steps + 1] * (x @ scheme.basis), axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        avg = np.where(p_cum > 0, weighted / np.where(p_cum > 0, p_cum, 1.0), 0.0)
    return avg @ scheme.basis.T


def _wide_per_eigen_scheme(steps, m=600, seed=5):
    """A per-eigenvalue scheme wide enough for the row loop, one column dead."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((m, m)))
    p_cum = np.sort(rng.uniform(0, 1, size=(steps + 1, m)), axis=0)
    p_cum[:, 7] = 0.0
    return WeightScheme.from_cumulative(p_cum, basis=basis)


class TestAveragedPathKernel:
    """Wide rows take a row-by-row prefix sum, narrow rows np.cumsum; both
    must equal the direct formula bit for bit, zero-weight entries as +0.0."""

    SCHEMES = {
        "sgd-adaptive": lambda steps: weights_sgd_adaptive(0.1, 0.3, steps),
        "nsgd": lambda steps: weights_nsgd(0.1, 0.3, 0.2, steps),
    }

    @pytest.mark.parametrize("shape", [(301, 1024), (501, 2)])
    @pytest.mark.parametrize("kind", sorted(SCHEMES))
    def test_bit_identical_to_formula(self, shape, kind):
        scheme = self.SCHEMES[kind](shape[0] - 1)
        x = np.random.default_rng(shape[1]).standard_normal(shape)
        before = x.copy()
        avg = averaged_path(x, scheme)
        assert _same_bits(avg, _averaged_path_reference(x, scheme))
        assert np.array_equal(x, before)
        if kind == "nsgd":  # P_0 = 0 leaves the first average at zero
            assert scheme.P(0) == 0.0 and not avg[0].any()

    @pytest.mark.parametrize("kind", ["kernel", "wide"])
    def test_per_eigenvalue_bit_identical_to_formula(self, kind):
        if kind == "kernel":
            scheme = weights_kernel(_null_eigen_kernel(200, 0), 0.1, 0.0, 2.0, 300)
            assert (scheme.cumulative == 0.0).all(axis=0).sum() == 1
        else:
            scheme = _wide_per_eigen_scheme(300)
        width = scheme.basis.shape[0]
        x = np.random.default_rng(width).standard_normal((301, width))
        before = x.copy()
        assert _same_bits(averaged_path(x, scheme), _per_eigen_reference(x, scheme))
        assert np.array_equal(x, before)

    def test_one_dimensional_path(self):
        scheme = self.SCHEMES["nsgd"](40)
        x = np.random.default_rng(3).standard_normal(41)
        before = x.copy()
        avg = averaged_path(x, scheme)
        assert avg.shape == (41, 1)
        assert _same_bits(avg, _averaged_path_reference(x[:, None], scheme))
        assert np.array_equal(x, before)


class TestMixingIdentityProperty:
    """For any scheme and any pair built from the increment relation
    new_hat - hat = (1 - P_k)(new - old), the mixing identity
    P_k (x_k - xavg_k) = x_k - xhat_k holds exactly."""

    def test_scalar_schemes(self):
        rng = np.random.default_rng(123)
        worst = 0.0
        for _ in range(500):
            steps = int(rng.integers(3, 40))
            dim = int(rng.integers(1, 4))
            p_cum = np.sort(rng.uniform(0, 1, size=steps + 1))
            scheme = WeightScheme.from_cumulative(p_cum)
            increments = rng.standard_normal((steps, dim))
            x = np.vstack([np.zeros(dim), np.cumsum(increments, axis=0)])
            x_hat = np.zeros_like(x)
            for k in range(steps):
                x_hat[k + 1] = x_hat[k] + (1 - p_cum[k]) * (x[k + 1] - x[k])
            avg = averaged_path(x, scheme)
            residual = p_cum[:, None] * (x - avg) - (x - x_hat)
            worst = max(worst, float(np.abs(residual).max()))
        assert worst <= 1e-10

    def test_matrix_weights_in_eigenbasis(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            steps, dim = 25, 3
            basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            p_cum = np.sort(rng.uniform(0, 1, size=(steps + 1, dim)), axis=0)
            scheme = WeightScheme.from_cumulative(p_cum, basis=basis)
            increments = rng.standard_normal((steps, dim))
            x = np.vstack([np.zeros(dim), np.cumsum(increments, axis=0)])
            x_e = x @ basis
            x_hat_e = np.zeros_like(x_e)
            for k in range(steps):
                x_hat_e[k + 1] = x_hat_e[k] + (1 - p_cum[k]) * (x_e[k + 1] - x_e[k])
            avg_e = averaged_path(x, scheme) @ basis
            residual = p_cum * (x_e - avg_e) - (x_e - x_hat_e)
            assert np.abs(residual).max() <= 1e-10


def test_scheme_csv_round_trip(tmp_path):
    scheme = weights_sgd_adaptive(0.1, 0.1, 5)
    path = tmp_path / "scheme.csv"
    scheme_to_csv(scheme, str(path))
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "p_k", "P_k"]
    parsed = np.array([[float(r[1]), float(r[2])] for r in rows[1:]])
    np.testing.assert_array_equal(parsed[:, 0], scheme.increments)
    np.testing.assert_array_equal(parsed[:, 1], scheme.cumulative)


def test_kernel_scheme_csv_long_format(tmp_path):
    kern = KernelProblem(K=np.diag([2.0, 1.0]), y=np.zeros(2))
    scheme = weights_kernel(kern, 0.1, 0.0, 1.0, 2)
    path = tmp_path / "kscheme.csv"
    scheme_to_csv(scheme, str(path))
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "eig_index", "p_k", "P_k"]
    assert len(rows) == 1 + 3 * 2


def test_invalid_cumulative_rejected():
    with pytest.raises(ValueError):
        WeightScheme.from_cumulative([0.2, 0.1])
    with pytest.raises(ValueError):
        WeightScheme.from_cumulative([0.2, 1.5])
    with pytest.raises(ValueError):
        WeightScheme.from_cumulative([[0.1], [0.5]])  # matrix without basis
