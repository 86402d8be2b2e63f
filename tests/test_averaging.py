import csv
import decimal

import numpy as np
import pytest

from iterreg.averaging import (
    _BLOCK_ROWS,
    _ROW_LOOP_MIN_WIDTH,
    DegenerateSchemeError,
    RunningAverage,
    WeightScheme,
    averaged_path,
    scheme_to_csv,
    weights_kernel,
    weights_nsgd,
    weights_sgd_adaptive,
)
from iterreg.optimizers import LRSchedule, kernel_gd_run, make_schedule, sgd_run
from iterreg.oracles import bounding_sequences, identity_check
from iterreg.problems import (ConvexityBounds, KernelProblem, QuadraticProblem, Regularizer,
                              toy_problem)


class TestSgdAdaptiveScheme:
    def test_constant_rate_values(self):
        eta, lam = 0.1, 0.1
        gamma = eta / (1 + lam * eta)
        scheme = weights_sgd_adaptive(eta, lam, 9)
        # independent evaluation of 1 - (1 - lam*gamma)^(k+1)
        assert abs(scheme.cumulative[0] - lam * gamma) < 1e-16
        assert abs(scheme.cumulative[9] - (1 - (1 - lam * gamma) ** 10)) < 1e-15

    def test_adaptive_rates_product(self):
        lam = 0.1
        etas = [0.1, 0.05]
        g0 = 0.1 / (1 + lam * 0.1)
        g1 = 0.05 / (1 + lam * 0.05)
        expected_p1 = 1 - (1 - lam * g0) * (1 - lam * g1)
        scheme = weights_sgd_adaptive(etas, lam, 5)
        assert abs(scheme.cumulative[1] - expected_p1) < 1e-15

    def test_huge_lambda_puts_mass_on_first_iterate(self):
        scheme = weights_sgd_adaptive(0.1, 1e7, 5)
        assert scheme.cumulative[0] > 0.999

    def test_zero_lambda_rejected(self):
        with pytest.raises(DegenerateSchemeError):
            weights_sgd_adaptive(0.1, 0.0, 5)


@pytest.mark.parametrize("build", [
    lambda K: weights_sgd_adaptive(0.1, 0.3, K),
    lambda K: weights_sgd_adaptive(0.1, [0.0, 0.3], K, basis=np.eye(2)),
    lambda K: weights_nsgd(0.1, 0.3, 0.2, K),
], ids=["sgd-adaptive", "per-eigenvalue", "nsgd"])
@pytest.mark.parametrize("bad", [2.5, -1, True, np.float64(3.0), "3", None])
def test_horizon_must_be_a_nonnegative_integer(build, bad):
    with pytest.raises(ValueError, match="horizon K"):
        build(bad)
    assert _same_bits(build(np.int64(3)).cumulative, build(3).cumulative)
    assert build(0).horizon == 0


def test_cumulative_is_read_only():
    # P is checked once for [0, 1] and monotonicity, so no later write may break it.
    for scheme in (weights_sgd_adaptive(0.1, 0.3, 5),
                   weights_sgd_adaptive(0.1, [0.0, 0.3], 5, basis=np.eye(2)),
                   weights_nsgd(0.1, 0.3, 0.2, 5), WeightScheme(np.array([0.5, 1.0]))):
        with pytest.raises(ValueError, match="read-only"):
            scheme.cumulative[0] = 2.0


def test_cumulative_relative_accuracy():
    """P_K against 60-digit decimal arithmetic on the same float inputs.

    Each log sum is formed in closed form, (K + 1) log r for a constant rate and
    q S_T + S_{j+1} over a period of T rates, so it is rounded a few times, not
    K times as a cumulative sum is; with log1p and expm1 each within an ulp, P_K
    keeps a relative error of a few eps, for lambda from 1e-12 to 1e3 and K up
    to 2000."""
    D = decimal.Decimal
    cyclic, alpha = [0.2, 0.1, 0.05], 0.05
    worst = {}
    with decimal.localcontext(decimal.Context(prec=60)):
        for lam in np.logspace(-12, 3, 16):
            for eta in (0.1, 0.01):
                gamma = eta / (1 + lam * eta)
                for K in (1, 500, 2000):
                    ratios = [1 / (1 + D(lam) * D(e)) for e in cyclic]
                    nsgd = weights_nsgd(eta, lam, alpha, K)
                    cases = {
                        "lambda": (weights_sgd_adaptive(eta, lam, K),
                                   (1 / (1 + D(lam) * D(eta))) ** (K + 1)),
                        "gamma/eta": (_general(eta, gamma, K), (D(gamma) / D(eta)) ** (K + 1)),
                        "cyclic": (weights_sgd_adaptive(cyclic, lam, K),
                                   (ratios[0] * ratios[1] * ratios[2]) ** ((K + 1) // 3)
                                   * [1, ratios[0], ratios[0] * ratios[1]][(K + 1) % 3]),
                        "nsgd": (nsgd, D(nsgd.params["decay"]) ** (K - 1)
                                 / (1 + D(lam) * D(eta))),
                    }
                    for form, (scheme, product) in cases.items():
                        expected = float(1 - product)
                        got = scheme.cumulative[K]
                        worst[form] = max(worst.get(form, 0.0), abs(got - expected) / expected)
    assert set(worst) == {"lambda", "gamma/eta", "cyclic", "nsgd"}
    assert max(worst.values()) <= 1e-15, worst


class TestNsgdScheme:
    def test_toy_values(self):
        eta, lam, alpha = 0.1, 0.1, 0.05
        gamma = eta / (1 + lam * eta)
        decay = (1 - np.sqrt(gamma * (alpha + lam))) / (1 - np.sqrt(eta * alpha))
        scheme = weights_nsgd(eta, lam, alpha, 10)
        assert abs(decay - 0.9449514911748493) < 1e-12
        assert abs(scheme.params["decay"] - decay) < 1e-15
        assert scheme.cumulative[0] == 0.0
        assert abs(scheme.cumulative[1] - (1 - gamma / eta)) < 1e-15
        assert abs(scheme.cumulative[2] - (1 - (gamma / eta) * decay)) < 1e-15

    def test_limit_reaches_one(self):
        scheme = weights_nsgd(0.1, 0.1, 0.05, 2000)
        assert scheme.cumulative[500] > 1 - 1e-10
        assert scheme.cumulative[2000] <= 1.0

    def test_zero_lambda_rejected(self):
        with pytest.raises(DegenerateSchemeError):
            weights_nsgd(0.1, 0.0, 0.05, 5)

    def test_rate_alpha_window_enforced(self):
        with pytest.raises(ValueError):
            weights_nsgd(2.0, 0.1, 0.5, 5)


def _general(eta, gamma, K):
    """The scheme of a general-loss pair: lambda = (eta - gamma) / (eta gamma)
    makes the ratio gamma / eta, and eta - gamma is exact for gamma near eta."""
    return weights_sgd_adaptive(eta, (eta - gamma) / (eta * gamma), K)


class TestGeneralScheme:
    def test_powers_of_ratio(self):
        scheme = _general(0.2, 0.1, 2)
        np.testing.assert_allclose(scheme.cumulative, [0.5, 0.75, 0.875], atol=1e-15)

    def test_tiny_ratio_concentrates_on_first(self):
        scheme = _general(1.0, 1e-9, 3)
        assert scheme.cumulative[0] > 1 - 1e-8

    def test_ratio_one_rejected(self):
        with pytest.raises(ValueError):
            _general(0.1, 0.1, 5)

    def test_ill_conditioned_flagged(self):
        # P_K near 1e-10 after 100 steps: bounding_sequences refuses to average
        prob = QuadraticProblem(sigma=np.diag([0.5, 0.5]), a=np.array([1.0, 0.5]))
        with pytest.raises(DegenerateSchemeError, match="ill-conditioned"):
            bounding_sequences(prob, ConvexityBounds(0.5, 0.5), 0.1, 0.1 * (1 - 1e-12),
                               1.0, 1.0, steps=100)


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

    def test_rounding_negative_eigenvalues_get_no_weight(self):
        # a rank-5 linear Gram matrix of 30 points: 25 eigenvalues within 1e-14 of 0
        x = np.random.default_rng(0).standard_normal((30, 5)) / np.sqrt(30)
        kern = KernelProblem(K=x @ x.T, y=np.ones(30))
        null, neg = kern.eigenvalues < 1e-10, kern.eigenvalues < 0
        assert null.sum() == 25 and neg.any()
        scheme = weights_kernel(kern, 0.1, 0.0, 1.0, 40)
        assert _same_bits(scheme.cumulative[:, neg], np.zeros((41, neg.sum())))
        assert scheme.cumulative[:, null].max() <= 1e-12
        plain = kernel_gd_run(kern, make_schedule(0.1), 40)
        reg = kernel_gd_run(kern, make_schedule(0.1), 40, lam_hat=1.0)
        assert identity_check(plain, reg, scheme) <= 1e-9

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
    """Checkpoint weights p (1-p)^k are weights_sgd_adaptive's at
    lambda = p / ((1-p) eta), whose ratio 1 / (1 + lambda eta) is then 1 - p;
    the final average divides by P_K, so it is the truncated geometric mean."""

    def test_renormalized_weights(self):
        K = 30
        x = np.random.default_rng(0).standard_normal((K + 1, 5))
        for p in (0.5, 0.9, 0.99, 0.9999, 1 - 1e-12):
            for etas in ([0.1], [0.1, 0.05, 0.2]):
                lam = p / ((1 - p) * etas[0])
                if len(etas) == 1:
                    weights = p * (1 - p) ** np.arange(K + 1)
                else:  # the ratio follows each rate
                    r = 1 / (1 + lam * np.resize(etas, K + 1))
                    weights = np.cumprod(np.r_[1.0, r[:-1]]) * (1 - r)
                direct = weights @ x / weights.sum()
                final = averaged_path(x, weights_sgd_adaptive(etas, lam, K))[-1]
                assert np.abs(final - direct).max() <= 2e-15 * np.abs(direct).max()

    def test_checkpoint_grid_values_accepted(self):
        K, eta = 239, 0.1
        for p in (0.9999, 0.999, 0.99, 0.9):
            scheme = weights_sgd_adaptive(eta, p / ((1 - p) * eta), K)
            final = scheme.increments / scheme.cumulative[K]
            expected = (1 - p) ** np.arange(K + 1)
            # increments are differences of P, so each is exact to roundoff of 1
            assert np.isfinite(final).all() and abs(final.sum() - 1) <= 1e-14
            np.testing.assert_allclose(final, expected / expected.sum(), rtol=0, atol=2e-15)

    def test_success_probability_one_limit(self):
        p, eta = 1 - 1e-12, 0.1
        scheme = weights_sgd_adaptive(eta, p / ((1 - p) * eta), 5)
        assert scheme.increments[0] / scheme.cumulative[5] > 1 - 1e-11


class TestSchemeTails:
    def test_geometric_tail_rates(self):
        K = 200
        eta, lam, alpha = 0.1, 0.1, 0.05
        gamma = eta / (1 + lam * eta)
        sgd = weights_sgd_adaptive(eta, lam, K)
        rho = 1 - lam * gamma
        assert 1 - sgd.cumulative[K] <= rho**K * (1 + 1e-12)
        nsgd = weights_nsgd(eta, lam, alpha, K)
        decay = nsgd.params["decay"]
        assert 1 - nsgd.cumulative[K] <= (gamma / eta) / decay * decay**K * (1 + 1e-12)
        for scheme in (sgd, nsgd):
            assert np.all(np.diff(scheme.cumulative) >= -1e-15)
            assert scheme.cumulative.max() <= 1.0 + 1e-12


class TestRunningAverage:
    def test_single_iterate(self):
        scheme = WeightScheme([0.3, 0.6, 1.0])
        avg = RunningAverage(scheme).update(np.array([2.0, -1.0]))
        np.testing.assert_allclose(avg.finalize(), [2.0, -1.0], atol=1e-16)

    def test_two_equal_weights_are_arithmetic_mean(self):
        scheme = WeightScheme([0.5, 1.0])
        state = RunningAverage(scheme)
        state.update(np.zeros(2))
        state.update(np.array([4.0, 4.0]))
        np.testing.assert_allclose(state.finalize(), [2.0, 2.0], atol=1e-15)

    def test_streaming_matches_batch_recomputation(self):
        prob = toy_problem()
        lam, steps = 0.1, 500
        sched = make_schedule(0.1)
        rec = sgd_run(prob, Regularizer.none(), sched, steps)
        scheme = weights_sgd_adaptive(sched, lam, steps)
        state = RunningAverage(scheme)
        for w in rec.iterates:
            state = state.update(w)
        # direct weighted sum, computed independently
        direct = (scheme.increments[:, None] * rec.iterates).sum(axis=0)
        direct /= scheme.cumulative[steps]
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

    @pytest.mark.parametrize("kind", ["sgd-adaptive", "nsgd", "kernel"])
    def test_finalize_is_last_row_of_averaged_path(self, kind):
        # nsgd has P_0 = 0; the kernel scheme has a null eigenvalue.
        scheme = {"sgd-adaptive": lambda: weights_sgd_adaptive([0.1, 0.05], 0.3, 80),
                  "nsgd": lambda: weights_nsgd(0.1, 0.3, 0.2, 80),
                  "kernel": lambda: weights_kernel(_null_eigen_kernel(12, 4), 0.1, 0.0,
                                                   2.0, 80)}[kind]()
        x = np.random.default_rng(5).standard_normal((81, 12))
        state, w = RunningAverage(scheme), np.empty(12)
        for row in x:
            w[:] = row
            state.update(w)  # w is written again after every update
        w[:] = np.nan
        final = state.finalize()
        assert _same_bits(final, averaged_path(x, scheme)[-1])
        assert final.base is None  # not a view pinning the whole averaged path

    def test_out_of_order_rejected(self):
        scheme = WeightScheme([0.5, 1.0])
        state = RunningAverage(scheme)
        with pytest.raises(ValueError, match="out-of-order"):
            state.update(np.zeros(1), k=1)

    def test_zero_mass_finalize_rejected(self):
        scheme = WeightScheme([0.0, 1.0])
        state = RunningAverage(scheme).update(np.ones(1))
        with pytest.raises(ValueError, match="zero"):
            state.finalize()

    def test_more_updates_than_horizon_rejected(self):
        scheme = WeightScheme([1.0])
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
    return WeightScheme(p_cum, basis=basis)


def _staggered_per_eigen_scheme(steps, m=40, seed=6):
    """Two columns dead over prefixes of different lengths, so the rows and
    columns that hold a zero weight also hold live entries."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((m, m)))
    p_cum = np.sort(rng.uniform(0, 1, size=(steps + 1, m)), axis=0)
    p_cum[:10, 3] = 0.0
    p_cum[:4, 5] = 0.0
    return WeightScheme(p_cum, basis=basis)


class TestAveragedPathKernel:
    """Wide rows take one pass over blocks of rows, narrow rows np.cumsum; both
    must equal the direct formula bit for bit, zero-weight entries as +0.0."""

    SCHEMES = {
        "sgd-adaptive": lambda steps: weights_sgd_adaptive(0.1, 0.3, steps),
        "nsgd": lambda steps: weights_nsgd(0.1, 0.3, 0.2, steps),
        "cyclic": lambda steps: weights_sgd_adaptive([0.2, 0.1, 0.05], 0.3, steps),
    }

    # Beyond the first two: either side of the route switch, whole blocks only,
    # a partial last block, one row, and the benchmark's MNIST-size path.
    @pytest.mark.parametrize("shape", [
        (301, 1024), (501, 2), (301, _ROW_LOOP_MIN_WIDTH - 1),
        (40 * _BLOCK_ROWS, _ROW_LOOP_MIN_WIDTH), (40 * _BLOCK_ROWS + 3, _ROW_LOOP_MIN_WIDTH),
        (1, _ROW_LOOP_MIN_WIDTH), (501, 7840)])
    @pytest.mark.parametrize("kind", sorted(SCHEMES))
    def test_bit_identical_to_formula(self, shape, kind):
        scheme = self.SCHEMES[kind](shape[0] - 1)
        x = np.random.default_rng(shape[1]).standard_normal(shape)
        x[0, ::2] = -0.0  # signed zeros keep their sign where P_0 > 0
        before = x.copy()
        avg = averaged_path(x, scheme)
        assert _same_bits(avg, _averaged_path_reference(x, scheme))
        assert np.array_equal(x, before)
        if kind == "nsgd":  # P_0 = 0 leaves the first average at zero
            assert scheme.cumulative[0] == 0.0 and not avg[0].any()

    @pytest.mark.parametrize("kind", ["kernel", "wide", "staggered"])
    def test_per_eigenvalue_bit_identical_to_formula(self, kind):
        if kind == "kernel":
            scheme = weights_kernel(_null_eigen_kernel(200, 0), 0.1, 0.0, 2.0, 300)
            assert (scheme.cumulative == 0.0).all(axis=0).sum() == 1
        elif kind == "wide":
            scheme = _wide_per_eigen_scheme(300)
        else:
            scheme = _staggered_per_eigen_scheme(300)
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


def _random_kernel(n, seed):
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    gram = basis @ np.diag(rng.uniform(0.5, 2.0, n)) @ basis.T
    return KernelProblem(K=0.5 * (gram + gram.T), y=rng.standard_normal(n))


def _closed_form_cumulative(log_ratios_of, schedule, K):
    """P and p built row by row: step k = qT + j of a schedule with period T sums
    its log ratios as q S_T + S_{j+1}, S the running sum over one period, and a
    constant rate (T = 1) as (k + 1) log r."""
    etas = (schedule if isinstance(schedule, LRSchedule) else LRSchedule(schedule)).etas
    sums = np.cumsum(log_ratios_of(etas), axis=0)
    period = len(sums)
    log_sums = []
    for k in range(K + 1):
        q, j = divmod(k, period)
        log_sums.append((k + 1) * sums[0] if period == 1 else q * sums[-1] + sums[j])
    p_cum = 0.0 - np.expm1(np.array(log_sums))
    return p_cum, np.diff(p_cum, axis=0, prepend=np.zeros_like(p_cum[:1]))


SCHEDULES = {"float": 0.2, "constant": make_schedule(0.15), "cyclic": [0.2, 0.1, 0.05],
             "no-repeat": 0.2 / (1.0 + np.arange(500) / 50)}


class TestSchemeBytes:
    """Scheme builders sum the log ratios in closed form over the schedule's
    period; P and p keep the bytes of that formula evaluated step by step."""

    @pytest.mark.parametrize("sched", sorted(SCHEDULES))
    @pytest.mark.parametrize("make", [_random_kernel, _null_eigen_kernel])
    def test_kernel_matches_per_step_formula(self, sched, make):
        kern, lam, lam_hat, K = make(60, 4), 0.3, 7.0, 250
        scheme = weights_kernel(kern, SCHEDULES[sched], lam, lam_hat, K)
        strengths = (lam_hat - lam) * kern.eigenvalues
        p_cum, p_inc = _closed_form_cumulative(
            lambda etas: -np.log1p(etas[:, None] * strengths[None, :]), SCHEDULES[sched], K)
        assert _same_bits(scheme.cumulative, p_cum)
        assert _same_bits(scheme.increments, p_inc)
        if make is _null_eigen_kernel:  # the null column is +0.0, not -0.0
            dead = (scheme.cumulative == 0.0).all(axis=0)
            assert dead.sum() == 1
            assert not np.signbit(scheme.cumulative[:, dead]).any()
            assert not np.signbit(scheme.increments[:, dead]).any()

    @pytest.mark.parametrize("sched", sorted(SCHEDULES))
    @pytest.mark.parametrize("lam", [1e-9, 0.3, 1e3])
    def test_sgd_adaptive_matches_per_step_formula(self, sched, lam):
        scheme = weights_sgd_adaptive(SCHEDULES[sched], lam, 400)
        p_cum, p_inc = _closed_form_cumulative(lambda etas: -np.log1p(lam * etas),
                                               SCHEDULES[sched], 400)
        assert _same_bits(scheme.cumulative, p_cum)
        assert _same_bits(scheme.increments, p_inc)

    @pytest.mark.parametrize("shape", [(50,), (50, 7)])
    def test_increments_are_np_diff(self, shape):
        p_cum = np.sort(np.random.default_rng(2).uniform(0, 1, size=shape), axis=0)
        p_cum[:3] = -0.0
        basis = np.eye(7) if len(shape) == 2 else None
        scheme = WeightScheme(p_cum, basis=basis)
        expected = np.diff(p_cum, axis=0, prepend=np.zeros_like(p_cum[:1]))
        assert _same_bits(scheme.increments, expected)

    def test_basis_must_be_square_over_the_eigenvalues(self):
        m = 4
        p_cum = np.sort(np.random.default_rng(1).uniform(0, 1, size=(6, m)), axis=0)
        for basis in (np.eye(m + 1)[:, :m], np.eye(m + 1), np.eye(m)[:, :m - 1]):
            with pytest.raises(ValueError, match="basis"):
                WeightScheme(p_cum, basis=basis)
        WeightScheme(p_cum, basis=np.eye(m))


class TestAveragedRecord:
    """A record averages to the bytes of its iterates, rotated once per basis."""

    @pytest.mark.parametrize("make", [_random_kernel, _null_eigen_kernel])
    def test_kernel_record_matches_array(self, make):
        kern = make(40, 6)
        sched = make_schedule(0.2)
        rec = kernel_gd_run(kern, sched, 120)
        for lam_hat in (0.5, 3.0):
            scheme = weights_kernel(kern, [0.2, 0.1], 0.0, lam_hat, 120)
            assert _same_bits(averaged_path(rec, scheme), averaged_path(rec.iterates, scheme))
        assert rec.in_basis(kern.basis) is rec.in_basis(kern.basis)

    def test_scalar_record_matches_array_and_keeps_no_rotation(self):
        prob = toy_problem()
        rec = sgd_run(prob, Regularizer.none(), make_schedule(0.1), 60)
        for scheme in (weights_sgd_adaptive(0.1, 0.3, 60), weights_nsgd(0.1, 0.3, 0.2, 60)):
            assert _same_bits(averaged_path(rec, scheme), averaged_path(rec.iterates, scheme))
        assert rec._rotation is None


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
            scheme = WeightScheme(p_cum)
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
            scheme = WeightScheme(p_cum, basis=basis)
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
        WeightScheme([0.2, 0.1])
    with pytest.raises(ValueError):
        WeightScheme([0.2, 1.5])
    with pytest.raises(ValueError):
        WeightScheme([[0.1], [0.5]])  # matrix without basis


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_weights_and_strengths_rejected(bad):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        WeightScheme([bad, 1.0])
    with pytest.raises(ValueError, match="finite"):
        weights_sgd_adaptive(0.1, bad, 5)
    kern = KernelProblem(K=np.eye(3), y=np.ones(3))
    with pytest.raises(ValueError, match="finite"):
        weights_kernel(kern, 0.1, 0.0, bad, 5)
    with pytest.raises(ValueError, match="finite"):
        weights_kernel(kern, 0.1, bad, 2.0, 5)
    with pytest.raises(ValueError, match="finite"):
        weights_sgd_adaptive(0.1, [1.0, bad], 5, basis=np.eye(2))


def test_per_eigenvalue_strengths_are_one_nonnegative_vector():
    for strengths in ([1.0, -1e-300], 1.0, [[1.0, 1.0]]):
        with pytest.raises(ValueError, match=">= 0, one per column"):
            weights_sgd_adaptive(0.1, strengths, 5, basis=np.eye(2))
    with pytest.raises(ValueError, match="basis"):
        weights_sgd_adaptive(0.1, [1.0, 1.0, 1.0], 5, basis=np.eye(2))
    scheme = weights_sgd_adaptive([0.1, 0.2], [0.0, 3.0], 5, basis=np.eye(2))
    assert _same_bits(scheme.cumulative[:, 0], np.zeros(6))
    scalar = weights_sgd_adaptive([0.1, 0.2], 3.0, 5)
    assert _same_bits(scheme.cumulative[:, 1], scalar.cumulative)


def test_strength_vector_without_basis_names_basis():
    for strengths in ([0.3, 0.4], np.array([0.3, 0.4])):
        with pytest.raises(ValueError, match="basis"):
            weights_sgd_adaptive(0.1, strengths, 5)
