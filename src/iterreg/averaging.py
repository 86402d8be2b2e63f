"""Weighting schemes and running weighted averages over stored paths.

A weighting scheme is a probability sequence {p_k} given through its
cumulative values P_k (nondecreasing, in [0, 1], tending to 1).  The
weighted average of a path w_0..w_K is

    wavg_k = P_k^{-1} * sum_{i<=k} p_i w_i ,

and each scheme is built so that this average of an *unregularized*
path reproduces the *regularized* solution at an adjustable strength.
Kernel schemes carry one cumulative sequence per Gram-matrix eigenvalue
and act diagonally in the cached eigenbasis; they are never materialized
as dense matrices.

Indexing note: P_k consumes rate ratios for steps 0..k, one past the
rate that produced iterate k, mirroring the increment relation
(new iterate k+1 uses rate k, and 1 - P_k multiplies that increment).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .optimizers import LRSchedule, PathRecord
from .problems import KernelProblem

__all__ = [
    "DegenerateSchemeError",
    "WeightScheme",
    "RunningAverage",
    "weights_sgd_adaptive",
    "weights_nsgd",
    "weights_general",
    "weights_kernel",
    "weights_geometric",
    "averaged_path",
    "scheme_to_csv",
]


# Row width from which averaged_path builds prefix sums row by row instead
# of with np.cumsum; on 501-row paths the two cross between 448 and 512.
_ROW_LOOP_MIN_WIDTH = 512


class DegenerateSchemeError(ValueError):
    """The requested scheme has (numerically) no weight to distribute."""


@dataclass(frozen=True)
class WeightScheme:
    """Cumulative weights P_k (scalar, or per-eigenvalue for kernels).

    ``cumulative`` has shape (K+1,) for scalar schemes and (K+1, m) for
    kernel schemes, where m is the number of Gram eigenvalues and
    ``basis`` holds the corresponding orthonormal eigenvectors.
    """

    kind: str
    cumulative: np.ndarray
    basis: Optional[np.ndarray] = None
    params: dict = field(default_factory=dict)
    increments: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        p_cum = np.asarray(self.cumulative, dtype=np.float64)
        if p_cum.ndim not in (1, 2):
            raise ValueError("cumulative weights must be 1-D or 2-D")
        if (self.basis is not None) != (p_cum.ndim == 2):
            raise ValueError("basis must be given exactly for per-eigenvalue schemes")
        if p_cum.min() < -1e-12 or p_cum.max() > 1.0 + 1e-12:
            raise ValueError("cumulative weights must lie in [0, 1]")
        incr = np.diff(p_cum, axis=0, prepend=np.zeros_like(p_cum[:1]))
        if incr.min() < -1e-12:
            raise ValueError("cumulative weights must be nondecreasing")
        object.__setattr__(self, "cumulative", p_cum)
        object.__setattr__(self, "increments", incr)

    @property
    def horizon(self) -> int:
        return self.cumulative.shape[0] - 1

    @property
    def is_matrix(self) -> bool:
        return self.cumulative.ndim == 2

    def p(self, k: int):
        return self.increments[k]

    def P(self, k: int):
        return self.cumulative[k]

    @classmethod
    def from_cumulative(cls, cumulative, basis=None, kind="custom", **params):
        return cls(kind=kind, cumulative=np.asarray(cumulative, dtype=np.float64),
                   basis=basis, params=dict(params))


def _require_positive_lam(lam: float) -> None:
    if lam <= 0:
        raise DegenerateSchemeError(
            "lambda must be positive: at lambda = 0 every weight vanishes and the "
            "average is 0/0"
        )


def _cumulative(log_ratios: np.ndarray) -> np.ndarray:
    """P_k = 1 - prod_{i<=k} r_i from log r_i, to a relative error near K * eps
    even for r_i within 1e-13 of one, where 1 - cumprod(r) keeps few digits.
    ``0.0 -`` makes P_k = +0.0, not -0.0, where the product is exactly one."""
    return 0.0 - np.expm1(np.cumsum(log_ratios, axis=0))


def _rates_upto(schedule, steps: int) -> np.ndarray:
    schedule = schedule if isinstance(schedule, LRSchedule) else LRSchedule(schedule)
    return schedule.etas_upto(steps)


def weights_sgd_adaptive(
    schedule: Union[LRSchedule, Sequence[float], float],
    lam: float,
    K: int,
) -> WeightScheme:
    """Scheme converting an SGD path into the l2-regularized solution.

    P_k = 1 - prod_{i<=k} (gamma_i / eta_i) with the coupled rates
    gamma_i = eta_i / (1 + lam * eta_i); for a constant rate this is
    P_k = 1 - (1 - lam * gamma)^{k+1}.  Works for any admissible
    learning-rate sequence, not just constant ones.
    """
    _require_positive_lam(lam)
    if isinstance(schedule, LRSchedule) and schedule.lam not in (0.0, lam):
        raise ValueError(
            f"schedule was coupled at lambda={schedule.lam}, scheme wants {lam}"
        )
    # gamma_i / eta_i = 1 / (1 + lam * eta_i)
    p_cum = _cumulative(-np.log1p(lam * _rates_upto(schedule, K + 1)))
    return WeightScheme("sgd-adaptive", p_cum, params={"lam": lam})


def weights_nsgd(eta: float, lam: float, alpha: float, K: int) -> WeightScheme:
    """Scheme for a Nesterov-accelerated path at constant rate.

    P_k = 1 - (gamma/eta) * C^(k-1) for k >= 1 with
    C = (1 - sqrt(gamma(alpha+lam))) / (1 - sqrt(eta*alpha)); the k = 0
    entry is pinned to zero (the first two iterates of an accelerated
    run are both the zero vector, so index 0 carries no weight).
    """
    _require_positive_lam(lam)
    if not (0 < eta * alpha < 1):
        raise ValueError(f"need 0 < eta*alpha < 1, got {eta * alpha:.6g}")
    gamma = eta / (1.0 + lam * eta)
    decay = (1.0 - np.sqrt(gamma * (alpha + lam))) / (1.0 - np.sqrt(eta * alpha))
    if not (0.0 < decay < 1.0):
        raise ValueError(f"decay ratio {decay:.6g} outside (0, 1); scheme undefined")
    log_ratios = np.full(K + 1, np.log(decay))
    # r = 1 (w_0 = w_1 = 0), gamma / eta, decay, decay, ...
    log_ratios[:2] = [0.0, -np.log1p(lam * eta)][: K + 1]
    p_cum = _cumulative(log_ratios)
    return WeightScheme(
        "nsgd", p_cum, params={"eta": eta, "lam": lam, "alpha": alpha, "decay": decay}
    )


def weights_general(eta: float, gamma: float, K: int) -> WeightScheme:
    """Scheme for strongly convex and smooth losses: P_k = 1 - (gamma/eta)^(k+1)."""
    if not (0 < gamma < eta):
        raise ValueError(f"need 0 < gamma < eta, got gamma={gamma}, eta={eta}")
    # gamma - eta is exact for gamma near eta, where P_k needs it most.
    p_cum = _cumulative(np.full(K + 1, np.log1p((gamma - eta) / eta)))
    if p_cum[-1] < 1e-6:
        raise DegenerateSchemeError(
            f"gamma/eta = {gamma / eta:.8g} leaves P_K = {p_cum[-1]:.3e} < 1e-6; "
            "the average is numerically ill-conditioned"
        )
    return WeightScheme("general-gd", p_cum, params={"eta": eta, "gamma": gamma})


def weights_kernel(
    kernel: KernelProblem,
    schedule: Union[LRSchedule, Sequence[float], float],
    lam: float,
    lam_hat: float,
    K: int,
) -> WeightScheme:
    """Per-eigenvalue scheme for kernel paths.

    For Gram eigenvalue mu_j,
        P_k^(j) = 1 - prod_{i<=k} 1 / (1 + (lam_hat - lam) * eta_i * mu_j),
    the matrix P_k being diagonal in the Gram eigenbasis.  Eigenvalue
    zero never accumulates weight: the null space of K is untouched by
    both the optimizer and the regularizer.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if lam_hat <= lam:
        raise ValueError(f"need lam_hat > lam, got ({lam_hat}, {lam})")
    etas = _rates_upto(schedule, K + 1)
    mu = kernel.eigenvalues
    p_cum = _cumulative(-np.log1p((lam_hat - lam) * etas[:, None] * mu[None, :]))
    return WeightScheme(
        "kernel", p_cum, basis=kernel.basis, params={"lam": lam, "lam_hat": lam_hat}
    )


def weights_geometric(p_success: float, K: int) -> WeightScheme:
    """Truncated geometric weights p_k proportional to p (1-p)^k, renormalized.

    This is the checkpoint-averaging scheme: with K+1 stored checkpoints
    the raw geometric tail is folded back so that P_K = 1 exactly.
    """
    if not (0.0 < p_success < 1.0):
        raise ValueError(f"success probability must be in (0, 1), got {p_success}")
    p_raw = _cumulative(np.full(K + 1, np.log1p(-p_success)))
    return WeightScheme("geometric", p_raw / p_raw[-1], params={"p": p_success})


# ---------------------------------------------------------------------------
# Averaging


class RunningAverage:
    """Single-writer streaming accumulator S_k = sum p_i w_i, P_k = sum p_i.

    Updates must be fed in index order starting at zero; kernel schemes
    accumulate in the Gram eigenbasis and transform back on finalize.
    """

    def __init__(self, scheme: WeightScheme):
        self.scheme = scheme
        self._next = 0
        self._sum: Optional[np.ndarray] = None

    @property
    def count(self) -> int:
        return self._next

    def update(self, w: np.ndarray, k: Optional[int] = None) -> "RunningAverage":
        if k is not None and k != self._next:
            raise ValueError(f"out-of-order update: expected index {self._next}, got {k}")
        if self._next > self.scheme.horizon:
            raise ValueError("more updates than the scheme's horizon")
        term = self.scheme.p(self._next) * _into_basis(self.scheme, np.asarray(w, float))
        self._sum = term if self._sum is None else self._sum + term
        self._next += 1
        return self

    def finalize(self) -> np.ndarray:
        if self._next == 0:
            raise ValueError("no updates consumed")
        p_cum = self.scheme.P(self._next - 1)
        live = p_cum > 0
        if not np.any(live):
            raise ValueError("cumulative weight is zero; average undefined")
        avg = np.where(live, self._sum / np.where(live, p_cum, 1.0), 0.0)
        return _out_of_basis(self.scheme, avg)


def _into_basis(scheme: WeightScheme, x: np.ndarray) -> np.ndarray:
    """Rows of x in the scheme's eigenbasis, where its weights act diagonally."""
    return x if scheme.basis is None else x @ scheme.basis


def _out_of_basis(scheme: WeightScheme, x: np.ndarray) -> np.ndarray:
    return x if scheme.basis is None else x @ scheme.basis.T


def averaged_path(path: Union[PathRecord, np.ndarray], scheme: WeightScheme) -> np.ndarray:
    """All running averages wavg_0..wavg_K of a stored path, as one array.

    Indices where the cumulative weight is still zero (e.g. the first
    entry of an accelerated scheme) yield the zero vector, consistent
    with zero-initialized paths.
    """
    iterates = path.iterates if isinstance(path, PathRecord) else np.asarray(path, float)
    if iterates.ndim == 1:
        iterates = iterates[:, None]
    steps = iterates.shape[0] - 1
    if scheme.horizon < steps:
        raise ValueError(f"scheme horizon {scheme.horizon} shorter than path ({steps})")
    # Columns: (K+1, 1) for scalar schemes, (K+1, m) per eigenvalue.
    p_cum = scheme.cumulative[: steps + 1].reshape(steps + 1, -1)
    p_inc = scheme.increments[: steps + 1].reshape(steps + 1, -1)
    # One fresh buffer, updated in place; the caller's path is never written.
    avg = p_inc * _into_basis(scheme, iterates)
    if avg.shape[1] >= _ROW_LOOP_MIN_WIDTH:
        # np.cumsum along axis 0 walks each column with a row-length stride;
        # adding whole rows does the same additions in the same order.
        for k in range(1, avg.shape[0]):
            np.add(avg[k - 1], avg[k], out=avg[k])
    else:
        np.cumsum(avg, axis=0, out=avg)
    live = p_cum > 0
    avg /= np.where(live, p_cum, 1.0)
    # Only rows with a zero-weight entry are touched: none, for most scalar
    # schemes, where a full pass would add 10-30% to the call on a wide path.
    rows = ~live.all(axis=1)
    avg[rows] = np.where(live[rows], avg[rows], 0.0)
    return _out_of_basis(scheme, avg)


def scheme_to_csv(scheme: WeightScheme, path: str) -> None:
    """Audit export: (k, p_k, P_k) rows; kernel schemes in long format."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        if scheme.is_matrix:
            writer.writerow(["k", "eig_index", "p_k", "P_k"])
            for k in range(scheme.horizon + 1):
                for j in range(scheme.cumulative.shape[1]):
                    writer.writerow(
                        [k, j, repr(float(scheme.increments[k, j])),
                         repr(float(scheme.cumulative[k, j]))]
                    )
        else:
            writer.writerow(["k", "p_k", "P_k"])
            for k in range(scheme.horizon + 1):
                writer.writerow([k, repr(float(scheme.increments[k])),
                                 repr(float(scheme.cumulative[k]))])
