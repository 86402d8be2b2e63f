"""Weighting schemes and running weighted averages over stored paths.

A weighting scheme is a probability sequence {p_k} given through its
cumulative values P_k (nondecreasing, in [0, 1], tending to 1).  The
weighted average of a path w_0..w_K is

    wavg_k = P_k^{-1} * sum_{i<=k} p_i w_i ,

and each scheme is built so that this average of an *unregularized*
path reproduces the *regularized* solution at an adjustable strength.
Per-eigenvalue schemes in a given basis carry one cumulative sequence
per basis column and act diagonally in that basis; they are never made
dense.  ``_average`` is the one averaging kernel: it works on rows in a
scheme's coordinates (a per-eigenvalue scheme's basis), for
``averaged_path``, ``RunningAverage`` and ``oracles.identity_check``.

Indexing note: P_k consumes rate ratios for steps 0..k, one past the
rate that produced iterate k, mirroring the increment relation
(new iterate k+1 uses rate k, and 1 - P_k multiplies that increment).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .optimizers import LRSchedule, PathRecord, _kernel_strengths
from .problems import KernelProblem

__all__ = [
    "DegenerateSchemeError",
    "WeightScheme",
    "RunningAverage",
    "weights_sgd_adaptive",
    "weights_nsgd",
    "weights_kernel",
    "averaged_path",
    "scheme_to_csv",
]


# Row width from which averaged_path builds prefix sums row by row instead
# of with np.cumsum; on 501-row paths the two cross between 448 and 512.
_ROW_LOOP_MIN_WIDTH = 512


class DegenerateSchemeError(ValueError):
    """The requested scheme has (numerically) no weight to distribute."""


def _increments(p_cum: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """p_0 = P_0 and p_k = P_k - P_{k-1} along axis 0, into ``out`` if given:
    the bytes of np.diff with a prepended zero, without its copy of P."""
    out = np.empty_like(p_cum) if out is None else out
    out[:1] = p_cum[:1]
    np.subtract(p_cum[1:], p_cum[:-1], out=out[1:])
    return out


@dataclass(frozen=True)
class WeightScheme:
    """Cumulative weights P_k (scalar, or per-eigenvalue for kernels).

    ``cumulative`` has shape (K+1,) for scalar schemes and (K+1, m) for
    per-eigenvalue schemes, whose orthonormal (m, m) ``basis`` holds one
    eigenvector per column.
    Only P is stored; the increments p_k are derived from it when read.
    """

    cumulative: np.ndarray
    basis: Optional[np.ndarray] = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        p_cum = np.asarray(self.cumulative, dtype=np.float64)
        if p_cum.ndim not in (1, 2):
            raise ValueError("cumulative weights must be 1-D or 2-D")
        if (self.basis is not None) != (p_cum.ndim == 2):
            raise ValueError("basis must be given exactly for per-eigenvalue schemes")
        m = p_cum.shape[-1]
        if p_cum.ndim == 2 and np.shape(self.basis) != (m, m):
            raise ValueError(f"a scheme over {m} eigenvalues needs an ({m}, {m}) basis, "
                             f"got {np.shape(self.basis)}")
        if not (p_cum.min() >= -1e-12 and p_cum.max() <= 1.0 + 1e-12):  # NaN fails
            raise ValueError("cumulative weights must lie in [0, 1]")
        if (p_cum[1:] - p_cum[:-1]).min(initial=0.0) < -1e-12:
            raise ValueError("cumulative weights must be nondecreasing")
        object.__setattr__(self, "cumulative", p_cum)

    @property
    def increments(self) -> np.ndarray:
        return _increments(self.cumulative)

    @property
    def horizon(self) -> int:
        return self.cumulative.shape[0] - 1


def _require_positive_lam(lam: float) -> None:
    if not lam < np.inf:  # NaN fails too
        raise ValueError(f"lambda must be finite, got {lam}")
    if lam <= 0:
        raise DegenerateSchemeError(
            "lambda must be positive: at lambda = 0 every weight vanishes and the "
            "average is 0/0"
        )


def _cumulative(log_ratios: np.ndarray) -> np.ndarray:
    """P_k = 1 - prod_{i<=k} r_i from log r_i, to a relative error near K * eps
    even for r_i within 1e-13 of one, where 1 - cumprod(r) keeps few digits.
    ``0.0 -`` makes P_k = +0.0, not -0.0, where the product is exactly one.
    Overwrites ``log_ratios`` with P and returns it."""
    np.cumsum(log_ratios, axis=0, out=log_ratios)
    np.expm1(log_ratios, out=log_ratios)
    return np.subtract(0.0, log_ratios, out=log_ratios)


def _per_step(schedule, per_rate, steps: int) -> np.ndarray:
    """Rows 0..steps-1 of ``per_rate(etas)``, taken once per distinct rate of the
    schedule and repeated cyclically, as LRSchedule.etas_upto repeats the rates."""
    etas = (schedule if isinstance(schedule, LRSchedule) else LRSchedule(schedule)).etas
    rows = per_rate(etas)
    return rows[np.arange(steps) % len(rows)]


def _check_horizon(K) -> None:
    if isinstance(K, bool) or not isinstance(K, (int, np.integer)) or K < 0:
        raise ValueError(f"the horizon K must be an integer >= 0, got {K!r}")


def weights_sgd_adaptive(schedule: Union[LRSchedule, Sequence[float], float],
                         lam: Union[float, np.ndarray], K: int, *,
                         basis: Optional[np.ndarray] = None) -> WeightScheme:
    """Scheme converting a GD or SGD path into the penalized solution.

    P_k = 1 - prod_{i<=k} (gamma_i / eta_i) with the coupled rates
    gamma_i = eta_i / (1 + lam * eta_i); for a constant rate this is
    P_k = 1 - (1 - lam * gamma)^{k+1}.  Works for any admissible
    learning-rate sequence, not just constant ones.

    With ``basis`` given, ``lam`` holds one strength s_j >= 0 per column u_j,
    and a zero strength never gains weight.  At s_j = lam q_j in Sigma's
    eigenbasis a plain GD path averages to the generalized ridge solution
    (Sigma + lam Q)^{-1} a, Q = sum_j q_j u_j u_j^T.
    """
    _check_horizon(K)
    if basis is None:
        _require_positive_lam(lam)
    else:
        lam = np.asarray(lam, dtype=np.float64)
        if lam.ndim != 1 or not np.all((lam >= 0) & (lam < np.inf)):  # NaN fails
            raise ValueError("per-eigenvalue strengths must be finite and >= 0, one per column")
    # gamma_i / eta_i = 1 / (1 + lam * eta_i), one row per rate
    p_cum = _cumulative(_per_step(
        schedule, lambda etas: -np.log1p(np.multiply.outer(etas, lam)), K + 1))
    return WeightScheme(p_cum, basis=basis, params={"lam": lam})


def weights_nsgd(eta: float, lam: float, alpha: float, K: int) -> WeightScheme:
    """Scheme for a Nesterov-accelerated path at constant rate.

    P_k = 1 - (gamma/eta) * C^(k-1) for k >= 1 with
    C = (1 - sqrt(gamma(alpha+lam))) / (1 - sqrt(eta*alpha)); the k = 0
    entry is pinned to zero (the first two iterates of an accelerated
    run are both the zero vector, so index 0 carries no weight).
    """
    _check_horizon(K)
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
    return WeightScheme(p_cum, params={"eta": eta, "lam": lam, "alpha": alpha, "decay": decay})


def weights_kernel(kernel: KernelProblem, schedule: Union[LRSchedule, Sequence[float], float],
                   lam: float, lam_hat: float, K: int) -> WeightScheme:
    """Kernel paths: ``weights_sgd_adaptive`` in the Gram eigenbasis at strengths
    (lam_hat - lam) mu_j, P_k^(j) = 1 - prod_{i<=k} 1 / (1 + eta_i (lam_hat - lam) mu_j).
    Eigenvalue zero never accumulates weight: the null space of K is
    untouched by both the optimizer and the regularizer."""
    return weights_sgd_adaptive(schedule, _kernel_strengths(kernel, lam, lam_hat), K,
                                basis=kernel.basis)


# ---------------------------------------------------------------------------
# Averaging


class RunningAverage:
    """Single-writer accumulator of a path fed one iterate at a time.

    Updates must be fed in index order starting at zero.  The fed rows are
    kept (O(K d) memory), and ``finalize`` returns the last row of
    ``averaged_path`` over them, bit for bit.
    """

    def __init__(self, scheme: WeightScheme):
        self.scheme = scheme
        self._rows: list = []

    @property
    def count(self) -> int:
        return len(self._rows)

    def update(self, w: np.ndarray, k: Optional[int] = None) -> "RunningAverage":
        if k is not None and k != self.count:
            raise ValueError(f"out-of-order update: expected index {self.count}, got {k}")
        if self.count > self.scheme.horizon:
            raise ValueError("more updates than the scheme's horizon")
        self._rows.append(np.array(w, dtype=float))
        return self

    def finalize(self) -> np.ndarray:
        if not self._rows:
            raise ValueError("no updates consumed")
        if not np.any(self.scheme.cumulative[self.count - 1] > 0):
            raise ValueError("cumulative weight is zero; average undefined")
        return averaged_path(np.array(self._rows), self.scheme)[-1]


def _coordinates(path: Union[PathRecord, np.ndarray], scheme: WeightScheme) -> np.ndarray:
    """A path's rows, 2-D, in the scheme's coordinates: for a per-eigenvalue
    scheme its eigenbasis, reached once per record through ``in_basis``."""
    if isinstance(path, PathRecord):
        return path.iterates if scheme.basis is None else path.in_basis(scheme.basis)
    rows = np.asarray(path, float)
    rows = rows[:, None] if rows.ndim == 1 else rows
    return rows if scheme.basis is None else rows @ scheme.basis


def _average(rows: np.ndarray, scheme: WeightScheme,
             out: Optional[np.ndarray] = None) -> np.ndarray:
    """wavg_0..wavg_K of rows in the scheme's coordinates, 0 where P_k = 0, into
    ``out`` (of the rows' shape, per eigenvalue) if given; rows are not written."""
    steps = rows.shape[0] - 1
    if scheme.horizon < steps:
        raise ValueError(f"scheme horizon {scheme.horizon} shorter than path ({steps})")
    # Columns: (K+1, 1) for scalar schemes, (K+1, m) per eigenvalue.
    p_cum = scheme.cumulative[: steps + 1].reshape(steps + 1, -1)
    avg = _increments(p_cum, out=out)
    avg = np.multiply(avg, rows, out=avg if avg.shape == rows.shape else None)
    if avg.shape[1] >= _ROW_LOOP_MIN_WIDTH:
        # np.cumsum along axis 0 walks each column with a row-length stride;
        # adding whole rows does the same additions in the same order.
        for k in range(1, avg.shape[0]):
            np.add(avg[k - 1], avg[k], out=avg[k])
    else:
        np.cumsum(avg, axis=0, out=avg)
    if p_cum.min() > 0:
        avg /= p_cum
    else:
        live = p_cum > 0
        avg /= np.where(live, p_cum, 1.0)
        # Only rows with a zero-weight entry are touched: a full pass would
        # add 10-30% to the call on a wide path.
        dead = ~live.all(axis=1)
        avg[dead] = np.where(live[dead], avg[dead], 0.0)
    return avg


def averaged_path(path: Union[PathRecord, np.ndarray], scheme: WeightScheme) -> np.ndarray:
    """All running averages wavg_0..wavg_K of a stored path, as one array.

    Indices where the cumulative weight is still zero (e.g. the first
    entry of an accelerated scheme) yield the zero vector, consistent
    with zero-initialized paths.  A per-eigenvalue scheme averages in its
    eigenbasis and rotates the result out once; the call then allocates
    one (2, K+1, m) block, for the weighted sums and the output.
    """
    rows = _coordinates(path, scheme)
    if scheme.basis is None:
        return _average(rows, scheme)
    # The increments, then the weighted sums, fill the first half of one
    # allocation and the output the second.  A sweep then frees three
    # (K+1, m) arrays per lambda (this block and the last scheme's P), less
    # than glibc's dynamic trim threshold of twice the largest freed block;
    # freeing four let malloc trim the heap and fault it back in on every
    # call (about 370 page faults at 501 x 200).
    block = np.empty((2,) + rows.shape)
    return np.matmul(_average(rows, scheme, out=block[0]), scheme.basis.T, out=block[1])


def scheme_to_csv(scheme: WeightScheme, path: str) -> None:
    """Audit export: (k, p_k, P_k) rows; kernel schemes in long format."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        incr = scheme.increments
        if scheme.basis is not None:
            writer.writerow(["k", "eig_index", "p_k", "P_k"])
            for k in range(scheme.horizon + 1):
                for j in range(scheme.cumulative.shape[1]):
                    writer.writerow(
                        [k, j, repr(float(incr[k, j])), repr(float(scheme.cumulative[k, j]))]
                    )
        else:
            writer.writerow(["k", "p_k", "P_k"])
            for k in range(scheme.horizon + 1):
                writer.writerow([k, repr(float(incr[k])), repr(float(scheme.cumulative[k]))])
