"""Objective functions, regularizers, gradients, and curvature constants.

Three problem families are supported:

* quadratic least squares, parameterized by the second-moment matrix
  ``sigma`` and the (d, c) cross-moment ``a``, c = 1 for one output
  (optionally built from raw (X, Y) data, kept for mini-batch gradients),
* multi-class softmax regression with a built-in ridge term that makes
  the objective strongly convex,
* kernel regression in its dual form, parameterized by a Gram matrix,
  whose paths run only through ``optimizers.kernel_gd_run``.

A penalty is (lam/2) w^T Q w, a pair (lam, Q): lam = 0 is none and Q = None
is l2; l1 is left to the prox oracle.

Parameters for multi-output problems are (d, c) matrices flattened to
1-D vectors in C order; all path algebra in the rest of the package
works on those flat vectors.

Each family's gradient is written once, ``grad(w, rows=None)``, over every
sample or over the data rows ``rows`` (a mini-batch); every gradient route
takes it through ``_objective_grad``, which adds a live penalty's gradient.

Gradient products are taken outputs-major on that unchanged layout: with
W = w.reshape(d, -1) the step loop forms (W^T Sigma)^T, (W^T x_b^T)^T and
(R^T x_b)^T rather than Sigma W, x_b W and x_b^T R.  Each is a skinny GEMM
against c outputs, and single-thread OpenBLAS runs that order faster.  On
a 2-CPU Xeon with OpenBLAS 0.3.31 (Haswell kernels), at d = 784 and
c = 10, Sigma W takes 0.85-1.0 ms against 0.55 ms for W^T Sigma, and a
step of a 500-step MNIST-size run (full gradient and batch 500, averaged)
takes 1.03-1.15 ms against 1.26-1.50 ms.  Sigma and Q are read as the
symmetric matrices their constructors check them to be.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .linalg import jacobi_eigh

__all__ = [
    "Regularizer",
    "QuadraticProblem",
    "LogisticProblem",
    "KernelProblem",
    "ConvexityBounds",
    "eval_loss_grad",
    "stochastic_grad",
    "convexity_bounds",
    "toy_problem",
]


# ---------------------------------------------------------------------------
# Regularizers


@dataclass(frozen=True)
class Regularizer:
    """A penalty lam * R(w) with R(w) = (1/2) tr(W^T Q W), W = w.reshape(d, -1).

    lam = 0 is no penalty.  Q = None is the identity, the l2 penalty; a
    given Q, the generalized-l2 metric, must be symmetric positive definite,
    and is also the preconditioner that a plain PGD run carries at lam = 0.
    """

    lam: float
    Q: Optional[np.ndarray] = None

    def __post_init__(self):
        if not 0 <= self.lam < np.inf:  # NaN fails too
            raise ValueError(f"lambda must be nonnegative and finite, got {self.lam}")
        object.__setattr__(self, "lam", float(self.lam))  # a numpy scalar too, for JSON
        if self.Q is not None:
            q = np.asarray(self.Q, dtype=np.float64)
            _check_spd(q, "Q")
            object.__setattr__(self, "Q", q)

    @classmethod
    def none(cls) -> "Regularizer":
        return cls(0.0)

    @classmethod
    def l2(cls, lam: float) -> "Regularizer":
        return cls(lam)

    @classmethod
    def generalized_l2(cls, lam: float, Q: np.ndarray) -> "Regularizer":
        return cls(lam, Q)

    def at(self, lam: float) -> "Regularizer":
        """This penalty at strength lam, sharing its already-checked Q."""
        return _sharing_q(lam, self.Q)

    def value(self, w: np.ndarray, d: int) -> float:
        """lam * R(w) for a flat parameter vector of row dimension d."""
        if self.lam == 0.0:
            return 0.0
        if self.Q is None:
            return 0.5 * self.lam * float(w @ w)
        mat = w.reshape(d, -1)
        return 0.5 * self.lam * float(np.sum(mat * (self.Q @ mat)))

    def grad(self, w: np.ndarray, d: int) -> np.ndarray:
        """Gradient of lam * R(w)."""
        if self.lam == 0.0:
            return np.zeros_like(w)
        if self.Q is None:
            return self.lam * w
        return self.lam * (w.reshape(d, -1).T @ self.Q).T.ravel()


def _sharing_q(lam: float, Q: Optional[np.ndarray]) -> Regularizer:
    """Regularizer(lam, Q) for a Q checked before (a penalty's, or a quadratic's Sigma)."""
    reg = Regularizer(lam)
    object.__setattr__(reg, "Q", Q)
    return reg


# ---------------------------------------------------------------------------
# Problems


def _check_symmetric(matrix: np.ndarray, name: str, tol: float = 1e-12) -> None:
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{name} must be square, got shape {matrix.shape}")
    scale = max(1.0, float(np.abs(matrix).max()))
    if np.abs(matrix - matrix.T).max() > tol * scale:
        raise ValueError(f"{name} must be symmetric to {tol} relative")


def _check_rows(rows) -> None:
    if rows is not None and len(rows) == 0:  # a mean over no rows is 0/0
        raise ValueError("rows must name at least one data row, got none")


def _check_spd(matrix: np.ndarray, name: str, tol: float = 1e-12) -> np.ndarray:
    """Refuse what is not symmetric positive definite; return the ascending eigenvalues."""
    # Full rank by np.linalg.matrix_rank's default tolerance, max eig * d * eps, so
    # that a singular matrix is refused whatever sign rounding gives its min eig.
    _check_symmetric(matrix, name, tol)
    eigvals = np.linalg.eigvalsh(matrix)
    floor = eigvals.max() * matrix.shape[0] * np.finfo(np.float64).eps
    if not eigvals.min() > floor:
        raise ValueError(f"{name} must be positive definite (min eig {eigvals.min():.3e}, "
                         f"at most {floor:.3e}, the rank tolerance)")
    return eigvals


@dataclass(frozen=True)
class QuadraticProblem:
    """Least-squares objective L(w) = (1/2n) sum ||W^T x_i - y_i||^2.

    Up to a constant this is (1/2) tr(W^T Sigma W) - tr(W^T a) with
    Sigma = X^T X / n and a = X^T Y / n, so only those moments are
    required.  Raw (X, Y) data, needed only for mini-batch gradients, is
    attached by ``from_data``, which forms the moments from it.  ``a`` is
    stored (d, c) and ``Y`` (n, c); a single output is one column, c = 1,
    also when given 1-D.  Sigma's ascending eigenvalues, computed once by
    the definiteness check, are kept read-only in ``eigenvalues``.
    """

    sigma: np.ndarray
    a: np.ndarray
    X: Optional[np.ndarray] = field(init=False, default=None)
    Y: Optional[np.ndarray] = field(init=False, default=None)
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=np.float64)
        a = np.asarray(self.a, dtype=np.float64)
        eigvals = _check_spd(sigma, "sigma")
        eigvals.flags.writeable = False
        object.__setattr__(self, "eigenvalues", eigvals)
        if a.shape[0] != sigma.shape[0]:
            raise ValueError(
                f"a has {a.shape[0]} rows but sigma is {sigma.shape[0]}x{sigma.shape[0]}"
            )
        a = a.reshape(a.shape[0], -1)  # (d, c): one column per output
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "a", a)

    @classmethod
    def from_data(cls, X: np.ndarray, Y: np.ndarray) -> "QuadraticProblem":
        """The problem of the data (X, Y), which it keeps for mini-batch gradients."""
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        n = X.shape[0]
        if Y.shape[0] != n:
            raise ValueError("X and Y row counts differ")
        problem = cls(sigma=X.T @ X / n, a=X.T @ Y / n)
        object.__setattr__(problem, "X", X)
        object.__setattr__(problem, "Y", Y.reshape(n, -1))
        return problem

    @property
    def d(self) -> int:
        return self.sigma.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.a.shape[1]

    @property
    def param_dim(self) -> int:
        return self.d * self.n_outputs

    @property
    def n_samples(self) -> Optional[int]:
        return None if self.X is None else self.X.shape[0]

    def loss(self, w: np.ndarray) -> float:
        mat = w.reshape(self.d, self.n_outputs)
        value = 0.5 * np.sum(mat * (self.sigma @ mat)) - np.sum(mat * self.a)
        if self.Y is not None:
            value += 0.5 * np.sum(self.Y * self.Y) / self.X.shape[0]
        return float(value)

    def grad(self, w: np.ndarray, rows=None) -> np.ndarray:
        """Gradient at w from the moments, where w may also flatten (d, outputs)
        matrices side by side; with ``rows``, over those data rows only."""
        if rows is None:
            g = (w.reshape(self.d, -1).T @ self.sigma).T.reshape(self.d, -1, self.n_outputs)
            return (g - self.a[:, None]).ravel()
        if self.X is None:
            raise ValueError("problem carries no raw data; stochastic gradients unavailable")
        _check_rows(rows)
        mat = w.reshape(self.d, self.n_outputs)
        xb = self.X[rows]
        return (((mat.T @ xb.T - self.Y[rows].T) @ xb).T / len(rows)).ravel()

    def minimizer(self) -> np.ndarray:
        """Unregularized minimizer Sigma^{-1} a as a flat vector."""
        return np.linalg.solve(self.sigma, self.a).ravel()


@dataclass(frozen=True)
class LogisticProblem:
    """Softmax regression with a built-in ridge term.

    L(w) = (1/n) sum_i CE(y_i, softmax(W^T x_i)) + (base_ridge/2) ||W||_F^2.

    A strictly positive base_ridge makes the loss strongly convex, which
    every downstream curvature-based construction relies on.
    """

    X: np.ndarray
    Y: np.ndarray
    base_ridge: float = 0.0

    def __post_init__(self):
        x = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.Y, dtype=np.float64)
        if y.ndim != 2:
            raise ValueError("Y must be a one-hot (n, c) matrix")
        if x.shape[0] != y.shape[0]:
            raise ValueError("X and Y row counts differ")
        onehot = np.isin(y, (0.0, 1.0)).all() and np.allclose(y.sum(axis=1), 1.0)
        if not onehot:
            raise ValueError("Y rows must be one-hot (entries in {0,1}, summing to 1)")
        if not 0 <= self.base_ridge < np.inf:
            raise ValueError(f"base_ridge must be nonnegative and finite, got {self.base_ridge}")
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "Y", y)

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.Y.shape[1]

    @property
    def param_dim(self) -> int:
        return self.d * self.n_outputs

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    def _softmax(self, logits: np.ndarray) -> np.ndarray:
        # C order, so that each row sum is numpy's pairwise sum over a contiguous row.
        logits = np.ascontiguousarray(logits)
        shifted = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)

    def loss(self, w: np.ndarray) -> float:
        mat = w.reshape(self.d, self.n_outputs)
        logits = self.X @ mat
        logz = np.log(np.sum(np.exp(logits - logits.max(axis=1, keepdims=True)), axis=1))
        logz += logits.max(axis=1)
        ce = logz - np.sum(self.Y * logits, axis=1)
        return float(ce.mean() + 0.5 * self.base_ridge * np.sum(mat * mat))

    def grad(self, w: np.ndarray, rows=None) -> np.ndarray:
        """Gradient at w over every sample, or with ``rows`` over those samples only."""
        _check_rows(rows)
        x, y = (self.X, self.Y) if rows is None else (self.X[rows], self.Y[rows])
        mat = w.reshape(self.d, self.n_outputs)
        probs = self._softmax((mat.T @ x.T).T)
        return (((probs - y).T @ x).T / x.shape[0] + self.base_ridge * mat).ravel()

    def hessian(self, w: np.ndarray) -> np.ndarray:
        """Dense Hessian over the flat parameter, for small problems only."""
        probs = self._softmax(self.X @ w.reshape(self.d, self.n_outputs))
        # diag(s_i) - s_i s_i^T for every sample i, one (c, c) block each
        blocks = probs[:, :, None] * np.eye(self.n_outputs) - probs[:, :, None] * probs[:, None, :]
        h = np.einsum("ni,nj,nab->iajb", self.X, self.X, blocks).reshape(self.param_dim, -1)
        return h / self.n_samples + self.base_ridge * np.eye(self.param_dim)


@dataclass(frozen=True)
class KernelProblem:
    """Dual kernel regression data: Gram matrix K and labels y.

    The Gram matrix is eigendecomposed once at construction (LAPACK) and
    cached; every weighting-scheme and oracle computation for kernels
    happens in that eigenbasis, and rotates back with U^T as U^-1.
    """

    K: np.ndarray
    y: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False)
    basis: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        k = np.asarray(self.K, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        _check_symmetric(k, "K")
        if y.shape != (k.shape[0],):
            raise ValueError("y length must match K")
        scale = max(1.0, float(np.abs(k).max()))
        mu, u = jacobi_eigh(k)
        if mu.min() < -1e-12 * scale:
            raise ValueError(f"K must be positive semi-definite (min eig {mu.min():.3e})")
        recon = u @ (mu[:, None] * u.T)
        if np.abs(recon - k).max() > 1e-10 * scale:
            raise RuntimeError("eigendecomposition failed to reconstruct K")
        if np.abs(u.T @ u - np.eye(len(mu))).max() > 1e-12:
            raise RuntimeError("eigendecomposition basis is not orthonormal")
        # Read-only, so that a path record may keep its rotation into the basis.
        mu.flags.writeable = u.flags.writeable = False
        object.__setattr__(self, "K", k)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "eigenvalues", mu)
        object.__setattr__(self, "basis", u)

    @property
    def n(self) -> int:
        return self.K.shape[0]

    @property
    def param_dim(self) -> int:
        return self.n


@dataclass(frozen=True)
class ConvexityBounds:
    """Strong-convexity / smoothness pair 0 < alpha <= beta."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0 < self.alpha <= self.beta):
            raise ValueError(f"need 0 < alpha <= beta, got ({self.alpha}, {self.beta})")


# ---------------------------------------------------------------------------
# Operations


def eval_loss_grad(problem, reg: Regularizer, w: np.ndarray):
    """Loss and gradient of the regularized objective L(w) + lam R(w)."""
    grad = _objective_grad(problem, reg)
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (problem.param_dim,):
        raise ValueError(f"w has shape {w.shape}, expected ({problem.param_dim},)")
    return problem.loss(w) + reg.value(w, problem.d), grad(w)


def _check_q(problem, reg: Regularizer) -> None:
    """Refuse a penalty whose Q is not d x d for the problem it meets, also at lam = 0,
    where Q is still a PGD run's preconditioner."""
    if reg.Q is not None and reg.Q.shape[0] != problem.d:
        raise ValueError(f"Q is {reg.Q.shape[0]}x{reg.Q.shape[0]}, but the problem has "
                         f"d = {problem.d}: a penalty's Q must be d x d")


def _objective_grad(problem, reg: Regularizer):
    """The gradient of L(w) + lam R(w), a function of (w, rows=None), checked once here.
    Step loops skip ``eval_loss_grad``, whose loss costs a second Sigma product."""
    if isinstance(problem, KernelProblem):
        raise ValueError("kernel problems run through optimizers.kernel_gd_run, "
                         "which steps in the Gram eigenbasis")
    _check_q(problem, reg)
    if reg.lam == 0.0:  # no zero vector to add at every step
        return problem.grad
    return lambda w, rows=None: problem.grad(w, rows) + reg.grad(w, problem.d)


def stochastic_grad(problem, reg: Regularizer, w: np.ndarray, batch) -> np.ndarray:
    """Mini-batch gradient estimate over explicit sample indices.

    Averaged over all equally likely batches this equals the full
    gradient, so the estimator is unbiased under uniform sampling.
    """
    if getattr(problem, "X", None) is None:
        raise ValueError("problem carries no raw data; stochastic gradients unavailable")
    grad = _objective_grad(problem, reg)
    batch = np.asarray(batch, dtype=np.intp)
    n = problem.n_samples
    if batch.size == 0 or batch.min() < 0 or batch.max() >= n:
        raise ValueError(f"batch indices must be a nonempty subset of [0, {n})")
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (problem.param_dim,):
        raise ValueError(f"w has shape {w.shape}, expected ({problem.param_dim},)")
    # A batch covering every sample once is the full gradient; route it
    # through the moment form so the two are bit-identical.
    full = batch.size == n and np.array_equal(np.sort(batch), np.arange(n))
    return grad(w, None if full else batch)


def convexity_bounds(problem) -> ConvexityBounds:
    """Curvature constants (alpha, beta) of the unregularized loss L.

    Quadratics use the extreme eigenvalues of Sigma.  The softmax loss
    uses its ridge term for alpha and the bound (diag(s) - s s^T) <= I/2
    for beta.
    """
    if isinstance(problem, KernelProblem):
        raise ValueError("convexity bounds are defined for quadratic/logistic problems")
    if isinstance(problem, QuadraticProblem):
        return ConvexityBounds(float(problem.eigenvalues.min()), float(problem.eigenvalues.max()))
    # Softmax with ridge.
    if problem.base_ridge <= 0:
        raise ValueError("softmax loss without a ridge term is not strongly convex")
    sigma = problem.X.T @ problem.X / problem.n_samples
    lam0 = problem.base_ridge
    return ConvexityBounds(lam0, lam0 + 0.5 * float(np.linalg.eigvalsh(sigma).max()))


def make_rotated_quadratic(eigs, theta: float, w_star) -> QuadraticProblem:
    """2-D quadratic with eigenvalues ``eigs`` and rotation angle ``theta``."""
    eigs = np.asarray(eigs, dtype=np.float64)
    if eigs.shape != (2,):
        raise ValueError("make_rotated_quadratic is 2-D only")
    c, s = np.cos(theta), np.sin(theta)
    u = np.array([[c, -s], [s, c]])
    sigma = u @ np.diag(eigs) @ u.T
    sigma = 0.5 * (sigma + sigma.T)
    w_star = np.asarray(w_star, dtype=np.float64)
    return QuadraticProblem(sigma=sigma, a=sigma @ w_star)


def toy_problem() -> QuadraticProblem:
    """The standard 2-D demo quadratic: eigenvalues (0.1, 1), rotation pi/3,
    minimizer (1, 1)."""
    return make_rotated_quadratic((0.1, 1.0), np.pi / 3, (1.0, 1.0))
