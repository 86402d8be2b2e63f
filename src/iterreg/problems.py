"""Objective functions, regularizers, gradients, and curvature constants.

Three problem families are supported:

* quadratic least squares, parameterized by the second-moment matrix
  ``sigma`` and the cross-moment ``a`` (optionally backed by raw (X, Y)
  data for mini-batch gradients),
* multi-class softmax regression with a built-in ridge term that makes
  the objective strongly convex,
* kernel regression in its dual form, parameterized by a Gram matrix.

Parameters for multi-output problems are (d, c) matrices flattened to
1-D vectors in C order; all path algebra in the rest of the package
works on those flat vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
import scipy.linalg

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
    "make_synthetic_quadratic",
]


# ---------------------------------------------------------------------------
# Regularizers


@dataclass(frozen=True)
class Regularizer:
    """A regularization term lam * R(w).

    kind is one of "none", "l2", "generalized_l2", "l1".  The matrix Q
    is present exactly when kind == "generalized_l2" and must be
    symmetric positive definite.
    """

    kind: str = "none"
    lam: float = 0.0
    Q: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("none", "l2", "generalized_l2", "l1"):
            raise ValueError(f"unknown regularizer kind: {self.kind!r}")
        if self.lam < 0:
            raise ValueError(f"lambda must be nonnegative, got {self.lam}")
        if (self.Q is not None) != (self.kind == "generalized_l2"):
            raise ValueError("Q must be given iff kind is 'generalized_l2'")
        if self.Q is not None:
            q = np.asarray(self.Q, dtype=np.float64)
            _check_spd(q, "Q")
            object.__setattr__(self, "Q", q)

    @classmethod
    def none(cls) -> "Regularizer":
        return cls("none", 0.0)

    @classmethod
    def l2(cls, lam: float) -> "Regularizer":
        return cls("l2", lam)

    @classmethod
    def generalized_l2(cls, lam: float, Q: np.ndarray) -> "Regularizer":
        return cls("generalized_l2", lam, Q)

    @classmethod
    def l1(cls, lam: float) -> "Regularizer":
        return cls("l1", lam)

    @property
    def is_smooth(self) -> bool:
        return self.kind != "l1"

    def value(self, w: np.ndarray, d: int) -> float:
        """lam * R(w) for a flat parameter vector of row dimension d."""
        if self.kind == "none" or self.lam == 0.0:
            return 0.0
        if self.kind == "l2":
            return 0.5 * self.lam * float(w @ w)
        if self.kind == "generalized_l2":
            mat = w.reshape(d, -1)
            return 0.5 * self.lam * float(np.sum(mat * (self.Q @ mat)))
        if self.kind == "l1":
            return self.lam * float(np.sum(np.abs(w)))
        raise AssertionError(self.kind)

    def grad(self, w: np.ndarray, d: int) -> np.ndarray:
        """Gradient of lam * R(w); rejects the non-smooth l1 penalty."""
        if self.kind == "l1":
            raise ValueError("l1 regularizer has no gradient; use the proximal solver")
        if self.kind == "none" or self.lam == 0.0:
            return np.zeros_like(w)
        if self.kind == "l2":
            return self.lam * w
        mat = w.reshape(d, -1)
        return self.lam * (self.Q @ mat).ravel()


# ---------------------------------------------------------------------------
# Problems


def _check_spd(matrix: np.ndarray, name: str, tol: float = 1e-12) -> None:
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{name} must be square, got shape {matrix.shape}")
    scale = max(1.0, float(np.abs(matrix).max()))
    if np.abs(matrix - matrix.T).max() > tol * scale:
        raise ValueError(f"{name} must be symmetric to {tol} relative")
    eigvals = np.linalg.eigvalsh(matrix)
    if eigvals.min() <= 0:
        raise ValueError(f"{name} must be positive definite (min eig {eigvals.min():.3e})")


@dataclass(frozen=True)
class QuadraticProblem:
    """Least-squares objective L(w) = (1/2n) sum ||W^T x_i - y_i||^2.

    Up to a constant this is (1/2) tr(W^T Sigma W) - tr(W^T a) with
    Sigma = X^T X / n and a = X^T Y / n, so only those moments are
    required.  Raw (X, Y) data is optional and only needed for
    mini-batch gradients.
    """

    sigma: np.ndarray
    a: np.ndarray
    X: Optional[np.ndarray] = None
    Y: Optional[np.ndarray] = None

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=np.float64)
        a = np.asarray(self.a, dtype=np.float64)
        _check_spd(sigma, "sigma")
        if a.shape[0] != sigma.shape[0]:
            raise ValueError(
                f"a has {a.shape[0]} rows but sigma is {sigma.shape[0]}x{sigma.shape[0]}"
            )
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "a", a)
        if (self.X is None) != (self.Y is None):
            raise ValueError("X and Y must be given together")
        if self.X is not None:
            x = np.asarray(self.X, dtype=np.float64)
            y = np.asarray(self.Y, dtype=np.float64)
            if y.ndim == 1:
                y = y[:, None] if a.ndim == 2 else y
            n = x.shape[0]
            if y.shape[0] != n:
                raise ValueError("X and Y row counts differ")
            scale = max(1.0, float(np.abs(sigma).max()))
            if np.abs(x.T @ x / n - sigma).max() > 1e-10 * scale:
                raise ValueError("sigma does not match X^T X / n")
            a2 = self._as_2d(a)
            y2 = y if y.ndim == 2 else y[:, None]
            ascale = max(1.0, float(np.abs(a2).max()))
            if np.abs(x.T @ y2 / n - a2).max() > 1e-10 * ascale:
                raise ValueError("a does not match X^T Y / n")
            object.__setattr__(self, "X", x)
            object.__setattr__(self, "Y", y)

    @staticmethod
    def _as_2d(a: np.ndarray) -> np.ndarray:
        return a if a.ndim == 2 else a[:, None]

    @classmethod
    def from_data(cls, X: np.ndarray, Y: np.ndarray) -> "QuadraticProblem":
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        n = X.shape[0]
        return cls(sigma=X.T @ X / n, a=X.T @ Y / n, X=X, Y=Y)

    @property
    def d(self) -> int:
        return self.sigma.shape[0]

    @property
    def n_outputs(self) -> int:
        return 1 if self.a.ndim == 1 else self.a.shape[1]

    @property
    def param_dim(self) -> int:
        return self.d * self.n_outputs

    @property
    def n_samples(self) -> Optional[int]:
        return None if self.X is None else self.X.shape[0]

    def _mat(self, w: np.ndarray) -> np.ndarray:
        return w.reshape(self.d, self.n_outputs)

    def loss(self, w: np.ndarray) -> float:
        mat = self._mat(w)
        a2 = self._as_2d(self.a)
        value = 0.5 * np.sum(mat * (self.sigma @ mat)) - np.sum(mat * a2)
        if self.Y is not None:
            y2 = self.Y if self.Y.ndim == 2 else self.Y[:, None]
            value += 0.5 * np.sum(y2 * y2) / self.X.shape[0]
        return float(value)

    def grad(self, w: np.ndarray) -> np.ndarray:
        mat = self._mat(w)
        return (self.sigma @ mat - self._as_2d(self.a)).ravel()

    def minimizer(self) -> np.ndarray:
        """Unregularized minimizer Sigma^{-1} a as a flat vector."""
        return np.linalg.solve(self.sigma, self._as_2d(self.a)).ravel()


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
        if self.base_ridge < 0:
            raise ValueError("base_ridge must be nonnegative")
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

    def grad(self, w: np.ndarray) -> np.ndarray:
        mat = w.reshape(self.d, self.n_outputs)
        probs = self._softmax(self.X @ mat)
        g = self.X.T @ (probs - self.Y) / self.n_samples + self.base_ridge * mat
        return g.ravel()

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
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise ValueError(f"K must be square, got {k.shape}")
        if y.shape != (k.shape[0],):
            raise ValueError("y length must match K")
        scale = max(1.0, float(np.abs(k).max()))
        if np.abs(k - k.T).max() > 1e-12 * scale:
            raise ValueError("K must be symmetric")
        mu, u = jacobi_eigh(k)
        if mu.min() < -1e-12 * scale:
            raise ValueError(f"K must be positive semi-definite (min eig {mu.min():.3e})")
        recon = u @ (mu[:, None] * u.T)
        if np.abs(recon - k).max() > 1e-10 * scale:
            raise RuntimeError("eigendecomposition failed to reconstruct K")
        if np.abs(u.T @ u - np.eye(len(mu))).max() > 1e-12:
            raise RuntimeError("eigendecomposition basis is not orthonormal")
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

    def loss(self, alpha: np.ndarray, lam: float = 0.0) -> float:
        r = self.y - self.K @ alpha
        return float(0.5 * r @ r + 0.5 * lam * alpha @ (self.K @ alpha))

    def grad(self, alpha: np.ndarray, lam: float = 0.0) -> np.ndarray:
        """Gradient of the dual objective at regularization strength lam."""
        return self.K @ (self.K @ alpha - self.y) + lam * (self.K @ alpha)


Problem = Union[QuadraticProblem, LogisticProblem, KernelProblem]


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
    grad = _objective_grad(problem, reg, w)
    w = np.asarray(w, dtype=np.float64)
    if isinstance(problem, KernelProblem):
        return problem.loss(w, reg.lam if reg.kind == "l2" else 0.0), grad
    return problem.loss(w) + reg.value(w, problem.d), grad


def _objective_grad(problem, reg: Regularizer, w: np.ndarray) -> np.ndarray:
    """The gradient half of ``eval_loss_grad``, argument checks included."""
    w = np.asarray(w, dtype=np.float64)
    grad = _full_grad(problem, reg)
    if not isinstance(problem, KernelProblem) and w.shape != (problem.param_dim,):
        raise ValueError(f"w has shape {w.shape}, expected ({problem.param_dim},)")
    return grad(w)


def _full_grad(problem, reg: Regularizer):
    """The gradient of L(w) + lam R(w) as a function of w, checked once here.
    Step loops skip ``eval_loss_grad``, whose loss costs a second Sigma product."""
    if isinstance(problem, KernelProblem):
        if reg.kind not in ("none", "l2"):
            raise ValueError("kernel problems support only the built-in dual penalty")
        lam = reg.lam if reg.kind == "l2" else 0.0
        return lambda w: problem.grad(w, lam)
    if not reg.is_smooth:
        raise ValueError("l1 regularizer rejected: gradient undefined at zeros")
    return lambda w: problem.grad(w) + reg.grad(w, problem.d)


def _batch_grad(problem, reg: Regularizer):
    """The mini-batch gradient as a function of (w, indices in [0, n)), checked once here."""
    if isinstance(problem, KernelProblem):
        raise ValueError("kernel problems have no per-sample gradient form")
    if problem.X is None:
        raise ValueError("problem carries no raw data; stochastic gradients unavailable")
    if not reg.is_smooth:
        raise ValueError("l1 regularizer rejected: gradient undefined at zeros")
    y2 = problem.Y if problem.Y.ndim == 2 else problem.Y[:, None]
    quadratic = isinstance(problem, QuadraticProblem)

    def grad(w, batch):
        mat = w.reshape(problem.d, problem.n_outputs)
        xb = problem.X[batch]
        if quadratic:
            g = xb.T @ (xb @ mat - y2[batch]) / batch.size
        else:
            probs = problem._softmax(xb @ mat)
            g = xb.T @ (probs - y2[batch]) / batch.size + problem.base_ridge * mat
        return g.ravel() + reg.grad(w, problem.d)
    return grad


def stochastic_grad(problem, reg: Regularizer, w: np.ndarray, batch) -> np.ndarray:
    """Mini-batch gradient estimate over explicit sample indices.

    Averaged over all equally likely batches this equals the full
    gradient, so the estimator is unbiased under uniform sampling.
    """
    grad = _batch_grad(problem, reg)
    batch = np.asarray(batch, dtype=np.intp)
    n = problem.n_samples
    if batch.size == 0 or batch.min() < 0 or batch.max() >= n:
        raise ValueError(f"batch indices must be a nonempty subset of [0, {n})")
    w = np.asarray(w, dtype=np.float64)
    if batch.size == n and np.array_equal(np.sort(batch), np.arange(n)):
        # A batch covering every sample once is the full gradient; route it
        # through the moment form so the two are bit-identical.
        return _objective_grad(problem, reg, w)
    return grad(w, batch)


def convexity_bounds(problem, reg: Regularizer = Regularizer.none()) -> ConvexityBounds:
    """Curvature constants (alpha, beta) of the unregularized loss L.

    Plain problems use the extreme eigenvalues of Sigma; under a
    generalized-l2 penalty with matrix Q the constants satisfy
    alpha Q <= Sigma <= beta Q, i.e. they are the extreme eigenvalues of
    Q^{-1/2} Sigma Q^{-1/2}.  The softmax loss uses its ridge term for
    alpha and the bound (diag(s) - s s^T) <= I/2 for beta.
    """
    if isinstance(problem, KernelProblem):
        raise ValueError("convexity bounds are defined for quadratic/logistic problems")
    q = reg.Q if reg.kind == "generalized_l2" else None
    if isinstance(problem, QuadraticProblem):
        sigma = problem.sigma
        if q is None:
            eigvals = np.linalg.eigvalsh(sigma)
        else:
            eigvals = _whitened_eigvals(sigma, q)
        return ConvexityBounds(float(eigvals.min()), float(eigvals.max()))
    # Softmax with ridge.
    if problem.base_ridge <= 0:
        raise ValueError("softmax loss without a ridge term is not strongly convex")
    sigma = problem.X.T @ problem.X / problem.n_samples
    lam0 = problem.base_ridge
    if q is None:
        beta = lam0 + 0.5 * float(np.linalg.eigvalsh(sigma).max())
        return ConvexityBounds(lam0, beta)
    q_eigs = np.linalg.eigvalsh(q)
    whitened = _whitened_eigvals(sigma, q)
    alpha = lam0 / float(q_eigs.max())
    beta = lam0 / float(q_eigs.min()) + 0.5 * float(whitened.max())
    return ConvexityBounds(alpha, beta)


def _whitened_eigvals(sigma: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Eigenvalues of Q^{-1/2} Sigma Q^{-1/2}, from LAPACK's generalized solver."""
    try:
        return scipy.linalg.eigh(sigma, q, eigvals_only=True)
    except np.linalg.LinAlgError as exc:
        raise ValueError("Q must be positive definite") from exc


def make_synthetic_quadratic(
    d: int,
    eig_min: float,
    eig_max: float,
    rotation_seed: int = 0,
    w_star=None,
) -> QuadraticProblem:
    """Quadratic with a prescribed spectrum and known minimizer.

    Sigma = U diag(spectrum) U^T for a random (seeded) orthogonal U, the
    Q factor of a seeded Gaussian matrix at every d (d == 2 included),
    and a = Sigma w_star so that w_star is the unregularized minimizer.
    The two-dimensional demo problem comes from ``make_rotated_quadratic``.
    """
    if not (0 < eig_min <= eig_max):
        raise ValueError(f"need 0 < eig_min <= eig_max, got ({eig_min}, {eig_max})")
    spectrum = np.linspace(eig_min, eig_max, d)
    rng = np.random.default_rng(rotation_seed)
    mat = rng.standard_normal((d, d))
    u, _ = np.linalg.qr(mat)
    sigma = u @ np.diag(spectrum) @ u.T
    sigma = 0.5 * (sigma + sigma.T)
    if w_star is None:
        w_star = np.ones(d)
    w_star = np.asarray(w_star, dtype=np.float64)
    return QuadraticProblem(sigma=sigma, a=sigma @ w_star)


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
