"""Closed-form solutions and independent checkers for every claimed identity.

Everything in this module is a pure function of immutable inputs and is
deliberately written through *different* algebra than the optimizer
implementations (contraction-to-target recurrences, eigenbasis closed
forms, direct linear solves), so a test that crosses the two code paths
is a genuine two-route check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .averaging import WeightScheme, averaged_path, weights_general
from .optimizers import LRSchedule, PathRecord, nesterov_momentum, problem_fingerprint
from .problems import (
    ConvexityBounds,
    KernelProblem,
    LogisticProblem,
    QuadraticProblem,
    Regularizer,
    _objective_grad,
    eval_loss_grad,
)

__all__ = [
    "RidgeSolution",
    "BoundingSequences",
    "DeviationBound",
    "ridge_solution",
    "kernel_solution",
    "expectation_path",
    "nsgd_expectation_increment",
    "variance_epsilon",
    "lambda_pair",
    "bounding_sequences",
    "identity_check",
    "sandwich_check",
    "l1_prox_solution",
    "convex_hull",
    "hull_contains",
    "minimize_objective",
]


# ---------------------------------------------------------------------------
# Exact solutions


@dataclass(frozen=True)
class RidgeSolution:
    """Minimizer of the quadratic objective plus an l2-type penalty."""

    w_hat: np.ndarray
    lam: float
    kind: str  # "l2" or "generalized_l2"


def ridge_solution(problem: QuadraticProblem, reg: Regularizer) -> RidgeSolution:
    """Solve (Sigma + lam I) w = a, or (Sigma + lam Q) w = a for the
    generalized penalty.  This doubles as the limit oracle for every
    averaging test."""
    if reg.kind == "l1":
        raise ValueError("l1 penalty has no linear-solve solution; use l1_prox_solution")
    lam = reg.lam
    if reg.kind == "generalized_l2":
        system = problem.sigma + lam * reg.Q
        kind = "generalized_l2"
    else:
        system = problem.sigma + lam * np.eye(problem.d)
        kind = "l2"
    a2 = problem._as_2d(problem.a)
    try:
        w = np.linalg.solve(system, a2)
    except np.linalg.LinAlgError as exc:
        raise ValueError("regularized system is singular") from exc
    residual = np.abs(system @ w - a2).max()
    if residual > 1e-10 * max(1.0, np.abs(a2).max()):
        raise RuntimeError(f"linear solve residual too large: {residual:.3e}")
    return RidgeSolution(w_hat=w.ravel(), lam=lam, kind=kind)


def kernel_solution(kernel: KernelProblem, lam_hat: float, rank_tol: float = 1e-12) -> np.ndarray:
    """Minimizer of the dual objective at strength lam_hat, on the range of K.

    Solves (K + lam_hat I) alpha = y in the eigenbasis; components along
    (numerically) zero eigenvalues are set to zero, matching paths that
    start at zero and never leave the range of K.
    """
    if lam_hat < 0:
        raise ValueError("lam_hat must be nonnegative")
    mu = kernel.eigenvalues
    scale = max(1.0, float(mu.max(initial=0.0)))
    y_eig = kernel.basis.T @ kernel.y
    on_range = mu > rank_tol * scale
    denom = mu + lam_hat
    if np.any(on_range & (denom <= 0)):
        raise ValueError("K + lam_hat I is singular on the range of K")
    coeff = np.zeros_like(y_eig)
    coeff[on_range] = y_eig[on_range] / denom[on_range]
    return kernel.basis @ coeff


# ---------------------------------------------------------------------------
# Expectation recurrences (quadratic problems)


def _regularized_system(problem: QuadraticProblem, reg: Regularizer):
    if reg.kind == "generalized_l2":
        return problem.sigma + reg.lam * reg.Q
    if reg.lam > 0:
        return problem.sigma + reg.lam * np.eye(problem.d)
    return problem.sigma


def expectation_path(
    problem: QuadraticProblem,
    reg: Regularizer,
    schedule: LRSchedule,
    steps: int,
    kind: str = "gd",
    alpha: Optional[float] = None,
) -> PathRecord:
    """Noise-free mean recurrence of a (preconditioned/accelerated) run.

    Uses the contraction-to-target form E_{k+1} - target =
    (I - rate * M)(E_k - target), which is algebraically independent of
    the gradient-evaluation loop in the optimizers and coincides with it
    on quadratics.
    """
    if not isinstance(problem, QuadraticProblem):
        raise ValueError("expectation paths are defined for quadratic problems")
    if kind not in ("gd", "pgd", "ngd"):
        raise ValueError(f"unknown expectation kind {kind!r}")
    regularized = reg.lam > 0
    system = _regularized_system(problem, reg)
    a2 = problem._as_2d(problem.a)
    target = np.linalg.solve(system, a2)
    d, c = target.shape

    if kind == "ngd":
        if alpha is None:
            raise ValueError("accelerated expectation needs alpha")
        rate = schedule.gamma(0) if regularized else schedule.eta(0)
        mu = alpha + reg.lam if regularized else alpha
        tau = nesterov_momentum(rate, mu)
        contraction = np.eye(d) - rate * system
        prev = np.zeros((d, c))
        curr = np.zeros((d, c))
        path = np.zeros((steps + 1, d * c))
        for k in range(1, steps):
            nxt = (1 + tau) * (contraction @ curr) - tau * (contraction @ prev) + rate * a2
            path[k + 1] = nxt.ravel()
            prev, curr = curr, nxt
        return PathRecord(
            iterates=path,
            tag="expectation-ngd",
            schedule=schedule,
            problem_fingerprint=problem_fingerprint(problem),
            extras={"lam": reg.lam, "alpha": alpha},
        )

    if kind == "pgd":
        if reg.kind == "generalized_l2":
            q = reg.Q
        elif reg.kind == "none":
            raise ValueError("preconditioned expectation needs the preconditioner via reg.Q")
        else:
            raise ValueError("preconditioned runs pair with generalized_l2 penalties")
        mat = np.linalg.solve(q, system)
    else:
        mat = system

    rates = (schedule.gammas_upto(steps) if regularized else schedule.etas_upto(steps)).tolist()
    path = np.zeros((steps + 1, d * c))
    diff = -target
    for k in range(steps):
        diff = diff - rates[k] * (mat @ diff)
        path[k + 1] = (diff + target).ravel()
    return PathRecord(
        iterates=path,
        tag=f"expectation-{kind}",
        schedule=schedule,
        problem_fingerprint=problem_fingerprint(problem),
        extras={"lam": reg.lam},
    )


def nsgd_expectation_increment(
    sigma_eigs,
    a_eigs,
    eta: float,
    alpha: float,
    k: int,
    lam: Optional[float] = None,
) -> np.ndarray:
    """Closed-form mean increment E[w_{k+1}] - E[w_k] of an accelerated run,
    per eigendirection of Sigma.

    Solves the two-term recurrence z_{k+1} = A z_k + B z_{k-1}
    (z_0 = 0, z_1 = rate * a) in closed form:
        z_k = (rate * a / sin(theta)) * (-B)^((k-1)/2) * sin(theta * k),
    with cos(theta) = sqrt((1 - rate*S) / (1 - rate*m)) for S the (shifted)
    eigenvalue and m the (shifted) strong-convexity constant.  With lam
    given, rate = eta/(1+lam*eta), S = sigma + lam, m = alpha + lam.
    """
    sigma_eigs = np.atleast_1d(np.asarray(sigma_eigs, dtype=np.float64))
    a_eigs = np.atleast_1d(np.asarray(a_eigs, dtype=np.float64))
    if sigma_eigs.shape != a_eigs.shape:
        raise ValueError("sigma_eigs and a_eigs must align")
    if lam is None:
        rate, shift = eta, 0.0
    else:
        if lam <= 0:
            raise ValueError("lam must be positive when given")
        rate, shift = eta / (1.0 + lam * eta), lam
    s = sigma_eigs + shift
    m = alpha + shift
    if np.any(sigma_eigs <= alpha):
        raise ValueError(
            "alpha must lie strictly below every eigenvalue (sin(theta) = 0 otherwise); "
            "perturb alpha"
        )
    if rate * s.max() >= 1.0:
        raise ValueError("rate too large: need rate * max eigenvalue < 1")
    if k == 0:
        return np.zeros_like(a_eigs)
    minus_b = (1.0 - np.sqrt(rate * m)) / (1.0 + np.sqrt(rate * m)) * (1.0 - rate * s)
    sin_theta = np.sqrt(rate * (s - m) / (1.0 - rate * m))
    theta = np.arcsin(np.clip(sin_theta, -1.0, 1.0))
    return rate * a_eigs / sin_theta * minus_b ** ((k - 1) / 2.0) * np.sin(theta * k)


# ---------------------------------------------------------------------------
# Deviation bounds


@dataclass(frozen=True)
class DeviationBound:
    """High-probability radius for the weighted noise sum P_k(wavg - E[wavg])."""

    epsilon: float
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")


def variance_epsilon(
    kind: str,
    sigma: float,
    delta: float,
    gamma: float,
    lam: float,
    alpha: float,
    beta: float,
    eta: Optional[float] = None,
    lam_min: Optional[float] = None,
    q_norm: Optional[float] = None,
) -> DeviationBound:
    """Chebyshev deviation radius for the weighted average of a noisy path.

    kind "sgd":   sigma / (gamma (lam+alpha)(lam+beta)^2)
                  * sqrt(lam / (delta gamma (2 - lam gamma)))
    kind "psgd":  the sgd value times ||Q||_2
    kind "nsgd":  sqrt( sigma^2 gamma (1-eta alpha)(sqrt(gamma(alpha+lam)) - sqrt(eta alpha))
                  / (delta eta (lam_min - alpha)(alpha+lam)
                     (2 - sqrt(eta alpha) - sqrt(gamma(alpha+lam)))) )
    where lam_min is the smallest eigenvalue of Sigma, required > alpha.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if not (0 < delta < 1):
        raise ValueError("delta must be in (0, 1)")
    if min(gamma, lam, alpha, beta) <= 0:
        raise ValueError("gamma, lam, alpha, beta must be positive")
    params = {
        "kind": kind, "sigma": sigma, "delta": delta, "gamma": gamma,
        "lam": lam, "alpha": alpha, "beta": beta,
    }
    if kind in ("sgd", "psgd"):
        eps = (
            sigma
            / (gamma * (lam + alpha) * (lam + beta) ** 2)
            * np.sqrt(lam / (delta * gamma * (2.0 - lam * gamma)))
        )
        if kind == "psgd":
            if q_norm is None or q_norm <= 0:
                raise ValueError("psgd bound needs the preconditioner spectral norm")
            eps *= q_norm
            params["q_norm"] = q_norm
        return DeviationBound(float(eps), params)
    if kind != "nsgd":
        raise ValueError(f"unknown kind {kind!r}")
    if eta is None or lam_min is None:
        raise ValueError("nsgd bound needs eta and lam_min")
    if lam_min <= alpha:
        raise ValueError("nsgd bound requires lam_min > alpha")
    root_e = np.sqrt(eta * alpha)
    root_g = np.sqrt(gamma * (alpha + lam))
    numer = sigma**2 * gamma * (1.0 - eta * alpha) * (root_g - root_e)
    denom = delta * eta * (lam_min - alpha) * (alpha + lam) * (2.0 - root_e - root_g)
    params.update({"eta": eta, "lam_min": lam_min})
    return DeviationBound(float(np.sqrt(numer / denom)), params)


# ---------------------------------------------------------------------------
# General strongly convex + smooth machinery


def lambda_pair(eta: float, gamma: float, bounds: ConvexityBounds):
    """The pair of penalty strengths bracketing a general averaged path:
    lam1 = 1/gamma - 1/eta + (beta - alpha), lam2 = 1/gamma - 1/eta - (beta - alpha).

    Every admissibility condition is reported individually on violation.
    """
    alpha, beta = bounds.alpha, bounds.beta
    # The lower rate condition only exists to keep gamma*(beta + lam1) < 1;
    # at alpha == beta that holds automatically and the window (1/beta, 1/beta)
    # would be empty, so the check applies to the strictly curved case only.
    if beta > alpha and eta <= 1.0 / (2.0 * beta - alpha):
        raise ValueError(
            f"eta = {eta:.6g} violates eta > 1/(2*beta - alpha) = {1.0/(2*beta-alpha):.6g}"
        )
    if eta >= 1.0 / beta:
        raise ValueError(f"eta = {eta:.6g} violates eta < 1/beta = {1.0/beta:.6g}")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    gamma_cap = eta / (eta * (beta - alpha) + 1.0)
    if gamma >= gamma_cap:
        raise ValueError(
            f"gamma = {gamma:.6g} violates gamma < eta/(eta(beta-alpha)+1) = {gamma_cap:.6g}"
        )
    base = 1.0 / gamma - 1.0 / eta
    lam1 = base + (beta - alpha)
    lam2 = base - (beta - alpha)
    if not (lam1 >= lam2 > 0):
        raise AssertionError("admissible (eta, gamma) must give lam1 >= lam2 > 0")
    return lam1, lam2


def minimize_objective(problem, reg: Regularizer, tol: float = 1e-12, max_iter: int = 200):
    """High-accuracy minimizer of L + lam R for quadratic or softmax losses.

    Quadratics solve in closed form; the softmax loss runs (damped)
    Newton with its analytic Hessian, which is only meant for the small
    problems the bounding-sequence machinery deals with.
    """
    if isinstance(problem, QuadraticProblem):
        return ridge_solution(problem, reg).w_hat if reg.lam > 0 else problem.minimizer()
    if not isinstance(problem, LogisticProblem):
        raise ValueError("minimize_objective supports quadratic/logistic problems")
    if reg.kind == "generalized_l2":
        raise ValueError("generalized penalties are not supported for the softmax solve")
    dim = problem.param_dim
    w = np.zeros(dim)
    loss, grad = eval_loss_grad(problem, reg, w)
    identity = np.eye(dim)
    for _ in range(max_iter):
        hess = problem.hessian(w) + reg.lam * identity
        step = np.linalg.solve(hess, grad)
        scale = 1.0
        while scale > 1e-8:
            candidate = w - scale * step
            new_loss, new_grad = eval_loss_grad(problem, reg, candidate)
            if new_loss <= loss + 1e-14 * abs(loss):
                break
            scale *= 0.5
        w, loss, grad = candidate, new_loss, new_grad
        if np.abs(grad).max() < tol:
            return w
    raise RuntimeError(f"Newton did not reach |grad| < {tol} in {max_iter} iterations")


@dataclass(frozen=True)
class BoundingSequences:
    """Scalar comparison recurrences that sandwich a GD path per coordinate.

    All sequences are stored in *oriented* coordinates: coordinate j is
    multiplied by signs[j] (the sign of the unregularized minimizer), so
    the textbook case "minimizer > 0" applies uniformly.  Coordinates
    where the minimizer vanishes are masked out.

    upper/lower: alpha- and beta-driven recurrences for the plain path.
    upper_avg/lower_avg: their weighted averages under the same scheme.
    upper_hat: gamma-rate recurrence at strength lam1 (bounds the lam1 path
    from above); lower_hat: gamma-rate recurrence at strength lam2 (bounds
    the lam2 path from below).
    """

    upper: np.ndarray
    lower: np.ndarray
    upper_avg: np.ndarray
    lower_avg: np.ndarray
    upper_hat: np.ndarray
    lower_hat: np.ndarray
    b: np.ndarray
    signs: np.ndarray
    mask: np.ndarray
    center: np.ndarray
    halfgap: np.ndarray
    lam1: float
    lam2: float


def bounding_sequences(
    problem,
    bounds: ConvexityBounds,
    eta: float,
    gamma: float,
    lam1: float,
    lam2: float,
    steps: int,
    zero_tol: float = 1e-10,
) -> BoundingSequences:
    """Comparison sequences for the entry-wise sandwich of an averaged path.

    With b = -grad L(0) (oriented per coordinate), the recurrences are
        upper_{k+1} = upper_k - eta (alpha * upper_k - b),
        lower_{k+1} = lower_k - eta (beta  * lower_k - b),
    and the gamma-rate analogues at strengths lam1 (alpha side) and lam2
    (beta side).  Orientation swaps the alpha/beta roles on coordinates
    with a negative minimizer, which is exactly the mirrored
    one-dimensional case.
    """
    alpha, beta = bounds.alpha, bounds.beta
    w_star = minimize_objective(problem, Regularizer.none())
    signs = np.sign(w_star)
    mask = np.abs(w_star) > zero_tol * max(1.0, float(np.abs(w_star).max()))
    b = -_objective_grad(problem, Regularizer.none(), np.zeros(problem.param_dim))
    b_orient = signs * b

    def first_order(rate, slope):
        seq = np.zeros((steps + 1, b.size))
        x = np.zeros(b.size)
        for k in range(steps):
            x = x - rate * (slope * x - b_orient)
            seq[k + 1] = x
        return seq

    upper = first_order(eta, alpha)
    lower = first_order(eta, beta)
    upper_hat = first_order(gamma, alpha + lam1)
    lower_hat = first_order(gamma, beta + lam2)
    scheme = weights_general(eta, gamma, steps)
    upper_avg = averaged_path(upper, scheme)
    lower_avg = averaged_path(lower, scheme)

    ridge1 = minimize_objective(problem, Regularizer.l2(lam1))
    ridge2 = minimize_objective(problem, Regularizer.l2(lam2))
    center = 0.5 * (ridge2 + ridge1)
    halfgap = 0.5 * (ridge2 - ridge1)
    return BoundingSequences(
        upper=upper,
        lower=lower,
        upper_avg=upper_avg,
        lower_avg=lower_avg,
        upper_hat=upper_hat,
        lower_hat=lower_hat,
        b=b,
        signs=signs,
        mask=mask,
        center=center,
        halfgap=halfgap,
        lam1=lam1,
        lam2=lam2,
    )


# ---------------------------------------------------------------------------
# Checkers


def _stack(path: Union[PathRecord, np.ndarray]) -> np.ndarray:
    arr = path.iterates if isinstance(path, PathRecord) else np.asarray(path, float)
    return arr if arr.ndim == 2 else arr[:, None]


def identity_check(
    path_plain: Union[PathRecord, np.ndarray],
    path_reg: Union[PathRecord, np.ndarray],
    scheme: WeightScheme,
) -> float:
    """Max over k of || P_k wavg_k - (what_k - (1 - P_k) w_k) ||_inf.

    This is an exact algebraic identity for coupled deterministic runs;
    kernel schemes are evaluated in their eigenbasis, where the matrix
    weights are diagonal.
    """
    plain = _stack(path_plain)
    reg = _stack(path_reg)
    if plain.shape != reg.shape:
        raise ValueError(f"path shapes differ: {plain.shape} vs {reg.shape}")
    avg = averaged_path(plain, scheme)
    if scheme.basis is not None:
        plain, reg, avg = plain @ scheme.basis, reg @ scheme.basis, avg @ scheme.basis
    p_cum = scheme.cumulative[: len(plain)].reshape(len(plain), -1)
    residual = p_cum * avg - (reg - (1.0 - p_cum) * plain)
    return float(np.abs(residual).max())


def sandwich_check(
    averaged: np.ndarray,
    reg_path_lam1: Union[PathRecord, np.ndarray],
    reg_path_lam2: Union[PathRecord, np.ndarray],
    bounding: BoundingSequences,
    scheme: WeightScheme,
) -> float:
    """Most negative slack of the entry-wise sandwich around an averaged path.

    In oriented coordinates the claim is
        what_{k,lam1} + (1-P_k)(lower_avg_k - lower_k)
            <= wavg_k <=
        what_{k,lam2} + (1-P_k)(upper_avg_k - upper_k),
    checked at every k on unmasked coordinates; the return value is the
    smallest (worst) slack across both sides.
    """
    avg = _stack(averaged)
    reg1 = _stack(reg_path_lam1)
    reg2 = _stack(reg_path_lam2)
    steps = avg.shape[0] - 1
    p_cum = scheme.cumulative[: steps + 1][:, None]
    signs = bounding.signs[None, :]
    avg_o = signs * avg
    reg1_o = signs * reg1
    reg2_o = signs * reg2
    lower_bound = reg1_o + (1.0 - p_cum) * (bounding.lower_avg - bounding.lower)
    upper_bound = reg2_o + (1.0 - p_cum) * (bounding.upper_avg - bounding.upper)
    mask = bounding.mask[None, :]
    slack_low = np.where(mask, avg_o - lower_bound, np.inf)
    slack_high = np.where(mask, upper_bound - avg_o, np.inf)
    return float(min(slack_low.min(), slack_high.min()))


# ---------------------------------------------------------------------------
# l1 territory


def soft_threshold(x: np.ndarray, threshold: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - threshold, 0.0)


def l1_prox_solution(
    problem: QuadraticProblem,
    lam: float,
    tol: float = 1e-10,
    max_iter: int = 200_000,
) -> np.ndarray:
    """l1-penalized quadratic minimizer by proximal gradient (ISTA).

    Step size 1/beta with beta the largest eigenvalue of Sigma;
    terminates when successive iterates differ by < tol * (1 + ||w||)
    and verifies first-order optimality:  grad_j = -lam * sign(w_j) on
    the support, |grad_j| <= lam off it (within tol).
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if tol <= 0:
        raise ValueError("tol must be positive")
    beta = float(np.linalg.eigvalsh(problem.sigma).max())
    step = 1.0 / beta
    w = np.zeros(problem.param_dim)
    for _ in range(max_iter):
        grad = problem.grad(w)
        w_next = soft_threshold(w - step * grad, lam * step)
        if np.linalg.norm(w_next - w) < tol * (1.0 + np.linalg.norm(w_next)):
            w = w_next
            break
        w = w_next
    else:
        raise RuntimeError(f"proximal gradient did not converge in {max_iter} iterations")
    grad = problem.grad(w)
    scale = max(1.0, float(np.abs(problem._as_2d(problem.a)).max()))
    on = w != 0
    if np.any(np.abs(grad[on] + lam * np.sign(w[on])) > 50 * tol * beta * scale):
        raise RuntimeError("first-order optimality violated on the support")
    if np.any(np.abs(grad[~on]) > lam + 50 * tol * beta * scale):
        raise RuntimeError("first-order optimality violated off the support")
    return w


# ---------------------------------------------------------------------------
# Planar hull geometry


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Monotone-chain convex hull of 2-D points, counter-clockwise,
    without repeated endpoints.  Collinear inputs return the extreme
    segment endpoints."""
    pts = np.unique(np.asarray(points, dtype=np.float64), axis=0)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be (n, 2)")
    if pts.shape[0] <= 2:
        return pts
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = np.array(lower[:-1] + upper[:-1])
    if hull.shape[0] < 3:
        # All points collinear: keep the two extremes.
        return np.array([pts[0], pts[-1]])
    return hull


def _on_segment(a: np.ndarray, b: np.ndarray, q: np.ndarray, tol: float) -> bool:
    ab = b - a
    aq = q - a
    cross = ab[0] * aq[1] - ab[1] * aq[0]
    scale = max(1.0, float(np.linalg.norm(ab)))
    if abs(cross) > tol * scale:
        return False
    t = float(aq @ ab) / max(float(ab @ ab), tol**2)
    return -tol <= t <= 1.0 + tol


def hull_contains(points: np.ndarray, query, tol: float = 1e-12) -> bool:
    """True iff the query point lies inside or on the hull of the points.

    Degenerate hulls (a point or a segment) fall back to distance tests
    with the same orientation tolerance.
    """
    query = np.asarray(query, dtype=np.float64)
    hull = convex_hull(points)
    if hull.shape[0] == 1:
        return bool(np.linalg.norm(query - hull[0]) <= tol)
    if hull.shape[0] == 2:
        return _on_segment(hull[0], hull[1], query, tol)
    nxt = np.roll(hull, -1, axis=0)
    edge = nxt - hull
    rel = query[None, :] - hull
    cross = edge[:, 0] * rel[:, 1] - edge[:, 1] * rel[:, 0]
    scale = max(1.0, float(np.abs(edge).max()))
    return bool(np.all(cross >= -tol * scale))
