"""Closed-form solutions and independent checkers for every claimed identity.

Everything in this module is a pure function of immutable inputs and
never evaluates a gradient through the optimizers' step loop.  Mean paths
step one scalar recurrence per eigendirection of the (regularized)
system, the recurrence ``kernel_gd_run`` steps in the Gram eigenbasis;
ridge solutions are direct linear solves.  A test that compares an oracle
with sgd_run, psgd_run or nsgd_run is therefore a genuine two-route check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
import scipy.linalg

from .averaging import (DegenerateSchemeError, WeightScheme, _average, _coordinates,
                        averaged_path, weights_sgd_adaptive)
from .optimizers import (LRSchedule, PathRecord, _accelerated_only, _diagonal_path,
                         nesterov_momentum, problem_fingerprint)
from .problems import (
    ConvexityBounds,
    KernelProblem,
    LogisticProblem,
    QuadraticProblem,
    Regularizer,
    convexity_bounds,
    eval_loss_grad,
)

__all__ = [
    "BoundingSequences",
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


def _regularized_system(problem: QuadraticProblem, reg: Regularizer):
    if reg.kind == "generalized_l2":
        return problem.sigma + reg.lam * reg.Q
    if reg.lam > 0:
        return problem.sigma + reg.lam * np.eye(problem.d)
    return problem.sigma


def ridge_solution(problem: QuadraticProblem, reg: Regularizer) -> np.ndarray:
    """Solve (Sigma + lam I) w = a, or (Sigma + lam Q) w = a for the
    generalized penalty, as a flat vector.  This doubles as the limit
    oracle for every averaging test."""
    system = _regularized_system(problem, reg)
    try:
        w = np.linalg.solve(system, problem.a)
    except np.linalg.LinAlgError as exc:
        raise ValueError("regularized system is singular") from exc
    residual = np.abs(system @ w - problem.a).max()
    if residual > 1e-10 * max(1.0, np.abs(problem.a).max()):
        raise RuntimeError(f"linear solve residual too large: {residual:.3e}")
    return w.ravel()


def kernel_solution(kernel: KernelProblem, lam_hat: float) -> np.ndarray:
    """Minimizer of the dual objective at strength lam_hat, on the range of K.

    Solves (K + lam_hat I) alpha = y in the eigenbasis; components along
    (numerically) zero eigenvalues are set to zero, matching paths that
    start at zero and never leave the range of K.
    """
    if not 0 <= lam_hat < np.inf:
        raise ValueError(f"lam_hat must be nonnegative and finite, got {lam_hat}")
    mu = kernel.eigenvalues
    scale = max(1.0, float(mu.max(initial=0.0)))
    y_eig = kernel.basis.T @ kernel.y
    on_range = mu > 1e-12 * scale
    denom = mu + lam_hat
    if np.any(on_range & (denom <= 0)):
        raise ValueError("K + lam_hat I is singular on the range of K")
    coeff = np.zeros_like(y_eig)
    coeff[on_range] = y_eig[on_range] / denom[on_range]
    return kernel.basis @ coeff


# ---------------------------------------------------------------------------
# Expectation recurrences (quadratic problems)


def expectation_path(
    problem: QuadraticProblem,
    reg: Regularizer,
    schedule: LRSchedule,
    steps: int,
    kind: str = "gd",
    alpha: Optional[float] = None,
) -> PathRecord:
    """Noise-free mean recurrence of a (preconditioned/accelerated) run.

    One divide-and-conquer eigendecomposition of the regularized system S
    (generalized, S v = mu Q v, for PGD) turns the run into independent
    scalar recurrences z <- v - rate (mu v - b) with b = V^T a, the Nesterov
    lookahead v included; the path is V z.  This never evaluates a gradient,
    so it is a second route to the optimizers' loop and coincides with it on
    quadratics.
    """
    if not isinstance(problem, QuadraticProblem):
        raise ValueError("expectation paths are defined for quadratic problems")
    if kind not in ("gd", "pgd", "ngd"):
        raise ValueError(f"unknown expectation kind {kind!r}")
    rates = schedule.etas_upto(steps)
    tau, first = 0.0, 0
    if kind == "ngd":
        if alpha is None:
            raise ValueError("accelerated expectation needs alpha")
        _accelerated_only(schedule, reg)
        tau, first = nesterov_momentum(schedule.eta(0), alpha + reg.lam), 1
    if kind == "pgd" and reg.kind == "none":
        raise ValueError("preconditioned expectation needs the preconditioner via reg.Q")
    if kind == "pgd" and reg.kind != "generalized_l2":
        raise ValueError("preconditioned runs pair with generalized_l2 penalties")
    mu, vecs = scipy.linalg.eigh(_regularized_system(problem, reg),
                                 reg.Q if kind == "pgd" else None,
                                 driver="gvd" if kind == "pgd" else "evd")
    # One row of eigencoordinates per output, so the rotation back is one GEMM.
    rows = _diagonal_path(mu, problem.a.T @ vecs, rates, steps, tau, first)
    path = (rows.reshape(-1, problem.d) @ vecs.T).reshape(rows.shape).swapaxes(1, 2)
    return PathRecord(
        iterates=path.reshape(steps + 1, -1),
        tag=f"expectation-{kind}",
        schedule=schedule,
        problem_fingerprint=problem_fingerprint(problem),
        extras={"lam": reg.lam, "alpha": alpha} if kind == "ngd" else {"lam": reg.lam},
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
) -> float:
    """Chebyshev deviation radius for the weighted noise sum P_k(wavg - E[wavg])
    of a noisy path.

    kind "sgd":   sigma / (gamma (lam+alpha)(lam+beta)^2)
                  * sqrt(lam / (delta gamma (2 - lam gamma)))
    kind "psgd":  the sgd value times ||Q||_2
    kind "nsgd":  sqrt( sigma^2 gamma (1-eta alpha)(sqrt(gamma(alpha+lam)) - sqrt(eta alpha))
                  / (delta eta (lam_min - alpha)(alpha+lam)
                     (2 - sqrt(eta alpha) - sqrt(gamma(alpha+lam)))) )
    where lam_min is the smallest eigenvalue of Sigma, required > alpha.
    """
    if not 0 <= sigma < np.inf:  # each value on its own: a NaN fails every test
        raise ValueError(f"sigma must be nonnegative and finite, got {sigma}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    for name, value in (("gamma", gamma), ("lam", lam), ("alpha", alpha), ("beta", beta)):
        if not 0 < value < np.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if kind in ("sgd", "psgd"):
        eps = (
            sigma
            / (gamma * (lam + alpha) * (lam + beta) ** 2)
            * np.sqrt(lam / (delta * gamma * (2.0 - lam * gamma)))
        )
        if kind == "psgd":
            if q_norm is None or not 0 < q_norm < np.inf:
                raise ValueError("psgd bound needs the preconditioner spectral norm")
            eps *= q_norm
        return float(eps)
    if kind != "nsgd":
        raise ValueError(f"unknown kind {kind!r}")
    if eta is None or lam_min is None:
        raise ValueError("nsgd bound needs eta and lam_min")
    if not 0 < eta < np.inf:
        raise ValueError(f"eta must be positive and finite, got {eta}")
    if not alpha < lam_min < np.inf:
        raise ValueError("nsgd bound requires lam_min > alpha")
    root_e = np.sqrt(eta * alpha)
    root_g = np.sqrt(gamma * (alpha + lam))
    numer = sigma**2 * gamma * (1.0 - eta * alpha) * (root_g - root_e)
    denom = delta * eta * (lam_min - alpha) * (alpha + lam) * (2.0 - root_e - root_g)
    return float(np.sqrt(numer / denom))


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
    if beta > alpha and not eta > 1.0 / (2.0 * beta - alpha):  # a NaN eta fails too
        raise ValueError(
            f"eta = {eta:.6g} violates eta > 1/(2*beta - alpha) = {1.0/(2*beta-alpha):.6g}"
        )
    if not eta < 1.0 / beta:
        raise ValueError(f"eta = {eta:.6g} violates eta < 1/beta = {1.0/beta:.6g}")
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    gamma_cap = eta / (eta * (beta - alpha) + 1.0)
    if not gamma < gamma_cap:
        raise ValueError(
            f"gamma = {gamma:.6g} violates gamma < eta/(eta(beta-alpha)+1) = {gamma_cap:.6g}"
        )
    base = 1.0 / gamma - 1.0 / eta
    lam1 = base + (beta - alpha)
    lam2 = base - (beta - alpha)
    if not (lam1 >= lam2 > 0):
        raise AssertionError("admissible (eta, gamma) must give lam1 >= lam2 > 0")
    return lam1, lam2


def minimize_objective(problem, reg: Regularizer):
    """High-accuracy minimizer of L + lam R for quadratic or softmax losses.

    Quadratics solve in closed form; the softmax loss runs (damped)
    Newton with its analytic Hessian, which is only meant for the small
    problems the bounding-sequence machinery deals with.
    """
    if isinstance(problem, QuadraticProblem):
        return ridge_solution(problem, reg) if reg.lam > 0 else problem.minimizer()
    if not isinstance(problem, LogisticProblem):
        raise ValueError("minimize_objective supports quadratic/logistic problems")
    if reg.kind == "generalized_l2":
        raise ValueError("generalized penalties are not supported for the softmax solve")
    dim = problem.param_dim
    w = np.zeros(dim)
    loss, grad = eval_loss_grad(problem, reg, w)
    identity = np.eye(dim)
    for _ in range(200):
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
        if np.abs(grad).max() < 1e-12:
            return w
    raise RuntimeError("Newton did not reach |grad| < 1e-12 in 200 iterations")


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
    signs: np.ndarray
    mask: np.ndarray
    center: np.ndarray
    halfgap: np.ndarray


def bounding_sequences(
    problem,
    bounds: ConvexityBounds,
    eta: float,
    gamma: float,
    lam1: float,
    lam2: float,
    steps: int,
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
    mask = np.abs(w_star) > 1e-10 * max(1.0, float(np.abs(w_star).max()))
    b = -eval_loss_grad(problem, Regularizer.none(), np.zeros(problem.param_dim))[1]
    b_orient = signs * b

    pairs = ((eta, alpha), (eta, beta), (gamma, alpha + lam1), (gamma, beta + lam2))
    upper, lower, upper_hat, lower_hat = (
        _diagonal_path(slope, b_orient, np.full(steps, rate), steps) for rate, slope in pairs)
    if not 0 < gamma < eta:
        raise ValueError(f"need 0 < gamma < eta, got gamma={gamma}, eta={eta}")
    # P_k = 1 - (gamma/eta)^(k+1); eta - gamma is exact for gamma near eta.
    scheme = weights_sgd_adaptive(eta, (eta - gamma) / (eta * gamma), steps)
    if scheme.cumulative[-1] < 1e-6:
        raise DegenerateSchemeError(f"gamma/eta = {gamma / eta:.8g} leaves P_K = "
                                    f"{scheme.cumulative[-1]:.3e} < 1e-6: ill-conditioned")
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
        signs=signs,
        mask=mask,
        center=center,
        halfgap=halfgap,
    )


# ---------------------------------------------------------------------------
# Checkers


def identity_check(
    path_plain: Union[PathRecord, np.ndarray],
    path_reg: Union[PathRecord, np.ndarray],
    scheme: WeightScheme,
) -> float:
    """Max over k of || P_k wavg_k - (what_k - (1 - P_k) w_k) ||_inf.

    This is an exact algebraic identity for coupled deterministic runs.
    Both paths are read in the scheme's coordinates, which for a kernel
    scheme is the Gram eigenbasis where the matrix weights are diagonal;
    the average and the residual are formed there, so no path is rotated
    back out (a record's rotation comes from ``PathRecord.in_basis``).
    """
    # Compared before rotating: paths of different widths would fail in matmul.
    shapes = [np.shape(p.iterates if isinstance(p, PathRecord) else p)
              for p in (path_plain, path_reg)]
    if shapes[0] != shapes[1]:
        raise ValueError(f"path shapes differ: {shapes[0]} vs {shapes[1]}")
    plain, reg = _coordinates(path_plain, scheme), _coordinates(path_reg, scheme)
    avg = _average(plain, scheme)
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
    avg = _coordinates(averaged, scheme)
    reg1 = _coordinates(reg_path_lam1, scheme)
    reg2 = _coordinates(reg_path_lam2, scheme)
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


def l1_prox_solution(problem: QuadraticProblem, lam: float, tol: float = 1e-10) -> np.ndarray:
    """l1-penalized quadratic minimizer by proximal gradient (ISTA).

    Step size 1/beta with beta the largest eigenvalue of Sigma;
    terminates when successive iterates differ by < tol * (1 + ||w||)
    and verifies first-order optimality:  grad_j = -lam * sign(w_j) on
    the support, |grad_j| <= lam off it (within tol).
    """
    if not 0 <= lam < np.inf:
        raise ValueError(f"lam must be nonnegative and finite, got {lam}")
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    beta = convexity_bounds(problem).beta
    step = 1.0 / beta
    w = np.zeros(problem.param_dim)
    for _ in range(200_000):
        grad = problem.grad(w)
        w_next = soft_threshold(w - step * grad, lam * step)
        if np.linalg.norm(w_next - w) < tol * (1.0 + np.linalg.norm(w_next)):
            w = w_next
            break
        w = w_next
    else:
        raise RuntimeError("proximal gradient did not converge in 200000 iterations")
    grad = problem.grad(w)
    scale = max(1.0, float(np.abs(problem.a).max()))
    on = w != 0
    if np.any(np.abs(grad[on] + lam * np.sign(w[on])) > 50 * tol * beta * scale):
        raise RuntimeError("first-order optimality violated on the support")
    if np.any(np.abs(grad[~on]) > lam + 50 * tol * beta * scale):
        raise RuntimeError("first-order optimality violated off the support")
    return w


# ---------------------------------------------------------------------------
# Planar hull geometry: Qhull (scipy.spatial) builds the hull, and membership
# is an orientation test against its counter-clockwise edges.


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Vertices of the convex hull of 2-D points from Qhull, counter-clockwise,
    without repeats.  Fewer than three distinct points, or collinear ones,
    return the extreme segment endpoints (one point returns itself)."""
    # Imported here, so that no other command pays for the cold import (~0.3-0.7 s).
    from scipy.spatial import ConvexHull, QhullError

    pts = np.unique(np.asarray(points, dtype=np.float64), axis=0)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be (n, 2)")
    try:
        return pts[ConvexHull(pts).vertices]
    except QhullError:  # rows are sorted, so the first and last are the extremes
        return pts[[0, -1]] if pts.shape[0] > 1 else pts


def _on_segment(a: np.ndarray, b: np.ndarray, q: np.ndarray, tol: float) -> bool:
    ab = b - a
    aq = q - a
    cross = ab[0] * aq[1] - ab[1] * aq[0]
    scale = max(1.0, float(np.linalg.norm(ab)))
    if abs(cross) > tol * scale:
        return False
    t = float(aq @ ab) / max(float(ab @ ab), tol**2)
    return -tol <= t <= 1.0 + tol


def hull_contains(points: np.ndarray, query) -> bool:
    """True iff the query point lies inside or on the hull of the points.

    Degenerate hulls (a point or a segment) fall back to distance tests
    with the same orientation tolerance.
    """
    tol = 1e-12
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
