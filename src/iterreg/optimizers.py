"""Update rules producing replayable optimization paths.

All algorithms start from zero and record every iterate.  A run is
fully determined by (problem, regularizer, schedule, steps, seed), and
replaying with the same seed reproduces the stored path bit for bit.

The learning-rate coupling is the load-bearing piece: a regularized run
at strength lam uses gamma_k = eta_k / (1 + lam * eta_k), equivalently
1 - lam * gamma_k = gamma_k / eta_k, which is exactly what makes a
weighted average of the plain path reproduce the regularized one.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .problems import (
    ConvexityBounds,
    KernelProblem,
    QuadraticProblem,
    Regularizer,
    _batch_grad,
    _full_grad,
)

__all__ = [
    "LRSchedule",
    "PathRecord",
    "DivergenceError",
    "make_schedule",
    "sgd_run",
    "psgd_run",
    "nsgd_run",
    "kernel_gd_run",
    "save_path",
    "load_path",
]

_PATH_FORMAT = "iterreg-path"
_PATH_VERSION = 2


class DivergenceError(RuntimeError):
    """Raised when iterates blow up (learning rate too large)."""


@dataclass(frozen=True)
class LRSchedule:
    """Per-step learning rates eta_k with coupled regularized rates gamma_k."""

    etas: np.ndarray  # shape (steps,) or (1,) for a constant rate
    lam: float = 0.0

    def __post_init__(self):
        etas = np.atleast_1d(np.asarray(self.etas, dtype=np.float64))
        if etas.ndim != 1 or etas.size == 0:
            raise ValueError("etas must be a nonempty 1-D sequence")
        if etas.min() <= 0:
            raise ValueError("learning rates must be positive")
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        object.__setattr__(self, "etas", etas)

    @property
    def is_constant(self) -> bool:
        return self.etas.size == 1

    def eta(self, k: int) -> float:
        return float(self.etas[k % self.etas.size])

    def gamma(self, k: int) -> float:
        e = self.eta(k)
        return e / (1.0 + self.lam * e)

    def etas_upto(self, steps: int) -> np.ndarray:
        return np.resize(self.etas, steps)  # repeats the rates cyclically

    def gammas_upto(self, steps: int) -> np.ndarray:
        e = self.etas_upto(steps)
        return e / (1.0 + self.lam * e)


def make_schedule(
    kind: Union[float, Sequence[float]],
    lam: float = 0.0,
    bounds: Optional[ConvexityBounds] = None,
) -> LRSchedule:
    """Build a schedule from a constant rate or an explicit rate sequence.

    When curvature bounds are supplied, every eta_k must satisfy
    eta_k < 1/beta; otherwise the caller vouches for stability.
    """
    etas = np.atleast_1d(np.asarray(kind, dtype=np.float64))
    sched = LRSchedule(etas=etas, lam=lam)
    if bounds is not None:
        limit = 1.0 / bounds.beta
        if sched.etas.max() >= limit:
            raise ValueError(
                f"learning rate {sched.etas.max():.6g} >= 1/beta = {limit:.6g}"
            )
    # Coupling sanity: 1 - lam*gamma must equal gamma/eta to near machine
    # precision for every step.
    e = sched.etas
    g = e / (1.0 + lam * e)
    if np.abs((1.0 - lam * g) - g / e).max() > 1e-14:
        raise AssertionError("learning-rate coupling violated")
    return sched


@dataclass(frozen=True)
class PathRecord:
    """An ordered list of iterates plus the metadata needed to replay it."""

    iterates: np.ndarray  # (steps+1, dim), iterates[0] == 0
    tag: str
    seed: Optional[int] = None
    schedule: Optional[LRSchedule] = None
    problem_fingerprint: str = ""
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        arr = np.asarray(self.iterates, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("iterates must be a (steps+1, dim) array")
        if arr.shape[0] >= 1 and np.any(arr[0] != 0.0):
            raise ValueError("paths must start at zero")
        object.__setattr__(self, "iterates", arr)

    def __len__(self) -> int:
        return self.iterates.shape[0]

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]


def problem_fingerprint(problem) -> str:
    """Stable short hash of the problem's defining arrays."""
    h = hashlib.sha256()
    if isinstance(problem, KernelProblem):
        h.update(problem.K.tobytes())
        h.update(problem.y.tobytes())
    elif isinstance(problem, QuadraticProblem):
        h.update(problem.sigma.tobytes())
        h.update(problem.a.tobytes())
    else:
        h.update(problem.X.tobytes())
        h.update(problem.Y.tobytes())
        h.update(np.float64(problem.base_ridge).tobytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Gradient sources


def _step_rng(seed: int, step: int) -> np.random.Generator:
    # Counter-based: the stream for a step depends only on (seed, step),
    # so coupled runs see identical batches / noise at every step.
    return np.random.Generator(
        np.random.Philox(counter=[step, 0, 0, 0], key=[seed, 0x49737472])
    )


def _sphere_noise_matrix(seed: int, steps: int, dim: int, sigma: float) -> np.ndarray:
    """One noise vector per step, each uniform on the radius-sigma sphere.

    Drawn in a single stream keyed by the seed, so coupled runs with the
    same seed and length see identical noise sequences.
    """
    rng = np.random.Generator(np.random.Philox(key=[seed, 0x6E6F6973]))
    mat = rng.standard_normal((max(steps, 1), dim))
    mat *= sigma / np.linalg.norm(mat, axis=1, keepdims=True)
    return mat


def _guard(w: np.ndarray, limit: float, step: int, tag: str) -> None:
    # NaN fails the comparison too; the norm is only needed for the message.
    if not w.dot(w) <= limit * limit:
        raise DivergenceError(f"{tag} diverged at step {step}: "
                              f"||w|| = {np.linalg.norm(w):.3e} (rate too large?)")


def _guard_limit(problem) -> float:
    if isinstance(problem, QuadraticProblem):
        return 1e8 * (1.0 + float(np.linalg.norm(problem.minimizer())))
    return 1e8


def _validate_run_args(reg, schedule, batch_size, seed, deterministic, noisy):
    # A schedule with lam == 0 provides raw (uncoupled) rates, also for
    # regularized objectives; a coupled schedule must agree with the penalty.
    if reg.lam > 0 and schedule.lam > 0 and schedule.lam != reg.lam:
        raise ValueError(
            f"schedule lambda {schedule.lam} does not match regularizer lambda {reg.lam}"
        )
    if not deterministic:
        if batch_size is None or batch_size < 1:
            raise ValueError("stochastic runs need a batch_size >= 1")
        if seed is None:
            raise ValueError("stochastic runs need a seed")
    if noisy and seed is None:
        raise ValueError("noise injection needs a seed")


def _run(problem, reg, schedule, steps, batch_size, seed, deterministic,
         noise_sigma, name, solve=None, tau=None, extras=None) -> PathRecord:
    """The one step loop behind sgd_run, psgd_run and nsgd_run.

    Rates, gradient route and noise are fixed before the loop.  Mini-batches
    are drawn uniformly with replacement; batch_size >= n is the full gradient.
    ``solve`` maps a gradient to the step direction (the preconditioned
    solve), and injected noise is subtracted from that direction.  ``tau``
    turns on Nesterov lookahead from w_0 = w_1 = 0, so w_2 is the first step.
    """
    noisy = noise_sigma is not None and noise_sigma > 0
    _validate_run_args(reg, schedule, batch_size, seed, deterministic, noisy)
    dim = problem.param_dim
    w = prev = np.zeros(dim)
    path = np.zeros((steps + 1, dim))
    limit = _guard_limit(problem)
    rates = (schedule.gammas_upto(steps) if reg.lam > 0 else schedule.etas_upto(steps)).tolist()
    part = None if deterministic else _batch_grad(problem, reg)
    if part is None or batch_size >= problem.n_samples:
        full = _full_grad(problem, reg)
        grad = lambda v, k: full(v)
    else:
        n = problem.n_samples
        grad = lambda v, k: part(v, _step_rng(seed, k).integers(0, n, size=batch_size))
    noise = _sphere_noise_matrix(seed, steps, dim, noise_sigma) if noisy else None
    for k in range(0 if tau is None else 1, steps):
        v = w if tau is None else w + tau * (w - prev)
        step_dir = grad(v, k)
        if solve is not None:
            step_dir = solve(step_dir)
        if noise is not None:
            step_dir = step_dir - noise[k]
        w, prev = v - rates[k] * step_dir, w
        _guard(w, limit, k, name)
        path[k + 1] = w
    return PathRecord(
        iterates=path,
        # full-gradient, noise-free runs drop the "s": gd, pgd, ngd
        tag=name if (not deterministic or noise_sigma) else name.replace("sgd", "gd"),
        seed=seed,
        schedule=schedule,
        problem_fingerprint=problem_fingerprint(problem),
        extras={"lam": reg.lam, "reg": reg.kind, **(extras or {})},
    )


def sgd_run(
    problem,
    reg: Regularizer,
    schedule: LRSchedule,
    steps: int,
    batch_size: Optional[int] = None,
    seed: Optional[int] = None,
    deterministic: bool = True,
    noise_sigma: Optional[float] = None,
) -> PathRecord:
    """(Stochastic) gradient descent; regularized runs use the coupled rate.

    With ``noise_sigma`` set, noise drawn uniformly on a sphere of that
    radius (mean zero, variance exactly noise_sigma**2) is subtracted from
    every gradient estimate, full or mini-batch, which keeps
    bounded-variance assumptions tight.
    """
    return _run(problem, reg, schedule, steps, batch_size, seed, deterministic,
                noise_sigma, "sgd")


def psgd_run(
    problem,
    reg: Regularizer,
    schedule: LRSchedule,
    steps: int,
    Q: Optional[np.ndarray] = None,
    batch_size: Optional[int] = None,
    seed: Optional[int] = None,
    deterministic: bool = True,
    noise_sigma: Optional[float] = None,
) -> PathRecord:
    """Preconditioned (stochastic) gradient descent.

    The preconditioner is applied through a cached Cholesky factorization.
    Regularized runs expect a generalized-l2 penalty whose matrix matches
    Q; the unregularized companion run passes Q explicitly.  Injected
    noise is subtracted from the preconditioned direction, matching the
    bounded-variance assumption placed on Q^{-1}(grad estimate - grad).
    """
    if reg.lam > 0 and reg.kind != "generalized_l2":
        raise ValueError("regularized preconditioned runs need a generalized_l2 penalty")
    if Q is None:
        if reg.Q is None:
            raise ValueError("Q required (explicitly or through the regularizer)")
        Q = reg.Q
    elif reg.Q is not None and not np.array_equal(Q, reg.Q):
        raise ValueError("explicit Q disagrees with the regularizer's Q")
    Q = np.asarray(Q, dtype=np.float64)
    try:
        factor = cho_factor(Q)
    except np.linalg.LinAlgError as exc:
        raise ValueError("Q must be positive definite") from exc
    shape = (problem.d, problem.param_dim // problem.d)
    return _run(problem, reg, schedule, steps, batch_size, seed, deterministic,
                noise_sigma, "psgd",
                solve=lambda g: cho_solve(factor, g.reshape(shape)).ravel())


def nesterov_momentum(rate: float, strong_convexity: float) -> float:
    prod = rate * strong_convexity
    if not (0 < prod < 1):
        raise ValueError(f"need 0 < rate*alpha < 1 for momentum, got {prod:.6g}")
    root = np.sqrt(prod)
    return (1.0 - root) / (1.0 + root)


def nsgd_run(
    problem,
    reg: Regularizer,
    schedule: LRSchedule,
    steps: int,
    alpha: float,
    batch_size: Optional[int] = None,
    seed: Optional[int] = None,
    deterministic: bool = True,
    noise_sigma: Optional[float] = None,
) -> PathRecord:
    """Nesterov-accelerated (stochastic) gradient descent at a constant rate.

    Iterates are indexed from zero with w_0 = w_1 = 0; the first gradient
    step produces w_2.  The momentum coefficient is
    tau = (1 - sqrt(rate * mu)) / (1 + sqrt(rate * mu)) with mu the
    strong-convexity constant of the objective being optimized
    (alpha for the plain loss, alpha + lam for the regularized one).
    Injected noise is subtracted from the gradient estimate at the
    lookahead point.
    """
    if not schedule.is_constant:
        raise ValueError("accelerated runs support constant learning rates only")
    if reg.kind not in ("none", "l2"):
        raise ValueError("accelerated runs support none/l2 regularizers only")
    regularized = reg.lam > 0
    rate = schedule.gamma(0) if regularized else schedule.eta(0)
    mu = alpha + reg.lam if regularized else alpha
    tau = nesterov_momentum(rate, mu)
    return _run(problem, reg, schedule, steps, batch_size, seed, deterministic,
                noise_sigma, "nsgd", tau=tau, extras={"alpha": alpha, "tau": tau})


def kernel_gd_run(
    kernel: KernelProblem,
    schedule: LRSchedule,
    steps: int,
    lam: float = 0.0,
    lam_hat: Optional[float] = None,
) -> PathRecord:
    """Gradient descent on the dual kernel objective.

    With ``lam_hat`` unset this optimizes the dual loss at strength lam
    with scalar rates eta_k.  With ``lam_hat`` set it runs the companion
    regularized path at strength lam_hat under the matrix-valued rates
    gamma_k = eta_k (I + (lam_hat - lam) eta_k K)^{-1}, applied in the
    cached eigenbasis of K.
    """
    if lam_hat is not None and lam_hat <= lam:
        raise ValueError("need lam_hat > lam for the coupled kernel run")
    mu = kernel.eigenvalues
    u = kernel.basis
    y_eig = u.T @ kernel.y
    strength = lam if lam_hat is None else lam_hat
    rates = schedule.etas_upto(steps)[:, None]
    if lam_hat is not None:
        rates = rates / (1.0 + (lam_hat - lam) * rates * mu)
    coeff = np.zeros(kernel.n)
    path = np.empty((steps + 1, kernel.n))
    path[0] = 0.0
    for k in range(steps):
        grad_eig = (mu * mu + strength * mu) * coeff - mu * y_eig
        coeff = coeff - rates[k] * grad_eig
        path[k + 1] = u @ coeff
    return PathRecord(
        iterates=path,
        tag="kernel-gd",
        schedule=schedule,
        problem_fingerprint=problem_fingerprint(kernel),
        extras={"lam": lam, "lam_hat": lam_hat},
    )


# ---------------------------------------------------------------------------
# Serialization: one uncompressed .npz archive holding the raw float64
# iterates, so a round trip is bit-exact and the file is the array's size,
# plus a JSON header.  Archives are read with allow_pickle=False: loading
# a stored path never runs code from the file.


def save_path(record: PathRecord, path: str) -> None:
    header = {
        "format": _PATH_FORMAT,
        "version": _PATH_VERSION,
        "tag": record.tag,
        "seed": record.seed,
        "steps": len(record) - 1,
        "dim": int(record.iterates.shape[1]),
        "problem": record.problem_fingerprint,
        "extras": _jsonable(record.extras),
        "schedule": None
        if record.schedule is None
        else {"etas": record.schedule.etas.tolist(), "lam": record.schedule.lam},
    }
    # An open handle, not a name: np.savez appends ".npz" to a bare name.
    with open(path, "wb") as fh:
        np.savez(fh, allow_pickle=False, header=np.bytes_(json.dumps(header)),
                 iterates=record.iterates)


def load_path(path: str) -> PathRecord:
    with open(path, "rb") as fh:
        if fh.read(4) != b"PK\x03\x04":
            raise ValueError(f"{path}: not a path record")
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as archive:
                header = json.loads(archive["header"].tobytes()) if "header" in archive else {}
                iterates = archive["iterates"] if "iterates" in archive else None
        except (zipfile.BadZipFile, ValueError) as exc:
            raise ValueError(f"{path}: unreadable or truncated path record ({exc})") from exc
    if not isinstance(header, dict) or header.get("format") != _PATH_FORMAT \
            or iterates is None:
        raise ValueError(f"{path}: not a path record")
    if header.get("version") != _PATH_VERSION:
        raise ValueError(f"{path}: unsupported version {header.get('version')}")
    expected = (header["steps"] + 1, header["dim"])
    if iterates.dtype != np.float64 or iterates.shape != expected:
        raise ValueError(f"{path}: expected float64 iterates of shape {expected}, "
                         f"got {iterates.dtype} {iterates.shape}")
    sched = header.get("schedule")
    schedule = None if sched is None else LRSchedule(np.asarray(sched["etas"]), sched["lam"])
    return PathRecord(
        iterates=iterates,
        tag=header["tag"],
        seed=header["seed"],
        schedule=schedule,
        problem_fingerprint=header.get("problem", ""),
        extras=header.get("extras", {}),
    )


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj
