"""Update rules producing replayable optimization paths.

All algorithms start from zero and record every iterate.  A run is
fully determined by (problem, regularizer, schedule, steps, seed), and
replaying with the same seed reproduces the stored path bit for bit.

The learning-rate coupling is the load-bearing piece: a run penalized at
strength lam steps at ``schedule.coupled(lam)``, gamma_k = eta_k / (1 +
lam * eta_k), equivalently 1 - lam * gamma_k = gamma_k / eta_k, which is
exactly what makes a weighted average of the plain path reproduce the
regularized one.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .problems import (
    ConvexityBounds,
    KernelProblem,
    QuadraticProblem,
    Regularizer,
    _objective_grad,
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
_PATH_VERSION = 4


class DivergenceError(RuntimeError):
    """Raised when iterates blow up (learning rate too large)."""


@dataclass(frozen=True)
class LRSchedule:
    """Per-step learning rates eta_k, the rates a run steps at."""

    etas: np.ndarray  # shape (steps,) or (1,) for a constant rate

    def __post_init__(self):
        etas = np.atleast_1d(np.asarray(self.etas, dtype=np.float64))
        if etas.ndim != 1 or etas.size == 0:
            raise ValueError("etas must be a nonempty 1-D sequence")
        if not (etas.min() > 0 and etas.max() < np.inf):  # NaN fails too
            raise ValueError("learning rates must be positive and finite")
        object.__setattr__(self, "etas", etas)

    @property
    def is_constant(self) -> bool:
        return self.etas.size == 1

    def eta(self, k: int) -> float:
        return float(self.etas[k % self.etas.size])

    def etas_upto(self, steps: int) -> np.ndarray:
        return np.resize(self.etas, steps)  # repeats the rates cyclically

    def coupled(self, lam: float) -> "LRSchedule":
        """The rates gamma_k = eta_k / (1 + lam * eta_k) of the run penalized at lam."""
        if not 0 <= lam < np.inf:
            raise ValueError("lambda must be nonnegative and finite")
        e = self.etas
        g = e / (1.0 + lam * e)
        # Coupling sanity: 1 - lam*gamma must equal gamma/eta to near machine precision.
        if np.abs((1.0 - lam * g) - g / e).max() > 1e-14:
            raise AssertionError("learning-rate coupling violated")
        return LRSchedule(g)


def make_schedule(
    kind: Union[float, Sequence[float]],
    *,
    bounds: Optional[ConvexityBounds] = None,
) -> LRSchedule:
    """Build a schedule from a constant rate or an explicit rate sequence.

    When curvature bounds are supplied, every eta_k must satisfy
    eta_k < 1/beta; otherwise the caller vouches for stability.
    """
    sched = LRSchedule(kind)
    if bounds is not None and sched.etas.max() >= 1 / bounds.beta:
        raise ValueError(f"learning rate {sched.etas.max():.6g} >= 1/beta = {1 / bounds.beta:.6g}")
    return sched


@dataclass(frozen=True)
class PathRecord:
    """An ordered list of iterates plus the facts needed to replay it, each once.

    ``lam`` is the strength the run stepped with (lam_hat for a kernel
    companion run) and ``alpha`` NGD's momentum curvature, else None; the
    momentum tau is derived from them.  ``iterates`` is a read-only view of
    the array given, which its owner must not write afterwards: a record
    keeps its rotation into the last read-only eigenbasis asked for
    (``in_basis``), so that re-weighting one path for many kernel schemes
    rotates it once.
    """

    iterates: np.ndarray  # (steps+1, dim), iterates[0] == 0
    tag: str
    seed: Optional[int]
    schedule: LRSchedule
    problem_fingerprint: str = ""
    lam: float = 0.0
    alpha: Optional[float] = None
    _rotation: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.asarray(self.iterates, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise ValueError("iterates must be a (steps+1, dim) array, w_0 included")
        if np.any(arr[0] != 0.0):
            raise ValueError("paths must start at zero")
        view = arr.view()
        view.flags.writeable = False
        object.__setattr__(self, "iterates", view)

    def in_basis(self, basis: np.ndarray) -> np.ndarray:
        """``iterates @ basis``, kept (read-only) while ``basis`` is the last
        read-only basis asked for; a writable basis is multiplied every call."""
        kept = self._rotation
        if kept is not None and kept[0] is basis:
            return kept[1]
        rotated = self.iterates @ basis
        if not basis.flags.writeable:
            rotated.flags.writeable = False
            object.__setattr__(self, "_rotation", (basis, rotated))
        return rotated

    def __len__(self) -> int:
        return self.iterates.shape[0]


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


def _guard(w: np.ndarray, limit: float, step: int, tag: str, seeds: list, d: int) -> None:
    # NaN fails the comparisons too.  Norms per seed (column blocks of the
    # state, see _run) are only taken once the whole state is past the limit.
    if not w.dot(w) <= limit * limit:
        for seed, norm in zip(seeds, np.linalg.norm(w.reshape(d, len(seeds), -1), axis=(0, 2))):
            if not norm <= limit:
                who = f" (seed {seed})" if len(seeds) > 1 else ""
                raise DivergenceError(f"{tag} diverged at step {step}{who}: "
                                      f"||w|| = {norm:.3e} (rate too large?)")


def _guard_limit(problem) -> float:
    if isinstance(problem, QuadraticProblem):
        return 1e8 * (1.0 + float(np.linalg.norm(problem.minimizer())))
    return 1e8


def _validate_run_args(problem, batch_size, seed, deterministic, noisy):
    if not deterministic:
        if batch_size is None or batch_size < 1:
            raise ValueError("stochastic runs need a batch_size >= 1")
        if seed is None:
            raise ValueError("stochastic runs need a seed")
        if getattr(problem, "X", None) is None:
            raise ValueError("problem carries no raw data; stochastic gradients unavailable")
    if noisy and seed is None:
        raise ValueError("noise injection needs a seed")


def _run(problem, reg, schedule, steps, batch_size, seed, deterministic,
         noise_sigma, name, solve=None, tau=None, alpha=None):
    """The one step loop behind sgd_run, psgd_run and nsgd_run.

    Rates, gradient route and noise are fixed before the loop.  Mini-batches
    are drawn uniformly with replacement; batch_size >= n is the full gradient.
    ``solve`` maps a gradient to the step direction (the preconditioned
    solve), and injected noise is subtracted from that direction.  ``tau``
    turns on Nesterov lookahead from w_0 = w_1 = 0, so w_2 is the first step;
    ``alpha``, the curvature NGD derived tau from, is only recorded.  A
    sequence of seeds (full-gradient quadratic runs only) gives one record per
    seed: seed i's (d, outputs) matrix is column block i of one state, so a
    step reads Sigma and solves once for all seeds, each with its own noise.
    """
    stacked = np.ndim(seed) == 1
    seeds = list(seed) if stacked else [seed]
    if stacked and not (seeds and deterministic and isinstance(problem, QuadraticProblem)):
        raise ValueError("a seed sequence must be nonempty and run a full-gradient quadratic")
    if noise_sigma is not None and not 0 <= noise_sigma < np.inf:  # NaN is no "no noise"
        raise ValueError(f"noise_sigma must be nonnegative and finite, got {noise_sigma}")
    noisy = noise_sigma is not None and noise_sigma > 0
    _validate_run_args(problem, batch_size, seed, deterministic, noisy)
    dim = problem.param_dim
    w = prev = np.zeros(dim * len(seeds))
    path = np.zeros((steps + 1, w.size))
    limit = _guard_limit(problem)
    rates = schedule.etas_upto(steps).tolist()
    objective = _objective_grad(problem, reg)
    if deterministic or batch_size >= problem.n_samples:
        grad = lambda v, k: objective(v)
    else:
        n = problem.n_samples
        grad = lambda v, k: objective(v, _step_rng(seed, k).integers(0, n, size=batch_size))
    d = problem.d  # kernel problems, which have none, were refused above
    noise = np.stack([_sphere_noise_matrix(s, steps, dim, noise_sigma).reshape(-1, d, dim // d)
                      for s in seeds], axis=2).reshape(max(steps, 1), -1) if noisy else None
    for k in range(0 if tau is None else 1, steps):
        v = w if tau is None else w + tau * (w - prev)
        step_dir = grad(v, k)
        if solve is not None:
            step_dir = solve(step_dir)
        if noise is not None:
            step_dir = step_dir - noise[k]
        w, prev = v - rates[k] * step_dir, w
        _guard(w, limit, k, name, seeds, d)
        path[k + 1] = w
    # full-gradient, noise-free runs drop the "s": gd, pgd, ngd
    tag = name if (not deterministic or noise_sigma) else name.replace("sgd", "gd")
    fingerprint = problem_fingerprint(problem)  # once, not once per seed
    blocks = np.moveaxis(path.reshape(steps + 1, d, len(seeds), -1), 2, 0)
    records = [PathRecord(iterates=block.reshape(steps + 1, dim), tag=tag, seed=s,
                          schedule=schedule, problem_fingerprint=fingerprint, lam=reg.lam,
                          alpha=alpha) for s, block in zip(seeds, blocks)]
    return records if stacked else records[0]


def sgd_run(
    problem,
    reg: Regularizer,
    schedule: LRSchedule,
    steps: int,
    batch_size: Optional[int] = None,
    seed: Union[int, Sequence[int], None] = None,
    deterministic: bool = True,
    noise_sigma: Optional[float] = None,
) -> Union[PathRecord, list[PathRecord]]:
    """(Stochastic) gradient descent at exactly the schedule's rates.

    With ``noise_sigma`` set, noise uniform on a sphere of that radius
    (mean zero, variance exactly noise_sigma**2, so bounded-variance
    assumptions are tight) is subtracted from every gradient estimate,
    full or mini-batch.  A sequence of seeds gives one record per seed.
    """
    return _run(problem, reg, schedule, steps, batch_size, seed, deterministic,
                noise_sigma, "sgd")


def psgd_run(
    problem,
    reg: Regularizer,
    schedule: LRSchedule,
    steps: int,
    batch_size: Optional[int] = None,
    seed: Union[int, Sequence[int], None] = None,
    deterministic: bool = True,
    noise_sigma: Optional[float] = None,
) -> Union[PathRecord, list[PathRecord]]:
    """Preconditioned (stochastic) gradient descent.

    The preconditioner is the penalty's Q, and only that, applied through a
    cached Cholesky factorization: a plain run carries it as
    ``Regularizer(0.0, Q)``, a regularized one as the generalized-l2 penalty.
    Injected noise is subtracted from the preconditioned direction, matching
    the bounded-variance assumption placed on Q^{-1}(grad estimate - grad).
    """
    # scipy.linalg is a quarter second of import; only preconditioned runs pay it.
    from scipy.linalg import cho_factor
    from scipy.linalg.lapack import dpotrs

    if reg.Q is None:
        raise ValueError("preconditioned runs need a penalty with a Q, Regularizer(lam, Q)")
    try:
        factor, lower = cho_factor(reg.Q)
    except np.linalg.LinAlgError as exc:
        raise ValueError("Q must be positive definite") from exc
    def solve(g):  # LAPACK on the factor: cho_solve re-checks its arguments every step
        x, info = dpotrs(factor, g.reshape(problem.d, -1), lower=lower)
        if info:
            raise RuntimeError(f"preconditioned solve failed (LAPACK info {info})")
        return x.ravel()
    return _run(problem, reg, schedule, steps, batch_size, seed, deterministic,
                noise_sigma, "psgd", solve=solve)


def nesterov_momentum(rate: float, strong_convexity: float) -> float:
    prod = rate * strong_convexity
    if not (0 < prod < 1):
        raise ValueError(f"need 0 < rate*alpha < 1 for momentum, got {prod:.6g}")
    root = np.sqrt(prod)
    return (1.0 - root) / (1.0 + root)


def _accelerated_only(schedule: LRSchedule, reg: Regularizer) -> None:
    """Refuse what an accelerated run cannot take: its rate is constant and
    its penalty without a Q (none or l2)."""
    if not schedule.is_constant:
        raise ValueError("accelerated runs support constant learning rates only")
    if reg.Q is not None:
        raise ValueError("accelerated runs support none/l2 regularizers only")


def nsgd_run(
    problem,
    reg: Regularizer,
    schedule: LRSchedule,
    steps: int,
    alpha: float,
    batch_size: Optional[int] = None,
    seed: Union[int, Sequence[int], None] = None,
    deterministic: bool = True,
    noise_sigma: Optional[float] = None,
) -> Union[PathRecord, list[PathRecord]]:
    """Nesterov-accelerated (stochastic) gradient descent at a constant rate.

    Iterates are indexed from zero with w_0 = w_1 = 0; the first gradient
    step produces w_2.  The momentum coefficient is
    tau = (1 - sqrt(rate * mu)) / (1 + sqrt(rate * mu)) with mu the
    strong-convexity constant of the objective being optimized
    (alpha for the plain loss, alpha + lam for the regularized one).
    Injected noise is subtracted from the gradient estimate at the
    lookahead point.
    """
    _accelerated_only(schedule, reg)
    tau = nesterov_momentum(schedule.eta(0), alpha + reg.lam)
    return _run(problem, reg, schedule, steps, batch_size, seed, deterministic,
                noise_sigma, "nsgd", tau=tau, alpha=alpha)


def _diagonal_path(m, b, rates, steps, tau=0.0, first=0) -> np.ndarray:
    """Rows z_0..z_K of the entry-wise recurrence behind every closed-form path.

    From z_0 = 0: v = z + tau (z - z_prev), then z <- v - rates[k] (m v - b)
    for k = first..K-1, so rows up to ``first`` stay zero.  A row of
    ``rates`` is one number or one rate per entry.  In an eigenbasis this is
    gradient (tau = 0) or Nesterov descent on a quadratic with curvatures m.
    """
    z = prev = np.zeros(np.broadcast(m, b).shape)
    rows = np.zeros((steps + 1,) + z.shape)
    for k in range(first, steps):
        v = z + tau * (z - prev)
        z, prev = v - rates[k] * (m * v - b), z
        rows[k + 1] = z
    return rows


def _kernel_strengths(kernel: KernelProblem, lam: float,
                      lam_hat: Optional[float]) -> Optional[np.ndarray]:
    """Strengths (lam_hat - lam) mu_j coupling a kernel run at lam to its companion
    at lam_hat, both tested; None without lam_hat.  A mu_j < 0 is rounding: 0."""
    if not 0 <= lam < np.inf:
        raise ValueError(f"lam must be nonnegative and finite, got {lam}")
    if lam_hat is None:
        return None
    if not lam < lam_hat < np.inf:
        raise ValueError(f"need finite lam_hat > lam, got ({lam_hat}, {lam})")
    return (lam_hat - lam) * np.maximum(kernel.eigenvalues, 0.0)


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
    strengths = _kernel_strengths(kernel, lam, lam_hat)
    mu = kernel.eigenvalues
    strength = lam if lam_hat is None else lam_hat
    rates = schedule.etas_upto(steps)[:, None]
    if strengths is not None:
        rates = rates / (1.0 + rates * strengths)
    coeffs = _diagonal_path(mu * mu + strength * mu, mu * (kernel.basis.T @ kernel.y),
                            rates, steps)
    path = coeffs @ kernel.basis.T
    return PathRecord(iterates=path, tag="kernel-gd", seed=None, schedule=schedule,
                      problem_fingerprint=problem_fingerprint(kernel), lam=strength)


# ---------------------------------------------------------------------------
# Serialization: one uncompressed .npz archive holding the raw float64
# iterates, so a round trip is bit-exact and the file is the array's size,
# plus a JSON header.  Archives are read with allow_pickle=False: loading
# a stored path never runs code from the file.


def save_path(record: PathRecord, path: str) -> None:
    # Encoded before the file is opened: a value JSON cannot hold leaves no file.
    header = json.dumps({
        "format": _PATH_FORMAT,
        "version": _PATH_VERSION,
        "tag": record.tag,
        "seed": record.seed,
        "steps": len(record) - 1,
        "dim": int(record.iterates.shape[1]),
        "problem": record.problem_fingerprint,
        "lam": record.lam,
        "alpha": record.alpha,
        "schedule": {"etas": record.schedule.etas.tolist()},
    })
    with open(path, "wb") as fh:  # a handle: np.savez appends ".npz" to a bare name
        np.savez(fh, allow_pickle=False, header=np.bytes_(header), iterates=record.iterates)


def _finite(v) -> bool:  # an int or float, not a bool; NaN fails the comparison
    return type(v) in (int, float) and abs(v) < np.inf


# Header key -> the test its value must pass (``type(v) is int`` refuses a bool); a
# schedule must also be in LRSchedule's range.
_HEADER_KEYS = {"steps": lambda v: type(v) is int and v >= 0,
                "dim": lambda v: type(v) is int and v >= 1,
                "tag": lambda v: isinstance(v, str), "seed": lambda v: v is None or type(v) is int,
                "problem": lambda v: isinstance(v, str), "lam": lambda v: _finite(v) and v >= 0,
                "alpha": lambda v: v is None or _finite(v) and v > 0,
                "schedule": lambda v: isinstance(v, dict)}
_SCHEDULE_KEYS = {"etas": lambda v: isinstance(v, list) and v != []
                  and all(_finite(e) and e > 0 for e in v)}


def _checked(path: str, table, tests: dict) -> list:
    """``table``'s values of ``tests``' keys; a bad one is a ValueError naming file and key."""
    for key, ok in tests.items():
        if not isinstance(table, dict) or key not in table or not ok(table[key]):
            raise ValueError(f"{path}: header key {key!r} is missing or malformed")
    return [table[key] for key in tests]


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
    steps, dim, tag, seed, problem, lam, alpha, sched = _checked(path, header, _HEADER_KEYS)
    expected = (steps + 1, dim)
    if iterates.dtype != np.float64 or iterates.shape != expected:
        raise ValueError(f"{path}: expected float64 iterates of shape {expected}, "
                         f"got {iterates.dtype} {iterates.shape}")
    schedule = LRSchedule(*_checked(path, sched, _SCHEDULE_KEYS))
    return PathRecord(iterates=iterates, tag=tag, seed=seed, schedule=schedule,
                      problem_fingerprint=problem, lam=lam, alpha=alpha)
