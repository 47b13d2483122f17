"""Monte Carlo estimation of target-hit probabilities.

Paths are independent and individually seeded (see sim.derive_path_seed),
so the estimate depends only on (master_seed, n_paths), not on how the paths
are grouped into ``run_paths`` calls: each path's outcome is the same in any
batch, and tallies are order-independent integer sums.  Paths run in chunks
of ``_CHUNK_PATHS``, which bounds memory.  Uncertainty is reported as a
Wilson score interval, by default at z = 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import SdeModel
from .sim import _CODE_TARGET, _CODE_TIMEOUT, _CODE_UNSAFE, derive_path_seed, run_paths
from .synthesis import ProblemSpec

__all__ = ["McSummary", "wilson_interval", "estimate_exit_probability"]

_CHUNK_PATHS = 2048  # paths per run_paths call


@dataclass(frozen=True)
class McSummary:
    n_paths: int
    n_target: int
    n_unsafe: int
    n_timeout: int
    estimate: float
    ci_lo: float
    ci_hi: float
    z: float
    master_seed: int


def _check_z(z: float) -> None:
    if not (math.isfinite(z) and z > 0):
        raise DomainError("z must be positive and finite")


def wilson_interval(successes: int, n: int, z: float) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n < 1:
        raise DomainError("n must be at least 1")
    if not 0 <= successes <= n:
        raise DomainError(f"successes {successes} outside [0, {n}]")
    _check_z(z)
    p = successes / n
    z2n = z * z / n
    denom = 1.0 + z2n
    center = (p + 0.5 * z2n) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    # pin the algebraically exact edges and keep p inside despite roundoff
    lo = 0.0 if successes == 0 else max(0.0, min(center - half, p))
    hi = 1.0 if successes == n else min(1.0, max(center + half, p))
    return (lo, hi)


def estimate_exit_probability(
    model: SdeModel,
    spec: ProblemSpec,
    x0: np.ndarray,
    dt: float,
    horizon: float,
    n_paths: int,
    master_seed: int,
    *,
    z: float = 3.0,
) -> McSummary:
    """Estimate P(hit target within horizon) over n_paths seeded paths."""
    if n_paths < 1:
        raise DomainError("n_paths must be at least 1")
    _check_z(z)  # before any path is simulated
    n_target = n_unsafe = n_timeout = 0
    for lo in range(0, n_paths, _CHUNK_PATHS):
        hi = min(lo + _CHUNK_PATHS, n_paths)
        seeds = [derive_path_seed(master_seed, i) for i in range(lo, hi)]
        res = run_paths(model, spec, x0, dt, horizon, seeds, record=False)
        n_target += int(np.sum(res.kind == _CODE_TARGET))
        n_unsafe += int(np.sum(res.kind == _CODE_UNSAFE))
        n_timeout += int(np.sum(res.kind == _CODE_TIMEOUT))
    estimate = n_target / n_paths
    ci_lo, ci_hi = wilson_interval(n_target, n_paths, z)
    return McSummary(
        n_paths=n_paths,
        n_target=n_target,
        n_unsafe=n_unsafe,
        n_timeout=n_timeout,
        estimate=estimate,
        ci_lo=ci_lo,
        ci_hi=ci_hi,
        z=z,
        master_seed=int(master_seed),
    )
