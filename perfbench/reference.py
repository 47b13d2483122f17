"""Computations made apart from sdexit, used to check its outputs.

Everything here is written from the model equations and the paper's
formulas, not from the package's code: the adaptive-cruise-control fields,
the three built-in quadratic barriers, the closed-form exit bounds, the
per-path seed mix and a plain Euler-Maruyama loop with bang-bang control.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1

# v(x) = x'Qx + c'x + d for the built-in barriers 1-3 (two-state models)
_BARRIERS = {
    1: (np.zeros((2, 2)), np.array([-0.45, 0.25]), 0.0),
    2: (np.eye(2) / 8.0, np.zeros(2), -1.0 / 8.0),
    3: (np.eye(2) / 64.0, np.array([-20.0, -20.0]) / 64.0, 200.0 / 64.0),
}

TARGET, UNSAFE, TIMEOUT = "target", "unsafe", "timeout"


class Scenario:
    """ACC model fields and one built-in barrier, evaluated in closed form.

    The model is dx1 = (-(f0 + f1 x1 + f2 x1^2) + u) / mass dt + dW1,
    dx3 = (lead_velocity - x1) dt + dW2, u in [u_lo, u_hi].
    """

    def __init__(self, model_params: dict, barrier_index: int, variant_i: bool):
        p = model_params
        self.f0, self.f1, self.f2 = p["f0"], p["f1"], p["f2"]
        self.mass, self.lead = p["mass"], p["lead_velocity"]
        self.u_lo, self.u_hi = p["u_lo"], p["u_hi"]
        self.q, self.c, self.d = _BARRIERS[barrier_index]
        self.variant_i = variant_i

    # -- vectorized over states of shape (N, 2) --------------------------

    def value(self, x: np.ndarray) -> np.ndarray:
        x1, x3 = x[..., 0], x[..., 1]
        q = self.q
        quad = q[0, 0] * x1 * x1 + 2.0 * q[0, 1] * x1 * x3 + q[1, 1] * x3 * x3
        return quad + self.c[0] * x1 + self.c[1] * x3 + self.d

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * x @ self.q + self.c

    def generator(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """grad v . (f1 + f2 u) + tr(sigma' H sigma) / 2, with sigma = I, H = 2Q."""
        x1 = x[..., 0]
        grad = self.gradient(x)
        drift1 = (-(self.f0 + self.f1 * x1 + self.f2 * x1 * x1) + u) / self.mass
        drift3 = self.lead - x1
        return grad[..., 0] * drift1 + grad[..., 1] * drift3 + np.trace(self.q)

    # -- one path, plain Python floats -----------------------------------

    def simulate(self, x0, dt: float, steps: int, seed: int, tol: float):
        """Euler-Maruyama path on seed's PCG64 stream, stopped at the level sets.

        Returns (outcome, exit_step, near) where exit_step counts the steps
        taken before the first hit (None on timeout), and near is True if the
        barrier value or the control's switching function came within tol of
        a threshold after the first step, where roundoff may decide the outcome.
        """
        gen = np.random.Generator(np.random.PCG64(seed))
        noise = (gen.standard_normal((steps, 2)) * math.sqrt(dt)).tolist()
        (q11, q13), (_, q33) = self.q.tolist()
        c1, c3 = self.c.tolist()
        d = self.d
        x1, x3 = float(x0[0]), float(x0[1])
        near = False
        for i in range(steps):
            switch = 2.0 * (q11 * x1 + q13 * x3) + c1
            near = near or (i > 0 and abs(switch) <= tol)  # x0 itself is exact input
            u = self.u_hi if switch / self.mass > 0.0 else self.u_lo
            drift1 = (-(self.f0 + self.f1 * x1 + self.f2 * x1 * x1) + u) / self.mass
            drift3 = self.lead - x1
            n1, n3 = noise[i]
            x1, x3 = x1 + drift1 * dt + n1, x3 + drift3 * dt + n3
            if not (math.isfinite(x1) and math.isfinite(x3)):
                return UNSAFE, i + 1, near
            v = q11 * x1 * x1 + 2.0 * q13 * x1 * x3 + q33 * x3 * x3 + c1 * x1 + c3 * x3 + d
            near = near or abs(v - 1.0) <= tol or (self.variant_i and abs(v) <= tol)
            if v >= 1.0:
                return TARGET, i + 1, near
            if self.variant_i and v <= 0.0:
                return UNSAFE, i + 1, near
        return TIMEOUT, None, near


def exit_bound(variant_i: bool, v: float, a: float, b: float, horizon: float) -> float:
    """Lower bound on P(hit the target level set before horizon) from (a, b).

    With r = b/a and E = exp(aT) - 1 the bound is (v - r)/(1 - r) plus the
    finite-horizon penalty (v - 1)/((1 - r) E), which vanishes as T -> inf.
    Variant II with a <= 1e-9 uses the drift-only form 1 - (v - 1)/((b - a) T),
    and 1 for T = inf.  The result is clamped into [0, 1].
    """
    if not variant_i and a <= 1e-9:
        bound = 1.0 if math.isinf(horizon) else 1.0 - (v - 1.0) / ((b - a) * horizon)
    else:
        r = b / a
        bound = (v - r) / (1.0 - r)
        if not math.isinf(horizon) and a * horizon <= 700.0:
            bound += (v - 1.0) / ((1.0 - r) * math.expm1(a * horizon))
    return min(1.0, max(0.0, bound))


def wilson_interval(successes: int, n: int, z: float) -> tuple[float, float]:
    """Wilson score interval, p~ +- z/(1 + z^2/n) sqrt(p(1-p)/n + z^2/(4n^2))."""
    p = successes / n
    centre = (p + z * z / (2 * n)) / (1 + z * z / n)
    half = z / (1 + z * z / n) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return centre - half, centre + half


def path_seed(master_seed: int, index: int) -> int:
    """splitmix64 finalizer over master_seed + (index + 1) * golden-ratio step."""
    z = (master_seed + (index + 1) * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def grid_steps(horizon: float, dt: float) -> int:
    """Steps of a uniform grid reaching horizon (rounded up off the grid)."""
    ratio = horizon / dt
    nearest = round(ratio)
    return nearest if abs(ratio - nearest) <= 1e-9 * max(1.0, ratio) else math.ceil(ratio)
