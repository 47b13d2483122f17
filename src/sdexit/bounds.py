"""Closed-form lower bounds on exit probabilities from (a, b) certificates.

A certificate (a, b) at a state with barrier value v converts into a lower
bound on the probability of hitting the target level set within a horizon T
or eventually.  Variant I (v = h in [0, 1], a > b >= 0):

    finite T:   ((h - r) E + (h - 1)) / ((1 - r) E),  r = b/a,  E = exp(aT) - 1
    infinite:   (h - r) / (1 - r)

written with expm1 so small aT does not cancel; aT above EXP_ARG_MAX uses the
infinite-horizon limit directly.  Variant II (v = g <= 1, a > b) uses the same
expressions when a is positive, and for a <= A_SWITCH_EPS the drift-only form

    finite T:   1 - (g - 1) / ((b - a) T)
    infinite:   exactly 1

All results are clamped into [0, 1].  One array kernel evaluates both bounds
of either variant at a batch of states; ``bound_curve`` calls it on a whole
trajectory, and the scalar functions are its calls with a batch of one, after
their argument checks.  Domain violations raise DomainError.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .synthesis import ProblemSpec, ProblemVariant

__all__ = [
    "exit_bound_finite_i",
    "exit_bound_infinite_i",
    "exit_bound_lemma2",
    "exit_bound_finite_ii",
    "exit_bound_infinite_ii",
    "bound_curve",
]

A_SWITCH_EPS = 1e-9  # a at or below this uses the drift-only variant-II branch
EXP_ARG_MAX = 700.0  # aT beyond this would overflow exp; use the T->inf limit


def _clamp01(x: np.ndarray) -> np.ndarray:
    # min(1.0, max(0.0, x)) elementwise, so NaN and -0.0 map to 0.0;
    # np.clip and np.maximum would keep -0.0, which prints as "-0"
    x = np.where(x > 0.0, x, 0.0)
    return np.where(x < 1.0, x, 1.0)


def _check_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")
    return value


def _check_i(h0: float, a: float, b: float) -> tuple[float, float, float]:
    h0, a, b = _check_finite("h0", h0), _check_finite("a", a), _check_finite("b", b)
    if not 0.0 <= h0 <= 1.0:
        raise DomainError(f"h0 must lie in [0, 1], got {h0}")
    if not a > b >= 0.0:
        raise DomainError(f"need a > b >= 0, got a={a}, b={b}")
    return h0, a, b


def _check_ii(g0: float, a: float, b: float) -> tuple[float, float, float]:
    g0, a, b = _check_finite("g0", g0), _check_finite("a", a), _check_finite("b", b)
    if g0 > 1.0:
        raise DomainError(f"g0 must be <= 1, got {g0}")
    if not a > b:
        raise DomainError(f"need a > b, got a={a}, b={b}")
    return g0, a, b


def _check_horizon(horizon: float) -> float:
    horizon = _check_finite("horizon", horizon)
    if horizon <= 0.0:
        raise DomainError(f"horizon must be positive, got {horizon}")
    return horizon


def _bounds(variant_i: bool, v, a, b, remaining) -> np.ndarray:
    """(finite, infinite) bounds at a batch of certified states, as a (P, 2) array.

    v, a, b (scalars or shape (P,)) lie in the variant's domain; an infinite
    remaining time gives the infinite-horizon limit in both columns.  E is
    math.expm1 per element: numpy's expm1 can differ from libm's in the last
    bit, and by CPU.
    """
    v, a, b = np.atleast_1d(v, a, b)
    drift = (a <= A_SWITCH_EPS) & (not variant_i)
    # entries outside their branch may divide by zero or overflow; where() drops them
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = b / a
        infinite = np.where(drift, 1.0, (v - r) / (1.0 - r))
        at = a * remaining
        grows = ~drift & (at <= EXP_ARG_MAX)
        e = np.ones(v.shape)
        e[grows] = list(map(math.expm1, at[grows].tolist()))
        finite = np.where(grows, ((v - r) * e + (v - 1.0)) / ((1.0 - r) * e), infinite)
        # variant II's drift-only branch; a enters only through b - a
        finite = np.where(drift, 1.0 - (v - 1.0) / ((b - a) * remaining), finite)
    return _clamp01(np.column_stack((finite, infinite)))


def exit_bound_finite_i(h0: float, a: float, b: float, horizon: float) -> float:
    """Variant-I finite-horizon bound. Requires a > b >= 0, 0 <= h0 <= 1, T > 0."""
    return float(_bounds(True, *_check_i(h0, a, b), _check_horizon(horizon))[0, 0])


def exit_bound_infinite_i(h0: float, a: float, b: float) -> float:
    """Variant-I infinite-horizon bound. Requires a > b >= 0, 0 <= h0 <= 1."""
    return float(_bounds(True, *_check_i(h0, a, b), math.inf)[0, 1])


def exit_bound_lemma2(h0: float) -> float:
    """Martingale special case (b = 0): the bound is the barrier value itself."""
    return exit_bound_infinite_i(h0, 1.0, 0.0)


def exit_bound_finite_ii(g0: float, a: float, b: float, horizon: float) -> float:
    """Variant-II finite-horizon bound. Requires a > b, g0 <= 1, T > 0."""
    return float(_bounds(False, *_check_ii(g0, a, b), _check_horizon(horizon))[0, 0])


def exit_bound_infinite_ii(g0: float, a: float, b: float) -> float:
    """Variant-II infinite-horizon bound: 1 when a <= A_SWITCH_EPS."""
    return float(_bounds(False, *_check_ii(g0, a, b), math.inf)[0, 1])


def bound_curve(
    spec: ProblemSpec,
    times: np.ndarray,
    values: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    horizon: float,
) -> np.ndarray:
    """(finite, infinite) bounds at each sample of a trajectory, as an (S+1, 2) array.

    times, barrier values and the certificates a, b have shape (S+1,).  NaN
    marks a missing bound: a row with a NaN certificate (a fallback step) is
    all NaN, not zero, and an infinite horizon makes every finite-horizon entry
    NaN.  Barrier values are clamped into the formulas' domain first: frozen
    post-exit states may overshoot the level set, and such states have exit
    probability 1, which is what the clamped formula returns.  At t == horizon
    the remaining time is zero, so the finite entry degenerates to 1 if the
    target was reached and 0 otherwise.  A sample time beyond the horizon, or
    a certified row outside the variant's domain, raises DomainError.
    """
    times, values, a, b = (np.asarray(x, dtype=float) for x in (times, values, a, b))
    late = ~(times <= horizon + 1e-12)
    if late.any():
        raise DomainError(f"sample time {times[late][0]} beyond horizon {horizon}")
    variant_i = spec.variant == ProblemVariant.PROBLEM_I
    certified = np.isfinite(a) & np.isfinite(b)
    bad = certified & ~((a > b) & (b >= 0.0) if variant_i else a > b)
    if bad.any():
        need = "a > b >= 0" if variant_i else "a > b"
        raise DomainError(f"need {need}, got a={a[bad][0]}, b={b[bad][0]}")
    v = _clamp01(values) if variant_i else np.where(values < 1.0, values, 1.0)
    remaining = horizon - times
    curve = np.full((times.shape[0], 2), np.nan)
    curve[certified] = _bounds(variant_i, *(x[certified] for x in (v, a, b, remaining)))
    ended = certified & ~(remaining > 0.0)
    curve[ended, 0] = values[ended] >= 1.0
    if math.isinf(horizon):
        curve[:, 0] = np.nan
    return curve
