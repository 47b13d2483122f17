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

All results are clamped into [0, 1].  Domain violations raise DomainError.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .synthesis import ProblemSpec, ProblemVariant

__all__ = [
    "A_SWITCH_EPS",
    "EXP_ARG_MAX",
    "exit_bound_finite_i",
    "exit_bound_infinite_i",
    "exit_bound_lemma2",
    "exit_bound_finite_ii",
    "exit_bound_infinite_ii",
    "bound_curve",
]

A_SWITCH_EPS = 1e-9  # a at or below this uses the drift-only variant-II branch
EXP_ARG_MAX = 700.0  # aT beyond this would overflow exp; use the T->inf limit


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


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


def _infinite_bound(v: float, a: float, b: float) -> float:
    r = b / a
    return _clamp01((v - r) / (1.0 - r))


def _finite_bound(v: float, a: float, b: float, horizon: float) -> float:
    if a * horizon > EXP_ARG_MAX:
        return _infinite_bound(v, a, b)
    r = b / a
    e = math.expm1(a * horizon)
    return _clamp01(((v - r) * e + (v - 1.0)) / ((1.0 - r) * e))


def exit_bound_finite_i(h0: float, a: float, b: float, horizon: float) -> float:
    """Variant-I finite-horizon bound. Requires a > b >= 0, 0 <= h0 <= 1, T > 0."""
    h0, a, b = _check_i(h0, a, b)
    return _finite_bound(h0, a, b, _check_horizon(horizon))


def exit_bound_infinite_i(h0: float, a: float, b: float) -> float:
    """Variant-I infinite-horizon bound. Requires a > b >= 0, 0 <= h0 <= 1."""
    return _infinite_bound(*_check_i(h0, a, b))


def exit_bound_lemma2(h0: float) -> float:
    """Martingale special case (b = 0): the bound is the barrier value itself."""
    h0 = _check_finite("h0", h0)
    if not 0.0 <= h0 <= 1.0:
        raise DomainError(f"h0 must lie in [0, 1], got {h0}")
    return h0


def exit_bound_finite_ii(g0: float, a: float, b: float, horizon: float) -> float:
    """Variant-II finite-horizon bound. Requires a > b, g0 <= 1, T > 0."""
    g0, a, b = _check_ii(g0, a, b)
    horizon = _check_horizon(horizon)
    if a > A_SWITCH_EPS:
        return _finite_bound(g0, a, b, horizon)
    # drift-only branch; a enters only through b - a
    return _clamp01(1.0 - (g0 - 1.0) / ((b - a) * horizon))


def exit_bound_infinite_ii(g0: float, a: float, b: float) -> float:
    """Variant-II infinite-horizon bound: 1 when a <= A_SWITCH_EPS."""
    g0, a, b = _check_ii(g0, a, b)
    return _infinite_bound(g0, a, b) if a > A_SWITCH_EPS else 1.0


def bound_curve(
    spec: ProblemSpec,
    samples: list[tuple[float, float, float, float]],
    horizon: float,
) -> list[tuple[float | None, float | None]]:
    """Per-sample (finite, infinite) bounds along a trajectory.

    Each sample is (t, barrier_value, a, b).  NaN certificates (fallback
    steps) map to (None, None), not zero.  An infinite horizon yields None
    for every finite-horizon entry.  Barrier values are clamped into the
    formulas' domain first: frozen post-exit states may overshoot the level
    set, and such states have exit probability 1, which is what the clamped
    formula returns.  At t == horizon the remaining time is zero, so the
    finite entry degenerates to 1 if the target was reached and 0 otherwise.
    """
    variant_i = spec.variant == ProblemVariant.PROBLEM_I
    if variant_i:
        finite_bound, infinite_bound = exit_bound_finite_i, exit_bound_infinite_i
    else:
        finite_bound, infinite_bound = exit_bound_finite_ii, exit_bound_infinite_ii
    infinite_horizon = math.isinf(horizon)
    if not infinite_horizon:
        horizon = _check_finite("horizon", horizon)
    out: list[tuple[float | None, float | None]] = []
    for t, value, a, b in samples:
        t = float(t)
        if not infinite_horizon and t > horizon + 1e-12:
            raise DomainError(f"sample time {t} beyond horizon {horizon}")
        if not (math.isfinite(a) and math.isfinite(b)):
            out.append((None, None))
            continue
        v = _clamp01(float(value)) if variant_i else min(1.0, float(value))
        inf_bound = infinite_bound(v, a, b)
        if infinite_horizon:
            fin_bound = None
        elif horizon - t > 0.0:
            fin_bound = finite_bound(v, a, b, horizon - t)
        else:
            fin_bound = 1.0 if float(value) >= 1.0 else 0.0
        out.append((fin_bound, inf_bound))
    return out
