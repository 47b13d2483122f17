"""A case with a known answer in two dimensions: a radial drift on the shipped annulus.

dx = alpha x dt + dW in the plane (A = alpha I, d = 0, B = 0, sigma = I, so the
control has no effect), with the annular barrier h = (r^2 - 1) / 8 of
scenario_barrier(2), variant I: reach r = 3 before r = 1.  The radius solves
dr = (alpha r + 1 / (2 r)) dt + dW, whose scale density is exp(-alpha r^2) / r
(Karatzas & Shreve 1991, Brownian Motion and Stochastic Calculus, 5.5; Borodin &
Salminen 2002, Handbook of Brownian Motion).  So from radius r0

    P(tau_target < inf) = [E1(alpha) - E1(alpha r0^2)] / [E1(alpha) - E1(9 alpha)],

with E1 the exponential integral, and ln r0 / ln 3 in the limit alpha -> 0.  On
each circle the generator of h is G = alpha r^2 / 4 + 1 / 4.

The Monte Carlo size (dt = 0.01, 20,000 paths, seed 7, T = 20) was fixed before
its result was known; it is not to be tuned to the outcome.
"""

import math

import pytest

from sdexit import (
    estimate_exit_probability,
    generator_decompose,
    instantiate,
    synthesize_control_fast,
    validate_config,
)

X0 = (-0.5, 1.5)
R0_SQ = X0[0] ** 2 + X0[1] ** 2  # 2.5
EULER_GAMMA = 0.5772156649015329


def _raw(alpha):
    return {
        "model": {
            "name": "linear",
            "params": {
                "A": [[alpha, 0.0], [0.0, alpha]],
                "d": [0.0, 0.0],
                "B": [[0.0], [0.0]],
                "sigma": [[1.0, 0.0], [0.0, 1.0]],
                "u_lo": [-1.0],
                "u_hi": [1.0],
            },
        },
        "scenario_barrier": 2,
        "variant": "ProblemI",
        "x0": list(X0),
        "T": 20.0,
        "dt": 0.01,
        "w": 1.0,
        "delta": 10.0,
        "n_paths": 20000,
        "master_seed": 7,
    }


def _e1(x, terms=80):
    """Exponential integral E1(x) = -gamma - ln x - sum_k (-x)^k / (k k!) for x > 0."""
    total, power = 0.0, 1.0
    for k in range(1, terms + 1):
        power *= -x / k
        total += power / k
    return -EULER_GAMMA - math.log(x) - total


def _exact(alpha):
    return (_e1(alpha) - _e1(alpha * R0_SQ)) / (_e1(alpha) - _e1(9.0 * alpha))


def test_exact_value_and_its_small_alpha_limit():
    assert _exact(0.5) == pytest.approx(0.7411871587664448, abs=1e-12)
    limit = math.log(math.sqrt(R0_SQ)) / math.log(3.0)
    assert limit == pytest.approx(0.4170218835732349, abs=1e-15)
    assert _exact(1e-9) == pytest.approx(limit, abs=1e-7)


@pytest.mark.parametrize("alpha", [0.5, 0.0])
def test_t0_pair_is_not_valid_on_the_target_level(alpha):
    """The LP's pair at x0 breaks G >= a v - b at v = 1, the circle r = 3."""
    model, spec, x0 = instantiate(validate_config(_raw(alpha)))
    g_target, _ = generator_decompose(model, spec.barrier, [0.0, 3.0])
    assert g_target == pytest.approx(9.0 * alpha / 4.0 + 0.25)
    res = synthesize_control_fast(model, spec, x0)
    slack = g_target - (res.a - res.b)
    assert slack < 0, (res.a, res.b, slack)


@pytest.fixture(scope="module")
def estimate():
    cfg = validate_config(_raw(0.5))
    model, spec, x0 = instantiate(cfg)
    assert cfg.z == 3.0
    return estimate_exit_probability(
        model, spec, x0, cfg.dt, cfg.T, cfg.n_paths, cfg.master_seed, z=cfg.z
    )


def test_every_path_exits_by_the_horizon(estimate):
    assert estimate.n_timeout == 0


@pytest.mark.xfail(
    strict=True,
    reason="the grid-time exit test misses excursions between steps, an O(sqrt(dt)) "
    "upward bias (ROADMAP item 21)",
)
def test_exact_value_inside_the_wilson_interval(estimate):
    assert estimate.ci_lo <= _exact(0.5) <= estimate.ci_hi, estimate
