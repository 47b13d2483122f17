"""A case with a known answer: drifted Brownian motion between two levels.

dx = (0.3 + 0.1 u) dt + dW with u in [-1, 1] and barrier h = x / 2, variant I.
The bang-bang control is u = 1, so the closed-loop drift is m = 0.4 and the
generator of h is G = m / 2 = 0.2 at every state.  The probability of reaching
h = 1 before h = 0 from x0 = 0.8 is gambler's ruin for Brownian motion with
drift (Karatzas & Shreve 1991, Brownian Motion and Stochastic Calculus, 5.5):
(1 - exp(-2 m x0)) / (1 - exp(-2 m L)) with L = 2.  By a finite horizon T the
probability is the eigenfunction series of the killed generator (separation of
variables; Borodin & Salminen 2002, Handbook of Brownian Motion), which at
T = 20 equals the closed form to 4e-12.  A pair (a, b) holds L h >= a h - b on
the whole domain if and only if b >= 0 and a - b <= G.

The Monte Carlo size (dt = 1e-3, 20,000 paths, seed 7, at T = 20 and T = 2)
was fixed before its result was known; it is not to be tuned to the outcome.
"""

import math

import numpy as np
import pytest

from sdexit import (
    exit_bound_finite_i,
    exit_bound_lemma2,
    estimate_exit_probability,
    generator_decompose,
    instantiate,
    synthesize_control_fast,
    validate_config,
)

RAW = {
    "model": {
        "name": "linear",
        "params": {
            "A": [[0.0]],
            "d": [0.3],
            "B": [[0.1]],
            "sigma": [[1.0]],
            "u_lo": [-1.0],
            "u_hi": [1.0],
        },
    },
    "scenario_barrier": {"Q": None, "c": [0.5], "d": 0.0},
    "variant": "ProblemI",
    "x0": [0.8],
    "T": 20.0,
    "dt": 1e-3,
    "w": 1.0,
    "delta": 10.0,
    "n_paths": 20000,
    "master_seed": 7,
}
DRIFT, LEVEL, X0 = 0.3 + 0.1, 2.0, 0.8
EXACT = (1.0 - math.exp(-2.0 * DRIFT * X0)) / (1.0 - math.exp(-2.0 * DRIFT * LEVEL))  # 0.5923
G = DRIFT / LEVEL


def _exact_by(horizon, terms=200):
    """P(x reaches L before 0, by the horizon): u(x0) - e^(-a x0) sum b_n e^(-l_n T) sin(B_n x0).

    a = m / s^2, B_n = n pi / L, l_n = (m^2 / s^2 + s^2 B_n^2) / 2 with s = 1 here.
    """
    a = DRIFT
    tail = 0.0
    for n in range(1, terms + 1):
        beta = n * math.pi / LEVEL
        rate = (DRIFT**2 + beta**2) / 2.0
        i_plus, i_minus = (
            beta * (1.0 - (-1) ** n * math.exp(alpha * LEVEL)) / (alpha**2 + beta**2)
            for alpha in (a, -a)
        )
        b_n = 2.0 * (i_plus - i_minus) / (LEVEL * (1.0 - math.exp(-2.0 * a * LEVEL)))
        tail += b_n * math.exp(-rate * horizon) * math.sin(beta * X0)
    return EXACT - math.exp(-a * X0) * tail


@pytest.mark.parametrize("horizon", [2.0, 20.0], ids=["T=2", "T=20"])
def test_exact_value_inside_the_wilson_interval(horizon):
    cfg = validate_config({**RAW, "T": horizon})
    model, spec, x0 = instantiate(cfg)
    mc = estimate_exit_probability(
        model, spec, x0, cfg.dt, cfg.T, cfg.n_paths, cfg.master_seed, z=cfg.z
    )
    exact = _exact_by(horizon)  # 0.525898 at T = 2
    assert cfg.z == 3.0
    if horizon == 20.0:  # every path has exited by T: the estimate is the eventual one
        assert mc.n_timeout == 0
        assert exact == pytest.approx(EXACT, abs=1e-10)
    assert mc.ci_lo <= exact <= mc.ci_hi, (exact, mc)


def test_best_domain_valid_pair_bounds_the_exact_value():
    """The best pair valid on the whole domain is (0, 0): Lemma 2's bound h0."""
    model, spec, x0 = instantiate(validate_config(RAW))
    h0 = float(spec.barrier.value(x0[None, :])[0])
    assert h0 == pytest.approx(X0 / LEVEL)
    assert exit_bound_lemma2(h0) == pytest.approx(0.4)
    assert exit_bound_lemma2(h0) <= EXACT
    # at a finite horizon the pair (G, 0), also valid on the whole domain, bounds P(tau <= T)
    assert exit_bound_finite_i(h0, G, 0.0, 2.0) <= _exact_by(2.0)


@pytest.mark.parametrize("w", [1.0, 1e12])
def test_t0_pair_is_not_valid_on_the_whole_domain(w):
    """The LP's pair at x0 breaks G >= a v - b at v = 1, the target level."""
    model, spec, x0 = instantiate(validate_config({**RAW, "w": w}))
    c0, c = generator_decompose(model, spec.barrier, x0)
    lo, hi = model.control_box.lo, model.control_box.hi
    assert c0 + float(np.maximum(c * lo, c * hi).sum()) == pytest.approx(G)
    res = synthesize_control_fast(model, spec, x0)
    slack = G - (res.a - res.b)
    assert slack < 0, (res.a, res.b, slack)
