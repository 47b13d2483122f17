"""Monte Carlo estimator: tallies, Wilson intervals, and schedule invariance."""

import dataclasses

import numpy as np
import pytest
from conftest import scenario_spec

import sdexit.mc
import sdexit.sim

from sdexit import (
    DomainError,
    ProblemSpec,
    ProblemVariant,
    acc_model,
    deterministic_1d_model,
    estimate_exit_probability,
    quadratic_barrier,
    wilson_interval,
)


def _spec_1d():
    return ProblemSpec(
        variant=ProblemVariant.PROBLEM_I,
        barrier=quadratic_barrier(None, [1.0], 0.0),
        weight_w=1.0,
        delta=10.0,
    )


def test_wilson_reference_value():
    lo, hi = wilson_interval(50, 100, 1.96)
    # direct formula: (p + z^2/2n +- z sqrt(p(1-p)/n + z^2/4n^2)) / (1 + z^2/n)
    z2 = 1.96**2
    denom = 1.0 + z2 / 100
    center = (0.5 + z2 / 200) / denom
    half = 1.96 * ((0.25 / 100 + z2 / 40000) ** 0.5) / denom
    assert lo == pytest.approx(center - half, rel=1e-12)
    assert hi == pytest.approx(center + half, rel=1e-12)
    assert lo == pytest.approx(0.40383, abs=1e-5)
    assert hi == pytest.approx(0.59617, abs=1e-5)


def test_wilson_edges_and_domain():
    lo, hi = wilson_interval(0, 50, 3.0)
    assert lo == 0.0 and hi < 1.0
    lo, hi = wilson_interval(50, 50, 3.0)
    assert hi == 1.0 and lo > 0.0
    with pytest.raises(DomainError):
        wilson_interval(5, 4, 3.0)
    with pytest.raises(DomainError):
        wilson_interval(-1, 4, 3.0)
    with pytest.raises(DomainError):
        wilson_interval(1, 4, 0.0)
    with pytest.raises(DomainError, match="n must be at least 1"):
        wilson_interval(0, 0, 3.0)


def test_wilson_contains_point_estimate():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(1, 500))
        s = int(rng.integers(0, n + 1))
        z = float(rng.uniform(0.1, 5.0))
        lo, hi = wilson_interval(s, n, z)
        assert 0.0 <= lo <= s / n <= hi <= 1.0


def test_deterministic_all_exit_up():
    m = deterministic_1d_model(rate=1.0)
    res = estimate_exit_probability(m, _spec_1d(), np.array([0.9]), 0.01, 1.0, 100, 7)
    assert res.estimate == 1.0
    assert res.n_target == 100 and res.n_unsafe == 0 and res.n_timeout == 0
    assert res.ci_lo <= 1.0 <= res.ci_hi


def test_deterministic_all_exit_down():
    m = deterministic_1d_model(rate=-1.0)
    res = estimate_exit_probability(m, _spec_1d(), np.array([0.9]), 0.01, 1.0, 100, 7)
    assert res.estimate == 0.0
    assert res.n_unsafe == 100


def test_single_path_is_bernoulli():
    m = acc_model()
    spec = scenario_spec(1, w=1.0)
    res = estimate_exit_probability(m, spec, np.array([-0.5, 1.5]), 0.01, 2.0, 1, 5)
    assert res.estimate in (0.0, 1.0)
    assert res.n_paths == 1


def test_tallies_partition_paths():
    m = acc_model()
    spec = scenario_spec(1, w=1.0)
    res = estimate_exit_probability(m, spec, np.array([-0.5, 1.5]), 0.02, 1.0, 400, 11)
    assert res.n_target + res.n_unsafe + res.n_timeout == 400
    assert res.estimate == res.n_target / 400
    assert res.master_seed == 11


def test_result_independent_of_chunking(monkeypatch):
    m = acc_model()
    spec = scenario_spec(2, w=1.0)
    x0 = np.array([-0.5, 1.5])
    base = estimate_exit_probability(m, spec, x0, 0.02, 1.0, 300, 17)
    others = []
    for chunk in (37, 64):  # an odd chunk and a wide one
        monkeypatch.setattr(sdexit.mc, "_CHUNK_PATHS", chunk)
        others.append(estimate_exit_probability(m, spec, x0, 0.02, 1.0, 300, 17))
    for other in others:
        assert other.n_target == base.n_target
        assert other.n_unsafe == base.n_unsafe
        assert other.n_timeout == base.n_timeout
        assert other.estimate == base.estimate
        assert other.ci_lo == base.ci_lo and other.ci_hi == base.ci_hi


def test_estimate_never_solves_a_certificate(monkeypatch):
    """Paths step under the bang-bang law alone: no certificate LP, no Hessian."""

    def refuse(*args, **kwargs):
        raise AssertionError("certificate stage called during Monte Carlo")

    m = acc_model()
    spec = scenario_spec(1, w=1.0)
    x0 = np.array([-0.5, 1.5])
    expected = estimate_exit_probability(m, spec, x0, 0.02, 1.0, 64, 29)
    monkeypatch.setattr(sdexit.sim, "certificate_solve", refuse)
    blind = dataclasses.replace(spec, barrier=dataclasses.replace(spec.barrier, hessian=refuse))
    assert estimate_exit_probability(m, blind, x0, 0.02, 1.0, 64, 29) == expected


@pytest.mark.parametrize("z", [0.0, -1.0, float("inf"), float("nan")])
def test_bad_z_raises_before_any_path(monkeypatch, z):
    def refuse(*args, **kwargs):
        raise AssertionError("paths simulated before z was checked")

    monkeypatch.setattr(sdexit.mc, "run_paths", refuse)
    x0 = np.array([-0.5, 1.5])
    with pytest.raises(DomainError):
        estimate_exit_probability(acc_model(), scenario_spec(1, w=1.0), x0, 0.02, 1.0, 64, 29, z=z)


def test_same_master_seed_reproduces():
    m = acc_model()
    spec = scenario_spec(1, w=1e12)
    x0 = np.array([-0.5, 1.5])
    r1 = estimate_exit_probability(m, spec, x0, 0.02, 1.0, 200, 23)
    r2 = estimate_exit_probability(m, spec, x0, 0.02, 1.0, 200, 23)
    assert r1 == r2


def test_parameter_validation():
    m = deterministic_1d_model(rate=1.0)
    with pytest.raises(DomainError):
        estimate_exit_probability(m, _spec_1d(), np.array([0.9]), 0.01, 1.0, 0, 7)
    with pytest.raises(DomainError):
        estimate_exit_probability(m, _spec_1d(), np.array([1.5]), 0.01, 1.0, 10, 7)
    for horizon in (-1.0, float("inf"), float("nan")):
        with pytest.raises(DomainError, match="horizon must be finite and nonnegative"):
            estimate_exit_probability(m, _spec_1d(), np.array([0.5]), 0.01, horizon, 10, 7)
    with pytest.raises(DomainError, match="at least one path seed"):
        sdexit.sim.run_paths(m, _spec_1d(), np.array([0.5]), 0.01, 1.0, [])
