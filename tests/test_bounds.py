"""Exit-probability bound formulas: frozen values, identities, and properties."""

import math

import numpy as np
import pytest
from conftest import scenario_spec
from hypothesis import given, settings
from hypothesis import strategies as st

from sdexit import (
    DomainError,
    exit_bound_finite_i,
    exit_bound_finite_ii,
    exit_bound_infinite_i,
    exit_bound_infinite_ii,
    exit_bound_lemma2,
    bound_curve,
)
from sdexit.bounds import A_SWITCH_EPS


# --- frozen reference evaluations (independent inline arithmetic) ----------


def test_finite_i_reference_point():
    e4 = math.exp(4.0)
    expected = ((0.6 - 0.5) * e4 + 0.5 - 1.0) / ((1.0 - 0.5) * (e4 - 1.0))
    got = exit_bound_finite_i(0.6, 2.0, 1.0, 2.0)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(0.185074, abs=1e-6)


def test_finite_i_saturates_at_h_equals_one():
    assert exit_bound_finite_i(1.0, 3.0, 0.5, 1.7) == 1.0


def test_finite_i_clamps_negative_raw_value():
    # h0 = b/a zeroes the growing term; the -1 remainder goes negative
    assert exit_bound_finite_i(0.5, 2.0, 1.0, 5.0) == 0.0


def test_infinite_i_reference_points():
    assert exit_bound_infinite_i(0.6, 1.0, 0.0) == 0.6
    assert exit_bound_infinite_i(0.6, 2.0, 1.0) == pytest.approx(0.2, rel=1e-12)
    assert exit_bound_infinite_i(0.4, 2.0, 1.0) == 0.0


def test_lemma2_is_identity_on_unit_interval():
    assert exit_bound_lemma2(0.6) == 0.6
    assert exit_bound_lemma2(0.0) == 0.0
    assert exit_bound_lemma2(1.0) == 1.0
    with pytest.raises(DomainError):
        exit_bound_lemma2(1.2)


def test_finite_ii_drift_branch_reference():
    # a <= 0 branch: 1 - (g0-1)/((b-a) T) with b - a = -1
    assert exit_bound_finite_ii(0.5, -1.0, -2.0, 2.0) == pytest.approx(0.75, rel=1e-15)
    assert exit_bound_finite_ii(1.0, -1.0, -2.0, 5.0) == 1.0


def test_finite_ii_positive_a_reference():
    e20 = math.exp(20.0)
    r = -0.03125 / 10.0
    expected = ((0.0 - r) * e20 + (r - 1.0)) / ((1.0 - r) * (e20 - 1.0))
    got = exit_bound_finite_ii(0.0, 10.0, -0.03125, 2.0)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(0.0031153, abs=1e-7)


def test_infinite_ii_reference_points():
    assert exit_bound_infinite_ii(0.3, -0.5, -1.0) == 1.0
    assert exit_bound_infinite_ii(0.0, 10.0, -0.03125) == pytest.approx(
        0.003125 / 1.003125, rel=1e-12
    )
    assert exit_bound_infinite_ii(0.1, 1.0, 0.5) == 0.0


def test_domain_violations_raise():
    with pytest.raises(DomainError):
        exit_bound_finite_i(0.5, 1.0, 1.0, 2.0)  # a == b
    with pytest.raises(DomainError):
        exit_bound_finite_i(0.5, 1.0, -0.1, 2.0)  # b < 0
    with pytest.raises(DomainError):
        exit_bound_finite_i(1.5, 1.0, 0.0, 2.0)  # h0 > 1
    with pytest.raises(DomainError):
        exit_bound_finite_i(0.5, 1.0, 0.0, 0.0)  # T = 0
    with pytest.raises(DomainError):
        exit_bound_finite_ii(1.5, 1.0, 0.0, 2.0)  # g0 > 1
    with pytest.raises(DomainError):
        exit_bound_infinite_ii(0.5, -1.0, -0.5)  # a < b
    with pytest.raises(DomainError):
        exit_bound_infinite_i(0.5, math.nan, 0.0)
    # a certified curve row outside the domain; a fallback (NaN) row is not checked
    fallback = ([0.0], [0.6], [math.nan], [math.nan])
    for scenario, a, b in ((1, 1.0, 1.0), (1, 1.0, -0.1), (3, -1.0, -0.5)):
        spec = scenario_spec(scenario, w=1.0)
        with pytest.raises(DomainError):
            bound_curve(spec, [0.0, 1.0], [0.6, 0.6], [math.nan, a], [math.nan, b], 2.0)
        bound_curve(spec, *fallback, 2.0)


# --- identities and monotonicity -------------------------------------------


def test_lemma2_consistency_exact():
    for a in (1e-10, 1e-6, 0.5, 3.0, 1e4):  # 1e-10 <= A_SWITCH_EPS: variant I has no switch
        for h0 in (0.0, 0.25, 0.6, 1.0):
            assert exit_bound_infinite_i(h0, a, 0.0) == h0


def test_monotone_in_horizon_and_converges_to_infinite():
    h0, a, b = 0.6, 2.0, 1.0
    horizons = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 400.0]
    vals = [exit_bound_finite_i(h0, a, b, t) for t in horizons]
    assert all(x <= y + 1e-14 for x, y in zip(vals, vals[1:]))
    limit = exit_bound_infinite_i(h0, a, b)
    assert abs(exit_bound_finite_i(h0, a, b, 25.0) - limit) < 1e-9  # aT = 50
    assert abs(vals[-1] - limit) < 1e-12


def test_monotone_in_a_antitone_in_b_where_positive():
    h0, horizon = 0.6, 2.0
    b = 0.3
    grid_a = np.linspace(0.6, 6.0, 25)
    vals = [exit_bound_finite_i(h0, a, b, horizon) for a in grid_a]
    positive = [v for v in vals if v > 0.0]
    assert all(x <= y + 1e-12 for x, y in zip(positive, positive[1:]))
    a = 2.0
    grid_b = np.linspace(0.0, 1.9, 25)
    vals_b = [exit_bound_finite_i(h0, a, b, horizon) for b in grid_b]
    assert all(x >= y - 1e-12 for x, y in zip(vals_b, vals_b[1:]))


def test_variant_ii_branch_continuity_near_zero_a():
    for g0 in (0.0, 0.3, 0.9):
        for b in (-0.5, -2.0, -10.0):
            for horizon in (0.5, 2.0, 10.0):
                lo = exit_bound_finite_ii(g0, 0.0, b, horizon)
                hi = exit_bound_finite_ii(g0, 1e-8, b, horizon)
                assert abs(hi - lo) < 1e-5


def test_exp_overflow_guard_matches_limit():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = exit_bound_finite_i(0.6, 800.0, 0.2, 1.0)
    assert got == exit_bound_infinite_i(0.6, 800.0, 0.2)


@settings(max_examples=300, deadline=None)
@given(
    h0=st.floats(0.0, 1.0),
    a=st.floats(1e-6, 1e3),
    frac=st.floats(0.0, 1.0, exclude_max=True),
    horizon=st.floats(1e-3, 1e3),
)
def test_variant_i_bounds_stay_in_unit_interval(h0, a, frac, horizon):
    b = a * frac  # guarantees a > b >= 0
    fin = exit_bound_finite_i(h0, a, b, horizon)
    inf = exit_bound_infinite_i(h0, a, b)
    assert 0.0 <= fin <= 1.0
    assert 0.0 <= inf <= 1.0
    assert fin <= inf + 1e-12


@settings(max_examples=300, deadline=None)
@given(
    g0=st.floats(-5.0, 1.0),
    a=st.floats(-10.0, 10.0),
    gap=st.floats(1e-6, 10.0),
    horizon=st.floats(1e-3, 1e3),
)
def test_variant_ii_bounds_stay_in_unit_interval(g0, a, gap, horizon):
    b = a - gap
    fin = exit_bound_finite_ii(g0, a, b, horizon)
    inf = exit_bound_infinite_ii(g0, a, b)
    assert 0.0 <= fin <= 1.0
    assert 0.0 <= inf <= 1.0


# --- bound curves along a trajectory ----------------------------------------


def _scalar_row(variant_i, t, value, a, b, horizon):
    """(finite, infinite) at one sample from the public scalar functions."""
    if variant_i:
        v = min(1.0, max(0.0, value))
        finite, infinite = exit_bound_finite_i, exit_bound_infinite_i
    else:
        v = min(1.0, value)
        finite, infinite = exit_bound_finite_ii, exit_bound_infinite_ii
    if math.isinf(horizon):
        fin = math.nan
    elif horizon - t > 0.0:
        fin = finite(v, a, b, horizon - t)
    else:
        fin = 1.0 if value >= 1.0 else 0.0
    return fin, infinite(v, a, b)


def test_curve_single_sample_matches_direct_evaluation():
    # rows of (t, barrier value, a, b); the horizon is 2
    cases = {
        1: [
            (0.0, 0.6, 2.0, 1.0),  # the reference point
            (0.5, 0.5, 2.0, 1.0),  # h = b/a: finite raw value below 0
            (1.0, 0.6, 800.0, 0.2),  # aT = 800 > EXP_ARG_MAX
            (0.2, 0.6, 1e-10, 0.0),  # a <= A_SWITCH_EPS has no drift-only branch in variant I
            (1.5, -0.1, 2.0, 0.0),  # frozen undershoot clamps to h = 0
            (0.3, 1.07, 3.0, 0.5),  # frozen overshoot clamps to h = 1
            (2.0, 1.02, 2.0, 1.0),  # zero remaining time: reached
            (2.0, 0.7, 2.0, 1.0),  # zero remaining time: not reached
        ],
        3: [
            (0.0, 0.0, 10.0, -0.03125),
            (0.5, 1.07, 10.0, -0.03125),  # overshoot clamps to g = 1
            (0.2, 0.5, -1.0, -2.0),  # drift-only branch, a < 0
            (0.4, 0.3, A_SWITCH_EPS, -0.5),  # drift-only branch at the switch
            (0.6, -0.0, 1.0, 0.0),  # infinite raw value -0.0
            (1.0, -3.0, 0.5, 0.25),  # infinite raw value below 0
            (0.1, 0.2, 400.0, 1.0),  # aT = 760 > EXP_ARG_MAX
            (2.0, 0.4, 1.0, 0.5),  # zero remaining time
        ],
    }
    for scenario, rows in cases.items():
        spec = scenario_spec(scenario, w=1.0)
        variant_i = scenario == 1
        columns = [np.array(col) for col in zip(*rows)]
        for horizon in (2.0, math.inf):
            curve = bound_curve(spec, *columns, horizon)
            want = np.array([_scalar_row(variant_i, *row, horizon) for row in rows])
            assert curve.shape == (len(rows), 2)
            assert curve.tobytes() == want.tobytes()  # bit for bit, -0.0 and NaN included
            assert not np.signbit(curve).any()
    curve = bound_curve(scenario_spec(1, w=1.0), [0.0], [0.6], [2.0], [1.0], 2.0)
    assert curve[0, 0] == pytest.approx(0.185074, abs=1e-6)
    assert curve[0, 1] == pytest.approx(0.2, rel=1e-12)


def test_curve_fallback_maps_to_nan():
    spec = scenario_spec(1, w=1.0)
    curve = bound_curve(spec, [0.0, 1.0], [0.6, 0.6], [math.nan, 2.0], [math.nan, 1.0], 2.0)
    assert np.isnan(curve[0]).all()
    assert not np.isnan(curve[1]).any()


def test_curve_infinite_horizon_lemma2_reduction():
    spec = scenario_spec(1, w=1.0)
    values = np.array([0.3, 0.55, 0.9])
    curve = bound_curve(spec, [0.0, 1.0, 9.0], values, np.full(3, 1.5), np.zeros(3), math.inf)
    assert np.isnan(curve[:, 0]).all()
    assert (curve[:, 1] == values).all()


def test_curve_near_horizon_end_approaches_zero():
    spec = scenario_spec(1, w=1.0)
    curve = bound_curve(spec, [2.0 - 1e-12], [0.6], [2.0], [1.0], 2.0)
    assert curve[0, 0] == pytest.approx(0.0, abs=1e-9)


def test_curve_zero_remaining_time_is_indicator():
    spec = scenario_spec(1, w=1.0)
    curve = bound_curve(spec, [2.0, 2.0], [1.02, 0.7], [2.0, 2.0], [1.0, 1.0], 2.0)
    assert curve[0, 0] == 1.0
    assert curve[1, 0] == 0.0


def test_curve_rejects_sample_beyond_horizon():
    spec = scenario_spec(1, w=1.0)
    with pytest.raises(DomainError):
        bound_curve(spec, [0.0, 2.1], [0.6, 0.6], [2.0, 2.0], [1.0, 1.0], 2.0)


def test_curve_variant_ii_clamps_frozen_overshoot():
    spec = scenario_spec(3, w=1.0)
    curve = bound_curve(spec, [0.5], [1.07], [10.0], [-0.03125], 2.0)
    assert curve[0, 0] == 1.0  # clamped g = 1 sits on the target set
    assert curve[0, 1] == 1.0
