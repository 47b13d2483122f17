"""Simplex solver vs exhaustive vertex-enumeration oracle, plus directed edge cases."""

import numpy as np
import pytest

from sdexit import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    CapacityError,
    DimensionError,
    DomainError,
    LpProblem,
    lp_brute_force,
    lp_solve,
)
from sdexit.lp import random_lp


def _box(objective, lo, hi, rows=None, rhs=None):
    d = len(objective)
    if rows is None:
        rows = np.zeros((0, d))
        rhs = np.zeros(0)
    return LpProblem(
        objective=np.asarray(objective, float),
        rows=np.asarray(rows, float).reshape(-1, d),
        rhs=np.asarray(rhs, float).reshape(-1),
        lo=np.asarray(lo, float),
        hi=np.asarray(hi, float),
    )


def _agree(problem, rel=1e-8):
    got = lp_solve(problem)
    want = lp_brute_force(problem)
    assert got.status == want.status, (got.status, want.status)
    if got.status == OPTIMAL:
        tol = rel * (1.0 + abs(want.objective_value))
        assert abs(got.objective_value - want.objective_value) <= tol
    return got, want


def test_single_variable_box():
    got, _ = _agree(_box([1.0], lo=[-2.0], hi=[3.0]))
    assert got.objective_value == pytest.approx(3.0, abs=1e-12)
    assert got.z[0] == pytest.approx(3.0, abs=1e-12)


def test_minimization_via_negated_objective():
    got, _ = _agree(_box([-1.0], lo=[-2.0], hi=[3.0]))
    assert got.z[0] == pytest.approx(-2.0, abs=1e-12)


def test_infeasible_row_pair():
    # x >= 1 and x <= 0 cannot both hold
    prob = _box([1.0], lo=[-np.inf], hi=[np.inf], rows=[[-1.0], [1.0]], rhs=[-1.0, 0.0])
    got, want = _agree(prob)
    assert got.status == INFEASIBLE


def test_unbounded_ray():
    prob = _box([1.0], lo=[0.0], hi=[np.inf])
    got, _ = _agree(prob)
    assert got.status == UNBOUNDED


def test_fixed_variable_equality_bounds():
    prob = _box([2.0, -1.0], lo=[1.5, -1.0], hi=[1.5, 4.0])
    got, _ = _agree(prob)
    assert got.status == OPTIMAL
    assert got.z[0] == pytest.approx(1.5, abs=1e-9)
    assert got.z[1] == pytest.approx(-1.0, abs=1e-9)


def test_negative_rhs_forces_artificials():
    # x >= 2 encoded as -x <= -2; maximize -x pushes to the tight row
    prob = _box([-1.0], lo=[-np.inf], hi=[5.0], rows=[[-1.0]], rhs=[-2.0])
    got, _ = _agree(prob)
    assert got.z[0] == pytest.approx(2.0, abs=1e-9)


def test_degenerate_duplicate_rows():
    prob = _box(
        [1.0, 1.0],
        lo=[0.0, 0.0],
        hi=[np.inf, np.inf],
        rows=[[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]],
        rhs=[1.0, 1.0, 2.0],
    )
    got, _ = _agree(prob)
    assert got.objective_value == pytest.approx(1.0, abs=1e-9)


def test_free_variable_with_rows():
    # free x bounded only through rows on both sides
    prob = _box([1.0], lo=[-np.inf], hi=[np.inf], rows=[[1.0], [-1.0]], rhs=[4.0, 1.0])
    got, _ = _agree(prob)
    assert got.z[0] == pytest.approx(4.0, abs=1e-9)


def test_large_scale_coefficients():
    prob = _box(
        [1.0, -2.0],
        lo=[0.0, 0.0],
        hi=[1e6, 1e6],
        rows=[[1e6, 1e6]],
        rhs=[1e6],
    )
    _agree(prob)


def test_certificate_polygon_instance():
    # max a - b subject to 0.6 a - b <= L, a <= 10, a - b >= 1e-6, b >= 0;
    # optimum sits at the (a=10, generator-row-tight) vertex.
    big_l = 0.24963522727272726
    prob = LpProblem(
        objective=np.array([1.0, -1.0]),
        rows=np.array([[0.6, -1.0], [-1.0, 1.0]]),
        rhs=np.array([big_l, -1e-6]),
        lo=np.array([-np.inf, 0.0]),
        hi=np.array([10.0, np.inf]),
    )
    got, want = _agree(prob, rel=1e-10)
    assert got.status == OPTIMAL
    assert want.z[0] == pytest.approx(10.0, abs=1e-9)
    assert want.z[1] == pytest.approx(6.0 - big_l, abs=1e-9)
    assert got.objective_value == pytest.approx(10.0 - (6.0 - big_l), abs=1e-9)


def test_artificial_left_within_tolerance_keeps_bounds():
    """A certificate LP infeasible by 4e-9, inside phase 1's tolerance.

    Driving its artificial out on the first eligible entry, not the largest,
    broke a variable bound and raised.
    """
    prob = LpProblem(
        objective=np.array([0.0, 0.0, 1.0, 0.0]),  # (u1, u2, a, b)
        rows=np.array([[0.03125, 0.0, 0.00390625, -1.0], [0.0, 0.0, -1.0, 1.0]]),
        rhs=np.array([-0.03125, -1e-6]),
        lo=np.array([-1.0, -2.0, -np.inf, 0.0]),
        hi=np.array([1.0, 3.0, 1e-6, np.inf]),
    )
    got = lp_solve(prob)
    assert got.status == OPTIMAL  # feasible within the solver's tolerance
    assert np.all(got.z >= prob.lo - 1e-12) and np.all(got.z <= prob.hi + 1e-12)
    assert float(np.max(prob.rows @ got.z - prob.rhs)) <= 1e-8


def test_oracle_capacity_guards():
    with pytest.raises(CapacityError):
        lp_brute_force(_box([1.0] * 7, lo=[0.0] * 7, hi=[1.0] * 7))
    wide = _box(
        [1.0, 1.0],
        lo=[0.0, 0.0],
        hi=[1.0, 1.0],
        rows=np.ones((30, 2)),
        rhs=np.ones(30),
    )
    with pytest.raises(CapacityError):
        lp_brute_force(wide)


def test_solution_feasibility_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(60):
        prob = random_lp(rng)
        got = lp_solve(prob)
        if got.status != OPTIMAL:
            continue
        z = got.z
        assert np.all(z >= prob.lo - 1e-7)
        assert np.all(z <= prob.hi + 1e-7)
        if prob.rows.shape[0]:
            scale = 1.0 + float(np.max(np.abs(prob.rhs)))
            assert float(np.max(prob.rows @ z - prob.rhs)) <= 1e-7 * scale


def test_random_oracle_equivalence_all_statuses():
    rng = np.random.default_rng(12345)
    seen = set()
    for _ in range(250):
        prob = random_lp(rng)
        got, _ = _agree(prob)
        seen.add(got.status)
    assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED}


def test_shape_validation():
    one = {"rows": np.zeros((0, 1)), "rhs": np.zeros(0), "lo": np.zeros(1), "hi": np.ones(1)}
    cases = [
        (DimensionError, {**one, "objective": [1.0], "rows": np.zeros((1, 3)), "rhs": np.zeros(1)}),
        (DimensionError, {**one, "objective": [1.0], "rows": np.ones((1, 1)), "rhs": np.zeros(2)}),
        (DimensionError, {**one, "objective": [1.0], "lo": np.zeros(2)}),
        (DomainError, {**one, "objective": [np.nan]}),
        (DomainError, {**one, "objective": [1.0], "hi": np.array([np.nan])}),
        # lo = +inf is not a usable bound
        (DomainError, {**one, "objective": [1.0], "lo": np.array([np.inf]), "hi": np.array([np.inf])}),
    ]
    for error, fields in cases:
        with pytest.raises(error):
            LpProblem(**fields)


def test_lineality_and_empty_row_edge_cases():
    """The oracle's lineality-space and zero-row paths agree with the simplex."""
    free = {"lo": [-np.inf] * 2, "hi": [np.inf] * 2}
    got, _ = _agree(_box([1.0, 1.0], rows=[[1.0, 1.0]], rhs=[1.0], **free))
    assert got.objective_value == pytest.approx(1.0, abs=1e-12)
    got, _ = _agree(_box([1.0, 1.0], rows=[[1.0, 1.0], [-1.0, -1.0]], rhs=[1.0, -2.0], **free))
    assert got.status == INFEASIBLE
    got, _ = _agree(_box([1.0], lo=[-np.inf], hi=[np.inf], rows=[[0.0]], rhs=[-1.0]))
    assert got.status == INFEASIBLE
    got, _ = _agree(_box([0.0, 0.0], **free))
    assert got.status == OPTIMAL and got.objective_value == 0.0
