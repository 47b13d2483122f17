"""Certificate LP synthesis: simplex route, reduced kernel, and oracle cross-checks."""

import numpy as np
import pytest
from conftest import scenario_spec

from sdexit import (
    FALLBACK,
    FEASIBLE,
    ControlBox,
    LpProblem,
    ProblemSpec,
    ProblemVariant,
    acc_model,
    bang_bang,
    build_lp_problem,
    certificate_solve,
    generator_decompose,
    lp_brute_force,
    scenario_barrier,
    synthesize_control,
    synthesize_control_fast,
)

BIG_L = 0.24963522727272726  # max_u L at scenario-1 x0, equals c0 + |c|


def _interior_states(rng, scenario, count):
    """Sample states with barrier value strictly inside the variant's range."""
    if scenario == 1:
        x1 = rng.uniform(-3.0, 3.0, size=count)
        h = rng.uniform(0.02, 0.98, size=count)
        x3 = 1.8 * x1 + 4.0 * h
        return np.stack([x1, x3], axis=1)
    if scenario == 2:
        theta = rng.uniform(0.0, 2 * np.pi, size=count)
        r = np.sqrt(1.0 + 8.0 * rng.uniform(0.02, 0.98, size=count))
        return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
    theta = rng.uniform(0.0, 2 * np.pi, size=count)
    r = 8.0 * np.sqrt(rng.uniform(0.0, 0.98, size=count))
    return np.stack([10.0 + r * np.cos(theta), 10.0 + r * np.sin(theta)], axis=1)


def test_lp_problem_structure():
    m = acc_model()
    spec = scenario_spec(1, w=1.0)
    decomp = generator_decompose(m, spec.barrier, np.array([-0.5, 1.5]))
    prob = build_lp_problem(decomp, 0.6, spec, m.control_box)
    assert prob.d == 3  # (u, a, b)
    assert prob.rows.shape == (2, 3)
    assert prob.lo[2] == 0.0 and prob.hi[1] == 10.0
    spec2 = scenario_spec(3, w=1.0)
    prob2 = build_lp_problem(decomp, 0.0, spec2, m.control_box)
    assert prob2.lo[1] == -10.0 and prob2.hi[2] == 10.0


def test_scenario1_w1_point_matches_oracle():
    m = acc_model()
    spec = scenario_spec(1, w=1.0)
    x0 = np.array([-0.5, 1.5])
    res = synthesize_control(m, spec, x0)
    assert res.status == FEASIBLE
    assert res.u[0] == pytest.approx(-1.0, abs=1e-12)
    # cross-check against exhaustive vertex enumeration of the same LP
    decomp = generator_decompose(m, spec.barrier, x0)
    oracle = lp_brute_force(build_lp_problem(decomp, 0.6, spec, m.control_box))
    assert oracle.status == "optimal"
    assert res.a == pytest.approx(oracle.z[1], abs=1e-9)
    assert res.b == pytest.approx(oracle.z[2], abs=1e-9)
    # the optimum saturates a at delta; b is pinned by the generator row
    assert res.a == pytest.approx(10.0, abs=1e-9)
    assert res.b == pytest.approx(6.0 - BIG_L, abs=1e-9)


def test_scenario1_lexicographic_minimizes_b():
    m = acc_model()
    spec = scenario_spec(1, w=1e12)
    x0 = np.array([-0.5, 1.5])
    res = synthesize_control(m, spec, x0)
    assert res.status == FEASIBLE
    assert res.u[0] == pytest.approx(-1.0, abs=1e-12)
    # stage 1 drives b to its polygon minimum (0 here), stage 2 then caps it
    assert 0.0 <= res.b <= 2e-9
    assert res.a == pytest.approx((BIG_L + res.b) / 0.6, rel=1e-9)
    assert res.a == pytest.approx(0.4160587, abs=1e-6)


def test_scenario3_center_certificate():
    m = acc_model()
    spec = scenario_spec(3, w=1.0)
    res = synthesize_control(m, spec, np.array([10.0, 10.0]))
    assert res.status == FEASIBLE
    # c = 0 at the center: max_u L = c0 = 0.03125, b pinned by the generator row
    assert res.a == pytest.approx(10.0, abs=1e-9)
    assert res.b == pytest.approx(-0.03125, abs=1e-9)
    assert -1.0 <= res.u[0] <= 1.0


def test_stage1_b_is_polygon_minimum():
    m = acc_model()
    spec = scenario_spec(2, w=1e12)
    for x in _interior_states(np.random.default_rng(5), 2, 20):
        res = synthesize_control(m, spec, x)
        if res.status != FEASIBLE:
            continue
        decomp = generator_decompose(m, spec.barrier, x)
        prob = build_lp_problem(decomp, float(spec.barrier.value(x)), spec, m.control_box)
        min_b = lp_brute_force(
            LpProblem(
                objective=np.array([0.0, 0.0, -1.0]),
                rows=prob.rows,
                rhs=prob.rhs,
                lo=prob.lo,
                hi=prob.hi,
            )
        )
        assert min_b.status == "optimal"
        assert res.b <= min_b.z[2] + 2e-9 + 1e-9 * abs(min_b.z[2])


@pytest.mark.parametrize("scenario", [1, 2, 3])
@pytest.mark.parametrize("w", [1.0, 1e12])
def test_fast_kernel_matches_simplex(scenario, w):
    m = acc_model()
    spec = scenario_spec(scenario, w=w)
    rng = np.random.default_rng(scenario * 7 + int(w > 1))
    for x in _interior_states(rng, scenario, 50):
        full = synthesize_control(m, spec, x)
        fast = synthesize_control_fast(m, spec, x)
        assert full.status == fast.status
        if full.status != FEASIBLE:
            continue
        scale = 1.0 + abs(full.a) + abs(full.b)
        assert abs(full.a - fast.a) <= 1e-7 * scale
        assert abs(full.b - fast.b) <= 1e-7 * scale
        decomp = generator_decompose(m, spec.barrier, x)
        gen_full = decomp.c0 + float(decomp.c @ full.u)
        gen_fast = decomp.c0 + float(decomp.c @ fast.u)
        assert gen_full == pytest.approx(gen_fast, abs=1e-10)


@pytest.mark.parametrize("scenario", [1, 2, 3])
def test_certificate_constraint_satisfaction(scenario):
    # Feasible results must satisfy L(u) >= a v - b with strict a - b margin
    m = acc_model()
    spec = scenario_spec(scenario, w=1.0)
    rng = np.random.default_rng(scenario)
    xs = _interior_states(rng, scenario, 1000)
    grads = spec.barrier.gradient(xs)
    values = spec.barrier.value(xs)
    hess_trace = {1: 0.0, 2: 0.25, 3: 0.03125}[scenario]  # 0.5 tr(H) for sigma = I
    f1 = m.f1(xs)
    c0 = np.einsum("pn,pn->p", grads, f1) + hess_trace
    cvec = np.einsum("pn,pnm->pm", grads, m.f2(xs))
    u, a, b, feasible = certificate_solve(values, c0, cvec, m.control_box, spec)
    # states deep in the region with strongly negative generator may be
    # genuinely infeasible at this delta; the invariant binds Feasible rows
    assert float(np.mean(feasible)) > 0.8
    a, b = a[feasible], b[feasible]
    gen = (c0 + np.einsum("pm,pm->p", cvec, u))[feasible]
    values = values[feasible]
    assert float(np.min(gen - a * values + b)) >= -1e-8
    assert float(np.min(a - b)) >= spec.strict_margin_eps - 1e-12
    if scenario == 3:
        assert np.all(np.abs(a) <= spec.delta + 1e-12)
        assert np.all(np.abs(b) <= spec.delta + 1e-12)
    else:
        assert np.all(a <= spec.delta + 1e-12)
        assert np.all(b >= 0.0)


def test_infeasible_spec_degrades_to_fallback():
    # delta below the strict margin leaves no room for a - b >= eps
    m = acc_model()
    spec = ProblemSpec(
        variant=ProblemVariant.PROBLEM_I,
        barrier=scenario_barrier(1),
        weight_w=1.0,
        delta=1e-8,
        strict_margin_eps=1e-6,
    )
    res = synthesize_control(m, spec, np.array([-0.5, 1.5]))
    fast = synthesize_control_fast(m, spec, np.array([-0.5, 1.5]))
    for r in (res, fast):
        assert r.status == FALLBACK
        assert np.isnan(r.a) and np.isnan(r.b) and np.isnan(r.lp_objective)
    decomp = generator_decompose(m, spec.barrier, np.array([-0.5, 1.5]))
    for r in (res, fast):
        assert np.array_equal(r.u, bang_bang(decomp.c, m.control_box))
    assert res.u[0] == -1.0  # c < 0 picks the lower box corner


def test_objective_monotone_in_delta():
    m = acc_model()
    x = np.array([-0.5, 1.5])
    prev = -np.inf
    for delta in (0.5, 2.0, 10.0, 40.0):
        res = synthesize_control(m, scenario_spec(1, w=1.0, delta=delta), x)
        assert res.status == FEASIBLE
        assert res.lp_objective >= prev - 1e-12
        prev = res.lp_objective


def test_batch_certificates_match_scalar_calls():
    m = acc_model()
    spec = scenario_spec(2, w=1e12)
    xs = _interior_states(np.random.default_rng(11), 2, 64)
    grads = spec.barrier.gradient(xs)
    values = spec.barrier.value(xs)
    c0 = np.einsum("pn,pn->p", grads, m.f1(xs)) + 0.25
    cvec = np.einsum("pn,pnm->pm", grads, m.f2(xs))
    u, a, b, feasible = certificate_solve(values, c0, cvec, m.control_box, spec)
    for i in (0, 13, 37, 63):
        single = synthesize_control_fast(m, spec, xs[i])
        assert feasible[i] == (single.status == FEASIBLE)
        assert a[i] == pytest.approx(single.a, rel=1e-12, abs=1e-12)
        assert b[i] == pytest.approx(single.b, rel=1e-12, abs=1e-12)
        assert np.array_equal(u[i], single.u)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: the vertex search accepts a breach of b >= -delta within its 1e-9 qtol",
)
def test_degenerate_vertex_keeps_strict_margin():
    """Lexicographic edge w just below 1e6, delta == eps: the optimum is the vertex (delta, -delta)."""
    spec = ProblemSpec(
        variant=ProblemVariant.PROBLEM_II,
        barrier=scenario_barrier(3),
        weight_w=999999.999999,
        delta=1e-6,
        strict_margin_eps=1e-6,
    )
    box = ControlBox(lo=np.array([-1.0]), hi=np.array([1.0]))
    _, a, b, feasible = certificate_solve(
        np.array([-3.0]), np.array([1e-6]), np.array([[1e-9]]), box, spec
    )
    assert feasible[0]
    assert a[0] - b[0] >= spec.strict_margin_eps  # returns 9.9975e-7 today
    assert a[0] - spec.weight_w * b[0] >= 1.000000999999 - 1e-12
