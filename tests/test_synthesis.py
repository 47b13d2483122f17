"""Certificate LP synthesis: simplex route, reduced kernel, and oracle cross-checks."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from conftest import scenario_spec
from hypothesis import given, settings
from hypothesis import strategies as st

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
    linear_model,
    lp_brute_force,
    quadratic_barrier,
    scenario_barrier,
    synthesize_control,
    synthesize_control_fast,
)
from sdexit.lp import OPTIMAL
from sdexit.synthesis import STAGE2_B_TOL

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
    assert a[0] - b[0] >= spec.strict_margin_eps
    assert a[0] - spec.weight_w * b[0] >= 1.000000999999 - 1e-12


def test_fast_results_share_a_small_read_only_control():
    """A kept result holds neither the batch array nor a control of its own."""
    m = acc_model()
    feasible = synthesize_control_fast(m, scenario_spec(1, w=1.0), np.array([-0.5, 1.5]))
    fallback = synthesize_control_fast(
        m, scenario_spec(1, w=1.0, delta=1e-8), np.array([-0.5, 1.5])
    )
    assert feasible.status == FEASIBLE and fallback.status == FALLBACK
    for res in (feasible, fallback):
        assert res.u.base is None
        assert res.u.shape == (m.control_box.m,)
        assert not res.u.flags.writeable
    assert fallback.u is feasible.u  # the same corner, u = -1


@pytest.mark.parametrize("w", [1.0, 1e12])
def test_nan_inputs_certify_nothing(w):
    spec = scenario_spec(3, w=w)
    box = ControlBox(lo=np.array([-1.0]), hi=np.array([1.0]))
    u, a, b, feasible = certificate_solve(
        np.array([np.nan, 0.5, 0.5]), np.array([0.1, np.nan, 0.1]), np.ones((3, 1)), box, spec
    )
    assert feasible.tolist() == [False, False, True]
    assert np.isnan(a[:2]).all() and np.isnan(b[:2]).all()
    assert np.array_equal(u, np.ones((3, 1)))


# --- closed form against the dense simplex and the enumeration oracle -------

_EPS = 1e-6
_V_EDGES = [0.0, 1.0, 1.0 - 1e-12, 1.0 + 1e-12]
_W_EDGES = [0.0, 1.0, 1e6, float(np.nextafter(1e6, 0.0)), 999999.999999, 1e12]


def _oracle(prob, spec, m):
    """lp_brute_force on build_lp_problem: the single-stage LP, or stage 1 (least b)."""
    if spec.weight_w >= spec.lexicographic_threshold:
        prob = replace(prob, objective=np.concatenate([np.zeros(m), [0.0, -1.0]]))
    return lp_brute_force(prob)


def _breach(spec, v, g, a, b):
    """Largest breach of the certificate constraints by (a, b); at most 0 when feasible."""
    delta = spec.delta
    parts = [a * v - b - g, spec.strict_margin_eps - (a - b), a - delta]
    if spec.variant == ProblemVariant.PROBLEM_II:
        parts += [-delta - a, -delta - b, b - delta]
    else:
        parts.append(-b)
    return max(parts)


@settings(max_examples=300, deadline=None)
@given(
    variant_ii=st.booleans(),
    v=st.one_of(st.sampled_from(_V_EDGES), st.floats(-3.0, 1.5)),
    c0=st.one_of(st.just(0.0), st.floats(-5.0, 5.0)),
    c=st.lists(st.one_of(st.just(0.0), st.floats(-5.0, 5.0)), min_size=2, max_size=2),
    delta=st.one_of(st.just(_EPS), st.floats(1e-3, 20.0)),
    w=st.one_of(st.sampled_from(_W_EDGES), st.floats(0.0, 1e3), st.floats(1e6, 1e12)),
)
def test_closed_form_matches_simplex_and_oracle(variant_ii, v, c0, c, delta, w):
    """certificate_solve against the dense simplex and the enumeration oracle.

    Both references accept points that break a constraint by up to their
    feasibility tolerance, which the weight w can turn into a large gain in
    objective.  So they bound the kernel from one side always, and from both
    sides only when the point they return breaks no constraint.
    """
    if not variant_ii:
        v = abs(v)  # variant I barriers are nonnegative
    spec = ProblemSpec(
        variant=ProblemVariant.PROBLEM_II if variant_ii else ProblemVariant.PROBLEM_I,
        barrier=quadratic_barrier(None, [1.0], 0.0),  # barrier value = state
        weight_w=w,
        delta=delta,
        strict_margin_eps=_EPS,
    )
    # dx = (c0 + c.u) dt with no noise, so at x = v the generator is c0 + c.u
    model = linear_model(np.zeros((1, 1)), [c0], [c], np.zeros((1, 1)), [-1.0, -2.0], [1.0, 3.0])
    box = model.control_box
    x = np.array([v])
    decomp = generator_decompose(model, spec.barrier, x)
    u, a, b, feasible = certificate_solve(
        np.array([v]), np.array([decomp.c0]), decomp.c[None, :], box, spec
    )
    u, a, b, feasible = u[0], float(a[0]), float(b[0]), bool(feasible[0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # v on or outside the variant's range
        dense = synthesize_control(model, spec, x)
        prob = build_lp_problem(decomp, v, spec, box)
    oracle = _oracle(prob, spec, box.m)
    g = decomp.c0 + float(decomp.c @ u)
    assert g == decomp.c0 + float(decomp.c @ bang_bang(decomp.c, box))

    if not feasible:
        assert np.isnan(a) and np.isnan(b)
        # a reference may find a tolerance-feasible point only on a state
        # that a 1e-7 shift of c0 makes feasible
        if dense.status == FEASIBLE or oracle.status == OPTIMAL:
            tau = 1e-7 * (1.0 + abs(g) + abs(v) * delta)
            shifted = certificate_solve(
                np.array([v]), np.array([decomp.c0 + tau]), decomp.c[None, :], box, spec
            )[3]
            assert shifted[0]
        return

    def roundoff(ref_a, ref_b):
        return 1e-12 * (1.0 + abs(g) + abs(v * ref_a) + abs(ref_a) + abs(ref_b))

    assert _breach(spec, v, g, a, b) <= roundoff(a, b)
    assert dense.status == FEASIBLE
    assert oracle.status == OPTIMAL
    refs = [(dense.a, dense.b), (float(oracle.z[-2]), float(oracle.z[-1]))]
    exact = [_breach(spec, v, g, ra, rb) <= 0.0 for ra, rb in refs]

    if w < spec.lexicographic_threshold:
        # the references search a superset of the feasible set
        for (ref_a, ref_b), ref_exact in zip(refs, exact):
            tol = 1e-7 * (1.0 + abs(ref_a) + w * abs(ref_b))
            assert a - w * b <= ref_a - w * ref_b + tol
            if ref_exact:
                assert a - w * b >= ref_a - w * ref_b - tol
        return

    # stage 1: b lies in [b1, b1 + STAGE2_B_TOL], and the oracle's least b
    # is at most b1, or at least b1 when its point is feasible
    (dense_a, dense_b), (_, oracle_b) = refs
    assert b >= oracle_b - 1e-7 * (1.0 + abs(oracle_b))
    if exact[1]:
        assert b <= oracle_b + STAGE2_B_TOL + roundoff(a, b)
    # stage 2, against the simplex's two-stage solve: the point with the
    # smaller b also meets the other solve's cap, so the other's a is at
    # least its a.  a = (cap + g) / v carries the roundoff of cap divided by v.
    if exact[0]:
        scale = 1.0 + abs(dense_a) + abs(dense_b)
        assert abs(b - dense_b) <= 1e-7 * scale
        tol = 1e-7 * scale + roundoff(a, b) * (1.0 / abs(v) if v != 0.0 else 0.0)
        if b <= dense_b:
            assert a <= dense_a + tol
        if dense_b <= b:
            assert a >= dense_a - tol
