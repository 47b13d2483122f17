"""Stopped-process simulator: exits, freezing, determinism, grid integrity."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from conftest import scenario_spec

from sdexit import (
    EXITED_TARGET,
    EXITED_UNSAFE,
    FEASIBLE,
    HIT_TARGET,
    HIT_UNSAFE,
    INTERIOR,
    TIMEOUT,
    DimensionError,
    DomainError,
    ProblemSpec,
    ProblemVariant,
    acc_model,
    classify_state,
    derive_path_seed,
    deterministic_1d_model,
    estimate_exit_probability,
    euler_maruyama_step,
    generator_batch,
    generator_decompose,
    linear_model,
    quadratic_barrier,
    run_paths,
    scenario_barrier,
    simulate_path,
    synthesize_control_fast,
)
from sdexit.generator import control_terms
from sdexit.sim import _NOISE_BLOCK, _euler_step


def _identity_barrier():
    return quadratic_barrier(None, [1.0], 0.0)  # h(x) = x


def _spec_1d(variant=ProblemVariant.PROBLEM_I, w=1.0, delta=10.0):
    return ProblemSpec(
        variant=variant, barrier=_identity_barrier(), weight_w=w, delta=delta
    )


def test_classify_state_reference_points():
    spec1 = scenario_spec(1, w=1.0)
    assert classify_state(spec1.variant, spec1.barrier, np.array([-0.5, 1.5])) == INTERIOR
    assert classify_state(spec1.variant, spec1.barrier, np.array([0.0, 4.0])) == HIT_TARGET
    assert classify_state(spec1.variant, spec1.barrier, np.array([0.0, 0.0])) == HIT_UNSAFE
    spec3 = scenario_spec(3, w=1.0)
    assert classify_state(spec3.variant, spec3.barrier, np.array([10.0, 18.0])) == HIT_TARGET
    # Problem II has no unsafe set: negative g is still interior
    assert classify_state(spec3.variant, spec3.barrier, np.array([10.0, 10.0])) == INTERIOR
    with pytest.raises(DimensionError):
        classify_state(spec1.variant, spec1.barrier, np.zeros(3))


def test_euler_step_matches_hand_arithmetic():
    m = linear_model(
        a_mat=[[0.0]], d_vec=[2.0], b_mat=[[1.0]], sigma_mat=[[3.0]],
        u_lo=[-1.0], u_hi=[1.0],
    )
    x1 = euler_maruyama_step(m, np.array([1.0]), np.array([0.5]), 0.1, np.array([0.2]))
    assert x1[0] == pytest.approx(1.0 + 2.5 * 0.1 + 3.0 * 0.2, rel=1e-15)
    with pytest.raises(DomainError):
        euler_maruyama_step(m, np.array([1.0]), np.array([0.5]), 0.0, np.array([0.2]))
    with pytest.raises(DimensionError):
        euler_maruyama_step(m, np.array([1.0]), np.array([0.5, 0.1]), 0.1, np.array([0.2]))


@pytest.mark.parametrize("dt", [float("nan"), float("inf")])
def test_euler_step_rejects_non_finite_dt(dt):
    m = deterministic_1d_model(rate=1.0)
    with pytest.raises(DomainError):
        euler_maruyama_step(m, np.array([1.0]), np.array([0.5]), dt, np.array([0.2]))


def test_exit_up_on_exact_grid_time():
    m = deterministic_1d_model(rate=1.0)
    traj = simulate_path(m, _spec_1d(), np.array([0.9]), 0.01, 1.0, path_seed=0)
    assert traj.outcome == EXITED_TARGET
    assert traj.exit_time == 0.1
    assert traj.exit_time in traj.times
    assert traj.states[-1, 0] >= 1.0


def test_exit_down_hits_unsafe():
    m = deterministic_1d_model(rate=-1.0)
    traj = simulate_path(m, _spec_1d(), np.array([0.1]), 0.01, 1.0, path_seed=0)
    assert traj.outcome == EXITED_UNSAFE
    # accumulated 0.1 - 10*0.01 floats a hair above zero; hit lands within one step
    assert abs(traj.exit_time - 0.1) <= 0.01 + 1e-12


def test_zero_horizon_times_out_immediately():
    m = deterministic_1d_model(rate=1.0)
    traj = simulate_path(m, _spec_1d(), np.array([0.5]), 0.01, 0.0, path_seed=3)
    assert traj.outcome == TIMEOUT
    assert np.isnan(traj.exit_time)
    assert traj.times.shape == (1,)
    assert np.isfinite([traj.cert_a[0], traj.cert_b[0]]).all()  # synthesis still runs at t=0


def test_non_interior_start_rejected():
    m = deterministic_1d_model(rate=1.0)
    with pytest.raises(DomainError):
        simulate_path(m, _spec_1d(), np.array([1.0]), 0.01, 1.0, path_seed=0)


@pytest.mark.parametrize("case", ["nan x0", "inf x0", "nan barrier value"])
def test_non_finite_start_rejected(case):
    """Rejected on entry: [inf, 1.5] never reaches the barrier, where 0 * inf warns."""
    model, spec, x0 = acc_model(), scenario_spec(2, w=1.0), np.array([np.nan, 1.5])
    if case == "inf x0":
        x0 = np.array([np.inf, 1.5])
    elif case == "nan barrier value":
        barrier = dataclasses.replace(spec.barrier, value=lambda x: np.full(len(x), np.nan))
        spec, x0 = dataclasses.replace(spec, barrier=barrier), np.array([-0.5, 1.5])
    with pytest.raises(DomainError):
        run_paths(model, spec, x0, 0.01, 0.1, [1, 2])
    with pytest.raises(DomainError):
        simulate_path(model, spec, x0, 0.01, 0.1, path_seed=1)
    with pytest.raises(DomainError):
        estimate_exit_probability(model, spec, x0, 0.01, 0.1, 4, 7)


def test_dt_too_small_for_horizon_rejected():
    """2 / 1e-320 overflows to inf: a DomainError, not round(inf)'s OverflowError."""
    model, spec, x0 = acc_model(), scenario_spec(1, w=1.0), np.array([-0.5, 1.5])
    with pytest.raises(DomainError, match="not a finite number of steps"):
        run_paths(model, spec, x0, 1e-320, 2.0, [1, 2])


def test_grid_is_exact_arithmetic_progression():
    m = acc_model()
    spec = scenario_spec(1, w=1.0)
    traj = simulate_path(m, spec, np.array([-0.5, 1.5]), 1e-3, 2.0, path_seed=42)
    assert traj.times.shape == (2001,)
    diffs = np.diff(traj.times)
    assert np.max(np.abs(diffs - 1e-3)) < 1e-12
    assert traj.states.shape == (2001, 2)
    assert traj.controls.shape == (2001, 1)
    if not np.isnan(traj.exit_time):
        assert traj.exit_time in traj.times


def test_controls_stay_in_box_along_path():
    m = acc_model()
    spec = scenario_spec(2, w=1e12)
    traj = simulate_path(m, spec, np.array([-0.5, 1.5]), 0.005, 2.0, path_seed=7)
    assert np.all(traj.controls >= m.control_box.lo - 1e-15)
    assert np.all(traj.controls <= m.control_box.hi + 1e-15)


def test_frozen_after_exit_exactly():
    m = acc_model()
    spec = scenario_spec(1, w=1.0)
    traj = simulate_path(m, spec, np.array([-0.5, 1.5]), 0.01, 2.0, path_seed=9)
    assert traj.outcome in (EXITED_TARGET, EXITED_UNSAFE)
    exit_idx = int(np.where(traj.times == traj.exit_time)[0][0])
    tail = traj.states[exit_idx:]
    assert np.all(tail == tail[0])
    assert np.all(traj.values[exit_idx:] == traj.values[exit_idx])
    assert np.all(traj.controls[exit_idx:] == traj.controls[exit_idx])
    assert np.all(traj.cert_a[exit_idx:] == traj.cert_a[exit_idx])


def test_same_seed_reproduces_bitwise():
    m = acc_model()
    spec = scenario_spec(2, w=1.0)
    a = simulate_path(m, spec, np.array([-0.5, 1.5]), 0.01, 1.0, path_seed=1234)
    b = simulate_path(m, spec, np.array([-0.5, 1.5]), 0.01, 1.0, path_seed=1234)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.controls, b.controls)
    assert np.array_equal(a.cert_a, b.cert_a, equal_nan=True)
    assert np.array_equal(a.values, b.values)
    assert a.outcome == b.outcome
    assert np.array_equal(a.exit_time, b.exit_time, equal_nan=True)


def test_different_seeds_give_different_noise():
    streams = set()
    for idx in range(1000):
        seed = derive_path_seed(99, idx)
        gen = np.random.Generator(np.random.PCG64(seed))
        streams.add(tuple(gen.standard_normal(8).tolist()))
    assert len(streams) == 1000


def test_derive_path_seed_is_pure_and_64bit():
    assert derive_path_seed(5, 17) == derive_path_seed(5, 17)
    assert derive_path_seed(5, 17) != derive_path_seed(5, 18)
    assert derive_path_seed(5, 17) != derive_path_seed(6, 17)
    assert 0 <= derive_path_seed(2**63 + 11, 2**40) < 2**64


def test_batch_matches_scalar_paths_bitwise():
    m = acc_model()
    spec = scenario_spec(1, w=1e12)
    x0 = np.array([-0.5, 1.5])
    seeds = [derive_path_seed(55, i) for i in range(6)]
    batch = run_paths(m, spec, x0, 0.01, 1.0, seeds, record=True)
    for i, seed in enumerate(seeds):
        single = simulate_path(m, spec, x0, 0.01, 1.0, path_seed=seed)
        assert np.array_equal(batch.states[i], single.states)
        assert np.array_equal(batch.values[i], single.values)
        assert np.array_equal(batch.controls[i], single.controls)
        assert np.array_equal(batch.cert_a[i], single.cert_a, equal_nan=True)
        assert np.array_equal(batch.cert_b[i], single.cert_b, equal_nan=True)
        assert batch.kind_name(int(batch.kind[i])) == single.outcome
        assert np.array_equal(batch.exit_time[i], single.exit_time, equal_nan=True)
        assert batch.blowup[i] == single.blowup


def test_unrecorded_batch_matches_recorded_outcomes():
    m = acc_model()
    spec = scenario_spec(2, w=1.0)
    x0 = np.array([-0.5, 1.5])
    seeds = [derive_path_seed(7, i) for i in range(32)]
    rec = run_paths(m, spec, x0, 0.01, 1.0, seeds, record=True)
    plain = run_paths(m, spec, x0, 0.01, 1.0, seeds, record=False)
    assert np.array_equal(rec.kind, plain.kind)
    assert np.array_equal(rec.exit_time, plain.exit_time, equal_nan=True)


def test_blowup_marks_unsafe_with_flag():
    # super-linear drift ignites a finite-time explosion under Euler steps
    def drift(x):
        with np.errstate(over="ignore"):
            return np.asarray(x, dtype=float) ** 7

    def control_mat(x):
        return np.zeros(x.shape[:-1] + (1, 1))

    def diffusion(x):
        return np.zeros(x.shape[:-1] + (1, 1))

    from sdexit import ControlBox, SdeModel

    m = SdeModel(
        n=1, k=1, f1=drift, f2=control_mat, sigma=diffusion,
        control_box=ControlBox(lo=np.array([0.0]), hi=np.array([0.0])),
    )
    spec = ProblemSpec(
        variant=ProblemVariant.PROBLEM_II,
        barrier=quadratic_barrier(None, [-1.0], 0.0),  # g(x) = -x, never reaches 1
        weight_w=1.0,
        delta=10.0,
    )
    traj = simulate_path(m, spec, np.array([2.0]), 0.5, 40.0, path_seed=0)
    assert traj.outcome == EXITED_UNSAFE
    assert traj.blowup
    assert np.all(np.isfinite(traj.states))  # frozen at the last finite state


def test_batch_with_blowups_matches_single_paths():
    """Timeouts, target hits and blow-ups in one batch: each row equals its path run alone.

    The barrier is never evaluated at a blown-up state: a blown-up row is
    frozen before the step's one barrier call, which gets every live row.  A
    recorded run keeps those values and makes no further barrier call.
    """

    def drift(x):
        with np.errstate(over="ignore", invalid="ignore"):
            return -np.asarray(x, dtype=float) ** 7

    def control_mat(x):
        return np.zeros(x.shape[:-1] + (1, 1))

    def diffusion(x):
        return np.full(x.shape[:-1] + (1, 1), 1.3)

    from sdexit import ControlBox, SdeModel

    m = SdeModel(
        n=1, k=1, f1=drift, f2=control_mat, sigma=diffusion,
        control_box=ControlBox(lo=np.array([0.0]), hi=np.array([0.0])),
    )
    # g(x) = -x^2 + 4x - 2.95 >= 1 on [2 - 0.05^0.5, 2 + 0.05^0.5]; no unsafe set
    barrier = quadratic_barrier([[-1.0]], [4.0], -2.95)

    calls = []  # rows per barrier call

    def finite_only(x):
        assert np.isfinite(x).all(), "barrier evaluated at a blown-up state"
        calls.append(len(x))
        return barrier.value(x)

    spec = ProblemSpec(
        ProblemVariant.PROBLEM_II, dataclasses.replace(barrier, value=finite_only), 1.0, 10.0
    )
    x0, dt, horizon = np.zeros(1), 0.4, 6.0
    seeds = [derive_path_seed(3, i) for i in range(40)]
    batch = run_paths(m, spec, x0, dt, horizon, seeds, record=True)
    recorded_calls = len(calls)
    timeout = np.isnan(batch.exit_time)
    assert timeout.any() and batch.blowup.any() and (~timeout & ~batch.blowup).any()
    for i, seed in enumerate(seeds):
        single = simulate_path(m, spec, x0, dt, horizon, path_seed=seed)
        assert np.array_equal(batch.states[i], single.states)
        assert batch.values[i].tobytes() == single.values.tobytes()
        assert single.values.tobytes() == barrier.value(single.states).tobytes()
        assert np.array_equal(batch.controls[i], single.controls)
        assert np.array_equal(batch.cert_a[i], single.cert_a, equal_nan=True)
        assert np.array_equal(batch.cert_b[i], single.cert_b, equal_nan=True)
        assert batch.kind_name(int(batch.kind[i])) == single.outcome
        assert np.array_equal(batch.exit_time[i], single.exit_time, equal_nan=True)
        assert batch.blowup[i] == single.blowup
    calls.clear()
    run_paths(m, spec, x0, dt, horizon, seeds)
    live_steps = np.where(timeout, horizon / dt, batch.exit_time / dt).round()
    assert len(calls) == 1 + live_steps.max()  # the check that x0 is interior, then one per step
    assert sum(calls) == 1 + live_steps.sum()
    assert recorded_calls == len(calls)


def test_exited_paths_cost_no_field_evaluations():
    """f1 and the barrier see only live paths' states: a path costs nothing after its exit."""
    rows = {"f1": 0, "value": 0}

    def counted(fn, key):
        def wrapped(x):
            rows[key] += len(x)
            return fn(x)

        return wrapped

    m = acc_model()
    spec = scenario_spec(2, w=1.0)
    model = dataclasses.replace(m, f1=counted(m.f1, "f1"))
    barrier = dataclasses.replace(spec.barrier, value=counted(spec.barrier.value, "value"))
    spec = dataclasses.replace(spec, barrier=barrier)
    dt, steps = 0.01, 100
    seeds = [derive_path_seed(7, i) for i in range(32)]
    res = run_paths(model, spec, np.array([-0.5, 1.5]), dt, steps * dt, seeds)
    live_steps = np.where(np.isnan(res.exit_time), steps, np.rint(res.exit_time / dt))
    assert live_steps.min() < steps // 2 and live_steps.max() == steps
    assert rows["f1"] == live_steps.sum()
    assert rows["value"] == 1 + live_steps.sum()  # one more for the check that x0 is interior


def test_horizon_not_multiple_of_dt_rounds_grid_up():
    m = deterministic_1d_model(rate=1.0)
    traj = simulate_path(m, _spec_1d(), np.array([0.5]), 0.3, 1.0, path_seed=0)
    # 1.0/0.3 -> 4 steps of 0.3 covering 1.2
    assert traj.times.shape == (5,)
    assert traj.times[-1] == pytest.approx(1.2, rel=1e-12)


def _bit_identity_case(name):
    """(model, spec, states) for an acc model or a random 3-d linear model."""
    rng = np.random.default_rng(20261018)
    if name == "acc":
        spec = ProblemSpec(ProblemVariant.PROBLEM_I, scenario_barrier(2), 1.0, 10.0)
        return acc_model(), spec, rng.uniform(-3.0, 3.0, size=(400, 2))
    n = 3
    q = rng.normal(size=(n, n))
    model = linear_model(
        rng.normal(size=(n, n)), rng.normal(size=n), rng.normal(size=(n, 2)),
        rng.normal(size=(n, 3)), -np.ones(2), np.ones(2),
    )
    barrier = quadratic_barrier(q @ q.T / 8.0, rng.normal(size=n) / 4.0, -0.5)
    spec = ProblemSpec(ProblemVariant.PROBLEM_II, barrier, 1e12, 10.0)
    return model, spec, rng.normal(size=(400, n))


@pytest.mark.parametrize("name", ["acc", "linear3d"])
def test_single_state_entry_points_equal_batched_rows(name):
    """A state alone gives bit for bit what it gives as one row of a batch."""
    model, spec, xs = _bit_identity_case(name)
    rng = np.random.default_rng(1)
    us = rng.uniform(-1.0, 1.0, size=(len(xs), model.m))
    dws = rng.normal(scale=0.1, size=(len(xs), model.k))
    c0, c = generator_batch(model, spec.barrier, xs)
    c_alone, _, f1, f2, sigma = control_terms(model, spec.barrier, xs)
    assert np.array_equal(c_alone, c)
    stepped = _euler_step(xs, f1, f2, sigma, us, 0.01, dws)
    interior = 0
    for i, x in enumerate(xs):
        c0_i, c_i = generator_decompose(model, spec.barrier, x)
        assert c0_i == c0[i] and np.array_equal(c_i, c[i])
        assert np.array_equal(euler_maruyama_step(model, x, us[i], 0.01, dws[i]), stepped[i])
        if classify_state(spec.variant, spec.barrier, x) != INTERIOR:
            continue
        interior += 1
        fast = synthesize_control_fast(model, spec, x)
        traj = simulate_path(model, spec, x, 0.01, 0.01, path_seed=i)
        assert np.array_equal(fast.u, traj.controls[0])
        assert np.array_equal([fast.a, fast.b], [traj.cert_a[0], traj.cert_b[0]], equal_nan=True)
    assert interior > 200


def _reference_path(model, spec, x0, dt, steps, seed):
    """Plain loop over the single-state APIs with the whole horizon's noise drawn at once.

    Returns (states, controls, certificates), the last as columns (a, b, feasible).
    Rows after the exit repeat the exit state and the last live row's control and
    certificate.
    """
    dw = np.random.Generator(np.random.PCG64(seed)).standard_normal((steps, model.k)) * np.sqrt(dt)
    states = np.empty((steps + 1, model.n))
    controls = np.empty((steps + 1, model.m))
    certs = np.empty((steps + 1, 3))
    states[0] = x0
    for i in range(steps + 1):
        x = states[i]
        live = classify_state(spec.variant, spec.barrier, x) == INTERIOR
        if live:
            res = synthesize_control_fast(model, spec, x)
        controls[i] = res.u
        certs[i] = (res.a, res.b, res.status == FEASIBLE)
        if i < steps:
            states[i + 1] = euler_maruyama_step(model, x, res.u, dt, dw[i]) if live else x
    return states, controls, certs


def test_blocked_noise_equals_one_shot_draw():
    """Blocked noise and after-the-loop certificates equal a plain per-state loop, bit for bit."""
    # k = 2; paths exit in the first block, in the second, or not at all
    model = linear_model(
        [[-0.05, 0.0], [0.02, -0.05]], [0.0, 0.0], [[0.1], [0.0]],
        [[0.3, 0.1], [0.0, 0.3]], [-1.0], [1.0],
    )
    spec = ProblemSpec(ProblemVariant.PROBLEM_I, quadratic_barrier(None, [0.5, 0.5], 0.5), 1.0, 10.0)
    x0, dt = np.zeros(2), 0.01
    steps = 2 * _NOISE_BLOCK + 37  # three blocks, the last one short
    seeds = [derive_path_seed(3, i) for i in range(12)]
    batch = run_paths(model, spec, x0, dt, steps * dt, seeds, record=True)
    exit_steps = np.rint(batch.exit_time / dt)
    assert np.any(exit_steps < _NOISE_BLOCK)  # exited inside the first block
    assert np.any((exit_steps >= _NOISE_BLOCK) & (exit_steps < 2 * _NOISE_BLOCK))
    assert np.any(np.isnan(exit_steps))  # still live after two blocks
    for i, seed in enumerate(seeds):
        single = simulate_path(model, spec, x0, dt, steps * dt, path_seed=seed)
        states, controls, certs = _reference_path(model, spec, x0, dt, steps, seed)
        assert single.states.shape == (steps + 1, 2)
        assert np.array_equal(single.states, states)
        assert np.array_equal(single.values, spec.barrier.value(states))
        assert np.array_equal(single.controls, controls)
        # a recorded row is feasible exactly when its certificate is not NaN
        recorded = np.column_stack([single.cert_a, single.cert_b, ~np.isnan(single.cert_a)])
        assert np.array_equal(recorded, certs, equal_nan=True)
        assert np.array_equal(batch.states[i], single.states)
        assert np.array_equal(batch.controls[i], single.controls)
        assert np.array_equal(batch.cert_a[i], single.cert_a, equal_nan=True)
        assert np.array_equal(batch.cert_b[i], single.cert_b, equal_nan=True)


def test_noise_memory_does_not_grow_with_horizon():
    """Paths that exit early never hold noise for the rest of a long horizon."""
    m = deterministic_1d_model(rate=1.0)  # exits at t = 0.5 from x0 = 0.5
    seeds = [derive_path_seed(4, i) for i in range(64)]
    tracemalloc.start()
    try:
        res = run_paths(m, _spec_1d(), np.array([0.5]), 1e-3, 50.0, seeds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(res.kind_name(code) == EXITED_TARGET for code in res.kind)
    assert peak < 4e6  # one whole-horizon draw would be 64 * 50000 * 8 B = 25.6 MB
