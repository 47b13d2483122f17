"""Model factories, barrier evaluation, and derivative self-checks."""

import dataclasses

import numpy as np
import pytest
from conftest import scenario_spec

from sdexit import (
    ControlBox,
    BarrierFunction,
    DimensionError,
    DomainError,
    acc_model,
    check_barrier_derivatives,
    classify_state,
    deterministic_1d_model,
    euler_maruyama_step,
    generator_decompose,
    linear_model,
    quadratic_barrier,
    run_paths,
    scenario_barrier,
    simulate_path,
    synthesize_control,
    synthesize_control_fast,
    validate_model,
)


def test_control_box_validation():
    box = ControlBox(lo=np.array([-1.0]), hi=np.array([1.0]))
    assert box.m == 1
    with pytest.raises(DomainError):
        ControlBox(lo=np.array([1.0]), hi=np.array([-1.0]))
    with pytest.raises(DomainError):
        ControlBox(lo=np.array([-np.inf]), hi=np.array([1.0]))
    with pytest.raises(DimensionError):
        ControlBox(lo=np.zeros(2), hi=np.ones(3))


def test_acc_drift_spot_values():
    m = acc_model()
    x = np.array([-0.5, 1.5])
    drift = m.f1(x)
    # rolling resistance at x1=-0.5: 0.1 - 2.5 + 0.25*0.25 = -2.3375
    assert drift[0] == pytest.approx(2.3375 / 1650.0, rel=1e-12)
    assert drift[1] == pytest.approx(1.0, rel=1e-12)
    gain = m.f2(x)
    assert gain.shape == (2, 1)
    assert gain[0, 0] == pytest.approx(1.0 / 1650.0, rel=1e-12)
    assert gain[1, 0] == 0.0
    assert np.array_equal(m.sigma(x), np.eye(2))


def test_acc_vectorized_matches_single_state():
    m = acc_model()
    xs = np.random.default_rng(3).normal(size=(40, 2))
    batch_f1 = m.f1(xs)
    batch_f2 = m.f2(xs)
    batch_sigma = m.sigma(xs)
    for i, x in enumerate(xs):
        assert np.allclose(batch_f1[i], m.f1(x), rtol=0, atol=0)
        assert np.allclose(batch_f2[i], m.f2(x), rtol=0, atol=0)
        assert np.allclose(batch_sigma[i], m.sigma(x), rtol=0, atol=0)


def test_deterministic_model_is_noiseless_and_uncontrolled():
    m = deterministic_1d_model(rate=-1.0)
    x = np.array([0.3])
    assert m.f1(x)[0] == -1.0
    assert np.all(m.f2(x) == 0.0)
    assert np.all(m.sigma(x) == 0.0)
    validate_model(m)


def test_linear_model_shapes_and_values():
    m = linear_model(
        a_mat=[[0.0, 1.0], [0.0, 0.0]],
        d_vec=[0.0, -1.0],
        b_mat=[[0.0], [1.0]],
        sigma_mat=[[0.1], [0.0]],
        u_lo=[-2.0],
        u_hi=[2.0],
    )
    assert (m.n, m.m, m.k) == (2, 1, 1)
    x = np.array([3.0, 4.0])
    assert np.allclose(m.f1(x), [4.0, -1.0])
    xs = np.stack([x, 2 * x])
    assert m.f1(xs).shape == (2, 2)
    assert m.sigma(xs).shape == (2, 2, 1)
    with pytest.raises(DimensionError):
        linear_model(
            a_mat=[[0.0, 1.0]],
            d_vec=[0.0],
            b_mat=[[1.0]],
            sigma_mat=[[1.0]],
            u_lo=[-1.0],
            u_hi=[1.0],
        )
    with pytest.raises(DimensionError, match="B and sigma must have n rows"):
        linear_model([[0.0]], [0.0], [[1.0], [1.0]], [[1.0]], [-1.0], [1.0])
    with pytest.raises(DimensionError, match="at least one state coordinate"):
        linear_model(np.zeros((0, 0)), [], np.zeros((0, 1)), np.zeros((0, 1)), [-1.0], [1.0])


def test_scenario_barrier_values():
    b1 = scenario_barrier(1)
    assert b1.value(np.array([1.0, 1.0])) == pytest.approx((1.0 - 1.8) / 4.0)
    assert b1.value(np.array([-0.5, 1.5])) == pytest.approx(0.6)
    assert np.allclose(b1.gradient(np.array([9.0, -2.0])), [-0.45, 0.25])
    assert np.all(b1.hessian(np.array([0.0, 0.0])) == 0.0)

    b2 = scenario_barrier(2)
    assert b2.value(np.array([-0.5, 1.5])) == pytest.approx(0.1875)
    assert np.allclose(b2.gradient(np.array([-0.5, 1.5])), [-0.125, 0.375])
    assert np.allclose(b2.hessian(np.array([5.0, 5.0])), np.eye(2) / 4.0)

    b3 = scenario_barrier(3)
    center = np.array([10.0, 10.0])
    assert b3.value(center) == 0.0
    assert np.allclose(b3.gradient(center), [0.0, 0.0])
    assert np.allclose(b3.hessian(center), np.eye(2) / 32.0)
    assert b3.value(np.array([10.0, 18.0])) == pytest.approx(1.0)

    with pytest.raises(DomainError):
        scenario_barrier(4)


def test_barrier_vectorized_value():
    b2 = scenario_barrier(2)
    xs = np.array([[-0.5, 1.5], [1.0, 0.0], [0.0, 3.0]])
    vals = b2.value(xs)
    assert vals.shape == (3,)
    assert vals[0] == pytest.approx(0.1875)
    assert vals[1] == pytest.approx(0.0)
    assert vals[2] == pytest.approx(1.0)


def test_quadratic_barrier_symmetrizes_q():
    bar = quadratic_barrier([[1.0, 2.0], [0.0, 1.0]], [0.0, 0.0], 0.0)
    with pytest.raises(DimensionError, match="Q has shape"):
        quadratic_barrier([[1.0, 2.0]], [0.0, 0.0], 0.0)
    with pytest.raises(DimensionError, match="at least one state coordinate"):
        quadratic_barrier(None, [], 0.5)
    h = bar.hessian(np.zeros(2))
    assert np.allclose(h, h.T)
    # value must match the symmetrized quadratic form
    x = np.array([1.0, 2.0])
    assert bar.value(x) == pytest.approx(x @ np.array([[1.0, 1.0], [1.0, 1.0]]) @ x)


def test_derivative_check_at_reference_points():
    assert check_barrier_derivatives(scenario_barrier(1), np.array([1.0, 1.0]))["ok"]
    assert check_barrier_derivatives(scenario_barrier(3), np.array([12.0, 8.0]))["ok"]


def test_derivative_check_catches_wrong_gradient():
    base = scenario_barrier(2)
    broken = BarrierFunction(
        value=base.value,
        gradient=lambda x: base.gradient(x) * 1.01,
        hessian=base.hessian,
        n=2,
    )
    res = check_barrier_derivatives(broken, np.array([1.3, -0.4]))
    assert not res["ok"]
    assert res["grad_err"] > 1e-5


def test_derivative_check_catches_wrong_hessian():
    base = scenario_barrier(3)
    broken = BarrierFunction(
        value=base.value,
        gradient=base.gradient,
        hessian=lambda x: base.hessian(x) + 0.01 * np.eye(2),
        n=2,
    )
    res = check_barrier_derivatives(broken, np.array([2.0, 2.0]))
    assert not res["ok"]
    assert res["hess_err"] > 1e-5


def test_validate_model_rejects_bad_shapes():
    m = acc_model()
    bad = linear_model(
        a_mat=[[0.0]],
        d_vec=[0.0],
        b_mat=[[1.0]],
        sigma_mat=[[1.0]],
        u_lo=[-1.0],
        u_hi=[1.0],
    )
    with pytest.raises(DimensionError):
        validate_model(m, np.zeros(3))
    validate_model(bad)  # well-formed 1-D model passes


@pytest.mark.parametrize(
    "drift, error",
    [
        # rotation written for one state: [[1, 2], [3, 4]] gives [[3, 4], [-1, -2]]
        (lambda x: np.array([x[1], -x[0]]), DimensionError),
        # coordinate swap written for one state: on a batch it swaps the states
        (lambda x: np.asarray(x)[::-1], DomainError),
        # transpose, a no-op on one state: a batch of one comes back with shape (n, 1)
        (lambda x: np.asarray(x).T, DimensionError),
    ],
    ids=["rotation", "swap", "transpose"],
)
def test_validate_model_rejects_single_state_only_fields(drift, error):
    base = linear_model(np.zeros((2, 2)), np.zeros(2), [[1.0], [0.0]], np.eye(2), [-1.0], [1.0])
    model = dataclasses.replace(base, f1=drift)
    assert drift(np.array([1.0, 2.0])).shape == (2,)
    assert drift(np.array([[1.0, 2.0], [3.0, 4.0]])).shape == (2, 2)
    with pytest.raises(error):
        validate_model(model)


def _constant_fields():
    acc = acc_model()
    lin = linear_model(
        [[0.0, 1.0], [-1.0, 0.0]], [0.5, 0.0], [[0.0], [2.0]], [[0.3, 0.0], [0.1, 0.2]],
        [-1.0], [1.0],
    )
    bar = quadratic_barrier([[1.0, 0.5], [0.0, 2.0]], [0.1, -0.2], 0.3)
    return {
        "acc.f2": acc.f2,
        "acc.sigma": acc.sigma,
        "linear.f2": lin.f2,
        "linear.sigma": lin.sigma,
        "quadratic.hessian": bar.hessian,
    }


@pytest.mark.parametrize("name", sorted(_constant_fields()))
def test_constant_fields_return_fresh_arrays(name):
    field = _constant_fields()[name]
    for x in (np.array([0.4, -1.2]), np.zeros((3, 2)), np.zeros((2, 3, 2))):
        first = field(x)
        want = first.copy()
        assert first.shape[: x.ndim - 1] == x.shape[:-1]
        first += 7.0
        assert np.array_equal(field(x), want)


def test_linear_and_quadratic_batched_rows_match_single_states():
    rng = np.random.default_rng(11)
    lin = linear_model(
        rng.normal(size=(3, 3)), rng.normal(size=3), rng.normal(size=(3, 2)),
        rng.normal(size=(3, 3)), [-1.0, -2.0], [1.0, 2.0],
    )
    bar = quadratic_barrier(rng.normal(size=(3, 3)), rng.normal(size=3), 0.7)
    xs = rng.normal(size=(40, 3))
    fields = (lin.f1, lin.f2, lin.sigma, bar.value, bar.gradient, bar.hessian)
    batches = [np.asarray(fn(xs)) for fn in fields]
    for i, x in enumerate(xs):
        for fn, batch in zip(fields, batches):
            assert np.asarray(fn(x)).tobytes() == batch[i].tobytes()


def _poke(arr, value=np.nan):
    """Overwrite the first entry of a caller's array after construction."""
    arr.flat[0] = value


@pytest.mark.parametrize("name", ["lo", "hi"])
def test_control_box_keeps_no_caller_array(name):
    args = {"lo": np.array([-1.0, -2.0]), "hi": np.array([1.0, 2.0])}
    box = ControlBox(**args)
    want = (box.lo.copy(), box.hi.copy())
    _poke(args[name])
    assert np.array_equal(box.lo, want[0]) and np.array_equal(box.hi, want[1])


@pytest.mark.parametrize("name", ["lo", "hi"])
def test_control_box_is_read_only(name):
    box = acc_model().control_box
    with pytest.raises(ValueError):
        getattr(box, name)[0] = 5.0
    assert box.lo.tolist() == [-1.0] and box.hi.tolist() == [1.0]


@pytest.mark.parametrize("name", ["a_mat", "d_vec", "b_mat", "sigma_mat", "u_lo", "u_hi"])
def test_linear_model_keeps_no_caller_array(name):
    args = {
        "a_mat": np.array([[0.0, 1.0], [-1.0, 0.0]]),
        "d_vec": np.array([0.5, 0.0]),
        "b_mat": np.array([[0.0], [2.0]]),
        "sigma_mat": np.array([[0.3, 0.0], [0.1, 0.2]]),
        "u_lo": np.array([-1.0]),
        "u_hi": np.array([1.0]),
    }
    m = linear_model(**args)
    xs = np.array([[0.4, -1.2], [2.0, 3.0]])

    def snapshot():
        fields = [fn(xs) for fn in (m.f1, m.f2, m.sigma)]
        return [a.tobytes() for a in (*fields, m.control_box.lo, m.control_box.hi)]

    want = snapshot()
    _poke(args[name])  # past the finiteness checks, if the model kept the array
    assert snapshot() == want
    with pytest.raises(DomainError, match="finite"):  # the same NaN given up front
        linear_model(**{**args, name: args[name].copy()})


@pytest.mark.parametrize("name", ["q_mat", "c_vec", "d"])
def test_quadratic_barrier_keeps_no_caller_array(name):
    args = {
        "q_mat": np.array([[1.0, 0.5], [0.0, 2.0]]),
        "c_vec": np.array([1.0, 2.0]),
        "d": np.array(0.5),
    }
    bar = quadratic_barrier(**args)
    x = np.array([[1.0, 1.0]])
    want = [np.asarray(fn(x)).tobytes() for fn in (bar.value, bar.gradient, bar.hessian)]
    _poke(args[name], 100.0)
    assert [np.asarray(fn(x)).tobytes() for fn in (bar.value, bar.gradient, bar.hessian)] == want
    _poke(args[name], np.inf)
    with pytest.raises(DomainError, match="barrier coefficients must be finite"):
        quadratic_barrier(**args)


# each entry point that takes a single state, called as (model, spec, x)
_STATE_ENTRY_POINTS = {
    "classify_state": lambda model, spec, x: classify_state(spec.variant, spec.barrier, x),
    "euler_maruyama_step": lambda model, spec, x: euler_maruyama_step(
        model, x, np.zeros(model.m), 0.1, np.zeros(model.k)
    ),
    "run_paths": lambda model, spec, x: run_paths(model, spec, x, 0.1, 0.2, [1]),
    "simulate_path": lambda model, spec, x: simulate_path(model, spec, x, 0.1, 0.2, path_seed=1),
    "generator_decompose": lambda model, spec, x: generator_decompose(model, spec.barrier, x),
    "synthesize_control": synthesize_control,
    "synthesize_control_fast": synthesize_control_fast,
    "validate_model": lambda model, spec, x: validate_model(model, x),
    "check_barrier_derivatives": lambda model, spec, x: check_barrier_derivatives(spec.barrier, x),
}
_TAKE_MODEL_AND_BARRIER = {
    "run_paths", "simulate_path", "generator_decompose", "synthesize_control", "synthesize_control_fast",
}


@pytest.mark.parametrize("name", sorted(_STATE_ENTRY_POINTS))
def test_entry_points_reject_wrong_dimensions(name):
    call = _STATE_ENTRY_POINTS[name]
    model, spec, x = acc_model(), scenario_spec(1, w=1.0), np.array([-0.5, 1.5])
    call(model, spec, x)  # the right dimensions pass
    with pytest.raises(DimensionError, match="shape"):
        call(model, spec, np.zeros(3))
    if name in _TAKE_MODEL_AND_BARRIER:
        flat = dataclasses.replace(spec, barrier=quadratic_barrier(None, [1.0], 0.0))
        with pytest.raises(DimensionError, match="barrier dimension 1 != model dimension 2"):
            call(model, flat, x)
