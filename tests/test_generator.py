"""Generator decomposition L = c0 + c.u against an index-loop reference."""

import numpy as np
import pytest

from sdexit import (
    acc_model,
    generator_decompose,
    linear_model,
    quadratic_barrier,
    scenario_barrier,
)


def _reference_decompose(model, barrier, x):
    """Plain-loop evaluation of grad.f1 + 0.5 tr(sigma^T H sigma) and grad.f2."""
    grad = np.asarray(barrier.gradient(x), float)
    hess = np.asarray(barrier.hessian(x), float)
    f1 = np.asarray(model.f1(x), float)
    f2 = np.asarray(model.f2(x), float)
    sig = np.asarray(model.sigma(x), float)
    c0 = float(sum(grad[i] * f1[i] for i in range(model.n)))
    for i in range(model.n):
        for j in range(model.n):
            for k in range(model.k):
                c0 += 0.5 * sig[i, k] * hess[i, j] * sig[j, k]
    c = np.array(
        [sum(grad[i] * f2[i, col] for i in range(model.n)) for col in range(model.m)]
    )
    return c0, c


def test_acc_scenario1_reference_point():
    m = acc_model()
    c0, c = generator_decompose(m, scenario_barrier(1), np.array([-0.5, 1.5]))
    assert type(c0) is float and c.shape == (m.m,)  # row 0 of generator_batch
    # affine barrier: zero Hessian, so c0 = grad . f1 only
    assert c0 == pytest.approx(-0.45 * (2.3375 / 1650.0) + 0.25, rel=1e-12)
    assert c0 == pytest.approx(0.2493625, abs=1e-7)
    assert c[0] == pytest.approx(-0.45 / 1650.0, rel=1e-12)
    assert c[0] == pytest.approx(-2.72727e-4, abs=1e-9)


def test_acc_scenario3_center_has_zero_control_coupling():
    m = acc_model()
    c0, c = generator_decompose(m, scenario_barrier(3), np.array([10.0, 10.0]))
    assert c0 == pytest.approx(0.03125, abs=0)
    assert c[0] == 0.0


def test_acc_scenario2_includes_trace_term():
    m = acc_model()
    c0, c = generator_decompose(m, scenario_barrier(2), np.array([-0.5, 1.5]))
    # grad.f1 plus 0.5 tr(H) for identity diffusion, H = I/4
    assert c0 == pytest.approx(0.37482292 + 0.25, abs=1e-8)
    assert c[0] == pytest.approx(-0.125 / 1650.0, rel=1e-12)


def test_matches_index_loop_reference_on_random_inputs():
    rng = np.random.default_rng(17)
    model = linear_model(
        a_mat=rng.normal(size=(3, 3)),
        d_vec=rng.normal(size=3),
        b_mat=rng.normal(size=(3, 2)),
        sigma_mat=rng.normal(size=(3, 2)),
        u_lo=[-1.0, -2.0],
        u_hi=[1.0, 2.0],
    )
    barrier = quadratic_barrier(rng.normal(size=(3, 3)), rng.normal(size=3), 0.3)
    for _ in range(25):
        x = rng.normal(size=3)
        c0, c = generator_decompose(model, barrier, x)
        c0_ref, c_ref = _reference_decompose(model, barrier, x)
        assert c0 == pytest.approx(c0_ref, rel=1e-12, abs=1e-12)
        assert np.allclose(c, c_ref, rtol=1e-12, atol=1e-12)

