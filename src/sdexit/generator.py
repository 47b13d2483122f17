"""Infinitesimal generator of a barrier along a controlled diffusion.

For dx = (f1(x) + f2(x) u) dt + sigma(x) dW and a C^2 function v, the
generator applied to v at x is affine in the control:

    L_v(x, u) = grad_v(x) . (f1(x) + f2(x) u)
                + 0.5 tr(sigma(x)' hess_v(x) sigma(x))
              = c0(x) + c(x) . u

The decomposition (c0, c) is what the per-state synthesis LP consumes; the
control law needs only c.  ``control_terms`` computes c for a batch of
states, ``generator_batch`` adds c0, and ``generator_decompose`` is its P = 1
case, so a state gets the same bits alone as inside a simulated batch.
"""

from __future__ import annotations

import numpy as np

from .model import BarrierFunction, SdeModel, _check_barrier_dimension, _vector

__all__ = [
    "generator_batch",
    "generator_decompose",
]


def control_terms(
    model: SdeModel, barrier: BarrierFunction, xs: np.ndarray
) -> tuple[np.ndarray, ...]:
    """c = grad_v . f2 of shape (P, m) at states xs (P, n), with the terms it is built from.

    Returns (c, grad, f1, f2, sigma); c alone fixes the bang-bang control.
    The einsums keep per-row float operations independent of P.
    """
    grad = np.asarray(barrier.gradient(xs), dtype=float)
    f1 = np.asarray(model.f1(xs), dtype=float)
    f2 = np.asarray(model.f2(xs), dtype=float)
    sigma = np.asarray(model.sigma(xs), dtype=float)
    return np.einsum("pn,pnm->pm", grad, f2), grad, f1, f2, sigma


def generator_batch(
    model: SdeModel, barrier: BarrierFunction, xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Generator coefficients (c0, c) at a batch of states: c0 (P,), c (P, m)."""
    c, grad, f1, _, sigma = control_terms(model, barrier, xs)
    hess = np.asarray(barrier.hessian(xs), dtype=float)
    c0 = np.einsum("pn,pn->p", grad, f1)
    c0 += 0.5 * np.einsum("pik,pij,pjk->p", sigma, hess, sigma)
    return c0, c


def generator_decompose(
    model: SdeModel, barrier: BarrierFunction, x: np.ndarray
) -> tuple[float, np.ndarray]:
    """Decompose the generator of `barrier` at state `x` into c0 + c.u: (c0, c of shape (m,))."""
    x = _vector(x, model.n)
    _check_barrier_dimension(model, barrier)
    c0, c = generator_batch(model, barrier, x[None, :])
    return float(c0[0]), c[0]

