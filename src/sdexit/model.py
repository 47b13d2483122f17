"""Controlled diffusion models and barrier functions.

A model is the data of the controlled SDE

    dx = (f1(x) + f2(x) u) dt + sigma(x) dW,      u in a box U,

given by three evaluators: the uncontrolled drift ``f1`` (n,), the control
matrix ``f2`` (n, m), and the diffusion matrix ``sigma`` (n, k).  States and
controls are plain numpy arrays.  Evaluators must broadcast over a leading
batch axis: input (..., n) gives outputs (..., n), (..., n, m), (..., n, k),
and a barrier's value, gradient and Hessian give (...,), (..., n),
(..., n, n).  Single-state entry points evaluate at a batch of one, so a
state gets the same bits alone as inside a simulated batch.  The input
dimension m is not stored apart: it is the control box's.

A barrier is a twice continuously differentiable scalar function with
analytic gradient and Hessian.  Region semantics (safe set, target level set)
are owned by the synthesis layer, not by the barrier itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError, DomainError

__all__ = [
    "ControlBox",
    "SdeModel",
    "BarrierFunction",
    "acc_model",
    "deterministic_1d_model",
    "linear_model",
    "scenario_barrier",
    "quadratic_barrier",
    "validate_model",
    "check_barrier_derivatives",
]

FD_STEP = 1e-5  # central-difference step of check_barrier_derivatives
FD_TOL = 1e-5  # its pass threshold on the relative gradient and Hessian errors


@dataclass(frozen=True)
class ControlBox:
    """Box control set: lo <= u <= hi componentwise, both finite."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.array(self.lo, dtype=float, ndmin=1)  # copies: the caller keeps its arrays
        hi = np.array(self.hi, dtype=float, ndmin=1)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise DimensionError(f"control box shapes {lo.shape} vs {hi.shape}")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise DomainError("control box bounds must be finite")
        if np.any(lo > hi):
            raise DomainError("control box has lo > hi")
        lo.flags.writeable = hi.flags.writeable = False  # a validated box stays valid
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def m(self) -> int:
        return self.lo.shape[0]


@dataclass(frozen=True)
class SdeModel:
    """Controlled SDE with box-constrained input.

    f1, f2, sigma map states (..., n) to arrays of shape (..., n),
    (..., n, m), (..., n, k); the input dimension m is control_box.m.
    """

    n: int
    k: int
    f1: Callable[[np.ndarray], np.ndarray]
    f2: Callable[[np.ndarray], np.ndarray]
    sigma: Callable[[np.ndarray], np.ndarray]
    control_box: ControlBox

    @property
    def m(self) -> int:
        return self.control_box.m


@dataclass(frozen=True)
class BarrierFunction:
    """Scalar C^2 function with analytic first and second derivatives."""

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    n: int


def _vector(x, n: int, what: str = "state") -> np.ndarray:
    """x as a float array of shape (n,); DimensionError naming `what` otherwise."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise DimensionError(f"{what} shape {x.shape}, expected {(n,)}")
    return x


def _check_barrier_dimension(model: SdeModel, barrier: BarrierFunction) -> None:
    """DimensionError unless the barrier is a function of the model's state."""
    if barrier.n != model.n:
        raise DimensionError(f"barrier dimension {barrier.n} != model dimension {model.n}")


def _evaluate(label: str, fn: Callable, xs: np.ndarray, want: tuple) -> np.ndarray:
    """fn at a batch of states, required to have shape (P,) + want.

    Floating-point warnings are silenced: the caller reports a non-finite value itself.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            arr = np.asarray(fn(xs), dtype=float)
    except (IndexError, ValueError) as exc:
        raise DimensionError(f"{label}(x) fails on states of shape {xs.shape}: {exc}") from exc
    if arr.shape != xs.shape[:1] + want:
        raise DimensionError(
            f"{label}(x) has shape {arr.shape} on states {xs.shape}, expected {xs.shape[:1] + want}"
        )
    return arr


def validate_model(model: SdeModel, x: np.ndarray | None = None) -> None:
    """Smoke-evaluate the model on a batch of two states and check it.

    The batch is x (zeros by default) and x + (1, 2, ..., n).  Each field
    must have the batched shape the model declares, be finite, and give each
    row the same bits as that state evaluated alone as a batch of one.
    Raises DimensionError or DomainError otherwise.  Factories call this
    once at construction time.
    """
    x = _vector(np.zeros(model.n) if x is None else x, model.n)
    xs = np.stack([x, x + np.arange(1.0, model.n + 1.0)])
    fields = [
        ("f1", model.f1, (model.n,)),
        ("f2", model.f2, (model.n, model.m)),
        ("sigma", model.sigma, (model.n, model.k)),
    ]
    for label, fn, want in fields:
        arr = _evaluate(label, fn, xs, want)
        if not np.isfinite(arr).all():
            raise DomainError(f"{label}(x) is not finite at {xs.tolist()}")
        alone = np.concatenate([_evaluate(label, fn, xs[i : i + 1], want) for i in range(2)])
        if alone.tobytes() != arr.tobytes():
            raise DomainError(f"{label}(x) on the batch {xs.tolist()} differs from each state alone")


# ---------------------------------------------------------------------------
# Built-in models


def _constant_field(mat: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Evaluator x -> mat over x's batch axes, a fresh array on every call."""

    def field(x):
        out = np.empty(np.shape(x)[:-1] + mat.shape)
        out[...] = mat
        return out

    return field


def acc_model(
    f0: float = 0.1,
    f1: float = 5.0,
    f2: float = 0.25,
    mass: float = 1650.0,
    lead_velocity: float = 0.5,
    u_lo: float = -1.0,
    u_hi: float = 1.0,
) -> SdeModel:
    """Reduced two-state adaptive cruise control model.

    State (x1, x3): x1 the ego-lead relative velocity surrogate and x3 the
    headway coordinate.  Rolling resistance F_r(x1) = f0 + f1*x1 + f2*x1^2
    acts against the engine input u (scaled by 1/mass); the headway changes
    at lead_velocity - x1.  Unit diffusion on both coordinates.
    """
    if mass <= 0:
        raise DomainError("mass must be positive")
    inv_m = 1.0 / mass

    def drift(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        v = x[..., 0]
        out = np.empty_like(x)
        out[..., 0] = -(f0 + f1 * v + f2 * v * v) * inv_m
        out[..., 1] = lead_velocity - v
        return out

    model = SdeModel(
        n=2,
        k=2,
        f1=drift,
        f2=_constant_field(np.array([[inv_m], [0.0]])),
        sigma=_constant_field(np.eye(2)),
        control_box=ControlBox(np.array([u_lo]), np.array([u_hi])),
    )
    validate_model(model)
    return model


def deterministic_1d_model(rate: float = 1.0) -> SdeModel:
    """One-dimensional noiseless drift dx = rate dt; control has no effect.

    Used for exact, grid-predictable simulator tests.  The linear model's
    drift 0 x + rate equals rate bit for bit at every finite x.
    """
    return linear_model([[0.0]], [rate], [[0.0]], [[0.0]], [-1.0], [1.0])


def linear_model(
    a_mat: np.ndarray,
    d_vec: np.ndarray,
    b_mat: np.ndarray,
    sigma_mat: np.ndarray,
    u_lo: np.ndarray,
    u_hi: np.ndarray,
) -> SdeModel:
    """Constant-coefficient model dx = (A x + d + B u) dt + S dW."""
    # copies, so a later change to the caller's arrays cannot reach the model
    a_mat = np.array(a_mat, dtype=float, ndmin=2)
    d_vec = np.array(d_vec, dtype=float, ndmin=1)
    b_mat = np.array(b_mat, dtype=float, ndmin=2)
    sigma_mat = np.array(sigma_mat, dtype=float, ndmin=2)
    n = d_vec.shape[0]
    if a_mat.shape != (n, n):
        raise DimensionError(f"A has shape {a_mat.shape}, expected {(n, n)}")
    if b_mat.shape[0] != n or sigma_mat.shape[0] != n:
        raise DimensionError("B and sigma must have n rows")
    for arr, label in ((a_mat, "A"), (d_vec, "d"), (b_mat, "B"), (sigma_mat, "sigma")):
        if not np.isfinite(arr).all():
            raise DomainError(f"{label} contains non-finite entries")

    def drift(x):
        # einsum keeps per-row float ops identical across batch shapes
        x = np.asarray(x, dtype=float)
        return np.einsum("...i,ji->...j", x, a_mat) + d_vec

    model = SdeModel(
        n=n,
        k=sigma_mat.shape[1],
        f1=drift,
        f2=_constant_field(b_mat),
        sigma=_constant_field(sigma_mat),
        control_box=ControlBox(u_lo, u_hi),
    )
    validate_model(model)
    return model


# ---------------------------------------------------------------------------
# Barriers


def quadratic_barrier(q_mat: np.ndarray | None, c_vec: np.ndarray, d: float) -> BarrierFunction:
    """Barrier v(x) = x'Qx + c'x + d with Q symmetric (or None for affine)."""
    # copies, like Q's symmetrized form below, so the caller's arrays cannot reach the barrier
    c_vec = np.array(c_vec, dtype=float, ndmin=1)
    d = float(d)
    n = c_vec.shape[0]
    if q_mat is None:
        q_mat = np.zeros((n, n))
    q_mat = np.atleast_2d(np.asarray(q_mat, dtype=float))
    if q_mat.shape != (n, n):
        raise DimensionError(f"Q has shape {q_mat.shape}, expected {(n, n)}")
    if not (np.isfinite(q_mat).all() and np.isfinite(c_vec).all() and np.isfinite(d)):
        raise DomainError("barrier coefficients must be finite")
    # symmetrize so gradient/Hessian formulas below are exact
    q_mat = 0.5 * (q_mat + q_mat.T)

    # einsum, not @: BLAS picks different kernels (and ulps) by batch shape,
    # which would break bit-reproducibility of batched vs single evaluation
    def value(x):
        x = np.asarray(x, dtype=float)
        quad = np.einsum("...i,ij,...j->...", x, q_mat, x)
        return quad + np.einsum("...i,i->...", x, c_vec) + d

    def gradient(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * np.einsum("...i,ij->...j", x, q_mat) + c_vec

    return BarrierFunction(
        value=value, gradient=gradient, hessian=_constant_field(2.0 * q_mat), n=n
    )


def scenario_barrier(index: int) -> BarrierFunction:
    """Built-in two-state benchmark barriers.

    1: h(x) = (x3 - 1.8 x1) / 4          (affine; safe-approach certificate)
    2: h(x) = (x1^2 + x3^2 - 1) / 8      (annular; leave the unit disk)
    3: g(x) = ((x1-10)^2 + (x3-10)^2)/64 (reach the radius-8 circle around (10,10))
    """
    if index == 1:
        return quadratic_barrier(None, np.array([-0.45, 0.25]), 0.0)
    if index == 2:
        return quadratic_barrier(np.eye(2) / 8.0, np.zeros(2), -1.0 / 8.0)
    if index == 3:
        center = np.array([10.0, 10.0])
        q = np.eye(2) / 64.0
        c = -2.0 * center / 64.0
        d = float(center @ center) / 64.0
        return quadratic_barrier(q, c, d)
    raise DomainError(f"unknown scenario barrier index {index}")


def check_barrier_derivatives(barrier: BarrierFunction, x: np.ndarray) -> dict:
    """Central-difference consistency check of gradient and Hessian.

    Compares the analytic gradient against central differences of the value,
    and the analytic Hessian against central differences of the gradient.
    Relative error uses max(1, |analytic|) in the denominator so zero entries
    are compared absolutely.  Returns a dict with the two max errors and an
    overall 'ok' flag (both below FD_TOL, Hessian symmetric to 1e-12).
    """
    x = _vector(x, barrier.n)
    grad = np.asarray(barrier.gradient(x), dtype=float)
    hess = np.asarray(barrier.hessian(x), dtype=float)

    grad_fd = np.empty(barrier.n)
    hess_fd = np.empty((barrier.n, barrier.n))
    for i in range(barrier.n):
        e = np.zeros(barrier.n)
        e[i] = FD_STEP
        grad_fd[i] = (barrier.value(x + e) - barrier.value(x - e)) / (2 * FD_STEP)
        hess_fd[:, i] = (
            np.asarray(barrier.gradient(x + e)) - np.asarray(barrier.gradient(x - e))
        ) / (2 * FD_STEP)

    grad_err = float(np.max(np.abs(grad_fd - grad) / np.maximum(1.0, np.abs(grad))))
    hess_err = float(np.max(np.abs(hess_fd - hess) / np.maximum(1.0, np.abs(hess))))
    sym_err = float(np.max(np.abs(hess - hess.T))) if barrier.n > 0 else 0.0
    return {
        "grad_err": grad_err,
        "hess_err": hess_err,
        "sym_err": sym_err,
        "ok": grad_err < FD_TOL and hess_err < FD_TOL and sym_err < 1e-12,
    }
