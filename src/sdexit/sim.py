"""Stopped Euler-Maruyama simulation under the bang-bang control law.

Each path integrates dx = (f1 + f2 u) dt + sigma dW on a uniform grid with
u = bang_bang(grad_v . f2), the certificate LP's control whether the LP is
feasible or not, so a step needs neither the LP nor the barrier's Hessian.
After each step the state is classified against closed conditions (variant
I: h >= 1 target, h <= 0 unsafe; variant II: g >= 1 target); on the first
hit the path freezes, mirroring the stopped process whose generator vanishes
on the boundary.  The loop steps one compact array holding only the live
paths' states and drops a path's row in the step it exits, so an exited path
costs no further field, barrier, noise or Euler work.  A recorded path keeps
the loop's barrier values, and its certificates are solved after the loop.

Noise is reproducible per path: a 64-bit path seed feeds one PCG64
generator, which draws the path's standard normals in blocks of 128 steps,
and only while the path is live.  numpy fills arrays sequentially, so the
blocks concatenate bit for bit to the single (n_steps, k) draw: shorter
horizons see a prefix of longer ones, which couples estimates across
horizons, and noise memory is paths x block, not paths x horizon.  Monte
Carlo path seeds derive from (master_seed, path_index) via a splitmix64-style
mix; see ``derive_path_seed``.

A non-finite state after a step marks the path as an unsafe-equivalent
failure with the ``blowup`` flag set and freezes it at the last finite state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .generator import control_terms, generator_batch
from .model import BarrierFunction, SdeModel, _check_barrier_dimension, _vector
from .synthesis import ProblemSpec, ProblemVariant, bang_bang, certificate_solve

__all__ = [
    "INTERIOR",
    "HIT_TARGET",
    "HIT_UNSAFE",
    "EXITED_TARGET",
    "EXITED_UNSAFE",
    "TIMEOUT",
    "Trajectory",
    "BatchOutcomes",
    "classify_state",
    "euler_maruyama_step",
    "derive_path_seed",
    "simulate_path",
    "run_paths",
]

INTERIOR = "Interior"
HIT_TARGET = "HitTarget"
HIT_UNSAFE = "HitUnsafe"

EXITED_TARGET = "ExitedTarget"
EXITED_UNSAFE = "ExitedUnsafe"
TIMEOUT = "Timeout"

_CODE_TIMEOUT, _CODE_TARGET, _CODE_UNSAFE = 0, 1, 2
_KIND_NAMES = {_CODE_TIMEOUT: TIMEOUT, _CODE_TARGET: EXITED_TARGET, _CODE_UNSAFE: EXITED_UNSAFE}

_MASK64 = (1 << 64) - 1
_NOISE_BLOCK = 128  # time steps of noise drawn per live path at a time


@dataclass(frozen=True)
class Trajectory:
    """One simulated path on the full time grid (frozen rows included)."""

    times: np.ndarray  # (S+1,)
    states: np.ndarray  # (S+1, n)
    controls: np.ndarray  # (S+1, m)
    values: np.ndarray  # (S+1,) barrier values of the states
    cert_a: np.ndarray  # (S+1,), NaN on fallback steps
    cert_b: np.ndarray  # (S+1,), NaN on fallback steps
    outcome: str  # EXITED_TARGET, EXITED_UNSAFE or TIMEOUT
    exit_time: float  # NaN for Timeout
    blowup: bool


@dataclass(frozen=True)
class BatchOutcomes:
    """Vectorized result for a batch of paths; trajectories only if recorded."""

    kind: np.ndarray  # (P,) int8 codes, see kind_name()
    exit_time: np.ndarray  # (P,), NaN for Timeout
    blowup: np.ndarray  # (P,) bool
    times: np.ndarray | None = None
    states: np.ndarray | None = None  # (P, S+1, n)
    controls: np.ndarray | None = None
    values: np.ndarray | None = None  # (P, S+1)
    cert_a: np.ndarray | None = None
    cert_b: np.ndarray | None = None

    @staticmethod
    def kind_name(code: int) -> str:
        return _KIND_NAMES[int(code)]


def _hits(variant: ProblemVariant, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(target, unsafe) masks of the closed exit conditions; NaN values hit neither."""
    target = v >= 1.0
    if variant == ProblemVariant.PROBLEM_I:
        return target, v <= 0.0
    return target, np.zeros_like(target)


def classify_state(variant: ProblemVariant, barrier: BarrierFunction, x: np.ndarray) -> str:
    """Closed-condition classification of a single state."""
    x = _vector(x, barrier.n)
    target, unsafe = _hits(variant, np.asarray(barrier.value(x[None, :]), dtype=float))
    if target[0]:
        return HIT_TARGET
    if unsafe[0]:
        return HIT_UNSAFE
    return INTERIOR


def _euler_step(xs, f1, f2, sigma, u, dt, dw) -> np.ndarray:
    """Batched x + (f1 + f2 u) dt + sigma dw; einsum keeps rows independent of P."""
    return xs + (f1 + np.einsum("pnm,pm->pn", f2, u)) * dt + np.einsum("pnk,pk->pn", sigma, dw)


def euler_maruyama_step(
    model: SdeModel, x: np.ndarray, u: np.ndarray, dt: float, dw: np.ndarray
) -> np.ndarray:
    """One explicit step x + (f1 + f2 u) dt + sigma dw; dw is already dt-scaled."""
    x = _vector(x, model.n)
    u = _vector(u, model.m, "control")
    dw = _vector(dw, model.k, "noise")
    _check_dt(dt)
    xs = x[None, :]
    f1 = np.asarray(model.f1(xs), dtype=float)
    f2 = np.asarray(model.f2(xs), dtype=float)
    sigma = np.asarray(model.sigma(xs), dtype=float)
    return _euler_step(xs, f1, f2, sigma, u[None, :], dt, dw[None, :])[0]


def derive_path_seed(master_seed: int, path_index: int) -> int:
    """Deterministic 64-bit stream seed for one Monte Carlo path.

    splitmix64 finalizing mix over master_seed advanced by golden-ratio
    increments of (path_index + 1); distinct indices give distinct streams.
    """
    z = (int(master_seed) + (int(path_index) + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def _check_dt(dt: float) -> None:
    if not (math.isfinite(dt) and dt > 0):
        raise DomainError(f"dt must be positive and finite, got {dt}")


def _whole_steps(horizon: float, dt: float) -> int | None:
    """horizon / dt when it is a whole number to 1e-9 relative, else None."""
    ratio = horizon / dt
    nearest = round(ratio)
    return int(nearest) if abs(ratio - nearest) <= 1e-9 * max(1.0, ratio) else None


def _grid_steps(horizon: float, dt: float) -> int:
    _check_dt(dt)
    if not math.isfinite(horizon) or horizon < 0:
        raise DomainError(f"horizon must be finite and nonnegative, got {horizon}")
    if not math.isfinite(horizon / dt):
        raise DomainError(f"horizon {horizon} / dt {dt} is not a finite number of steps")
    steps = _whole_steps(horizon, dt)
    if steps is None:
        return int(math.ceil(horizon / dt))  # horizon not a grid multiple: round the grid up
    return steps


def _start_state(model: SdeModel, spec: ProblemSpec, x0) -> tuple[np.ndarray, np.ndarray]:
    """(x0, v0): x0 as a float state and its barrier value, shape (1,); the one start rule.

    DomainError unless x0 is finite and v0 is a number strictly between the level sets.
    """
    x0 = _vector(x0, model.n, "x0")
    _check_barrier_dimension(model, spec.barrier)
    if not np.isfinite(x0).all():
        raise DomainError(f"x0 must be finite, got {x0}")
    v0 = np.asarray(spec.barrier.value(x0[None, :]), dtype=float)
    if np.isnan(v0).any() or np.any(_hits(spec.variant, v0)):  # NaN: a value on no side
        raise DomainError(
            f"x0 must lie in the open domain: its barrier value {float(v0[0])} is not a "
            "number strictly between the level sets"
        )
    return x0, v0


def run_paths(
    model: SdeModel,
    spec: ProblemSpec,
    x0: np.ndarray,
    dt: float,
    horizon: float,
    path_seeds,
    record: bool = False,
) -> BatchOutcomes:
    """Simulate one path per seed in vectorized lockstep under bang-bang control.

    Every path is a deterministic function of its own seed, so results are
    identical however the seeds are grouped into batches.  With record=True
    the full per-path grids (states, controls, barrier values, certificates)
    are returned; frozen rows repeat the exit state, its value and the last
    live row's control and certificate.
    """
    x0, v0 = _start_state(model, spec, x0)
    steps = _grid_steps(horizon, dt)
    seeds = [int(s) & _MASK64 for s in path_seeds]
    n_paths = len(seeds)
    if n_paths == 0:
        raise DomainError("at least one path seed is required")
    box = model.control_box
    n, k = model.n, model.k

    xs = np.repeat(x0[None, :], n_paths, axis=0)  # row r: the state of path live[r]
    live = np.arange(n_paths)  # the paths not yet stopped, in row order of xs
    last = np.full(n_paths, steps)  # last live row: the step a path exits in, else the grid end
    kind = np.full(n_paths, _CODE_TIMEOUT, dtype=np.int8)
    blowup = np.zeros(n_paths, dtype=bool)

    gens = [np.random.Generator(np.random.PCG64(seed)) for seed in seeds]
    sqrt_dt = math.sqrt(dt)
    noise = np.empty((n_paths, min(_NOISE_BLOCK, steps), k))  # row p: path p's current block
    if record:
        try:
            rec_states = np.empty((n_paths, steps + 1, n))  # rows past last + 1 are never written
            rec_states[:, 0] = x0
            rec_values = np.full((n_paths, steps + 1), v0[0])  # the barrier at rec_states
        except ValueError as exc:  # too big for numpy to size, let alone for any address space
            raise MemoryError(f"the recorded paths are too large: {exc}") from exc

    for i in range(steps):
        if not live.size:
            break
        cvec, _, f1v, f2v, sgv = control_terms(model, spec.barrier, xs)
        j = i % _NOISE_BLOCK
        if j == 0:
            blen = min(_NOISE_BLOCK, steps - i)
            for p in live.tolist():
                gens[p].standard_normal(out=noise[p, :blen])
        dw = noise[live, j]
        dw *= sqrt_dt
        x_new = _euler_step(xs, f1v, f2v, sgv, bang_bang(cvec, box), dt, dw)
        # rows with a non-finite coordinate; at 2048 paths, all() over axis 0 of the C-ordered
        # (n, P) transpose is about 6x faster than all(axis=1) over the short rows of (P, n)
        blew = ~np.isfinite(x_new.T, order="C").all(axis=0)
        if np.count_nonzero(blew):  # frozen at its last (live) state, a row hits neither level
            x_new[blew] = xs[blew]
            blowup[live[blew]] = True
        v_new = np.asarray(spec.barrier.value(x_new), dtype=float)
        hit_target, hit_unsafe = _hits(spec.variant, v_new)
        hit_unsafe |= blew  # a blow-up is an unsafe-equivalent exit
        if record:
            rec_states[live, i + 1] = x_new
            rec_values[live, i + 1] = v_new
        done = hit_target | hit_unsafe
        if done.any():
            kind[live[hit_target]] = _CODE_TARGET
            kind[live[hit_unsafe]] = _CODE_UNSAFE
            last[live[done]] = i
            keep = ~done
            live = live[keep]
            xs = x_new[keep]
        else:
            xs = x_new

    exit_time = np.where(kind == _CODE_TIMEOUT, np.nan, (last + 1) * dt)
    if not record:
        return BatchOutcomes(kind=kind, exit_time=exit_time, blowup=blowup)
    # A certificate depends only on its state: solve each path's live rows
    # 0..last in one batch, path after path; a frozen row repeats row last.
    rows = np.arange(steps + 1)
    solve = rows <= last[:, None]
    c0, cvec = generator_batch(model, spec.barrier, rec_states[solve])
    u, a, b, _ = certificate_solve(rec_values[solve], c0, cvec, box, spec)
    solved = (np.cumsum(last + 1) - (last + 1))[:, None] + np.minimum(rows, last[:, None])
    state_rows = np.minimum(rows, last[:, None] + 1)  # the exit state is row last + 1
    return BatchOutcomes(
        kind=kind,
        exit_time=exit_time,
        blowup=blowup,
        times=rows * dt,
        states=np.take_along_axis(rec_states, state_rows[:, :, None], axis=1),
        controls=u[solved],
        values=np.take_along_axis(rec_values, state_rows, axis=1),
        cert_a=a[solved],
        cert_b=b[solved],
    )


def simulate_path(
    model: SdeModel,
    spec: ProblemSpec,
    x0: np.ndarray,
    dt: float,
    horizon: float,
    path_seed: int,
) -> Trajectory:
    """Simulate a single path; identical arguments give identical output."""
    res = run_paths(model, spec, x0, dt, horizon, [path_seed], record=True)
    return Trajectory(
        times=res.times,
        states=res.states[0],
        controls=res.controls[0],
        values=res.values[0],
        cert_a=res.cert_a[0],
        cert_b=res.cert_b[0],
        outcome=res.kind_name(res.kind[0]),
        exit_time=float(res.exit_time[0]),
        blowup=bool(res.blowup[0]),
    )
