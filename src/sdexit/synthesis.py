"""Per-state controller synthesis via small linear programs.

At a state x with barrier value v and generator decomposition c0 + c.u, the
certificate LP searches for a control u in the box U and scalars (a, b) with

    c0 + c.u >= a v - b          (generator dominates the affine certificate)
    a - b >= strict_margin_eps   (strict inequality, realized as a margin)

maximizing a - w b.  Variant I additionally requires b >= 0 and a <= delta;
variant II boxes both a and b into [-delta, delta] so b may go negative.
Large w (>= ProblemSpec.lexicographic_threshold, 1e6) switches to a two-stage
solve: minimize b first, then maximize a with b capped at its optimum plus a
small tolerance.

``build_lp_problem`` states this LP for either variant and
``synthesize_control`` runs it through the dense simplex.  The control
enters a single row with zero objective weight, so u can always be taken
bang-bang (``bang_bang``, argmax of c.u, feasible or not) and the LP
collapses to two variables (a, b), which the reduced kernel
``certificate_solve`` solves exactly by enumerating the vertices of the
constraint polygon.  The two routes agree on the optimal objective; tests
enforce this on random states.  Where the LP is infeasible both return the
bang-bang control with NaN certificates and status FALLBACK.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from enum import Enum
from typing import ClassVar

import numpy as np

from .errors import DimensionError, DomainError
from .generator import GeneratorDecomposition, generator_decompose
from .lp import OPTIMAL, LpProblem, lp_solve
from .model import BarrierFunction, ControlBox, SdeModel

__all__ = [
    "ProblemVariant",
    "ProblemSpec",
    "SynthesisResult",
    "build_lp_problem",
    "bang_bang",
    "synthesize_control",
    "certificate_solve",
    "FEASIBLE",
    "FALLBACK",
]

FEASIBLE = "feasible"
FALLBACK = "fallback"

STAGE2_B_TOL = 1e-9  # slack added to the stage-1 optimum of b before stage 2


class ProblemVariant(str, Enum):
    PROBLEM_I = "ProblemI"
    PROBLEM_II = "ProblemII"


@dataclass(frozen=True)
class ProblemSpec:
    """Synthesis problem: variant, barrier and LP weights.

    Variant I: stay in {0 < h < 1} until hitting {h = 1}, failure at {h = 0}.
    Variant II: leave {g < 1} through its boundary {g = 1}.
    """

    variant: ProblemVariant
    barrier: BarrierFunction
    weight_w: float
    delta: float
    strict_margin_eps: float = 1e-6
    lexicographic_threshold: ClassVar[float] = 1e6  # two-stage solve from this weight_w on

    def __post_init__(self):
        if not np.isfinite(self.delta) or self.delta <= 0:
            raise DomainError("delta must be positive and finite")
        if not np.isfinite(self.strict_margin_eps) or self.strict_margin_eps <= 0:
            raise DomainError("strict_margin_eps must be positive and finite")
        if not np.isfinite(self.weight_w) or self.weight_w < 0:
            raise DomainError("weight_w must be nonnegative and finite")


@dataclass(frozen=True)
class SynthesisResult:
    """Control plus certificate at one state.

    status is FEASIBLE or FALLBACK; on FALLBACK the control is the bang-bang
    generator maximizer and (a, b, lp_objective) are NaN sentinels.
    """

    u: np.ndarray
    a: float
    b: float
    status: str
    lp_objective: float


def build_lp_problem(
    decomp: GeneratorDecomposition,
    value: float,
    spec: ProblemSpec,
    box: ControlBox,
) -> LpProblem:
    """Certificate LP over z = (u_1..u_m, a, b) at a state with barrier value ``value``.

    The (a, b) box comes from spec.variant: a <= delta and b >= 0 for
    variant I, a and b in [-delta, delta] for variant II.  Warns when the
    value lies outside the variant's domain.
    """
    m = decomp.c.shape[0]
    if box.m != m:
        raise DimensionError("control box does not match generator decomposition")
    delta = spec.delta
    if spec.variant == ProblemVariant.PROBLEM_I:
        if not 0.0 < value < 1.0:
            warnings.warn(f"variant-I synthesis at h = {value}, outside (0, 1)", stacklevel=2)
        ab_lo, ab_hi = [-np.inf, 0.0], [delta, np.inf]
    else:
        if value >= 1.0:
            warnings.warn(f"variant-II synthesis at g = {value} >= 1", stacklevel=2)
        ab_lo, ab_hi = [-delta, -delta], [delta, delta]
    row_gen = np.concatenate([-decomp.c, [value, -1.0]])
    row_margin = np.concatenate([np.zeros(m), [-1.0, 1.0]])
    return LpProblem(
        objective=np.concatenate([np.zeros(m), [1.0, -spec.weight_w]]),
        rows=np.vstack([row_gen, row_margin]),
        rhs=np.array([decomp.c0, -spec.strict_margin_eps]),
        lo=np.concatenate([box.lo, ab_lo]),
        hi=np.concatenate([box.hi, ab_hi]),
    )


def bang_bang(c: np.ndarray, box: ControlBox) -> np.ndarray:
    """Maximizer of c.u over the box, for c of shape (..., m): hi_i if c_i > 0 else lo_i."""
    return np.where(c > 0.0, box.hi, box.lo)


def _state_terms(
    model: SdeModel, spec: ProblemSpec, x: np.ndarray
) -> tuple[GeneratorDecomposition, float]:
    """Generator decomposition and barrier value at x, as run_paths computes them."""
    x = np.asarray(x, dtype=float)
    decomp = generator_decompose(model, spec.barrier, x)
    v = float(np.asarray(spec.barrier.value(x[None, :]), dtype=float)[0])
    return decomp, v


def synthesize_control(model: SdeModel, spec: ProblemSpec, x: np.ndarray) -> SynthesisResult:
    """Solve the certificate LP at state x through the dense simplex.

    With weight_w >= lexicographic_threshold the solve is two-stage
    (min b, then max a subject to b <= b* + STAGE2_B_TOL); otherwise a single
    LP with objective a - w b.  Any non-optimal LP status degrades to the
    bang-bang fallback control with NaN certificate.
    """
    decomp, v = _state_terms(model, spec, x)
    box = model.control_box
    prob = build_lp_problem(decomp, v, spec, box)
    m = box.m

    if spec.weight_w >= spec.lexicographic_threshold:
        sol = lp_solve(replace(prob, objective=np.concatenate([np.zeros(m), [0.0, -1.0]])))
        if sol.status == OPTIMAL:
            hi2 = prob.hi.copy()
            hi2[m + 1] = min(hi2[m + 1], float(sol.z[m + 1]) + STAGE2_B_TOL)
            stage2 = replace(prob, objective=np.concatenate([np.zeros(m), [1.0, 0.0]]), hi=hi2)
            sol = lp_solve(stage2)
    else:
        sol = lp_solve(prob)
    if sol.status != OPTIMAL:
        nan = float("nan")
        return SynthesisResult(
            u=bang_bang(decomp.c, box), a=nan, b=nan, status=FALLBACK, lp_objective=nan
        )

    z = sol.z
    u = np.clip(z[:m], box.lo, box.hi)
    a, b = float(z[m]), float(z[m + 1])
    return SynthesisResult(
        u=u, a=a, b=b, status=FEASIBLE, lp_objective=a - spec.weight_w * b
    )


# ---------------------------------------------------------------------------
# reduced kernel: exact two-variable solve, vectorized over states


def _polygon_optimize(
    lines: list[tuple[np.ndarray | float, float, np.ndarray | float]],
    alpha: float,
    beta: float,
    size: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximize alpha*a - beta*b over {pa*a + pb*b <= q for each line}.

    Each line is (pa, pb, q) with pa/q scalars or length-``size`` arrays.
    Candidates are the pairwise line intersections; the polygon is pointed
    (variant I) or bounded (variant II), so enumerating them is complete.
    Returns (a, b, feasible); infeasible entries hold NaN.
    """
    best_obj = np.full(size, -np.inf)
    best_a = np.full(size, np.nan)
    best_b = np.full(size, np.nan)
    # 0-d arrays so parallel-line zero dets yield maskable inf/nan, not raises
    lines = [tuple(np.asarray(part, dtype=float) for part in line) for line in lines]
    n_lines = len(lines)
    qtols = [1e-9 * np.maximum(1.0, np.abs(q)) for _, _, q in lines]
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(n_lines):
            pa_i, pb_i, q_i = lines[i]
            for j in range(i + 1, n_lines):
                pa_j, pb_j, q_j = lines[j]
                det = pa_i * pb_j - pa_j * pb_i
                a_cand = (q_i * pb_j - q_j * pb_i) / det
                b_cand = (pa_i * q_j - pa_j * q_i) / det
                ok = (np.abs(det) > 1e-12) & np.isfinite(a_cand) & np.isfinite(b_cand)
                for k in range(n_lines):
                    pa_k, pb_k, q_k = lines[k]
                    ok = ok & (pa_k * a_cand + pb_k * b_cand <= q_k + qtols[k])
                obj = alpha * a_cand - beta * b_cand
                upd = ok & (obj > best_obj)
                best_obj = np.where(upd, obj, best_obj)
                best_a = np.where(upd, a_cand, best_a)
                best_b = np.where(upd, b_cand, best_b)
    return best_a, best_b, best_obj > -np.inf


def _certificate_lines(
    v: np.ndarray,
    gen_max: np.ndarray,
    spec: ProblemSpec,
    b_cap: np.ndarray | None,
) -> list[tuple[np.ndarray | float, float, np.ndarray | float]]:
    eps, delta = spec.strict_margin_eps, spec.delta
    lines: list[tuple[np.ndarray | float, float, np.ndarray | float]] = [
        (v, -1.0, gen_max),  # v a - b <= max_u L(u)
        (-1.0, 1.0, -eps),  # a - b >= eps
        (1.0, 0.0, delta),  # a <= delta
    ]
    if spec.variant == ProblemVariant.PROBLEM_I:
        lines.append((0.0, -1.0, 0.0))  # b >= 0
    else:
        lines.append((-1.0, 0.0, delta))  # a >= -delta
        lines.append((0.0, -1.0, delta))  # b >= -delta
        lines.append((0.0, 1.0, delta))  # b <= delta
    if b_cap is not None:
        lines.append((0.0, 1.0, b_cap))
    return lines


def certificate_solve(
    v: np.ndarray,
    c0: np.ndarray,
    c: np.ndarray,
    box: ControlBox,
    spec: ProblemSpec,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized certificate synthesis at a batch of states.

    v, c0 have shape (P,), c has shape (P, m).  Returns (u, a, b, feasible)
    with u of shape (P, m); infeasible rows carry the bang-bang fallback
    control and NaN certificates.  Exact reduction of the full LP: u only
    enters the generator row with zero objective weight, so bang-bang u is
    always optimal and (a, b) solve a two-variable LP.
    """
    v = np.asarray(v, dtype=float)
    c0 = np.asarray(c0, dtype=float)
    c = np.asarray(c, dtype=float)
    size = v.shape[0]
    u = bang_bang(c, box)
    gen_max = c0 + np.einsum("pm,pm->p", c, u)

    if spec.weight_w >= spec.lexicographic_threshold:
        lines = _certificate_lines(v, gen_max, spec, None)
        _, b1, feas = _polygon_optimize(lines, 0.0, 1.0, size)
        b_cap = b1 + STAGE2_B_TOL
        lines2 = _certificate_lines(v, gen_max, spec, b_cap)
        a2, b2, feas2 = _polygon_optimize(lines2, 1.0, 0.0, size)
        feasible = feas & feas2
        a_out, b_out = a2, b2
    else:
        lines = _certificate_lines(v, gen_max, spec, None)
        a_out, b_out, feasible = _polygon_optimize(lines, 1.0, spec.weight_w, size)

    # roundoff hygiene: intersections may sit 1e-16 outside the variable boxes
    if spec.variant == ProblemVariant.PROBLEM_I:
        a_out = np.minimum(a_out, spec.delta)
        b_out = np.maximum(b_out, 0.0)
    else:
        a_out = np.clip(a_out, -spec.delta, spec.delta)
        b_out = np.clip(b_out, -spec.delta, spec.delta)
    a_out = np.where(feasible, a_out, np.nan)
    b_out = np.where(feasible, b_out, np.nan)
    return u, a_out, b_out, feasible


def synthesize_control_fast(model: SdeModel, spec: ProblemSpec, x: np.ndarray) -> SynthesisResult:
    """Reduced-kernel counterpart of synthesize_control (same result type)."""
    decomp, v = _state_terms(model, spec, x)
    u, a, b, feasible = certificate_solve(
        np.array([v]), np.array([decomp.c0]), decomp.c[None, :], model.control_box, spec
    )
    # an infeasible row already holds the bang-bang control and NaN (a, b),
    # so its lp_objective comes out NaN as well
    a0, b0 = float(a[0]), float(b[0])
    return SynthesisResult(
        u=u[0],
        a=a0,
        b=b0,
        status=FEASIBLE if feasible[0] else FALLBACK,
        lp_objective=a0 - spec.weight_w * b0,
    )
