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
collapses to two variables (a, b).  The reduced kernel ``certificate_solve``
solves that in closed form: the best b for a given a is the least one
allowed, the feasible a form one interval, and the optimum sits at its upper
end, at the one kink of the objective, or, in the two-stage solve, where b
reaches its cap.  The two routes agree on the optimal objective; tests
enforce this on random and degenerate states.  Where the LP is infeasible
both return the bang-bang control with NaN certificates and status FALLBACK.
"""

from __future__ import annotations

import functools
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


@dataclass(frozen=True, slots=True)
class SynthesisResult:
    """Control plus certificate at one state.

    status is FEASIBLE or FALLBACK; on FALLBACK the control is the bang-bang
    generator maximizer and (a, b, lp_objective) are NaN sentinels.  The
    results of ``synthesize_control_fast`` share one read-only u per control.
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
# reduced kernel: closed-form two-variable solve, vectorized over states


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

    With g = max_u L(u) and b_floor = 0 (I) or -delta (II), the least b
    allowed at a given a is b*(a) = max(b_floor, v a - g), and since w >= 0
    it is also the best.  The a for which b*(a) is allowed form one interval
    [lo, hi]; the objective a - w b*(a) is concave on it with one kink.
    """
    v = np.asarray(v, dtype=float)
    c0 = np.asarray(c0, dtype=float)
    c = np.asarray(c, dtype=float)
    u = bang_bang(c, box)
    g = c0 + np.einsum("pm,pm->p", c, u)
    eps, delta, w = spec.strict_margin_eps, spec.delta, spec.weight_w
    b_floor = -delta if spec.variant == ProblemVariant.PROBLEM_II else 0.0

    def b_star(a):
        return np.maximum(b_floor, v * a - g)

    # divisions by v - 1 and v are only read where that divisor is nonzero
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # [lo, hi] holds the a with b_floor <= b*(a) <= a - eps and a <= delta,
        # which imply variant II's a >= -delta and b <= delta; the generator
        # row makes b*(a) <= a - eps read (v - 1) a <= g - eps.  A NaN barrier
        # value certifies nothing.
        lo = np.full(v.shape, b_floor + eps)
        hi = np.full(v.shape, delta)
        margin_a = (g - eps) / (v - 1.0)
        lo = np.where(v < 1.0, np.maximum(lo, margin_a), lo)
        hi = np.where(v > 1.0, np.minimum(hi, margin_a), hi)
        feasible = ~np.isnan(v) & ((v != 1.0) | (g >= eps)) & (lo <= hi)

        if w >= spec.lexicographic_threshold:
            # b*(a) falls or stays flat in a unless v > 0, so a = hi is best in
            # both stages; for v > 0 stage 1 ends at lo and stage 2 at the
            # largest a with b*(a) <= cap
            cap = b_star(lo) + STAGE2_B_TOL
            cap_a = (cap + g) / v
            capped = (v > 0.0) & (cap_a < hi)
            a_out = np.where(capped, cap_a, hi)
            b_out = np.where(capped, cap, b_star(hi))
        else:
            # a - w b*(a) rises with slope 1 up to the kink, where b*(a) leaves
            # b_floor, and with slope 1 - w v past it (v > 0; v <= 0 never falls)
            kink = (g + b_floor) / v
            falls = (v > 0.0) & (w * v > 1.0)
            a_out = np.where(falls, np.clip(kink, lo, hi), hi)
            b_out = b_star(a_out)

    a_out = np.where(feasible, a_out, np.nan)
    b_out = np.where(feasible, b_out, np.nan)
    return u, a_out, b_out, feasible


@functools.lru_cache(maxsize=256)
def _shared_control(raw: bytes) -> np.ndarray:
    """One read-only array per bang-bang control, for every result that holds it.

    A bang-bang control is a corner of the box, so few distinct ones occur,
    and a kept result then costs no array of its own.  The cache is bounded,
    so controls with many components cannot grow it without limit.
    """
    u = np.frombuffer(raw).copy()
    u.flags.writeable = False
    return u


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
        u=_shared_control(u[0].tobytes()),
        a=a0,
        b=b0,
        status=FEASIBLE if feasible[0] else FALLBACK,
        lp_objective=a0 - spec.weight_w * b0,
    )
