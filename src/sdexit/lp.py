"""Dense linear programming: a two-phase simplex and an exhaustive oracle.

Problems are stated over z in R^d as

    maximize    objective . z
    subject to  rows @ z <= rhs
                lo <= z <= hi        (entries may be -inf / +inf)

``lp_solve`` is a dense tableau simplex: variables are substituted to be
nonnegative, rows with negative right-hand sides get artificial variables,
phase 1 minimizes their sum, phase 2 optimizes the real objective.  Both
phases use Bland's anti-cycling rule (entering: smallest-index column with a
positive reduced cost; leaving: minimum ratio, ties broken by the smallest
basic variable index), so the iteration count is finite up to floating-point
noise; an iteration cap turns any residual non-termination into a hard error.

``lp_brute_force`` enumerates candidate vertices (all d-subsets of the
constraint set) and recession directions (null directions of (d-1)-subsets).
It shares no code with the simplex beyond numpy linear algebra and serves as
its independent oracle in tests.  Exhaustive enumeration is only viable for
tiny problems, hence the hard capacity limits.

``random_lp`` draws the small random instances on which the two are compared.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DimensionError, DomainError

__all__ = [
    "LpProblem",
    "LpSolution",
    "lp_solve",
    "lp_brute_force",
    "OPTIMAL",
    "INFEASIBLE",
    "UNBOUNDED",
]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

PIVOT_TOL = 1e-9  # simplex: smallest reduced cost / column entry that counts as positive
FEAS_TOL = 1e-8  # simplex: scaled postcondition tolerance on the returned point
MAX_ITER = 10000  # simplex: pivots per phase before giving up
ORACLE_FEAS_TOL = 1e-9  # oracle: feasibility tolerance on normalized rows
ORACLE_MAX_DIM = 6  # oracle: most variables it enumerates
ORACLE_MAX_CONSTRAINTS = 24  # oracle: most rows, bounds included


@dataclass(frozen=True)
class LpProblem:
    """maximize objective . z  s.t.  rows @ z <= rhs,  lo <= z <= hi."""

    objective: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.objective, dtype=float))
        d = c.shape[0]
        rows = np.asarray(self.rows, dtype=float)
        if rows.size == 0:
            rows = np.zeros((0, d))
        if rows.ndim != 2 or rows.shape[1] != d:
            raise DimensionError(f"rows shape {rows.shape}, expected (r, {d})")
        rhs = np.atleast_1d(np.asarray(self.rhs, dtype=float)) if np.size(self.rhs) else np.zeros(0)
        if rhs.shape != (rows.shape[0],):
            raise DimensionError(f"rhs shape {rhs.shape}, expected ({rows.shape[0]},)")
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != (d,) or hi.shape != (d,):
            raise DimensionError("bound shapes must match the objective dimension")
        if not (np.isfinite(c).all() and np.isfinite(rows).all() and np.isfinite(rhs).all()):
            raise DomainError("objective, rows and rhs must be finite")
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise DomainError("bounds must not be NaN")
        if np.any(lo == np.inf) or np.any(hi == -np.inf):
            raise DomainError("lo must be < +inf and hi > -inf")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def d(self) -> int:
        return self.objective.shape[0]


@dataclass(frozen=True)
class LpSolution:
    status: str
    z: np.ndarray | None
    objective_value: float | None


# ---------------------------------------------------------------------------
# simplex


def _pivot(tab: np.ndarray, basis: np.ndarray, pr: int, pc: int) -> None:
    tab[pr] /= tab[pr, pc]
    col = tab[:, pc].copy()
    col[pr] = 0.0
    tab -= np.outer(col, tab[pr])
    basis[pr] = pc


def _run_phase(
    tab: np.ndarray,
    basis: np.ndarray,
    cost: np.ndarray,
    allowed: np.ndarray,
) -> bool:
    """Run the simplex loop for one phase. Returns True if unbounded."""
    obj = np.zeros(tab.shape[1])
    obj[: cost.shape[0]] = cost
    for i, bv in enumerate(basis):
        if obj[bv] != 0.0:
            obj -= obj[bv] * tab[i]
    for _ in range(MAX_ITER):
        reduced = obj[:-1]
        cand = np.where(allowed & (reduced > PIVOT_TOL))[0]
        if cand.size == 0:
            return False
        pc = int(cand[0])  # Bland: smallest eligible index
        colv = tab[:, pc]
        rows_ok = np.where(colv > PIVOT_TOL)[0]
        if rows_ok.size == 0:
            return True
        ratios = tab[rows_ok, -1] / colv[rows_ok]
        rmin = ratios.min()
        tie = rows_ok[ratios <= rmin + 1e-12 * (1.0 + abs(rmin))]
        pr = int(tie[np.argmin(basis[tie])])  # Bland: smallest basic index leaves
        _pivot(tab, basis, pr, pc)
        obj -= obj[pc] * tab[pr]
    raise RuntimeError("simplex iteration limit exceeded")


def lp_solve(problem: LpProblem) -> LpSolution:
    """Two-phase dense simplex with Bland's anti-cycling rule.

    Returns an LpSolution whose status is one of OPTIMAL / INFEASIBLE /
    UNBOUNDED.  An optimal solution is re-checked against all constraints to
    FEAS_TOL (scaled); a violation raises RuntimeError since it indicates a
    solver defect rather than a property of the problem.
    """
    c, a, b = problem.objective, problem.rows, problem.rhs
    lo, hi = problem.lo, problem.hi
    d = problem.d

    # substitute variables so the tableau only sees x >= 0:
    #   lo finite:            z = lo + x     (row x <= hi - lo if hi finite too)
    #   hi finite only:       z = hi - x
    #   free:                 z = x_plus - x_minus
    col_var: list[int] = []
    col_sign: list[float] = []
    offset = np.zeros(d)
    extra: list[tuple[int, float]] = []
    for j in range(d):
        lof, hif = np.isfinite(lo[j]), np.isfinite(hi[j])
        if lof:
            offset[j] = lo[j]
            col_var.append(j)
            col_sign.append(1.0)
            if hif:
                extra.append((len(col_var) - 1, hi[j] - lo[j]))
        elif hif:
            offset[j] = hi[j]
            col_var.append(j)
            col_sign.append(-1.0)
        else:
            col_var.append(j)
            col_sign.append(1.0)
            col_var.append(j)
            col_sign.append(-1.0)
    cvar = np.asarray(col_var, dtype=int)
    csign = np.asarray(col_sign)
    nx = cvar.size

    at = a[:, cvar] * csign
    bt = b - a @ offset
    ct = c[cvar] * csign
    if extra:
        er = np.zeros((len(extra), nx))
        erb = np.empty(len(extra))
        for i, (colidx, ub) in enumerate(extra):
            er[i, colidx] = 1.0
            erb[i] = ub
        at = np.vstack([at, er])
        bt = np.concatenate([bt, erb])

    nrows = at.shape[0]
    neg = bt < 0
    arows = np.where(neg)[0]
    nart = arows.size
    ncols = nx + nrows + nart

    tab = np.zeros((nrows, ncols + 1))
    tab[:, :nx] = at
    tab[np.arange(nrows), nx + np.arange(nrows)] = 1.0
    tab[:, -1] = bt
    if nart:
        tab[neg] *= -1.0  # slack entry flips to -1; artificial takes the basis slot
        tab[arows, nx + nrows + np.arange(nart)] = 1.0
    basis = nx + np.arange(nrows)
    basis[arows] = nx + nrows + np.arange(nart)

    art_start = nx + nrows
    scale = 1.0 + float(np.max(np.abs(bt))) if nrows else 1.0

    if nart:
        cost1 = np.zeros(ncols)
        cost1[art_start:] = -1.0
        allowed1 = np.ones(ncols, dtype=bool)
        allowed1[art_start:] = False
        if _run_phase(tab, basis, cost1, allowed1):
            raise RuntimeError("phase-1 objective cannot be unbounded")
        art_sum = float(tab[basis >= art_start, -1].sum()) if np.any(basis >= art_start) else 0.0
        if art_sum > 1e-9 * scale:
            return LpSolution(INFEASIBLE, None, None)
        # drive leftover artificials out of the basis; rows that cannot be
        # pivoted are redundant and get dropped.  An artificial may still hold
        # up to the phase-1 tolerance, which the pivot divides by its entry,
        # so the largest entry is taken.
        drop = []
        for i in np.where(basis >= art_start)[0]:
            pcs = np.where(np.abs(tab[i, :art_start]) > PIVOT_TOL)[0]
            if pcs.size:
                _pivot(tab, basis, int(i), int(pcs[np.argmax(np.abs(tab[i, pcs]))]))
            else:
                drop.append(int(i))
        if drop:
            tab = np.delete(tab, drop, axis=0)
            basis = np.delete(basis, drop)
        tab = np.hstack([tab[:, :art_start], tab[:, -1:]])

    cost2 = np.zeros(art_start)
    cost2[:nx] = ct
    allowed2 = np.ones(art_start, dtype=bool)
    if _run_phase(tab, basis, cost2, allowed2):
        return LpSolution(UNBOUNDED, None, None)

    x = np.zeros(art_start)
    x[basis] = tab[:, -1]
    z = offset.copy()
    np.add.at(z, cvar, csign * x[:nx])

    tol = FEAS_TOL * (1.0 + max(scale, float(np.max(np.abs(z))) if d else 1.0))
    if a.shape[0] and float(np.max(a @ z - b)) > tol:
        raise RuntimeError("simplex postcondition violated: row constraint")
    if np.any(z < lo - tol) or np.any(z > hi + tol):
        raise RuntimeError("simplex postcondition violated: variable bound")
    return LpSolution(OPTIMAL, z, float(c @ z))


# ---------------------------------------------------------------------------
# exhaustive oracle


def _vertices(g_mat: np.ndarray, g_rhs: np.ndarray, ftol: np.ndarray) -> np.ndarray:
    """All feasible basic points: solutions of d-subsets of tight constraints."""
    m, d = g_mat.shape
    combos = np.asarray(list(itertools.combinations(range(m), d)), dtype=int)
    mats = g_mat[combos]
    rhs = g_rhs[combos]
    with np.errstate(divide="ignore", invalid="ignore"):  # singular subsets, masked below
        dets = np.linalg.det(mats)
    ok = np.abs(dets) > 1e-12
    if not ok.any():
        return np.zeros((0, d))
    pts = np.linalg.solve(mats[ok], rhs[ok][..., None])[..., 0]
    feas = np.all(pts @ g_mat.T <= g_rhs + ftol, axis=1)
    return pts[feas]


def _has_improving_ray(g_mat: np.ndarray, c: np.ndarray) -> bool:
    """Does the recession cone {w : G w <= 0} contain a direction with c.w > 0?

    The cone is pointed here (G has full column rank), so it is spanned by
    extreme rays, each a null direction of d-1 independent tight rows.
    """
    m, d = g_mat.shape
    ctol = 1e-9 * (1.0 + float(np.linalg.norm(c)))
    if d == 1:
        for w in (np.array([1.0]), np.array([-1.0])):
            if np.all(g_mat @ w <= 1e-9) and float(c @ w) > ctol:
                return True
        return False
    combos = np.asarray(list(itertools.combinations(range(m), d - 1)), dtype=int)
    subs = g_mat[combos]  # (K, d-1, d)
    _, s, vt = np.linalg.svd(subs)
    full_rank = s[:, -1] > 1e-10
    dirs = vt[:, -1, :][full_rank]  # unit null directions of full-rank subsets
    if dirs.size == 0:
        return False
    for sign in (1.0, -1.0):
        w = sign * dirs
        in_cone = np.all(w @ g_mat.T <= 1e-9, axis=1)
        if np.any(in_cone & (w @ c > ctol)):
            return True
    return False


def _pointed_solve(
    g_mat: np.ndarray, g_rhs: np.ndarray, c: np.ndarray, ftol: np.ndarray
) -> tuple[str, np.ndarray | None, float | None]:
    verts = _vertices(g_mat, g_rhs, ftol)
    if verts.shape[0] == 0:
        return INFEASIBLE, None, None
    if np.linalg.norm(c) > 0 and _has_improving_ray(g_mat, c):
        return UNBOUNDED, None, None
    vals = verts @ c
    best = int(np.argmax(vals))
    return OPTIMAL, verts[best], float(vals[best])


def lp_brute_force(problem: LpProblem) -> LpSolution:
    """Exhaustive vertex-enumeration oracle for tiny LPs.

    Bounds are folded into the constraint list; the lineality space (null
    space of the full constraint matrix) is projected out first so the
    remaining polyhedron is pointed, making vertex enumeration a complete
    feasibility and optimality check.  Unboundedness is detected through
    recession directions among constraint-null directions.  Raises
    CapacityError beyond ORACLE_MAX_DIM variables or ORACLE_MAX_CONSTRAINTS
    total rows.
    """
    c = problem.objective
    d = problem.d
    parts = [problem.rows]
    rhs_parts = [problem.rhs]
    for j in range(d):
        if np.isfinite(problem.hi[j]):
            e = np.zeros(d)
            e[j] = 1.0
            parts.append(e[None, :])
            rhs_parts.append(np.array([problem.hi[j]]))
        if np.isfinite(problem.lo[j]):
            e = np.zeros(d)
            e[j] = -1.0
            parts.append(e[None, :])
            rhs_parts.append(np.array([-problem.lo[j]]))
    g_mat = np.vstack(parts)
    g_rhs = np.concatenate(rhs_parts)
    if d > ORACLE_MAX_DIM:
        raise CapacityError(f"{d} variables exceeds oracle limit {ORACLE_MAX_DIM}")
    if g_mat.shape[0] > ORACLE_MAX_CONSTRAINTS:
        raise CapacityError(
            f"{g_mat.shape[0]} constraints exceeds oracle limit {ORACLE_MAX_CONSTRAINTS}"
        )

    # zero rows encode 0 <= rhs: either trivially true or infeasible
    norms = np.linalg.norm(g_mat, axis=1)
    zero = norms < 1e-300
    if np.any(g_rhs[zero] < -ORACLE_FEAS_TOL):
        return LpSolution(INFEASIBLE, None, None)
    g_mat, g_rhs, norms = g_mat[~zero], g_rhs[~zero], norms[~zero]
    m = g_mat.shape[0]
    cnorm = float(np.linalg.norm(c))

    if m == 0:
        if cnorm > 0:
            return LpSolution(UNBOUNDED, None, None)
        return LpSolution(OPTIMAL, np.zeros(d), 0.0)

    # normalize rows: scale-free tolerances, better-conditioned subsystems
    g_mat = g_mat / norms[:, None]
    g_rhs = g_rhs / norms
    ftol = ORACLE_FEAS_TOL * np.maximum(1.0, np.abs(g_rhs))

    _, s, vt = np.linalg.svd(g_mat)
    rank = int(np.sum(s > s[0] * 1e-10))  # every row is a unit vector, so rank >= 1

    if rank == d:
        status, z, val = _pointed_solve(g_mat, g_rhs, c, ftol)
        return LpSolution(status, z, val)

    # proper lineality space: project it out
    null_basis = vt[rank:].T  # (d, d-rank)
    row_basis = vt[:rank].T  # (d, rank)
    c_null = null_basis.T @ c
    if np.linalg.norm(c_null) > 1e-9 * (1.0 + cnorm):
        # objective moves along a feasible line: unbounded iff feasible at all
        status, _, _ = _pointed_solve(g_mat @ row_basis, g_rhs, np.zeros(rank), ftol)
        return LpSolution(UNBOUNDED if status == OPTIMAL else INFEASIBLE, None, None)

    status, y, _ = _pointed_solve(g_mat @ row_basis, g_rhs, row_basis.T @ c, ftol)
    if status != OPTIMAL:
        return LpSolution(status, None, None)
    z = row_basis @ y
    return LpSolution(OPTIMAL, z, float(c @ z))


# ---------------------------------------------------------------------------
# random instances


def random_lp(rng: np.random.Generator) -> LpProblem:
    """Random small LP with a mix of box patterns (incl. fixed and free vars)."""
    d = int(rng.integers(1, 6))
    r = int(rng.integers(0, 9))
    rows = rng.normal(size=(r, d)) * float(rng.choice([0.5, 1.0, 3.0]))
    rhs = 2.0 * rng.normal(size=r)
    lo = np.full(d, -np.inf)
    hi = np.full(d, np.inf)
    for j in range(d):
        kind = int(rng.integers(0, 5))
        vals = np.sort(rng.normal(scale=3.0, size=2))
        if kind == 0:
            lo[j], hi[j] = vals
        elif kind == 1:
            lo[j] = vals[0]
        elif kind == 2:
            hi[j] = vals[1]
        elif kind == 3:
            lo[j] = hi[j] = vals[0]
        # kind == 4: free variable
    return LpProblem(objective=rng.normal(size=d), rows=rows, rhs=rhs, lo=lo, hi=hi)
