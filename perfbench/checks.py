"""Correctness checks on sdexit's outputs, run outside the timed section.

Each check returns a list of problems, empty when the output passes.  The
checks compare against ``reference`` (computed apart from the package) or
against properties the method must have; none compares against a stored
copy of an earlier output.  ``selftest.py`` feeds each one corrupted input.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from reference import TARGET, TIMEOUT, UNSAFE, Scenario, exit_bound, wilson_interval

# Relative tolerance of recomputed closed forms (bounds, Wilson interval,
# barrier values): a few ulps of double rounding, with ample margin.
FORMULA_RTOL = 1e-9
# Certificate constraints are linear in (a, b) with O(1..10) coefficients;
# the kernel's vertices are exact up to a few ulps of these terms.
CERT_RTOL = 1e-9
# Two LP routes agree on the objective to roundoff; with w >= 1e6 the second
# stage caps b at b* + 1e-9, so b may differ by that cap and a by cap / v.
LP_RTOL = 1e-8
STAGE2_B_TOL = 1e-9
# Re-simulation: a path whose barrier value (or control switching function)
# comes this close to a threshold may be decided by roundoff.
NEAR_TOL = 1e-9


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * (1.0 + abs(want))


def check_tallies(summary: dict, n_paths: int, z: float) -> list[str]:
    """Outcome counts add up; the estimate and its Wilson interval are consistent."""
    problems = []
    counts = (summary["n_target"], summary["n_unsafe"], summary["n_timeout"])
    if summary["n_paths"] != n_paths or sum(counts) != n_paths:
        problems.append(f"tallies {counts} do not add up to n_paths={n_paths}")
    est, lo, hi = summary["estimate"], summary["ci_lo"], summary["ci_hi"]
    if not lo <= est <= hi:
        problems.append(f"estimate {est} outside [{lo}, {hi}]")
    if est != summary["n_target"] / n_paths:
        problems.append(f"estimate {est} != n_target / n_paths")
    want_lo, want_hi = wilson_interval(summary["n_target"], n_paths, z)
    if not (_close(lo, max(0.0, want_lo), FORMULA_RTOL) and _close(hi, min(1.0, want_hi), FORMULA_RTOL)):
        problems.append(f"interval [{lo}, {hi}] != Wilson [{want_lo}, {want_hi}]")
    return problems


def check_t0_bound(summary: dict, scen: Scenario, x0, horizon: float) -> list[str]:
    """The reported t=0 bounds equal the closed form at (v(x0), a0, b0) and stay below ci_hi."""
    cert = summary["cert_t0"]
    if cert["status"] != "feasible":
        return [f"t=0 certificate is {cert['status']}, no bound to check"]
    problems = []
    v0 = float(scen.value(np.asarray(x0, dtype=float)))
    a0, b0 = cert["a"], cert["b"]
    wanted = {"bound_infinite_t0": exit_bound(scen.variant_i, v0, a0, b0, math.inf)}
    if not math.isinf(horizon):
        wanted["bound_finite_t0"] = exit_bound(scen.variant_i, v0, a0, b0, horizon)
    for key, want in wanted.items():
        got = summary[key]
        if got is None or not _close(got, want, FORMULA_RTOL):
            problems.append(f"{key} {got} != closed form {want}")
    key = "bound_infinite_t0" if math.isinf(horizon) else "bound_finite_t0"
    if summary[key] is not None and summary[key] > summary["ci_hi"]:
        problems.append(f"lower bound {summary[key]} exceeds ci_hi {summary['ci_hi']}")
    return problems


def compare_certificates(fast: dict, dense: dict, w: float, lexicographic: bool, v) -> list[str]:
    """Fast-kernel against dense-simplex results over a set of states.

    Each argument holds arrays 'a', 'b', 'feasible'; v is the barrier value
    at each state.  Single-stage (w < 1e6): the objectives a - w b agree.
    Lexicographic: b agrees, then a.
    """
    problems = []
    f_feas = np.asarray(fast["feasible"], dtype=bool)
    d_feas = np.asarray(dense["feasible"], dtype=bool)
    differ = np.flatnonzero(f_feas != d_feas)
    if differ.size:
        problems.append(f"{differ.size} states fall back on one route only (first index {differ[0]})")
    both = f_feas & d_feas
    fa, fb = np.asarray(fast["a"])[both], np.asarray(fast["b"])[both]
    da, db = np.asarray(dense["a"])[both], np.asarray(dense["b"])[both]
    if lexicographic:
        vv = np.abs(np.asarray(v, dtype=float)[both])
        # a moves with the b cap only through the generator row, by cap / v
        cap_shift = np.divide(2 * STAGE2_B_TOL, vv, out=np.zeros_like(vv), where=vv > 0)
        bad_b = np.abs(fb - db) > 2 * STAGE2_B_TOL + LP_RTOL * (1.0 + np.abs(db))
        bad_a = np.abs(fa - da) > (cap_shift + LP_RTOL) * (1.0 + np.abs(da))
        bad = bad_b | bad_a
    else:
        f_obj, d_obj = fa - w * fb, da - w * db
        bad = np.abs(f_obj - d_obj) > LP_RTOL * (1.0 + np.abs(da) + w * np.abs(db))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        problems.append(
            f"{int(bad.sum())} states disagree with the dense simplex "
            f"(first: fast a={fa[i]!r} b={fb[i]!r}, dense a={da[i]!r} b={db[i]!r})"
        )
    return problems


def check_certificates(
    scen: Scenario, states, u, a, b, feasible, eps: float, delta: float
) -> list[str]:
    """Every feasible (u, a, b) satisfies the certificate LP's constraints.

    L v(x, u) >= a v - b, a - b >= eps, and the variant's box on (a, b), with
    the generator recomputed from the model fields and barrier derivatives.
    """
    feas = np.asarray(feasible, dtype=bool)
    x = np.asarray(states, dtype=float)[feas]
    u, a, b = (np.asarray(arr, dtype=float)[feas] for arr in (u, a, b))
    problems = []
    if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(u).all()):
        return ["non-finite certificate on a feasible state"]
    if ((u < scen.u_lo) | (u > scen.u_hi)).any():
        problems.append("control outside its box")
    v = scen.value(x)
    gen = scen.generator(x, u)
    scale = 1.0 + np.abs(gen) + np.abs(a * v) + np.abs(b)
    slack = gen - (a * v - b)
    if (slack < -CERT_RTOL * scale).any():
        i = int(np.argmin(slack / scale))
        problems.append(f"generator row violated by {-slack[i]!r} at state {x[i].tolist()}")
    if (a - b < eps - CERT_RTOL * (1.0 + np.abs(a) + np.abs(b))).any():
        problems.append("margin a - b >= eps violated")
    tol = CERT_RTOL * (1.0 + delta)
    if scen.variant_i:
        box_ok = (a <= delta + tol) & (b >= -tol)
    else:
        box_ok = (np.abs(a) <= delta + tol) & (np.abs(b) <= delta + tol)
    if not box_ok.all():
        problems.append(f"{int((~box_ok).sum())} certificates outside the variant's box")
    return problems


def read_trajectory(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_trajectory(header, rows, scen: Scenario, steps: int, exit_time) -> list[str]:
    """Grid length, bounds in [0, 1], and a state frozen exactly after the first exit."""
    problems = []
    if len(rows) != steps + 1:
        problems.append(f"{len(rows)} rows, expected grid steps + 1 = {steps + 1}")
    col = {name: i for i, name in enumerate(header)}
    for name in ("bound_finite", "bound_infinite"):
        vals = [float(r[col[name]]) for r in rows if r[col[name]]]
        if any(not 0.0 <= x <= 1.0 for x in vals):
            problems.append(f"{name} outside [0, 1]")
    xs = np.array([[float(r[col["x1"]]), float(r[col["x2"]])] for r in rows])
    v = scen.value(xs)
    barrier = np.array([float(r[col["barrier"]]) for r in rows])
    if (np.abs(barrier - v) > FORMULA_RTOL * (1.0 + np.abs(v))).any():
        problems.append("barrier column differs from v(x)")
    hit = (v >= 1.0) | ((v <= 0.0) if scen.variant_i else False)
    hit[0] = False
    exits = np.flatnonzero(hit)
    if exits.size == 0:
        if exit_time is not None:
            problems.append(f"run reports exit at {exit_time} but no row leaves the domain")
        return problems
    first = int(exits[0])
    if exit_time is None or float(rows[first][col["t"]]) != exit_time:
        problems.append(f"first exit row t={rows[first][col['t']]} but run reports {exit_time}")
    frozen = [i for i in range(len(header)) if header[i] not in ("t", "bound_finite", "bound_infinite")]
    ref = [rows[first][i] for i in frozen]
    for k in range(first + 1, len(rows)):
        if [rows[k][i] for i in frozen] != ref:
            problems.append(f"row {k} after the exit row {first} is not frozen")
            break
    return problems


def check_resimulation(program: list, reference: list) -> tuple[list[str], int]:
    """Per-path (outcome, exit step) from run_paths against the reference loop.

    reference entries are (outcome, exit_step, near); a mismatch is allowed
    only on a near-threshold path.  Returns (problems, near-threshold paths).
    """
    problems = []
    near = 0
    for i, (got, (outcome, step, is_near)) in enumerate(zip(program, reference)):
        near += is_near
        if got != (outcome, step) and not is_near:
            problems.append(f"path {i}: run_paths gives {got}, reference gives {(outcome, step)}")
    return problems, near


def program_outcomes(batch, dt: float) -> list[tuple[str, int | None]]:
    """(outcome, exit step) per path from a BatchOutcomes, in reference terms."""
    names = {"ExitedTarget": TARGET, "ExitedUnsafe": UNSAFE, "Timeout": TIMEOUT}
    out = []
    for code, t in zip(batch.kind, batch.exit_time):
        name = names[batch.kind_name(int(code))]
        out.append((name, None if name == TIMEOUT else round(float(t) / dt)))
    return out
