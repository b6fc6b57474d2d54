"""Numerical verification of closed-form profiles.

Two independent checks are provided.  residual() substitutes a profile into
the traveling-wave equation

    psi'' + rho*psi' - b1*psi^3 + a1*psi + drive = 0

using either the exact Moebius derivatives, taken with the value from one
kernel pass of the profile, or centered finite differences; points within
SINGULAR_TOL kink widths of the pole are skipped.
integrate_second_order() solves the same equation as an initial value
problem with classical fixed-step RK4 so a profile can be compared against
an integration that never saw the closed form; integrate_riccati() does the
same for the first-order equation y' = c1*y^2 + c2*y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainMismatch, EmptyGrid, NonFinite
from .kinks import _BLOCK, KinkSolution
from .model import ModelParams

_FD_STEP = 1e-4
_BLOWUP = 1e12


@dataclass(frozen=True)
class ResidualReport:
    """Largest equation defect over a grid.

    grid records (lo, hi, n) of the points actually offered; skipped counts
    the ones dropped for sitting within tolerance of a pole.
    """

    max_abs_residual: float
    argmax_xi: float
    grid: tuple[float, float, int]
    derivative_mode: str
    skipped: int = 0


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step integration output; step is signed by direction."""

    xi_values: np.ndarray
    psi_values: np.ndarray
    dpsi_values: np.ndarray
    step: float


def verification_grid(
    solution: KinkSolution, n: int = 4001, margin_widths: float = 2.0
) -> np.ndarray:
    """Grid of n points spanning +-40 kink widths around the kink's centre.

    The centre is MobiusExpProfile.centre(): the switching midpoint, or the
    pole of a poled kink.  Points closer than margin_widths widths to any
    pole are removed, so the grid is safe for both derivative modes.
    """
    w = 1.0 / solution.width_inverse
    xi = solution.profile.centre() + np.linspace(-40.0 * w, 40.0 * w, int(n))
    keep = np.ones(xi.size, dtype=bool)
    for pole in solution.singularities:
        keep &= np.abs(xi - pole) > margin_widths * w
    return xi[keep]


def _as_grid(solution: KinkSolution, grid) -> np.ndarray:
    if grid is None:
        return verification_grid(solution)
    if isinstance(grid, (tuple, list)) and len(grid) == 3:
        lo, hi, n = grid
        return np.linspace(float(lo), float(hi), int(n))
    return np.asarray(grid, dtype=float).ravel()


def residual(
    solution: KinkSolution,
    rho: float | None = None,
    eta_gamma: float | None = None,
    grid=None,
    mode: str = "analytic",
) -> ResidualReport:
    """Maximum defect of the profile in the traveling-wave equation.

    rho and eta_gamma default to the values the solution was built for;
    passing others measures how badly the profile fails elsewhere.  grid
    is a (lo, hi, n) triple, an array of points, or None for the default
    pole-aware grid.  mode "analytic" uses exact derivatives, "fd" centered
    differences with step 1e-4 (noise floor near 5e-7).  Points the
    profile's is_singular flags are dropped first and counted in skipped;
    the rest are evaluated in blocks of kinks._BLOCK points, one kernel
    pass per block for the value and the exact derivatives.  A defect that
    overflows is inf or nan, without warnings, and fails any gate.
    """
    if mode not in ("analytic", "fd"):
        raise ValueError(f"mode must be 'analytic' or 'fd', got {mode!r}")
    rho_val = solution.forced_rho if rho is None else float(rho)
    drive = solution.eta_gamma if eta_gamma is None else float(eta_gamma)
    xi = _as_grid(solution, grid)
    if xi.size == 0:
        raise EmptyGrid("no grid points supplied")
    p = solution.profile
    sing = p.is_singular(xi)
    skipped = int(np.count_nonzero(sing))
    if skipped == xi.size:
        raise EmptyGrid("every grid point sits on a pole")
    xi_ok = xi[~sing] if skipped else xi
    a1 = solution.params.a1
    b1 = solution.params.b1
    h = _FD_STEP
    # a block at a time, so every temporary is one block long; a later
    # block wins only when larger, or nan, which keeps np.argmax's
    # first-max-wins and first-nan-wins rule
    best, arg = -1.0, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, xi_ok.size, _BLOCK):
            x = xi_ok[i : i + _BLOCK]
            if mode == "analytic":
                psi, d1, d2 = p.kernel(x, 2)
            else:
                psi = p.value(x)
                up = p.value(x + h)
                dn = p.value(x - h)
                d1 = (up - dn) / (2.0 * h)
                d2 = (up - 2.0 * psi + dn) / (h * h)
            # b1*psi*psi*psi left to right, as the RK4 step forms it: psi**3
            # alone underflows (or overflows) once |psi| is near 1e-103 (1e103)
            res = d2 + rho_val * d1 - b1 * psi * psi * psi + a1 * psi + drive
            k = int(np.argmax(np.abs(res)))
            if not abs(res[k]) <= best:
                best, arg = float(abs(res[k])), float(x[k])
                if np.isnan(best):
                    break
    return ResidualReport(
        max_abs_residual=best,
        argmax_xi=arg,
        grid=(float(xi.min()), float(xi.max()), int(xi.size)),
        derivative_mode=mode,
        skipped=skipped,
    )


def _rk4_span(xi_span, step):
    lo, hi = (float(xi_span[0]), float(xi_span[1]))
    if step <= 0.0:
        raise ValueError("step must be positive")
    if hi == lo:
        raise ValueError("empty integration span")
    n = max(1, int(round(abs(hi - lo) / step)))
    h = (hi - lo) / n
    return lo, hi, n, h


def integrate_second_order(
    params: ModelParams, psi0: float, dpsi0: float, xi_span, step: float
) -> Trajectory:
    """Classical RK4 for psi'' = -rho*psi' + b1*psi^3 - a1*psi - drive.

    xi_span may run in either direction; the stored step is signed
    accordingly.  Raises NonFinite (carrying the partial trajectory) if the
    state blows up, which happens quickly when integrating against the
    stable direction of a kink tail.  Blowing up means |psi| or |psi'|
    beyond _BLOWUP*max(M, sqrt(a1)*M), M = sqrt(a1/b1): the bound is in the
    equation's units, where a kink's levels are of order M and its slope of
    order sqrt(a1)*M.

    The step is written out as straight-line float arithmetic, without a
    call per stage; -rho and h/2 are exact, so every stage rounds as
    acc(y, v) = -rho*v + b1*y*y*y - a1*y - drive would.
    """
    lo, hi, n, h = _rk4_span(xi_span, step)
    a1, b1, drive = params.a1, params.b1, params.drive
    nrho = -params.rho
    hh = 0.5 * h
    m = math.sqrt(a1 / b1)
    big = _BLOWUP * max(m, math.sqrt(a1) * m)
    nbig = -big
    xs = lo + h * np.arange(n + 1)
    ys = np.empty(n + 1)
    vs = np.empty(n + 1)
    y, v = float(psi0), float(dpsi0)
    ys[0], vs[0] = y, v
    for i in range(1, n + 1):
        k1v = nrho * v + b1 * y * y * y - a1 * y - drive
        k2y = v + hh * k1v
        y2 = y + hh * v
        k2v = nrho * k2y + b1 * y2 * y2 * y2 - a1 * y2 - drive
        k3y = v + hh * k2v
        y3 = y + hh * k2y
        k3v = nrho * k3y + b1 * y3 * y3 * y3 - a1 * y3 - drive
        k4y = v + h * k3v
        y4 = y + h * k3y
        k4v = nrho * k4y + b1 * y4 * y4 * y4 - a1 * y4 - drive
        y += h * (v + 2.0 * k2y + 2.0 * k3y + k4y) / 6.0
        v += h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0
        # false for nan and +-inf as well as past the bound
        if not (nbig <= y <= big and nbig <= v <= big):
            _blew_up(xs, ys, vs, i, h)
        ys[i] = y
        vs[i] = v
    return Trajectory(xs, ys, vs, h)


def integrate_riccati(c1: float, c2: float, y0: float, xi_span, step: float) -> Trajectory:
    """Classical RK4 for y' = c1*y^2 + c2*y; dpsi_values holds the slopes.

    Straight-line like integrate_second_order; the slope stored at each
    node is the next step's first stage.
    """
    lo, hi, n, h = _rk4_span(xi_span, step)
    hh = 0.5 * h
    big, nbig = _BLOWUP, -_BLOWUP
    xs = lo + h * np.arange(n + 1)
    ys = np.empty(n + 1)
    ds = np.empty(n + 1)
    y = float(y0)
    k1 = c1 * y * y + c2 * y
    ys[0], ds[0] = y, k1
    for i in range(1, n + 1):
        y2 = y + hh * k1
        k2 = c1 * y2 * y2 + c2 * y2
        y3 = y + hh * k2
        k3 = c1 * y3 * y3 + c2 * y3
        y4 = y + h * k3
        k4 = c1 * y4 * y4 + c2 * y4
        y += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        if not nbig <= y <= big:
            _blew_up(xs, ys, ds, i, h)
        k1 = c1 * y * y + c2 * y
        ys[i] = y
        ds[i] = k1
    return Trajectory(xs, ys, ds, h)


def _blew_up(xs, ys, ds, i, h):
    """Raise NonFinite for node i, whose state left the blow-up bound."""
    partial = Trajectory(xs[:i], ys[:i].copy(), ds[:i].copy(), h)
    raise NonFinite(f"integration blew up at xi={xs[i]}", xi=float(xs[i]), trajectory=partial)


def compare(traj: Trajectory, solution: KinkSolution) -> float:
    """Sup-norm distance between a trajectory and a closed-form profile."""
    xi = traj.xi_values
    bad = solution.profile.is_singular(xi)
    if np.any(bad):
        offender = float(xi[np.argmax(bad)])
        raise DomainMismatch(
            f"trajectory crosses a pole of {solution.family} near xi={offender}"
        )
    return float(np.max(np.abs(traj.psi_values - solution.profile.value(xi))))
