"""Shared test helpers: family roster, RK4 comparison recipe, float strategy, kernel reference.

Also R, the 40-digit mpmath reference perfbench/reference.py, loaded once
by path for every suite under tests/.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from glkinks.analysis import switching_midpoint
from glkinks.errors import NoCrossing
from glkinks.kinks import KinkSolution, catalogue
from glkinks.model import ModelParams
from glkinks.verify import compare, integrate_second_order


def _load_reference():
    spec = importlib.util.spec_from_file_location(
        "reference", Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


R = _load_reference()


def log_uniform(lo, hi):
    """Floats of either sign whose magnitude is 10**t, t uniform in [lo, hi]."""
    return st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(lo, hi)).map(
        lambda t: t[0] * 10.0 ** t[1]
    )


def one_pass_kernel(p, xi, order):
    """The profile kernel as one pass over the whole array: (value, *derivatives, den).

    The reference that MobiusExpProfile.kernel's blocks and den_at must
    match bit for bit; den = b + K*a is the denominator 1 + K*u in the
    kernel's overflow-free scaling, which the kernel itself does not return.
    """
    x = np.asarray(xi, dtype=float)
    z = (x.reshape(-1) - p.xi0) * p.rate
    grow = z > 0.0
    with np.errstate(divide="ignore", invalid="ignore", under="ignore", over="ignore"):
        e = np.exp(np.copysign(z, -1.0))
        a = np.maximum(e, grow)
        b = np.maximum(e, ~grow)
        q = p.K * a
        den = b + q
        s, t = b / den, q / den
        value = p.L + p.A * s
        derivatives = [
            t * s * (-p.A * p.rate),
            t * s * (s - t) * (-p.A * p.rate * p.rate),
        ][:order]
    return [arr.reshape(x.shape) for arr in (value, *derivatives, den)]


@pytest.fixture(scope="session")
def family_suite():
    """Every closed-form profile the package constructs, labeled (unit coefficients)."""
    return catalogue()


def rk4_window(sol: KinkSolution) -> tuple[float, float]:
    """A 20-width window on which RK4 can track the profile.

    Poled profiles get the window on the side of the pole whose asymptote
    is the zero equilibrium; that end is attracting in the damping
    direction, while the other end sits on a saddle whose unstable manifold
    amplifies initial-data roundoff by ~e^20 over the window.  Smooth
    profiles are centered on the switching midpoint (a near-forbidden
    lambda can push the transition many widths from xi0).
    """
    w = 1.0 / sol.width_inverse
    if sol.singularities:
        pole = sol.singularities[0]
        if abs(sol.left_limit) < abs(sol.right_limit):
            return (pole - 22.0 * w, pole - 2.0 * w)
        return (pole + 2.0 * w, pole + 22.0 * w)
    try:
        center = switching_midpoint(sol)
    except NoCrossing:
        center = sol.xi0
    return (center - 10.0 * w, center + 10.0 * w)


def rk4_sup(sol: KinkSolution, step: float, rho_offset: float = 0.0) -> float:
    """Sup distance between a profile and RK4 started from its own data.

    Integration runs in the direction that makes the friction term
    dissipative: forward for forced_rho > 0, backward otherwise.
    """
    lo, hi = rk4_window(sol)
    start, end = (lo, hi) if sol.forced_rho > 0.0 else (hi, lo)
    params = ModelParams(
        sol.params.a1,
        sol.params.b1,
        sol.forced_rho + rho_offset,
        gamma1=1.0,
        eta=sol.eta_gamma,
    )
    traj = integrate_second_order(
        params,
        float(sol.profile.value(start)),
        float(sol.profile.first_derivative(start)),
        (start, end),
        step,
    )
    return compare(traj, sol)
