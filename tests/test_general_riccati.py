"""general_riccati against the lambda constructors and the 40-digit reference.

The reference is perfbench/reference.py, loaded by path: the solution of
y' = c1*y^2 + c2*y through y(xi0) = y0 is its Profile with
d0 = -c1*y0/(c1*y0 + c2), n = -c2*d0/c1 and no lambda.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from glkinks.errors import SingularPoint
from glkinks.factorization import compatible_riccati, factor_driven, factor_undriven
from glkinks.kinks import catalogue, general_riccati
from glkinks.verify import verification_grid

_SPEC = importlib.util.spec_from_file_location(
    "reference", Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
)
R = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(R)

# Acceptance bounds: the relative error at >= 1 width from the pole, and
# the relative error times the distance to the pole in widths at 1e-6 to
# 1 width.  On 9,000 random draws of the property's distribution the worst
# seen were 6.7e-14 and 5.0e-14.
FAR_REL = 1e-12
NEAR_SCALED = 1e-13


def _reference(c1, c2, y0, xi0):
    """The 40-digit solution through y(xi0) = y0 (y0 != 0, c1*y0 + c2 != 0)."""
    c1, c2 = mp.mpf(c1), mp.mpf(c2)
    d0 = -c1 * y0 / (c1 * y0 + c2)
    return R.Profile("general-riccati", 1, 1, 0, 0, c1, c2, -c2 * d0 / c1, d0, 0, xi0)


def _raises(args, x) -> bool:
    try:
        general_riccati(*args, x)
    except SingularPoint:
        return True
    return False


def _rel_error(args, ref, x) -> float:
    want = ref.phi(mp.mpf(x))
    return float(abs((mp.mpf(general_riccati(*args, x)) - want) / want))


def _log_uniform(lo, hi):
    return st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(lo, hi)).map(
        lambda t: t[0] * 10.0 ** t[1]
    )


# ------------------------------------------------------------- input checks


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("index", range(5), ids=["c1", "c2", "y1", "lam", "xi0"])
def test_rejects_non_finite_input(index, bad):
    args = [-1.0, 1.0, 0.5, 2.0, 0.0]
    args[index] = bad
    with pytest.raises(ValueError):
        general_riccati(*args, np.array([0.0, 1.0]))


@pytest.mark.parametrize("c2", [1.0, 0.0])
def test_zero_lambda_has_its_pole_at_center(c2):
    # y(xi0) = y1 + 1/0: the solution with its pole at xi0, finite elsewhere
    with pytest.raises(SingularPoint) as err:
        general_riccati(-1.0, c2, 0.5, 0.0, 0.3, np.array([-1.0, 0.3, 1.0]))
    assert err.value.xi == 0.3
    vals = general_riccati(-1.0, c2, 0.5, 0.0, 0.3, np.array([-1.0, 1.0]))
    assert np.all(np.isfinite(vals))


# -------------------------------------------------- fixed points and poles


def test_fixed_point_solution_is_the_constant():
    # y(xi0) = 0 + 1/(-1) = -c2/c1: the constant solution, no pole anywhere
    c = 1.0 / math.sqrt(2.0)
    assert general_riccati(c, c, 0.0, -1.0, 0.0, -56.57) == -1.0
    xi = np.linspace(-1e3, 1e3, 11)
    assert np.all(general_riccati(0.5, -1.0, 0.0, 0.5, 0.0, xi) == 2.0)


def test_zero_solution_is_zero():
    # y(xi0) = 0.5 + 1/(-2) = 0 is the trivial solution
    xi = np.linspace(-50.0, 50.0, 11)
    assert np.all(general_riccati(1.5, -0.7, 0.5, -2.0, 0.0, xi) == 0.0)


def test_raises_at_rounded_pole():
    args = (
        64.54603261280148,
        -0.11943123129824691,
        -138.5781506305966,
        -1.2944035672348795,
        -0.7390932031184985,
    )
    c1, c2, y1, lam, xi0 = args
    (pole,) = _reference(c1, c2, mp.mpf(y1) + 1 / mp.mpf(lam), xi0).poles()
    assert float(pole) == -0.7392043809980031
    with pytest.raises(SingularPoint):
        general_riccati(*args, float(pole))


# ------------------------------------------ cross-check with the catalogue

_OTHER_VARIANT = {"first": "second", "second": "first"}


def _lambda_members():
    for a1, b1 in ((1.0, 1.0), (2.0, 0.5), (1e-3, 1e3), (1e3, 1e-3)):
        for label, sol in catalogue(a1, b1):
            if sol.lam is not None:
                yield pytest.param(a1, b1, sol, id=f"{label} a1={a1:g} b1={b1:g}")


@pytest.mark.parametrize("a1, b1, sol", _lambda_members())
def test_reproduces_lambda_members(a1, b1, sol):
    """Each lambda kink solves its factorization's Riccati equation.

    A zero-field member of one variant is the general solution of the
    other variant's equation (the one whose particular kink it approaches
    as lambda -> inf); a driven member solves its equation in the shifted
    variable psi + epsilon.
    """
    family, sign = sol.family[:-1], 1 if sol.family.endswith("+") else -1
    if family.startswith("lambda-zero-field-"):
        variant = _OTHER_VARIANT[family.removeprefix("lambda-zero-field-")]
        pair, shift = factor_undriven(a1, b1, variant, sign), 0.0
    else:
        pair = factor_driven(sol.setup, family.removeprefix("lambda-"), sign)
        shift = sol.setup.epsilon
    rc = compatible_riccati(pair)
    grid = verification_grid(sol)
    want = sol.profile.value(grid) + shift
    y0 = float(sol.profile.value(sol.xi0)) + shift
    got = general_riccati(rc.c1, rc.c2, 0.0, 1.0 / y0, sol.xi0, grid)
    scale = float(np.max(np.abs(want))) + abs(shift)
    assert float(np.max(np.abs(got - want))) <= 1e-13 * scale


# ------------------------------------------------- 40-digit reference oracle


def _amplification(c1, c2, y1, lam=None) -> float:
    """How far float64 inputs alone can move the solution through y1 + 1/lam.

    Any float64 evaluation inherits two cancellations from its inputs:
    y0 = y1 + 1/lam, and y0's distance c1*y0 + c2 from the fixed point
    -c2/c1, which sets where the pole is.  Their condition numbers
    multiply.
    """
    y0 = mp.mpf(y1) if lam is None else mp.mpf(y1) + 1 / mp.mpf(lam)
    amp = 1.0 if lam is None else float((abs(y1) + abs(1 / mp.mpf(lam))) / abs(y0))
    return amp * max(1.0, float(abs(c1 * y0) / abs(c1 * y0 + c2)))


@settings(deadline=None, max_examples=300)
@given(
    c1=_log_uniform(-2.0, 2.0),
    c2=_log_uniform(-2.0, 2.0),
    y1=_log_uniform(-3.0, 3.0),
    lam=_log_uniform(-3.0, 3.0),
    xi0=st.floats(-5.0, 5.0),
    far=st.floats(-8.0, 8.0),
    near=_log_uniform(-6.0, 0.0),
)
# y0 = -2.7e-7: unless the profile's coefficients are rescaled, the
# singular mask flags this point 3.2e-6 widths from the pole
@example(
    c1=-1.0, c2=1.0, y1=1.0, lam=-0.9999997255105045, xi0=0.0, far=0.0, near=-3.162277660168379e-06
)
# y0 is 1e-4 from the fixed point: 4.3e-13 at one width is within amp = 1e4
@example(c1=-0.01, c2=-1.0, y1=-0.01, lam=-0.01, xi0=0.0, far=0.0, near=-1.0)
def test_matches_reference(c1, c2, y1, lam, xi0, far, near):
    """Values within the acceptance bounds, SingularPoint at exactly the poles.

    A pole must raise at its float64-rounded position when the inputs fix
    that position to better than about 1e-13 widths (amplification up to
    1e3), and no point at 1e-6 widths or more from every pole may raise.
    """
    args = (c1, c2, y1, lam, xi0)
    y0 = mp.mpf(y1) + 1 / mp.mpf(lam)
    assume(y0 != 0 and c1 * y0 + c2 != 0)
    ref = _reference(c1, c2, y0, xi0)
    amp = _amplification(c1, c2, y1, lam)
    width = 1.0 / abs(c2)
    poles = [float(p) for p in ref.poles()]
    particular, amp_particular = [], 1.0
    if c1 * y1 + c2 != 0.0:
        particular = [float(p) for p in _reference(c1, c2, mp.mpf(y1), xi0).poles()]
        amp_particular = _amplification(c1, c2, y1)
    for p in particular:
        assert amp_particular > 1e3 or _raises(args, p)

    def off_poles(x, pole_list, amp_poles):
        return all(abs(x - p) >= max(1e-6, 1e-13 * amp_poles) * width for p in pole_list)

    x = xi0 + far * width
    dist = min((abs(x - p) / width for p in poles), default=math.inf)
    if dist >= 1.0 and off_poles(x, particular, amp_particular):
        assert _rel_error(args, ref, x) <= FAR_REL * amp
    for p in poles:
        assert amp > 1e3 or _raises(args, p)
        x = p + near * width
        if off_poles(x, poles, amp) and off_poles(x, particular, amp_particular):
            dist = abs(x - p) / width
            assert _rel_error(args, ref, x) * min(dist, 1.0) <= NEAR_SCALED * amp


@settings(deadline=None, max_examples=100)
@given(
    c1=_log_uniform(-2.0, 2.0),
    y1=_log_uniform(-3.0, 3.0),
    lam=_log_uniform(-3.0, 3.0),
    xi0=st.floats(-5.0, 5.0),
    z=st.floats(-10.0, 10.0),
)
def test_pure_quadratic_matches_reference(c1, y1, lam, xi0, z):
    # c2 == 0: y = y0/(1 - c1*y0*(xi - xi0)); its condition number is that
    # of y0 = y1 + 1/lam times the size of the denominator's terms over it
    x = xi0 + z
    y0 = mp.mpf(y1) + 1 / mp.mpf(lam)
    den = 1 - c1 * y0 * (mp.mpf(x) - xi0)
    particular = 1 - c1 * mp.mpf(y1) * (mp.mpf(x) - xi0)
    assume(y0 != 0 and abs(den) > 1e-6 and abs(particular) > 1e-6)
    want = y0 / den
    got = mp.mpf(general_riccati(c1, 0.0, y1, lam, xi0, x))
    cond = (abs(y1) + abs(1 / mp.mpf(lam))) / abs(y0)
    cond *= (1 + abs(c1 * y0 * (mp.mpf(x) - xi0))) / abs(den)
    assert float(abs((got - want) / want)) <= 1e-14 * float(cond)
