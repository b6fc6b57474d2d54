"""Profile construction, evaluation, poles, and the closed-form Riccati solution."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import glkinks
from glkinks import kinks
from glkinks.errors import NonPositiveCoefficient, NonPositiveRate, SingularPoint
from glkinks.figures import FIGURES
from glkinks.kinks import (
    SINGULAR_TOL,
    UNDRIVEN_RHO_SIGNS,
    KinkSolution,
    MobiusExpProfile,
    catalogue,
    driven_solution,
    general_riccati,
    lambda_driven_solution,
    lambda_zero_field_solution,
    montroll_solution,
    undriven_solution,
)
from glkinks.model import (
    SQRT2,
    ModelParams,
    driven_setup,
    epsilon_admissible_interval,
    undriven_rho,
)
from glkinks.verify import integrate_riccati, residual

from conftest import log_uniform, one_pass_kernel

_ROOTS = (0.0, 1.0, -1.0)


# ---------------------------------------------------------------- profiles


def test_profile_rejects_zero_k():
    with pytest.raises(ValueError, match="constant"):
        MobiusExpProfile(0.0, 1.0, 0.0, 1.0, 0.0)


def test_profile_rejects_a_constant():
    with pytest.raises(ValueError, match="constant"):
        MobiusExpProfile(2.0, 0.0, 1.0, 1.0, 0.0)  # 2 + 0/(1 + u)


@settings(deadline=None, max_examples=300)
@given(
    levels=st.tuples(*[log_uniform(-6.0, 6.0) | st.just(0.0)] * 2),
    k=log_uniform(-300.0, 300.0) | st.just(0.0),
    rate=log_uniform(-6.0, 6.0) | st.just(0.0),
    xi0=st.floats(-5.0, 5.0),
)
def test_profile_raises_exactly_on_a_constant(levels, k, rate, xi0):
    level, amplitude = levels
    if amplitude != 0.0 and k != 0.0 and rate != 0.0:
        p = MobiusExpProfile(level, amplitude, k, rate, xi0)
        assert {p.left_limit(), p.right_limit()} == {level, level + amplitude}
    else:
        with pytest.raises(ValueError, match="constant"):
            MobiusExpProfile(level, amplitude, k, rate, xi0)


def test_profile_overflow_safety_far_out():
    p = MobiusExpProfile(0.0, 1.0, 1.0, 1.0, 0.0)
    xi = np.array([-1e6, -1e3, 0.0, 1e3, 1e6])
    with np.errstate(all="raise"):
        vals = p.value(xi)
        d1 = p.first_derivative(xi)
        d2 = p.second_derivative(xi)
    assert np.all(np.isfinite(vals))
    assert np.all(np.isfinite(d1))
    assert np.all(np.isfinite(d2))
    assert vals[0] == pytest.approx(p.left_limit(), abs=1e-300)
    assert vals[-1] == pytest.approx(p.right_limit(), abs=1e-300)


def test_profile_limits_by_rate_sign():
    p = MobiusExpProfile(0.0, 0.5, 0.5, 1.0, 0.0)
    assert p.left_limit() == 0.5
    assert p.right_limit() == 0.0
    q = MobiusExpProfile(0.0, 0.5, 0.5, -1.0, 0.0)
    assert q.left_limit() == 0.0
    assert q.right_limit() == 0.5


def test_profile_rejects_zero_rate():
    with pytest.raises(ValueError, match="constant"):
        MobiusExpProfile(1.0, 2.0, 1.0, 0.0, 0.0)


def test_pole_location_and_flags():
    p = MobiusExpProfile(0.0, -1.0, -1.0, 1.0, 0.0)  # pole where u = 1
    assert p.pole_xis() == (0.0,)
    assert bool(p.is_singular(0.0))
    assert not bool(p.is_singular(1.0))
    shifted = MobiusExpProfile(0.0, -1.0, -1.0, 2.0, 3.0)
    assert shifted.pole_xis() == (3.0,)
    no_pole = MobiusExpProfile(0.0, 1.0, 1.0, 1.0, 0.0)
    assert no_pole.pole_xis() == ()


@pytest.mark.parametrize(
    "profile",
    [
        MobiusExpProfile(0.0, -1.0 / math.e, -1.0 / math.e, 2.0, 3.0),
        MobiusExpProfile(0.0, 1e-20, -1e-20, 2.0, 3.0),
        MobiusExpProfile(1e20, 1.0, -1e20, 2.0, 3.0),
        undriven_solution(ModelParams(1e26, 1.0), 3).profile,
        undriven_solution(ModelParams(1e-6, 1e6), 4).profile,
    ],
    ids=["unit", "tiny-K", "huge-K", "a1=1e26", "a1=1e-6"],
)
def test_singular_within_tol_widths_of_pole(profile):
    (pole,) = profile.pole_xis()
    width = 1.0 / abs(profile.rate)
    for side in (-1.0, 1.0):
        assert bool(profile.is_singular(pole + side * 0.5 * SINGULAR_TOL * width))
        assert not bool(profile.is_singular(pole + side * 2.0 * SINGULAR_TOL * width))


def test_pole_stays_singular_below_its_rounding():
    # 1e-12 widths is 1e-18 here, far below the float spacing near xi = 10
    p = MobiusExpProfile(0.0, -1.0, -1.0, 1e6, 10.0)
    assert p.pole_xis() == (10.0,)
    assert bool(p.is_singular(10.0))
    assert not np.any(p.is_singular(np.nextafter(10.0, [0.0, 20.0])))


# the stored form L + A/(1 + K*u): K log-uniform over the float range, either sign
_K = log_uniform(-300.0, 300.0)


@settings(deadline=None, max_examples=200)
@given(
    level=st.floats(-1e3, 1e3),
    amplitude=log_uniform(-3.0, 3.0),
    k=_K,
    rate=log_uniform(-3.0, 3.0),
    xi0=st.floats(-5.0, 5.0),
    n=st.integers(-60, 60),
)
def test_singular_mask_ignores_the_levels(level, amplitude, k, rate, xi0, n):
    # the mask reads K, rate and xi0 only: scaling both levels by 2**n moves nothing
    p = MobiusExpProfile(level, amplitude, k, rate, xi0)
    scaled = MobiusExpProfile(math.ldexp(level, n), math.ldexp(amplitude, n), k, rate, xi0)
    widths = np.array([0.0, 0.5, 2.0, 1e3, 1e12, 5e12]) * SINGULAR_TOL
    xi = p.centre() + np.concatenate([-widths, widths]) / abs(rate)
    np.testing.assert_array_equal(scaled.is_singular(xi), p.is_singular(xi))
    assert p.is_singular(xi).any() == (k < 0.0)


@settings(deadline=None, max_examples=200)
@given(
    level=st.floats(-3.0, 3.0),
    amplitude=st.floats(-3.0, 3.0),
    k=st.floats(-3.0, 3.0),
    rate=st.floats(-3.0, 3.0),
    x=st.floats(-4.0, 4.0),
)
def test_first_derivative_matches_finite_difference(level, amplitude, k, rate, x):
    # a kink whose centre is a float: rate is not below about 4e-306
    assume(amplitude != 0.0 and k != 0.0 and abs(rate) > 1e-300)
    p = MobiusExpProfile(level, amplitude, k, rate, 0.0)
    h = 1e-5
    pts = np.array([x - h, x, x + h])
    # one order-2 pass gives what the four single-purpose views give, bit for bit
    psi, dpsi, ddpsi = p.kernel(pts, 2)
    vals = p.value(pts)
    d1 = p.first_derivative(pts)
    np.testing.assert_array_equal(psi, vals)
    np.testing.assert_array_equal(dpsi, d1)
    np.testing.assert_array_equal(ddpsi, p.second_derivative(pts))
    assume(np.all(np.isfinite(vals)) and np.max(np.abs(vals)) < 1e2)
    fd = (vals[2] - vals[0]) / (2.0 * h)
    exact = float(p.first_derivative(x))
    scale = 1.0 + abs(fd) + float(np.max(np.abs(vals)))
    assert exact == pytest.approx(fd, abs=1e-4 * scale)
    # psi'' against centered differences of the exact psi'
    assume(np.all(np.isfinite(d1)) and np.max(np.abs(d1)) < 1e2)
    fd2 = (d1[2] - d1[0]) / (2.0 * h)
    scale2 = 1.0 + abs(fd2) + float(np.max(np.abs(d1)))
    assert float(ddpsi[1]) == pytest.approx(fd2, abs=1e-4 * scale2)


_B = kinks._BLOCK


@settings(deadline=None, max_examples=60)
@given(
    level=st.floats(-3.0, 3.0),
    amplitude=log_uniform(-3.0, 3.0),
    k=_K,
    rate=log_uniform(-1.0, 1.0),
    xi0=st.floats(-2.0, 2.0),
    n=st.sampled_from((0, 1, _B - 1, _B, _B + 1, 3 * _B + 5)),
    order=st.sampled_from((0, 1, 2)),
    two_d=st.booleans(),
)
def test_kernel_blocks_match_one_pass(level, amplitude, k, rate, xi0, n, order, two_d):
    p = MobiusExpProfile(level, amplitude, k, rate, xi0)
    # spans the pole region and far tails on either side
    xi = p.centre() + np.linspace(-50.0, 50.0, n) / abs(rate)
    if two_d and n % 2 == 0:
        xi = xi.reshape(2, n // 2)
    got = p.kernel(xi, order)
    *want, _ = one_pass_kernel(p, xi, order)
    assert type(got) is tuple and len(got) == len(want) == order + 1
    for g, w in zip(got, want):
        assert g.shape == w.shape == xi.shape
        np.testing.assert_array_equal(g.view(np.int64), w.view(np.int64))


@settings(deadline=None, max_examples=300)
@given(
    level=st.floats(-3.0, 3.0),
    amplitude=log_uniform(-3.0, 3.0),
    k=_K,
    rate=log_uniform(-3.0, 3.0),
    xi0=st.floats(-5.0, 5.0),
    widths=st.lists(st.floats(-60.0, 60.0), max_size=20),
)
def test_den_at_matches_kernel_bits(level, amplitude, k, rate, xi0, widths):
    # z = +-0 at xi0 (the sign of rate picks which), the far tails at
    # +-800 widths, the centre (a pole when K < 0) and random points around it
    p = MobiusExpProfile(level, amplitude, k, rate, xi0)
    centre = p.centre()
    points = [xi0, xi0 + 800.0 / rate, xi0 - 800.0 / rate, centre]
    points += [centre + t / abs(rate) for t in widths]
    got = np.array([p.den_at(x) for x in points])
    assert all(type(p.den_at(x)) is float for x in points)
    for x, g in zip(points, got):
        one = one_pass_kernel(p, np.array([x]), 0)[-1][0]
        assert g.view(np.int64) == one.view(np.int64), (x, g, one)
    # and as elements of one many-point pass
    many = one_pass_kernel(p, np.array(points), 0)[-1]
    np.testing.assert_array_equal(got.view(np.int64), many.view(np.int64))


# ------------------------------------------------------------ basic kinks


def test_basic_kink_values_and_limits():
    params = ModelParams(1.0, 1.0)
    s1 = undriven_solution(params, 1)
    assert s1.evaluate(0.0) == 0.5
    assert (s1.left_limit, s1.right_limit) == (1.0, 0.0)
    s2 = undriven_solution(params, 2)
    assert (s2.left_limit, s2.right_limit) == (0.0, 1.0)
    s3 = undriven_solution(params, 3)
    assert (s3.left_limit, s3.right_limit) == (0.0, -1.0)
    s4 = undriven_solution(params, 4)
    assert (s4.left_limit, s4.right_limit) == (-1.0, 0.0)
    assert s1.singularities == ()
    assert s3.singularities == (0.0,)
    assert s4.singularities == (0.0,)
    big = undriven_solution(ModelParams(1e26, 1.0), 1)
    assert big.evaluate(np.array([-1.0, 0.0, 1.0])).tolist() == [1e13, 5e12, 0.0]


def test_basic_kink_forced_rho_signs():
    params = ModelParams(2.0, 5.0)
    for index, sign in UNDRIVEN_RHO_SIGNS.items():
        sol = undriven_solution(params, index)
        assert math.copysign(1.0, sol.forced_rho) == sign
        assert abs(sol.forced_rho) == pytest.approx(1.5 * SQRT2 * math.sqrt(2.0), rel=1e-15)


def undriven_rho_pairing(a1: float = 1.0, b1: float = 1.0) -> dict[int, int]:
    """Recover the friction sign of each basic kink index from residuals.

    For each index the double-well equation residual is evaluated with both
    candidate friction values on a pole-free grid using centered finite
    differences, and the sign with the smaller maximum residual wins.
    """
    params = ModelParams(a1, b1)
    rho_mag = undriven_rho(a1)
    table = {}
    for index in (1, 2, 3, 4):
        sol = undriven_solution(params, index)
        w = 1.0 / sol.width_inverse
        xi = sol.xi0 + np.linspace(-8.0, 8.0, 801) * w
        keep = np.ones(xi.size, dtype=bool)
        for pole in sol.singularities:
            keep &= np.abs(xi - pole) > 2.0 * w
        xi = xi[keep]
        h = 1e-4
        psi = sol.profile.value(xi)
        dpsi = (sol.profile.value(xi + h) - sol.profile.value(xi - h)) / (2.0 * h)
        ddpsi = (sol.profile.value(xi + h) - 2.0 * psi + sol.profile.value(xi - h)) / (h * h)
        base = ddpsi - b1 * (psi * psi * psi) + a1 * psi
        best_sign, best_resid = 0, math.inf
        for sign in (1, -1):
            resid = float(np.max(np.abs(base + sign * rho_mag * dpsi)))
            if resid < best_resid:
                best_sign, best_resid = sign, resid
        table[index] = best_sign
    return table


@pytest.mark.parametrize("a1,b1", [(1.0, 1.0), (3.0, 0.7), (0.7, 3.0)])
def test_rho_pairing_recovered_from_residuals(a1, b1):
    assert undriven_rho_pairing(a1, b1) == UNDRIVEN_RHO_SIGNS


def test_basic_kink_validation():
    with pytest.raises(ValueError):
        undriven_solution(ModelParams(1.0, 1.0), 5)
    with pytest.raises(NonPositiveCoefficient):
        undriven_solution(ModelParams(-1.0, 1.0), 1)


def test_evaluate_raises_at_pole_with_location():
    sol = undriven_solution(ModelParams(1.0, 1.0), 3)
    with pytest.raises(SingularPoint) as exc:
        sol.evaluate(0.0)
    assert exc.value.xi == 0.0
    with pytest.raises(SingularPoint):
        sol.evaluate(np.array([-1.0, 0.0, 1.0]))
    assert sol.evaluate(1.0) == pytest.approx(1.0 / (math.exp(-1.0 / SQRT2) - 1.0), rel=1e-13)


def test_evaluate_scalar_returns_float():
    sol = undriven_solution(ModelParams(1.0, 1.0), 1)
    out = sol.evaluate(0.0)
    assert isinstance(out, float)
    arr = sol(np.array([0.0, 1.0]))
    assert arr.shape == (2,)


def test_width_follows_center_shift():
    sol = undriven_solution(ModelParams(1.0, 1.0), 1, xi0=1.5)
    alpha = 1.0 / SQRT2
    assert sol.width_inverse == pytest.approx(alpha, rel=1e-15)
    assert sol.evaluate(1.5) == 0.5


# ------------------------------------------------------------- two-root kink


def test_montroll_all_root_pairs():
    for a in _ROOTS:
        for b in _ROOTS:
            if a == b:
                continue
            sol = montroll_solution(a, b)
            assert sol.forced_rho == pytest.approx(3.0 * (a + b) / SQRT2, rel=1e-14, abs=1e-14)
            assert {sol.left_limit, sol.right_limit} == {a, b}
            report = residual(sol)
            assert report.max_abs_residual < 1e-10


def test_montroll_rejects_bad_roots():
    with pytest.raises(ValueError):
        montroll_solution(0.0, 0.5)
    with pytest.raises(ValueError):
        montroll_solution(1.0, 1.0)


def test_montroll_matches_basic_kink_one():
    xi = np.linspace(-20.0, 20.0, 2001)
    m = montroll_solution(0.0, 1.0)
    u = undriven_solution(ModelParams(1.0, 1.0), 1)
    assert float(np.max(np.abs(m.profile.value(xi) - u.profile.value(xi)))) < 1e-14
    assert m.evaluate(0.0) == u.evaluate(0.0)


# ------------------------------------------------------------- driven kinks


def test_driven_kink_limits_and_drive():
    setup = driven_setup(3.0, 0.7, 2.2772)
    sb = math.sqrt(0.7)
    plus = driven_solution(setup, "I", "+")
    assert plus.left_limit == pytest.approx(-setup.epsilon, rel=1e-15)
    assert plus.right_limit == pytest.approx(setup.r_plus / sb - setup.epsilon, rel=1e-13)
    minus = driven_solution(setup, "I", "-")
    assert minus.left_limit == pytest.approx(setup.r_plus / sb - setup.epsilon, rel=1e-13)
    assert minus.right_limit == pytest.approx(-setup.epsilon, rel=1e-15)
    assert plus.eta_gamma == pytest.approx(setup.eta_times_gamma1, rel=1e-15)
    assert plus.singularities == ()
    assert plus.evaluate(0.0) == pytest.approx(
        2.0 * setup.r_plus / (3.0 * sb) - setup.epsilon, rel=1e-13
    )


def test_lambda_driven_smooth_outside_forbidden_window():
    setup = driven_setup(3.0, 0.7, 2.2772)
    smooth = lambda_driven_solution(setup, "I", "+", 10.0)
    assert smooth.singularities == ()
    poled = lambda_driven_solution(setup, "I", "+", 0.05)
    assert len(poled.singularities) == 1


def test_lambda_constructors_reject_zero_and_non_finite():
    # lambda = 0 lies outside every forbidden window but collapses the
    # family to a constant, so both constructors refuse it
    setup = driven_setup(3.0, 0.7, 2.2772)
    params = ModelParams(1.0, 1.0)
    for lam in (0.0, -0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="lambda must be finite and nonzero"):
            lambda_driven_solution(setup, "I", "+", lam)
        with pytest.raises(ValueError, match="lambda must be finite and nonzero"):
            lambda_zero_field_solution(params, "-", "second", lam)


def test_driven_constructors_reject_zero_rate():
    setup = driven_setup(3.0, 1.0, 1.0)  # r_minus == 0 exactly: case II is constant
    assert setup.r_minus == 0.0
    for branch in ("+", "-"):
        with pytest.raises(NonPositiveRate):
            driven_solution(setup, "II", branch)
        with pytest.raises(NonPositiveRate):
            lambda_driven_solution(setup, "II", branch, 1.0)
    assert driven_solution(setup, "I", "+").width_inverse > 0.0


# ------------------------------------------------------- zero-field lambdas


def test_zero_field_removable_point():
    sol = lambda_zero_field_solution(ModelParams(1.0, 1.0), "+", "first", 1.0)
    assert sol.evaluate(0.0) == -2.0
    assert not bool(sol.profile.is_singular(0.0))
    assert len(sol.singularities) == 1
    assert sol.singularities[0] == pytest.approx(math.log(2.0) * SQRT2, rel=1e-14)


def test_lambda_constructors_reject_the_window_bound():
    # at the window bound the family is a constant, not a kink: zero field
    # at lam*sqrt(a1) = 1 on '-' (the catalogue held two such members at
    # a1 = 1) and -1 on '+', figure 1's driven family at its bound
    params = ModelParams(4.0, 1.0)
    for variant in ("first", "second"):
        for branch, lam in (("-", 0.5), ("+", -0.5)):
            with pytest.raises(ValueError, match="window bound"):
                lambda_zero_field_solution(params, branch, variant, lam)
    setup = driven_setup(3.0, 0.7, 2.2772)
    with pytest.raises(ValueError, match="window bound"):
        lambda_driven_solution(setup, "I", "+", 0.12359503110847067)


@settings(deadline=None, max_examples=200)
@given(
    a1=log_uniform(-4.0, 4.0).map(abs),
    b1=log_uniform(-4.0, 4.0).map(abs),
    t=st.floats(0.1, 0.9),
    case=st.sampled_from(("I", "II")),
    branch=st.sampled_from(("+", "-")),
    variant=st.sampled_from(("first", "second")),
    ulps=st.integers(-2, 2),
)
def test_lambda_constructors_never_return_a_constant(a1, b1, t, case, branch, variant, ulps):
    # lambda at the bound and a few floats either side of it: the bound is
    # refused, and so is any neighbour whose rounded coefficients collapse
    from glkinks.analysis import lambda_forbidden_interval
    from glkinks.model import epsilon_admissible_interval

    params = ModelParams(a1, b1)
    s = 1.0 if branch == "+" else -1.0
    builds = [(-s / math.sqrt(a1), lambda lam: lambda_zero_field_solution(
        params, branch, variant, lam))]
    window = epsilon_admissible_interval(a1, b1, case, branch)
    setup = driven_setup(a1, b1, window.lower + t * (window.upper - window.lower))
    try:
        bound = lambda_forbidden_interval(setup, case, branch).bound_value
    except NonPositiveRate:
        pass
    else:
        builds.append((bound, lambda lam: lambda_driven_solution(setup, case, branch, lam)))
    for bound, build in builds:
        with pytest.raises(ValueError, match="window bound"):
            build(bound)
        lam = bound
        for _ in range(abs(ulps)):
            lam = math.nextafter(lam, math.copysign(math.inf, ulps))
        # a profile that builds is a kink by construction
        try:
            build(lam)
        except ValueError as exc:
            assert "constant" in str(exc)


# the basic kink each zero-field lambda variant is built on
_ZERO_FIELD_PARTICULAR = {("first", "+"): 4, ("first", "-"): 3, ("second", "+"): 1,
                          ("second", "-"): 2}


def _assert_levels_of_particular(member, particular):
    """Lambda moves neither level: both are the particular kink's, bit for bit.

    The member scales only K, and the levels L and L + A are stored.
    """
    assert member.left_limit.hex() == particular.left_limit.hex()
    assert member.right_limit.hex() == particular.right_limit.hex()


@pytest.mark.parametrize("fig_id", sorted(FIGURES))
def test_lambda_members_keep_the_particular_levels_on_figure_lambdas(fig_id):
    spec = FIGURES[fig_id]
    setup = driven_setup(spec.a1, spec.b1, spec.epsilon)
    particular = driven_solution(setup, spec.case, spec.branch, spec.xi0)
    for lam in spec.lambdas:
        member = lambda_driven_solution(setup, spec.case, spec.branch, float(lam), spec.xi0)
        _assert_levels_of_particular(member, particular)


@settings(deadline=None, max_examples=200)
@given(
    a1=log_uniform(-6.0, 6.0).map(abs),
    b1=log_uniform(-6.0, 6.0).map(abs),
    t=st.floats(0.05, 0.95),
    case=st.sampled_from(("I", "II")),
    branch=st.sampled_from(("+", "-")),
    variant=st.sampled_from(("first", "second")),
    # lambda / lam_b: inside the window (0, 1) and on either side of it
    k=st.floats(0.01, 0.99) | st.floats(1.01, 100.0) | st.floats(-100.0, -0.01),
)
def test_lambda_members_keep_the_particular_levels(a1, b1, t, case, branch, variant, k):
    from glkinks.model import epsilon_admissible_interval

    params = ModelParams(a1, b1)
    s = 1.0 if branch == "+" else -1.0
    sa = math.sqrt(a1)
    member = lambda_zero_field_solution(params, branch, variant, -s / sa * k)
    particular = undriven_solution(params, _ZERO_FIELD_PARTICULAR[(variant, branch)])
    assert member.forced_rho == particular.forced_rho
    _assert_levels_of_particular(member, particular)
    window = epsilon_admissible_interval(a1, b1, case, branch)
    setup = driven_setup(a1, b1, window.lower + t * (window.upper - window.lower))
    try:
        lam_b = setup.lambda_bound(case, branch)
    except NonPositiveRate:
        return
    member = lambda_driven_solution(setup, case, branch, lam_b * k)
    particular = driven_solution(setup, case, branch)
    assert member.forced_rho == particular.forced_rho
    _assert_levels_of_particular(member, particular)


def _unit_and_scaled(kind, a1, b1, index, case, branch, variant, t, ratio):
    """One constructor's member at a1 = b1 = 1 and at (a1, b1), with inputs scaled.

    With M = sqrt(a1/b1), epsilon scales as M, a driven lambda as 1/M and
    a zero-field lambda as 1/sqrt(a1).  t places epsilon in the driven
    window at unit coefficients; ratio is lambda over the window bound.
    """
    m, sa = math.sqrt(a1 / b1), math.sqrt(a1)
    unit, params = ModelParams(1.0, 1.0), ModelParams(a1, b1)
    if kind == "undriven":
        return undriven_solution(unit, index), undriven_solution(params, index)
    if kind == "lambda-zero-field":
        lam = (-1.0 if branch == "+" else 1.0) * ratio
        return (
            lambda_zero_field_solution(unit, branch, variant, lam),
            lambda_zero_field_solution(params, branch, variant, lam / sa),
        )
    window = epsilon_admissible_interval(1.0, 1.0, case, branch)
    eps = window.lower + t * (window.upper - window.lower)
    small, big = driven_setup(1.0, 1.0, eps), driven_setup(a1, b1, m * eps)
    if kind == "driven":
        return driven_solution(small, case, branch), driven_solution(big, case, branch)
    lam = ratio * small.lambda_bound(case, branch)
    return (
        lambda_driven_solution(small, case, branch, lam),
        lambda_driven_solution(big, case, branch, lam / m),
    )


@settings(deadline=None, max_examples=200)
@given(
    kind=st.sampled_from(("undriven", "lambda-zero-field", "driven", "lambda-driven")),
    a1=log_uniform(-100.0, 100.0).map(abs),
    b1=log_uniform(-100.0, 100.0).map(abs),
    index=st.integers(1, 4),
    case=st.sampled_from(("I", "II")),
    branch=st.sampled_from(("+", "-")),
    variant=st.sampled_from(("first", "second")),
    t=st.floats(0.05, 0.95),
    # lambda / lam_b: inside the window (0, 1) and on either side of it
    ratio=st.floats(0.01, 0.99) | st.floats(1.01, 100.0) | st.floats(-100.0, -0.01),
)
def test_scale_covariance(kind, a1, b1, index, case, branch, variant, t, ratio):
    # psi solves the equation at (a1, b1) exactly when psi(X/k)/M solves it
    # at (1, 1), k = sqrt(a1): psi_{a1,b1}(c + X/k) = M*psi_{1,1}(c' + X)
    # about the two profiles' centres c and c'.  montroll_solution and
    # general_riccati take no a1, b1.
    try:
        unit, scaled = _unit_and_scaled(kind, a1, b1, index, case, branch, variant, t, ratio)
    except NonPositiveRate:
        assume(False)
    m, k = math.sqrt(a1 / b1), math.sqrt(a1)
    assert bool(scaled.singularities) == bool(unit.singularities)
    x = np.linspace(-20.0, 20.0, 41) / unit.width_inverse
    if unit.singularities:
        # at least 2 widths from the pole, which is the centre
        x = x[np.abs(x) * unit.width_inverse >= 2.0]
    want = m * unit.profile.value(unit.profile.centre() + x)
    got = scaled.profile.value(scaled.profile.centre() + x / k)
    # 7.7e-15 at most over 6e4 draws
    assert np.all(np.abs(got - want) <= 4e-14 * np.maximum(np.abs(want), m))
    # 5.4e-15*k at most over 6e4 draws
    assert abs(scaled.forced_rho - k * unit.forced_rho) <= 1e-13 * k


def test_zero_field_variant_validation():
    with pytest.raises(ValueError):
        lambda_zero_field_solution(ModelParams(1.0, 1.0), "+", "third", 1.0)


def test_zero_field_lambda_tends_to_basic_kinks():
    params = ModelParams(1.0, 1.0)
    xi = np.linspace(-8.0, 8.0, 401)
    psi1 = undriven_solution(params, 1)
    near = lambda_zero_field_solution(params, "+", "second", 1e8)
    assert float(np.max(np.abs(near.profile.value(xi) - psi1.profile.value(xi)))) < 1e-6


# ------------------------------------------------------- general Riccati


def test_general_riccati_requires_quadratic_term():
    with pytest.raises(ValueError):
        general_riccati(0.0, 1.0, 0.0, 1.0, 0.0, 0.5)
    # c2 == 0 would be the rational 1/(lam - c1*xi), no Moebius-exponential
    # profile and no family's solution
    with pytest.raises(ValueError):
        general_riccati(1.0, 0.0, 0.0, 1.0, 0.0, 0.5)


def test_general_riccati_value_at_center():
    for c1, c2, v0, lam in [
        (-1.0, 1.0, 0.0, 3.0),
        (0.5, -0.7, 0.25, -2.0),
    ]:
        y0 = general_riccati(c1, c2, v0, lam, 0.0, 0.0)
        assert y0 == pytest.approx(v0 + 1.0 / lam, rel=1e-13)


def test_general_riccati_zero_solution_with_underflowing_denominator():
    # g = lam*y1 + 1 == 0, so y(xi0) = 0 and y is 0 everywhere, while
    # den_1 = c1*g + c2*lam = 2**-1200 underflows to 0 as well
    assert general_riccati(1.0, 2.0**-600, -2.0**600, 2.0**-600, 0.0, 0.0) == 0.0


def test_general_riccati_scalar_and_array_forms():
    out = general_riccati(-1.0, 1.0, 0.0, 2.0, 0.0, 1.0)
    assert isinstance(out, float)
    arr = general_riccati(-1.0, 1.0, 0.0, 2.0, 0.0, np.array([0.0, 1.0, 2.0]))
    assert arr.shape == (3,)
    assert arr[1] == pytest.approx(out, rel=1e-15)


def test_general_riccati_particular_pole_is_removable():
    # c1 = c2 = y1 = 1, lam = -3: the particular solution through y1 blows
    # up at z = log 2, but that pole is removable and the general solution
    # is finite there
    c1, y1, lam = 1.0, 1.0, -3.0
    g = lam * y1 + 1.0
    c2, z = 1.0, math.log(2.0)
    u = math.exp(c2 * z)
    mobius = c2 * g * u / (c1 * g * (1.0 - u) + c2 * lam)
    assert general_riccati(c1, c2, y1, lam, 0.0, z) == pytest.approx(mobius, rel=1e-15)
    assert mobius == pytest.approx(4.0, rel=1e-15)


def test_general_riccati_collapses_to_particular_at_large_lambda():
    c1, c2 = -1.0 / SQRT2, 1.0 / SQRT2
    xi = np.linspace(-6.0, 6.0, 201)
    sol = undriven_solution(ModelParams(1.0, 1.0), 2)
    v0 = float(sol.profile.value(0.0))
    near = general_riccati(c1, c2, v0, 1e10, 0.0, xi)
    assert float(np.max(np.abs(near - sol.profile.value(xi)))) < 1e-9


def test_general_riccati_overflow_safety():
    xi = np.array([-1e4, -10.0, 0.0, 10.0, 1e4])
    with np.errstate(over="raise", invalid="raise"):
        trivial = general_riccati(-1.0, 1.0, 0.0, 2.0, 0.0, xi)
        seeded = general_riccati(-1.0, 1.0, 0.4, 2.0, 0.0, xi)
    assert np.all(np.isfinite(trivial))
    assert np.all(np.isfinite(seeded))
    # both ends must land on fixed points of y' = c1*y^2 + c2*y
    for vals in (trivial, seeded):
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert vals[-1] in (pytest.approx(0.0, abs=1e-12), pytest.approx(1.0, rel=1e-12))


def test_general_riccati_matches_integration():
    c1, c2, lam = -1.0, 1.0, 3.0
    y0 = general_riccati(c1, c2, 0.0, lam, 0.0, 0.0)
    traj = integrate_riccati(c1, c2, y0, (0.0, 5.0), 1e-2)
    closed = general_riccati(c1, c2, 0.0, lam, 0.0, traj.xi_values)
    assert float(np.max(np.abs(traj.psi_values - closed))) < 1e-7


# ------------------------------------------------------- non-finite input

_SETUP = driven_setup(3.0, 0.7, 2.2772)
_CONSTRUCTORS = {
    "montroll": lambda xi0: montroll_solution(0.0, 1.0, xi0),
    "undriven": lambda xi0: undriven_solution(ModelParams(1.0, 1.0), 1, xi0),
    "driven": lambda xi0: driven_solution(_SETUP, "I", "+", xi0),
    "lambda-zero-field": lambda xi0: lambda_zero_field_solution(
        ModelParams(1.0, 1.0), "+", "first", 2.0, xi0
    ),
    "lambda-driven": lambda xi0: lambda_driven_solution(_SETUP, "I", "+", 0.125, xi0),
}


@pytest.mark.parametrize("xi0", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("family", sorted(_CONSTRUCTORS))
def test_constructors_reject_non_finite_center(family, xi0):
    assert np.isfinite(_CONSTRUCTORS[family](0.5).evaluate(0.0))
    with pytest.raises(ValueError, match="profile coefficients must be finite"):
        _CONSTRUCTORS[family](xi0)


def test_profile_rejects_non_finite_coefficients():
    for k in range(5):
        for bad in (math.nan, math.inf, -math.inf):
            fields = [1.0, 2.0, 1.0, 1.0, 0.0]
            fields[k] = bad
            with pytest.raises(ValueError, match="profile coefficients must be finite"):
                MobiusExpProfile(*fields)
    # each field is finite, but the level L + A is not
    with pytest.raises(ValueError, match="profile coefficients must be finite"):
        MobiusExpProfile(1e308, 1e308, 1.0, 1.0, 0.0)
    # nor is the centre xi0 - log|K|/rate
    for k, rate, xi0 in ((1e300, 1e-307, 0.0), (-1e-300, -1e-307, 1.0), (1e-300, 1e-305, 1.7e308)):
        with pytest.raises(ValueError, match="centre is beyond the float range"):
            MobiusExpProfile(0.0, 1.0, k, rate, xi0)


def _bits(profile):
    return tuple(float(x).hex() for x in dataclasses.astuple(profile))


@pytest.mark.parametrize("lam", [1e308, -1e308])
def test_lambda_overflowing_its_product_is_the_particular_kink(lam):
    # lambda is finite, but 2*lambda*r (driven) or lambda*sqrt(a1)
    # (zero-field) overflows: g = 1 - lam_b/lam rounds to 1 there, and each
    # member is its particular kink, bit for bit
    for case in ("I", "II"):
        for branch in ("+", "-"):
            assert math.isinf(2.0 * lam * _SETUP.rate(case))
            member = lambda_driven_solution(_SETUP, case, branch, lam, 0.3)
            particular = driven_solution(_SETUP, case, branch, 0.3)
            assert _bits(member.profile) == _bits(particular.profile)
    params = ModelParams(4.0, 0.5)
    assert math.isinf(lam * math.sqrt(params.a1))
    particular_index = {"first+": 4, "first-": 3, "second+": 1, "second-": 2}
    for variant in ("first", "second"):
        for branch in ("+", "-"):
            member = lambda_zero_field_solution(params, branch, variant, lam, -0.7)
            particular = undriven_solution(params, particular_index[variant + branch], -0.7)
            assert _bits(member.profile) == _bits(particular.profile)


# ------------------------------------------------ catalogue and public names

_PUBLIC_NAMES = {
    "AdmissibleRange", "ComplexDelta", "CondonParams", "DelayCurve", "DomainMismatch",
    "DrivenSetup", "EmptyGrid", "FIGURES", "FactorPair", "FigureSpec", "GLKinksError",
    "KinkSolution", "LambdaDomain", "MobiusExpProfile", "ModelParams",
    "NoCrossing", "NonFinite", "NonPositiveCoefficient", "NonPositiveRate", "ResidualReport",
    "RiccatiCoefficients", "SINGULAR_TOL", "SQRT2", "SingularPoint", "Trajectory",
    "UNDRIVEN_RHO_SIGNS", "catalogue", "compare", "compatible_riccati", "delay_curve",
    "driven_setup", "driven_solution", "epsilon_admissible_interval", "epsilon_from_field",
    "factor_driven", "factor_undriven", "general_riccati", "integrate_riccati",
    "integrate_second_order", "lambda_driven_solution", "lambda_forbidden_interval",
    "lambda_zero_field_solution", "map_condon_params", "montroll_roots", "montroll_solution",
    "residual", "singularity_scan", "switching_midpoint",
    "undriven_rho", "undriven_solution", "validate_params", "verification_grid",
}


def test_public_names():
    assert set(glkinks.__all__) == _PUBLIC_NAMES
    assert len(glkinks.__all__) == len(_PUBLIC_NAMES)
    for name in glkinks.__all__:
        assert getattr(glkinks, name) is not None


def test_kink_solution_stores_five_fields():
    assert [f.name for f in dataclasses.fields(KinkSolution)] == [
        "family", "params", "setup", "lam", "profile",
    ]


def test_derived_attributes_follow_profile_and_params():
    for _, sol in catalogue(2.0, 0.5):
        p = sol.profile
        assert sol.xi0 == p.xi0
        assert sol.width_inverse == abs(p.rate)
        assert sol.left_limit == p.left_limit()
        assert sol.right_limit == p.right_limit()
        assert sol.singularities == p.pole_xis()
        assert sol.forced_rho == sol.params.rho
        assert sol.eta_gamma == sol.params.drive
        assert sol.eta_gamma == (0.0 if sol.setup is None else sol.setup.eta_times_gamma1)


@pytest.mark.parametrize(
    "family,prefix,count",
    [("montroll", "montroll", 1), ("undriven", "undriven-", 4),
     ("lambda-zero-field", "lambda-zero-field-", 12), ("driven", "driven-", 4),
     ("lambda-driven", "lambda-I", 16)],
)
def test_catalogue_family_scope(family, prefix, count):
    want = [label for label, sol in catalogue() if sol.family.startswith(prefix)]
    assert [label for label, _ in catalogue(family=family)] == want
    assert len(want) == count


def test_catalogue_coefficients_reach_zero_field_members():
    for (label, sol), (_, unit) in zip(catalogue(2.0, 0.5), catalogue()):
        if label.startswith(("undriven", "lambda-zero-field")):
            assert (sol.params.a1, sol.params.b1) == (2.0, 0.5)
        else:
            assert sol == unit


@settings(deadline=None, max_examples=100)
@given(a1=log_uniform(-6.0, 6.0).map(abs), b1=log_uniform(-6.0, 6.0).map(abs))
def test_catalogue_builds_at_any_scale(a1, b1):
    # every member is a kink: none is refused as a constant at any scale
    members = catalogue(a1, b1)
    assert len(members) == 37
    for label, sol in members:
        assert sol.left_limit != sol.right_limit, label


def test_catalogue_rejects_unknown_family_and_bad_coefficients():
    with pytest.raises(ValueError, match="unknown family 'bogus'"):
        catalogue(family="bogus")
    with pytest.raises(NonPositiveCoefficient):
        catalogue(0.0, 1.0)
    with pytest.raises(NonPositiveCoefficient):
        catalogue(1.0, math.inf, family="lambda-zero-field")
