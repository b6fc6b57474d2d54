"""Forbidden lambda windows, pole scans, midpoints and delay curves."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from glkinks.analysis import (
    _bisect,
    _default_range,
    delay_curve,
    lambda_forbidden_interval,
    singularity_scan,
    switching_midpoint,
)
from glkinks.errors import NoCrossing, NonPositiveRate
from glkinks.figures import FIGURES
from glkinks.kinks import (
    KinkSolution,
    MobiusExpProfile,
    driven_solution,
    lambda_driven_solution,
    lambda_zero_field_solution,
    undriven_solution,
)
from glkinks.model import ModelParams, driven_setup, epsilon_admissible_interval
from conftest import log_uniform, one_pass_kernel
from golden_cli import ROSTER, golden_path

_FORBIDDEN_BOUNDS = {
    1: 0.12359503110847067,
    2: -0.14625445083941097,
    3: 0.76934858053138011,
    4: 0.52966127768124693,
}

_MIDPOINT_INF = {
    1: (-0.2896159297539773, 1e-12),
    2: (0.342712958, 1e-6),
    3: (-0.870829202, 1e-6),
    4: (-0.599526040, 1e-6),
}

_FIG1_MIDPOINTS = {
    0.125: -2.16495034870099,
    0.2: -0.69167861242127926,
    0.5: -0.40825490062367509,
    10.0: -0.2948122480823574,
}


def _setup_for(fig_id):
    spec = FIGURES[fig_id]
    return spec, driven_setup(spec.a1, spec.b1, spec.epsilon)


def _closed_form_midpoint(setup, case, branch, lam, xi0=0.0):
    """Midpoint crossing from the Moebius coefficients directly."""
    r = setup.rate(case)
    sb = math.sqrt(setup.b1)
    if branch == "+":
        u_mid = (2.0 * lam * r - sb) / (4.0 * lam * r)
        rate = r / math.sqrt(2.0)
    else:
        u_mid = lam * r / (2.0 * lam * r + sb)
        rate = -r / math.sqrt(2.0)
    return xi0 + math.log(u_mid) / rate


@pytest.mark.parametrize("fig_id", sorted(_FORBIDDEN_BOUNDS))
def test_forbidden_interval_reference_bounds(fig_id):
    spec, setup = _setup_for(fig_id)
    domain = lambda_forbidden_interval(setup, spec.case, spec.branch)
    assert domain.bound_value == pytest.approx(_FORBIDDEN_BOUNDS[fig_id], rel=1e-13)
    forbidden = domain.forbidden
    bound = domain.bound_value
    # open at both ends: at 0 and at the bound the profile is a constant,
    # which the constructors refuse
    assert not forbidden.contains(bound)
    assert not forbidden.contains(0.0)
    assert forbidden.contains(bound * 0.5)
    assert not forbidden.contains(bound * 1.01)
    assert not forbidden.contains(-bound)
    assert (forbidden.lower, forbidden.upper) == (min(0.0, bound), max(0.0, bound))
    assert forbidden.lower_open and forbidden.upper_open
    with pytest.raises(ValueError, match="window bound"):
        lambda_driven_solution(setup, spec.case, spec.branch, bound)


def test_forbidden_interval_degenerate_root():
    setup = driven_setup(3.0, 1.0, 1.0)  # r_minus == 0 exactly
    assert setup.r_minus == 0.0
    with pytest.raises(NonPositiveRate):
        lambda_forbidden_interval(setup, "II", "+")
    domain = lambda_forbidden_interval(setup, "I", "+")
    assert domain.bound_value == pytest.approx(0.5 / setup.r_plus, rel=1e-14)


# ------------------------------------------------------ dense scan oracle

_SCAN_POINTS = 10_001


def _sign_change_roots(f, f_at, lo, hi):
    """Exact zeros plus bisected flips of f on _SCAN_POINTS points of [lo, hi].

    f maps a 1-D float array to an array of the same shape and scans the
    grid; f_at is the same function at one float and bisects the flips.
    Unlike singularity_scan it assumes nothing about how often f changes
    sign, so it serves as the oracle for the scan and for the midpoint.
    """
    xi = np.linspace(float(lo), float(hi), _SCAN_POINTS)
    sgn = np.sign(f(xi))
    flips = np.nonzero(sgn[:-1] * sgn[1:] < 0.0)[0]
    exact = np.nonzero(sgn == 0.0)[0]
    roots = [float(xi[i]) for i in exact]
    roots += [_bisect(f_at, float(xi[i]), float(xi[i + 1])) for i in flips]
    return roots


def _dense_scan(solution, xi_range=None):
    """Poles as sign changes of the one-pass reference denominator on a dense grid."""
    lo, hi = xi_range if xi_range is not None else _default_range(solution)
    p = solution.profile
    den = lambda x: one_pass_kernel(p, x, 0)[-1]  # noqa: E731
    return tuple(sorted(_sign_change_roots(den, p.den_at, lo, hi)))


def test_singularity_scan_matches_constructor_poles():
    params = ModelParams(1.0, 1.0)
    _, setup = _setup_for(1)
    poled = [
        undriven_solution(params, 3),
        undriven_solution(params, 4),
        lambda_zero_field_solution(params, "+", "first", 1.0),
        lambda_driven_solution(setup, "I", "+", 0.05),
    ]
    for sol in poled:
        found = singularity_scan(sol)
        assert len(found) == len(sol.singularities) == 1
        assert found[0] == pytest.approx(sol.singularities[0], abs=1e-8)


def test_singularity_scan_smooth_and_out_of_range():
    params = ModelParams(1.0, 1.0)
    assert singularity_scan(undriven_solution(params, 1)) == ()
    poled = undriven_solution(params, 3)
    assert singularity_scan(poled, xi_range=(1.0, 5.0)) == ()


@pytest.mark.parametrize("end", [0, 1])
def test_singularity_scan_exact_zero_at_an_end(end):
    # -1 + 2/(1 - u) has its pole at u = 1, i.e. at xi0, where den_at is
    # exactly 0.0: the end itself is the root.  A bisection from lo would
    # stop short of it, and at hi the signs 0 and + would read as no pole.
    xi_range = (-2.0, 3.0)
    profile = MobiusExpProfile(-1.0, 2.0, -1.0, 1.5, xi_range[end])
    sol = KinkSolution("pole-at-an-end", ModelParams(1.0, 1.0), None, None, profile)
    assert profile.den_at(xi_range[end]) == 0.0
    assert profile.pole_xis() == (xi_range[end],)
    assert singularity_scan(sol, xi_range=xi_range) == (xi_range[end],)
    assert _dense_scan(sol, xi_range) == (xi_range[end],)


def test_singularity_scan_rejects_a_bad_range():
    _, setup = _setup_for(1)
    sol = lambda_driven_solution(setup, "I", "+", 0.05)
    lo, hi = _default_range(sol)
    for bad in ((hi, lo), (lo, lo), (math.nan, hi), (lo, math.inf), (-math.inf, hi)):
        with pytest.raises(ValueError, match="xi_range"):
            singularity_scan(sol, xi_range=bad)
    assert singularity_scan(sol, xi_range=(lo, hi)) == singularity_scan(sol)


def _poled_member(kind, a1, b1, choice, t, xi0_widths):
    """A member of a poled family at (a1, b1), or None where it cannot be built.

    kind 'basic' is kink 3 or 4; 'zero-field' a zero-field lambda kink with
    lambda = +-10**t/sqrt(a1); 'driven' a driven lambda kink inside its
    window, 10**-|t| of the way from 0 or from the bound.  choice picks the
    index, the branch and variant, or the case, branch and end of the window.
    """
    params = ModelParams(a1, b1)
    xi0 = xi0_widths * math.sqrt(2.0 / a1)
    if kind == "basic":
        return undriven_solution(params, 3 + choice % 2, xi0)
    if kind == "zero-field":
        lam = (-1.0) ** (choice // 4) * 10.0**t / math.sqrt(a1)
        branch, variant = "+-"[choice % 2], ("first", "second")[choice // 2 % 2]
        try:
            return lambda_zero_field_solution(params, branch, variant, lam, xi0)
        except ValueError:
            return None
    case, branch = ("I", "II")[choice % 2], "+-"[choice // 2 % 2]
    window = epsilon_admissible_interval(a1, b1, case, branch)
    setup = driven_setup(a1, b1, 0.5 * (window.lower + window.upper))
    try:
        bound = lambda_forbidden_interval(setup, case, branch).bound_value
        frac = 10.0 ** -abs(t)
        lam = bound * frac if choice // 4 % 2 else bound * (1.0 - frac)
        return lambda_driven_solution(setup, case, branch, lam, xi0)
    except (ValueError, NonPositiveRate):
        return None


def _smooth_member(a1, b1, choice, t, xi0_widths):
    """A kink without a real pole at (a1, b1), or None where it cannot be built.

    choice 8 and 9 pick basic kink 1 or 2; below 8 it picks the case, the
    branch and the side of a driven lambda kink outside its window: beyond
    the bound by 10**t of it, or on the other side of 0 at 10**t times it.
    """
    params = ModelParams(a1, b1)
    xi0 = xi0_widths * math.sqrt(2.0 / a1)
    if choice >= 8:
        return undriven_solution(params, choice - 7, xi0)
    case, branch = ("I", "II")[choice % 2], "+-"[choice // 2 % 2]
    window = epsilon_admissible_interval(a1, b1, case, branch)
    setup = driven_setup(a1, b1, 0.5 * (window.lower + window.upper))
    try:
        bound = lambda_forbidden_interval(setup, case, branch).bound_value
        lam = bound * (1.0 + 10.0**t) if choice // 4 else -bound * 10.0**t
        return lambda_driven_solution(setup, case, branch, lam, xi0)
    except (ValueError, NonPositiveRate):
        return None


@settings(deadline=None, max_examples=200)
@given(
    kind=st.sampled_from(["basic", "zero-field", "driven", "smooth"]),
    a1=st.floats(-6.0, 6.0).map(lambda t: 10.0**t),
    b1=st.floats(-6.0, 6.0).map(lambda t: 10.0**t),
    choice=st.integers(0, 9),
    t=st.floats(-30.0, 30.0),
    xi0_widths=st.floats(-3.0, 3.0),
)
def test_singularity_scan_finds_the_closed_form_pole_at_any_scale(
    kind, a1, b1, choice, t, xi0_widths
):
    # the one bisection finds what a sign-change scan of the kernel's
    # denominator on 10,001 points finds: the closed-form pole when it lies
    # within 40 widths of xi0, and nothing otherwise
    if kind == "smooth":
        sol = _smooth_member(a1, b1, choice, t, xi0_widths)
    else:
        sol = _poled_member(kind, a1, b1, choice % 8, t, xi0_widths)
    assume(sol is not None)
    found, dense = singularity_scan(sol), _dense_scan(sol)
    poles = sol.profile.pole_xis()
    width = 1.0 / sol.width_inverse
    widths_out = abs(poles[0] - sol.xi0) / width if poles else math.inf
    assume(abs(widths_out - 40.0) > 1e-6)
    if widths_out > 40.0:
        assert found == dense == ()
        return
    # the bisection's 1e-10 plus a few roundings at the scale of the grid
    tol = 1e-10 + 8.0 * np.finfo(float).eps * max(abs(poles[0]), width)
    assert len(found) == len(dense) == 1
    errs = (abs(found[0] - poles[0]), abs(dense[0] - poles[0]), abs(found[0] - dense[0]))
    assert max(errs) <= tol, (found, dense, poles, width)


def test_switching_midpoint_basic_kink():
    sol = undriven_solution(ModelParams(1.0, 1.0), 1)
    xi_mid = switching_midpoint(sol)
    assert type(xi_mid) is float
    assert xi_mid == pytest.approx(0.0, abs=1e-9)


def test_constant_profile_is_refused():
    # -2 + 0/(1 + u) is no kink: the profile type itself refuses it
    with pytest.raises(ValueError, match="constant"):
        MobiusExpProfile(-2.0, 0.0, 1.0, 1.0, 0.0)


def test_switching_midpoint_no_crossing_cases():
    poled = undriven_solution(ModelParams(1.0, 1.0), 3)
    # the midpoint level lies between the branches, never on the profile
    with pytest.raises(NoCrossing):
        switching_midpoint(poled)


@pytest.mark.parametrize("fig_id", sorted(FIGURES))
def test_switching_midpoint_matches_closed_form(fig_id):
    spec, setup = _setup_for(fig_id)
    for lam_str in spec.lambdas:
        lam = float(lam_str)
        sol = lambda_driven_solution(setup, spec.case, spec.branch, lam)
        expected = _closed_form_midpoint(setup, spec.case, spec.branch, lam)
        assert switching_midpoint(sol) == pytest.approx(expected, abs=1e-8)


def test_fig1_midpoint_reference_values():
    spec, setup = _setup_for(1)
    for lam, expected in _FIG1_MIDPOINTS.items():
        sol = lambda_driven_solution(setup, spec.case, spec.branch, lam)
        assert switching_midpoint(sol) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("fig_id", sorted(_MIDPOINT_INF))
def test_particular_midpoint_reference_values(fig_id):
    spec, setup = _setup_for(fig_id)
    expected, tol = _MIDPOINT_INF[fig_id]
    sol = driven_solution(setup, spec.case, spec.branch)
    assert switching_midpoint(sol) == pytest.approx(expected, abs=tol)


def test_fig4_outlier_midpoint():
    spec, setup = _setup_for(4)
    sol = lambda_driven_solution(setup, spec.case, spec.branch, 0.53)
    assert switching_midpoint(sol) == pytest.approx(5.762449, abs=1e-5)


def test_delay_curve_fig1_regression():
    spec, setup = _setup_for(1)
    lams = tuple(float(s) for s in spec.lambdas)
    curve = delay_curve(
        lambda lam: lambda_driven_solution(setup, spec.case, spec.branch, lam),
        lams,
        driven_solution(setup, spec.case, spec.branch),
    )
    assert curve.lambdas == lams
    assert curve.multiplicities == (1, 1, 1, 1)
    assert curve.midpoint_inf == pytest.approx(_MIDPOINT_INF[1][0], abs=1e-9)
    for lam, mid in zip(curve.lambdas, curve.midpoints):
        assert mid == pytest.approx(_FIG1_MIDPOINTS[lam], abs=1e-9)
    offsets = [abs(m - curve.midpoint_inf) for m in curve.midpoints]
    assert offsets == sorted(offsets, reverse=True)


def test_delay_curve_input_validation():
    spec, setup = _setup_for(1)
    make = lambda lam: lambda_driven_solution(setup, spec.case, spec.branch, lam)
    particular = driven_solution(setup, spec.case, spec.branch)
    with pytest.raises(ValueError):
        delay_curve(make, (), particular)
    with pytest.raises(ValueError):
        delay_curve(make, (1.0, 1.0), particular)
    with pytest.raises(ValueError):
        delay_curve(make, (2.0, 1.0), particular)


# ------------------------------------------------------------- delay law


def _delay_law(setup, case, branch, lam):
    """Midpoint shift of a driven lambda kink from its particular kink, in closed form.

    log(1 - lam_b/lam)/alpha, with alpha = r/sqrt(2) the rate of the '+'
    branch and lam_b the window bound; it follows from the midpoint root
    u* of the Moebius profile, e.g. 1/2 - sqrt(b1)/(4*lam*r) on '+'.
    """
    lam_b = lambda_forbidden_interval(setup, case, branch).bound_value
    return math.log(1.0 - lam_b / lam) / (setup.rate(case) / math.sqrt(2.0))


def _delay_shifts(setup, case, branch, lams):
    curve = delay_curve(
        lambda lam: lambda_driven_solution(setup, case, branch, lam),
        lams,
        driven_solution(setup, case, branch),
    )
    return [mid - curve.midpoint_inf for mid in curve.midpoints]


@pytest.mark.parametrize("fig_id", sorted(FIGURES))
def test_delay_curve_follows_the_delay_law_on_figure_lambdas(fig_id):
    # 1.2e-13 widths at most over the 16 figure lambdas
    spec, setup = _setup_for(fig_id)
    lams = sorted(float(x) for x in spec.lambdas)
    alpha = setup.rate(spec.case) / math.sqrt(2.0)
    for lam, shift in zip(lams, _delay_shifts(setup, spec.case, spec.branch, lams)):
        law = _delay_law(setup, spec.case, spec.branch, lam)
        assert abs(shift - law) * alpha <= 5e-13, (lam, shift, law)


@settings(deadline=None, max_examples=200)
@given(
    log_a1=st.floats(-3.0, 3.0),
    log_b1=st.floats(-3.0, 3.0),
    case=st.sampled_from(["I", "II"]),
    branch=st.sampled_from(["+", "-"]),
    eps_frac=st.floats(0.05, 0.95),
    side=st.sampled_from(["beyond", "opposite", "inside"]),
    log_gap=st.floats(-12.0, 6.0),
)
def test_delay_curve_follows_the_delay_law(log_a1, log_b1, case, branch, eps_frac, side, log_gap):
    # lambda log-uniform beyond the window's bound, on the other side of 0,
    # or inside the window, where there is no midpoint crossing
    a1, b1 = 10.0**log_a1, 10.0**log_b1
    window = epsilon_admissible_interval(a1, b1, case, branch)
    setup = driven_setup(a1, b1, window.lower + eps_frac * (window.upper - window.lower))
    try:
        domain = lambda_forbidden_interval(setup, case, branch)
    except NonPositiveRate:
        assume(False)
    bound, gap = domain.bound_value, 10.0**log_gap
    lam = {"beyond": bound * (1.0 + gap), "opposite": -bound * gap, "inside": bound / (1.0 + gap)}[
        side
    ]
    assume(lam != bound)
    g = 1.0 - bound / lam
    assert (g <= 0.0) == domain.forbidden.contains(lam) == (side == "inside")
    if side == "inside":
        with pytest.raises(NoCrossing):
            _delay_shifts(setup, case, branch, [lam])
        return
    (shift,) = _delay_shifts(setup, case, branch, [lam])
    alpha = setup.rate(case) / math.sqrt(2.0)
    # 1 - lam_b/lam cancels near the bound: the law is conditioned as 1/g
    # there (5.6e2 eps/g widths at most in 2e4 draws)
    assert abs(shift - _delay_law(setup, case, branch, lam)) * alpha <= 1e-12 * (1.0 + 1.0 / g)


# ------------------------------------------------- scan-based midpoint oracle


def _scan_midpoint(solution):
    """Midpoint found numerically: sign changes of value - m on +-40 widths.

    A flip across a pole is a jump, not a crossing: its bisection ends on
    the pole, and such roots are dropped.  Raises NoCrossing where
    switching_midpoint must.
    """
    left, right = solution.left_limit, solution.right_limit
    if left == right:
        raise NoCrossing("no distinct limits")
    level = 0.5 * (left + right)
    lo, hi = _default_range(solution)
    f = lambda x: solution.profile.value(x) - level  # noqa: E731
    roots = [
        x
        for x in _sign_change_roots(f, f, lo, hi)
        if not any(abs(x - pole) < 1e-8 for pole in solution.singularities)
    ]
    assert len(roots) <= 1, roots
    if not roots:
        raise NoCrossing("no crossing in range")
    return roots[0]


def _oracle_agrees(solution):
    try:
        want = _scan_midpoint(solution)
    except NoCrossing:
        with pytest.raises(NoCrossing):
            switching_midpoint(solution)
        return
    # 1e-10 up to unit width; beyond it, rounding in the coefficients and
    # in the scan's values moves both roots in proportion to the width
    # (1.6e-10 apart at width 3.5e3, each within 8.5e-11 of the exact value)
    tol = 1e-10 * max(1.0, 1.0 / solution.width_inverse)
    assert switching_midpoint(solution) == pytest.approx(want, abs=tol)


@settings(deadline=None, max_examples=200)
@given(
    log_a1=st.floats(-3.0, 3.0),
    log_b1=st.floats(-3.0, 3.0),
    case=st.sampled_from(["I", "II"]),
    branch=st.sampled_from(["+", "-"]),
    eps_frac=st.floats(0.05, 0.95),
    side=st.sampled_from(["beyond", "opposite", "inside", "particular"]),
    log_gap=st.floats(-8.0, 3.0),
    xi0_widths=st.floats(-2.0, 2.0),
)
def test_switching_midpoint_matches_scan_oracle(
    log_a1, log_b1, case, branch, eps_frac, side, log_gap, xi0_widths
):
    # lambda beyond the window's bound, on the other side of 0, inside the
    # window (a pole), or infinite (the particular kink)
    a1, b1 = 10.0**log_a1, 10.0**log_b1
    window = epsilon_admissible_interval(a1, b1, case, branch)
    setup = driven_setup(a1, b1, window.lower + eps_frac * (window.upper - window.lower))
    try:
        bound = lambda_forbidden_interval(setup, case, branch).bound_value
    except NonPositiveRate:
        assume(False)
    xi0 = xi0_widths / setup.rate(case)
    gap = 10.0**log_gap
    lam = {
        "beyond": bound * (1.0 + gap),
        "opposite": -bound * gap,
        "inside": bound / (1.0 + gap),
        "particular": None,
    }[side]
    if lam is None:
        sol = driven_solution(setup, case, branch, xi0)
    else:
        sol = lambda_driven_solution(setup, case, branch, lam, xi0)
    _oracle_agrees(sol)


def _shifted_kink(xi_mid):
    # (u - c)/(u + c) = 1 - 2/(1 + u/c), c = exp(xi_mid)
    profile = MobiusExpProfile(1.0, -2.0, math.exp(-xi_mid), 1.0, 0.0)
    return KinkSolution("shifted", ModelParams(1.0, 1.0), None, None, profile)


def test_switching_midpoint_matches_scan_oracle_on_edge_cases():
    params = ModelParams(1.0, 1.0)
    for sol in (
        undriven_solution(params, 1),
        undriven_solution(params, 3),  # pole: no crossing
        lambda_zero_field_solution(params, "+", "first", 1.0),
        # (u - c)/(u + c) crosses 0 at xi = log(c): 39 widths out, then 41
        _shifted_kink(39.0),
        _shifted_kink(41.0),
    ):
        _oracle_agrees(sol)


@settings(deadline=None, max_examples=300)
@given(
    level=st.floats(-1e3, 1e3),
    amplitude=log_uniform(-3.0, 3.0),
    k=log_uniform(-300.0, 300.0),
    rate=log_uniform(-3.0, 3.0),
    xi0=st.floats(-5.0, 5.0),
)
def test_centre_is_the_pole_or_the_midpoint(level, amplitude, k, rate, xi0):
    # K log-uniform over the float range, either sign: the centre
    # xi0 - log|K|/rate is finite, the pole exactly when K < 0 and
    # otherwise the midpoint, up to 690 widths from xi0
    p = MobiusExpProfile(level, amplitude, k, rate, xi0)
    sol = KinkSolution("raw", ModelParams(1.0, 1.0), None, None, p)
    centre = p.centre()
    assert type(centre) is float and math.isfinite(centre)
    poled = k < 0.0
    assert p.pole_xis() == ((centre,) if poled else ())
    assert bool(p.is_singular(centre)) == poled
    width = 1.0 / abs(rate)
    found = singularity_scan(sol, (centre - 10.0 * width, centre + 10.0 * width))
    if poled:
        (pole,) = found
        assert abs(pole - centre) <= 1e-10 + 8.0 * np.finfo(float).eps * max(abs(centre), width)
    else:
        assert found == ()
    lo, hi = _default_range(sol)
    if poled or not lo <= centre <= hi:
        with pytest.raises(NoCrossing):
            switching_midpoint(sol)
    else:
        assert switching_midpoint(sol) == centre
    # the numeric midpoint cancels as the levels close in, as
    # max|level|/|left - right|, and is ambiguous at the edge of its range
    assume(abs(amplitude) >= 1e-3 * max(abs(level), abs(level + amplitude)))
    assume(abs(abs(centre - xi0) / width - 40.0) > 1e-6)
    _oracle_agrees(sol)


def _read_delay_golden(name):
    with open(golden_path(name, "bytes"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = dict(ln[2:].split("=", 1) for ln in lines if ln.startswith("# ") and "=" in ln)
    rows = [ln.split(",") for ln in lines if ln and not ln.startswith(("#", "lambda"))]
    return header, rows


@pytest.mark.parametrize("name", [e[0] for e in ROSTER if e[0].startswith("delay-")])
def test_delay_goldens_match_scan_oracle(name):
    header, rows = _read_delay_golden(name)
    setup = driven_setup(float(header["a1"]), float(header["b1"]), float(header["epsilon"]))
    case, branch, xi0 = header["case"], header["branch"], float(header["xi0"])
    want_inf = _scan_midpoint(driven_solution(setup, case, branch, xi0))
    assert float(header["midpoint_inf"]) == pytest.approx(want_inf, abs=1e-10)
    assert rows
    for lam, xi_mid, flag in rows:
        sol = lambda_driven_solution(setup, case, branch, float(lam), xi0)
        assert float(xi_mid) == pytest.approx(_scan_midpoint(sol), abs=1e-10)
        assert flag == "0"


# ------------------------------------------------------------- bisection


def _plain_bisect(f, lo, hi, tol=1e-10):
    """Bisection through one-point arrays: the result _bisect must reproduce bit for bit.

    f maps a 1-D array to an array, as the kernel does; _bisect is given
    the same function at one float.
    """

    def f1(x):
        return f(np.array([x])).tolist()[0]

    flo = f1(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol:
            return mid
        fmid = f1(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0.0) != (fmid < 0.0):
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def _counted(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


_coef = st.floats(-5.0, 5.0, allow_nan=False)


@settings(deadline=None, max_examples=300)
@given(
    coefs=st.tuples(_coef, _coef, _coef),
    rate=st.floats(0.05, 5.0) | st.floats(-5.0, -0.05),
    xi0=st.floats(-5.0, 5.0),
    use_den=st.booleans(),
    crossing=_coef,
    lo=st.floats(-20.0, 20.0),
    log_width=st.floats(-12.0, 2.0),
    tol=st.sampled_from([1e-10, 1e-14, 1e-3, 0.0]),
)
def test_bisect_matches_one_point_bisection(
    coefs, rate, xi0, use_den, crossing, lo, log_width, tol
):
    level, amplitude, k = coefs
    assume(amplitude != 0.0 and k != 0.0)  # a kink, not a constant
    profile = MobiusExpProfile(level, amplitude, k, rate, xi0)
    if use_den:
        f = lambda x: one_pass_kernel(profile, x, 0)[-1]  # noqa: E731
        f_at = profile.den_at
    else:
        f = f_at = lambda x: profile.value(x) - crossing  # noqa: E731
    hi = lo + 10.0**log_width
    want = _plain_bisect(f, lo, hi, tol)
    assert _bisect(f_at, lo, hi, tol).hex() == want.hex()


@settings(deadline=None, max_examples=200)
@given(
    a=st.integers(-50, 50),
    e=st.integers(-20, 5),
    k=st.integers(1, 2**12 - 1),
)
def test_bisect_exact_zero_on_a_midpoint(a, e, k):
    # dyadic bracket and root, so the root is itself one of the midpoints,
    # reached while the bracket is still wider than the tolerance
    lo, hi = float(a), a + 2.0**e
    root = a + k * 2.0 ** (e - 12)
    f = lambda x: x - root  # noqa: E731
    got = _bisect(f, lo, hi)
    assert got == root
    assert got.hex() == _plain_bisect(f, lo, hi).hex()


def test_bisect_bracket_already_below_tolerance():
    f, calls = _counted(lambda x: x - 1.0)
    lo, hi = 1.0 - 3e-11, 1.0 + 4e-11
    assert _bisect(f, lo, hi).hex() == (0.5 * (lo + hi)).hex()
    assert calls == []


def test_bisect_stops_after_200_halvings():
    # 200 halvings of [0, 1e300] leave a bracket far wider than 1e-10,
    # and with tol = 0 the bracket [1, 2] stops shrinking at one ulp; x*x - 2
    # has no exact zero among the floats
    cases = ((0.0, 1e300, 1e-10, lambda x: x - 1.0), (1.0, 2.0, 0.0, lambda x: x * x - 2.0))
    for lo, hi, tol, g in cases:
        f, calls = _counted(g)
        want = _plain_bisect(f, lo, hi, tol)
        calls.clear()
        assert _bisect(f, lo, hi, tol).hex() == want.hex()
        # lo, then one midpoint per halving, each a plain float
        assert len(calls) == 201 and {type(x) for x in calls} == {float}


@pytest.fixture
def kernel_calls(monkeypatch):
    calls = []
    kernel = MobiusExpProfile.kernel

    def counted(self, xi, order=0):
        calls.append(np.size(xi))
        return kernel(self, xi, order)

    monkeypatch.setattr(MobiusExpProfile, "kernel", counted)
    return calls


@pytest.fixture
def den_at_calls(monkeypatch):
    calls = []
    den_at = MobiusExpProfile.den_at

    def counted(self, x):
        calls.append(x)
        return den_at(self, x)

    monkeypatch.setattr(MobiusExpProfile, "den_at", counted)
    return calls


@pytest.mark.parametrize("fig_id", sorted(FIGURES))
def test_scans_make_few_kernel_calls(fig_id, kernel_calls, den_at_calls):
    # the midpoint is closed form; a pole scan evaluates den_at at the two
    # ends of its range and at one midpoint per halving, and makes no
    # kernel call
    spec, setup = _setup_for(fig_id)
    solutions = [driven_solution(setup, spec.case, spec.branch)] + [
        lambda_driven_solution(setup, spec.case, spec.branch, float(lam))
        for lam in spec.lambdas
    ]
    for sol in solutions:
        kernel_calls.clear()
        switching_midpoint(sol)
        assert len(kernel_calls) == 0
    bound = lambda_forbidden_interval(setup, spec.case, spec.branch).bound_value
    for lam in (0.1 * bound, 0.5 * bound, 0.9 * bound):
        sol = lambda_driven_solution(setup, spec.case, spec.branch, lam)
        kernel_calls.clear()
        den_at_calls.clear()
        poles = singularity_scan(sol)
        assert len(poles) == 1
        assert kernel_calls == []
        lo, hi = _default_range(sol)
        assert 0 < len(den_at_calls) <= 2 + math.ceil(math.log2((hi - lo) / 1e-10))
