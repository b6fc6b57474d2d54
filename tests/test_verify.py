"""Residual evaluation and the fixed-step integration oracles."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from glkinks import kinks
from glkinks.errors import DomainMismatch, EmptyGrid, NonFinite
from glkinks.kinks import (
    catalogue,
    driven_solution,
    lambda_zero_field_solution,
    undriven_solution,
)
from glkinks.model import ModelParams, driven_setup
from glkinks.verify import (
    ResidualReport,
    Trajectory,
    compare,
    integrate_riccati,
    integrate_second_order,
    residual,
    verification_grid,
)
from glkinks.verify import _BLOWUP, _rk4_span

from conftest import log_uniform, rk4_sup


def test_verification_grid_avoids_poles():
    sol = undriven_solution(ModelParams(1.0, 1.0), 3)
    xi = verification_grid(sol)
    assert xi.size < 4001
    w = 1.0 / sol.width_inverse
    assert np.min(np.abs(xi - sol.singularities[0])) > 2.0 * w
    smooth = undriven_solution(ModelParams(1.0, 1.0), 1)
    assert verification_grid(smooth).size == 4001


def test_residual_default_grid_is_tight():
    for index in (1, 2, 3, 4):
        sol = undriven_solution(ModelParams(3.0, 0.7), index)
        report = residual(sol)
        assert report.max_abs_residual < 1e-12
        assert report.derivative_mode == "analytic"
        assert report.skipped == 0


def test_residual_finite_difference_mode():
    setup = driven_setup(3.0, 0.7, 2.2772)
    for sol in (
        undriven_solution(ModelParams(1.0, 1.0), 1),
        driven_solution(setup, "I", "+"),
        lambda_zero_field_solution(ModelParams(1.0, 1.0), "+", "second", 10.0),
    ):
        report = residual(sol, mode="fd")
        assert report.max_abs_residual < 1e-6


def test_residual_rejects_unknown_mode():
    sol = undriven_solution(ModelParams(1.0, 1.0), 1)
    with pytest.raises(ValueError):
        residual(sol, mode="spectral")


def test_residual_detects_wrong_rho_and_drive():
    sol = undriven_solution(ModelParams(1.0, 1.0), 1)
    assert residual(sol, rho=sol.forced_rho + 0.1).max_abs_residual > 1e-4
    setup = driven_setup(3.0, 0.7, 2.2772)
    driven = driven_solution(setup, "I", "+")
    assert residual(driven, eta_gamma=0.0).max_abs_residual > 1e-2


def test_residual_grid_forms():
    sol = undriven_solution(ModelParams(1.0, 1.0), 1)
    from_tuple = residual(sol, grid=(-5.0, 5.0, 101))
    assert from_tuple.grid == (-5.0, 5.0, 101)
    pts = np.linspace(-5.0, 5.0, 101)
    from_array = residual(sol, grid=pts)
    assert from_array.max_abs_residual == pytest.approx(
        from_tuple.max_abs_residual, rel=1e-12, abs=1e-18
    )


@settings(deadline=None, max_examples=25)
@given(a1=log_uniform(-6.0, 6.0).map(abs), b1=log_uniform(-6.0, 6.0).map(abs))
def test_relative_residual_and_limits_at_any_scale(a1, b1):
    # the members built at (a1, b1): the defect relative to the largest
    # term stays at rounding level (1.3e-15 at most in 300 seeded draws),
    # under verify's 1e-12 gate, and 40 widths out the profile sits on its
    # limits
    members = catalogue(a1, b1, "undriven") + catalogue(a1, b1, "lambda-zero-field")
    for label, sol in members:
        grid = verification_grid(sol)
        big = float(np.max(np.abs(sol.profile.value(grid))))
        scale = max(b1 * big**3, a1 * big)
        assert residual(sol, grid=grid).max_abs_residual / scale < 1e-13, label
        w = 1.0 / sol.width_inverse
        ends = sol.profile.value(np.array([sol.xi0 - 40.0 * w, sol.xi0 + 40.0 * w]))
        level = max(abs(sol.left_limit), abs(sol.right_limit))
        np.testing.assert_allclose(
            ends, [sol.left_limit, sol.right_limit], rtol=0, atol=1e-12 * level
        )


def test_residual_empty_grid():
    sol = undriven_solution(ModelParams(1.0, 1.0), 3)
    with pytest.raises(EmptyGrid):
        residual(sol, grid=np.array([]))
    with pytest.raises(EmptyGrid):
        residual(sol, grid=np.array([0.0]))  # the lone point sits on the pole


def test_residual_skips_singular_points():
    sol = undriven_solution(ModelParams(1.0, 1.0), 3)
    report = residual(sol, grid=np.array([-1.0, 0.0, 1.0]))
    assert report.skipped == 1
    assert report.max_abs_residual < 1e-12


def _full_array_residual(sol, rho, xi, mode):
    """residual() as one pass over the whole grid and one np.argmax."""
    p = sol.profile
    sing = p.is_singular(xi)
    keep = ~sing
    psi, *derivatives = (v[keep] for v in p.kernel(xi, 2 if mode == "analytic" else 0))
    xi_ok = xi[keep]
    if mode == "analytic":
        d1, d2 = derivatives
    else:
        h = 1e-4
        up, dn = p.value(xi_ok + h), p.value(xi_ok - h)
        d1 = (up - dn) / (2.0 * h)
        d2 = (up - 2.0 * psi + dn) / (h * h)
    a1, b1, drive = sol.params.a1, sol.params.b1, sol.eta_gamma
    with np.errstate(invalid="ignore", over="ignore"):
        res = d2 + rho * d1 - b1 * psi * psi * psi + a1 * psi + drive
        k = int(np.argmax(np.abs(res)))
    return ResidualReport(
        max_abs_residual=float(abs(res[k])),
        argmax_xi=float(xi_ok[k]),
        grid=(float(xi.min()), float(xi.max()), int(xi.size)),
        derivative_mode=mode,
        skipped=int(np.count_nonzero(sing)),
    )


_B = kinks._BLOCK


@settings(deadline=None, max_examples=60)
@given(
    member=st.integers(0, 36),
    n=st.sampled_from((1, 2, _B - 1, _B, _B + 1, 3 * _B + 5)),
    mode=st.sampled_from(("analytic", "fd")),
    perturb=st.sampled_from((0.0, 1e-3, -0.5)),
    poles=st.lists(st.integers(0, 3 * _B + 4), max_size=4),
)
def test_residual_blocks_match_full_array(member, n, mode, perturb, poles):
    label, sol = catalogue(2.0, 0.5)[member]
    w = 1.0 / sol.width_inverse
    xi = sol.xi0 + np.linspace(-40.0 * w, 40.0 * w, n)
    # put the pole itself on some grid points, for residual to skip
    for i in poles:
        if sol.singularities and i < n - 1:
            xi[i] = sol.singularities[0]
    rho = sol.forced_rho * (1.0 + perturb)
    want = _full_array_residual(sol, rho, xi, mode)
    assume(want.skipped < n)
    got = residual(sol, rho=rho, grid=xi, mode=mode)
    assert repr(got) == repr(want), label


def _unit_kink():
    return undriven_solution(ModelParams(1.0, 1.0), 1)


def test_residual_tie_across_a_block_boundary_keeps_the_first():
    # at rho = 1e300 the residual is rho*psi', and psi' of this kink is
    # even in xi bit for bit, so -0.5 (last of block 0) and 0.5 (first of
    # block 1) tie for the maximum
    sol = _unit_kink()
    xi = np.concatenate([np.linspace(-40.0, -0.5, _B), np.linspace(0.5, 40.0, _B)])
    left = residual(sol, rho=1e300, grid=np.array([-0.5]))
    right = residual(sol, rho=1e300, grid=np.array([0.5]))
    assert left.max_abs_residual == right.max_abs_residual
    got = residual(sol, rho=1e300, grid=xi)
    assert (got.max_abs_residual, got.argmax_xi) == (left.max_abs_residual, -0.5)
    assert repr(got) == repr(_full_array_residual(sol, 1e300, xi, "analytic"))


def test_residual_first_nan_wins_across_blocks():
    # at rho = inf the residual is -inf wherever psi' < 0 (a tie over all of
    # block 0) and inf*0 = nan where psi' underflows to 0, beyond about 1054
    # widths: the first nan, at the start of block 1, wins over both
    sol = _unit_kink()
    xi = np.concatenate(
        [np.linspace(-40.0, 40.0, _B), [2000.0], np.linspace(-40.0, 40.0, _B), [3000.0]]
    )
    with np.errstate(invalid="ignore"):
        got = residual(sol, rho=math.inf, grid=xi)
        block0 = residual(sol, rho=math.inf, grid=xi[:_B])
    assert math.isnan(got.max_abs_residual) and got.argmax_xi == 2000.0
    assert repr(got) == repr(_full_array_residual(sol, math.inf, xi, "analytic"))
    assert (block0.max_abs_residual, block0.argmax_xi) == (math.inf, -40.0)


def test_residual_allocates_block_temporaries_only():
    # one kernel pass per block of the grid: whole-grid temporaries made
    # the peak 7.4 MB on this grid, where the grid itself is 0.8 MB
    sol = _unit_kink()
    xi = verification_grid(sol, n=100_000)
    tracemalloc.start()
    try:
        residual(sol, grid=xi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


def test_integrate_second_order_tracks_profile():
    sol = undriven_solution(ModelParams(1.0, 1.0), 1)
    assert rk4_sup(sol, 1e-2) < 1e-6


def test_integrate_second_order_backward_direction():
    sol = undriven_solution(ModelParams(1.0, 1.0), 2)  # negative forced rho
    assert sol.forced_rho < 0.0
    assert rk4_sup(sol, 1e-2) < 1e-6


def test_integration_span_validation():
    p = ModelParams(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        integrate_second_order(p, 0.1, 0.0, (0.0, 1.0), 0.0)
    with pytest.raises(ValueError):
        integrate_second_order(p, 0.1, 0.0, (2.0, 2.0), 1e-2)
    with pytest.raises(ValueError):
        integrate_riccati(1.0, 1.0, 0.1, (0.0, 1.0), -1e-2)


def test_trajectory_step_is_signed():
    p = ModelParams(1.0, 1.0, 1.0)
    fwd = integrate_second_order(p, 0.5, 0.0, (0.0, 1.0), 0.25)
    bwd = integrate_second_order(p, 0.5, 0.0, (1.0, 0.0), 0.25)
    assert fwd.step > 0.0 > bwd.step
    assert fwd.xi_values[0] == 0.0 and bwd.xi_values[0] == 1.0
    assert fwd.xi_values.size == 5


def test_integrate_second_order_blowup_keeps_partial_trajectory():
    p = ModelParams(1.0, 1.0, 0.0)
    with pytest.raises(NonFinite) as exc:
        integrate_second_order(p, 10.0, 0.0, (0.0, 5.0), 1e-3)
    traj = exc.value.trajectory
    assert isinstance(traj, Trajectory)
    assert traj.xi_values.size >= 1
    assert np.all(np.isfinite(traj.psi_values))
    assert isinstance(exc.value.xi, float)


def test_integrate_riccati_logistic():
    traj = integrate_riccati(-1.0, 1.0, 0.5, (0.0, 6.0), 1e-3)
    exact = 1.0 / (1.0 + np.exp(-traj.xi_values))
    assert float(np.max(np.abs(traj.psi_values - exact))) < 1e-9
    assert traj.dpsi_values[0] == pytest.approx(0.25, rel=1e-15)


def test_integrate_riccati_blowup():
    with pytest.raises(NonFinite):
        integrate_riccati(1.0, 0.0, 1.0, (0.0, 2.0), 1e-3)


def test_compare_rejects_pole_crossing():
    sol = undriven_solution(ModelParams(1.0, 1.0), 3)
    traj = Trajectory(
        xi_values=np.array([-0.5, 0.0, 0.5]),
        psi_values=np.zeros(3),
        dpsi_values=np.zeros(3),
        step=0.5,
    )
    with pytest.raises(DomainMismatch):
        compare(traj, sol)


def test_compare_measures_sup_distance():
    sol = undriven_solution(ModelParams(1.0, 1.0), 1)
    xi = np.linspace(-2.0, 2.0, 5)
    vals = sol.profile.value(xi)
    traj = Trajectory(xi, vals + 1e-3, np.zeros(5), 1.0)
    assert compare(traj, sol) == pytest.approx(1e-3, rel=1e-10)


def test_rk4_halving_ratio_is_fourth_order():
    sol = undriven_solution(ModelParams(1.0, 1.0), 1)
    ratio = rk4_sup(sol, 2e-2) / rk4_sup(sol, 1e-2)
    assert 12.0 <= ratio <= 20.0


# ------------------------------------------ bit identity of the RK4 loops
#
# The integrators were once written with one closure call per stage; the two
# references below are those loops, kept to prove that the straight-line
# loops round every stage, store and blow-up exactly as they did.


def _reference_second_order(params, psi0, dpsi0, xi_span, step):
    lo, hi, n, h = _rk4_span(xi_span, step)
    a1, b1, rho, drive = params.a1, params.b1, params.rho, params.drive
    m = math.sqrt(a1 / b1)
    big = _BLOWUP * max(m, math.sqrt(a1) * m)

    def acc(y, v):
        return -rho * v + b1 * y * y * y - a1 * y - drive

    xs = lo + h * np.arange(n + 1)
    ys = np.empty(n + 1)
    vs = np.empty(n + 1)
    y, v = float(psi0), float(dpsi0)
    ys[0], vs[0] = y, v
    for i in range(n):
        k1y = v
        k1v = acc(y, v)
        k2y = v + 0.5 * h * k1v
        k2v = acc(y + 0.5 * h * k1y, k2y)
        k3y = v + 0.5 * h * k2v
        k3v = acc(y + 0.5 * h * k2y, k3y)
        k4y = v + h * k3v
        k4v = acc(y + h * k3y, k4y)
        y += h * (k1y + 2.0 * k2y + 2.0 * k3y + k4y) / 6.0
        v += h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0
        if not (math.isfinite(y) and math.isfinite(v)) or abs(y) > big or abs(v) > big:
            partial = Trajectory(xs[: i + 1], ys[: i + 1].copy(), vs[: i + 1].copy(), h)
            raise NonFinite(
                f"integration blew up at xi={xs[i + 1]}", xi=float(xs[i + 1]), trajectory=partial
            )
        ys[i + 1], vs[i + 1] = y, v
    return Trajectory(xs, ys, vs, h)


def _reference_riccati(c1, c2, y0, xi_span, step):
    lo, hi, n, h = _rk4_span(xi_span, step)

    def slope(y):
        return c1 * y * y + c2 * y

    xs = lo + h * np.arange(n + 1)
    ys = np.empty(n + 1)
    ds = np.empty(n + 1)
    y = float(y0)
    ys[0], ds[0] = y, slope(y)
    for i in range(n):
        k1 = slope(y)
        k2 = slope(y + 0.5 * h * k1)
        k3 = slope(y + 0.5 * h * k2)
        k4 = slope(y + h * k3)
        y += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        if not math.isfinite(y) or abs(y) > _BLOWUP:
            partial = Trajectory(xs[: i + 1], ys[: i + 1].copy(), ds[: i + 1].copy(), h)
            raise NonFinite(
                f"integration blew up at xi={xs[i + 1]}", xi=float(xs[i + 1]), trajectory=partial
            )
        ys[i + 1], ds[i + 1] = y, slope(y)
    return Trajectory(xs, ys, ds, h)


def _outcome(integrate, *args):
    """(None, trajectory) on success, ((xi, message), partial) on blow-up."""
    try:
        return None, integrate(*args)
    except NonFinite as exc:
        return (exc.xi, str(exc)), exc.trajectory


def _assert_same_outcome(got, want):
    assert got[0] == want[0]
    for field in ("xi_values", "psi_values", "dpsi_values"):
        assert np.array_equal(getattr(got[1], field), getattr(want[1], field)), field
    assert got[1].step == want[1].step


def _second_order_args(log_a1, log_b1, rho_w, drive_w, psi_w, dpsi_w, start_w, length_w,
                       log_step_w):
    """Scale-free draw: psi in units of sqrt(a1/b1), xi in widths 1/sqrt(a1)."""
    a1, b1 = 10.0**log_a1, 10.0**log_b1
    k, s = math.sqrt(a1), math.sqrt(a1 / b1)
    params = ModelParams(a1, b1, rho_w * k, gamma1=1.0, eta=drive_w * a1 * s)
    span = (start_w / k, (start_w + length_w) / k)
    return params, psi_w * s, dpsi_w * s * k, span, 10.0**log_step_w / k


def _riccati_args(log_c1, log_c2, c1_sign, c2_sign, y_w, start_w, length_w, log_step_w):
    """y in units of the nonzero fixed point |c2/c1|, xi in units of 1/|c2|."""
    c1, c2 = c1_sign * 10.0**log_c1, c2_sign * 10.0**log_c2
    r = 10.0**log_c2
    span = (start_w / r, (start_w + length_w) / r)
    return c1, c2, y_w * abs(c2 / c1), span, 10.0**log_step_w / r


_SPAN_W = st.floats(-20.0, 20.0).filter(lambda x: abs(x) >= 0.5)

# (draw, blows up): a forward kink, a backward span, and a step of 3 widths
_SECOND_ORDER_EXAMPLES = [
    ((0.0, 0.0, 2.1213203435596428, 0.0, 0.9, 0.0, -10.0, 20.0, -1.5), False),
    ((0.0, 0.0, -1.0, 0.0, 0.5, 0.0, 10.0, -20.0, -1.0), False),
    ((3.0, -3.0, 0.0, 0.1, 3.0, 3.0, 0.0, 20.0, 0.5), True),
]
# the logistic curve, and a solution with a pole in the span
_RICCATI_EXAMPLES = [
    ((0.0, 0.0, -1.0, 1.0, 0.5, 0.0, 6.0, -1.5), False),
    ((0.0, 0.0, 1.0, 1.0, 2.0, 0.0, 10.0, -1.0), True),
]


@pytest.mark.parametrize(
    "integrate,args,blows_up",
    [(integrate_second_order, _second_order_args(*d), b) for d, b in _SECOND_ORDER_EXAMPLES]
    + [(integrate_riccati, _riccati_args(*d), b) for d, b in _RICCATI_EXAMPLES],
)
def test_bit_identity_examples_reach_both_outcomes(integrate, args, blows_up):
    assert (_outcome(integrate, *args)[0] is not None) == blows_up


def _with_examples(examples):
    def wrap(test):
        for draw, _ in examples:
            test = example(*draw)(test)
        return test

    return wrap


@settings(deadline=None, max_examples=150)
@given(
    log_a1=st.floats(-3.0, 3.0),
    log_b1=st.floats(-3.0, 3.0),
    rho_w=st.floats(-4.0, 4.0),
    drive_w=st.floats(-0.5, 0.5),
    psi_w=st.floats(-3.0, 3.0),
    dpsi_w=st.floats(-3.0, 3.0),
    start_w=st.floats(-10.0, 10.0),
    length_w=_SPAN_W,
    log_step_w=st.floats(-1.5, 0.5),
)
@_with_examples(_SECOND_ORDER_EXAMPLES)
def test_second_order_loop_is_bit_identical(
    log_a1, log_b1, rho_w, drive_w, psi_w, dpsi_w, start_w, length_w, log_step_w
):
    args = _second_order_args(
        log_a1, log_b1, rho_w, drive_w, psi_w, dpsi_w, start_w, length_w, log_step_w
    )
    _assert_same_outcome(
        _outcome(integrate_second_order, *args), _outcome(_reference_second_order, *args)
    )


@settings(deadline=None, max_examples=150)
@given(
    log_c1=st.floats(-3.0, 3.0),
    log_c2=st.floats(-3.0, 3.0),
    c1_sign=st.sampled_from([-1.0, 1.0]),
    c2_sign=st.sampled_from([-1.0, 1.0]),
    y_w=st.floats(-3.0, 3.0),
    start_w=st.floats(-5.0, 5.0),
    length_w=_SPAN_W,
    log_step_w=st.floats(-1.5, 0.5),
)
@_with_examples(_RICCATI_EXAMPLES)
def test_riccati_loop_is_bit_identical(
    log_c1, log_c2, c1_sign, c2_sign, y_w, start_w, length_w, log_step_w
):
    args = _riccati_args(log_c1, log_c2, c1_sign, c2_sign, y_w, start_w, length_w, log_step_w)
    _assert_same_outcome(_outcome(integrate_riccati, *args), _outcome(_reference_riccati, *args))
