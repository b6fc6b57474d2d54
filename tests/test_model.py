"""Parameter handling, driven-setup roots, admissibility windows."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glkinks.errors import ComplexDelta, NonPositiveCoefficient
from glkinks.figures import FIGURES
from glkinks.model import (
    SQRT2,
    AdmissibleRange,
    CondonParams,
    ModelParams,
    driven_setup,
    epsilon_admissible_interval,
    epsilon_from_field,
    map_condon_params,
    undriven_rho,
    validate_params,
)

# Reference setups: (fig, case, front sign, rho, r_plus, r_minus)
_REFERENCE_RHO = {
    1: ("I", 1, 0.90326100876072779, 3.384683101862719, 2.3310435354074714),
    2: ("I", -1, 2.393348970923884, 2.8602891116549256, -0.26220873125866095),
    3: ("II", 1, 1.5163549178704339, 1.6350551574691805, 1.1256606247148528),
    4: ("II", -1, 0.4357659326406198, -1.1256606247148528, -1.6350551574691805),
}


def _setup_for(fig_id):
    spec = FIGURES[fig_id]
    return driven_setup(spec.a1, spec.b1, spec.epsilon)


def test_model_params_drive():
    p = ModelParams(1.0, 2.0, rho=0.5, gamma1=3.0, eta=0.25)
    assert p.drive == 0.75
    assert ModelParams(1.0, 1.0).drive == 0.0


def test_validate_params_rejects_nonpositive_coefficients():
    with pytest.raises(NonPositiveCoefficient):
        validate_params(ModelParams(0.0, 1.0))
    with pytest.raises(NonPositiveCoefficient):
        validate_params(ModelParams(1.0, -2.0))
    for bad in (math.inf, math.nan):
        with pytest.raises(NonPositiveCoefficient, match="finite"):
            validate_params(ModelParams(bad, 1.0))
        with pytest.raises(NonPositiveCoefficient, match="finite"):
            validate_params(ModelParams(1.0, bad))
    p = ModelParams(0.3, 4.0)
    assert validate_params(p) is p


def test_undriven_rho_value_and_sign():
    assert undriven_rho(1.0) == pytest.approx(1.5 * SQRT2, rel=1e-15)
    assert undriven_rho(4.0, -1) == pytest.approx(-3.0 * SQRT2, rel=1e-15)


@pytest.mark.parametrize("fig_id", sorted(_REFERENCE_RHO))
def test_driven_setup_reference_roots(fig_id):
    _, _, _, r_plus, r_minus = _REFERENCE_RHO[fig_id]
    setup = _setup_for(fig_id)
    assert setup.r_plus == pytest.approx(r_plus, rel=1e-13)
    assert setup.r_minus == pytest.approx(r_minus, rel=1e-13)
    assert setup.r_plus >= setup.r_minus
    spec = FIGURES[fig_id]
    expected_drive = spec.a1 * spec.epsilon - spec.b1 * spec.epsilon**3
    assert setup.eta_times_gamma1 == pytest.approx(expected_drive, rel=1e-15)


@pytest.mark.parametrize("fig_id", sorted(_REFERENCE_RHO))
def test_forced_rho_reference_values(fig_id):
    case, sign, rho, _, _ = _REFERENCE_RHO[fig_id]
    setup = _setup_for(fig_id)
    assert setup.rho(case, sign) == pytest.approx(rho, rel=1e-13)
    assert setup.rho(case, -sign) == pytest.approx(-rho, rel=1e-13)


def test_epsilon_sign_flip_mirrors_roots():
    # figs 3 and 4 share coefficients with opposite epsilon
    s3, s4 = _setup_for(3), _setup_for(4)
    assert s4.r_plus == pytest.approx(-s3.r_minus, rel=1e-13)
    assert s4.r_minus == pytest.approx(-s3.r_plus, rel=1e-13)


def test_rate_selects_case_root():
    setup = _setup_for(1)
    assert setup.rate("I") == setup.r_plus
    assert setup.rate("II") == setup.r_minus
    assert setup.rate("2") == setup.r_minus
    with pytest.raises(ValueError):
        setup.rate("III")


def test_driven_setup_complex_delta():
    with pytest.raises(ComplexDelta):
        driven_setup(1.0, 1.0, 2.0)
    with pytest.raises(NonPositiveCoefficient):
        driven_setup(-1.0, 1.0, 0.1)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
def test_driven_setup_rejects_non_finite_epsilon(eps):
    with pytest.raises(ValueError, match="epsilon must be finite"):
        driven_setup(1.0, 1.0, eps)


def test_driven_setup_boundary_epsilon_clamps_to_zero():
    a1, b1 = 3.0, 0.7
    eps = 2.0 / math.sqrt(3.0) * math.sqrt(a1 / b1)
    setup = driven_setup(a1, b1, eps)
    assert setup.delta_eps == 0.0
    assert setup.r_plus == setup.r_minus


def test_sign_argument_forms():
    setup = _setup_for(1)
    assert setup.rho("I", "+") == setup.rho("I", 1)
    assert setup.rho("I", "-") == setup.rho("I", -1)
    with pytest.raises(ValueError):
        setup.rho("I", 0)


@settings(deadline=None)
@given(
    a1=st.floats(0.05, 20.0),
    b1=st.floats(0.05, 20.0),
    t=st.floats(-0.999, 0.999),
)
def test_driven_roots_satisfy_sum_and_product(a1, b1, t):
    eps = t * 2.0 / math.sqrt(3.0) * math.sqrt(a1 / b1)
    setup = driven_setup(a1, b1, eps)
    scale = 1.0 + abs(setup.r_plus) + abs(setup.r_minus)
    assert setup.r_plus + setup.r_minus == pytest.approx(
        3.0 * math.sqrt(b1) * eps, abs=1e-9 * scale
    )
    assert setup.r_plus * setup.r_minus == pytest.approx(
        3.0 * b1 * eps * eps - a1, abs=1e-9 * scale * scale
    )


def test_admissible_range_contains_and_str():
    r = AdmissibleRange(0.0, 1.0, lower_open=False, upper_open=True)
    assert r.contains(0.0)
    assert r.contains(0.999)
    assert not r.contains(1.0)
    assert not r.contains(-1e-12)
    assert str(r) == "[0, 1)"
    r2 = AdmissibleRange(-2.0, 3.5, lower_open=True, upper_open=False)
    assert not r2.contains(-2.0)
    assert r2.contains(3.5)
    assert str(r2) == "(-2, 3.5]"


def test_epsilon_admissible_interval_windows():
    root = 1.0
    outer = 2.0 / math.sqrt(3.0)
    w = epsilon_admissible_interval(1.0, 1.0, "I", 1)
    assert (w.lower, w.upper) == pytest.approx((root, outer), rel=1e-15)
    assert w.lower_open and not w.upper_open
    w = epsilon_admissible_interval(1.0, 1.0, "I", -1)
    assert (w.lower, w.upper) == pytest.approx((-outer, root), rel=1e-15)
    assert not w.lower_open and w.upper_open
    w = epsilon_admissible_interval(1.0, 1.0, "II", 1)
    assert (w.lower, w.upper) == pytest.approx((-root, outer), rel=1e-15)
    w = epsilon_admissible_interval(1.0, 1.0, "II", -1)
    assert (w.lower, w.upper) == pytest.approx((-outer, -root), rel=1e-15)


@pytest.mark.parametrize("fig_id", sorted(_REFERENCE_RHO))
def test_reference_epsilons_are_admissible(fig_id):
    case, sign, _, _, _ = _REFERENCE_RHO[fig_id]
    spec = FIGURES[fig_id]
    window = epsilon_admissible_interval(spec.a1, spec.b1, case, sign)
    assert window.contains(spec.epsilon)


def test_epsilon_from_field_round_trip():
    spec = FIGURES[1]
    setup = driven_setup(spec.a1, spec.b1, spec.epsilon)
    roots = epsilon_from_field(spec.a1, spec.b1, 1.0, setup.eta_times_gamma1)
    eps_values = [eps for eps, _ in roots]
    assert eps_values == sorted(eps_values)
    matches = [
        (eps, ok) for eps, ok in roots if abs(eps - spec.epsilon) < 1e-9
    ]
    assert len(matches) == 1
    assert matches[0][1]  # the recovered shift keeps the roots real
    # gamma1 only scales eta
    again = epsilon_from_field(spec.a1, spec.b1, 2.0, setup.eta_times_gamma1 / 2.0)
    assert [e for e, _ in again] == pytest.approx(eps_values, rel=1e-9)


def test_epsilon_from_field_zero_drive():
    roots = epsilon_from_field(4.0, 1.0, 1.0, 0.0)
    assert [e for e, _ in roots] == pytest.approx([-2.0, 0.0, 2.0], abs=1e-9)
    assert all(ok for _, ok in roots)


_FOLD = 2.0 / (3.0 * math.sqrt(3.0))


@pytest.mark.parametrize("a1,b1", [(1.0, 1.0), (3.0, 0.7), (1e-6, 1e6), (1e6, 1e-6)])
@pytest.mark.parametrize("times_fold,count", [(0.5, 3), (1.5, 1), (-0.5, 3), (-1.5, 1)])
def test_epsilon_from_field_counts_roots_in_the_equation_units(a1, b1, times_fold, count):
    # the roots are M*e with e^3 - e + d = 0, d = drive/(a1*M): inside the
    # fold |d| = 2/(3*sqrt(3)) there are three at every scale, beyond it one
    m = math.sqrt(a1 / b1)
    drive = times_fold * _FOLD * a1 * m
    roots = epsilon_from_field(a1, b1, 1.0, drive)
    unit = epsilon_from_field(1.0, 1.0, 1.0, times_fold * _FOLD)
    assert len(roots) == len(unit) == count
    for (eps, ok), (e, ok_unit) in zip(roots, unit):
        assert eps / m == pytest.approx(e, rel=1e-14)
        assert ok == ok_unit == (3.0 * e * e <= 4.0)
        assert abs(b1 * eps**3 - a1 * eps + drive) <= 1e-14 * a1 * m


def test_epsilon_from_field_at_the_fold():
    # a double root and a simple one, each reported once
    roots = epsilon_from_field(1.0, 1.0, 1.0, _FOLD)
    assert [e for e, _ in roots] == pytest.approx([-2.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)])
    assert all(ok for _, ok in roots)


def test_epsilon_from_field_weak_field():
    # the root near 0 is drive/a1 to rounding relative to itself
    a1, b1, drive = 3.0, 0.7, 1e-12
    eps, ok = epsilon_from_field(a1, b1, 1.0, drive)[1]
    assert ok
    assert eps == pytest.approx(drive / a1, rel=1e-14)


def test_epsilon_from_field_rejects_zero_gamma1():
    with pytest.raises(ValueError):
        epsilon_from_field(1.0, 1.0, 0.0, 0.5)


@pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf])
def test_epsilon_from_field_rejects_a_non_finite_drive(eta):
    with pytest.raises(ValueError, match="finite"):
        epsilon_from_field(1.0, 1.0, 1.0, eta)


def test_map_condon_params():
    c = CondonParams(v=1.0, K=2.0, Gamma=0.5, A=6.0, B=1.4, a_field=3.0, k_field=1.5)
    p = map_condon_params(c)
    assert p.rho == pytest.approx(1.0, rel=1e-15)
    assert p.a1 == pytest.approx(3.0, rel=1e-15)
    assert p.b1 == pytest.approx(0.7, rel=1e-15)
    assert p.gamma1 == pytest.approx(2.0, rel=1e-15)
    assert p.eta == 0.0


def test_map_condon_params_errors():
    good = dict(v=1.0, K=2.0, Gamma=0.5, A=6.0, B=1.4, a_field=3.0, k_field=1.5)
    with pytest.raises(ValueError):
        map_condon_params(CondonParams(**{**good, "K": 0.0}))
    with pytest.raises(ValueError):
        map_condon_params(CondonParams(**{**good, "Gamma": -1.0}))
    with pytest.raises(ValueError):
        map_condon_params(CondonParams(**{**good, "k_field": 0.0}))
    with pytest.raises(NonPositiveCoefficient):
        map_condon_params(CondonParams(**{**good, "A": -6.0}))
