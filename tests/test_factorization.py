"""Factor-pair identities and the compatible Riccati equations."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glkinks.errors import ComplexDelta
from glkinks.factorization import (
    compatible_riccati,
    factor_driven,
    factor_undriven,
    montroll_roots,
)
from glkinks.figures import FIGURES
from glkinks.kinks import (
    driven_solution,
    lambda_driven_solution,
    lambda_zero_field_solution,
    undriven_solution,
)
from glkinks.model import SQRT2, DrivenSetup, ModelParams, driven_setup, undriven_rho
from glkinks.verify import verification_grid

_ROOTS = (0.0, 1.0, -1.0)


def test_montroll_roots_valid_triples():
    for a in _ROOTS:
        for b in _ROOTS:
            if a == b:
                continue
            d = -(a + b)
            alpha, valid = montroll_roots(a, b, d)
            assert valid
            assert alpha == pytest.approx((b - a) / SQRT2, rel=1e-15)


def test_montroll_roots_invalid_triples():
    assert not montroll_roots(0.0, 0.5, -0.5)[1]
    assert not montroll_roots(0.0, 1.0, 2.0)[1]
    assert not montroll_roots(1.0, 1.0, -2.0)[1]


@settings(deadline=None)
@given(
    a1=st.floats(0.05, 20.0),
    b1=st.floats(0.05, 20.0),
    psi=st.floats(-5.0, 5.0),
    variant=st.sampled_from(["first", "second"]),
    sign=st.sampled_from([1, -1]),
)
def test_undriven_factor_identities(a1, b1, psi, variant, sign):
    fp = factor_undriven(a1, b1, variant, sign)
    scale = 1.0 + (a1 + b1) * (1.0 + psi * psi)
    assert abs(fp.product_defect(psi)) <= 1e-10 * scale
    assert abs(fp.sum_defect(psi)) <= 1e-10 * scale
    assert fp.forced_rho == pytest.approx(undriven_rho(a1, sign), rel=1e-15)


@settings(deadline=None)
@given(
    a1=st.floats(0.05, 20.0),
    b1=st.floats(0.05, 20.0),
    t=st.floats(-0.999, 0.999),
    psi=st.floats(-5.0, 5.0),
    case=st.sampled_from(["I", "II"]),
    sign=st.sampled_from([1, -1]),
)
def test_driven_factor_identities(a1, b1, t, psi, case, sign):
    eps = t * 2.0 / math.sqrt(3.0) * math.sqrt(a1 / b1)
    setup = driven_setup(a1, b1, eps)
    fp = factor_driven(setup, case, sign)
    scale = 1.0 + (a1 + b1) * (1.0 + eps * eps) * (1.0 + psi * psi)
    assert abs(fp.product_defect(psi)) <= 1e-9 * scale
    assert abs(fp.sum_defect(psi)) <= 1e-9 * scale


def test_product_coefficients_match_cubic():
    fp = factor_undriven(3.0, 0.7, "first", 1)
    p3, p2, p1, p0 = fp.product_coefficients()
    q2, q1, q0 = fp.f_coeffs
    assert (p3, p2, p1, p0) == pytest.approx((q2, q1, q0, 0.0), abs=1e-12)
    setup = driven_setup(3.0, 0.7, 2.2772)
    fp = factor_driven(setup, "II", -1)
    p3, p2, p1, _ = fp.product_coefficients()
    assert (p3, p2, p1) == pytest.approx(fp.f_coeffs, rel=1e-12)


def test_factor_variant_validation():
    with pytest.raises(ValueError):
        factor_undriven(1.0, 1.0, "third", 1)


def test_factor_driven_rejects_complex_delta():
    bad = DrivenSetup(
        a1=1.0,
        b1=1.0,
        epsilon=2.0,
        eta_times_gamma1=0.0,
        delta_eps=-8.0,
        r_plus=0.0,
        r_minus=0.0,
    )
    with pytest.raises(ComplexDelta):
        factor_driven(bad, "I", 1)


def test_compatible_riccati_coefficients_and_fixed_point():
    fp = factor_undriven(1.0, 1.0, "first", 1)
    rc = compatible_riccati(fp)
    assert rc.c1 == pytest.approx(1.0 / SQRT2, rel=1e-15)
    assert rc.c2 == pytest.approx(-1.0 / SQRT2, rel=1e-15)
    assert rc.nonzero_fixed_point == pytest.approx(1.0, rel=1e-15)
    setup = driven_setup(3.0, 0.7, 2.2772)
    rc = compatible_riccati(factor_driven(setup, "I", 1))
    assert rc.c1 == pytest.approx(-math.sqrt(0.7) / SQRT2, rel=1e-15)
    assert rc.c2 == pytest.approx(setup.r_plus / SQRT2, rel=1e-15)
    # the nonzero fixed point is the kink's plateau in the shifted variable
    assert rc.nonzero_fixed_point == pytest.approx(setup.r_plus / math.sqrt(0.7), rel=1e-13)


def test_particular_kind_labels():
    assert compatible_riccati(factor_undriven(1.0, 1.0, "first", 1)).y_particular_kind == "undriven-1"
    assert compatible_riccati(factor_undriven(1.0, 1.0, "first", -1)).y_particular_kind == "undriven-2"
    assert compatible_riccati(factor_undriven(1.0, 1.0, "second", 1)).y_particular_kind == "undriven-4"
    assert compatible_riccati(factor_undriven(1.0, 1.0, "second", -1)).y_particular_kind == "undriven-3"
    setup = driven_setup(3.0, 0.7, 2.2772)
    assert compatible_riccati(factor_driven(setup, "II", -1)).y_particular_kind == "driven-II-"


def _riccati_defect(sol, rc, shift=0.0):
    """Sup defect of y' = c1*y^2 + c2*y for y = profile + shift."""
    xi = verification_grid(sol)
    y = sol.profile.value(xi) + shift
    dy = sol.profile.first_derivative(xi)
    return float(np.max(np.abs(dy - rc.c1 * y * y - rc.c2 * y)))


@pytest.mark.parametrize(
    "index,variant,sign",
    [(1, "first", 1), (2, "first", -1), (4, "second", 1), (3, "second", -1)],
)
def test_basic_kinks_solve_their_riccati(index, variant, sign):
    params = ModelParams(3.0, 0.7)
    rc = compatible_riccati(factor_undriven(params.a1, params.b1, variant, sign))
    sol = undriven_solution(params, index)
    assert _riccati_defect(sol, rc) < 1e-10


@pytest.mark.parametrize("fig_id", sorted(FIGURES))
def test_driven_kinks_solve_their_riccati_in_shifted_variable(fig_id):
    spec = FIGURES[fig_id]
    setup = driven_setup(spec.a1, spec.b1, spec.epsilon)
    sign = 1 if spec.branch == "+" else -1
    rc = compatible_riccati(factor_driven(setup, spec.case, sign))
    sol = driven_solution(setup, spec.case, spec.branch)
    assert _riccati_defect(sol, rc, shift=spec.epsilon) < 1e-10
    for lam_str in spec.lambdas:
        lam_sol = lambda_driven_solution(setup, spec.case, spec.branch, float(lam_str))
        assert _riccati_defect(lam_sol, rc, shift=spec.epsilon) < 1e-10


@pytest.mark.parametrize("branch,sign", [("+", 1), ("-", -1)])
@pytest.mark.parametrize("variant,factor_variant", [("first", "second"), ("second", "first")])
def test_lambda_zero_field_pairs_with_opposite_factor_variant(
    branch, sign, variant, factor_variant
):
    """The variant tags of the lambda families and the factor pairs swap."""
    params = ModelParams(1.0, 1.0)
    rc = compatible_riccati(factor_undriven(params.a1, params.b1, factor_variant, sign))
    wrong = compatible_riccati(factor_undriven(params.a1, params.b1, variant, sign))
    for lam in (2.0, 10.0):
        sol = lambda_zero_field_solution(params, branch, variant, lam)
        assert _riccati_defect(sol, rc) < 1e-10
        assert _riccati_defect(sol, wrong) > 1e-2
