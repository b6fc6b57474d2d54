"""Tests of the mpmath reference on its own terms (no glkinks import).

Run with: python3 -m pytest perfbench
"""

from __future__ import annotations

import math

import mpmath as mp
import pytest

import reference as R

TINY = mp.mpf(10) ** -30


def members():
    out = [R.montroll(0, 1, 0.3), R.montroll(1, -1), R.montroll(-1, 0, -0.2)]
    for a1, b1 in ((1.0, 1.0), (2.0, 0.3), (1e-3, 1e3)):
        out += [R.undriven(a1, b1, i, 0.4) for i in (1, 2, 3, 4)]
        for branch in "+-":
            for variant in ("first", "second"):
                out += [R.lambda_zero_field(a1, b1, branch, variant, lam, -0.1)
                        for lam in (-2.5, 0.3, 7.0)]
    for a1, b1, eps, case, branch in ((3.0, 0.7, 2.2772, "I", "+"), (3.0, 0.7, 1.0351, "I", "-"),
                                      (0.7, 3.0, 0.5313, "II", "+"),
                                      (0.7, 3.0, -0.5313, "II", "-")):
        out.append(R.driven(a1, b1, eps, case, branch))
        out += [R.driven(a1, b1, eps, case, branch, 0.2, lam) for lam in (-1.3, 0.05, 0.4, 9.0)]
    return out


def sample_points(p):
    """Points within +-6 widths of xi0, at least half a width from any pole."""
    pts = [p.xi0 + k * p.width for k in (-6, -2.5, -0.7, 0.3, 1.9, 6)]
    return [x for x in pts if all(abs(x - q) > p.width / 2 for q in p.poles())]


@pytest.mark.parametrize("p", members(), ids=lambda p: f"{p.family}-lam{p.lam}")
def test_solves_riccati_and_second_order_equation(p):
    scale = max(abs(v) for v in p.levels) + abs(p.shift) + 1
    for x in sample_points(p):
        assert abs(p.riccati_defect(x)) < TINY * scale**2 / p.width
        norm = p.a1 * scale + p.b1 * scale**3 + abs(p.drive)
        assert abs(p.residual(x)) < TINY * norm


@pytest.mark.parametrize("p", [p for p in members() if p.lam is not None],
                         ids=lambda p: f"{p.family}-lam{p.lam}")
def test_general_formula_matches_closed_form_k(p):
    a = p.n / p.d0
    for x in sample_points(p):
        e = mp.exp(-p.c2 * (x - p.xi0))
        assert abs(p.phi(x) - a / (1 + p.k * e)) < TINY * (abs(a) + 1)


@pytest.mark.parametrize("p", members(), ids=lambda p: f"{p.family}-lam{p.lam}")
def test_midpoint_and_pole(p):
    mid = p.midpoint()
    if mid is None:
        (pole,) = p.poles()
        assert abs(1 / p.phi(pole + TINY * p.width)) < mp.mpf(10) ** -25
    else:
        assert p.poles() == []
        assert abs(p.value(mid) - sum(p.levels) / 2) < TINY * (abs(p.n / p.d0) + 1)


@pytest.mark.parametrize("p", members(), ids=lambda p: f"{p.family}-lam{p.lam}")
def test_levels_are_the_limits(p):
    left, right = p.levels
    far = 80 * p.width
    assert abs(p.value(p.xi0 - far) - left) < mp.mpf(10) ** -25 * (abs(left) + 1)
    assert abs(p.value(p.xi0 + far) - right) < mp.mpf(10) ** -25 * (abs(right) + 1)


@pytest.mark.parametrize("fig", [(3.0, 0.7, 2.2772, "I", "+"), (3.0, 0.7, 1.0351, "I", "-"),
                                 (0.7, 3.0, 0.5313, "II", "+"), (0.7, 3.0, -0.5313, "II", "-"),
                                 (1e-3, 1e3, 1.1e-3, "I", "+"), (50.0, 0.02, -30.0, "II", "-")])
def test_pole_exactly_inside_the_forbidden_window(fig):
    a1, b1, eps, case, branch = fig
    bound = R.lambda_window_bound(a1, b1, eps, case, branch)
    for t in (-3.0, -0.5, 1e-6, 0.3, 0.999999, 1.000001, 2.0, 40.0):
        p = R.driven(a1, b1, eps, case, branch, 0.0, bound * t)
        assert bool(p.poles()) == (0 < t < 1), t


@pytest.mark.parametrize("fig", [(3.0, 0.7, 2.2772, "I", "+"), (0.7, 3.0, -0.5313, "II", "-")])
def test_lambda_to_infinity_recovers_the_particular_kink(fig):
    base = R.driven(*fig)
    x = base.xi0 + 0.7 * base.width
    gaps = [abs(R.driven(*fig, 0.0, lam).value(x) - base.value(x)) for lam in (1e2, 1e4, 1e6)]
    assert gaps[0] > gaps[1] > gaps[2] and gaps[2] < 1e-5


def test_lambda_for_k_ratio_inverts_k():
    for p in members():
        if p.lam is None:
            continue
        base = R.Profile(p.family, p.a1, p.b1, p.rho, p.drive, p.c1, p.c2, p.n, p.d0, p.shift,
                         p.xi0, None, p.r_sign)
        for t in (-40.0, -0.02, 0.5, 3.0):
            lam = R.lambda_for_k_ratio(base, t)
            q = R.Profile(p.family, p.a1, p.b1, p.rho, p.drive, p.c1, p.c2, p.n, p.d0, p.shift,
                          p.xi0, lam, p.r_sign)
            assert abs(q.k - t * base.k) < TINY * abs(t * base.k)


def test_figure_frictions_match_their_captions():
    captions = {(3.0, 0.7, 2.2772, "I", "+"): 0.90326, (3.0, 0.7, 1.0351, "I", "-"): 2.39335,
                (0.7, 3.0, 0.5313, "II", "+"): 1.51635, (0.7, 3.0, -0.5313, "II", "-"): 0.435766}
    for args, rho in captions.items():
        assert abs(float(R.driven(*args).rho) - rho) < 1e-3


def test_epsilon_window_keeps_rho_positive():
    for case in ("I", "II"):
        for branch in "+-":
            lo, hi = R.epsilon_window(2.0, 0.5, case, branch)
            for t in (0.01, 0.5, 0.99):
                eps = lo + t * (hi - lo)
                assert R.driven(2.0, 0.5, eps, case, branch).rho > 0
            assert math.isclose(max(abs(lo), abs(hi)), 2 / math.sqrt(3) * 2.0)
