"""Acceptance checks, one test per criterion.

Run with -v to get one pass/fail line per criterion; each test also prints
the measured numbers behind its verdict.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from glkinks.analysis import lambda_forbidden_interval, switching_midpoint
from glkinks.cli import main
from glkinks.factorization import compatible_riccati, factor_driven, factor_undriven
from glkinks.figures import FIGURES
from glkinks.kinks import (
    driven_solution,
    general_riccati,
    lambda_driven_solution,
    lambda_zero_field_solution,
    montroll_solution,
    undriven_solution,
)
from glkinks.model import (
    ModelParams,
    driven_setup,
    undriven_rho,
)
from glkinks.verify import integrate_riccati, residual, verification_grid

from conftest import rk4_sup

_RHO_TOL = {1: 1e-4, 2: 1e-4, 3: 1e-3, 4: 1e-3}


def _recomputed_rho(spec):
    setup = driven_setup(spec.a1, spec.b1, spec.epsilon)
    return setup.rho(spec.case, spec.branch)


def test_criterion_1_friction_reproduction():
    worst = 0.0
    for fig_id, spec in sorted(FIGURES.items()):
        diff = abs(_recomputed_rho(spec) - spec.rho_caption)
        assert diff < _RHO_TOL[fig_id], f"fig{fig_id}: |rho diff| = {diff:.3e}"
        worst = max(worst, diff)
    print(f"criterion 1 friction reproduction: PASS (worst |diff| {worst:.3e})")


def test_criterion_2_residual_suite(family_suite):
    start = time.perf_counter()
    worst, worst_label = 0.0, ""
    for label, sol in family_suite:
        report = residual(sol, mode="analytic")
        assert report.max_abs_residual < 1e-10, label
        if report.max_abs_residual > worst:
            worst, worst_label = report.max_abs_residual, label
    elapsed = time.perf_counter() - start
    assert worst < 1e-8
    assert elapsed < 10.0
    print(
        f"criterion 2 residual suite: PASS ({len(family_suite)} families, "
        f"worst {worst:.3e} at {worst_label}, {elapsed:.1f} s)"
    )


def test_criterion_3_rk4_oracle(family_suite):
    start = time.perf_counter()
    worst_sup, ratios = 0.0, []
    for label, sol in family_suite:
        sup = rk4_sup(sol, 1e-3)
        assert sup < 1e-6, f"{label}: sup = {sup:.3e}"
        ratio = rk4_sup(sol, 2e-2) / rk4_sup(sol, 1e-2)
        assert 12.0 <= ratio <= 20.0, f"{label}: halving ratio = {ratio:.2f}"
        worst_sup = max(worst_sup, sup)
        ratios.append(ratio)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"criterion 3 rk4 oracle: PASS ({len(family_suite)} profiles, worst sup {worst_sup:.3e}, "
        f"ratios [{min(ratios):.2f}, {max(ratios):.2f}], {elapsed:.1f} s)"
    )


def test_criterion_4_general_riccati_vs_integration():
    setup1 = driven_setup(FIGURES[1].a1, FIGURES[1].b1, FIGURES[1].epsilon)
    setup3 = driven_setup(FIGURES[3].a1, FIGURES[3].b1, FIGURES[3].epsilon)

    def shifted_value_at_center(setup, case, sign):
        branch = "+" if sign > 0 else "-"
        sol = driven_solution(setup, case, branch)
        return float(sol.profile.value(0.0)) + setup.epsilon

    combos = []
    rc = compatible_riccati(factor_driven(setup1, "I", 1))
    combos.append(("case I +", rc.c1, rc.c2, 0.0, 0.5))
    rc = compatible_riccati(factor_driven(setup1, "I", -1))
    combos.append(("case I -", rc.c1, rc.c2, shifted_value_at_center(setup1, "I", -1), 10.0))
    rc = compatible_riccati(factor_driven(setup3, "II", 1))
    combos.append(("case II +", rc.c1, rc.c2, 0.0, 2.0))
    rc = compatible_riccati(factor_driven(setup3, "II", -1))
    combos.append(("case II -", rc.c1, rc.c2, shifted_value_at_center(setup3, "II", -1), -1.5))
    rc = compatible_riccati(factor_undriven(1.0, 1.0, "first", 1))
    combos.append(("double well", rc.c1, rc.c2, 0.5, 2.5))

    worst = 0.0
    for label, c1, c2, v0, lam in combos:
        y0 = general_riccati(c1, c2, v0, lam, 0.0, 0.0)
        traj = integrate_riccati(c1, c2, y0, (0.0, 8.0), 1e-3)
        closed = general_riccati(c1, c2, v0, lam, 0.0, traj.xi_values)
        sup = float(np.max(np.abs(traj.psi_values - closed)))
        assert sup < 1e-7, f"{label}: sup = {sup:.3e}"
        worst = max(worst, sup)
    print(f"criterion 4 closed-form Riccati vs RK4: PASS (5 combos, worst sup {worst:.3e})")


def test_criterion_5_singularity_dichotomy():
    total_inside = 0
    for fig_id, spec in sorted(FIGURES.items()):
        setup = driven_setup(spec.a1, spec.b1, spec.epsilon)
        domain = lambda_forbidden_interval(setup, spec.case, spec.branch)
        bound = domain.bound_value
        lo, hi = min(-bound, 2.0 * bound), max(-bound, 2.0 * bound)
        lams = np.linspace(lo, hi, 200)
        cell = (hi - lo) / 199.0
        n_inside = 0
        for lam in lams:
            lam = float(lam)
            sol = lambda_driven_solution(setup, spec.case, spec.branch, lam)
            has_pole = len(sol.singularities) > 0
            expected = domain.forbidden.contains(lam)
            n_inside += expected
            if has_pole != expected:
                near_edge = min(abs(lam), abs(lam - bound)) <= cell * (1.0 + 1e-9)
                assert near_edge, (
                    f"fig{fig_id} lambda={lam}: pole={has_pole}, "
                    f"forbidden={expected}, off-edge"
                )
        assert 30 <= n_inside <= 100, f"fig{fig_id}: degenerate sweep ({n_inside} inside)"
        total_inside += n_inside
    print(
        "criterion 5 singularity dichotomy: PASS "
        f"(4 x 200 lambda sweeps, {total_inside} forbidden points, no off-edge mismatch)"
    )


def test_criterion_6_reductions():
    # driving shift zero reproduces the double-well friction magnitude
    worst_rho = 0.0
    for a1, b1 in ((1.0, 1.0), (3.0, 0.7), (0.7, 3.0)):
        setup = driven_setup(a1, b1, 0.0)
        target = undriven_rho(a1)
        for rho in (setup.rho("I", 1), setup.rho("II", 1)):
            diff = abs(abs(rho) - target)
            assert diff < 1e-12 * (1.0 + target)
            worst_rho = max(worst_rho, diff)

    # lambda -> inf members converge to the particular kinks, error at least
    # 1.8x smaller per doubling of lambda from 10 up
    cases = []
    for spec in FIGURES.values():
        setup = driven_setup(spec.a1, spec.b1, spec.epsilon)
        cases.append(
            (
                f"fig{spec.fig_id}",
                driven_solution(setup, spec.case, spec.branch),
                lambda lam, s=setup, c=spec.case, b=spec.branch: lambda_driven_solution(
                    s, c, b, lam
                ),
                2.0,
            )
        )
    params = ModelParams(1.0, 1.0)
    cases.append(
        (
            "zero-field smooth",
            undriven_solution(params, 1),
            lambda lam: lambda_zero_field_solution(params, "+", "second", lam),
            2.0,
        )
    )
    cases.append(
        (
            "zero-field poled",
            undriven_solution(params, 4),
            lambda lam: lambda_zero_field_solution(params, "+", "first", lam),
            3.0,
        )
    )
    worst_ratio = math.inf
    for label, particular, make, margin in cases:
        grid = verification_grid(particular, margin_widths=margin)
        ref = particular.profile.value(grid)
        errs = [
            float(np.max(np.abs(make(lam).profile.value(grid) - ref)))
            for lam in (10.0, 20.0, 40.0, 80.0, 160.0)
        ]
        for a, b in zip(errs, errs[1:]):
            assert a / b >= 1.8, f"{label}: ratio {a / b:.2f}"
            worst_ratio = min(worst_ratio, a / b)

    # the unit basic kink 1 is the (0, 1) two-root kink
    xi = np.linspace(-25.0, 25.0, 4001)
    gap = float(
        np.max(
            np.abs(
                montroll_solution(0.0, 1.0).profile.value(xi)
                - undriven_solution(params, 1).profile.value(xi)
            )
        )
    )
    assert gap < 1e-14
    print(
        f"criterion 6 reductions: PASS (rho diff {worst_rho:.1e}, "
        f"slowest lambda ratio {worst_ratio:.2f}, two-root gap {gap:.1e})"
    )


def test_criterion_7_delay_saturation():
    for fig_id, spec in sorted(FIGURES.items()):
        setup = driven_setup(spec.a1, spec.b1, spec.epsilon)
        inf_mid = switching_midpoint(driven_solution(setup, spec.case, spec.branch))
        offsets = []
        for k in (1, 2, 3, 4):
            sol = lambda_driven_solution(setup, spec.case, spec.branch, 10.0**k)
            offsets.append(abs(switching_midpoint(sol) - inf_mid))
        assert all(a > b for a, b in zip(offsets, offsets[1:])), f"fig{fig_id}: {offsets}"
        assert offsets[-1] < 1e-4, f"fig{fig_id}: saturation stalls at {offsets[-1]:.2e}"
    print("criterion 7 delay saturation: PASS (offsets strictly decreasing, all four sets)")


def test_criterion_8_cli_determinism(tmp_path, capsys):
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["figure", "--fig", "1", "--out", str(d1)]) == 0
    assert main(["figure", "--fig", "1", "--out", str(d2)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in d1.iterdir())
    assert names == sorted(p.name for p in d2.iterdir())
    assert len(names) == 5
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
    print("criterion 8 cli determinism: PASS (two runs byte-identical, 5 files)")
