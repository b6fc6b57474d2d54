"""Qualitative analysis of lambda families: forbidden windows, poles, delays.

The free constant lambda of a general Riccati solution deforms a kink
without changing its speed; the visible effect is a shift of the switching
midpoint.  For each driven family a window of lambda values produces a pole
instead of a kink.  This module computes that window and the midpoint in
closed form and assembles the midpoint-versus-lambda delay curve from them.

The midpoint is the profile's centre xi0 - log|K|/rate, and a lambda
member is its particular kink with K scaled by 1/g or g, g = 1 - lam_b/lam
(kinks._member_k), so its centre is the particular's plus log|g|/alpha.
The curve therefore obeys the delay law

    Delta(lam) = xi_mid(lam) - xi_mid(inf) = log(1 - lam_b/lam) / alpha,

where alpha is the rate of the family's "+" branch and lam_b the window
bound: r/sqrt(2) and LambdaDomain.bound_value for a driven family,
sqrt(a1/2) and -+1/sqrt(a1) for a zero-field "second" one.  Where
g <= 0 the member has a pole and no crossing.
tests/test_analysis.py::_delay_law checks delay_curve against it.

singularity_scan is the numeric pole oracle: it locates poles without the
closed form, to cross-check the ones a constructor reports.  A profile's
denominator is 1 + K*u, affine in u = exp(rate*(xi - xi0)), and u is
monotone in xi: it changes sign at most once on any range.  The scan
therefore evaluates it at the two ends of the range and, if their signs
differ, bisects that one bracket to an absolute 1e-10.  Every evaluation
is MobiusExpProfile.den_at, the denominator at one float in the
overflow-free scaling the kernel uses, in plain float arithmetic: no array
is built.

The default range of the scan and of the midpoint is +-40 widths around
xi0, where u = 1, which is not the kink's centre: for the undriven and
zero-field families the centre lies log(sqrt(b1))/rate from xi0.  The
range stays on xi0 because the midpoint's NoCrossing rule, and with it the
delay curves, are defined on it; verify centres its windows on the kink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import NoCrossing
from .kinks import KinkSolution
from .model import AdmissibleRange, DrivenSetup, _as_case, _as_sign

_BISECT_TOL = 1e-10
_MAX_HALVINGS = 200


@dataclass(frozen=True)
class LambdaDomain:
    """Forbidden lambda window of one driven family.

    bound_value is the signed endpoint sign(branch)*sqrt(b1)/(2r); the
    window is open at both ends, 0 and the bound, on whichever side of 0
    the bound falls.
    """

    forbidden: AdmissibleRange
    bound_value: float


def lambda_forbidden_interval(setup: DrivenSetup, case: str, branch) -> LambdaDomain:
    """Closed-form forbidden lambda window for one case and branch.

    Lambda values strictly between 0 and the bound put a pole on the real
    axis; everything else gives a smooth kink, except the two ends
    themselves, where the profile is a constant and the constructor
    refuses lambda.  Raises NonPositiveRate if the case's root vanishes,
    since then the family itself degenerates.
    """
    c = _as_case(case)
    s = _as_sign(branch)
    bound = setup.lambda_bound(c, s)
    forbidden = AdmissibleRange(
        min(0.0, bound), max(0.0, bound), lower_open=True, upper_open=True
    )
    return LambdaDomain(forbidden=forbidden, bound_value=bound)


def _default_range(solution: KinkSolution) -> tuple[float, float]:
    w = 1.0 / solution.width_inverse
    return (solution.xi0 - 40.0 * w, solution.xi0 + 40.0 * w)


def _bisect(
    f, lo: float, hi: float, tol: float = _BISECT_TOL, flo: float | None = None
) -> float:
    """Sign change of the scalar function f in [lo, hi] by bisection.

    Stops on an exact zero of f at a midpoint, on a bracket narrower than
    tol or after _MAX_HALVINGS halvings, and returns the last midpoint; f
    is not evaluated when [lo, hi] is already narrower than tol.  flo is
    f(lo) when the caller already has it, so that lo is not evaluated twice.
    """
    if hi - lo < tol:
        return 0.5 * (lo + hi)
    if flo is None:
        flo = f(lo)
    for _ in range(_MAX_HALVINGS):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol:
            return mid
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0.0) != (fmid < 0.0):
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def singularity_scan(solution: KinkSolution, xi_range=None) -> tuple[float, ...]:
    """Locate the profile's pole by bisection on its denominator, without the closed form.

    The denominator 1 + K*u is affine in u, which is monotone in xi, so
    it changes sign at most once on xi_range (default +-40 widths around
    xi0): an exact zero at an end is the root, equal signs at both ends
    mean no pole, and otherwise one bisection refines the bracket to
    1e-10.  Cross-checks the singularities the constructor reported.  The
    denominator is the one the profile evaluates with, in its overflow-free
    scaling: off by a positive factor, so its sign change is the true one.
    Raises ValueError unless xi_range is a finite (lo, hi) with lo < hi.
    """
    lo, hi = xi_range if xi_range is not None else _default_range(solution)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"xi_range must be finite with lo < hi, got ({lo}, {hi})")
    lo, hi = float(lo), float(hi)
    den_at = solution.profile.den_at
    d_lo, d_hi = den_at(lo), den_at(hi)
    if d_lo == 0.0:
        return (lo,)
    if d_hi == 0.0:
        return (hi,)
    if (d_lo < 0.0) == (d_hi < 0.0):
        return ()
    return (_bisect(den_at, lo, hi, flo=d_lo),)


def switching_midpoint(solution: KinkSolution) -> float:
    """Where the profile crosses the level halfway between its two limits.

    That is the profile's centre (MobiusExpProfile.centre).  Raises
    NoCrossing when the profile has a pole (it never takes the values
    between its limits) or when the centre lies more than 40 widths from
    xi0.
    """
    p = solution.profile
    xi = p.centre()
    lo, hi = _default_range(solution)
    if p.pole_xis() or not lo <= xi <= hi:
        raise NoCrossing(f"{solution.family} never reaches its midpoint level in range")
    return xi


@dataclass(frozen=True)
class DelayCurve:
    """Midpoint position per lambda, with the lambda -> inf reference."""

    lambdas: tuple[float, ...]
    midpoints: tuple[float, ...]
    midpoint_inf: float

    @property
    def multiplicities(self) -> tuple[int, ...]:
        """Crossings per lambda: always one, since a Moebius profile meets a level once."""
        return (1,) * len(self.lambdas)


def delay_curve(
    make_solution: Callable[[float], KinkSolution],
    lambdas: Iterable[float],
    particular: KinkSolution,
) -> DelayCurve:
    """Midpoint shift of a lambda family against its particular kink.

    make_solution maps a lambda value to the family member; particular is
    the lambda -> inf profile whose midpoint anchors the curve.  lambdas
    must be strictly increasing.
    """
    lams = tuple(float(x) for x in lambdas)
    if len(lams) == 0:
        raise ValueError("no lambda values supplied")
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise ValueError("lambda values must be strictly increasing")
    ref = switching_midpoint(particular)
    mids = tuple(switching_midpoint(make_solution(lam)) for lam in lams)
    return DelayCurve(lambdas=lams, midpoints=mids, midpoint_inf=ref)
