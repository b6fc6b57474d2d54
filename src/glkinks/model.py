"""Parameters and admissibility for the damped double-well traveling-wave problem.

The traveling-frame equation treated throughout the package is

    psi'' + rho*psi' - b1*psi^3 + a1*psi + gamma1*eta = 0,

with a1 > 0, b1 > 0, rho the friction coefficient and gamma1*eta a constant
drive.  The driven case is handled through the shift phi = psi + epsilon with
the drive pinned to gamma1*eta = a1*epsilon - b1*eps**3, which turns the cubic
into one with roots 0 and r_pm(eps)/sqrt(b1), where

    r_pm(eps) = (3*sqrt(b1)*eps +/- sqrt(delta_eps)) / 2,
    delta_eps = 4*a1 - 3*b1*eps**2.

Everything downstream (factor pairs, kink profiles, forbidden lambda windows)
is parameterized by these quantities, so they are computed once here and
carried around in frozen containers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComplexDelta, NonPositiveCoefficient, NonPositiveRate

SQRT2 = math.sqrt(2.0)

# Relative slack used only to absorb rounding at the closed admissibility
# boundary eps^2 == 4*a1/(3*b1); anything more negative is a real violation.
_DELTA_CLAMP = 1e-12


def undriven_rho(a1: float, sign: int = 1) -> float:
    """Friction value forced by the undriven factorizations, (3*sqrt(2)/2)*sqrt(a1)."""
    return sign * 1.5 * SQRT2 * math.sqrt(a1)


def _as_sign(sign) -> int:
    """Normalize '+', '-', +1, -1 to an integer sign."""
    if sign in (1, "+"):
        return 1
    if sign in (-1, "-"):
        return -1
    raise ValueError(f"sign must be '+', '-', +1 or -1, got {sign!r}")


@dataclass(frozen=True)
class ModelParams:
    """Coefficients of the traveling-frame equation."""

    a1: float
    b1: float
    rho: float = 0.0
    gamma1: float = 0.0
    eta: float = 0.0

    @property
    def drive(self) -> float:
        """The constant term gamma1*eta."""
        return self.gamma1 * self.eta


def validate_params(params: ModelParams) -> ModelParams:
    """Check that a1 and b1 are finite and positive; returns the params unchanged.

    Raises
    ------
    NonPositiveCoefficient
        If a1 or b1 is not a finite number > 0.
    """
    if not (0.0 < params.a1 < math.inf):
        raise NonPositiveCoefficient(f"a1 must be finite and > 0, got {params.a1}")
    if not (0.0 < params.b1 < math.inf):
        raise NonPositiveCoefficient(f"b1 must be finite and > 0, got {params.b1}")
    return params


@dataclass(frozen=True)
class DrivenSetup:
    """Derived quantities of the shifted (driven) cubic for one epsilon.

    r_plus >= r_minus always; both can be negative when epsilon < 0.
    """

    a1: float
    b1: float
    epsilon: float
    eta_times_gamma1: float
    delta_eps: float
    r_plus: float
    r_minus: float

    def rate(self, case: str) -> float:
        """r_plus for case 'I', r_minus for case 'II'.

        Raises NonPositiveRate if that root is zero: the case's kink is then
        a constant and its lambda family has no bound.
        """
        c = _as_case(case)
        r = self.r_plus if c == "I" else self.r_minus
        if r == 0.0:
            raise NonPositiveRate(
                f"case {c} root vanishes: the kink is constant and no lambda family exists"
            )
        return r

    def rho(self, case: str, sign) -> float:
        """Friction forced by the driven factorization of one case and front sign.

        Case 'I': sign*(r_minus - sqrt(delta))/sqrt(2); case 'II':
        sign*(r_plus + sqrt(delta))/sqrt(2).
        """
        s = _as_sign(sign)
        if _as_case(case) == "I":
            return s * (self.r_minus - math.sqrt(self.delta_eps)) / SQRT2
        return s * (self.r_plus + math.sqrt(self.delta_eps)) / SQRT2

    def lambda_bound(self, case: str, sign) -> float:
        """Signed bound sign*sqrt(b1)/(2r) of one lambda family's forbidden window.

        Lambda strictly between 0 and the bound puts a pole on the real
        axis; at either end the family is a constant.  Raises
        NonPositiveRate where rate(case) does.
        """
        return _as_sign(sign) * math.sqrt(self.b1) / (2.0 * self.rate(case))


def _as_case(case: str) -> str:
    c = str(case).upper()
    if c in ("I", "1"):
        return "I"
    if c in ("II", "2"):
        return "II"
    raise ValueError(f"case must be 'I' or 'II', got {case!r}")


def driven_setup(a1: float, b1: float, epsilon: float) -> DrivenSetup:
    """Build the shifted-cubic quantities for a constant-field drive.

    Parameters
    ----------
    a1, b1 : float
        Positive equation coefficients.
    epsilon : float
        Shift of the field; must satisfy eps^2 <= 4*a1/(3*b1) for the roots
        to stay real.  The boundary case delta_eps == 0 is accepted.

    Raises
    ------
    NonPositiveCoefficient
        If a1 <= 0 or b1 <= 0.
    ComplexDelta
        If 4*a1 - 3*b1*eps^2 < 0 beyond rounding slack.
    ValueError
        If epsilon or the drive a1*eps - b1*eps^3 is not finite.
    """
    validate_params(ModelParams(a1, b1))
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    delta = 4.0 * a1 - 3.0 * b1 * epsilon * epsilon
    if delta < 0.0:
        if delta > -_DELTA_CLAMP * (1.0 + 4.0 * a1):
            delta = 0.0  # closed admissibility endpoint, rounding only
        else:
            raise ComplexDelta(
                f"4*a1 - 3*b1*eps^2 = {delta} < 0 for eps={epsilon}: roots are complex"
            )
    try:
        drive = a1 * epsilon - b1 * epsilon**3
    except OverflowError:  # float ** raises where * would give inf
        drive = math.inf
    if not math.isfinite(drive):
        raise ValueError(f"the drive a1*eps - b1*eps^3 is not finite for eps={epsilon}")
    sqrt_delta = math.sqrt(delta)
    sb = math.sqrt(b1)
    r_plus = (3.0 * sb * epsilon + sqrt_delta) / 2.0
    r_minus = (3.0 * sb * epsilon - sqrt_delta) / 2.0
    return DrivenSetup(
        a1=a1,
        b1=b1,
        epsilon=epsilon,
        eta_times_gamma1=drive,
        delta_eps=delta,
        r_plus=r_plus,
        r_minus=r_minus,
    )


@dataclass(frozen=True)
class AdmissibleRange:
    """A real interval with individually open or closed endpoints."""

    lower: float
    upper: float
    lower_open: bool
    upper_open: bool

    def contains(self, x: float) -> bool:
        if self.lower_open:
            lo_ok = x > self.lower
        else:
            lo_ok = x >= self.lower
        if self.upper_open:
            hi_ok = x < self.upper
        else:
            hi_ok = x <= self.upper
        return lo_ok and hi_ok

    def __str__(self) -> str:
        lo = "(" if self.lower_open else "["
        hi = ")" if self.upper_open else "]"
        return f"{lo}{self.lower:.17g}, {self.upper:.17g}{hi}"


def epsilon_admissible_interval(a1: float, b1: float, case: str, front_sign) -> AdmissibleRange:
    """Epsilon window on which the requested driven branch exists.

    The window is the reality constraint eps^2 <= 4*a1/(3*b1) narrowed to
    where the branch friction is positive:

        case I,  '+': ( sqrt(a1/b1),           (2/sqrt(3))*sqrt(a1/b1) ]
        case I,  '-': [ -(2/sqrt(3))*sqrt(a1/b1), sqrt(a1/b1)          )
        case II, '+': ( -sqrt(a1/b1),          (2/sqrt(3))*sqrt(a1/b1) ]
        case II, '-': [ -(2/sqrt(3))*sqrt(a1/b1), -sqrt(a1/b1)         )
    """
    validate_params(ModelParams(a1, b1))
    root = math.sqrt(a1 / b1)
    outer = 2.0 / math.sqrt(3.0) * root
    c = _as_case(case)
    s = _as_sign(front_sign)
    if c == "I":
        if s > 0:
            return AdmissibleRange(root, outer, True, False)
        return AdmissibleRange(-outer, root, False, True)
    if s > 0:
        return AdmissibleRange(-root, outer, True, False)
    return AdmissibleRange(-outer, -root, False, True)


def epsilon_from_field(
    a1: float, b1: float, gamma1: float, eta: float
) -> tuple[tuple[float, bool], ...]:
    """Solve gamma1*eta == a1*eps - b1*eps^3 for all real eps.

    Returns up to three (epsilon, admissible) pairs sorted by epsilon, where
    admissible means the root keeps delta_eps >= 0.  gamma1 may be any
    nonzero real; it only scales eta.

    With M = sqrt(a1/b1) and eps = M*e the cubic is e^3 - e + d = 0, where
    d = gamma1*eta/(a1*M), so the roots depend on d alone.  The sign of the
    discriminant 4 - 27*d^2 counts them: three distinct real roots where it
    is positive, a double root and a simple one where it is zero, and one
    real root where it is negative.  Three roots come from the
    trigonometric form, one from Cardano's formula.
    """
    validate_params(ModelParams(a1, b1))
    if gamma1 == 0.0:
        raise ValueError("gamma1 must be nonzero to recover eta from the drive")
    m = math.sqrt(a1 / b1)
    d = gamma1 * eta / a1 / m
    if not math.isfinite(d):
        raise ValueError(f"drive/(a1*sqrt(a1/b1)) must be finite, got {d}")
    disc = 4.0 - 27.0 * d * d
    if disc >= 0.0:
        # 2/sqrt(3) * cos(theta - 2*pi*k/3); the clip absorbs rounding at the fold
        theta = math.acos(min(1.0, max(-1.0, -1.5 * math.sqrt(3.0) * d))) / 3.0
        roots = sorted(
            2.0 / math.sqrt(3.0) * math.cos(theta - 2.0 * math.pi * k / 3.0) for k in range(3)
        )
        # the middle root from the product of the roots, -d, and the outer
        # two, whose product is at most -2/3: exact to rounding relative to
        # itself, where the cosine's is relative to 1 (a weak field, d -> 0)
        roots[1] = -d / (roots[0] * roots[2])
        if disc == 0.0:
            # the two copies of the double root are neighbours in sorted
            # order, so the middle root is always one of them
            del roots[1]
    else:
        # Cardano with the cube root taken on the side that does not cancel:
        # e = c + 1/(3c), c = -sign(d)*cbrt(|d|/2*(1 + sqrt(1 - 4/(27*d^2))))
        c = math.copysign(
            np.cbrt(0.5 * abs(d) * (1.0 + math.sqrt(1.0 - 4.0 / (27.0 * d * d)))), -d
        )
        roots = [float(c + 1.0 / (3.0 * c))]
    return tuple((m * e, 3.0 * e * e <= 4.0 * (1.0 + _DELTA_CLAMP)) for e in roots)


@dataclass(frozen=True)
class CondonParams:
    """Raw coefficients of the magnetization-domain form of the equation."""

    v: float
    K: float
    Gamma: float
    A: float
    B: float
    a_field: float
    k_field: float


def map_condon_params(c: CondonParams) -> ModelParams:
    """Map magnetization-domain coefficients onto the traveling-frame ones.

    rho = v/(K*Gamma), a1 = A/K, b1 = B/K, gamma1 = a_field/k_field.
    eta is left at zero; use epsilon_from_field to pick a drive.
    """
    if not (c.K > 0.0 and c.Gamma > 0.0):
        raise ValueError("K and Gamma must be positive")
    if c.k_field == 0.0:
        raise ValueError("k_field must be nonzero")
    params = ModelParams(
        a1=c.A / c.K,
        b1=c.B / c.K,
        rho=c.v / (c.K * c.Gamma),
        gamma1=c.a_field / c.k_field,
        eta=0.0,
    )
    return validate_params(params)
