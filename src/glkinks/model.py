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
    alpha1 and alpha2 are the corresponding kink rates r_pm/sqrt(2) (they
    inherit the sign of r_pm).
    """

    a1: float
    b1: float
    epsilon: float
    eta_times_gamma1: float
    delta_eps: float
    r_plus: float
    r_minus: float

    @property
    def alpha1(self) -> float:
        return self.r_plus / SQRT2

    @property
    def alpha2(self) -> float:
        return self.r_minus / SQRT2

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
        """Forced friction: rho_case1 for case 'I', rho_case2 for case 'II'."""
        return rho_case1(self, sign) if _as_case(case) == "I" else rho_case2(self, sign)


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
        If epsilon is not finite.
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
    sqrt_delta = math.sqrt(delta)
    sb = math.sqrt(b1)
    r_plus = (3.0 * sb * epsilon + sqrt_delta) / 2.0
    r_minus = (3.0 * sb * epsilon - sqrt_delta) / 2.0
    return DrivenSetup(
        a1=a1,
        b1=b1,
        epsilon=epsilon,
        eta_times_gamma1=a1 * epsilon - b1 * epsilon**3,
        delta_eps=delta,
        r_plus=r_plus,
        r_minus=r_minus,
    )


def rho_case1(setup: DrivenSetup, front_sign) -> float:
    """Friction forced by the first driven factorization: sign*(r_minus - sqrt(delta))/sqrt(2)."""
    s = _as_sign(front_sign)
    return s * (setup.r_minus - math.sqrt(setup.delta_eps)) / SQRT2


def rho_case2(setup: DrivenSetup, front_sign) -> float:
    """Friction forced by the second driven factorization: sign*(r_plus + sqrt(delta))/sqrt(2)."""
    s = _as_sign(front_sign)
    return s * (setup.r_plus + math.sqrt(setup.delta_eps)) / SQRT2


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


def epsilon_admissible_interval(
    a1: float,
    b1: float,
    case: str = "I",
    front_sign=1,
    require_positive_rho: bool = True,
) -> AdmissibleRange:
    """Epsilon window on which the requested driven branch exists.

    With require_positive_rho=False only the reality constraint
    eps^2 <= 4*a1/(3*b1) is applied (both endpoints closed).  Otherwise the
    window additionally demands the branch friction be positive:

        case I,  '+': ( sqrt(a1/b1),           (2/sqrt(3))*sqrt(a1/b1) ]
        case I,  '-': [ -(2/sqrt(3))*sqrt(a1/b1), sqrt(a1/b1)          )
        case II, '+': ( -sqrt(a1/b1),          (2/sqrt(3))*sqrt(a1/b1) ]
        case II, '-': [ -(2/sqrt(3))*sqrt(a1/b1), -sqrt(a1/b1)         )
    """
    validate_params(ModelParams(a1, b1))
    root = math.sqrt(a1 / b1)
    outer = 2.0 / math.sqrt(3.0) * root
    if not require_positive_rho:
        return AdmissibleRange(-outer, outer, False, False)
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
    """
    validate_params(ModelParams(a1, b1))
    if gamma1 == 0.0:
        raise ValueError("gamma1 must be nonzero to recover eta from the drive")
    drive = gamma1 * eta
    # b1*eps^3 - a1*eps + drive = 0
    roots = np.roots([b1, 0.0, -a1, drive])
    scale = max(1.0, abs(a1), abs(b1), abs(drive))
    out = []
    for z in roots:
        if abs(z.imag) <= 1e-9 * scale:
            eps = float(z.real)
            admissible = 4.0 * a1 - 3.0 * b1 * eps * eps >= -_DELTA_CLAMP * (1.0 + 4.0 * a1)
            out.append((eps, admissible))
    out.sort(key=lambda t: t[0])
    return tuple(out)


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
