"""Linear factor pairs for the cubic traveling-wave operator.

Writing the equation psi'' + rho*psi' + F(psi) = 0 as

    [D - f2(psi)] [D - f1(psi)] psi = 0

requires the two conditions

    f1(psi) * f2(psi) = F(psi) / psi,
    f1 + f2 + psi * df1/dpsi = -rho,

and with f1, f2 linear in psi the second condition pins rho to a discrete
set of values.  The compatible first-order equation [D - f1] psi = 0 is a
constant-coefficient Riccati equation psi' = c1*psi^2 + c2*psi whose
solutions automatically solve the second-order equation at that forced rho.

Two flavors are provided: the symmetric double-well cubic
F(psi) = -b1*psi^3 + a1*psi, and the shifted cubic obtained from a constant
drive, F(phi) = -b1*phi^3 + 3*b1*eps*phi^2 - (3*b1*eps^2 - a1)*phi, whose
nonzero roots are r_plus/sqrt(b1) and r_minus/sqrt(b1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ComplexDelta
from .model import (
    SQRT2,
    DrivenSetup,
    ModelParams,
    _as_case,
    _as_sign,
    undriven_rho,
    validate_params,
)

_MONTROLL_ROOTS = (0.0, 1.0, -1.0)


@dataclass(frozen=True)
class FactorPair:
    """One factorization [D - f2][D - f1] of a cubic traveling-wave operator.

    f1(psi) = f1_slope*psi + f1_offset and likewise for f2.  f_coeffs holds
    (q2, q1, q0) with F(psi)/psi = q2*psi^2 + q1*psi + q0, so the pair is
    self-checkable: the product defect and the sum defect below must both
    vanish identically in psi.
    """

    f1_slope: float
    f1_offset: float
    f2_slope: float
    f2_offset: float
    forced_rho: float
    f_coeffs: tuple[float, float, float]
    label: str

    def f1(self, psi):
        return self.f1_slope * psi + self.f1_offset

    def f2(self, psi):
        return self.f2_slope * psi + self.f2_offset

    def product_defect(self, psi):
        """f1*f2 - F(psi)/psi at the given psi (zero for a valid pair)."""
        q2, q1, q0 = self.f_coeffs
        return self.f1(psi) * self.f2(psi) - (q2 * psi * psi + q1 * psi + q0)

    def sum_defect(self, psi):
        """f1 + f2 + psi*df1/dpsi + forced_rho at the given psi.

        Linear in psi and identically zero for a valid pair, so checking
        two distinct psi values checks the whole identity.
        """
        return self.f1(psi) + self.f2(psi) + psi * self.f1_slope + self.forced_rho

    def product_coefficients(self) -> tuple[float, float, float, float]:
        """Cubic coefficients (p3, p2, p1, p0) of f1(psi)*f2(psi)*psi."""
        p3 = self.f1_slope * self.f2_slope
        p2 = self.f1_slope * self.f2_offset + self.f1_offset * self.f2_slope
        p1 = self.f1_offset * self.f2_offset
        return (p3, p2, p1, 0.0)


@dataclass(frozen=True)
class RiccatiCoefficients:
    """Coefficients of the compatible first-order equation y' = c1*y^2 + c2*y.

    y_particular_kind names the bounded closed-form particular solution
    attached to this equation by the factorization it came from.
    """

    c1: float
    c2: float
    y_particular_kind: str

    @property
    def nonzero_fixed_point(self) -> float:
        """The second constant solution -c2/c1 (the first is y = 0)."""
        return -self.c2 / self.c1


def montroll_roots(a: float, b: float, d: float) -> tuple[float, bool]:
    """Kink rate and validity for a root triple of the unit cubic.

    Returns (alpha, valid) with alpha = (b - a)/sqrt(2).  The triple is
    valid when {a, b, d} is exactly the root set {0, 1, -1} of psi^3 - psi,
    the normalization in which the two-root kink formula applies.
    """
    valid = sorted((a, b, d)) == sorted(_MONTROLL_ROOTS)
    return (b - a) / SQRT2, valid


def factor_undriven(a1: float, b1: float, variant: str = "first", sign=1) -> FactorPair:
    """Factor pair for the symmetric double-well cubic F = -b1*psi^3 + a1*psi.

    Parameters
    ----------
    a1, b1 : float
        Positive equation coefficients.
    variant : str
        "first" puts the root-difference factor sqrt(a1) - sqrt(b1)*psi
        into f1; "second" puts the root-sum factor sqrt(a1) + sqrt(b1)*psi
        there.  Both variants force the same rho.
    sign : "+", "-", +1 or -1
        Overall sign choice; forced_rho = sign * (3*sqrt(2)/2) * sqrt(a1).

    Returns
    -------
    FactorPair
    """
    validate_params(ModelParams(a1, b1))
    s = _as_sign(sign)
    sa = math.sqrt(a1)
    sb = math.sqrt(b1)
    rho = undriven_rho(a1, s)
    if variant == "first":
        f1_slope, f1_offset = s * sb / SQRT2, -s * sa / SQRT2
        f2_slope, f2_offset = -s * SQRT2 * sb, -s * SQRT2 * sa
    elif variant == "second":
        f1_slope, f1_offset = -s * sb / SQRT2, -s * sa / SQRT2
        f2_slope, f2_offset = s * SQRT2 * sb, -s * SQRT2 * sa
    else:
        raise ValueError(f"variant must be 'first' or 'second', got {variant!r}")
    return FactorPair(
        f1_slope=f1_slope,
        f1_offset=f1_offset,
        f2_slope=f2_slope,
        f2_offset=f2_offset,
        forced_rho=rho,
        f_coeffs=(-b1, 0.0, a1),
        label=f"undriven-{variant}{'+' if s > 0 else '-'}",
    )


def factor_driven(setup: DrivenSetup, case: str = "I", sign=1) -> FactorPair:
    """Factor pair for the shifted cubic of a constant-field drive.

    Case "I" keeps the r_plus root inside f1 and forces
    rho = sign*(r_minus - sqrt(delta_eps))/sqrt(2); case "II" keeps r_minus
    inside f1 and forces rho = sign*(r_plus + sqrt(delta_eps))/sqrt(2).
    The pair factorizes F(phi)/phi = -(sqrt(b1)*phi - r_plus)(sqrt(b1)*phi - r_minus)
    for either case.
    """
    if setup.delta_eps < 0.0:
        raise ComplexDelta(f"delta_eps = {setup.delta_eps} < 0: factors are complex")
    c = _as_case(case)
    s = _as_sign(sign)
    sb = math.sqrt(setup.b1)
    r_in_f1 = setup.r_plus if c == "I" else setup.r_minus
    r_in_f2 = setup.r_minus if c == "I" else setup.r_plus
    eps = setup.epsilon
    return FactorPair(
        f1_slope=-s * sb / SQRT2,
        f1_offset=s * r_in_f1 / SQRT2,
        f2_slope=s * SQRT2 * sb,
        f2_offset=-s * SQRT2 * r_in_f2,
        forced_rho=setup.rho(c, s),
        f_coeffs=(-setup.b1, 3.0 * setup.b1 * eps, setup.a1 - 3.0 * setup.b1 * eps * eps),
        label=f"driven-{c}{'+' if s > 0 else '-'}",
    )


# Which bounded particular solution solves the Riccati equation of each
# factor pair.  For the double-well cubic the pairing is between the
# factorization variant/sign and the four kink indices; for the shifted
# cubic it is the case/sign kink itself.
_Y_PARTICULAR = {
    "undriven-first+": "undriven-1",
    "undriven-first-": "undriven-2",
    "undriven-second+": "undriven-4",
    "undriven-second-": "undriven-3",
    "driven-I+": "driven-I+",
    "driven-I-": "driven-I-",
    "driven-II+": "driven-II+",
    "driven-II-": "driven-II-",
}


def compatible_riccati(fp: FactorPair) -> RiccatiCoefficients:
    """Riccati coefficients of the first-order equation [D - f1] psi = 0.

    psi' = f1(psi)*psi expands to psi' = c1*psi^2 + c2*psi with
    c1 = f1_slope and c2 = f1_offset.
    """
    kind = _Y_PARTICULAR.get(fp.label, fp.label)
    return RiccatiCoefficients(c1=fp.f1_slope, c2=fp.f1_offset, y_particular_kind=kind)
