"""Closed-form kink profiles of the damped double-well traveling-wave equation.

Every family implemented here is a Moebius transform of a single real
exponential,

    psi(xi) = (n_u * u + n_1) / (d_u * u + d_1),    u = exp(rate*(xi - xi0)),

where xi0, the point u = 1, is not the kink's centre: that is
MobiusExpProfile.centre(), the pole of a poled kink and the switching
midpoint of a smooth one.  The form makes the analytic machinery uniform:
derivatives, asymptotic limits and the centre all come from the same four
coefficients, and one kernel pass
(MobiusExpProfile.kernel) evaluates the value and its derivatives together
from a single exponential.  Every profile is a kink: MobiusExpProfile
refuses a zero rate and a zero determinant n_u*d_1 - n_1*d_u, the two ways
the form collapses to a constant, so the profile switches between two
distinct levels (one of them infinite where a denominator coefficient is
zero).  A point is singular when it lies within SINGULAR_TOL kink widths of
the closed-form pole.
The families are

  * the two-root kink of the unit cubic (montroll_solution),
  * the four basic double-well kinks, two smooth and two with a pole
    (undriven_solution),
  * the constant-drive kinks of both factorization cases and both front
    signs (driven_solution),
  * the lambda-indexed generalizations of the basic and constant-drive
    kinks, where lambda is the free constant of the general Riccati
    solution (lambda_zero_field_solution, lambda_driven_solution).  Each
    member is its particular kink with one coefficient pair scaled by
    g = 1 - lam_b/lam, lam_b the family's window bound: the kink shifted
    by log|g|/alpha, or for g < 0 its partner with a pole, between the
    same two levels (_lambda_profile),
  * the general Riccati solution through any initial value
    (general_riccati): one more Moebius-exponential profile, built from
    the equation's c1, c2 rather than from a family's closed form, so the
    two derivations can be cross-checked.  It refuses c2 == 0, where the
    solution is rational, as it refuses c1 == 0.

Each constructor returns a KinkSolution whose params carry the forced
friction value and the drive and whose profile yields asymptotics and the
singularity set, so downstream verification needs no family-specific
knowledge.  catalogue() lists every family the package constructs, labelled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularPoint
from .factorization import _Y_PARTICULAR, montroll_roots
from .figures import FIGURES
from .model import (
    SQRT2,
    DrivenSetup,
    ModelParams,
    _as_case,
    _as_sign,
    driven_setup,
    undriven_rho,
    validate_params,
)

# A point counts as singular when it lies within this many kink widths
# (1/|rate|) of the profile's pole.
SINGULAR_TOL = 1e-12

# Points per kernel pass: 128 kB per float array, so that a pass's
# temporaries stay in cache and a large grid costs few page faults.
_BLOCK = 16_384

# Basic kink index of each undriven factor pair ("first+" -> 1, ...), and
# the friction sign of each index: that of the pair whose particular kink it is
_BASIC_KINK = {
    p.removeprefix("undriven-"): int(k.removeprefix("undriven-"))
    for p, k in _Y_PARTICULAR.items() if p.startswith("undriven-")
}
UNDRIVEN_RHO_SIGNS = {i: 1 if pair.endswith("+") else -1 for pair, i in _BASIC_KINK.items()}

# lambda_zero_field_solution's variant -> the factor_undriven variant whose
# particular kink it is built on (the map is tabled in its docstring)
_OTHER_VARIANT = {"first": "second", "second": "first"}


@dataclass(frozen=True)
class MobiusExpProfile:
    """(n_u*u + n_1)/(d_u*u + d_1) with u = exp(rate*(xi - xi0)), a kink.

    The coefficients must be finite, the rate nonzero and the determinant
    w = n_u*d_1 - n_1*d_u nonzero; otherwise the form is a constant and
    construction raises ValueError.  So every profile switches between two
    distinct limits (one infinite when d_1 or d_u is zero).

    kernel() is the one evaluation path: a single exponential per call
    yields the value and the derivatives up to order 2 together.  value,
    first_derivative and second_derivative are views of it.  The
    exponential is always fed its nonpositive argument (the reciprocal form
    is used on the growing side), so no intermediate can overflow no matter
    how far out xi is.  is_singular is the one pole test and needs no
    kernel pass: it measures the distance to the closed-form pole
    (pole_xis).  den_at is the denominator at one float, for bisections.
    """

    num_u: float
    num_1: float
    den_u: float
    den_1: float
    rate: float
    xi0: float

    def __post_init__(self):
        fields = (self.num_u, self.num_1, self.den_u, self.den_1, self.rate, self.xi0)
        if not all(map(math.isfinite, fields)):
            raise ValueError(f"profile coefficients must be finite, got {fields}")
        if self.rate == 0.0 or self.num_u * self.den_1 - self.num_1 * self.den_u == 0.0:
            raise ValueError(f"profile is a constant, not a kink: {fields}")

    def kernel(self, xi, order: int = 0) -> tuple[np.ndarray, ...]:
        """(psi, psi', psi'')[:order + 1] at xi, each shaped like xi.

        One exponential serves all three.  At the pole value and
        derivatives are whatever the division gives (inf or nan), without
        warnings.  The profile is a kink, never a constant, so one formula
        serves every point.  Points are evaluated _BLOCK at a time and the
        pieces joined, which gives the same values as one pass.
        """
        if order not in (0, 1, 2):
            raise ValueError(f"order must be 0, 1 or 2, got {order}")
        x = np.asarray(xi, dtype=float)
        flat = x.reshape(-1)
        if flat.size <= _BLOCK:
            out = self._pass(flat, order)
        else:
            parts = [self._pass(flat[i : i + _BLOCK], order) for i in range(0, flat.size, _BLOCK)]
            out = tuple(map(np.concatenate, zip(*parts)))
        if x.ndim != 1:
            out = tuple(a.reshape(x.shape) for a in out)
        return out

    def _pass(self, x, order: int) -> tuple[np.ndarray, ...]:
        """kernel() on one 1-D block of at most _BLOCK points."""
        z = (x - self.xi0) * self.rate
        grow = z > 0.0
        # A block's temporaries, 128 kB each, are reused from the heap and
        # stay in cache; whole-grid ones would go back to the operating
        # system after each call and be faulted in again on the next, about
        # half the time of a 1e5-point residual.  Nothing is updated in
        # place, which on a one-point grid costs more than a new array.
        with np.errstate(divide="ignore", invalid="ignore", under="ignore", over="ignore"):
            e = np.exp(np.copysign(z, -1.0))
            del z
            # (u, 1) scaled by e = exp(-|z|) is (a, b) = (e, 1) where u <= 1
            # and (1, e) where u > 1, so nothing overflows however far out xi is
            a = np.maximum(e, grow)
            b = np.maximum(e, ~grow)
            if order == 0:
                del e
            num = a * self.num_u + b * self.num_1
            den = a * self.den_u + b * self.den_1
            # d_1 - d_u*u in the scaling of den, for psi''
            inner = b * self.den_1 - a * self.den_u if order == 2 else None
            del a, b
            out = (num / den,)
            if order >= 1:
                w = self.num_u * self.den_1 - self.num_1 * self.den_u
                den2 = den * den
                out += (e * (self.rate * w) / den2,)
            if order == 2:
                out += (e * (self.rate * self.rate * w) * inner / (den2 * den),)
        return out

    def den_at(self, x: float) -> float:
        """The denominator at one float, in the overflow-free scaling of _pass.

        It is off from d_u*u + d_1 by a positive factor, so its sign is the
        true one.  One of _pass's a and b is exactly 1.0, so den is
        den_u + e*den_1 on the growing side and e*den_u + den_1 elsewhere.
        np.exp gives a scalar the same bits as an array element; math.exp
        does not always.
        """
        z = (x - self.xi0) * self.rate
        e = float(np.exp(-abs(z)))
        return self.den_u + e * self.den_1 if z > 0.0 else e * self.den_u + self.den_1

    def value(self, xi):
        """Profile value; elementwise over arrays, no singularity checks."""
        return self.kernel(xi)[0]

    def first_derivative(self, xi):
        return self.kernel(xi, 1)[1]

    def second_derivative(self, xi):
        return self.kernel(xi, 2)[2]

    def is_singular(self, xi):
        """Elementwise: is xi within SINGULAR_TOL kink widths of the pole?

        The test is |rate*(xi - pole)| <= SINGULAR_TOL at the closed-form
        pole, so it does not depend on the scale of the coefficients; it
        is all false for a profile without a pole.  No exponential is
        evaluated.
        """
        x = np.asarray(xi, dtype=float)
        poles = self.pole_xis()
        if not poles:
            return np.zeros(x.shape, dtype=bool)
        # Comparisons with the interval ends make no float array: on a
        # large grid a float temporary such as xi - pole costs some 20
        # times as much.  The interval is closed so that the pole itself
        # stays flagged when reach is below the float spacing there.
        reach = SINGULAR_TOL / abs(self.rate)
        return (x >= poles[0] - reach) & (x <= poles[0] + reach)

    def centre(self) -> float | None:
        """The Moebius centre xi0 + log|d_1/d_u|/rate, or None if d_u or d_1 is 0.

        There u = |d_1/d_u|: the pole when d_u and d_1 have opposite signs,
        and otherwise the switching midpoint, where the profile takes the
        mean of its two levels.  It is None as well where d_1/d_u
        underflows to 0, more than 744 widths from xi0.
        """
        if self.den_u == 0.0:
            return None
        u = abs(self.den_1 / self.den_u)
        return self.xi0 + math.log(u) / self.rate if u > 0.0 else None

    def pole_xis(self) -> tuple[float, ...]:
        """Real poles, as xi values: the centre when d_u and d_1 have opposite signs.

        The signs are compared, not multiplied: d_u*d_1 can underflow to 0.
        """
        opposite = self.den_u < 0.0 < self.den_1 or self.den_1 < 0.0 < self.den_u
        centre = self.centre() if opposite else None
        return () if centre is None else (centre,)

    def _limit_u0(self) -> float:
        if self.den_1 != 0.0:
            return self.num_1 / self.den_1
        return math.copysign(math.inf, self.num_1 * self.den_u)

    def _limit_uinf(self) -> float:
        if self.den_u != 0.0:
            return self.num_u / self.den_u
        return math.copysign(math.inf, self.num_u * self.den_1)

    def left_limit(self) -> float:
        """Limit as xi -> -inf."""
        return self._limit_u0() if self.rate > 0.0 else self._limit_uinf()

    def right_limit(self) -> float:
        """Limit as xi -> +inf."""
        return self._limit_uinf() if self.rate > 0.0 else self._limit_u0()


@dataclass(frozen=True)
class KinkSolution:
    """An evaluable closed-form profile plus everything needed to verify it.

    Five values are stored: the family tag, the equation's coefficients
    (params, whose rho is the forced friction and whose drive is the
    constant drive), the driven setup and lambda where the family has them,
    and the profile.  Every other attribute is derived when read: xi0,
    width_inverse, the limits and the singularities from the profile,
    forced_rho and eta_gamma from params.
    """

    family: str
    params: ModelParams
    setup: DrivenSetup | None
    lam: float | None
    profile: MobiusExpProfile

    @property
    def xi0(self) -> float:
        return self.profile.xi0

    @property
    def width_inverse(self) -> float:
        return abs(self.profile.rate)

    @property
    def left_limit(self) -> float:
        return self.profile.left_limit()

    @property
    def right_limit(self) -> float:
        return self.profile.right_limit()

    @property
    def singularities(self) -> tuple[float, ...]:
        return self.profile.pole_xis()

    @property
    def forced_rho(self) -> float:
        """The friction value at which this profile solves the second-order equation."""
        return self.params.rho

    @property
    def eta_gamma(self) -> float:
        """The constant drive (zero for the zero-field families)."""
        return self.params.drive

    def evaluate(self, xi):
        """Profile value at xi (scalar or array).

        Raises
        ------
        SingularPoint
            If any requested point is within SINGULAR_TOL kink widths of
            the pole.
        """
        arr = np.asarray(xi, dtype=float)
        bad = self.profile.is_singular(arr)
        if np.any(bad):
            offender = _first_offender(arr, bad)
            raise SingularPoint(
                f"{self.family} profile evaluated at a pole near xi={offender}",
                xi=offender,
            )
        value = self.profile.value(arr)
        if arr.ndim == 0:
            return float(value)
        return value

    __call__ = evaluate


def montroll_solution(a: float, b: float, xi0: float = 0.0) -> KinkSolution:
    """Two-root kink of the unit cubic: a + sqrt(2)*alpha/(1 + e^(alpha*xi)).

    a and b must be two distinct roots of psi^3 - psi; the third root
    d = -(a + b) fixes the friction to (a + b - 2*d)/sqrt(2) = 3*(a+b)/sqrt(2).
    """
    alpha, valid = montroll_roots(a, b, -(a + b))
    if not valid or a == b:
        raise ValueError(f"(a, b) = ({a}, {b}) are not two distinct roots of psi^3 - psi")
    rho = 3.0 * (a + b) / SQRT2
    profile = MobiusExpProfile(
        num_u=a, num_1=a + SQRT2 * alpha, den_u=1.0, den_1=1.0, rate=alpha, xi0=xi0
    )
    return KinkSolution("montroll", ModelParams(1.0, 1.0, rho), None, None, profile)


def _basic_kink(params: ModelParams, index: int) -> tuple[ModelParams, tuple[float, ...]]:
    """A basic kink's equation, its rho forced, and (n_u, n_1, d_u, d_1, rate)."""
    sa = math.sqrt(params.a1)
    alpha = sa / SQRT2
    rate = alpha if index in (1, 4) else -alpha
    den_1 = math.sqrt(params.b1) if index in (1, 2) else -math.sqrt(params.b1)
    rho = undriven_rho(params.a1, UNDRIVEN_RHO_SIGNS[index])
    return ModelParams(params.a1, params.b1, rho), (0.0, sa, 1.0, den_1, rate)


def undriven_solution(params: ModelParams, index: int, xi0: float = 0.0) -> KinkSolution:
    """One of the four basic double-well kinks.

    Indices 1 and 2 are the smooth mirror pair running between
    sqrt(a1/b1) and 0; indices 3 and 4 run between -sqrt(a1/b1) and 0 and
    carry one real pole each.  The friction value is forced by the
    factorization (params.rho is not consulted); its sign per index is
    UNDRIVEN_RHO_SIGNS.
    """
    validate_params(params)
    if index not in (1, 2, 3, 4):
        raise ValueError(f"index must be 1..4, got {index}")
    forced, coefficients = _basic_kink(params, index)
    profile = MobiusExpProfile(*coefficients, xi0)
    return KinkSolution(f"undriven-{index}", forced, None, None, profile)


def _driven_kink(setup: DrivenSetup, case: str, sign: int) -> tuple[ModelParams, tuple[float, ...]]:
    """A driven kink's equation, its rho forced, and (n_u, n_1, d_u, d_1, rate)."""
    r = setup.rate(case)
    eps = setup.epsilon
    forced = ModelParams(
        setup.a1, setup.b1, setup.rho(case, sign), gamma1=1.0, eta=setup.eta_times_gamma1
    )
    # (2r/sqrt(b1))/(2 + u), downshifted by epsilon
    num_1 = 2.0 * r / math.sqrt(setup.b1) - eps * 2.0
    return forced, (0.0 - eps, num_1, 1.0, 2.0, -sign * r / SQRT2)


def driven_solution(setup: DrivenSetup, case: str, sign, xi0: float = 0.0) -> KinkSolution:
    """Constant-drive kink for one factorization case and front sign.

    In the shifted variable the profile is (2r/sqrt(b1))/(2 + e^(-s*r*(xi-xi0)/sqrt(2)))
    with r = r_plus (case I) or r_minus (case II); the returned solution is
    downshifted back by epsilon.  Smooth for every parameter choice.
    """
    c = _as_case(case)
    s = _as_sign(sign)
    forced, coefficients = _driven_kink(setup, c, s)
    profile = MobiusExpProfile(*coefficients, xi0)
    return KinkSolution(f"driven-{c}{'+' if s > 0 else '-'}", forced, setup, None, profile)


def _check_lambda(lam: float, bound: float):
    # lambda = 0 and lambda = bound, the two ends of the family's forbidden
    # window, collapse the family to a constant, not a kink
    if not math.isfinite(lam) or lam == 0.0:
        raise ValueError(f"lambda must be finite and nonzero, got {lam!r}")
    if lam == bound:
        raise ValueError(f"lambda = {lam!r} is the window bound: the profile is a constant")


def _lambda_profile(coefficients, alpha: float, g: float, xi0: float) -> MobiusExpProfile:
    """A lambda member: its particular kink with one coefficient pair scaled by g.

    g = 1 - lam_b/lam.  The member is the particular kink shifted by
    log|g|/alpha (alpha, the rate of the family's "+" member), or for g < 0
    its partner, which has the same levels and a pole.  Without the log the
    shift scales by g the pair that dominates as alpha*xi -> -inf; the other
    pair, and the level it gives, stay the particular's.
    """
    num_u, num_1, den_u, den_1, rate = coefficients
    if rate / alpha > 0.0:
        num_1, den_1 = g * num_1, g * den_1
    else:
        num_u, den_u = g * num_u, g * den_u
    return MobiusExpProfile(num_u, num_1, den_u, den_1, rate, xi0)


def lambda_zero_field_solution(
    params: ModelParams, branch, variant: str, lam: float, xi0: float = 0.0
) -> KinkSolution:
    """Zero-field lambda kink: the general Riccati solution of one basic kink.

    branch "+" carries the rising exponential (rate +sqrt(a1)/sqrt(2)) and
    the friction of that sign; branch "-" the mirrored one.  Each variant
    is built on the particular kink (_Y_PARTICULAR) of factor_undriven's
    other variant; this is the one place the map is written:

        variant  particular kink   factor_undriven pair   levels
        first+   undriven-4        second, +              0, -sqrt(a1/b1)
        first-   undriven-3        second, -              0, -sqrt(a1/b1)
        second+  undriven-1        first, +               0, +sqrt(a1/b1)
        second-  undriven-2        first, -               0, +sqrt(a1/b1)

    lam_b is -1/sqrt(a1) on "+" and +1/sqrt(a1) on "-".  The profile is a
    constant at lambda = 0 and at lam_b; ValueError is raised there and for
    a non-finite lambda.
    """
    validate_params(params)
    if variant not in _OTHER_VARIANT:
        raise ValueError(f"variant must be 'first' or 'second', got {variant!r}")
    s = _as_sign(branch)
    sa = math.sqrt(params.a1)
    _check_lambda(lam, -s / sa)
    tag = "+" if s > 0 else "-"
    forced, coefficients = _basic_kink(params, _BASIC_KINK[_OTHER_VARIANT[variant] + tag])
    t = lam * sa
    profile = _lambda_profile(coefficients, sa / SQRT2, (t + s) / t, xi0)
    return KinkSolution(f"lambda-zero-field-{variant}{tag}", forced, None, lam, profile)


def lambda_driven_solution(
    setup: DrivenSetup, case: str, branch, lam: float, xi0: float = 0.0
) -> KinkSolution:
    """Constant-drive lambda kink for one case and branch, downshifted by epsilon.

    The profile has one real pole exactly when lambda falls in the
    family's forbidden window (between 0 and the signed bound
    lam_b = sign(branch)*sqrt(b1)/(2r)); outside it the kink is smooth and
    approaches the particular constant-drive kink as lambda -> inf.  At
    either end of the window, lambda = 0 or the bound, the profile is a
    constant; ValueError is raised there and for a non-finite lambda.
    """
    c = _as_case(case)
    s = _as_sign(branch)
    _check_lambda(lam, setup.lambda_bound(c, s))
    forced, coefficients = _driven_kink(setup, c, s)
    r = setup.rate(c)
    # g = 1 - lam_b/lam as (t - s*sqrt(b1))/t: through the rounded lam_b it
    # errs 6.9e-14 of the levels at figure 4's lam = 0.53, against 1.5e-15
    t = 2.0 * lam * r
    profile = _lambda_profile(coefficients, r / SQRT2, (t - s * math.sqrt(setup.b1)) / t, xi0)
    return KinkSolution(f"lambda-{c}{'+' if s > 0 else '-'}", forced, setup, lam, profile)


_CATALOGUE_FAMILIES = ("montroll", "undriven", "lambda-zero-field", "driven", "lambda-driven")


def catalogue(
    a1: float = 1.0, b1: float = 1.0, family: str | None = None
) -> list[tuple[str, KinkSolution]]:
    """Every closed-form profile the package constructs, labelled, in a fixed order.

    The two-root kink montroll(0,1) of the unit cubic; the four basic kinks
    and the zero-field lambda kinks (lambda*sqrt(a1) in 2, 10, 100, clear
    of the constant profile at 1) at coefficients a1, b1; then, per
    reference figure set, its constant-drive kink and its lambda kinks at
    the figure's lambdas.  family keeps one of "montroll",
    "undriven", "lambda-zero-field", "driven" or "lambda-driven"; any other
    value raises ValueError.
    """
    if family is not None and family not in _CATALOGUE_FAMILIES:
        raise ValueError(f"unknown family {family!r}")

    def wanted(name):
        return family is None or family == name

    jobs = []
    if wanted("montroll"):
        jobs.append(("montroll(0,1)", montroll_solution(0.0, 1.0)))
    params = ModelParams(a1, b1)
    if wanted("undriven"):
        for index in (1, 2, 3, 4):
            jobs.append((f"undriven-{index}", undriven_solution(params, index)))
    if wanted("lambda-zero-field"):
        sa = math.sqrt(validate_params(params).a1)
        for branch in ("+", "-"):
            for variant in ("first", "second"):
                for k in (2.0, 10.0, 100.0):
                    sol = lambda_zero_field_solution(params, branch, variant, k / sa)
                    jobs.append((f"lambda-zero-field-{variant}{branch} lam={k:g}/sqrt(a1)", sol))
    if wanted("driven") or wanted("lambda-driven"):
        for spec in FIGURES.values():
            setup = driven_setup(spec.a1, spec.b1, spec.epsilon)
            tag = f"{spec.case}{spec.branch} fig{spec.fig_id}"
            if wanted("driven"):
                jobs.append((f"driven-{tag}", driven_solution(setup, spec.case, spec.branch)))
            if wanted("lambda-driven"):
                for lam_str in spec.lambdas:
                    jobs.append(
                        (
                            f"lambda-{tag} lam={lam_str}",
                            lambda_driven_solution(setup, spec.case, spec.branch, float(lam_str)),
                        )
                    )
    return jobs


def _first_offender(xi, bad):
    return float(np.atleast_1d(np.asarray(xi, dtype=float))[np.atleast_1d(bad)][0])


def general_riccati(c1: float, c2: float, y1: float, lam: float, xi0: float, xi):
    """General solution of y' = c1*y^2 + c2*y through the particular y1.

    y1 is the value at xi0 of the particular solution the general one is
    built around (any real number; 0 selects the trivial solution).  The
    paper writes the result as y1(xi) + exp(I1)/(lam - c1*I2); it is the
    solution through y(xi0) = y1 + 1/lam = g/lam with g = lam*y1 + 1, so
    it is one Moebius-exponential profile, evaluated by its kernel:

        y = c2*g*u / (c1*g*(1 - u) + c2*lam),    u = exp(c2*(xi - xi0)).

    As lam -> +-inf it collapses to the particular solution; lam = 0 is the
    solution with its pole at xi0.  The two constant solutions, 0 (g == 0)
    and the fixed point -c2/c1 (c1*g + c2*lam == 0), are no kink, so they
    are returned without building a profile.

    Raises
    ------
    ValueError
        If c1 or c2 is zero or c1, c2, y1, lam or xi0 is not finite.  With
        c2 == 0 the solution is rational, not a Moebius-exponential
        profile, and no family of the catalogue has it.
    SingularPoint
        Where the general solution has a pole.  A pole of the particular
        solution through y1 is removable in the general one, which is
        finite there.
    """
    args = (c1, c2, y1, lam, xi0)
    if not all(map(math.isfinite, args)):
        raise ValueError(f"(c1, c2, y1, lam, xi0) must be finite, got {args}")
    if c1 == 0.0 or c2 == 0.0:
        raise ValueError(f"c1 and c2 must be nonzero, got ({c1}, {c2})")
    x = np.asarray(xi, dtype=float)
    g = lam * y1 + 1.0
    den_1 = c1 * g + c2 * lam
    if c2 * g * den_1 == 0.0:
        # the constant solutions 0 (g == 0) and -c2/c1 (den_1 == 0) are no
        # kink; g is tested first, since den_1 = c2*lam can underflow to 0
        # with it.  copysign(0.0, den_1) is 0.0/den_1 where den_1 != 0.
        fixed_point = g != 0.0 and den_1 == 0.0
        vals = np.full(x.shape, c2 * g / (-c1 * g) if fixed_point else math.copysign(0.0, den_1))
    else:
        profile = MobiusExpProfile(c2 * g, 0.0, -c1 * g, den_1, c2, xi0)
        bad = profile.is_singular(x)
        if np.any(bad):
            raise SingularPoint("lambda denominator vanishes", xi=_first_offender(x, bad))
        vals = profile.value(x)
    if x.ndim == 0:
        return float(vals)
    return vals
