"""Closed-form kink profiles of the damped double-well traveling-wave equation.

Every family implemented here is a Moebius transform of a single real
exponential,

    psi(xi) = (n_u * u + n_1) / (d_u * u + d_1),    u = exp(rate*(xi - xi0)),

which makes the analytic machinery uniform: derivatives, asymptotic limits,
the (at most one) real pole and the (at most one) crossing of any level,
such as the switching midpoint, all come from the same four coefficients,
and one kernel pass (MobiusExpProfile.kernel) evaluates value, derivatives
and singular mask together from a single exponential.
The families are

  * the two-root kink of the unit cubic (montroll_solution),
  * the four basic double-well kinks, two smooth and two with a pole
    (undriven_solution),
  * the constant-drive kinks of both factorization cases and both front
    signs (driven_solution),
  * the lambda-indexed generalizations of all of the above, where lambda
    is the free constant of the general Riccati solution
    (lambda_zero_field_solution, lambda_driven_solution),
  * the general Riccati solution through any initial value
    (general_riccati): one more Moebius-exponential profile (a rational
    function when c2 == 0), built from the equation's c1, c2 rather than
    from a family's closed form, so the two derivations can be
    cross-checked.

Each constructor returns a KinkSolution whose params carry the forced
friction value and the drive and whose profile yields asymptotics and the
singularity set, so downstream verification needs no family-specific
knowledge.  catalogue() lists every family the package constructs, labelled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SingularPoint
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

# A point counts as singular when the profile denominator is this small
# relative to the numerator.
SINGULAR_TOL = 1e-12

# Friction sign attached to each basic double-well kink index, recovered
# empirically from residuals (the closed forms do not advertise it); the
# recovery is rerun by tests/test_kinks.py.
UNDRIVEN_RHO_SIGNS = {1: 1, 2: -1, 3: -1, 4: 1}

# Sign of the square-root term in the basic-kink denominators selected by
# each lambda-family variant tag.
VARIANT_SIGNS = {"first": -1.0, "second": 1.0}


class ProfilePass:
    """What one kernel pass of a MobiusExpProfile yields over a set of points.

    Each array has the shape of the points.  derivatives holds psi', psi'',
    ... up to the order asked for.  den is the denominator in the
    overflow-free scaling the value uses: off by a positive factor, so its
    sign is the true denominator's.  singular is formed from the pass's
    numerator and den when first read: a bisection step never reads it, and
    on a one-point grid it would cost a fifth of the call.
    """

    def __init__(self, value, derivatives, den, num=None):
        self.value = value
        self.derivatives = derivatives
        self.den = den
        # None for a constant profile, which has no singular point
        self._num = num

    @cached_property
    def singular(self) -> np.ndarray:
        """|den| < SINGULAR_TOL * (1 + |num|)."""
        if self._num is None:
            return np.zeros(self.den.shape, dtype=bool)
        return SINGULAR_TOL * (1.0 + np.abs(self._num)) > np.abs(self.den)


@dataclass(frozen=True)
class MobiusExpProfile:
    """(n_u*u + n_1)/(d_u*u + d_1) with u = exp(rate*(xi - xi0)).

    kernel() is the one evaluation path: a single exponential per call
    yields the value, the derivatives up to order 2, the singular mask and
    the denominator together.  value, first_derivative, second_derivative
    and is_singular are views of it.  The exponential is always fed its
    nonpositive argument (the reciprocal form is used on the growing side),
    so no intermediate can overflow no matter how far out xi is.
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
        if self.den_u == 0.0 and self.den_1 == 0.0:
            raise ValueError("denominator is identically zero")

    def _is_constant(self) -> bool:
        return self.num_u * self.den_1 - self.num_1 * self.den_u == 0.0

    def _constant_value(self) -> float:
        if self.den_1 != 0.0:
            return self.num_1 / self.den_1
        return self.num_u / self.den_u

    def kernel(self, xi, order: int = 0) -> ProfilePass:
        """Value, derivatives up to order (0-2), singular mask and denominator at xi.

        One exponential serves all four.  At singular points value and
        derivatives are whatever the division gives (inf or nan), without
        warnings.  Constant profiles report their constant, zero
        derivatives and no singular point.
        """
        if order not in (0, 1, 2):
            raise ValueError(f"order must be 0, 1 or 2, got {order}")
        x = np.asarray(xi, dtype=float)
        z = (x.reshape(-1) - self.xi0) * self.rate
        grow = z > 0.0
        # Arrays are dropped as soon as they are dead: on a large grid each
        # full-size array alive at the peak costs fresh pages.  Nothing is
        # updated in place, which on a one-point grid costs more than a new
        # array.
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
            w = self.num_u * self.den_1 - self.num_1 * self.den_u
            derivatives = ()
            if w == 0.0:
                value = np.full(den.shape, self._constant_value())
                derivatives = tuple(np.zeros(den.shape) for _ in range(order))
                num = None
            else:
                value = num / den
                if order >= 1:
                    den2 = den * den
                    derivatives = (e * (self.rate * w) / den2,)
                if order == 2:
                    derivatives += (e * (self.rate * self.rate * w) * inner / (den2 * den),)
        if x.ndim != 1:
            value, den = value.reshape(x.shape), den.reshape(x.shape)
            num = None if num is None else num.reshape(x.shape)
            derivatives = tuple(d.reshape(x.shape) for d in derivatives)
        return ProfilePass(value, derivatives, den, num)

    def value(self, xi):
        """Profile value; elementwise over arrays, no singularity checks."""
        return self.kernel(xi).value

    def first_derivative(self, xi):
        return self.kernel(xi, 1).derivatives[0]

    def second_derivative(self, xi):
        return self.kernel(xi, 2).derivatives[1]

    def is_singular(self, xi):
        """Elementwise test |den| < SINGULAR_TOL * (1 + |num|)."""
        return self.kernel(xi).singular

    def _root_xi(self, c_u: float, c_1: float) -> float | None:
        """The xi where c_u*u + c_1 vanishes for some u > 0, else None."""
        if self.rate == 0.0 or c_u == 0.0:
            return None
        u_star = -c_1 / c_u
        if u_star <= 0.0:
            return None
        return self.xi0 + math.log(u_star) / self.rate

    def pole_xis(self) -> tuple[float, ...]:
        """Real poles, as xi values; at most one exists."""
        if self._is_constant():
            return ()
        xi = self._root_xi(self.den_u, self.den_1)
        return () if xi is None else (xi,)

    def _limit_u0(self) -> float:
        if self.den_1 != 0.0:
            return self.num_1 / self.den_1
        if self.num_1 == 0.0:
            return self.num_u / self.den_u
        return math.copysign(math.inf, self.num_1 * self.den_u)

    def _limit_uinf(self) -> float:
        if self.den_u != 0.0:
            return self.num_u / self.den_u
        if self.num_u == 0.0:
            return self.num_1 / self.den_1
        return math.copysign(math.inf, self.num_u * self.den_1)

    def left_limit(self) -> float:
        """Limit as xi -> -inf."""
        if self.rate > 0.0:
            return self._limit_u0()
        if self.rate < 0.0:
            return self._limit_uinf()
        return (self.num_u + self.num_1) / (self.den_u + self.den_1)

    def right_limit(self) -> float:
        """Limit as xi -> +inf."""
        if self.rate > 0.0:
            return self._limit_uinf()
        if self.rate < 0.0:
            return self._limit_u0()
        return (self.num_u + self.num_1) / (self.den_u + self.den_1)


@dataclass(frozen=True)
class KinkSolution:
    """An evaluable closed-form profile plus everything needed to verify it.

    Five values are stored: the family tag, the equation's coefficients
    (params, whose rho is the forced friction and whose drive is the
    constant drive), the driven setup and lambda where the family has them,
    and the profile.  Every other attribute is derived when read: xi0, k1,
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
    def k1(self) -> float:
        """The translation constant: k1 * exp(rate*xi) == exp(rate*(xi - xi0))."""
        return math.exp(-self.profile.rate * self.profile.xi0)

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
            If any requested point is within SINGULAR_TOL of a pole.
        """
        arr = np.asarray(xi, dtype=float)
        kp = self.profile.kernel(arr)
        if np.any(kp.singular):
            offender = _first_offender(arr, kp.singular)
            raise SingularPoint(
                f"{self.family} profile evaluated at a pole near xi={offender}",
                xi=offender,
            )
        if arr.ndim == 0:
            return float(kp.value)
        return kp.value

    __call__ = evaluate


def montroll_solution(a: float, b: float, xi0: float = 0.0) -> KinkSolution:
    """Two-root kink of the unit cubic: a + sqrt(2)*alpha/(1 + e^(alpha*xi)).

    a and b must be two distinct roots of psi^3 - psi; the third root
    d = -(a + b) fixes the friction to (a + b - 2*d)/sqrt(2) = 3*(a+b)/sqrt(2).
    """
    from .factorization import montroll_roots

    alpha, valid = montroll_roots(a, b, -(a + b))
    if not valid or a == b:
        raise ValueError(f"(a, b) = ({a}, {b}) are not two distinct roots of psi^3 - psi")
    rho = 3.0 * (a + b) / SQRT2
    profile = MobiusExpProfile(
        num_u=a, num_1=a + SQRT2 * alpha, den_u=1.0, den_1=1.0, rate=alpha, xi0=xi0
    )
    return KinkSolution("montroll", ModelParams(1.0, 1.0, rho), None, None, profile)


def undriven_solution(params: ModelParams, index: int, xi0: float = 0.0) -> KinkSolution:
    """One of the four basic double-well kinks.

    Indices 1 and 2 are the smooth mirror pair running between
    sqrt(a1/b1) and 0; indices 3 and 4 run between -sqrt(a1/b1) and 0 and
    carry one real pole each.  The friction value is forced by the
    factorization (params.rho is not consulted); its sign per index is the
    recorded table UNDRIVEN_RHO_SIGNS.
    """
    validate_params(params)
    if index not in (1, 2, 3, 4):
        raise ValueError(f"index must be 1..4, got {index}")
    sa = math.sqrt(params.a1)
    sb = math.sqrt(params.b1)
    alpha = sa / SQRT2
    rate = alpha if index in (1, 4) else -alpha
    den_1 = sb if index in (1, 2) else -sb
    sign = UNDRIVEN_RHO_SIGNS[index]
    rho = undriven_rho(params.a1, sign)
    profile = MobiusExpProfile(num_u=0.0, num_1=sa, den_u=1.0, den_1=den_1, rate=rate, xi0=xi0)
    return KinkSolution(
        f"undriven-{index}", ModelParams(params.a1, params.b1, rho), None, None, profile
    )


def driven_solution(setup: DrivenSetup, case: str, sign, xi0: float = 0.0) -> KinkSolution:
    """Constant-drive kink for one factorization case and front sign.

    In the shifted variable the profile is (2r/sqrt(b1))/(2 + e^(-s*r*(xi-xi0)/sqrt(2)))
    with r = r_plus (case I) or r_minus (case II); the returned solution is
    downshifted back by epsilon.  Smooth for every parameter choice.
    """
    c = _as_case(case)
    s = _as_sign(sign)
    r = setup.rate(c)
    sb = math.sqrt(setup.b1)
    eps = setup.epsilon
    rate = -s * r / SQRT2
    rho = setup.rho(c, s)
    profile = MobiusExpProfile(
        num_u=0.0 - eps * 1.0,
        num_1=2.0 * r / sb - eps * 2.0,
        den_u=1.0,
        den_1=2.0,
        rate=rate,
        xi0=xi0,
    )
    tag = "+" if s > 0 else "-"
    return KinkSolution(
        f"driven-{c}{tag}",
        ModelParams(setup.a1, setup.b1, rho, gamma1=1.0, eta=setup.eta_times_gamma1),
        setup,
        None,
        profile,
    )


def _check_lambda(lam: float):
    # lambda = 0 collapses the family to a constant, not a kink
    if not math.isfinite(lam) or lam == 0.0:
        raise ValueError(f"lambda must be finite and nonzero, got {lam!r}")


def lambda_zero_field_solution(
    params: ModelParams, branch, variant: str, lam: float, xi0: float = 0.0
) -> KinkSolution:
    """Zero-field lambda kink: the general Riccati solution of one basic kink.

    branch "+" carries the rising exponential (rate +sqrt(a1)/sqrt(2)) and
    the friction of that sign; branch "-" the mirrored one.  variant
    "first" selects the families that approach the poled kinks as
    lambda -> inf, "second" the ones approaching the smooth kinks.  After
    clearing the shared factor between the two denominators the profile is
    again a single Moebius-exponential form.  Raises ValueError for a zero
    or non-finite lambda.
    """
    validate_params(params)
    _check_lambda(lam)
    if variant not in VARIANT_SIGNS:
        raise ValueError(f"variant must be 'first' or 'second', got {variant!r}")
    bsign = _as_sign(branch)
    m = VARIANT_SIGNS[variant]
    sa = math.sqrt(params.a1)
    sb = math.sqrt(params.b1)
    alpha = sa / SQRT2
    g = lam * sa
    if bsign > 0:
        rate = alpha
        num = (0.0, sa * (g + 1.0))
        den = (g, m * sb * (g + 1.0))
    else:
        rate = -alpha
        num = (0.0, lam * params.a1)
        den = (g - 1.0, m * sb * g)
    rho = undriven_rho(params.a1, bsign)
    profile = MobiusExpProfile(num[0], num[1], den[0], den[1], rate, xi0)
    tag = "+" if bsign > 0 else "-"
    return KinkSolution(
        f"lambda-zero-field-{variant}{tag}",
        ModelParams(params.a1, params.b1, rho),
        None,
        lam,
        profile,
    )


def lambda_driven_solution(
    setup: DrivenSetup, case: str, branch, lam: float, xi0: float = 0.0
) -> KinkSolution:
    """Constant-drive lambda kink for one case and branch, downshifted by epsilon.

    The profile has one real pole exactly when lambda falls in the
    family's forbidden window (between 0 and the signed bound
    sign(branch)*sqrt(b1)/(2r)); outside it the kink is smooth and
    approaches the particular constant-drive kink as lambda -> inf.
    Raises ValueError for a zero or non-finite lambda.
    """
    _check_lambda(lam)
    c = _as_case(case)
    s = _as_sign(branch)
    r = setup.rate(c)
    sb = math.sqrt(setup.b1)
    eps = setup.epsilon
    alpha_r = r / SQRT2
    if s > 0:
        rate = alpha_r
        num = (4.0 * lam * r * r / sb, 0.0)
        den = (4.0 * lam * r, 2.0 * lam * r - sb)
    else:
        rate = -alpha_r
        num = (r * (2.0 * lam * r + sb) / sb, 0.0)
        den = (2.0 * lam * r + sb, lam * r)
    rho = setup.rho(c, s)
    profile = MobiusExpProfile(
        num[0] - eps * den[0], num[1] - eps * den[1], den[0], den[1], rate, xi0
    )
    tag = "+" if s > 0 else "-"
    return KinkSolution(
        f"lambda-{c}{tag}",
        ModelParams(setup.a1, setup.b1, rho, gamma1=1.0, eta=setup.eta_times_gamma1),
        setup,
        lam,
        profile,
    )


_CATALOGUE_FAMILIES = ("montroll", "undriven", "lambda-zero-field", "driven", "lambda-driven")


def catalogue(
    a1: float = 1.0, b1: float = 1.0, family: str | None = None
) -> list[tuple[str, KinkSolution]]:
    """Every closed-form profile the package constructs, labelled, in a fixed order.

    The two-root kink montroll(0,1) of the unit cubic; the four basic kinks
    and the zero-field lambda kinks (lambda in 1, 10, 100) at coefficients
    a1, b1; then, per reference figure set, its constant-drive kink and its
    lambda kinks at the figure's lambdas.  family keeps one of "montroll",
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
        for branch in ("+", "-"):
            for variant in ("first", "second"):
                for lam in (1.0, 10.0, 100.0):
                    jobs.append(
                        (
                            f"lambda-zero-field-{variant}{branch} lam={lam:g}",
                            lambda_zero_field_solution(params, branch, variant, lam),
                        )
                    )
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


def _raise_where(bad, xi, what: str):
    if np.any(bad):
        raise SingularPoint(what, xi=_first_offender(xi, bad))


def _riccati_profile(c1: float, c2: float, p: float, q: float, xi0: float) -> MobiusExpProfile:
    """The solution of y' = c1*y^2 + c2*y (c2 != 0) through y(xi0) = p/q.

    With u = exp(c2*(xi - xi0)) it is c2*p*u / (c1*p*(1 - u) + c2*q).  At
    the pole, in the kernel's overflow-free scaling, both terms of the
    denominator have the size of the smaller of -c1*p and c1*p + c2*q.
    The singular mask compares the denominator with 1 + |numerator|, so
    the coefficients are scaled by a power of two, which changes no value,
    to bring that size to [1, 2) unless one would overflow: the mask then
    flags the same distance from the pole whatever the scale of p and q.
    """
    coeffs = (c2 * p, -c1 * p, c1 * p + c2 * q)
    smaller = min(abs(coeffs[1]), abs(coeffs[2]))
    if smaller > 0.0:
        k = min(1 - math.frexp(smaller)[1], 1023 - math.frexp(max(map(abs, coeffs)))[1])
        coeffs = [math.ldexp(c, k) for c in coeffs]
    num_u, den_u, den_1 = coeffs
    return MobiusExpProfile(num_u, 0.0, den_u, den_1, c2, xi0)


def general_riccati(c1: float, c2: float, y1: float, lam: float, xi0: float, xi):
    """General solution of y' = c1*y^2 + c2*y through the particular y1.

    y1 is the value at xi0 of the particular solution the general one is
    built around (any real number; 0 selects the trivial solution).  The
    paper writes the result as y1(xi) + exp(I1)/(lam - c1*I2); it is the
    solution through y(xi0) = y1 + 1/lam = g/lam with g = lam*y1 + 1, so
    for c2 != 0 it is one Moebius-exponential profile, evaluated by its
    kernel:

        y = c2*g*u / (c1*g*(1 - u) + c2*lam),    u = exp(c2*(xi - xi0)),

    and for c2 == 0 the rational g/(lam - c1*g*(xi - xi0)).  As
    lam -> +-inf it collapses to the particular solution; lam = 0 is the
    solution with its pole at xi0.

    Raises
    ------
    ValueError
        If c1 is zero or c1, c2, y1, lam or xi0 is not finite.
    SingularPoint
        Where the general solution has a pole, or where the particular
        solution itself blows up.
    """
    args = (c1, c2, y1, lam, xi0)
    if not all(map(math.isfinite, args)):
        raise ValueError(f"(c1, c2, y1, lam, xi0) must be finite, got {args}")
    if c1 == 0.0:
        raise ValueError("c1 must be nonzero")
    x = np.asarray(xi, dtype=float)
    g = lam * y1 + 1.0
    if c2 == 0.0:
        z = x - xi0
        with np.errstate(invalid="ignore", over="ignore"):
            _raise_where(
                np.abs(1.0 - c1 * y1 * z) < SINGULAR_TOL * (1.0 + np.abs(c1 * y1 * z)),
                x,
                "particular solution pole",
            )
            den = lam - c1 * g * z
            _raise_where(
                np.abs(den) < SINGULAR_TOL * (1.0 + abs(lam) + np.abs(c1 * g * z)),
                x,
                "lambda denominator vanishes",
            )
            vals = g / den
    else:
        _raise_where(
            _riccati_profile(c1, c2, y1, 1.0, xi0).kernel(x).singular, x, "particular solution pole"
        )
        kp = _riccati_profile(c1, c2, g, lam, xi0).kernel(x)
        _raise_where(kp.singular, x, "lambda denominator vanishes")
        vals = kp.value
    if x.ndim == 0:
        return float(vals)
    return vals
