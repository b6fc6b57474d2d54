"""Closed-form kink profiles of the damped double-well traveling-wave equation.

The paper builds every kink by factorization.  The compatible Riccati
equation y' = c1*y^2 + c2*y of a factor pair has the nonzero fixed point
A = -c2/c1, and for every real K != 0

    y(xi) = A/(1 + K*exp(-c2*(xi - xi0)))

solves it.  Every family implemented here is such a y plus a constant
shift L, so every profile is a MobiusExpProfile that stores five numbers:

    psi(xi) = L + A/(1 + K*u),    u = exp(rate*(xi - xi0)),  rate = -c2.

Its levels are L and L + A.  Its centre xi0 - log|K|/rate, where |K|*u = 1,
is the pole when K < 0 and otherwise the switching midpoint, where psi
takes the mean of the levels.  One kernel pass (MobiusExpProfile.kernel)
evaluates the value and its derivatives together from a single
exponential.  A point is singular when it lies within SINGULAR_TOL kink
widths of the pole.  Every profile is built by _riccati_profile from its
equation's c1 and c2, the shift and K.  The families are

  * the two-root kink of the unit cubic (montroll_solution): shift a, K = 1,
  * the four basic double-well kinks, two smooth and two with a pole
    (undriven_solution): shift 0, K = +-1/sqrt(b1),
  * the constant-drive kinks of both factorization cases and both front
    signs (driven_solution): shift -epsilon, K = 1/2,
  * the lambda-indexed generalizations of the basic and constant-drive
    kinks, where lambda is the free constant of the general Riccati
    solution (lambda_zero_field_solution, lambda_driven_solution).  Each
    member is its particular kink with K scaled by g = 1 - lam_b/lam or by
    1/g, lam_b the family's window bound: the kink shifted by
    log|g|/alpha, or for g < 0 its partner with a pole, between the same
    two levels (_member_k),
  * the general Riccati solution through any initial value
    (general_riccati): shift 0 and K from the initial value, built from
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

# Basic kink index -> the (variant, sign) of the factor_undriven pair whose
# particular kink it is (1 -> ("first", 1), ...), and the friction sign of
# each index: that of its pair
_UNDRIVEN_PAIR = {
    int(k.removeprefix("undriven-")): (p[len("undriven-"):-1], 1 if p.endswith("+") else -1)
    for p, k in _Y_PARTICULAR.items() if p.startswith("undriven-")
}
UNDRIVEN_RHO_SIGNS = {i: s for i, (_, s) in _UNDRIVEN_PAIR.items()}

# lambda_zero_field_solution's variant -> the factor_undriven variant whose
# particular kink it is built on (the map is tabled in its docstring)
_OTHER_VARIANT = {"first": "second", "second": "first"}


@dataclass(frozen=True)
class MobiusExpProfile:
    """L + A/(1 + K*u) with u = exp(rate*(xi - xi0)), a kink.

    The five numbers, the level L + A and the centre must be finite, and
    rate, A and K nonzero, since any of them 0 makes the form a constant;
    construction raises ValueError otherwise.  So every profile switches
    between the finite levels L and L + A, and it has a pole, at its
    finite centre, exactly when K < 0.

    kernel() is the one evaluation path: a single exponential per call
    yields the value and the derivatives up to order 2 together.  value,
    first_derivative and second_derivative are views of it.  The
    exponential is always fed its nonpositive argument (the reciprocal form
    is used on the growing side), so no intermediate can overflow no matter
    how far out xi is.  is_singular is the one pole test and needs no
    kernel pass: it measures the distance to the closed-form pole
    (pole_xis).  den_at is the denominator at one float, for bisections.
    """

    L: float
    A: float
    K: float
    rate: float
    xi0: float

    def __post_init__(self):
        fields = (self.L, self.A, self.K, self.rate, self.xi0)
        if not (all(map(math.isfinite, fields)) and math.isfinite(self.L + self.A)):
            raise ValueError(f"profile coefficients must be finite, got {fields}")
        if self.rate == 0.0 or self.A == 0.0 or self.K == 0.0:
            raise ValueError(f"profile is a constant, not a kink: {fields}")
        # centre(), written out: perfbench times every public method call
        # as a kernel span, and a build is not one
        if not math.isfinite(self.xi0 - math.log(abs(self.K)) / self.rate):
            raise ValueError(f"profile centre is beyond the float range: {fields}")

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
            del e
            # s = 1/(1 + K*u) and t = K*u/(1 + K*u), both in [0, 1] when K > 0:
            # psi = L + A*s, psi' = -A*rate*t*s, psi'' = -A*rate^2*t*s*(s - t)
            q = self.K * a
            den = b + q
            s = b / den
            del a, b
            out = (self.L + self.A * s,)
            if order >= 1:
                t = q / den
                ts = t * s
                out += (ts * (-self.A * self.rate),)
            if order == 2:
                out += (ts * (s - t) * (-self.A * self.rate * self.rate),)
        return out

    def den_at(self, x: float) -> float:
        """The denominator b + K*a at one float, in the overflow-free scaling of _pass.

        It is 1 + K*u times a positive factor, so its sign is the true one.
        One of _pass's a and b is exactly 1.0, so it is e + K on the growing
        side and 1 + K*e elsewhere.  np.exp gives a scalar the same bits as
        an array element; math.exp does not always.
        """
        z = (x - self.xi0) * self.rate
        e = float(np.exp(-abs(z)))
        return e + self.K if z > 0.0 else 1.0 + self.K * e

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
        pole, so it does not depend on the levels; it is all false for a
        profile without a pole.  No exponential is evaluated.
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

    def centre(self) -> float:
        """The centre xi0 - log|K|/rate, where |K|*u = 1.

        It is the pole when K < 0, and otherwise the switching midpoint,
        where the profile takes the mean of its two levels.  It is always
        finite: construction refuses a profile whose centre overflows,
        which takes |rate| below about 4e-306 or xi0 near the float limit.
        """
        return self.xi0 - math.log(abs(self.K)) / self.rate

    def pole_xis(self) -> tuple[float, ...]:
        """Real poles, as xi values: the centre when K < 0, none otherwise."""
        return (self.centre(),) if self.K < 0.0 else ()

    def left_limit(self) -> float:
        """Limit as xi -> -inf: L + A where u -> 0 there (rate > 0), else L."""
        return self.L + self.A if self.rate > 0.0 else self.L

    def right_limit(self) -> float:
        """Limit as xi -> +inf."""
        return self.L if self.rate > 0.0 else self.L + self.A


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


def _riccati_profile(c1: float, c2: float, shift: float, K: float, xi0: float) -> MobiusExpProfile:
    """shift + A/(1 + K*exp(-c2*(xi - xi0))) with A = -c2/c1, the one way profiles are built.

    The second term solves y' = c1*y^2 + c2*y for every K, with A the
    equation's nonzero fixed point.  c1 and c2 are passed as plain floats,
    the bits compatible_riccati gives for the family's factor pair, so
    that no FactorPair is built per solution.
    """
    return MobiusExpProfile(shift, -c2 / c1, K, -c2, xi0)


def _member_k(K: float, rate: float, alpha: float, g: float) -> float:
    """A lambda member's K: its particular kink's, scaled by 1/g or g.

    g = 1 - lam_b/lam, and alpha is the rate of the family's "+" member.
    The centre xi0 - log|K|/rate moves by log|g|/alpha: 1/g does that where
    rate/alpha > 0 and g where rate/alpha < 0.  The levels do not move, and
    for g < 0 the member is the partner with a pole.  g == 0, where lambda
    rounds to lam_b, is refused: the member is a constant there.
    """
    if g == 0.0:
        raise ValueError("lambda rounds to the window bound: the profile is a constant")
    return K / g if rate / alpha > 0.0 else K * g


def montroll_solution(a: float, b: float, xi0: float = 0.0) -> KinkSolution:
    """Two-root kink of the unit cubic: a + sqrt(2)*alpha/(1 + e^(alpha*xi)).

    a and b must be two distinct roots of psi^3 - psi; the third root
    d = -(a + b) fixes the friction to (a + b - 2*d)/sqrt(2) = 3*(a+b)/sqrt(2).
    Its Riccati equation has c1 = 1/sqrt(2) and c2 = -alpha, and K = 1.
    """
    alpha, valid = montroll_roots(a, b, -(a + b))
    if not valid or a == b:
        raise ValueError(f"(a, b) = ({a}, {b}) are not two distinct roots of psi^3 - psi")
    rho = 3.0 * (a + b) / SQRT2
    profile = _riccati_profile(1.0 / SQRT2, -alpha, a, 1.0, xi0)
    return KinkSolution("montroll", ModelParams(1.0, 1.0, rho), None, None, profile)


def _undriven_riccati(params: ModelParams, variant: str, s: int) -> tuple[float, float, float]:
    """c1 and c2 of factor_undriven(a1, b1, variant, s) and K of its particular kink.

    K is 1/sqrt(b1) for "first", whose kinks 1 and 2 are smooth, and
    -1/sqrt(b1) for "second", whose kinks 3 and 4 have a pole.
    """
    v = 1.0 if variant == "first" else -1.0
    sb = math.sqrt(params.b1)
    return v * s * sb / SQRT2, -s * math.sqrt(params.a1) / SQRT2, v / sb


def undriven_solution(params: ModelParams, index: int, xi0: float = 0.0) -> KinkSolution:
    """One of the four basic double-well kinks.

    Indices 1 and 2 are the smooth mirror pair running between
    sqrt(a1/b1) and 0; indices 3 and 4 run between -sqrt(a1/b1) and 0 and
    carry one real pole each.  Each is the particular kink of one
    factor_undriven pair (_UNDRIVEN_PAIR), whose sign is that of the
    friction value (UNDRIVEN_RHO_SIGNS); the value is forced by the
    factorization, and params.rho is not consulted.
    """
    validate_params(params)
    if index not in _UNDRIVEN_PAIR:
        raise ValueError(f"index must be 1..4, got {index}")
    variant, s = _UNDRIVEN_PAIR[index]
    c1, c2, k = _undriven_riccati(params, variant, s)
    forced = ModelParams(params.a1, params.b1, undriven_rho(params.a1, s))
    profile = _riccati_profile(c1, c2, 0.0, k, xi0)
    return KinkSolution(f"undriven-{index}", forced, None, None, profile)


def driven_solution(setup: DrivenSetup, case: str, sign, xi0: float = 0.0) -> KinkSolution:
    """Constant-drive kink for one factorization case and front sign.

    In the shifted variable the profile is (2r/sqrt(b1))/(2 + e^(-s*r*(xi-xi0)/sqrt(2)))
    with r = r_plus (case I) or r_minus (case II); the returned solution is
    downshifted back by epsilon.  Smooth for every parameter choice: K = 1/2.
    """
    c = _as_case(case)
    s = _as_sign(sign)
    r = setup.rate(c)
    forced = ModelParams(
        setup.a1, setup.b1, setup.rho(c, s), gamma1=1.0, eta=setup.eta_times_gamma1
    )
    # c1 and c2 of factor_driven(setup, c, s)
    profile = _riccati_profile(
        -s * math.sqrt(setup.b1) / SQRT2, s * r / SQRT2, -setup.epsilon, 0.5, xi0
    )
    return KinkSolution(f"driven-{c}{'+' if s > 0 else '-'}", forced, setup, None, profile)


def _check_lambda(lam: float, bound: float):
    # lambda = 0 and lambda = bound, the two ends of the family's forbidden
    # window, collapse the family to a constant, not a kink
    if not math.isfinite(lam) or lam == 0.0:
        raise ValueError(f"lambda must be finite and nonzero, got {lam!r}")
    if lam == bound:
        raise ValueError(f"lambda = {lam!r} is the window bound: the profile is a constant")


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
    c1, c2, k = _undriven_riccati(params, _OTHER_VARIANT[variant], s)
    forced = ModelParams(params.a1, params.b1, undriven_rho(params.a1, s))
    # g = 1 - lam_b/lam as (t + s)/t; where t overflows, g rounds to 1 and
    # the member is its particular kink
    t = lam * sa
    g = (t + s) / t if math.isfinite(t) else 1.0
    profile = _riccati_profile(c1, c2, 0.0, _member_k(k, -c2, sa / SQRT2, g), xi0)
    tag = "+" if s > 0 else "-"
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
    r = setup.rate(c)
    sb = math.sqrt(setup.b1)
    forced = ModelParams(
        setup.a1, setup.b1, setup.rho(c, s), gamma1=1.0, eta=setup.eta_times_gamma1
    )
    # g = 1 - lam_b/lam as (t - s*sqrt(b1))/t: through the rounded lam_b it
    # errs 6.9e-14 of the levels at figure 4's lam = 0.53, against 1.5e-15.
    # Where t overflows, g rounds to 1 and the member is the particular kink
    t = 2.0 * lam * r
    g = (t - s * sb) / t if math.isfinite(t) else 1.0
    c2 = s * r / SQRT2
    k = _member_k(0.5, -c2, r / SQRT2, g)
    profile = _riccati_profile(-s * sb / SQRT2, c2, -setup.epsilon, k, xi0)
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
    it is one profile of _riccati_profile, with shift 0 and

        K = A*lam/g - 1,    A = -c2/c1,

    evaluated by its kernel.  As lam -> +-inf it collapses to the
    particular solution; lam = 0 is the solution with its pole at xi0
    (K = -1).  The two constant solutions, 0 (g == 0) and the fixed point
    A (K == 0), are no kink, so they are returned without building a
    profile.

    Raises
    ------
    ValueError
        If c1 or c2 is zero, if c1, c2, y1, lam or xi0 is not finite, or if
        K or the centre overflows.  With c2 == 0 the solution is rational, not a
        Moebius-exponential profile, and no family of the catalogue has it.
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
    if g == 0.0:
        vals = np.zeros(x.shape)
    elif (k := -c2 / c1 * lam / g - 1.0) == 0.0:
        vals = np.full(x.shape, -c2 / c1)
    else:
        profile = _riccati_profile(c1, c2, 0.0, k, xi0)
        bad = profile.is_singular(x)
        if np.any(bad):
            raise SingularPoint("lambda denominator vanishes", xi=_first_offender(x, bad))
        vals = profile.value(x)
    if x.ndim == 0:
        return float(vals)
    return vals
