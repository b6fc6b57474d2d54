"""Independent mpmath reference for the kink catalogue (40 significant digits).

Written from the paper's formulas, not from the program's Moebius
coefficients.  Every family is built from the linear factorization of the
cubic: the compatible Riccati equation phi' = c1*phi^2 + c2*phi has the
bounded particular kink

    y1(z) = N / (d0 + exp(-c2*z)),        z = xi - xi0,

with N/d0 = -c2/c1 its nonzero fixed point, and psi = phi + shift.  The
lambda families are the general Riccati solution around y1,

    y(z) = y1(z) + exp(I1(z)) / (lam - c1*I2(z)),
    I1 = -c2*z - 2*ln(d0 + exp(-c2*z))     (an antiderivative of 2*c1*y1 + c2),
    I2 = integral of exp(I1) from the end where r*z -> +inf, up to z
       = 1/(c2*D(z)) - [1/(c2*d0) if exp(-c2*z) -> 0 at that end else 0],

with D = d0 + exp(-c2*z) and r the root carried by f1 (r = sqrt(a1) for
the zero-field families).  That base point is the convention under which
the pole appears exactly for lambda in the paper's forbidden window
between 0 and sign*sqrt(b1)/(2*r).  Clearing denominators gives
y = A/(1 + K*exp(-c2*z)) with A = N/d0 and K = (1/d0)*N*lt/(N*lt + 1),
lt = lam + c1*(the constant in I2); the midpoint (y = A/2) and the pole
(y = inf) follow in closed form as ln(K)/c2 and ln(-K)/c2.  The tests in
test_reference.py check the closed forms against the general formula and
against the second-order equation at this precision.
"""

from __future__ import annotations

import math

import mpmath as mp

mp.mp.dps = 40

_SQRT2 = mp.sqrt(2)


class Profile:
    """One catalogue member: equation coefficients plus its closed form."""

    def __init__(self, family, a1, b1, rho, drive, c1, c2, n, d0, shift, xi0, lam=None,
                 r_sign=1):
        self.family = family
        self.a1, self.b1 = mp.mpf(a1), mp.mpf(b1)
        self.rho, self.drive = mp.mpf(rho), mp.mpf(drive)
        self.c1, self.c2 = mp.mpf(c1), mp.mpf(c2)
        self.n, self.d0, self.shift = mp.mpf(n), mp.mpf(d0), mp.mpf(shift)
        self.xi0 = mp.mpf(xi0)
        self.lam = None if lam is None else mp.mpf(lam)
        self.r_sign = r_sign

    # closed form --------------------------------------------------------
    def particular(self, xi):
        return self.n / (self.d0 + mp.exp(-self.c2 * (mp.mpf(xi) - self.xi0)))

    def phi(self, xi):
        """Unshifted solution of the Riccati equation at xi."""
        z = mp.mpf(xi) - self.xi0
        e = mp.exp(-self.c2 * z)
        d = self.d0 + e
        y1 = self.n / d
        if self.lam is None:
            return y1
        i1 = e / (d * d)
        i2 = 1 / (self.c2 * d) - self._i2_at_inf()
        return y1 + i1 / (self.lam - self.c1 * i2)

    def value(self, xi):
        return self.phi(xi) + self.shift

    def _i2_at_inf(self):
        return 1 / (self.c2 * self.d0) if self.c2 * self.r_sign > 0 else mp.mpf(0)

    # derived quantities -------------------------------------------------
    @property
    def width(self):
        return 1 / abs(self.c2)

    @property
    def k(self):
        """K in phi = A/(1 + K*exp(-c2*z)); K < 0 means a real pole."""
        if self.lam is None:
            return 1 / self.d0
        lt = self.lam + self.c1 * self._i2_at_inf()
        return (self.n * lt) / (self.n * lt + 1) / self.d0

    @property
    def levels(self):
        """(left, right) limits as xi -> -inf, +inf."""
        top = self.n / self.d0 + self.shift
        return (self.shift, top) if self.c2 > 0 else (top, self.shift)

    def midpoint(self):
        """Where psi crosses the mean of its two levels (None if it has a pole)."""
        k = self.k
        return None if k <= 0 else self.xi0 + mp.log(k) / self.c2

    def poles(self):
        k = self.k
        return [] if k >= 0 else [self.xi0 + mp.log(-k) / self.c2]

    def residual(self, xi):
        """Second-order equation defect at xi, by 40-digit differentiation."""
        d0, d1, d2 = (mp.diff(self.value, mp.mpf(xi), n) for n in range(3))
        return d2 + self.rho * d1 - self.b1 * d0**3 + self.a1 * d0 + self.drive

    def riccati_defect(self, xi):
        """phi' - c1*phi^2 - c2*phi at xi; zero for every member."""
        p = self.phi(xi)
        return mp.diff(self.phi, mp.mpf(xi)) - self.c1 * p * p - self.c2 * p


# families, as the paper writes them -----------------------------------------


def montroll(a, b, xi0=0.0):
    """a + sqrt(2)*alpha/(1 + exp(alpha*xi)), alpha = (b - a)/sqrt(2), rho = 3(a+b)/sqrt(2)."""
    a, b = mp.mpf(a), mp.mpf(b)
    alpha = (b - a) / _SQRT2
    return Profile("montroll", 1, 1, 3 * (a + b) / _SQRT2, 0, 1 / _SQRT2, -alpha,
                   _SQRT2 * alpha, 1, a, xi0)


# index -> (sign of rho, sign of the exponent, sign of sqrt(b1) in the denominator)
_UNDRIVEN = {1: (1, 1, 1), 2: (-1, -1, 1), 3: (-1, -1, -1), 4: (1, 1, -1)}


def undriven(a1, b1, index, xi0=0.0):
    """sqrt(a1)/(+-sqrt(b1) + exp(+-sqrt(a1/2)*xi)), rho = +-(3/sqrt(2))*sqrt(a1)."""
    a1, b1 = mp.mpf(a1), mp.mpf(b1)
    sa, sb = mp.sqrt(a1), mp.sqrt(b1)
    rho_sign, exp_sign, den_sign = _UNDRIVEN[index]
    c2 = -exp_sign * sa / _SQRT2
    d0 = den_sign * sb
    return Profile(f"undriven-{index}", a1, b1, rho_sign * 3 * sa / _SQRT2, 0,
                   -c2 * d0 / sa, c2, sa, d0, 0, xi0)


def driven_roots(a1, b1, eps):
    """(r_plus, r_minus) = (3*sqrt(b1)*eps +- sqrt(4*a1 - 3*b1*eps^2))/2."""
    a1, b1, eps = mp.mpf(a1), mp.mpf(b1), mp.mpf(eps)
    sq = mp.sqrt(4 * a1 - 3 * b1 * eps * eps)
    return (3 * mp.sqrt(b1) * eps + sq) / 2, (3 * mp.sqrt(b1) * eps - sq) / 2


def driven(a1, b1, eps, case, branch, xi0=0.0, lam=None):
    """(2r/sqrt(b1))/(2 + exp(-s*r*xi/sqrt(2))) - eps, or its lambda family.

    f1 = (s/sqrt(2))*(r - sqrt(b1)*phi) with r = r_plus (case I) or r_minus
    (case II) gives c1 = -s*sqrt(b1)/sqrt(2), c2 = s*r/sqrt(2), and the
    sum condition forces rho = s*(2*r_other - r)/sqrt(2).
    """
    s = 1 if branch in ("+", 1) else -1
    r_plus, r_minus = driven_roots(a1, b1, eps)
    r, r_other = (r_plus, r_minus) if case == "I" else (r_minus, r_plus)
    sb = mp.sqrt(mp.mpf(b1))
    eps = mp.mpf(eps)
    drive = mp.mpf(a1) * eps - mp.mpf(b1) * eps**3
    tag = "+" if s > 0 else "-"
    family = f"lambda-{case}{tag}" if lam is not None else f"driven-{case}{tag}"
    return Profile(family, a1, b1, s * (2 * r_other - r) / _SQRT2, drive,
                   -s * sb / _SQRT2, s * r / _SQRT2, 2 * r / sb, 2, -eps, xi0, lam,
                   1 if r > 0 else -1)


def lambda_zero_field(a1, b1, branch, variant, lam, xi0=0.0):
    """General Riccati solution around a basic kink.

    branch '+' rises as exp(+sqrt(a1/2)*xi) with rho > 0; variant 'first'
    is built on the kink with a pole (d0 = -sqrt(b1)), 'second' on the
    smooth one (d0 = +sqrt(b1)).
    """
    a1, b1 = mp.mpf(a1), mp.mpf(b1)
    sa, sb = mp.sqrt(a1), mp.sqrt(b1)
    s = 1 if branch in ("+", 1) else -1
    d0 = (-sb if variant == "first" else sb)
    c2 = -s * sa / _SQRT2
    return Profile(f"lambda-zero-field-{variant}{'+' if s > 0 else '-'}", a1, b1,
                   s * 3 * sa / _SQRT2, 0, -c2 * d0 / sa, c2, sa, d0, 0, xi0, lam)


def lambda_for_k_ratio(profile, t):
    """Lambda whose member has K = t * K_particular (t != 1); inverts Profile.k."""
    t = mp.mpf(t)
    nlt = t / (1 - t)
    return nlt / profile.n - profile.c1 * profile._i2_at_inf()


# admissibility windows -------------------------------------------------------


def epsilon_window(a1, b1, case, branch):
    """Open/closed epsilon interval on which the branch has rho > 0."""
    root = math.sqrt(a1 / b1)
    outer = 2.0 / math.sqrt(3.0) * root
    s = 1 if branch == "+" else -1
    if case == "I":
        return (root, outer) if s > 0 else (-outer, root)
    return (-root, outer) if s > 0 else (-outer, -root)


def lambda_window_bound(a1, b1, eps, case, branch):
    """Signed closed end sign(branch)*sqrt(b1)/(2r) of the forbidden lambda window."""
    r_plus, r_minus = driven_roots(a1, b1, eps)
    r = r_plus if case == "I" else r_minus
    s = 1 if branch == "+" else -1
    return s * mp.sqrt(mp.mpf(b1)) / (2 * r)
