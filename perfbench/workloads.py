"""Workload generators, operations and output checks.

Each workload is built from --seed by a generator that uses only the
standard library and the mpmath reference; the program sees the generated
inputs (argument lists, coefficients, lambda values) and nothing else.  A
workload is one fixed round of operations that the worker repeats, so
every run attempts whole rounds of the same operations.  Every operation
returns how many items it handled (CSV rows, grid points, RK4 steps,
lambda values) and is checked against the reference or against properties
the method must have.

Calls into the program go through module attributes (cli.main,
kinks.lambda_driven_solution, ...) so the tracer's wrappers see them.
"""

from __future__ import annotations

import math
import os
import random
import shutil
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

import reference as R
from glkinks import analysis, cli, kinks, model, verify

EPS = np.finfo(float).eps

# The four published parameter sets: a1, b1, epsilon, case, branch, the
# friction quoted in the caption and the lambda values drawn.
FIGURE_SETS = {
    1: (3.0, 0.7, 2.2772, "I", "+", 0.90326, ("0.125", "0.2", "0.5", "10")),
    2: (3.0, 0.7, 1.0351, "I", "-", 2.39335, ("0.01", "0.1", "0.5", "10")),
    3: (0.7, 3.0, 0.5313, "II", "+", 1.51635, ("0.77", "0.9", "2", "10")),
    4: (0.7, 3.0, -0.5313, "II", "-", 0.435766, ("0.53", "0.6", "1", "10")),
}
FIGURE_GRID = (-15.0, 15.0, 4001)
# captions give 5-6 significant digits
CAPTION_TOL = 1e-3


class CheckFailed(Exception):
    """An operation's output disagrees with the reference."""


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def loguniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


# catalogue members ------------------------------------------------------------


@dataclass
class Member:
    """One catalogue member as the program is asked for it."""

    kind: str  # montroll, undriven, driven, lambda-driven, lambda-zero-field
    a1: float = 1.0
    b1: float = 1.0
    xi0: float = 0.0
    eps: float | None = None
    case: str | None = None
    branch: str | None = None
    index: int | None = None
    variant: str | None = None
    lam: float | None = None
    roots: tuple[float, float] | None = None
    ref: R.Profile = field(init=False, repr=False)

    def __post_init__(self):
        self.ref = self.reference(self.lam)

    def reference(self, lam):
        if self.kind == "montroll":
            return R.montroll(*self.roots, xi0=self.xi0)
        if self.kind == "undriven":
            return R.undriven(self.a1, self.b1, self.index, self.xi0)
        if self.kind in ("driven", "lambda-driven"):
            return R.driven(self.a1, self.b1, self.eps, self.case, self.branch, self.xi0, lam)
        return R.lambda_zero_field(self.a1, self.b1, self.branch, self.variant, lam, self.xi0)

    def build(self):
        """The program's KinkSolution (driven_setup included for driven kinds)."""
        if self.kind == "montroll":
            return kinks.montroll_solution(*self.roots, self.xi0)
        if self.kind == "undriven":
            params = model.ModelParams(self.a1, self.b1)
            return kinks.undriven_solution(params, self.index, self.xi0)
        if self.kind == "lambda-zero-field":
            return kinks.lambda_zero_field_solution(
                model.ModelParams(self.a1, self.b1), self.branch, self.variant, self.lam, self.xi0
            )
        setup = model.driven_setup(self.a1, self.b1, self.eps)
        if self.kind == "driven":
            return kinks.driven_solution(setup, self.case, self.branch, self.xi0)
        return kinks.lambda_driven_solution(setup, self.case, self.branch, self.lam, self.xi0)

    def cli_args(self):
        if self.kind == "montroll":
            a, b = self.roots
            return [f"--montroll-a={a!r}", f"--montroll-b={b!r}", f"--xi0={self.xi0!r}"]
        args = [f"--a1={self.a1!r}", f"--b1={self.b1!r}", f"--xi0={self.xi0!r}"]
        if self.kind == "undriven":
            return args + [f"--index={self.index}"]
        if self.kind == "lambda-zero-field":
            return args + [f"--branch={self.branch}", f"--variant={self.variant}",
                           f"--lambda={self.lam!r}"]
        args += [f"--epsilon={self.eps!r}", f"--case={self.case}", f"--branch={self.branch}"]
        return args + ([f"--lambda={self.lam!r}"] if self.kind == "lambda-driven" else [])

    @property
    def width(self):
        return float(self.ref.width)

    def center(self):
        """Pole if there is one, else the switching midpoint."""
        poles = self.ref.poles()
        return float(poles[0]) if poles else float(self.ref.midpoint())


def draw_eps(rng, a1, b1, case, branch, crosses=None):
    """An epsilon well inside the branch's positive-rho window, away from r = 0.

    crosses (True or False), if given, also fixes whether the kink's two
    levels, -eps and r/sqrt(b1) - eps, lie on both sides of psi = 0.
    """
    lo, hi = R.epsilon_window(a1, b1, case, branch)
    while True:
        eps = lo + rng.uniform(0.1, 0.9) * (hi - lo)
        r_plus, r_minus = R.driven_roots(a1, b1, eps)
        r = r_plus if case == "I" else r_minus
        ref = R.driven(a1, b1, eps, case, branch)
        if crosses is not None and crosses != (-eps * (r / math.sqrt(b1) - eps) < 0):
            continue
        if abs(r) > 0.1 * math.sqrt(a1) and ref.rho > 0.05 * math.sqrt(a1):
            return eps


def draw_lambda(rng, particular, smooth):
    """Lambda with K = t*K_particular, |log10 t| in [0.3, 2]; smooth (K > 0) or with a pole."""
    t = 10.0 ** (rng.choice((-1, 1)) * rng.uniform(0.3, 2.0))
    if smooth != (particular.d0 > 0):
        t = -t
    return float(R.lambda_for_k_ratio(particular, t))


def draw_member(rng, kind, lo, hi, smooth=True, a1_range=None, **fixed):
    a1, b1 = loguniform(rng, *(a1_range or (lo, hi))), loguniform(rng, lo, hi)
    xi0 = rng.uniform(-2.0, 2.0) * math.sqrt(2.0 / a1)
    if kind == "undriven":
        return Member(kind, a1, b1, xi0, index=fixed["index"])
    if kind == "lambda-zero-field":
        branch = fixed.get("branch") or rng.choice("+-")
        variant = fixed.get("variant") or rng.choice(("first", "second"))
        base = R.lambda_zero_field(a1, b1, branch, variant, None, xi0)
        return Member(kind, a1, b1, xi0, branch=branch, variant=variant,
                      lam=draw_lambda(rng, base, smooth))
    case = fixed.get("case") or rng.choice(("I", "II"))
    branch = fixed.get("branch") or rng.choice("+-")
    eps = draw_eps(rng, a1, b1, case, branch, fixed.get("crosses"))
    if kind == "driven":
        return Member(kind, a1, b1, xi0, eps=eps, case=case, branch=branch)
    base = R.driven(a1, b1, eps, case, branch, xi0)
    return Member(kind, a1, b1, xi0, eps=eps, case=case, branch=branch,
                  lam=draw_lambda(rng, base, smooth))


def figure_member(fig, lam=None):
    a1, b1, eps, case, branch, _, _ = FIGURE_SETS[fig]
    kind = "driven" if lam is None else "lambda-driven"
    return Member(kind, a1, b1, 0.0, eps=eps, case=case, branch=branch, lam=lam)


def unit_members():
    """Unit coefficients: the two-root kink, the basic kinks, zero-field lambda kinks.

    lambda = 1 on the '-' branch makes K = 0, a constant profile with no
    kink to integrate; it is left out.
    """
    out = [Member("montroll", roots=(0.0, 1.0))]
    out += [Member("undriven", index=i) for i in (1, 2, 3, 4)]
    for branch in "+-":
        for variant in ("first", "second"):
            out += [Member("lambda-zero-field", branch=branch, variant=variant, lam=lam)
                    for lam in (1.0, 10.0, 100.0)]
    return [m for m in out if m.ref.k != 0]


# reference values and their tolerance ------------------------------------------


def reference_values(ref, xi):
    """Reference psi at float points and a rounding-level tolerance for each.

    The program rounds z = rate*(xi - xi0) and the Moebius arithmetic; a
    relative error EPS in z moves psi by |psi'|*(|xi| + |xi0| + width)*EPS,
    and the arithmetic adds a few EPS of the profile's scale.
    """
    scale = max(abs(v) for v in ref.levels) + abs(ref.shift)
    vals = np.empty(len(xi))
    tol = np.empty(len(xi))
    a, k = ref.n / ref.d0, ref.k
    for i, x in enumerate(xi):
        x = mp.mpf(float(x))
        e = mp.exp(-ref.c2 * (x - ref.xi0))
        q = 1 + k * e
        slope = abs(a * k * ref.c2 * e / (q * q))
        v = ref.value(x)
        vals[i] = float(v)
        tol[i] = float(64 * EPS * (slope * (abs(x) + abs(ref.xi0) + ref.width) + abs(v) + scale))
    return vals, tol


def check_values(label, got, want, tol):
    bad = np.nonzero(~(np.abs(got - want) <= tol))[0]
    expect(bad.size == 0, f"{label}: {bad.size} values off the reference, first at "
           f"{bad[:1]}: {got[bad[:1]]} vs {want[bad[:1]]}")


def check_rho(label, got, ref):
    expect(abs(got - float(ref.rho)) <= 1e-12 * abs(float(ref.rho)),
           f"{label}: forced rho {got!r} vs reference {float(ref.rho)!r}")


# eval-csv ------------------------------------------------------------------------


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    expect(text.endswith("\n"), f"{path}: no final newline")
    comments = {}
    start = 0
    while text.startswith("#", start):
        end = text.index("\n", start)
        key, _, value = text[start + 2:end].partition("=")
        comments[key] = value
        start = end + 1
    end = text.index("\n", start)
    return comments, text[start:end], text[end + 1:], len(text.encode())


def split_rows(label, body, n):
    """The n three-field rows of a CSV body as three columns of strings."""
    expect(body.count("\n") == n and body.count(",") == 2 * n,
           f"{label}: {body.count(chr(10))} rows or a row without three fields, want {n} rows")
    fields = body.replace("\n", ",").split(",")
    return fields[0:-1:3], fields[1:-1:3], fields[2:-1:3]


class CsvGrid:
    """Expected content of one xi,psi,is_singular file."""

    def __init__(self, ref, grid, rng, n_samples):
        self.ref = ref
        lo, hi, n = grid
        self.xi = np.linspace(lo, hi, n)
        # rows the profile must flag: the grid node sitting on an analytic pole
        step = (hi - lo) / (n - 1)
        self.singular = set()
        for pole in ref.poles():
            i = int(round(float((pole - lo) / step)))
            if 0 <= i < n and abs(self.xi[i] - pole) <= 1e-9 * ref.width:
                self.singular.add(i)
        samples = sorted(set(rng.sample(range(n), n_samples)) - self.singular)
        self.samples = np.array(samples)
        self.want = self.tol = None

    def prepare(self):
        self.want, self.tol = reference_values(self.ref, self.xi[self.samples])

    def check(self, path):
        comments, header, body, nbytes = read_csv(path)
        label = os.path.basename(path)
        expect(header == "xi,psi,is_singular", f"{label}: header {header!r}")
        xi_col, psi_col, flag_col = split_rows(label, body, len(self.xi))
        xi = np.array(xi_col, dtype=float)
        expect(np.array_equal(xi, self.xi), f"{label}: xi column is not the requested linspace")
        expect(set(flag_col) <= {"0", "1"}, f"{label}: is_singular not 0/1")
        flagged = {i for i, f in enumerate(flag_col) if f == "1"}
        expect(flagged == self.singular,
               f"{label}: singular rows {sorted(flagged)[:3]} vs analytic {sorted(self.singular)}")
        expect(all(psi_col[i] == "" for i in flagged), f"{label}: value on a pole row")
        got = np.array([psi_col[i] for i in self.samples], dtype=float)
        check_values(label, got, self.want, self.tol)
        check_rho(label, float(comments["rho"]), self.ref)
        return len(xi_col), nbytes


class EvalOp:
    def __init__(self, member, grid, rng, out_dir, tag):
        self.member = member
        self.path = os.path.join(out_dir, f"eval-{tag}.csv")
        lo, hi, n = grid
        self.argv = ["eval", *member.cli_args(), f"--grid={lo!r}:{hi!r}:{n}", "--out", self.path]
        self.expected = CsvGrid(member.ref, grid, rng, 64)
        self.items = n

    def prepare(self):
        self.expected.prepare()

    def run(self):
        expect(cli.main(self.argv) == 0, f"eval exited non-zero: {self.argv}")

    def check(self, _):
        rows, nbytes = self.expected.check(self.path)
        os.remove(self.path)
        return rows, nbytes


class FigureOp:
    def __init__(self, fig, rng, out_dir):
        self.fig = fig
        self.dir = os.path.join(out_dir, f"fig{fig}")
        self.argv = ["figure", f"--fig={fig}", "--out", self.dir]
        lams = FIGURE_SETS[fig][6]
        self.files = {
            f"fig{fig}_lambda_{lam}.csv": CsvGrid(figure_member(fig, float(lam)).ref,
                                                   FIGURE_GRID, rng, 16)
            for lam in lams
        }
        self.items = len(lams) * FIGURE_GRID[2]

    def prepare(self):
        for grid in self.files.values():
            grid.prepare()

    def run(self):
        expect(cli.main(self.argv) == 0, f"figure exited non-zero: {self.argv}")

    def check(self, _):
        rows = nbytes = 0
        for name, grid in self.files.items():
            r, b = grid.check(os.path.join(self.dir, name))
            rows, nbytes = rows + r, nbytes + b
        sidecar = os.path.join(self.dir, f"fig{self.fig}_params.csv")
        with open(sidecar, encoding="utf-8") as fh:
            nbytes += len(fh.read().encode())
            fh.seek(0)
            kv = dict(line.rstrip("\n").split(",", 1) for line in fh if "," in line)
        caption, recomputed = float(kv["rho_caption"]), float(kv["rho_recomputed"])
        expect(abs(recomputed - caption) <= CAPTION_TOL,
               f"fig{self.fig}: rho_recomputed {recomputed} vs caption {caption}")
        check_rho(f"fig{self.fig} sidecar", recomputed, figure_member(self.fig).ref)
        shutil.rmtree(self.dir)
        return rows, nbytes


def eval_csv(seed, out_dir):
    """Ten ~1e5-row evals over every CLI family (three grids centred on a pole) and figures 1-4.

    a1 and b1 stay within [0.1, 10]: the cost of formatting a float grows
    for very small magnitudes, and a wider range would make the rate depend
    on the seed rather than on the formatting code.
    """
    rng = random.Random(seed)
    lo, hi = 1e-1, 1e1
    members = [
        (Member("montroll", roots=tuple(rng.sample((0.0, 1.0, -1.0), 2)),
                xi0=rng.uniform(-2, 2)), False),
        (draw_member(rng, "undriven", lo, hi, index=1), False),
        (draw_member(rng, "undriven", lo, hi, index=3), True),
        (draw_member(rng, "undriven", lo, hi, index=4), False),
        (draw_member(rng, "driven", lo, hi, case="I", branch="+"), False),
        (draw_member(rng, "driven", lo, hi, case="II", branch="-"), False),
        (draw_member(rng, "lambda-driven", lo, hi, case="I", branch="-"), False),
        (draw_member(rng, "lambda-driven", lo, hi, smooth=False, case="II", branch="+"), True),
        (draw_member(rng, "lambda-zero-field", lo, hi, variant="second", branch="+"), False),
        (draw_member(rng, "lambda-zero-field", lo, hi, smooth=False, variant="first",
                     branch="-"), True),
    ]
    ops = []
    for k, (m, on_pole) in enumerate(members):
        c = m.center() if on_pole else m.center() + rng.uniform(-1, 1) * m.width
        half = 15.0 * m.width
        ops.append(EvalOp(m, (c - half, c + half, 100_001), rng, out_dir, k))
    ops += [FigureOp(fig, rng, out_dir) for fig in FIGURE_SETS]
    return ops


# residual-dense ----------------------------------------------------------------------


class ResidualOp:
    # the residual divided by the largest term of the equation stays below
    # this; a friction off by PERTURB relative must push it above CAUGHT
    TOL = 1e-13
    PERTURB = 1e-4
    CAUGHT = 1e-8

    def __init__(self, member, n, rng):
        self.member = member
        self.n = n
        self.rng = rng
        self.items = None

    def prepare(self):
        pass

    def run(self):
        sol = self.member.build()
        grid = verify.verification_grid(sol, n=self.n)
        values = sol.evaluate(grid)
        report = verify.residual(sol, grid=grid, mode="analytic")
        self.items = grid.size
        return sol, grid, values, report

    def check(self, out):
        sol, grid, values, report = out
        m, ref = self.member, self.member.ref
        label = f"{ref.family} a1={m.a1:.4g} b1={m.b1:.4g}"
        check_rho(label, sol.forced_rho, ref)
        expect(report.skipped == 0 and report.grid[2] == grid.size, f"{label}: grid {report}")
        idx = np.array(sorted(self.rng.sample(range(grid.size), 32)))
        want, tol = reference_values(ref, grid[idx])
        check_values(label, values[idx], want, tol)
        big = float(np.max(np.abs(values)))
        scale = max(m.b1 * big**3, m.a1 * big, abs(float(ref.drive)))
        rel = report.max_abs_residual / scale
        expect(rel <= self.TOL, f"{label}: relative residual {rel:.3e}")
        off = verify.residual(sol, rho=sol.forced_rho * (1 + self.PERTURB), grid=grid[::997])
        expect(off.max_abs_residual / scale > self.CAUGHT,
               f"{label}: perturbed friction not caught ({off.max_abs_residual / scale:.3e})")
        return 0, 0


def residual_dense(seed, out_dir):
    """Twelve seeded members, a1 and b1 log-uniform in [1e-3, 1e3], on 1e5-point grids.

    Family, case, branch, variant and whether each kink crosses psi = 0 are
    the same for every seed.  The cost of an op follows them: psi**3 in the
    residual costs some 35 times more per negative point than per positive
    one.  I+ and II- kinks always cross 0; drawn freely, whether I- and II+
    did moved the rate by 10% from seed to seed.  Here they never do, so the
    I- kink is positive and the II+ kink negative on the whole grid.

    About half of an op is page faults on the numpy temporaries, which the
    allocator hands back to the kernel after each op.  At 1e6 points the
    arrays are 8 MB and numpy asks for huge pages for them, so the faults
    per op depend on what the kernel grants (16,563 with the request, 62,551
    with it turned off).  That is the likeliest cause of the rate jumping
    between two levels from run to run at that size.  Arrays of 800 kB get
    plain pages: 6,644 faults every op.
    """
    rng = random.Random(seed)
    lo, hi = 1e-3, 1e3
    members = [draw_member(rng, "undriven", lo, hi, index=i) for i in (1, 2, 3, 4)]
    members += [draw_member(rng, "driven", lo, hi, case=c, branch=b, crosses=x)
                for c, b, x in (("I", "+", None), ("I", "-", False), ("II", "+", False),
                                ("II", "-", None))]
    members += [draw_member(rng, "lambda-driven", lo, hi, case=c, branch=b)
                for c, b in (("I", "+"), ("II", "-"))]
    members += [draw_member(rng, "lambda-zero-field", lo, hi, variant=v, branch=b)
                for v, b in (("first", "+"), ("second", "-"))]
    return [ResidualOp(m, 100_000, rng) for m in members]


# rk4-oracle ----------------------------------------------------------------------------


class Rk4Op:
    # At h = width/50 the error (~2e-9 of the profile's scale) is far above
    # the ~1e-11 floor set by rounding of the initial data, so err(h)/err(h/2)
    # shows the fourth order (16) cleanly.  That holds while |rho|*width
    # stays near 3, as for every zero-field kink and the figure sets.
    STEPS_PER_WIDTH = 50
    SPAN_WIDTHS = 20.0
    SUP_TOL = 1e-8  # relative to the profile's scale, at step h/2
    RATIO = (12.0, 20.0)

    def __init__(self, member):
        self.member = member
        ref = member.ref
        w = member.width
        poles = ref.poles()
        # stable window: beside a pole on the side where phi -> 0 (psi -> shift,
        # the attracting end), else around the midpoint
        if poles:
            pole = float(poles[0])
            lo = pole - 22 * w if ref.levels[0] == ref.shift else pole + 2 * w
        else:
            lo = float(ref.midpoint()) - 10 * w
        hi = lo + self.SPAN_WIDTHS * w
        self.span = (lo, hi) if ref.rho > 0 else (hi, lo)
        n = int(self.STEPS_PER_WIDTH * self.SPAN_WIDTHS)
        self.h = w / self.STEPS_PER_WIDTH
        start = mp.mpf(self.span[0])
        self.psi0 = float(ref.value(start))
        self.dpsi0 = float(mp.diff(ref.value, start))
        self.scale = float(max(abs(v) for v in ref.levels))
        self.items = 3 * n

    def prepare(self):
        pass

    def run(self):
        sol = self.member.build()
        params = model.ModelParams(sol.params.a1, sol.params.b1, sol.forced_rho,
                                   gamma1=1.0, eta=sol.eta_gamma)
        sups = []
        for h in (self.h, self.h / 2):
            traj = verify.integrate_second_order(params, self.psi0, self.dpsi0, self.span, h)
            sups.append(verify.compare(traj, sol))
        return sol, sups

    def check(self, out):
        sol, (sup_h, sup_h2) = out
        label = f"rk4 {self.member.ref.family} a1={self.member.a1:.4g}"
        check_rho(label, sol.forced_rho, self.member.ref)
        expect(sup_h2 <= self.SUP_TOL * self.scale, f"{label}: sup {sup_h2:.3e}")
        ratio = sup_h / sup_h2
        expect(self.RATIO[0] <= ratio <= self.RATIO[1], f"{label}: halving ratio {ratio:.2f}")
        return 0, 0


def rk4_oracle(seed, out_dir):
    """Unit-coefficient catalogue, figure sets 1-4 and twelve seeded zero-field draws.

    The seeded draws stay in the zero-field families, where |rho|*width = 3
    whatever a1 and b1: driven draws reach |rho|*width of 30 or more, where
    a step fixed in widths no longer shows fourth order.
    """
    rng = random.Random(seed)
    members = unit_members()
    for fig in FIGURE_SETS:
        members.append(figure_member(fig))
        members += [figure_member(fig, float(lam)) for lam in FIGURE_SETS[fig][6]]
    lo, hi = 1e-3, 1e3
    members += [draw_member(rng, "undriven", lo, hi, index=i) for i in (1, 2, 3, 4)]
    members += [draw_member(rng, "lambda-zero-field", lo, hi, smooth=smooth, variant=v)
                for smooth in (True, False) for v in ("first", "second") for _ in range(2)]
    return [Rk4Op(m) for m in members]


# lambda-sweep --------------------------------------------------------------------------


class SweepOp:
    """Delay curve outside the forbidden window, poles inside it."""

    # 10**j for the outside sweeps, 10**-k for the inside ones
    OUTSIDE = (3, 2, 1, 0, -1, -2, -3, -4, -5, -6)
    INSIDE = (1, 2, 3, 4, 5, 6)

    def __init__(self, member, out_dir, fig=None):
        self.member = member
        self.fig = fig
        m = member
        b = float(R.lambda_window_bound(m.a1, m.b1, m.eps, m.case, m.branch))
        self.bound = b
        outside = [b * (1 + 10.0**j) for j in self.OUTSIDE] + [-b * 10.0**j for j in self.OUTSIDE]
        self.outside = sorted(outside)
        self.inside = [b * 10.0**-k for k in self.INSIDE] + [b * (1 - 10.0**-k)
                                                            for k in self.INSIDE]
        self.items = len(self.outside) + len(self.inside)
        if fig is not None:
            self.path = os.path.join(out_dir, f"delay-fig{fig}.csv")
            self.argv = ["delay", f"--fig={fig}", *(f"--lambda={x!r}" for x in self.outside),
                         "--out", self.path]
        self.want_mid = self.want_inf = self.want_poles = None

    def prepare(self):
        m = self.member
        self.want_mid = [float(m.reference(lam).midpoint()) for lam in self.outside]
        self.want_inf = float(m.ref.midpoint())
        self.want_poles = [float(m.reference(lam).poles()[0]) for lam in self.inside]

    def run(self):
        m = self.member
        setup = model.driven_setup(m.a1, m.b1, m.eps)
        window = model.epsilon_admissible_interval(m.a1, m.b1, m.case, m.branch)
        domain = analysis.lambda_forbidden_interval(setup, m.case, m.branch)
        if self.fig is None:
            particular = kinks.driven_solution(setup, m.case, m.branch, m.xi0)
            curve = analysis.delay_curve(
                lambda lam: kinks.lambda_driven_solution(setup, m.case, m.branch, lam, m.xi0),
                self.outside, particular)
            delay = (curve.lambdas, curve.midpoints, curve.multiplicities, curve.midpoint_inf)
        else:
            expect(cli.main(self.argv) == 0, f"delay exited non-zero: {self.argv}")
            delay = None
        poles = [analysis.singularity_scan(
            kinks.lambda_driven_solution(setup, m.case, m.branch, lam, m.xi0))
            for lam in self.inside]
        return window, domain, delay, poles

    def read_delay(self):
        comments, header, body, nbytes = read_csv(self.path)
        rows = body.split("\n")[:-1]
        expect(header == "lambda,xi_mid,multiplicity_flag", f"delay header {header!r}")
        cols = [r.split(",") for r in rows[:-1]]
        expect(rows[-1].startswith("# midpoint_inf="), "delay footer missing")
        mid_inf = float(rows[-1].partition("=")[2])
        lams = [float(c[0]) for c in cols]
        mids = [float(c[1]) for c in cols]
        counts = [2 if c[2] == "1" else 1 for c in cols]
        os.remove(self.path)
        return (lams, mids, counts, mid_inf), len(cols), nbytes

    def check(self, out):
        window, domain, delay, poles = out
        m = self.member
        label = f"sweep {m.ref.family} a1={m.a1:.4g} b1={m.b1:.4g}"
        rows = nbytes = 0
        if delay is None:
            delay, rows, nbytes = self.read_delay()
        lams, mids, counts, mid_inf = delay
        w = m.width
        expect(window.contains(m.eps), f"{label}: epsilon outside its window {window}")
        expect(abs(domain.bound_value - self.bound) <= 1e-12 * abs(self.bound),
               f"{label}: window bound {domain.bound_value!r} vs {self.bound!r}")
        expect(list(lams) == self.outside, f"{label}: lambda values changed")
        expect(all(c == 1 for c in counts), f"{label}: multiple crossings {counts}")
        tol = 1e-8 * w
        err = max(abs(a - b) for a, b in zip(mids, self.want_mid))
        expect(err <= tol, f"{label}: midpoint off by {err:.3e} (width {w:.3e})")
        expect(abs(mid_inf - self.want_inf) <= tol, f"{label}: midpoint_inf {mid_inf}")
        # monotone on each side of the window, approaching midpoint_inf as |lambda| grows
        for side in ([x for x in zip(lams, mids) if x[0] < min(0.0, self.bound)],
                     [x for x in zip(lams, mids) if x[0] > max(0.0, self.bound)]):
            d = np.diff([mid for _, mid in side])
            expect(np.all(d > 0) or np.all(d < 0), f"{label}: delay not monotone")
            gaps = [abs(mid - mid_inf) for _, mid in sorted(side, key=lambda x: abs(x[0]))]
            expect(all(a > b for a, b in zip(gaps, gaps[1:])), f"{label}: no saturation")
        for found, want in zip(poles, self.want_poles):
            expect(len(found) == 1 and abs(found[0] - want) <= tol,
                   f"{label}: poles {found} vs analytic {want}")
        return rows, nbytes


def lambda_sweep(seed, out_dir):
    """Figures 1-4 through `glkinks delay`, one seeded draw per case and branch direct.

    b1 is log-uniform in [1e-3, 1e3] but a1 only in [0.5, 2].  The
    bisections in `analysis` stop at an absolute 1e-10, so their step count
    grows with log2 of the kink width, which goes as 1/sqrt(a1).  With a1
    over six decades an op took 18-38 ms depending on the seed.
    """
    rng = random.Random(seed)
    ops = [SweepOp(figure_member(fig), out_dir, fig) for fig in FIGURE_SETS]
    for case in ("I", "II"):
        for branch in "+-":
            member = draw_member(rng, "driven", 1e-3, 1e3, a1_range=(0.5, 2.0), case=case,
                                 branch=branch)
            ops.append(SweepOp(member, out_dir))
    return ops


WORKLOADS = {
    "eval-csv": eval_csv,
    "residual-dense": residual_dense,
    "rk4-oracle": rk4_oracle,
    "lambda-sweep": lambda_sweep,
}
