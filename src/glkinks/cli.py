"""Command line interface.

Subcommands and the flags each one reads
----------------------------------------
families   list every family constructible from given coefficients
           --a1 --b1 --epsilon --out
eval       evaluate one profile on a grid and emit CSV
           --a1 --b1 --epsilon --case --branch --index --variant --lambda
           --xi0 --grid --out --montroll-a --montroll-b
figure     emit the CSV data behind one of the four reference figures
           --fig (required) --out
verify     run the residual and integration oracle suite
           --a1 --b1 --family --perturb-rho --out
delay      emit the midpoint-versus-lambda delay curve as CSV
           --fig --a1 --b1 --epsilon --case --branch --xi0 --lambda --out

A subcommand rejects every other flag (exit 2).  ``delay --fig N`` takes
its coefficients from the figure, so it accepts only --lambda and --out
besides.  ``verify --perturb-rho X`` is a test hook that runs every check
at the forced rho scaled by 1 + X, so the suite must fail at any scale of
the coefficients.

All output is deterministic: numbers use 17 significant digits, lines end
with a single newline, and nothing depends on time, environment or
randomness.  Exit codes: 0 success, 1 verification failure, 2 usage or
parameter error or an --out that cannot be written, 3 domain error
(poles, forbidden lambda, no crossing).

CSV rows are formatted by ``_csv_rows`` and written a block of 2,048 rows
at a time, so no whole-file string is built.  Every number is the bytes of
``f"{x:.17g}"``.  A table of 200 rows or more goes through ``_g17``, an
exact vectorised ``%.17g``: for 1e-6 < |x| < 1e17 it forms |x| * 10**p,
p = 16 - floor(log10|x|) <= 22, exactly as a double-double hi + lo (10**p
is an exact double), and the 17 significant digits rounded half to even
are the int64 ``hi + rint(lo)``.  Zeros, subnormals, nan, inf and every
|x| outside that range are formatted by ``%`` itself, and so are tables
shorter than 200 rows, such as delay curves: there the formatter's fixed
cost, about 0.13 ms a block on a 2-vCPU Xeon, is more than ``%`` spends.

The argument parser is built once per process, on the first call of
``main``, and reused: parsing leaves no state in it, and building it took
about 1.4 ms of a 2 ms ``delay`` call on a 2-vCPU Xeon.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import __version__, _g17
from .analysis import delay_curve, lambda_forbidden_interval
from .errors import (
    ComplexDelta,
    DomainMismatch,
    EmptyGrid,
    NoCrossing,
    NonFinite,
    NonPositiveCoefficient,
    NonPositiveRate,
    SingularPoint,
)
from .figures import FIGURES
from .kinks import (
    KinkSolution,
    catalogue,
    driven_solution,
    lambda_driven_solution,
    lambda_zero_field_solution,
    montroll_solution,
    undriven_solution,
)
from .model import (
    ModelParams,
    driven_setup,
    epsilon_admissible_interval,
)
from .verify import compare, integrate_second_order, residual, verification_grid

_USAGE_ERROR = 2
_DOMAIN_ERROR = 3

# verify passes a residual line when max|res| < this * max(b1*M*M*M, a1*M,
# |drive|), M = max|psi| on its grid: correct catalogue profiles reach
# 8.7e-16, a friction off by 1e-3 at least 1.7e-4, at a1, b1 from 1e-6 to 1e6.
# The cube is formed left to right and nothing is divided, so no scale
# raises an exception: an overflow to inf or an underflow to 0 fails the line
_RESIDUAL_GATE = 1e-12


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must be lo:hi:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError(f"grid bounds must be finite, got {text!r}")
    if n < 2:
        raise argparse.ArgumentTypeError("grid needs n >= 2")
    if not lo < hi:
        raise argparse.ArgumentTypeError("grid needs lo < hi")
    return lo, hi, n


# Every flag, defined once; _COMMANDS names the flags each subcommand reads.
_FLAGS = {
    "--a1": dict(type=_finite_float, help="linear coefficient (> 0)"),
    "--b1": dict(type=_finite_float, help="cubic coefficient (> 0)"),
    "--epsilon": dict(type=_finite_float, help="constant-drive shift"),
    "--case": dict(choices=("I", "II"), help="driven factorization case"),
    "--branch": dict(choices=("+", "-"), help="front sign / lambda branch"),
    "--index": dict(type=int, help="basic kink index 1..4"),
    "--variant": dict(choices=("first", "second"), help="zero-field lambda variant"),
    "--lambda": dict(
        dest="lambda_list",
        type=_finite_float,
        action="append",
        default=[],
        metavar="LAM",
        help="Riccati parameter (repeatable)",
    ),
    "--xi0": dict(type=_finite_float, help="profile center (default 0)"),
    "--grid": dict(
        type=_parse_grid,
        default=(-15.0, 15.0, 4001),
        metavar="LO:HI:N",
        help="evaluation grid (default -15:15:4001)",
    ),
    "--out": dict(dest="output_path", help="output file (or directory for figure)"),
    "--family": dict(help="check only the catalogue members of this family"),
    "--montroll-a": dict(type=_finite_float, help="first cubic root for the unit kink"),
    "--montroll-b": dict(type=_finite_float, help="second cubic root for the unit kink"),
    "--fig": dict(type=int, choices=sorted(FIGURES), help="reference figure id"),
    "--perturb-rho": dict(
        type=_finite_float,
        default=0.0,
        help="test hook: scale every forced rho by 1 + X (makes the suite fail)",
    ),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glkinks",
        description="Closed-form kinks of the damped double-well equation: "
        "construction, evaluation, verification, delay curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags, required) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            p.add_argument(flag, required=flag in required, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


# argparse dest -> the flag that sets it
_FLAG_OF_DEST = {spec.get("dest", f[2:].replace("-", "_")): f for f, spec in _FLAGS.items()}


def _flag_names(names) -> str:
    return ", ".join(_FLAG_OF_DEST[n] for n in names)


def _require(args: argparse.Namespace, *names: str):
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise ValueError(f"missing required flags for this family: {_flag_names(missing)}")


def _infer_family(args: argparse.Namespace) -> str:
    if args.montroll_a is not None or args.montroll_b is not None:
        return "montroll"
    if args.epsilon is not None:
        return "lambda-driven" if args.lambda_list else "driven"
    if args.lambda_list:
        return "lambda-zero-field"
    if args.index is not None:
        return "undriven"
    raise ValueError(
        "cannot infer family; pass identifying flags "
        "(--index, --epsilon, --lambda, --montroll-a/--montroll-b)"
    )


def _xi0(args) -> float:
    """--xi0, or 0; it has no argparse default so delay can tell it was given."""
    return 0.0 if args.xi0 is None else args.xi0


def _single_lambda(args: argparse.Namespace) -> float:
    if len(args.lambda_list) != 1:
        raise ValueError("this command takes exactly one --lambda")
    return args.lambda_list[0]


# the flags (argparse dests) each eval family reads, besides --xi0, --grid, --out
_FAMILY_FLAGS = {
    "montroll": ("montroll_a", "montroll_b"),
    "undriven": ("a1", "b1", "index"),
    "driven": ("a1", "b1", "epsilon", "case", "branch"),
    "lambda-driven": ("a1", "b1", "epsilon", "case", "branch", "lambda_list"),
    "lambda-zero-field": ("a1", "b1", "branch", "variant", "lambda_list"),
}
_FAMILY_DESTS = tuple(dict.fromkeys(n for reads in _FAMILY_FLAGS.values() for n in reads))


def _build_solution(args: argparse.Namespace) -> KinkSolution:
    family = _infer_family(args)
    reads = _FAMILY_FLAGS[family]
    foreign = [n for n in _FAMILY_DESTS if n not in reads and getattr(args, n) not in (None, [])]
    if foreign:
        raise ValueError(f"family {family} does not read {_flag_names(foreign)}")
    _require(args, *reads)
    xi0 = _xi0(args)
    if family == "montroll":
        return montroll_solution(args.montroll_a, args.montroll_b, xi0)
    if family == "undriven":
        return undriven_solution(ModelParams(args.a1, args.b1), args.index, xi0)
    if family == "driven":
        setup = driven_setup(args.a1, args.b1, args.epsilon)
        return driven_solution(setup, args.case, args.branch, xi0)
    if family == "lambda-driven":
        setup = driven_setup(args.a1, args.b1, args.epsilon)
        return lambda_driven_solution(setup, args.case, args.branch, _single_lambda(args), xi0)
    params = ModelParams(args.a1, args.b1)
    return lambda_zero_field_solution(params, args.branch, args.variant, _single_lambda(args), xi0)


def _solution_comment_pairs(
    sol: KinkSolution, grid: tuple[float, float, int]
) -> list[tuple[str, str]]:
    pairs = [
        ("family", sol.family),
        ("a1", _fmt(sol.params.a1)),
        ("b1", _fmt(sol.params.b1)),
    ]
    if sol.setup is not None:
        pairs.append(("epsilon", _fmt(sol.setup.epsilon)))
        pairs.append(("eta_times_gamma1", _fmt(sol.setup.eta_times_gamma1)))
    if sol.lam is not None:
        pairs.append(("lambda", _fmt(sol.lam)))
    pairs.extend(
        [
            ("xi0", _fmt(sol.xi0)),
            ("rho", _fmt(sol.forced_rho)),
            ("width_inverse", _fmt(sol.width_inverse)),
            ("left_limit", _fmt(sol.left_limit)),
            ("right_limit", _fmt(sol.right_limit)),
            ("grid", f"{_fmt(grid[0])}:{_fmt(grid[1])}:{grid[2]}"),
        ]
    )
    return pairs


def _write_text(path: str | None, parts):
    """Write each string of parts, in order, to path or to stdout."""
    if path is None:
        sys.stdout.writelines(parts)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(parts)


def _write_lines(path: str | None, lines: list[str]):
    _write_text(path, ["\n".join(lines) + "\n"])


# tables of fewer rows are formatted by %: the vectorised formatter costs
# about 0.13 ms a block whatever its size, and the two break even at about
# 200 rows
_VECTOR_ROWS = 200
# rows formatted and written at a time; a block's arrays stay under 128 kB
_BLOCK_ROWS = 2048


def _csv_rows(xi: np.ndarray, values: np.ndarray, singular: np.ndarray):
    """CSV rows "x,v,0", or "x,,1" where singular, each number as %.17g.

    Yields the text a block of rows at a time (all of it at once below
    _VECTOR_ROWS rows); see the module docstring.
    """
    n = len(xi)
    if n < _VECTOR_ROWS:
        flat = np.column_stack((xi, values)).ravel().tolist()
        parts = []
        start = 0
        for stop in [*np.flatnonzero(singular).tolist(), n]:
            if stop > start:
                run = tuple(flat[2 * start : 2 * stop])
                parts.append(("%.17g,%.17g,0\n" * (stop - start)) % run)
            if stop < n:
                parts.append("%.17g,,1\n" % flat[2 * stop])
            start = stop + 1
        yield "".join(parts)
        return
    # one byte row per number: its text, then "," and, after a value, the
    # flag and "\n"; keep marks the bytes written out, and a singular row's
    # value, formatted as 1.0, is not
    w = _g17.WIDTH
    block = min(n, _BLOCK_ROWS)
    buf = np.empty((2 * block, w + 3), np.uint8)
    keep = np.zeros((2 * block, w + 3), bool)
    buf[:, w] = 44
    buf[1::2, w + 2] = 10
    keep[:, w] = True
    keep[1::2, w + 1 :] = True
    f = np.empty(2 * block)
    for start in range(0, n, block):
        stop = min(start + block, n)
        m = 2 * (stop - start)
        sing = singular[start:stop]
        f[0:m:2] = xi[start:stop]
        f[1:m:2] = values[start:stop]
        f[1:m:2][sing] = 1.0
        _g17.fields(f[:m], buf[:m, :w], keep[:m, :w])
        keep[1:m:2, :w][sing] = False
        buf[1:m:2, w + 1] = 48 + sing
        yield buf[:m][keep[:m]].tobytes().decode("ascii")


def _csv_text(comment_pairs: list[tuple[str, str]], header: str, rows):
    """The comment lines, the header and the rows, as parts to write in order."""
    lines = [f"# glkinks {__version__}"]
    lines.extend(f"# {k}={v}" for k, v in comment_pairs)
    lines.append(header)
    yield "\n".join(lines) + "\n"
    yield from rows


def cmd_families(args: argparse.Namespace) -> int:
    _require(args, "a1", "b1")
    params = ModelParams(args.a1, args.b1)
    lines = [f"# glkinks {__version__}"]
    for index in (1, 2, 3, 4):
        sol = undriven_solution(params, index)
        poles = (
            "poles " + ";".join(_fmt(p) for p in sol.singularities)
            if sol.singularities
            else "smooth"
        )
        lines.append(
            f"undriven-{index}  rho={_fmt(sol.forced_rho)}  "
            f"width={_fmt(1.0 / sol.width_inverse)}  "
            f"limits {_fmt(sol.left_limit)} -> {_fmt(sol.right_limit)}  {poles}"
        )
    for branch in ("+", "-"):
        for variant in ("first", "second"):
            # rho and width do not depend on lambda; lambda*sqrt(a1) = 1
            # would be the constant profile the constructor refuses
            sol = lambda_zero_field_solution(params, branch, variant, 10.0 / math.sqrt(args.a1))
            lines.append(
                f"lambda-zero-field-{variant}{branch}  rho={_fmt(sol.forced_rho)}  "
                f"width={_fmt(1.0 / sol.width_inverse)}  pole set depends on lambda"
            )
    if args.epsilon is not None:
        setup = driven_setup(args.a1, args.b1, args.epsilon)
        for case in ("I", "II"):
            for branch in ("+", "-"):
                sign = 1 if branch == "+" else -1
                rho = setup.rho(case, sign)
                window = epsilon_admissible_interval(args.a1, args.b1, case, sign)
                verdict = "admissible" if window.contains(args.epsilon) else "rho <= 0"
                sol = driven_solution(setup, case, branch)
                lines.append(
                    f"driven-{case}{branch}  rho={_fmt(rho)}  {verdict} "
                    f"(positive-rho window {window})  "
                    f"width={_fmt(1.0 / sol.width_inverse)}  "
                    f"limits {_fmt(sol.left_limit)} -> {_fmt(sol.right_limit)}"
                )
                domain = lambda_forbidden_interval(setup, case, branch)
                lines.append(
                    f"lambda-{case}{branch}  rho={_fmt(rho)}  "
                    f"forbidden lambda {domain.forbidden}"
                )
    _write_lines(args.output_path, lines)
    return 0


def _eval_csv(sol: KinkSolution, grid: tuple[float, float, int], pairs: list[tuple[str, str]]):
    """The xi,psi,is_singular CSV of sol on grid, headed by the comment pairs, as parts."""
    xi = np.linspace(*grid)
    singular = sol.profile.is_singular(xi)
    if singular.all():
        raise SingularPoint("every grid point is singular")
    values = sol.profile.value(xi)
    return _csv_text(pairs, "xi,psi,is_singular", _csv_rows(xi, values, singular))


def cmd_eval(args: argparse.Namespace) -> int:
    sol = _build_solution(args)
    pairs = _solution_comment_pairs(sol, args.grid)
    _write_text(args.output_path, _eval_csv(sol, args.grid, pairs))
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    spec = FIGURES[args.fig]
    out_dir = args.output_path or "."
    os.makedirs(out_dir, exist_ok=True)
    setup = driven_setup(spec.a1, spec.b1, spec.epsilon)
    rho = setup.rho(spec.case, spec.branch)

    written = []
    for lam_str in spec.lambdas:
        sol = lambda_driven_solution(setup, spec.case, spec.branch, float(lam_str), spec.xi0)
        pairs = [("fig", str(spec.fig_id))] + _solution_comment_pairs(sol, spec.grid)
        name = f"fig{spec.fig_id}_lambda_{lam_str}.csv"
        _write_text(os.path.join(out_dir, name), _eval_csv(sol, spec.grid, pairs))
        written.append(name)

    sidecar = [
        f"# glkinks {__version__}",
        "key,value",
        f"fig,{spec.fig_id}",
        f"a1,{_fmt(spec.a1)}",
        f"b1,{_fmt(spec.b1)}",
        f"epsilon,{_fmt(spec.epsilon)}",
        f"case,{spec.case}",
        f"branch,{spec.branch}",
        f"xi0,{_fmt(spec.xi0)}",
        f"grid,{_fmt(spec.grid[0])}:{_fmt(spec.grid[1])}:{spec.grid[2]}",
        f"lambda_set,{';'.join(spec.lambdas)}",
        f"rho_caption,{_fmt(spec.rho_caption)}",
        f"rho_recomputed,{_fmt(rho)}",
    ]
    name = f"fig{spec.fig_id}_params.csv"
    _write_lines(os.path.join(out_dir, name), sidecar)
    written.append(name)
    for name in written:
        print(name)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    a1 = 1.0 if args.a1 is None else args.a1
    b1 = 1.0 if args.b1 is None else args.b1
    jobs = catalogue(a1, b1, args.family)
    lines = []
    failures = 0
    for label, sol in jobs:
        rho = sol.forced_rho * (1.0 + args.perturb_rho)
        grid = verification_grid(sol)
        report = residual(sol, rho=rho, grid=grid, mode="analytic")
        big = float(np.max(np.abs(sol.profile.value(grid))))
        scale = max(sol.params.b1 * big * big * big, sol.params.a1 * big, abs(sol.eta_gamma))
        ok = report.max_abs_residual < _RESIDUAL_GATE * scale
        failures += 0 if ok else 1
        lines.append(
            f"{'PASS' if ok else 'FAIL'}  residual {label}: "
            f"max={report.max_abs_residual:.3e} at xi={report.argmax_xi:.6g} "
            f"(skipped {report.skipped})"
        )
    # one integration oracle per run keeps the suite under a few seconds; it
    # steps in the kink's own units, 20 widths around its centre at
    # min(width, 1/|rho|)/50
    oracle = undriven_solution(ModelParams(a1, b1), 1)
    w = 1.0 / oracle.width_inverse
    centre = oracle.profile.centre()
    span = (centre - 10.0 * w, centre + 10.0 * w)
    params = ModelParams(
        oracle.params.a1, oracle.params.b1, oracle.forced_rho * (1.0 + args.perturb_rho)
    )
    traj = integrate_second_order(
        params,
        float(oracle.profile.value(span[0])),
        float(oracle.profile.first_derivative(span[0])),
        span,
        min(w, 1.0 / abs(oracle.forced_rho)) / 50.0,
    )
    sup = compare(traj, oracle)
    ok = sup < 1e-6 * max(abs(oracle.left_limit), abs(oracle.right_limit))
    failures += 0 if ok else 1
    lines.append(f"{'PASS' if ok else 'FAIL'}  rk4 undriven-1: sup={sup:.3e}")
    lines.append(f"{len(jobs) + 1 - failures}/{len(jobs) + 1} checks passed")
    _write_lines(args.output_path, lines)
    return 0 if failures == 0 else 1


# the delay flags that --fig replaces; FigureSpec has fields of the same names
_DELAY_SET = ("a1", "b1", "epsilon", "case", "branch", "xi0")


def cmd_delay(args: argparse.Namespace) -> int:
    if args.fig is None:
        _require(args, "a1", "b1", "epsilon", "case", "branch")
        source, lams = args, args.lambda_list
    else:
        given = [n for n in _DELAY_SET if getattr(args, n) is not None]
        if given:
            raise ValueError(f"--fig sets {_flag_names(given)}; give one or the other")
        source = FIGURES[args.fig]
        lams = args.lambda_list or source.lambdas
    if not lams:
        raise ValueError("delay needs at least one --lambda")
    lams = tuple(sorted(set(float(x) for x in lams)))
    a1, b1, eps, case, branch = source.a1, source.b1, source.epsilon, source.case, source.branch
    xi0 = _xi0(source)

    setup = driven_setup(a1, b1, eps)
    domain = lambda_forbidden_interval(setup, case, branch)
    bad = [lam for lam in lams if domain.forbidden.contains(lam)]
    if bad:
        named = ", ".join(_fmt(x) for x in bad)
        print(
            f"error: lambda values inside forbidden interval {domain.forbidden}: {named}",
            file=sys.stderr,
        )
        return _DOMAIN_ERROR

    particular = driven_solution(setup, case, branch, xi0)
    curve = delay_curve(
        lambda lam: lambda_driven_solution(setup, case, branch, lam, xi0), lams, particular
    )
    pairs = [
        ("a1", _fmt(a1)),
        ("b1", _fmt(b1)),
        ("epsilon", _fmt(eps)),
        ("case", case),
        ("branch", branch),
        ("xi0", _fmt(xi0)),
    ]
    # a Moebius profile crosses its midpoint level once, so the flag is always 0
    rows = _csv_rows(curve.lambdas, curve.midpoints, np.zeros(len(curve.lambdas), dtype=bool))
    text = _csv_text(pairs, "lambda,xi_mid,multiplicity_flag", rows)
    _write_text(args.output_path, [*text, f"# midpoint_inf={_fmt(curve.midpoint_inf)}\n"])
    return 0


# name: (handler, help, the flags it reads, the required ones among them)
_COMMANDS = {
    "families": (cmd_families, "list constructible families", "--a1 --b1 --epsilon --out", ()),
    "eval": (
        cmd_eval,
        "evaluate one profile on a grid as CSV",
        "--a1 --b1 --epsilon --case --branch --index --variant --lambda --xi0 --grid --out "
        "--montroll-a --montroll-b",
        (),
    ),
    "figure": (cmd_figure, "emit reference-figure CSV data", "--fig --out", ("--fig",)),
    "verify": (
        cmd_verify,
        "run the verification suite",
        "--a1 --b1 --family --perturb-rho --out",
        (),
    ),
    "delay": (
        cmd_delay,
        "emit midpoint-vs-lambda delay curve as CSV",
        "--fig --a1 --b1 --epsilon --case --branch --xi0 --lambda --out",
        (),
    ),
}


def _merge_flag_values(argv: list[str]) -> list[str]:
    # argparse takes "-10:10:5" or "-5e-1" after a flag for an option, not a
    # value; every flag in _FLAGS takes a value, so fold "--flag value" into
    # one "--flag=value" token
    out = []
    i = 0
    while i < len(argv):
        if argv[i] in _FLAGS and i + 1 < len(argv):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(_merge_flag_values(list(argv)))
    try:
        return args.func(args)
    except (NonPositiveCoefficient, ComplexDelta, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except (
        SingularPoint,
        NonPositiveRate,
        NoCrossing,
        EmptyGrid,
        DomainMismatch,
        NonFinite,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
