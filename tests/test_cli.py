"""Command line behavior: output formats, exit codes, determinism."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import glkinks
from glkinks import cli
from glkinks.cli import _BLOCK_ROWS, _VECTOR_ROWS, _csv_rows, main
from glkinks.verify import integrate_second_order

_RHO_PSI1 = "2.1213203435596428"  # 17 significant digits of 1.5*sqrt(2)


def _run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _assert_argparse_error(capsys, argv, *in_err):
    """argparse rejects argv: exit 2, nothing on stdout, in_err on stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    for text in in_err:
        assert text in captured.err


# ----------------------------------------------------------- flag surface

# The flags each subcommand reads, and so accepts; 33 in all.
FLAG_TABLE = {
    "families": {"--a1", "--b1", "--epsilon", "--out"},
    "eval": {"--a1", "--b1", "--epsilon", "--case", "--branch", "--index", "--variant",
             "--lambda", "--xi0", "--grid", "--out", "--montroll-a", "--montroll-b"},
    "figure": {"--fig", "--out"},
    "verify": {"--a1", "--b1", "--family", "--perturb-rho", "--out"},
    "delay": {"--fig", "--a1", "--b1", "--epsilon", "--case", "--branch", "--xi0",
              "--lambda", "--out"},
}

# a value each flag would accept
_FLAG_VALUE = {
    "--a1": "1", "--b1": "1", "--epsilon": "0.5", "--case": "I", "--branch": "+",
    "--index": "1", "--variant": "first", "--lambda": "1", "--xi0": "0", "--grid": "0:1:3",
    "--out": "out.csv", "--family": "undriven", "--montroll-a": "0", "--montroll-b": "1",
    "--fig": "1", "--perturb-rho": "0.1",
}

# an argv each subcommand would run, before the flag under test is added
_VALID_ARGV = {
    "families": ["--a1", "1", "--b1", "1"],
    "eval": ["--a1", "1", "--b1", "1", "--index", "1", "--grid", "0:1:3"],
    "figure": ["--fig", "1"],
    "verify": [],
    "delay": ["--fig", "1"],
}


def test_flag_table():
    assert set(_FLAG_VALUE) == set().union(*FLAG_TABLE.values())
    assert sum(map(len, FLAG_TABLE.values())) == 33


@pytest.mark.parametrize("command", sorted(FLAG_TABLE))
def test_help_lists_exactly_the_flags_read(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert set(re.findall(r"--[a-z0-9][a-z0-9-]*", out)) - {"--help"} == FLAG_TABLE[command]


@pytest.mark.parametrize(
    "command,flag",
    [(c, f) for c in sorted(FLAG_TABLE) for f in sorted(_FLAG_VALUE) if f not in FLAG_TABLE[c]],
)
def test_flag_not_read_is_rejected(capsys, command, flag):
    argv = [command, *_VALID_ARGV[command], flag, _FLAG_VALUE[flag]]
    _assert_argparse_error(capsys, argv, f"unrecognized arguments: {flag}")


# a command around each float flag, and a value with a minus sign and a
# negative exponent, which argparse takes for an option unless it is joined
# to the flag with "="
_NEGATIVE_EXPONENT = {
    "--a1": (["eval", "--b1", "1", "--index", "1", "--grid", "0:1:3"], "-5e-1"),
    "--b1": (["eval", "--a1", "1", "--index", "1", "--grid", "0:1:3"], "-5e-1"),
    "--epsilon": (["eval", "--a1", "1", "--b1", "1", "--case", "I", "--branch", "-",
                   "--grid", "0:1:3"], "-5e-1"),
    "--lambda": (["eval", "--a1", "1", "--b1", "1", "--branch", "+", "--variant", "first",
                  "--grid", "0:1:3"], "-5e-1"),
    "--xi0": (["eval", "--a1", "1", "--b1", "1", "--index", "1", "--grid", "0:1:3"], "-1e-3"),
    "--montroll-a": (["eval", "--montroll-b", "0", "--grid", "0:1:3"], "-1e0"),
    "--montroll-b": (["eval", "--montroll-a", "0", "--grid", "0:1:3"], "-1e0"),
    "--perturb-rho": (["verify", "--family", "undriven"], "-1e-3"),
}


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of main, argparse's own exits included."""
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_every_float_flag_is_covered():
    floats = {f for f, spec in cli._FLAGS.items() if spec.get("type") is cli._finite_float}
    assert floats == set(_NEGATIVE_EXPONENT)


@pytest.mark.parametrize("flag", sorted(_NEGATIVE_EXPONENT))
def test_negative_exponent_value_after_a_space(capsys, flag):
    argv, value = _NEGATIVE_EXPONENT[flag]
    spaced = _outcome(capsys, [*argv, flag, value])
    joined = _outcome(capsys, [*argv, f"{flag}={value}"])
    assert spaced == joined
    assert "expected one argument" not in spaced[2]


@pytest.mark.parametrize(
    "flags",
    [["--a1", "2"], ["--xi0", "0.3"], ["--a1", "2", "--b1", "5", "--epsilon", "0.1"]],
    ids=["a1", "xi0", "a1-b1-epsilon"],
)
def test_delay_fig_rejects_family_flags(capsys, flags):
    rc, out, err = _run(capsys, "delay", "--fig", "1", *flags)
    assert rc == 2
    assert out == ""
    assert flags[0] in err and "--fig" in err


def test_delay_fig_takes_lambda(capsys):
    rc, out, _ = _run(capsys, "delay", "--fig", "1", "--lambda", "10")
    assert rc == 0
    rows = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert rows[0] == "lambda,xi_mid,multiplicity_flag"
    assert [row.split(",")[0] for row in rows[1:]] == ["10"]


# ------------------------------------------------------------- families


def test_families_lists_every_family(capsys):
    rc, out, _ = _run(capsys, "families", "--a1", "1", "--b1", "1")
    assert rc == 0
    assert out.startswith("# glkinks 0.1.0\n")
    for tag in ("undriven-1", "undriven-4", "lambda-zero-field-first+", "lambda-zero-field-second-"):
        assert tag in out
    assert "driven-I+" not in out  # no epsilon given


def test_families_with_epsilon_reports_admissibility(capsys):
    rc, out, _ = _run(
        capsys, "families", "--a1", "3", "--b1", "0.7", "--epsilon", "2.2772"
    )
    assert rc == 0
    assert "driven-I+" in out and "admissible" in out
    assert "rho <= 0" in out
    assert "forbidden lambda (0, 0.12359503110847067)" in out


def test_families_requires_coefficients(capsys):
    rc, _, err = _run(capsys, "families", "--a1", "1")
    assert rc == 2
    assert "--b1" in err


def test_families_complex_delta_is_usage_error(capsys):
    rc, _, err = _run(capsys, "families", "--a1", "1", "--b1", "1", "--epsilon", "2")
    assert rc == 2
    assert "complex" in err.lower()


# ----------------------------------------------------------------- eval


def test_eval_basic_kink_row(capsys):
    rc, out, _ = _run(
        capsys, "eval", "--a1", "1", "--b1", "1", "--index", "1", "--grid", "-5:5:11"
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "# glkinks 0.1.0"
    assert "# family=undriven-1" in lines
    assert f"# rho={_RHO_PSI1}" in lines
    assert "xi,psi,is_singular" in lines
    assert "0,0.5,0" in lines
    assert len([ln for ln in lines if not ln.startswith("#")]) == 12  # header + 11 rows


def test_eval_marks_singular_rows(capsys):
    rc, out, _ = _run(
        capsys, "eval", "--a1", "1", "--b1", "1", "--index", "3", "--grid", "-5:5:11"
    )
    assert rc == 0
    assert "0,,1" in out.splitlines()


def test_eval_every_point_singular(tmp_path, capsys):
    argv = ["eval", "--a1", "1", "--b1", "1", "--index", "3", "--grid", "-1e-13:1e-13:2"]
    rc, out, err = _run(capsys, *argv)
    assert rc == 3
    assert out == ""
    assert "singular" in err
    target = tmp_path / "profile.csv"
    rc, out, _ = _run(capsys, *argv, "--out", str(target))
    assert rc == 3
    assert out == ""
    assert not target.exists()


def test_eval_negative_grid_bound_is_accepted(capsys):
    rc, out, _ = _run(
        capsys, "eval", "--montroll-a", "0", "--montroll-b", "1", "--grid", "-10:10:5"
    )
    assert rc == 0
    assert "# family=montroll" in out


def test_eval_zero_field_lambda(capsys):
    rc, out, _ = _run(
        capsys,
        "eval",
        "--a1", "1", "--b1", "1", "--branch", "+", "--variant", "first",
        "--lambda", "2", "--grid", "-5:5:11",
    )
    assert rc == 0
    assert "# family=lambda-zero-field-first+" in out
    assert "# lambda=2" in out


def test_eval_driven_and_lambda_driven(capsys):
    rc, out, _ = _run(
        capsys,
        "eval",
        "--a1", "3", "--b1", "0.7", "--epsilon", "2.2772",
        "--case", "I", "--branch", "+", "--grid", "0:1:2",
    )
    assert rc == 0
    assert "# family=driven-I+" in out
    assert "# eta_times_gamma1=" in out
    rc, out, _ = _run(
        capsys,
        "eval",
        "--a1", "3", "--b1", "0.7", "--epsilon", "2.2772",
        "--case", "I", "--branch", "+", "--lambda", "10", "--grid", "0:1:2",
    )
    assert rc == 0
    assert "# family=lambda-I+" in out


def test_eval_usage_errors(capsys):
    rc, _, err = _run(capsys, "eval", "--a1", "1", "--b1", "1")
    assert rc == 2
    assert "infer" in err
    rc, _, err = _run(
        capsys,
        "eval",
        "--a1", "1", "--b1", "1", "--branch", "+", "--variant", "first",
        "--lambda", "1", "--lambda", "2",
    )
    assert rc == 2
    assert "exactly one" in err
    _assert_argparse_error(capsys, ["eval", "--family", "bogus", "--a1", "1", "--b1", "1"],
                           "--family")
    rc, _, err = _run(capsys, "eval", "--index", "1")
    assert rc == 2
    assert "--a1" in err


@pytest.mark.parametrize(
    "argv,family,foreign",
    [
        (["--a1", "1", "--b1", "1", "--index", "1", "--epsilon", "0.5", "--case", "I",
          "--branch", "+"], "driven", "--index"),
        (["--a1", "1", "--b1", "1", "--epsilon", "0.5", "--case", "I", "--branch", "+",
          "--variant", "first"], "driven", "--variant"),
        (["--montroll-a", "0", "--montroll-b", "1", "--a1", "1", "--b1", "1"], "montroll",
         "--a1, --b1"),
    ],
    ids=["index-beside-epsilon", "variant-beside-epsilon", "a1-b1-beside-montroll"],
)
def test_eval_rejects_flags_of_another_family(capsys, argv, family, foreign):
    rc, out, err = _run(capsys, "eval", *argv, "--grid", "0:1:3")
    assert rc == 2
    assert out == ""
    assert f"family {family} does not read {foreign}" in err


def test_eval_rejects_complex_delta(capsys):
    rc, _, err = _run(
        capsys,
        "eval",
        "--a1", "1", "--b1", "1", "--epsilon", "2", "--case", "I", "--branch", "+",
    )
    assert rc == 2
    assert "complex" in err.lower()


@pytest.mark.parametrize(
    "argv",
    [
        # eps**3 overflows, and float ** raises where * would give inf
        ["families", "--a1", "1e67", "--b1", "1e-167", "--epsilon", "1.1e117"],
        # a1*eps and b1*eps**3 both overflow to -inf, and their difference is nan
        ["eval", "--a1", "1e276", "--b1", "1e113", "--epsilon", "-2e81", "--case", "II",
         "--branch", "-", "--grid=-1:1:3"],
    ],
    ids=["families", "eval"],
)
def test_overflowing_drive_is_usage_error(capsys, argv):
    rc, out, err = _run(capsys, *argv)
    assert rc == 2
    assert "nan" not in out and "Traceback" not in err
    assert "drive a1*eps - b1*eps^3 is not finite" in err


def test_lambda_overflowing_its_product_prints_the_particular_kink(capsys):
    # lambda*sqrt(a1) overflows: the member is undriven-1, row for row
    grid = ["--a1", "4", "--b1", "0.5", "--grid=-5:5:11"]
    rc, member, _ = _run(capsys, "eval", *grid, "--branch", "+", "--variant", "second",
                         "--lambda", "1e308")
    assert rc == 0
    rc, particular, _ = _run(capsys, "eval", *grid, "--index", "1")
    assert rc == 0
    assert member.split("xi,psi,is_singular\n")[1] == particular.split("xi,psi,is_singular\n")[1]


@pytest.mark.parametrize(
    "flag,argv",
    [
        ("--epsilon", ["--a1", "3", "--b1", "0.7", "--epsilon", "nan", "--case", "I",
                       "--branch", "+", "--grid", "0:1:3"]),
        ("--a1", ["--a1", "inf", "--b1", "1", "--index", "1", "--grid", "0:1:3"]),
        ("--xi0", ["--a1", "1", "--b1", "1", "--index", "1", "--xi0", "nan",
                   "--grid", "0:1:3"]),
        ("--lambda", ["--a1", "3", "--b1", "0.7", "--epsilon", "2.2772", "--case", "I",
                      "--branch", "+", "--lambda", "nan", "--grid", "0:1:3"]),
        ("--grid", ["--a1", "1", "--b1", "1", "--index", "1", "--grid", "-inf:1:3"]),
    ],
)
def test_eval_rejects_non_finite_input(capsys, flag, argv):
    with pytest.raises(SystemExit) as exc:
        main(["eval", *argv])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"error: argument {flag}:" in captured.err
    assert "finite" in captured.err


def test_eval_bad_grid_is_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--a1", "1", "--b1", "1", "--index", "1", "--grid", "0:1:1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["eval", "--a1", "1", "--b1", "1", "--index", "1", "--grid", "5:1:10"])


def test_eval_writes_file(tmp_path, capsys):
    target = tmp_path / "profile.csv"
    rc, out, _ = _run(
        capsys,
        "eval",
        "--a1", "1", "--b1", "1", "--index", "1", "--grid", "-5:5:11",
        "--out", str(target),
    )
    assert rc == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("# glkinks 0.1.0\n")
    assert text.endswith("\n") and not text.endswith("\n\n")
    assert "0,0.5,0" in text


@pytest.mark.parametrize(
    "index,grid,singular_rows",
    [("1", "-5:5:11", 0), ("3", "-10:0:101", 1), ("3", "-10:10:201", 1)],
    ids=["smooth", "pole-last", "pole-mid"],
)
def test_eval_out_file_matches_stdout(tmp_path, capsys, index, grid, singular_rows):
    argv = ["eval", "--a1", "1", "--b1", "1", "--index", index, "--grid", grid]
    rc, stdout, _ = _run(capsys, *argv)
    assert rc == 0
    assert stdout.count(",,1\n") == singular_rows
    target = tmp_path / "profile.csv"
    rc, out, _ = _run(capsys, *argv, "--out", str(target))
    assert rc == 0
    assert out == ""
    assert target.read_bytes() == stdout.encode()


# ----------------------------------------------------------- CSV rows


def _reference_rows(xi, values, singular):
    # the reference: every float formatted on its own by an f-string
    return "".join(
        f"{x:.17g},,1\n" if s else f"{x:.17g},{v:.17g},0\n"
        for x, v, s in zip(xi.tolist(), values.tolist(), singular.tolist())
    )


@st.composite
def _csv_tables(draw):
    n = draw(st.integers(1, 40))
    xi = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n))
    values = draw(st.lists(st.floats(), min_size=n, max_size=n))
    marked = draw(
        st.one_of(
            st.just(()),
            st.just((0,)),
            st.just((n - 1,)),
            st.integers(0, n - 1).map(lambda i: (i, min(i + 1, n - 1))),
            st.integers(0, n - 1).map(lambda i: tuple(j for j in range(n) if j != i)),
            st.lists(st.integers(0, n - 1)),
        )
    )
    singular = np.zeros(n, dtype=bool)
    singular[list(marked)] = True
    return np.array(xi), np.array(values), singular


@settings(deadline=None, max_examples=300)
@given(_csv_tables())
@example((np.zeros(0), np.zeros(0), np.zeros(0, dtype=bool)))
def test_csv_rows_match_per_row_formatting(table):
    assert "".join(_csv_rows(*table)) == _reference_rows(*table)


def test_csv_rows_edge_floats():
    xi = np.array([-0.0, 5e-324, 0.1, 1e-300, 9007199254740993.0, 1.7976931348623157e308])
    values = xi[::-1].copy()
    singular = np.array([False, True, False, False, True, False])
    rows = "".join(_csv_rows(xi, values, singular))
    assert rows == _reference_rows(xi, values, singular)
    assert rows == (
        "-0,1.7976931348623157e+308,0\n"
        "4.9406564584124654e-324,,1\n"
        "0.10000000000000001,1e-300,0\n"
        "1e-300,0.10000000000000001,0\n"
        "9007199254740992,,1\n"
        "1.7976931348623157e+308,-0,0\n"
    )


def _dyadic_ties(rng, n):
    """Floats whose exact decimal has 18 significant digits ending in 5.

    Their %.17g sits on a tie and must round half to even.
    """
    bits = rng.integers(1, 54, n)
    mantissa = (rng.integers(0, 2**53, n, dtype=np.int64) >> (53 - bits)) | 1
    x = np.ldexp(mantissa.astype(float), rng.integers(-80, 40, n))

    def tie(v):
        digits = Decimal(v).as_tuple().digits
        return len(digits) == 18 and digits[-1] == 5

    return np.array([v for v in x.tolist() if tie(v)])


@pytest.fixture(scope="module")
def hard_floats():
    """Floats where an exact %.17g is easy to get wrong, by kind."""
    rng = np.random.default_rng(17)
    powers = 10.0 ** np.arange(-8, 19)
    near = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    return {
        "ties": _dyadic_ties(rng, 20_000),
        "powers": np.concatenate([near, -near]),
        "special": np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072009e-308,
                             2.2250738585072014e-308, 1e-6, 1e17, -1.7976931348623157e308]),
    }


def _draw_column(rng, kind, n, hard):
    if kind == "bits":
        return rng.integers(-(2**63), 2**63 - 1, n, dtype=np.int64).view(float)
    if kind == "log-uniform":
        return rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(-8.0, 18.0, n)
    if kind == "subnormal":
        return rng.integers(-(2**52), 2**52, n).astype(float) * 5e-324
    # a smooth column (a grid) salted with one kind of hard float
    column = np.linspace(-15.0, 15.0, n)
    salt = rng.choice(hard[kind], n)
    at = rng.random(n) < 0.3
    column[at] = salt[at]
    return column


_BIG_SIZES = sorted({_VECTOR_ROWS, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                     2 * _BLOCK_ROWS + 7})
_KINDS = ("bits", "log-uniform", "subnormal", "ties", "powers", "special")


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from(_BIG_SIZES),
    kinds=st.tuples(st.sampled_from(_KINDS), st.sampled_from(_KINDS)),
    marked=st.sampled_from(("none", "first", "last", "adjacent", "all-but-one", "random")),
)
def test_vectorised_csv_rows_match_per_row_formatting(hard_floats, seed, n, kinds, marked):
    # tables of _VECTOR_ROWS rows or more take the vectorised formatter, a
    # block of _BLOCK_ROWS rows at a time
    rng = np.random.default_rng(seed)
    xi = _draw_column(rng, kinds[0], n, hard_floats)
    values = _draw_column(rng, kinds[1], n, hard_floats)
    singular = np.zeros(n, dtype=bool)
    i = int(rng.integers(0, n - 1))
    if marked == "first":
        singular[0] = True
    elif marked == "last":
        singular[-1] = True
    elif marked == "adjacent":
        singular[[i, i + 1]] = True
        singular[_BLOCK_ROWS - 1 : _BLOCK_ROWS + 1] = True  # across a block boundary
    elif marked == "all-but-one":
        singular[:] = True
        singular[i] = False
    elif marked == "random":
        singular[rng.random(n) < 0.1] = True
    assert "".join(_csv_rows(xi, values, singular)) == _reference_rows(xi, values, singular)


# --------------------------------------------------------------- figure


def test_figure_writes_expected_files(tmp_path, capsys):
    rc, out, _ = _run(capsys, "figure", "--fig", "1", "--out", str(tmp_path))
    assert rc == 0
    names = out.split()
    assert names == [
        "fig1_lambda_0.125.csv",
        "fig1_lambda_0.2.csv",
        "fig1_lambda_0.5.csv",
        "fig1_lambda_10.csv",
        "fig1_params.csv",
    ]
    for name in names:
        assert (tmp_path / name).is_file()
    sidecar = (tmp_path / "fig1_params.csv").read_text()
    assert "key,value" in sidecar
    assert "rho_caption,0.90325999999999995" in sidecar
    rho_line = [ln for ln in sidecar.splitlines() if ln.startswith("rho_recomputed,")]
    assert float(rho_line[0].split(",")[1]) == pytest.approx(0.90326100876072779, rel=1e-13)
    profile = (tmp_path / "fig1_lambda_10.csv").read_text()
    assert "# fig=1" in profile
    assert "xi,psi,is_singular" in profile
    assert len(profile.splitlines()) > 4000


def test_eval_unwritable_out_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    argv = ["eval", "--a1", "1", "--b1", "1", "--index", "1", "--out", str(target)]
    rc, out, err = _run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error: ")
    assert not target.parent.exists()


def test_figure_out_on_a_file_is_usage_error(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("kept\n")
    rc, out, err = _run(capsys, "figure", "--fig", "1", "--out", str(target))
    assert rc == 2 and out == ""
    assert err.startswith("error: ")
    assert target.read_text() == "kept\n"


def test_figure_requires_known_id(capsys):
    _assert_argparse_error(capsys, ["figure", "--fig", "5"], "--fig")
    _assert_argparse_error(capsys, ["figure"], "--fig")


# --------------------------------------------------------------- verify


def test_verify_full_suite_passes(capsys):
    rc, out, _ = _run(capsys, "verify")
    assert rc == 0
    assert "38/38 checks passed" in out
    assert "FAIL" not in out
    assert "rk4 undriven-1" in out


def test_verify_perturbed_rho_fails(capsys):
    rc, out, _ = _run(capsys, "verify", "--perturb-rho", "0.001")
    assert rc == 1
    assert "FAIL" in out
    # every check fails: the catalogue holds no constant profile any more
    assert "0/38 checks passed" in out


def test_verify_scoped_family(capsys):
    rc, out, _ = _run(capsys, "verify", "--family", "undriven")
    assert rc == 0
    assert "5/5 checks passed" in out


def _rk4_line(out: str) -> str:
    (line,) = [ln for ln in out.splitlines() if "rk4 undriven-1" in ln]
    return line


@pytest.mark.parametrize("a1,b1", [("1e6", "1e-6"), ("1e-6", "1e6")], ids=["wide", "narrow"])
def test_verify_rk4_passes_at_extreme_scales(capsys, a1, b1):
    rc, out, _ = _run(capsys, "verify", "--a1", a1, "--b1", b1, "--family", "undriven")
    assert _rk4_line(out).startswith("PASS  ")
    assert rc == 0 and "5/5 checks passed" in out


@pytest.mark.parametrize(
    "scale",
    [[], ["--a1", "1e-6", "--b1", "1e6"], ["--a1", "1e6", "--b1", "1e-6"]],
    ids=["unit", "narrow", "wide"],
)
def test_verify_rk4_fails_with_perturbed_rho(capsys, scale):
    # the perturbation is relative, rho*(1 + X): at --a1 1e6 the forced rho
    # is about 2121, where an absolute offset of 0.001 passed the RK4 gate
    rc, out, _ = _run(capsys, "verify", *scale, "--family", "undriven", "--perturb-rho", "0.001")
    assert rc == 1
    assert _rk4_line(out).startswith("FAIL  ")


def test_verify_rk4_steps_in_kink_widths(capsys, monkeypatch):
    # a fixed step of 1e-3 would take 28.3 M steps over this 1,414-wide kink
    steps = []

    def counting(*args):
        traj = integrate_second_order(*args)
        steps.append(traj.xi_values.size - 1)
        return traj

    monkeypatch.setattr("glkinks.cli.integrate_second_order", counting)
    rc, _, _ = _run(capsys, "verify", "--a1", "1e-6", "--b1", "1e6", "--family", "undriven")
    assert rc == 0
    assert len(steps) == 1 and steps[0] <= 3001


def test_verify_unknown_family(capsys):
    rc, _, err = _run(capsys, "verify", "--family", "bogus")
    assert rc == 2
    assert "bogus" in err


def test_verify_coefficients_reach_the_roster(capsys):
    # lines of families built at --a1/--b1 move; montroll and the figure
    # sets do not depend on them
    rc, unit, _ = _run(capsys, "verify")
    assert rc == 0
    rc, scaled, _ = _run(capsys, "verify", "--a1", "2", "--b1", "0.5")
    assert rc == 0
    pairs = list(zip(unit.splitlines()[:-1], scaled.splitlines()[:-1]))
    assert len(pairs) == 38
    for old, new in pairs:
        label = old.split(":", 1)[0]
        assert label == new.split(":", 1)[0]
        moves = "undriven" in label or "lambda-zero-field" in label
        assert (old != new) == moves, label


@pytest.mark.parametrize(
    "a1,b1",
    [("1e200", "1e-200"), ("1e300", "1"), ("1e-200", "1e200"), ("1e-300", "1")],
)
def test_verify_beyond_float_range_fails_without_traceback(a1, b1):
    # the equation's terms over- or underflow at these scales: the suite
    # fails (exit 1) or its RK4 oracle blows up (exit 3), with a message
    proc = subprocess.run(
        [sys.executable, "-m", "glkinks", "verify", "--a1", a1, "--b1", b1],
        capture_output=True,
        text=True,
        env=_module_env(),
    )
    assert proc.returncode in (1, 3), proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--a1", "0"],
        ["verify", "--b1", "0"],
        ["eval", "--a1", "0", "--b1", "1", "--index", "1", "--grid", "0:1:3"],
        ["eval", "--a1", "1", "--b1", "0", "--index", "1", "--grid", "0:1:3"],
    ],
    ids=["verify-a1", "verify-b1", "eval-a1", "eval-b1"],
)
def test_zero_coefficient_is_usage_error(capsys, argv):
    rc, out, err = _run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert "must be finite and > 0, got 0.0" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["families", "--a1", "3", "--b1", "1", "--epsilon", "1"],
        ["eval", "--a1", "3", "--b1", "1", "--epsilon", "1", "--case", "II", "--branch", "+",
         "--grid", "0:1:3"],
        ["eval", "--a1", "3", "--b1", "1", "--epsilon", "1", "--case", "II", "--branch", "-",
         "--lambda", "1", "--grid", "0:1:3"],
    ],
    ids=["families", "eval-driven", "eval-lambda-driven"],
)
def test_zero_rate_is_domain_error(capsys, argv):
    rc, out, err = _run(capsys, *argv)
    assert rc == 3
    assert out == ""
    assert "case II root vanishes" in err


# ---------------------------------------------------------------- delay


def test_delay_reference_curve(capsys):
    rc, out, _ = _run(capsys, "delay", "--fig", "1")
    assert rc == 0
    lines = out.splitlines()
    assert "lambda,xi_mid,multiplicity_flag" in lines
    rows = [ln for ln in lines if ln and not ln.startswith("#")]
    assert len(rows) == 5  # header + 4 lambda rows
    footer = [ln for ln in lines if ln.startswith("# midpoint_inf=")]
    assert len(footer) == 1
    assert float(footer[0].split("=")[1]) == pytest.approx(-0.2896159297539773, abs=1e-12)
    assert all(row.endswith(",0") for row in rows[1:])


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--a1", "3", "--b1", "0.7", "--epsilon", "2.2772", "--case", "I",
         "--branch", "+", "--lambda", "0", "--grid", "-3:3:7"],
        ["eval", "--a1", "1", "--b1", "1", "--branch", "+", "--variant", "first",
         "--lambda", "0", "--grid", "-3:3:7"],
        ["delay", "--fig", "1", "--lambda", "0", "--lambda", "10"],
    ],
    ids=["eval-lambda-driven", "eval-lambda-zero-field", "delay"],
)
def test_zero_lambda_is_usage_error(capsys, argv):
    rc, out, err = _run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert "lambda must be finite and nonzero" in err


@pytest.mark.parametrize(
    "argv",
    [
        # figure 1's family at its window bound once printed 1.7682700768769988
        # on every row
        ["eval", "--a1", "3", "--b1", "0.7", "--epsilon", "2.2772", "--case", "I",
         "--branch", "+", "--lambda", "0.12359503110847067", "--grid", "0:1:3"],
        ["eval", "--a1", "4", "--b1", "1", "--branch", "-", "--variant", "second",
         "--lambda", "0.5", "--grid", "0:1:3"],
        ["eval", "--a1", "4", "--b1", "1", "--branch", "+", "--variant", "first",
         "--lambda", "-0.5", "--grid", "0:1:3"],
        ["delay", "--fig", "1", "--lambda", "0.12359503110847067", "--lambda", "10"],
    ],
    ids=["eval-lambda-driven", "eval-zero-field-minus", "eval-zero-field-plus", "delay"],
)
def test_window_bound_lambda_is_usage_error(capsys, argv):
    rc, out, err = _run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert "is the window bound: the profile is a constant" in err


def test_delay_rejects_forbidden_lambda(capsys):
    rc, _, err = _run(capsys, "delay", "--fig", "1", "--lambda", "0.05")
    assert rc == 3
    assert "forbidden" in err
    assert "0.05" in err


def test_delay_explicit_parameters_sort_and_dedupe(capsys):
    rc, out, _ = _run(
        capsys,
        "delay",
        "--a1", "1", "--b1", "1", "--epsilon", "0.5", "--case", "I", "--branch", "+",
        "--lambda", "5", "--lambda", "1", "--lambda", "5",
    )
    assert rc == 0
    rows = [ln for ln in out.splitlines() if ln and not ln.startswith("#")][1:]
    assert [row.split(",")[0] for row in rows] == ["1", "5"]


def test_delay_requires_lambdas_and_parameters(capsys):
    rc, _, err = _run(
        capsys, "delay", "--a1", "1", "--b1", "1", "--epsilon", "0.5",
        "--case", "I", "--branch", "+",
    )
    assert rc == 2
    assert "lambda" in err
    rc, _, err = _run(capsys, "delay", "--lambda", "1")
    assert rc == 2
    _assert_argparse_error(capsys, ["delay", "--fig", "9"], "--fig")


def test_delay_degenerate_case_root_is_domain_error(capsys):
    rc, _, err = _run(
        capsys,
        "delay",
        "--a1", "3", "--b1", "1", "--epsilon", "1", "--case", "II", "--branch", "+",
        "--lambda", "1",
    )
    assert rc == 3
    assert "no lambda family" in err


# ----------------------------------------------------------- parser reuse


def _delay_lambdas(out):
    rows = [ln for ln in out.splitlines() if ln and not ln.startswith("#")][1:]
    return [row.split(",")[0] for row in rows]


def test_parser_is_built_once(capsys):
    cli._build_parser.cache_clear()
    for _ in range(3):
        assert _run(capsys, "delay", "--fig", "1")[0] == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_repeated_lambdas_do_not_pile_up(capsys):
    parser = cli._build_parser()
    for _ in range(2):
        assert parser.parse_args(["delay", "--lambda", "3", "--lambda", "4"]).lambda_list == [3, 4]
        assert parser.parse_args(["delay"]).lambda_list == []
    rc, out, _ = _run(capsys, "delay", "--fig", "1", "--lambda", "10", "--lambda", "20")
    assert (rc, _delay_lambdas(out)) == (0, ["10", "20"])
    rc, out, _ = _run(capsys, "delay", "--fig", "1", "--lambda", "30")
    assert (rc, _delay_lambdas(out)) == (0, ["30"])
    # eval takes exactly one --lambda, so one left over from the last call would fail it
    argv = ["eval", "--a1", "1", "--b1", "1", "--branch", "+", "--variant", "second",
            "--lambda", "2", "--grid", "0:1:3"]
    assert _run(capsys, *argv) == _run(capsys, *argv)
    assert _run(capsys, *argv)[0] == 0


def test_parser_calls_do_not_leak_into_later_output(capsys):
    cli._build_parser.cache_clear()
    fresh = _run(capsys, "delay", "--fig", "1")
    assert fresh[0] == 0 and len(_delay_lambdas(fresh[1])) == 4
    rc, out, _ = _run(capsys, "delay", "--fig", "1", "--lambda", "0.3")
    assert (rc, _delay_lambdas(out)) == (0, ["0.29999999999999999"])
    # the figure's own lambdas again, not the 0.3 of the last call
    assert _run(capsys, "delay", "--fig", "1") == fresh
    _assert_argparse_error(capsys, ["delay", "--lambda", "0.3", "--fig", "9"], "--fig")
    _assert_argparse_error(capsys, ["delay", "--fig", "1", "--bogus"], "--bogus")
    with pytest.raises(SystemExit) as exc:
        main(["delay", "--help"])
    assert exc.value.code == 0
    capsys.readouterr()
    assert _run(capsys, "delay", "--fig", "1", "--a1", "1")[0] == 2
    assert _run(capsys, "delay", "--fig", "1") == fresh


# ---------------------------------------------------------- entry points


def _module_env():
    """The environment with PYTHONPATH on the sources this process imported."""
    return {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(glkinks.__file__))}


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "glkinks", "eval",
         "--a1", "1", "--b1", "1", "--index", "1", "--grid", "0:1:2"],
        capture_output=True,
        text=True,
        env=_module_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("# glkinks 0.1.0\n")


def test_module_entry_point_propagates_exit_codes():
    proc = subprocess.run(
        [sys.executable, "-m", "glkinks", "eval",
         "--a1", "1", "--b1", "1", "--index", "1", "--grid", "0:1:1"],
        capture_output=True,
        text=True,
        env=_module_env(),
    )
    assert proc.returncode == 2
