"""CLI output against the recorded goldens (roster and format in golden_cli.py)."""

from __future__ import annotations

import os

import mpmath as mp
import pytest

from conftest import R
from golden_cli import GOLDEN_DIR, ROSTER, golden_path, run, verify_skeleton


@pytest.mark.parametrize("name,argv,kind,code", ROSTER, ids=[entry[0] for entry in ROSTER])
def test_cli_matches_golden(name, argv, kind, code):
    rc, text = run(argv, kind)
    assert rc == code
    with open(golden_path(name, kind), encoding="utf-8", newline="") as fh:
        want = fh.read()
    if kind == "verify":
        assert verify_skeleton(text) == verify_skeleton(want)
    else:
        assert text == want


def test_roster_and_golden_files_match_one_to_one():
    # a renamed or dropped roster entry must not leave its old file behind
    want = [os.path.basename(golden_path(name, kind)) for name, _, kind, _ in ROSTER]
    assert sorted(want) == sorted(os.listdir(GOLDEN_DIR))


def _reference_of(header: dict[str, str]):
    """The 40-digit reference for the lambda member an eval header describes."""
    family = header["family"]
    a1, b1 = float(header["a1"]), float(header["b1"])
    lam, xi0 = float(header["lambda"]), float(header["xi0"])
    branch = family[-1]
    if family.startswith("lambda-zero-field-"):
        variant = family.removeprefix("lambda-zero-field-")[:-1]
        return R.lambda_zero_field(a1, b1, branch, variant, lam, xi0)
    case = family.removeprefix("lambda-")[:-1]
    return R.driven(a1, b1, float(header["epsilon"]), case, branch, xi0, lam)


_LAMBDA_EVALS = [entry[0] for entry in ROSTER if entry[0].startswith("eval-lambda-")]


@pytest.mark.parametrize("name", _LAMBDA_EVALS)
def test_lambda_golden_matches_the_reference(name):
    # a re-recorded golden cannot drift from the paper's formulas: every
    # psi is within 1e-14 of the levels of the 40-digit value, except on
    # singular rows and within half a width of the pole
    with open(golden_path(name, "bytes"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = dict(ln[2:].split("=", 1) for ln in lines if ln.startswith("# ") and "=" in ln)
    ref = _reference_of(header)
    scale = max(abs(level) for level in ref.levels)
    poles = ref.poles()
    # A/(1 + K*exp(-c2*z)) + shift, the reference's closed form, is finite
    # where its general formula has the removable pole of the particular kink
    amplitude, k = ref.n / ref.d0, ref.k
    rows = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
    checked = 0
    for xi_text, psi_text, singular in rows:
        xi = mp.mpf(float(xi_text))
        if singular == "1" or any(abs(xi - pole) < 0.5 * ref.width for pole in poles):
            continue
        want = amplitude / (1 + k * mp.exp(-ref.c2 * (xi - ref.xi0))) + ref.shift
        assert abs(mp.mpf(psi_text) - want) <= 1e-14 * scale, xi_text
        checked += 1
    assert checked >= 150
