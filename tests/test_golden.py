"""CLI output against the recorded goldens (roster and format in golden_cli.py)."""

from __future__ import annotations

import os

import pytest

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
