"""Golden command-line outputs: the roster of commands and their recorded bytes.

Each roster entry is (name, argv, kind, exit code).  The recorded output of
an entry lives in tests/golden/<name>.<ext>:

  * kind "bytes"  -> <name>.txt, the exact stdout, compared byte for byte;
  * kind "figure" -> <name>.sha256, one "<sha256>  <file>" line per file the
    command writes, in the order it lists them (the files total ~3 MB);
  * kind "verify" -> <name>.txt, the exact stdout, but compared only on the
    check labels, the PASS/FAIL verdicts and the final count line, because
    the residual digits and argmax positions are rounding noise.

test_golden.py runs the same roster.  To record the current outputs again,
from the root of a checkout:

    PYTHONPATH=src python tests/golden_cli.py [NAME ...]

With names, only those entries are recorded; without, every entry.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

_UNIT = ["--a1", "1", "--b1", "1"]
_FIG13 = ["--a1", "3", "--b1", "0.7"]
_FIG34 = ["--a1", "0.7", "--b1", "3"]
_GRID = ["--grid", "-10:10:201"]

# Non-unit coefficients for the delay curve near both ends of the forbidden
# window [B, 0): lambda = B*(1 + 10**j) below B and -B*10**j above 0, for
# j = -8..3.  B is lambda_forbidden_interval(...).bound_value for this set.
_DELAY_SET = ["--a1", "2.5", "--b1", "0.4", "--epsilon", "0.6", "--case", "II",
              "--branch", "+", "--xi0", "0.3"]
_DELAY_BOUND = -0.3235400243837037
_DELAY_LAMBDAS = [f"--lambda={lam!r}" for j in range(-8, 4)
                  for lam in (_DELAY_BOUND * (1.0 + 10.0**j), -_DELAY_BOUND * 10.0**j)]


def _eval(name, *flags):
    return (f"eval-{name}", ["eval", *flags, *_GRID], "bytes", 0)


ROSTER = [
    _eval("montroll-0-1", "--montroll-a", "0", "--montroll-b", "1"),
    _eval("montroll-1--1", "--montroll-a", "1", "--montroll-b", "-1", "--xi0", "0.5"),
    _eval("undriven-1", *_UNIT, "--index", "1"),
    _eval("undriven-2", *_FIG13, "--index", "2"),
    # the grid has a node at xi = 0, exactly on the pole: one ",,1" row
    _eval("undriven-3", *_UNIT, "--index", "3"),
    # the pole on the first and on the last node: a singular row at each end
    ("eval-undriven-3-pole-first", ["eval", *_UNIT, "--index", "3", "--grid=0:10:101"],
     "bytes", 0),
    ("eval-undriven-3-pole-last", ["eval", *_UNIT, "--index", "3", "--grid=-10:0:101"],
     "bytes", 0),
    # |psi| reaches 1e13 on a smooth kink: no row may be flagged singular
    ("eval-undriven-1-a1-1e26", ["eval", "--a1", "1e26", "--b1", "1", "--index", "1",
                                 "--grid=-1:1:3"], "bytes", 0),
    _eval("undriven-4", *_FIG34, "--index", "4", "--xi0", "1.5"),
    _eval("driven-I+", *_FIG13, "--epsilon", "2.2772", "--case", "I", "--branch", "+"),
    _eval("driven-I-", *_FIG13, "--epsilon", "1.0351", "--case", "I", "--branch", "-"),
    _eval("driven-II+", *_FIG34, "--epsilon", "0.5313", "--case", "II", "--branch", "+"),
    _eval("driven-II-", *_FIG34, "--epsilon", "-0.5313", "--case", "II", "--branch", "-"),
    _eval("lambda-I+", *_FIG13, "--epsilon", "2.2772", "--case", "I", "--branch", "+",
          "--lambda", "0.125"),
    # inside the forbidden window: a pole between two nodes
    _eval("lambda-I+-poled", *_FIG13, "--epsilon", "2.2772", "--case", "I", "--branch", "+",
          "--lambda", "0.05"),
    _eval("lambda-II-", *_FIG34, "--epsilon", "-0.5313", "--case", "II", "--branch", "-",
          "--lambda", "0.6"),
    _eval("lambda-zero-field-first+", *_UNIT, "--branch", "+", "--variant", "first",
          "--lambda", "2"),
    _eval("lambda-zero-field-second+", *_FIG13, "--branch", "+", "--variant", "second",
          "--lambda", "10"),
    _eval("lambda-zero-field-first-", *_FIG34, "--branch", "-", "--variant", "first",
          "--lambda", "0.5"),
    # lambda*sqrt(a1) = 2: at 1 this family is a constant, which eval refuses
    _eval("lambda-zero-field-second-", *_UNIT, "--branch", "-", "--variant", "second",
          "--lambda", "2"),
    *[(f"delay-fig{k}", ["delay", "--fig", str(k)], "bytes", 0) for k in (1, 2, 3, 4)],
    ("delay-window-ends", ["delay", *_DELAY_SET, *_DELAY_LAMBDAS], "bytes", 0),
    ("families-unit", ["families", *_UNIT], "bytes", 0),
    ("families-epsilon", ["families", *_FIG13, "--epsilon", "2.2772"], "bytes", 0),
    *[(f"figure-fig{k}", ["figure", "--fig", str(k)], "figure", 0) for k in (1, 2, 3, 4)],
    ("verify", ["verify"], "verify", 0),
    ("verify-perturbed", ["verify", "--perturb-rho", "0.001"], "verify", 1),
    # non-unit coefficients, so a roster that drops --a1/--b1 shows up
    ("verify-a1-2-b1-0.5", ["verify", "--a1", "2", "--b1", "0.5"], "verify", 0),
    ("verify-lambda-zero-field-a1-2-b1-0.5",
     ["verify", "--family", "lambda-zero-field", "--a1", "2", "--b1", "0.5"], "verify", 0),
    # the residual gate is relative to the equation's largest term: it
    # passes correct profiles and fails perturbed ones at any scale
    ("verify-a1-1e6-b1-1e-6", ["verify", "--a1", "1e6", "--b1", "1e-6"], "verify", 0),
    ("verify-perturbed-a1-1e-6-b1-1e6",
     ["verify", "--a1", "1e-6", "--b1", "1e6", "--perturb-rho", "0.001"], "verify", 1),
    # the RK4 blow-up bound scales with the kink's levels and slope, so a
    # kink whose slope is far above 1e12 integrates without blowing up
    ("verify-a1-1e10-b1-1e-10", ["verify", "--a1", "1e10", "--b1", "1e-10"], "verify", 0),
    ("verify-perturbed-a1-1e10-b1-1e-10",
     ["verify", "--a1", "1e10", "--b1", "1e-10", "--perturb-rho", "0.001"], "verify", 1),
    # xi0 lies log(sqrt(b1))/rate from these kinks, 173 widths here, so the
    # windows are centred on each kink; and the residual and its gate form
    # b1*psi*psi*psi left to right, which neither under- nor overflows at M = 1e-150
    ("verify-a1-1e150-b1-1e-150", ["verify", "--a1", "1e150", "--b1", "1e-150"], "verify", 0),
    ("verify-perturbed-a1-1e150-b1-1e-150",
     ["verify", "--a1", "1e150", "--b1", "1e-150", "--perturb-rho", "0.001"], "verify", 1),
    ("verify-a1-1e-150-b1-1e150", ["verify", "--a1", "1e-150", "--b1", "1e150"], "verify", 0),
    ("verify-perturbed-a1-1e-150-b1-1e150",
     ["verify", "--a1", "1e-150", "--b1", "1e150", "--perturb-rho", "0.001"], "verify", 1),
]


def golden_path(name: str, kind: str) -> str:
    return os.path.join(GOLDEN_DIR, name + (".sha256" if kind == "figure" else ".txt"))


def run(argv: list[str], kind: str) -> tuple[int, str]:
    """Run one command in process; returns (exit code, recorded text)."""
    from glkinks.cli import main

    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if kind == "figure":
            argv = [*argv, "--out", tmp]
        with contextlib.redirect_stdout(out):
            rc = main(argv)
        text = out.getvalue()
        if kind == "figure":
            lines = []
            for name in text.split():
                with open(os.path.join(tmp, name), "rb") as fh:
                    lines.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {name}\n")
            text = "".join(lines)
    return rc, text


def verify_skeleton(text: str) -> list[str]:
    """Check labels with their verdicts, plus the final count line."""
    lines = text.splitlines()
    return [line.split(":", 1)[0] for line in lines[:-1]] + lines[-1:]


def main(names: list[str]) -> int:
    unknown = set(names) - {entry[0] for entry in ROSTER}
    if unknown:
        print(f"unknown roster names: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    recorded = 0
    for name, argv, kind, code in ROSTER:
        if names and name not in names:
            continue
        rc, text = run(argv, kind)
        if rc != code:
            print(f"{name}: exit {rc}, expected {code}", file=sys.stderr)
            return 1
        with open(golden_path(name, kind), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        recorded += 1
    print(f"wrote {recorded} golden files to {GOLDEN_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
