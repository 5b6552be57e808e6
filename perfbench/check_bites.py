"""Show that the output check rejects slightly corrupted outputs.

    python3 perfbench/check_bites.py

Each stored reference must pass its own check, also with a column added
and with a mean_photon moved by 1e-13 relative, and each of these
corruptions of it must fail: one sweep mean_photon perturbed by 1e-6
relative, one coefficient numerator changed by one, one verify line
removed.  Exits 0 only if every case comes out as expected.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from check import check_output

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "workloads.json").read_text())


def perturb_mean_photon(text: str, row: int, rel: float) -> str:
    lines = text.splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    col = header.index("mean_photon")
    fields = lines[row + 1].rstrip("\n").split(",")
    fields[col] = repr(float(fields[col]) * (1 + rel))
    lines[row + 1] = ",".join(fields) + "\n"
    return "".join(lines)


def bump_numerator(text: str, row: int) -> str:
    lines = text.splitlines(keepends=True)
    col = lines[0].rstrip("\n").split(",").index("numerator")
    fields = lines[row + 1].rstrip("\n").split(",")
    fields[col] = str(int(fields[col]) + 1)
    lines[row + 1] = ",".join(fields) + "\n"
    return "".join(lines)


def add_column(text: str, name: str, value: str) -> str:
    lines = text.splitlines()
    out = [lines[0] + "," + name] + [line + "," + value for line in lines[1:]]
    return "\n".join(out) + "\n"


def drop_line(text: str, index: int) -> str:
    lines = text.splitlines(keepends=True)
    return "".join(lines[:index] + lines[index + 1:])


def main() -> int:
    refs = {name: (HERE / spec["reference"]).read_text() for name, spec in SPEC["workloads"].items()}
    cases = [(name, "unchanged reference", refs[name], True) for name in refs]
    cases += [
        ("sweep", "a discarded_weight column added",
         add_column(refs["sweep"], "discarded_weight", "5e-32"), True),
        ("sweep", "mean_photon of row 100 times (1 + 1e-13)",
         perturb_mean_photon(refs["sweep"], 100, 1e-13), True),
        ("sweep", "mean_photon of row 100 times (1 + 1e-6)",
         perturb_mean_photon(refs["sweep"], 100, 1e-6), False),
        ("large-N", "mean_photon of row 2 times (1 + 1e-6)",
         perturb_mean_photon(refs["large-N"], 2, 1e-6), False),
        ("coeffs", "numerator of row 30 plus one", bump_numerator(refs["coeffs"], 30), False),
        ("verify", "line 7 removed", drop_line(refs["verify"], 7), False),
        ("verify", "first PASS turned into FAIL", refs["verify"].replace("PASS", "FAIL", 1), False),
    ]
    all_ok = True
    for name, what, text, should_pass in cases:
        spec = SPEC["workloads"][name]
        problems = check_output(spec["check"], text, refs[name], SPEC["tolerances"])
        passed = not problems
        ok = passed == should_pass
        all_ok &= ok
        verdict = "passes" if passed else "fails: " + "; ".join(problems)
        print(f"{'ok ' if ok else 'BAD'} {name:8s} {what}: {verdict}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
