"""Correctness checks of squeezelab CLI output against a stored reference.

Each check returns a list of problems; an empty list means the output is
correct.  Sweep and coefficient CSVs are read by column name, so columns a
later version adds are allowed.
"""

from __future__ import annotations

import csv
import io

MAX_PROBLEMS = 5


def _rows(text: str) -> tuple[list[str], list[dict]]:
    reader = csv.DictReader(io.StringIO(text))
    rows = list(reader)
    return list(reader.fieldnames or []), rows


def _missing_columns(fields: list[str], needed: tuple[str, ...]) -> list[str]:
    return [f"missing column {col!r}" for col in needed if col not in fields]


def check_sweep(text: str, reference: str, rtol: float, atol: float) -> list[str]:
    """(n, N, r, status) must match exactly and mean_photon to rtol (atol floor)."""
    fields, rows = _rows(text)
    _, ref_rows = _rows(reference)
    problems = _missing_columns(fields, ("n", "N", "r", "status", "mean_photon"))
    if problems:
        return problems
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    for i, (got, ref) in enumerate(zip(rows, ref_rows)):
        try:
            key = (int(got["n"]), int(got["N"]), float(got["r"]), got["status"])
            value = float(got["mean_photon"])
        except (TypeError, ValueError):
            problems.append(f"row {i}: unparsable {got}")
            continue
        ref_key = (int(ref["n"]), int(ref["N"]), float(ref["r"]), ref["status"])
        ref_value = float(ref["mean_photon"])
        if key != ref_key:
            problems.append(f"row {i}: (n,N,r,status) {key} != reference {ref_key}")
        elif not abs(value - ref_value) <= max(rtol * max(abs(value), abs(ref_value)), atol):
            problems.append(
                f"row {i} {key}: mean_photon {value!r} != reference {ref_value!r}"
            )
    return problems[:MAX_PROBLEMS]


def check_coeffs(text: str, reference: str) -> list[str]:
    """Every (n, m) row of the reference, with numerator and denominator equal."""
    fields, rows = _rows(text)
    _, ref_rows = _rows(reference)
    problems = _missing_columns(fields, ("n", "m", "numerator", "denominator"))
    if problems:
        return problems

    def table(rows):
        return {
            (int(row["n"]), int(row["m"])): (int(row["numerator"]), int(row["denominator"]))
            for row in rows
        }

    try:
        got = table(rows)
    except (TypeError, ValueError) as exc:
        return [f"unparsable coefficient row: {exc}"]
    expected = table(ref_rows)
    if len(got) != len(rows):
        problems.append("duplicate (n, m) rows")
    for key, frac in expected.items():
        if key not in got:
            problems.append(f"(n, m) = {key} missing")
        elif got[key] != frac:
            problems.append(f"(n, m) = {key}: {got[key]} != reference {frac}")
    extra = set(got) - set(expected)
    if extra:
        problems.append(f"unexpected rows {sorted(extra)[:3]}")
    return problems[:MAX_PROBLEMS]


def _check_names(text: str) -> tuple[list[str], list[str]]:
    names, problems = [], []
    for line in text.splitlines():
        if not line.strip():
            continue
        if not line.startswith("PASS "):
            problems.append(f"not a PASS line: {line!r}")
            continue
        names.append(line[len("PASS "):].split(" (", 1)[0])
    return sorted(names), problems


def check_verify(text: str, reference: str) -> list[str]:
    """Every line PASS, and the check names equal to the reference's."""
    names, problems = _check_names(text)
    ref_names, _ = _check_names(reference)
    if names != ref_names:
        missing = sorted(set(ref_names) - set(names))
        extra = sorted(set(names) - set(ref_names))
        problems.append(
            f"check names differ from reference: missing {missing}, extra {extra}, "
            f"{len(names)} lines vs {len(ref_names)}"
        )
    return problems[:MAX_PROBLEMS]


def check_output(kind: str, text: str, reference: str, tolerances: dict) -> list[str]:
    if kind == "sweep":
        return check_sweep(
            text, reference, tolerances["mean_photon_rtol"], tolerances["mean_photon_atol"]
        )
    if kind == "coeffs":
        return check_coeffs(text, reference)
    if kind == "verify":
        return check_verify(text, reference)
    raise ValueError(f"unknown check {kind!r}")
