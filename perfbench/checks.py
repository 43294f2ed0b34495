"""Output checks applied to every benchmarked ``entswap experiment`` call.

Kept free of numpy and entswap imports so the checks can be tested on
hand-built outputs.
"""

from __future__ import annotations


def check_call(rc, summary, csv, *, expected_rows, oracle_tol=None,
               reference=None) -> "list[str]":
    """Return the reasons one experiment call failed; empty when it passed.

    ``rc`` is the CLI exit code (None when the call raised), ``summary``
    the parsed summary JSON (None when missing) and ``csv`` the records
    file as bytes (None when missing). ``expected_rows`` counts CSV rows
    plus skipped outcomes. ``oracle_tol`` bounds the oracle-equiv
    extras; ``reference`` is the byte-exact CSV the call must reproduce.
    """
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc!r}, expected 0")
    if summary is None:
        problems.append("summary missing or not JSON")
    elif summary.get("hard_violations") != 0:
        problems.append(f"hard_violations = {summary.get('hard_violations')!r}")
    if csv is None:
        problems.append("records CSV missing")
    elif summary is not None:
        rows = csv.count(b"\n") - 1
        skipped = summary.get("skipped", 0)
        if rows + skipped != expected_rows:
            problems.append(f"{rows} rows + {skipped} skipped != {expected_rows}")
    if oracle_tol is not None and summary is not None:
        extras = summary.get("extras", {})
        for key in ("max_trace_distance", "max_probability_diff"):
            value = extras.get(key)
            if value is None or not value <= oracle_tol:
                problems.append(f"{key} = {value!r} exceeds {oracle_tol}")
    if reference is not None and csv is not None and csv != reference:
        problems.append("CSV differs from the workers=1 reference of the same seed")
    return problems
