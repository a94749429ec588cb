"""The golden corpus (ROADMAP item 19) as a tier-1 test.

Every call's exit code and its sequence of (check_name, verdict) pairs
match the stored report exactly, and so does every string. Every number
matches within a relative RTOL, or an absolute ATOL: ATOL is the smallest
tolerance any check applies (1e-12), so a difference below it cannot move a
verdict, and it spares the rounding-level values (an identity's abs_error, a
margin at a tie) that differ across machines. Report bytes are not a gate:
numpy's SIMD and libm log loops differ by an ulp on about one value in 10^4,
so ``python tests/golden/diff.py`` reports the bytes that changed instead.
"""

from __future__ import annotations

import math
import re

import pytest

import corpus

RTOL = 1e-9
ATOL = 1e-12
MAX_BYTES = 1 << 20
# a number inside an error message or a warning
NUMBER = re.compile(r"(-?\d[\d.]*(?:e[-+]?\d+)?)")


def _close(a: float, b: float) -> bool:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    return abs(a - b) <= max(ATOL, RTOL * max(abs(a), abs(b)))


def _differences(old, new, where: str) -> list[str]:
    """Where new departs from old: structure, strings and verdicts exactly,
    numbers within the bounds."""
    number = (int, float)
    if isinstance(old, number) and not isinstance(old, bool):
        if isinstance(new, number) and not isinstance(new, bool) and _close(old, new):
            return []
    elif isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        return [d for k in old for d in _differences(old[k], new[k], f"{where}.{k}")]
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [d for i, (a, b) in enumerate(zip(old, new))
                for d in _differences(a, b, f"{where}[{i}]")]
    elif isinstance(old, str) and isinstance(new, str) and old != new:
        old_parts, new_parts = NUMBER.split(old), NUMBER.split(new)
        # odd parts are numbers, even parts the text between them
        if len(old_parts) == len(new_parts) and old_parts[::2] == new_parts[::2]:
            try:
                if all(_close(float(a), float(b))
                       for a, b in zip(old_parts[1::2], new_parts[1::2])):
                    return []
            except ValueError:
                pass
    elif old == new:
        return []
    return [f"{where}: {old!r} -> {new!r}"]


def _report_differences(key: str, old: dict, new: dict) -> list[str]:
    fmt = key.rsplit(" ", 1)[1]
    old_rows, new_rows = corpus.rows(old, fmt), corpus.rows(new, fmt)
    verdicts = [[(r["check_name"], r["verdict"]) for r in rows] for rows in (old_rows, new_rows)]
    if old["exit"] != new["exit"] or verdicts[0] != verdicts[1]:
        return [f"{key}: exit {old['exit']} -> {new['exit']}, rows {verdicts[0]} -> {verdicts[1]}"]
    return (_differences(old_rows, new_rows, key)
            + _differences(old["err"], new["err"], f"{key} stderr")
            + _differences(old.get("warnings", []), new.get("warnings", []),
                           f"{key} warnings"))


@pytest.fixture(scope="module")
def fresh():
    return corpus.run_all()


def test_every_call_matches_its_stored_report(fresh):
    stored = corpus.load_reports()
    assert {g: sorted(r) for g, r in fresh.items()} == {g: sorted(r) for g, r in stored.items()}
    differences = [d for group, reports in fresh.items() for key, new in reports.items()
                   for d in _report_differences(key, stored[group][key], new)]
    assert not differences, "\n".join(differences[:20])


def test_the_corpus_covers_every_subcommand_in_both_formats(fresh):
    groups = set(fresh) - {"library"}
    assert groups == set(corpus.PMF_COMMANDS) | {cmd for cmd, _ in corpus.NO_PMF_CALLS}
    for group, reports in fresh.items():
        assert {key.rsplit(" ", 1)[1] for key in reports} == set(corpus.FORMATS), group


def test_the_corpus_stays_small():
    size = sum(p.stat().st_size for p in corpus.HERE.rglob("*.json"))
    assert size < MAX_BYTES
