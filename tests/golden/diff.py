"""Print what the code in src/ changes in the golden corpus's reports.

Usage: python tests/golden/diff.py

Every call of the corpus is run again and compared with its stored report.
Per report file it prints the calls, the calls whose report changed, the
rows that changed (a row is one check_name line of the report; a changed
exit code or stderr counts as one more) and the bytes that changed (those
that a difflib edit of the old output into the new one replaces, deletes or
inserts). It exits 1 when a call was added or dropped, else 0, whatever
changed: the byte comparison is a report, not a gate.
"""

from __future__ import annotations

import difflib
import sys

import corpus


def changed_bytes(old: str, new: str) -> int:
    ops = difflib.SequenceMatcher(None, old, new, autojunk=False).get_opcodes()
    return sum(max(i2 - i1, j2 - j1) for tag, i1, i2, j1, j2 in ops if tag != "equal")


def changed_rows(old: dict, new: dict, fmt: str) -> int:
    old_rows, new_rows = corpus.rows(old, fmt), corpus.rows(new, fmt)
    rows = sum(a != b for a, b in zip(old_rows, new_rows))
    rows += abs(len(old_rows) - len(new_rows))
    return rows + (old["exit"] != new["exit"]) + (old["err"] != new["err"])


def main() -> int:
    stored, fresh = corpus.load_reports(), corpus.run_all()
    if stored.keys() != fresh.keys() or any(stored[g].keys() != fresh[g].keys() for g in fresh):
        print("the calls differ from the stored corpus: regenerate it", file=sys.stderr)
        return 1
    print(f"{'file':<22}{'calls':>7}{'changed':>9}{'rows':>7}{'bytes':>8}")
    totals = [0, 0, 0, 0]
    for group in sorted(fresh):
        counts = [0, 0, 0, 0]
        for key, new in fresh[group].items():
            old = stored[group][key]
            counts[0] += 1
            if old != new:
                counts[1] += 1
                counts[2] += changed_rows(old, new, key.rsplit(" ", 1)[1])
                counts[3] += changed_bytes(old["out"] + old["err"], new["out"] + new["err"])
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{group + '.json':<22}{counts[0]:>7}{counts[1]:>9}{counts[2]:>7}{counts[3]:>8}")
    print(f"{'total':<22}{totals[0]:>7}{totals[1]:>9}{totals[2]:>7}{totals[3]:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
