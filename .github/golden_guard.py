#!/usr/bin/env python3
"""Fail when a scenario's output bytes moved but its golden did not.

Usage: golden_guard.py BASE_DIGEST HEAD_DIGEST CHANGED_FILES

BASE_DIGEST and HEAD_DIGEST are the outputs of scripts/scenario_digest.py
in the base commit and in the change; CHANGED_FILES lists the paths of
``git diff --name-only base...HEAD``, one a line.  A scenario whose digest
block differs between the two (or that exists in one only) must have a
changed path under tests/golden/<scenario>/, so every output move is a
stated re-record.  Exits 1, naming the scenarios, when one has none, and
2, naming the file, when a digest has a line before its first header.
"""

import sys
from pathlib import Path


def blocks(path: Path) -> dict:
    """Scenario name -> the digest lines under its ``== name`` header, for
    the digest file at path; ValueError for a line before the first one."""
    out: dict = {}
    lines = None
    for line in path.read_text().splitlines():
        if line.startswith("== "):
            lines = out[line[3:]] = []
        elif lines is None:
            raise ValueError(f"{path}: line {line!r} comes before the "
                             "first '== <scenario>' header")
        else:
            lines.append(line)
    return out


def main(base_digest: str, head_digest: str, changed_files: str) -> int:
    try:
        base, head = blocks(Path(base_digest)), blocks(Path(head_digest))
    except ValueError as exc:
        print(f"not a scenario digest: {exc}", file=sys.stderr)
        return 2
    changed = Path(changed_files).read_text().splitlines()
    moved = sorted(name for name in base.keys() | head.keys()
                   if base.get(name) != head.get(name))
    unrecorded = [name for name in moved
                  if not any(path.startswith(f"tests/golden/{name}/")
                             for path in changed)]
    for name in moved:
        state = "NOT re-recorded" if name in unrecorded else "re-recorded"
        print(f"{name}: output moved, golden {state}")
    if unrecorded:
        print(f"{len(unrecorded)} scenario(s) changed output without a "
              "re-recorded golden: re-record them with "
              "tests/test_cli_golden.py and state why in CHANGES.md",
              file=sys.stderr)
        return 1
    print(f"{len(moved)} scenario(s) moved, each with its golden")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
