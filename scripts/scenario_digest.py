#!/usr/bin/env python3
"""Byte digest of the command line on the golden scenario matrix.

Runs every ``SCENARIOS`` entry of ``tests/test_cli_golden.py`` in-process,
each into a fresh temporary directory, and prints per scenario its exit
code, stdout, stderr and the sha256 of every file it wrote.  The
temporary directory is written as ``<out>`` (the output directory) or
``<work>`` (its parent) in the streams and before hashing the files, so
two runs agree line for line exactly when they wrote the same bytes.

Where the golden test compares floats to a relative tolerance, this digest
compares bytes: diff its output between two checkouts, or between two
BLAS thread counts, to show that a change moved no output at all.

Usage: PYTHONPATH=src python3 scripts/scenario_digest.py [NAME ...]
"""

import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

GOLDEN_TESTS = (Path(__file__).resolve().parent.parent / "tests"
                / "test_cli_golden.py")


def load_golden_tests():
    spec = importlib.util.spec_from_file_location("test_cli_golden",
                                                  GOLDEN_TESTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digest(golden, scenario) -> list:
    """The digest lines of one scenario."""
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        out = workdir / "out"
        result = golden.run_scenario(scenario, workdir)

        def normalized(data: bytes) -> bytes:
            return data.replace(str(out).encode(), golden.OUT.encode()) \
                .replace(str(workdir).encode(), b"<work>")

        lines = [f"== {scenario.name}", f"exit {result['exit']}"]
        for stream in ("stdout", "stderr"):
            text = normalized(result[stream].encode()).decode()
            lines.append(f"{stream} {json.dumps(text)}")
        for name in result["files"]:
            data = normalized((out / name).read_bytes())
            lines.append(f"file {name} {hashlib.sha256(data).hexdigest()}")
    return lines


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else list(argv)
    golden = load_golden_tests()
    unknown = set(names) - {scenario.name for scenario in golden.SCENARIOS}
    if unknown:
        print(f"unknown scenarios: {', '.join(sorted(unknown))}",
              file=sys.stderr)
        return 2
    for scenario in golden.SCENARIOS:
        if not names or scenario.name in names:
            print("\n".join(digest(golden, scenario)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
