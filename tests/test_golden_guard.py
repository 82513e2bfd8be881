"""The CI golden guard, .github/golden_guard.py: a scenario whose digest
block moved between the base commit and the change passes only when the
change touches a path under tests/golden/<scenario>/."""

import importlib.util
from pathlib import Path

import pytest

GUARD = Path(__file__).resolve().parents[1] / ".github" / "golden_guard.py"
_spec = importlib.util.spec_from_file_location("golden_guard", GUARD)
golden_guard = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_guard)

DIGEST = ("== spectrum-csv\n"
          "table 1f2e\n"
          "manifest 99a0\n"
          "== sw-json\n"
          "table 7c31\n")


def guard(tmp_path, base: str, head: str, changed: list) -> int:
    files = []
    for name, text in (("base.txt", base), ("head.txt", head),
                       ("changed.txt", "".join(f"{p}\n" for p in changed))):
        (tmp_path / name).write_text(text)
        files.append(str(tmp_path / name))
    return golden_guard.main(*files)


def test_identical_digests_pass(tmp_path, capsys):
    assert guard(tmp_path, DIGEST, DIGEST, ["src/ncqmlab/cli.py"]) == 0
    assert "0 scenario(s) moved" in capsys.readouterr().out


def test_moved_block_without_its_golden_fails(tmp_path, capsys):
    head = DIGEST.replace("table 7c31", "table 7c32")
    changed = ["src/ncqmlab/star.py", "tests/golden/spectrum-csv/table.csv"]
    assert guard(tmp_path, DIGEST, head, changed) == 1
    out = capsys.readouterr()
    assert "sw-json: output moved, golden NOT re-recorded" in out.out
    assert "spectrum-csv" not in out.out
    assert "1 scenario(s) changed output without" in out.err


def test_moved_block_with_its_golden_passes(tmp_path, capsys):
    head = DIGEST.replace("table 7c31", "table 7c32")
    changed = ["src/ncqmlab/star.py", "tests/golden/sw-json/table.json"]
    assert guard(tmp_path, DIGEST, head, changed) == 0
    assert "sw-json: output moved, golden re-recorded" in \
        capsys.readouterr().out


@pytest.mark.parametrize("side", ["base", "head"])
def test_scenario_on_one_side_only_counts_as_moved(tmp_path, capsys, side):
    extra = DIGEST + "== star-csv\ntable 0b1d\n"
    base, head = (extra, DIGEST) if side == "base" else (DIGEST, extra)
    assert guard(tmp_path, base, head, []) == 1
    assert "star-csv: output moved, golden NOT re-recorded" in \
        capsys.readouterr().out
    assert guard(tmp_path, base, head, ["tests/golden/star-csv/table.csv"]) \
        == 0


def test_line_before_the_first_header_is_refused(tmp_path, capsys):
    assert guard(tmp_path, "stray\n" + DIGEST, DIGEST, []) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "base.txt") in err
    assert "'stray' comes before the first" in err
