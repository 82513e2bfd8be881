"""The README's Python quick start runs and prints what its comments say.

Every ```python block of README.md is executed in order in one namespace
with stdout captured; the printed Landau levels of the Fock route must be
0.5, 1.5 and 2.5, as the comment next to the print claims.
"""

import contextlib
import io
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text: str) -> list:
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def test_quick_start_prints_the_landau_levels():
    blocks = python_blocks(README.read_text())
    assert len(blocks) >= 2
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    means = [float(m) for m in re.findall(r"mean=([-0-9.e+]+)", out.getvalue())]
    np.testing.assert_allclose(means, [0.5, 1.5, 2.5], rtol=1e-9)
    assert "[0.5 1.5 2.5]" in out.getvalue()
