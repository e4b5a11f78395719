"""README's library example, run as written, and the public names it uses."""

import contextlib
import io
import pkgutil
import re
from pathlib import Path

import numpy as np

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_library_example_runs_as_written():
    section = README.split("\n## Library example\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), scope)
    block = scope["state"]["A"]  # "2x2 block, unit diagonal"
    assert block.shape == (2, 2)
    np.testing.assert_array_equal(np.diag(block), 1.0)
    assert len(out.getvalue().splitlines()) == 3  # the block's two rows, then top_k's list


def test_every_hetsim_name_in_readme_resolves():
    names = sorted(set(re.findall(r"\bhetsim(?:\.[A-Za-z_]\w*)+", README)))
    assert "hetsim.top_k" in names
    for name in names:
        pkgutil.resolve_name(name)
