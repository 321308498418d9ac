"""The README's quick tour runs and its command lines parse as written."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from archdim.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.S | re.M)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    # the tour's first print is commented with its value
    assert out.getvalue().splitlines()[0] == "63"


def test_readme_command_lines_parse():
    # every example command names only commands and flags the CLI has
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section, flags=re.S | re.M)[1]
    lines = [ln for ln in block.splitlines() if ln.startswith("archdim ")]
    assert len(lines) == 7
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])
