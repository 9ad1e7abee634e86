"""README's examples run as written and print what README says they print."""

import re
from pathlib import Path

from streambench.cli import run_cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(pattern):
    """The body of the first fenced block whose text after the fence
    matches `pattern`."""
    match = re.search(r"```" + pattern + r"(.*?)```", README, re.S)
    assert match, f"no README block matches {pattern!r}"
    return match.group(1)


def test_library_example_prints_its_comments(capsys):
    code = _block(r"python\n(?=from streambench)")
    # `print(...)  # 43 == ...` states the line the call prints before any ==
    stated = [line.split("#", 1)[1].split("==")[0].strip()
              for line in code.splitlines() if line.startswith("print(") and "#" in line]
    assert stated == ["120", "43", "120 120"]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[:len(stated)] == stated


def test_show_plan_excerpt_is_the_cli_output(capsys):
    excerpt = _block(r"\n(?=# plan refs\n)")
    assert run_cli(["--bench", "refs", "--show-plan"]) == 0
    assert capsys.readouterr().out == excerpt
