"""The README's examples run as written: the library quick start, and every
`tantheta` line of the command-line block exits 0 with the README's sweep
config and an instance file beside it."""
import re
import shlex
from pathlib import Path

from tantheta import save_instance
from tantheta.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced(language, after):
    """The first fenced block of `language` after the heading `after`."""
    section = README[README.index(after):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_quick_start_and_command_lines(tmp_path, monkeypatch):
    namespace = {}
    exec(fenced("python", "## Library quick start"), namespace)
    monkeypatch.chdir(tmp_path)
    Path("sweep.json").write_text(fenced("json", "## Command line"))
    save_instance(namespace["block"], "instance.json")
    lines = [
        line for line in fenced("sh", "## Command line").splitlines()
        if line.startswith("tantheta ")
    ]
    assert len(lines) == 8
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
