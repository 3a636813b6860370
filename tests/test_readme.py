"""The README's examples run as written: the library quick start, and every
`tantheta` line of the command-line block exits 0 with the README's sweep
config and an instance file beside it; and its "Tolerances" table lists
every constant of the tolerance table in tantheta/errors.py with its value."""
import re
import shlex
from pathlib import Path

from tantheta import errors, save_instance
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


def test_tolerance_table_lists_every_constant_of_the_table_with_its_value():
    section = README[README.index("## Tolerances"):README.index("## Command line")]
    rows = dict(re.findall(r"^\| `([A-Z_]+)` \| `([^`]+)` \|", section, re.M))
    table = {
        name: value for name, value in vars(errors).items()
        if name.isupper() and isinstance(value, float)
    }
    assert rows.keys() == table.keys()
    for name, value in table.items():
        assert float(rows[name]) == value, name
