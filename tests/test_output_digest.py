"""tools/output_digest.py digests every output family of a checkout."""
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "output_digest.py"
FAMILIES = [
    "sweep_jsonl", "sweep_csv", "check_identities_text", "check_identities_json", "trial",
    "example", "bound", "bound_extreme", "nested_entries",
]


def run_tool(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=300
    )


def test_one_digest_per_family_of_this_checkout():
    done = run_tool(str(ROOT))
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    assert [row[0] for row in rows] == FAMILIES
    for _, items, digest in rows:
        assert int(items) > 0 and re.fullmatch("[0-9a-f]{64}", digest)


def test_rejects_a_directory_without_the_package(tmp_path):
    done = run_tool(str(tmp_path))
    assert done.returncode == 2 and "no tantheta package" in done.stderr
    assert run_tool().returncode == 2


def test_sweep_that_writes_no_report(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.chdir(tmp_path)
    failed = tool.sweeps(lambda argv: 2)
    assert sorted(failed) == ["sweep_csv", "sweep_jsonl"]
    assert all(d.items == len(tool.SWEEP_GEOMETRIES) + 1 for d in failed.values())

    def empty_report(argv):
        open(argv[argv.index("--out") + 1], "w").close()
        return 2

    wrote = tool.sweeps(empty_report)
    assert failed["sweep_jsonl"].hexdigest() != wrote["sweep_jsonl"].hexdigest()
