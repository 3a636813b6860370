"""tools/output_digest.py digests every output family of a checkout."""
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
