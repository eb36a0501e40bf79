"""tools/seeded_outputs.py: every seeded run still exits 0 and writes its
output, every refused run exits 2 or 3 with one line, and both give the
lines of the committed report tools/seeded_outputs.txt: the same hashes
and the same refusals.

The hashes depend on numpy's last bits, so they are compared only under
the numpy version that the report's first line records.  Under another
version the hash comparison is skipped with that reason.  To restore it,
regenerate the report under this numpy from the parent commit,

    python3 tools/seeded_outputs.py --src <parent>/src > tools/seeded_outputs.txt

check that the change prints the same lines, and commit the new report."""

import importlib.util
from pathlib import Path

import pytest

from effdiff import cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "seeded_outputs.py"
REPORT = TOOL.with_suffix(".txt").read_text().splitlines()


@pytest.fixture
def tool(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("seeded_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.chdir(tmp_path)
    return module


def test_every_seeded_run_exits_0_and_writes_its_output(tool, tmp_path):
    assert tool.run_all(cli) == []
    written = [p.name for p in tmp_path.iterdir() if p.suffix != ".cfg"]
    for name, _, _ in tool.RUNS:
        # solve writes one file per snapshot: <name>_<step>.csv
        assert name in written or any(w.startswith(f"{name}_") for w in written)

    hashes = tool.hash_lines(tmp_path)
    expected = [line for line in REPORT[1:] if not line.startswith("exit ")]
    assert [h.split()[1] for h in hashes] == [e.split()[1] for e in expected]
    if REPORT[0] != tool.numpy_line():
        pytest.skip(f"hashes recorded under {REPORT[0][2:]}, this is "
                    f"{tool.numpy_line()[2:]}: regenerate the report (see "
                    "this module's docstring)")
    assert hashes == expected


def test_every_refused_run_exits_2_or_3_with_one_line(tool):
    refused = tool.run_refused(cli)
    assert [name for name, _, _ in refused] == [r[0] for r in tool.REFUSED]
    for name, code, err in refused:
        assert code in (2, 3), name
        assert err.endswith("\n") and err.count("\n") == 1, name
    assert tool.refusal_lines(refused) == [
        line for line in REPORT if line.startswith("exit ")]
