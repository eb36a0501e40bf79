"""tools/seeded_outputs.py: every seeded run still exits 0 and writes its
output, and every refused run exits 2 or 3 with one line.  The hashes and
texts are not compared here; the hashes depend on numpy's last bits, and
the tool compares two trees on one host."""

import importlib.util
from pathlib import Path

import pytest

from effdiff import cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "seeded_outputs.py"


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


def test_every_refused_run_exits_2_or_3_with_one_line(tool):
    refused = tool.run_refused(cli)
    assert [name for name, _, _ in refused] == [r[0] for r in tool.REFUSED]
    for name, code, err in refused:
        assert code in (2, 3), name
        assert err.endswith("\n") and err.count("\n") == 1, name
