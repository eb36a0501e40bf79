"""tools/seeded_outputs.py: every seeded run still exits 0 and writes its
output.  The hashes are not compared here; they depend on numpy's last
bits, and the tool compares two trees on one host."""

import importlib.util
from pathlib import Path

from effdiff import cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "seeded_outputs.py"


def test_every_seeded_run_exits_0_and_writes_its_output(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("seeded_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.chdir(tmp_path)
    assert tool.run_all(cli) == []
    written = [p.name for p in tmp_path.iterdir() if p.suffix != ".cfg"]
    for name, _, _ in tool.RUNS:
        # solve writes one file per snapshot: <name>_<step>.csv
        assert name in written or any(w.startswith(f"{name}_") for w in written)
