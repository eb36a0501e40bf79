"""Print the sha256 of every seeded output of the built-in examples.

    python3 tools/seeded_outputs.py [--src DIR] > sums.txt

Runs every command on built-in examples and a few small configs at fixed
seeds (the list RUNS below, whose input files are INPUTS), in a temporary
directory, and prints one `sha256  file` line per output file (the format
of `sha256sum`).  Two trees give byte-identical outputs when their lines
are identical:

    python3 tools/seeded_outputs.py --src ../parent/src > parent.txt
    python3 tools/seeded_outputs.py > change.txt
    diff parent.txt change.txt

effdiff is imported from --src (default: the `src/` next to this file), so
the tool can run against a tree that does not contain it.  It takes a few
seconds on one core and is not part of the test suite.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

# (output name, command, config keys); every run also gets out=<name>
RUNS = [
    ("tensor-radial.csv", "tensor", {"example": "radial"}),
    ("tensor-waves.csv", "tensor", {"example": "waves"}),
    ("solve-waves", "solve", {"example": "waves", "steps": "40",
                              "snap_every": "10",
                              "p0": "exp(-(x-3)^2-(y-3)^2)"}),
    ("mc-slab.json", "mc", {"example": "slab", "seed": "3"}),
    ("mc-waves.json", "mc", {"example": "waves", "seed": "3"}),
    ("oracle-wedge.json", "oracle", {"example": "wedge"}),
    ("oracle-sweep.json", "oracle", {"example": "wedge", "count": "200",
                                     "seed": "7"}),
    ("planes-wedge.json", "planes", {"example": "wedge"}),
    ("recover-channel.csv", "recover-channel", {"z1": "0.3*sin(x)",
                                                "z2": "1+0.2*cos(x)"}),
    ("tensor-mixed.csv", "tensor", {"z1": "0.3*sin(x)*cos(y)",
                                    "z2_grid": "z2.grid", "domain": "0,2,0,2",
                                    "resolution": "12x10"}),
    ("solve-waves-infinite", "solve", {"example": "waves", "mode": "infinite",
                                       "steps": "20", "snap_every": "10"}),
    # a pair whose tensor has off-diagonal terms up to |D12| = 0.38, at
    # both rates
    *[(f"solve-offdiagonal-{mode}", "solve", {
        "z1": "6*x+0.5*sin(3*y)", "z2": "6*y+20+0.5*cos(3*x)",
        "domain": "0,2,0,2", "resolution": "16x12", "mode": mode,
        "steps": "20", "snap_every": "10", "p0": "exp(-4*(x-1)^2-4*(y-1)^2)"})
      for mode in ("finite", "infinite")],
    # the one-point routes: one oracle case by psi, m1, m2 or by normals,
    # and the extreme-tilt analysis from slopes
    ("oracle-case.json", "oracle", {"psi": "0.3", "m1": "-1", "m2": "2",
                                    "d0": "0.7"}),
    ("oracle-normals.json", "oracle", {"n1": "0.1,0.2,-1",
                                       "n2": "-0.6,0.3,0.8", "d0": "0.7"}),
    ("planes-slopes.json", "planes", {"m1": "0.5", "m2": "3",
                                      "tilt_sign": "-", "d0": "0.7"}),
    # tilted slabs: the benchmark's validate slab, a slab with only mu set
    # and one so steep that it starts on its normal through the origin
    ("mc-tilted.json", "mc", {"mu": "1", "gap": "1", "seed": "3"}),
    ("mc-mu-only.json", "mc", {"mu": "0.5", "seed": "3"}),
    ("mc-steep.json", "mc", {"mu": "1e13", "gap": "1e13", "seed": "3"}),
    # oracle settings one at a time, and planes seen along a tilted zdir
    ("oracle-eval-y.json", "oracle", {"psi": "0.3", "m1": "-1", "m2": "2",
                                      "eval_y": "0.4"}),
    ("oracle-resolution.json", "oracle", {"example": "wedge", "count": "20",
                                          "seed": "5", "quad_points": "64",
                                          "fd_step": "1e-4"}),
    ("planes-zdir.json", "planes", {"n1": "0.1,0.2,-1", "n2": "-0.6,0.3,0.8",
                                    "zdir": "0.2,-0.1,1"}),
    # tensor rows without numbers: a domain_error node (the radial origin)
    # and slope_overflow nodes beside a degenerate frame, for each z2
    ("tensor-domain-error.csv", "tensor", {"example": "radial",
                                           "resolution": "3x3"}),
    *[(f"tensor-slope-overflow-{k}.csv", "tensor", {
        "z1": "-1e200*x^2", "z2": z2, "domain": domain, "resolution": "3x2"})
      for k, (z2, domain) in enumerate([("1", "0,1,0,1"),
                                        ("1e200*x^2+1", "0,0.2,0,1")])],
]

# input files that RUNS name, written next to their configs: a 21x21
# sampled upper surface 1 + 0.1 (x + y^2) over [0, 2]^2
INPUTS = {
    "z2.grid": "# grid origin=0,0 spacing=0.1,0.1\n" + "".join(
        ",".join(repr(1 + 0.1 * (i / 10 + (j / 10) ** 2)) for j in range(21))
        + "\n" for i in range(21)),
}


def run_all(cli):
    """Run RUNS in the current directory; the failures, one line each."""
    failed = []
    for name, text in INPUTS.items():
        Path(name).write_text(text)
    for name, command, keys in RUNS:
        Path(f"{name}.cfg").write_text(
            "".join(f"{k}={v}\n" for k, v in {**keys, "out": name}.items()))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", f"{name}.cfg"])
        if code != 0:
            failed.append(f"{name}: exit {code}: {err.getvalue().strip()}")
    return failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve()
                                             .parents[1] / "src"),
                        help="directory that holds the effdiff package")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    from effdiff import cli
    if not Path(cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"effdiff was imported from {cli.__file__}, not from {src}")

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)   # relative out names: the headers embed them
        try:
            failed = run_all(cli)
        finally:
            os.chdir(cwd)
        for path in sorted(Path(tmp).glob("*")):
            if path.suffix != ".cfg" and path.name not in INPUTS:
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {path.name}")
    for line in failed:
        print(f"failed: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
