"""Print the sha256 of every seeded output of the built-in examples.

    python3 tools/seeded_outputs.py [--src DIR] > sums.txt

Runs every command on built-in examples and a few small configs at fixed
seeds (the list RUNS below, whose input files are INPUTS), in a temporary
directory, and prints the numpy version, then one `sha256  file` line per
output file (the format of `sha256sum`).  Then it runs the configs of
REFUSED, which must exit non-zero, and prints one
`exit <code>  <name>: <stderr line>` line for each.  Two trees give
byte-identical outputs and the same refusals when their lines are
identical:

    python3 tools/seeded_outputs.py --src ../parent/src > parent.txt
    python3 tools/seeded_outputs.py > change.txt
    diff parent.txt change.txt

effdiff is imported from --src (default: the `src/` next to this file), so
the tool can run against a tree that does not contain it.  It takes a few
seconds on one core.  Its report of the tree it sits in is committed as
tools/seeded_outputs.txt; tests/test_seeded_outputs.py runs RUNS and
REFUSED in the test suite, checks that each run of RUNS exits 0 and writes
its output and each of REFUSED exits 2 or 3 with one line, and compares
their lines with that file.  A change that alters an output or a refusal
on purpose regenerates the file and says why.
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

import numpy as np

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
    # mixed pairs read by ExpressionField.sample: a constant z1, whose
    # function returns scalars and no mask, and a kink at x = 1, where the
    # 3 nodes without a gradient are domain_error rows
    *[(f"tensor-mixed-{name}.csv", "tensor", {
        "z1": z1, "z2_grid": "z2.grid", "domain": "0,2,0,2",
        "resolution": "5x3"})
      for name, z1 in (("constant", "0"), ("kink", "abs(x-1)-1"))],
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
    # the steepest coincident slopes that have a tensor: 1 + m^2 is finite
    ("planes-steep.json", "planes", {"m1": "1e150", "m2": "1e150"}),
    # tilted slabs: the benchmark's validate slab, a slab with only mu set
    # and one so steep that it starts on its normal through the origin
    ("mc-tilted.json", "mc", {"mu": "1", "gap": "1", "seed": "3"}),
    ("mc-mu-only.json", "mc", {"mu": "0.5", "seed": "3"}),
    ("mc-steep.json", "mc", {"mu": "1e13", "gap": "1e13", "seed": "3"}),
    # a slab fold from a start off the midpoint
    ("mc-slab-offset.json", "mc", {"mu": "2", "start": "0,0,0.5", "seed": "3"}),
    # oracle settings one at a time, and planes seen along a tilted zdir
    ("oracle-eval-y.json", "oracle", {"psi": "0.3", "m1": "-1", "m2": "2",
                                      "eval_y": "0.4"}),
    ("oracle-resolution.json", "oracle", {"example": "wedge", "count": "20",
                                          "seed": "5", "quad_points": "64",
                                          "fd_step": "1e-4"}),
    # a step so small that 5 of the 20 cases, in both blocks of the sweep,
    # are recorded as SingularSystemError
    ("oracle-sweep-singular.json", "oracle", {"example": "wedge",
                                              "count": "20", "seed": "5",
                                              "fd_step": "3e-16"}),
    ("planes-zdir.json", "planes", {"n1": "0.1,0.2,-1", "n2": "-0.6,0.3,0.8",
                                    "zdir": "0.2,-0.1,1"}),
    # parallel planes whose common normal is zdir: the fallback frame
    ("planes-normal-along-zdir.json", "planes", {"n1": "0,1,0", "n2": "0,1,0",
                                                 "zdir": "0,1,0"}),
    # tensor rows without numbers: a domain_error node (the radial origin)
    # and slope_overflow nodes beside a degenerate frame, for each z2
    ("tensor-domain-error.csv", "tensor", {"example": "radial",
                                           "resolution": "3x3"}),
    *[(f"tensor-slope-overflow-{k}.csv", "tensor", {
        "z1": "-1e200*x^2", "z2": z2, "domain": domain, "resolution": "3x2"})
      for k, (z2, domain) in enumerate([("1", "0,1,0,1"),
                                        ("1e200*x^2+1", "0,0.2,0,1")])],
    # planes so steep and so crossed that every node is within EPS_PSI of
    # |psi| = pi/2: extreme_tilt rows
    ("tensor-extreme-tilt.csv", "tensor", {"z1": "2e9*x", "z2": "2e9*y+1",
                                           "domain": "0,1,2,3",
                                           "resolution": "3x2"}),
]

# (name, command, config keys) of configs that must be refused: exit 2 or 3
# with a one-line message, printed after the hashes
REFUSED = [
    ("planes-huge-slopes", "planes", {"m1": "1e300", "m2": "-1e300"}),
    ("oracle-tilt-pi-over-2", "oracle", {"psi": "1.5707963267948966",
                                         "m1": "0", "m2": "1"}),
    # x < 0 with m1 < m2: outside the wedge, not at its apex
    ("oracle-outside", "oracle", {"psi": "0.3", "m1": "-1", "m2": "2",
                                  "eval_x": "-1"}),
    ("solve-extreme-tilt", "solve", {"z1": "1e10*x", "z2": "1e10*y+1e11",
                                     "domain": "0,1,0,1", "resolution": "4x4",
                                     "steps": "1"}),
    # walkers reach x < -0.6, where z1 is undefined
    ("mc-undefined-surface", "mc", {"z1": "log(x+0.6)-3", "z2": "2",
                                    "domain": "0,1,0,1", "particles": "50",
                                    "steps": "300", "dt": "1e-2",
                                    "seed": "1"}),
    # values that the record (or evolve) receiving them refuses: exit 2
    *[(f"oracle-{key}-0", "oracle", {"psi": "0.3", "m1": "-1", "m2": "2",
                                     key: "0"})
      for key in ("quad_points", "fd_step")],
    ("mc-particles-1", "mc", {"example": "slab", "particles": "1"}),
    ("mc-steps-0", "mc", {"example": "slab", "steps": "0"}),
    *[(f"solve-{key}-negative", "solve", {"z1": "0", "z2": "1",
                                          "domain": "0,1,0,1",
                                          "resolution": "4x4", key: value})
      for key, value in (("steps", "-1"), ("dt", "-1e-4"))],
    ("tensor-d0-0", "tensor", {"example": "radial", "resolution": "4x4",
                               "d0": "0"}),
    ("recover-channel-x1-below-x0", "recover-channel", {
        "z1": "0", "z2": "1", "x0": "1", "x1": "-1"}),
    # crossing planes, one of them vertical in the adapted frame: exit 3
    ("planes-vertical", "planes", {"n1": "1,0,0", "n2": "0,0,1"}),
    ("solve-p0-negative", "solve", {"z1": "0", "z2": "1", "domain": "0,1,0,1",
                                    "resolution": "4x4", "steps": "1",
                                    "p0": "-1"}),
    ("tensor-outside-grid-hull", "tensor", {"z1": "0", "z2_grid": "z2.grid",
                                            "domain": "0,3,0,2",
                                            "resolution": "3x3"}),
    # the size rule of Domain's node lattice and cell grid: one line for both
    *[(f"{command}-resolution-{name}", command, {
        "z1": "0", "z2": "1", "domain": "0,1,0,1", "resolution": size})
      for command in ("tensor", "solve")
      for name, size in (("1x4", "1x4"), ("1e16", "100000000x100000000"))],
]

# input files that RUNS name, written next to their configs: a 21x21
# sampled upper surface 1 + 0.1 (x + y^2) over [0, 2]^2
INPUTS = {
    "z2.grid": "# grid origin=0,0 spacing=0.1,0.1\n" + "".join(
        ",".join(repr(1 + 0.1 * (i / 10 + (j / 10) ** 2)) for j in range(21))
        + "\n" for i in range(21)),
}


def _run(cli, name, command, keys):
    """(exit code, stderr) of one config run in the current directory."""
    Path(f"{name}.cfg").write_text(
        "".join(f"{k}={v}\n" for k, v in {**keys, "out": name}.items()))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", f"{name}.cfg"])
    return code, err.getvalue()


def _write_inputs():
    for name, text in INPUTS.items():
        Path(name).write_text(text)


def run_all(cli):
    """Run RUNS in the current directory; the failures, one line each."""
    _write_inputs()
    failed = []
    for name, command, keys in RUNS:
        code, err = _run(cli, name, command, keys)
        if code != 0:
            failed.append(f"{name}: exit {code}: {err.strip()}")
    return failed


def run_refused(cli):
    """Run REFUSED in the current directory: (name, exit code, stderr) each."""
    _write_inputs()
    return [(name, *_run(cli, name, command, keys))
            for name, command, keys in REFUSED]


def numpy_line():
    """The first line of the report: the hashes depend on numpy's last bits."""
    return f"# numpy {np.__version__}"


def hash_lines(directory):
    """`sha256  name` of each output file of RUNS in directory, by name."""
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}"
            for path in sorted(Path(directory).glob("*"))
            if path.suffix != ".cfg" and path.name not in INPUTS]


def refusal_lines(refused):
    """`exit <code>  <name>: <stderr line>` of each run_refused result."""
    return [f"exit {code}  {name}: {err.strip()}" for name, code, err in refused]


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
            hashes = hash_lines(tmp)
            refused = run_refused(cli)  # after the hashes: some write records
        finally:
            os.chdir(cwd)
    print("\n".join([numpy_line(), *hashes, *refusal_lines(refused)]))
    failed += [f"{name}: exit 0, where a refusal is expected"
               for name, code, _ in refused if code == 0]
    for line in failed:
        print(f"failed: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
