"""One workload in one process: repeated passes over its effdiff commands.

Started by run.py with the thread-count pins and PYTHONPATH already in the
environment.  Writes the workload's configs into a work directory, then
runs passes until the time budget is spent.  Each pass calls
`effdiff.cli.main` once per command, times each call, checks the outputs
and compares their bytes with the first pass.  With --trace 1, passes
alternate untraced and traced; a traced pass records spans and yields the
per-layer metrics.  Prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
import spans

# Workload sizes.  "full" is the benchmark; "tiny" keeps the tests fast.
SIZES = {
    "full": {"radial": (32, 32), "solve": (128, 128, 200, 100),
             "oracle": 200, "slab": (10_000, 1_000, "1e-3"),
             "curved": (2_000, 500, "1e-2")},
    "tiny": {"radial": (12, 12), "solve": (24, 24, 4, 2),
             "oracle": 5, "slab": (2_000, 500, "4e-3"),
             "curved": (50, 20, "1e-2")},
}


def field(seed, size):
    """Radial tensor field, then the PDE solve on the waves surfaces."""
    rnx, rny = size["radial"]
    snx, sny, steps, snap_every = size["solve"]
    rng = random.Random(seed)
    a, b = rng.uniform(1.0, 5.0), rng.uniform(1.0, 5.0)
    configs = {
        "tensor.cfg": f"example=radial\nresolution={rnx}x{rny}\n"
                      f"seed={seed}\nout=radial.csv\n",
        "solve.cfg": f"example=waves\nresolution={snx}x{sny}\nsteps={steps}\n"
                     f"snap_every={snap_every}\n"
                     f"p0=1+exp(-((x-{a!r})^2+(y-{b!r})^2))\n"
                     f"seed={seed}\nout=snap\n",
    }
    commands = [("tensor", ["tensor", "--config", "tensor.cfg"]),
                ("solve", ["solve", "--config", "solve.cfg"])]

    def check(scale, extra):
        yield "tensor output", checks.check_radial_tensor("radial.csv", rnx * rny)
        problems, drift = checks.check_snapshots("snap", snx * sny,
                                                 steps // snap_every + 1)
        extra["pde.mass_drift"] = drift
        yield "solve output", problems

    return configs, commands, check


def validate(seed, size):
    """The paper's two validation routes: wedge quadrature and slab MC."""
    particles, steps, dt = size["slab"]
    configs = {
        "oracle.cfg": f"count={size['oracle']}\nseed={seed}\nout=oracle.json\n",
        "slab.cfg": f"mu=1\ngap=1\nparticles={particles}\nsteps={steps}\n"
                    f"dt={dt}\nseed={seed}\nout=slab.json\n",
    }
    commands = [("oracle", ["oracle", "--config", "oracle.cfg"]),
                ("mc", ["mc", "--config", "slab.cfg"])]

    def check(scale, extra):
        yield "oracle output", checks.check_oracle("oracle.json", size["oracle"])
        yield "slab mc output", checks.check_slab_mc("slab.json", 1.0, scale)

    return configs, commands, check


def mc_curved(seed, size):
    """Reflected Brownian motion between the curved waves surfaces."""
    particles, steps, dt = size["curved"]
    configs = {
        "curved.cfg": f"example=waves\nparticles={particles}\nsteps={steps}\n"
                      f"dt={dt}\nseed={seed}\nout=curved.json\n",
    }
    commands = [("mc", ["mc", "--config", "curved.cfg"])]

    def check(scale, extra):
        yield "curved mc output", checks.check_curved_mc("curved.json")

    return configs, commands, check


WORKLOADS = {"field": field, "validate": validate, "mc-curved": mc_curved}
COMMANDS = ("tensor", "solve", "oracle", "mc")


class Tally:
    """Operations attempted and failed: CLI calls and output checks."""

    def __init__(self):
        self.attempted = 0
        self.problems = []

    @property
    def failed(self):
        return len(self.problems)

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.problems.append(f"{what}: {'; '.join(map(str, problems))}")


def run_checks(check, scale, tally, extra):
    """Run a workload's output checks; an exception counts as a failure."""
    names = iter(check(scale, extra))
    while True:
        try:
            what, problems = next(names)
        except StopIteration:
            return
        except Exception as exc:  # a corrupt output must not stop the run
            tally.record("output check", [f"{type(exc).__name__}: {exc}"])
            return
        tally.record(what, problems)


def output_hashes(workdir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(workdir.iterdir()) if p.suffix != ".cfg"}


def clear_outputs(workdir):
    for p in workdir.iterdir():
        if p.suffix != ".cfg":
            p.unlink()


def call_cli(cli, argv, tally, label):
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except (Exception, SystemExit) as exc:
        code = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    tally.record(f"{label} command", [] if code == 0 else [f"exit {code}"])
    return elapsed


def traced_checks(summary, metrics, command_s, tally):
    """The traced pass's self times must partition its command time."""
    problems = []
    if summary["root_names"] != ["cli.main"]:
        problems.append(f"root spans {summary['root_names']}")
    parts = sum(metrics[name] for name in spans.PARTITION)
    if abs(parts - summary["root_s"]) > 1e-9 * summary["root_s"] + 1e-12:
        problems.append(f"self times sum to {parts!r}, "
                        f"root spans to {summary['root_s']!r}")
    if summary["root_s"] > command_s:
        problems.append("root spans outlast the timed commands")
    tally.record("span partition", problems)


def run(workload, seed, seconds, trace, scale, workdir, spans_path=None):
    """Run passes for about `seconds`; return the raw measurements."""
    import effdiff.cli as cli

    configs, commands, check = WORKLOADS[workload](seed, SIZES[scale])
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in configs.items():
        (workdir / name).write_text(text, encoding="utf-8")
    os.chdir(workdir)

    tracer = spans.Tracer()
    tally = Tally()
    passes = []
    extra = {}
    first_hashes = None
    first_counts = None
    started = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        traced = bool(trace) and len(passes) % 2 == 1
        run_id = f"{workload}-{seed}-{len(passes)}"
        if traced:
            tracer.begin(run_id)
            tracer.install()
        try:
            times = {label: call_cli(cli, argv, tally, label)
                     for label, argv in commands}
        finally:
            tracer.uninstall()
        record = {"traced": traced, "times": times,
                  "wall_s": sum(times.values())}
        run_checks(check, scale, tally, extra)
        hashes = output_hashes(workdir)
        if first_hashes is None:
            first_hashes = hashes
        else:
            changed = sorted(k for k in hashes.keys() | first_hashes.keys()
                             if hashes.get(k) != first_hashes.get(k))
            tally.record("outputs identical to the first pass", changed)
        clear_outputs(workdir)
        if traced:
            summary = tracer.pass_summary(run_id)
            record["layers"] = spans.layer_metrics(summary)
            traced_checks(summary, record["layers"], record["wall_s"], tally)
            counts = {k: record["layers"][k] for k in spans.EXACT_COUNTS}
            if first_counts is None:
                first_counts = counts
            else:
                tally.record("counts repeat exactly",
                             [] if counts == first_counts else [f"{counts}"])
        passes.append(record)

        now = time.perf_counter()
        if len(passes) >= 2 and (now + (now - pass_start) - started > seconds
                                 or now - started > 120):
            break

    if spans_path is not None and trace:
        tracer.write_jsonl(spans_path)

    untraced = [p for p in passes if not p["traced"]]
    result = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems[:20],
        "wall_s": [p["wall_s"] for p in untraced],
        "times": {label: [p["times"][label] for p in untraced]
                  for label, _ in commands},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "effdiff": cli.__file__,
    }
    if trace:
        result["per_layer"] = per_layer(passes, commands, extra)
    return result


def per_layer(passes, commands, extra):
    """Mean of each layer metric over the traced passes (means keep the
    self times additive), plus untraced command times and tracing cost."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    out = {}
    for name, first in traced[0]["layers"].items():
        out[name] = first if isinstance(first, int) else statistics.fmean(
            p["layers"][name] for p in traced)
    out["pde.mass_drift"] = extra.get("pde.mass_drift", 0.0)
    ran = {label for label, _ in commands}
    for label in COMMANDS:
        out[f"{label}_s"] = statistics.median(
            p["times"][label] for p in untraced) if label in ran else 0.0
    out["trace.overhead_frac"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in untraced) - 1.0)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SIZES), default="full")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.trace,
                 args.scale, args.workdir.resolve(),
                 args.spans.resolve() if args.spans else None)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
