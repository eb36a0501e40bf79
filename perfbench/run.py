"""effdiff benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload field --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory, so nothing needs installing.  The workloads and the
metrics are described in perfbench/README.md.

Steps: record the environment, time a fresh interpreter importing
`effdiff.cli` several times (setup_s), then run the workload in one worker
process (worker.py) with BLAS/OpenMP threads pinned to one.  Prints a
readable report, then, as the last line, one JSON object: end-to-end
metrics with --trace 0, per-layer metrics with --trace 1.  Exits 2, printing no result, when the checkout has no effdiff
source; exits 1 when the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = {"full": 9, "tiny": 3}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
TIMEOUT_S = 170


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("EFFDIFF_NUMBA", None)  # measure the default code path
    for var in THREAD_VARS:
        env[var] = "1"  # single-threaded: one core, no BLAS thread handoffs
    return env


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def environment(env):
    """Machine and software facts the numbers depend on."""
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "unknown")
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else ():
        level = _read(index / "level").strip()
        kind = _read(index / "type").strip()
        caches[f"L{level} {kind}"] = _read(index / "size").strip()
    probe = subprocess.run(
        [sys.executable, "-c", "import importlib.util, numpy; "
         "print(numpy.__version__, importlib.util.find_spec('numba') is not None)"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    numpy_version, numba = probe.stdout.split()
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model, "caches": caches,
            "python": sys.version.split()[0], "numpy": numpy_version,
            "numba_importable": numba == "True",
            "threads": {var: env[var] for var in THREAD_VARS},
            "EFFDIFF_NUMBA": env.get("EFFDIFF_NUMBA", "unset")}


def setup_time(env):
    """Seconds from starting a fresh interpreter until effdiff.cli is
    imported; both clocks are CLOCK_MONOTONIC."""
    code = ("import effdiff.cli, time; "
            "print(time.monotonic(), effdiff.cli.__file__)")
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"importing effdiff.cli failed:\n{proc.stderr}")
    stamp, path = proc.stdout.split(maxsplit=1)
    if not Path(path.strip()).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"effdiff.cli came from {path.strip()}, not {ROOT / 'src'}")
    return float(stamp) - t0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=sorted(SETUP_REPEATS), default="full",
                        help="workload size; 'tiny' is for the tests")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # worker before re-raising.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "effdiff" / "__init__.py").is_file():
        sys.stderr.write(f"no effdiff source under {ROOT / 'src'}; run from "
                         f"the root of a full checkout\n")
        return 2

    started = time.monotonic()
    env = child_env()
    try:
        env_record = environment(env)
        setups = [setup_time(env) for _ in range(SETUP_REPEATS[args.scale])]
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        sys.stderr.write(f"setup failed: {exc}\n")
        return 1

    tag = f"{args.workload}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--workdir", str(OUT / f"work-{tag}")]
    if args.trace:
        cmd += ["--spans", str(OUT / f"spans-{args.workload}.jsonl")]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True,
                              timeout=TIMEOUT_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        sys.stderr.write("worker timed out\n")
        return 1
    finally:
        work = OUT / f"work-{tag}"
        if work.is_dir():
            for p in work.iterdir():
                p.unlink()
            work.rmdir()
    if proc.returncode != 0:
        sys.stderr.write(f"worker failed ({proc.returncode}):\n{proc.stderr}")
        return 1
    res = json.loads(proc.stdout.splitlines()[-1])

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} scale={args.scale}")
    print(f"environment {json.dumps(env_record, sort_keys=True)}")
    print(f"effdiff imported from {res['effdiff']}")
    for problem in res["problems"]:
        print(f"FAILED {problem}")
    failed_frac = res["failed"] / res["attempted"]
    print(f"operations: {res['attempted']} attempted, {res['failed']} failed "
          f"(failed_frac {failed_frac:.6g} of 1)")

    samples = dict(res["times"], wall=res["wall_s"], setup=setups)
    for label, v in samples.items():
        q1, q3 = quartiles(v)
        print(f"  {label + '_s':<12} {statistics.median(v):10.4f} s  median of "
              f"{len(v)}; quartiles {q1:.4f} .. {q3:.4f}, fastest {min(v):.4f}")
    print(f"  {'peak_rss_mb':<12} {res['peak_rss_mb']:10.1f} MB")
    for label in ("wall", "setup"):
        print(f"{label} times (s): {' '.join(f'{v:.4f}' for v in samples[label])}")

    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        values = res["per_layer"]
        for name, unit in units.items():
            print(f"  {name:<40} {values[name]:16.6g} {unit}")
    else:
        values = {"wall_s": statistics.median(res["wall_s"]),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": res["peak_rss_mb"]}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
