"""Command-line interface.

Subcommands: tensor, planes, oracle, mc, solve, recover-channel.
Settings come from a flat key=value config file (--config), overridden by
command-line flags; --example loads a named built-in configuration first.
_lines reads config and grid files; _PARSERS converts the text of every
value before a command runs.  The library records (and evolve) that receive
the values check their ranges, and _PARSERS only those that no record checks.
Every output file embeds the tool version and the fully resolved config,
and repeated runs with the same config and seed are byte-identical.

Exit codes: 0 success, 2 config error, 3 numerical/degeneracy error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

import numpy as np

from . import __version__
from .brownian import BrownianError, McJob, Slab, mc_projected_tensor
from .expr import ExprError
from .geometry import (
    MAX_COUNT, DegenerateConfigError, Domain, ExpressionField, GeometryError,
    GridField, InputError, PlaneConfig, SurfacePair, frame_for_planes,
    frame_from_slopes, unit_vector,
)
from .pde import PdeError, PdeGrid, evolve
from .quadrature import OracleError, WedgeQuadratureJob, quadrature_tensor
from .tensor import (
    UNDEFINED, ExtremeTiltError, MediumParams, TensorError, channel_recovery,
    effective_tensor, extreme_tilt_tensor, polar_decompose, rho_omega,
    sample_tensor, tensor_field,
)
# Not called here; bound by name so that perfbench/spans.py can trace them
# through this module.
from .geometry import frame_from_gradients  # noqa: F401
from .pde import stability_bound  # noqa: F401


class ConfigError(InputError):
    def __init__(self, message):    # config text that does not parse
        super().__init__(None, message)


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

_TWO_PI = 2 * math.pi
_ORACLE_BLOCK = 16  # cases per array call: bounds the quadrature's arrays

EXAMPLES = {
    "radial": {
        "z1": "sin(r)-3/2", "z2": "cos(2*r)+3/2",
        "domain": "-8,8,-8,8", "resolution": "64x64",
    },
    "waves": {
        "z1": "cos(x)", "z2": "cos(y)+5/2",
        "domain": f"0,{_TWO_PI!r},0,{_TWO_PI!r}", "resolution": "64x64",
    },
    "wedge": {
        "n1": "0,0,-1", "n2": f"{-1/math.sqrt(2)!r},0,{1/math.sqrt(2)!r}",
        "psi": "0", "m1": "0", "m2": "1",
    },
    "slab": {
        "z1": "0", "z2": "1", "domain": "-1,1,-1,1", "resolution": "32x32",
        "mu": "0", "gap": "1",
    },
}

_COMMON_KEYS = {"d0", "out", "example"}
# Only tensor takes grid files (z1_grid, z2_grid): a grid-backed walk or
# solve is library-only, though mc and solve share _surface_pair.
_ALLOWED_KEYS = {
    "tensor": _COMMON_KEYS | {"z1", "z2", "z1_grid", "z2_grid", "domain",
                              "resolution", "seed"},
    "planes": _COMMON_KEYS | {"n1", "n2", "zdir", "m1", "m2", "tilt_sign"},
    "oracle": _COMMON_KEYS | {"psi", "m1", "m2", "count", "seed",
                              "quad_points", "fd_step", "eval_x", "eval_y",
                              "n1", "n2", "zdir"},
    "mc": _COMMON_KEYS | {"mu", "gap", "z1", "z2", "domain", "dt", "steps",
                          "particles", "seed", "start", "blocks"},
    "solve": _COMMON_KEYS | {"z1", "z2", "domain", "resolution", "mode",
                             "dt", "steps", "snap_every", "p0", "seed"},
    "recover-channel": _COMMON_KEYS | {"z1", "z2", "x0", "x1", "samples"},
}

_FIELDS = {"particles": "n_particles", "steps": "n_steps",
           "blocks": "jackknife_blocks", "quad_points": "points",
           "z1_grid": "z1", "z2_grid": "z2"}

# Keys that can also be set by a command-line flag; a command offers the
# flag of each key it allows.
_FLAGS = {
    "out": "output path (default: stdout / 'solve' prefix)",
    "example": "start from a named built-in configuration",
    "seed": "random seed override",
    "resolution": "grid resolution NXxNY",
    "domain": "domain rectangle x0,x1,y0,y1",
    "d0": "bulk diffusion constant",
}


def _parser(convert, accept, wanted):
    """The parser of a key: its text must convert to a value that accept()
    holds for; any other text is a ConfigError naming the key."""
    def parse(key, text):
        try:
            value = convert(text)
        except (TypeError, ValueError):     # InputError is a ValueError
            pass
        else:
            if accept(value):
                return value
        raise ConfigError(f"{key} must be {wanted}, got {text!r}")
    return parse


def _numbers(text):
    """Comma-separated finite floats; a ValueError for any other text."""
    values = tuple(map(float, text.split(",")))
    if not all(map(math.isfinite, values)):
        raise ValueError(text)
    return values


def _integer(lo, hi=MAX_COUNT):
    return _parser(int, lambda n: lo <= n <= hi, f"an integer in [{lo}, {hi}]")


def _one_of(*options):
    return _parser(str, options.__contains__, f"one of {', '.join(options)}")


def _expression(key, text):
    try:
        return ExpressionField(text)
    except ExprError as exc:
        raise ConfigError(f"bad expression for {key}: {exc}") from None


def _grid(key, text):
    return load_grid_field(text)


_number = _parser(float, lambda v: True, "a number")
_whole = _parser(int, lambda n: True, "an integer")
_finite = _parser(float, math.isfinite, "a finite number")
# coordinates whose spans and squares stay finite
_moderate = _parser(float, lambda v: abs(v) <= 1e100, "in [-1e100, 1e100]")
_vector = _parser(_numbers, lambda v: len(v) == 3, "three finite numbers x,y,z")


def _normal(key, text):
    """A vector that PlaneConfig accepts, refused even where it is unused."""
    v = _vector(key, text)
    unit_vector(key, v)
    return v


_PARSERS = {
    "d0": _number, "dt": _number, "gap": _number, "mu": _number,
    "fd_step": _number, "eval_x": _number, "eval_y": _number,
    "steps": _whole, "particles": _whole, "blocks": _whole, "quad_points": _whole,
    "x0": _moderate, "x1": _moderate, "m1": _finite, "m2": _finite,
    "psi": _parser(float, lambda v: abs(v) <= math.pi / 2,
                   "a tilt in [-pi/2, pi/2]"),
    # the oracle sweep gives the seed to numpy, which refuses one < 0
    "seed": _parser(int, lambda n: n >= 0, "an integer >= 0"),
    "count": _integer(0), "snap_every": _integer(1), "samples": _integer(1),
    "domain": _parser(lambda text: Domain(*_numbers(text)), lambda domain: True,
                      "x0,x1,y0,y1 with finite x1 - x0 > 0 and y1 - y0 > 0"),
    "resolution": _parser(lambda text: tuple(map(int, text.lower().split("x"))),
                          lambda sizes: len(sizes) == 2, "two integers NXxNY"),
    "start": _vector, "n1": _normal, "n2": _normal, "zdir": _normal,
    "z1": _expression, "z2": _expression, "p0": _expression,
    "z1_grid": _grid, "z2_grid": _grid,
    "mode": _one_of("finite", "infinite"), "tilt_sign": _one_of("+", "-"),
    "example": _one_of(*sorted(EXAMPLES)),
    "out": _parser(str, lambda p: p and "\0" not in p, "a file path"),
}


class _Settings(dict):
    """Parsed config values; reading a key that is not set is a config error."""

    def __missing__(self, key):
        raise ConfigError(f"missing required config key '{key}'")


def _lines(path, what):
    """(line number, text) of each non-empty line of the text file at path,
    stripped; a file that cannot be read is one ConfigError naming `what`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [(lineno, line.strip()) for lineno, line in enumerate(fh, 1)
                    if line.strip()]
    except (OSError, ValueError) as exc:  # not UTF-8, or a NUL in the path
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read {what}: {path!r}: {reason}") from None


def read_config_file(path):
    cfg = {}
    for lineno, line in _lines(path, "config file"):
        if line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path!r}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def resolve_config(command, args):
    """Merge defaults < example preset < config file < command-line flags,
    then parse every value with its key's entry in _PARSERS.

    Returns the merged text, which output headers embed unchanged, and the
    parsed values.
    """
    allowed = _ALLOWED_KEYS[command]
    file_cfg = read_config_file(args.config) if args.config else {}
    file_example = file_cfg.pop("example", None)
    example = file_example if args.example is None else args.example

    cfg = {"d0": "1.0"}
    if example is not None:
        # presets carry keys for several commands; keep the relevant ones.
        # An unknown name brings no preset and fails its parse below.
        preset = EXAMPLES.get(example, {})
        cfg.update({k: v for k, v in preset.items() if k in allowed})
        cfg["example"] = example
    cfg.update(file_cfg)
    for flag in _FLAGS:
        value = getattr(args, flag, None)
        if flag != "example" and value is not None:
            cfg[flag] = value

    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    return cfg, _Settings((key, _PARSERS[key](key, text))
                          for key, text in cfg.items())


def _set(opt, *keys):
    """Keyword arguments for a library type: each of `keys` that is set,
    under its field name in _FIELDS (whose errors main names by the key) or
    its own; an unset key keeps the library's default."""
    return {_FIELDS.get(key, key): opt[key] for key in keys if key in opt}


def load_grid_field(path):
    """Grid file: first line '# grid origin=<x0>,<y0> spacing=<hx>,<hy>',
    then one comma-separated row of samples per x index."""
    (_, header), *rows = _lines(path, "grid file") or [(0, "")]
    if not header.startswith("# grid"):
        raise ConfigError(f"{path!r}: missing '# grid ...' header line")
    fields = dict(part.split("=", 1) for part in header[7:].split() if "=" in part)
    try:
        origin = _numbers(fields["origin"])
        spacing = _numbers(fields["spacing"])
    except KeyError as exc:
        raise ConfigError(f"{path!r}: header lacks {exc}") from None
    except ValueError:
        raise ConfigError(f"{path!r}: origin and spacing must be finite "
                          f"numbers, got {header!r}") from None
    values = []
    for lineno, row in rows:
        try:
            samples = _numbers(row)
        except ValueError:
            raise ConfigError(f"{path!r}:{lineno}: samples must be finite "
                              f"numbers, got {row!r}") from None
        if values and len(samples) != len(values[0]):
            raise ConfigError(f"{path!r}:{lineno}: expected {len(values[0])} "
                              f"samples, got {len(samples)}")
        values.append(samples)
    try:
        return GridField(origin, spacing, np.array(values))
    except InputError as exc:    # GridField's own rules
        raise ConfigError(f"{path!r}: {exc}") from None


def _surface_pair(opt):
    """z1 and z2 over the domain; a sampled-grid file wins."""
    z1, z2 = (opt[f"{name}_grid"] if f"{name}_grid" in opt else opt[name]
              for name in ("z1", "z2"))
    return SurfacePair(z1, z2, opt["domain"])


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(value):
    return repr(float(value))


def _fmts(values):
    """_fmt of every element of an array, in C order.

    `repr` is the reference; one orjson call prints the whole array with
    the same shortest round-trip digits.  orjson spells a number in another
    way outside 1e-4 <= |v| < 1e16 (0.00001, 1e16 where repr writes 1e-05,
    1e+16) and writes nan and inf as null, so those values, zero aside, are
    masked out and printed by repr.  orjson is imported here, not at module
    level, to keep it out of the CLI's import time.
    """
    import orjson

    a = np.asarray(values, dtype=float).ravel()
    if not a.size:
        return []
    text = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)
    text = text[1:-1].decode().split(",")
    mag = np.abs(a)
    odd = np.flatnonzero(~((mag >= 1e-4) & (mag < 1e16) | (a == 0)))
    for i, v in zip(odd.tolist(), a[odd].tolist()):
        text[i] = repr(v)
    return text


def _write(path, text):
    """Write text to the file at path, or to stdout when path is None."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror}") from None


def write_csv(path, cfg, columns, rows, extra_header=()):
    # the version and config, then the table; "" gives the final newline
    _write(path, "\n".join([
        f"# effdiff {__version__}", *(f"# {k}={cfg[k]}" for k in sorted(cfg)),
        *extra_header, ",".join(columns), *map(",".join, rows), ""]))


def write_json(path, cfg, payload):
    document = {"meta": {"tool": "effdiff", "version": __version__,
                         "config": dict(sorted(cfg.items()))}}
    document.update(payload)
    _write(path, json.dumps(document, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

TENSOR_COLUMNS = ["x", "y", "w", "psi", "m1", "m2", "D11", "D12", "D21", "D22",
                  "lam1", "lam2", "f1x", "f1y", "e1x", "e1y", "e2x", "e2y",
                  "flags"]


def cmd_tensor(cfg, opt):
    """Tensor field CSV, one row per lattice node, scanlines y outer and x
    fastest.  A node without a tensor gets the flag of its kind (see
    tensor.UNDEFINED) and no tensor numbers, nor w and psi where the
    surfaces could not be read (the first kind)."""
    pair = _surface_pair(opt)
    xs, ys = pair.domain.lattice(*opt["resolution"])
    y, x = (a.ravel() for a in np.meshgrid(ys, xs, indexing="ij"))

    w, _, _, tensor, kind = tensor_field(pair, x, y, MediumParams(opt["d0"]))
    fd = tensor.frame
    fine, read = kind == 0, kind != 1
    ell = polar_decompose(tensor.coeffs[fine])
    basis = fd.basis()[fine]    # a matrix product, as to_cartesian uses

    def frame_to_global(v):
        return (basis @ v[..., None])[..., 0]

    cells = np.full((x.size, len(TENSOR_COLUMNS)), "", dtype=object)
    cells[:, 0] = _fmts(x)
    cells[:, 1] = _fmts(y)
    cells[read, 2] = _fmts(w[read])
    cells[read, 3] = _fmts(fd.psi[read])
    values = np.column_stack([
        fd.m1[fine], fd.m2[fine], tensor.coeffs[fine].reshape(-1, 4),
        ell.lambda1, ell.lambda2, frame_to_global(ell.f1),
        frame_to_global(ell.e1), frame_to_global(ell.e2)])
    cells[fine, 4:18] = np.reshape(_fmts(values), values.shape)
    cells[:, 18] = np.array(["", *(f for f, _, _ in UNDEFINED)], object)[kind]
    cells[fine & fd.degenerate_frame, 18] = "degenerate_frame"
    write_csv(opt.get("out"), cfg, TENSOR_COLUMNS, cells.tolist())
    return 0


def _normals_frame(opt):
    """The frame of the planes with normals n1 and n2, seen along zdir."""
    return frame_for_planes(
        PlaneConfig(opt["n1"], opt["n2"], **_set(opt, "zdir")))


def _plane_report(opt):
    """Two planes given by normals n1 and n2, or the extreme-tilt analysis
    of slopes m1 and m2."""
    med = MediumParams(opt["d0"])
    fr = _normals_frame(opt) if "n1" in opt or "n2" in opt else None
    m1, m2 = (fr.m1, fr.m2) if fr else (opt["m1"], opt["m2"])
    rho, omega = rho_omega(m1, m2)      # refuses the slopes before the tensor
    if fr:
        try:
            tensor = effective_tensor(frame_from_slopes(fr.psi, m1, m2), med)
        except ExtremeTiltError as exc:     # |psi| within EPS_PSI of pi/2
            raise DegenerateConfigError(str(exc), fr.psi) from None
        ell = polar_decompose(tensor)
        details = {
            "parallel": fr.parallel,
            "frame": {k: list(getattr(fr, k)) for k in ("xhat", "yhat", "zhat")},
            "ellipsoid": {"lambda1": ell.lambda1, "lambda2": ell.lambda2,
                          "f1": list(ell.f1), "f2": list(ell.f2),
                          "degenerate": ell.degenerate},
            "response_lines": {"e1": list(ell.e1), "e2": list(ell.e2)}}
    else:
        tensor, ends = extreme_tilt_tensor(m1, m2, opt.get("tilt_sign", "+"), med)
        details = {"extreme_tilt": True, "eigenvalues": [
                       0.0, med.d0 * (tensor.frame.mu * rho + omega)],
                   "segment_endpoints": [list(map(float, e)) for e in ends]}
    fd = tensor.frame
    return {"psi": fd.psi, "m1": fd.m1, "m2": fd.m2, "mu": fd.mu, "rho": rho,
            "omega": omega, "tensor_frame": tensor.coeffs.tolist(), **details}


def cmd_planes(cfg, opt):
    try:
        payload = _plane_report(opt)
    except DegenerateConfigError as exc:
        write_json(opt.get("out"), cfg, {"error": {
            "kind": "degenerate_configuration", "message": str(exc),
            "psi": exc.psi}})
        sys.stderr.write(f"error: {exc}\n")
        return 3
    write_json(opt.get("out"), cfg, payload)
    return 0


def _oracle_records(cases, med, setup):
    """Records of an (n, 3) array of cases psi, m1, m2, by one array call
    each of the closed form and the quadrature.  The quadrature's refusals
    begin with the closed form's, so a case it refuses is recorded with its
    error and the others with both tensors."""
    psi, m1, m2 = cases.T
    closed = effective_tensor(frame_from_slopes(psi, m1, m2), med).coeffs
    quad, errors = quadrature_tensor(
        WedgeQuadratureJob(psi, m1, m2, **setup), med)
    abs_err = np.abs(closed - quad).max(axis=(1, 2))
    # relative to the largest entry: a zero entry has no relative error
    rel_err = abs_err / np.abs(closed).max(axis=(1, 2))
    columns = dict(psi=psi, m1=m1, m2=m2, closed_form=closed, quadrature=quad,
                   max_abs_err=abs_err, max_rel_err=rel_err)
    rows = zip(*(c.tolist() for c in columns.values()))
    return [dict(zip(columns, row)) if exc is None else
            {**dict(zip(columns, row[:3])), "error": {
                "kind": type(exc).__name__, "message": str(exc)}}
            for row, exc in zip(rows, errors)]


def cmd_oracle(cfg, opt):
    med = MediumParams(opt["d0"])
    setup = _set(opt, "eval_x", "eval_y", "fd_step", "quad_points")
    count = opt.get("count", 0)

    if count > 0:
        rng = np.random.default_rng(opt.get("seed", 0))
        cases = rng.uniform([-1.4, -10.0, -10.0], [1.4, 10.0, 10.0],
                            size=(count, 3))
        cases[:, 1:].sort(axis=1)
        narrow = cases[:, 2] - cases[:, 1] < 0.1
        cases[narrow, 2] = cases[narrow, 1] + 0.1
    elif "psi" not in opt and "n1" in opt:
        fr = _normals_frame(opt)
        cases = np.array([(fr.psi, *sorted((fr.m1, fr.m2)))])
    else:
        cases = np.array([(opt["psi"], opt["m1"], opt["m2"])])

    records = [record for start in range(0, len(cases), _ORACLE_BLOCK)
               for record in _oracle_records(
                   cases[start:start + _ORACLE_BLOCK], med, setup)]

    n_failed = sum(1 for r in records if "error" in r)
    summary = {
        "cases": records,
        "max_abs_err": max((r["max_abs_err"] for r in records
                            if "max_abs_err" in r), default=None),
        "n_cases": len(records),
        "n_failed": n_failed,
    }
    write_json(opt.get("out"), cfg, summary)
    if n_failed and count == 0:
        sys.stderr.write(f"error: {records[0]['error']['message']}\n")
        return 3
    return 0


def cmd_mc(cfg, opt):
    slab = _set(opt, "mu", "gap")
    surfaces = not slab and ("z1" in opt or "z2" in opt)
    geometry = _surface_pair(opt) if surfaces else Slab(**slab)
    job = McJob(geometry, d0=opt["d0"], **_set(
        opt, "dt", "seed", "start", "particles", "steps", "blocks"))
    result = mc_projected_tensor(job)
    write_json(opt.get("out"), cfg, {
        "mode": "surfaces (report only)" if surfaces else "slab",
        "estimate": result.estimate.tolist(),
        "stderr": result.stderr.tolist(),
        "total_time": result.total_time,
        "seed": job.seed,
        "start": list(job.start),
        "diagnostics": {
            "double_cross_fraction": result.double_cross_fraction,
            "rejected_steps": result.rejected_steps,
            "max_overshoot": result.max_overshoot,
        },
    })
    return 0


def cmd_solve(cfg, opt):
    p0 = opt["p0"].value_array if "p0" in opt else None
    grid = PdeGrid.from_surfaces(_surface_pair(opt), MediumParams(opt["d0"]),
                                 *opt["resolution"], p0=p0)
    steps = opt.get("steps", 100)
    snap_every = opt.get("snap_every", max(1, steps // 4))
    prefix = opt.get("out", "solve")

    written = []
    # rows in scanline order (y outer, x fastest); x, y and w never change
    fixed = [f"{x},{y},{w}" for (y, x), w in zip(
        itertools.product(_fmts(grid.yc), _fmts(grid.xc)), _fmts(grid.w.T))]

    def snapshot(step, g):
        if step % snap_every and step != steps:
            return
        path = f"{prefix}_{step:06d}.csv"
        write_csv(path, cfg, ["x", "y", "w", "p"], zip(fixed, _fmts(g.p.T)),
                  extra_header=[f"# step={step}", f"# time={_fmt(g.t)}"])
        written.append(path)

    # no dt: evolve takes half the stability bound; it calls snapshot(0, grid)
    # only once it has checked the step, so a refused run writes no file
    evolve(grid, opt.get("dt"), steps, callback=snapshot, **_set(opt, "mode"))
    sys.stderr.write(f"wrote {len(written)} snapshots: "
                     f"{written[0]} .. {written[-1]}\n")
    return 0


def cmd_recover_channel(cfg, opt):
    med = MediumParams(opt["d0"])
    x0, x1 = opt.get("x0", 0.0), opt.get("x1", _TWO_PI)
    pair = SurfacePair(opt["z1"], opt["z2"], Domain(x0, x1, -1.0, 1.0))

    x = np.linspace(x0, x1, opt.get("samples", 100))
    _, g1, g2, tensor = sample_tensor(pair, x, np.zeros_like(x), med)
    pipeline = tensor.coeffs
    formula = channel_recovery(g1[0], g2[0], med)
    err = np.abs(pipeline - formula).max(axis=(-2, -1))
    columns = [x, g1[0], g2[0], *pipeline.reshape(-1, 4).T, formula[:, 0, 0], err]
    rows = zip(*map(_fmts, columns))
    write_csv(opt.get("out"), cfg,
              ["x", "z1p", "z2p", "D11_surface", "D12_surface", "D21_surface",
               "D22_surface", "D11_channel", "max_abs_err"], rows,
              extra_header=[f"# worst_abs_err={_fmt(max(0.0, err.max()))}"])
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "tensor": (cmd_tensor, "evaluate the tensor field of a surface pair (CSV)"),
    "planes": (cmd_planes, "analyse a single two-plane configuration (JSON)"),
    "oracle": (cmd_oracle, "compare closed form vs quadrature on wedges (JSON)"),
    "mc": (cmd_mc, "reflected Brownian motion estimate (JSON)"),
    "solve": (cmd_solve, "run the projected diffusion solver (CSV snapshots)"),
    "recover-channel": (cmd_recover_channel,
                        "planar channel comparison along x (CSV)"),
}


class _ArgumentParser(argparse.ArgumentParser):
    """argparse whose own errors are config errors: one line, exit 2."""

    def error(self, message):
        raise ConfigError(message)


def build_parser(command=None):
    """The parser of every command, or of `command` alone when it names one
    (as main builds it: the flags of the other five are not needed)."""
    parser = _ArgumentParser(
        prog="effdiff",
        description="Effective diffusion tensors for confined 3-D diffusion "
                    "projected onto the plane.")
    parser.add_argument("--version", action="version",
                        version=f"effdiff {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command in _COMMANDS else _COMMANDS:
        p = sub.add_parser(name, help=_COMMANDS[name][1])
        p.add_argument("--config", help="flat key=value config file")
        for flag, flag_help in _FLAGS.items():
            if flag in _ALLOWED_KEYS[name]:
                p.add_argument(f"--{flag}", help=flag_help)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        cfg, opt = resolve_config(args.command, args)
        return _COMMANDS[args.command][0](cfg, opt)
    except InputError as exc:   # text that does not parse, or a record's refusal
        key = {f: k for k, f in _FIELDS.items()}.get(exc.field)
        sys.stderr.write(f"config error: {f'{key} {exc.rule}' if key else exc}\n")
        return 2
    except (GeometryError, TensorError, OracleError, BrownianError, PdeError,
            ExprError, MemoryError) as exc:  # numpy: "Unable to allocate ..."
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
