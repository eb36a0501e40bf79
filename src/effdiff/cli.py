"""Command-line interface.

Subcommands: tensor, planes, oracle, mc, solve, recover-channel.
Settings come from a flat key=value config file (--config), overridden by
command-line flags; --example loads a named built-in configuration first.
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
    DegenerateConfigError, Domain, GeometryError, GridField, PlaneConfig,
    ScalarField, SurfacePair, frame_field, frame_for_planes, frame_from_slopes,
)
from .pde import PdeError, PdeGrid, evolve
from .quadrature import OracleError, WedgeQuadratureJob, quadrature_tensor
from .tensor import (
    ExtremeTiltError, MediumParams, TensorError, channel_recovery,
    effective_tensor, extreme_tilt_tensor, polar_decompose, rho_omega,
    sample_tensor,
)
# Not called here; bound by name so that perfbench/spans.py can trace them
# through this module.
from .geometry import frame_from_gradients  # noqa: F401
from .pde import stability_bound  # noqa: F401


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def _parse_floats(text, n, key):
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != n:
        raise ConfigError(f"{key} needs {n} comma-separated values, got '{text}'")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad number in {key}: {exc}") from None


def _parse_resolution(text):
    parts = str(text).lower().split("x")
    if len(parts) != 2:
        raise ConfigError(f"resolution must look like 64x64, got '{text}'")
    try:
        nx, ny = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"resolution must look like 64x64, got '{text}'") from None
    if nx < 2 or ny < 2:
        raise ConfigError("resolution must be at least 2x2")
    return nx, ny


_TWO_PI = 2 * math.pi

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

_COMMON_KEYS = {"d0", "out", "example", "seed"}
_ALLOWED_KEYS = {
    "tensor": _COMMON_KEYS | {"z1", "z2", "z1_grid", "z2_grid", "domain",
                              "resolution"},
    "planes": _COMMON_KEYS | {"n1", "n2", "zdir", "m1", "m2", "tilt_sign",
                              "psi"},
    "oracle": _COMMON_KEYS | {"psi", "m1", "m2", "count", "seed",
                              "quad_points", "fd_step", "eval_x", "eval_y",
                              "n1", "n2", "zdir"},
    "mc": _COMMON_KEYS | {"mu", "gap", "z1", "z2", "domain", "dt", "steps",
                          "particles", "seed", "start", "blocks",
                          "resolution"},
    "solve": _COMMON_KEYS | {"z1", "z2", "domain", "resolution", "mode",
                             "dt", "steps", "snap_every", "p0", "seed"},
    "recover-channel": _COMMON_KEYS | {"z1", "z2", "x0", "x1", "samples",
                                       "domain", "resolution"},
}


def read_config_file(path):
    cfg = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, value = line.split("=", 1)
                cfg[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    return cfg


def resolve_config(command, args):
    """Merge defaults < example preset < config file < command-line flags."""
    allowed = _ALLOWED_KEYS[command]
    file_cfg = read_config_file(args.config) if args.config else {}
    example = args.example or file_cfg.pop("example", None)

    cfg = {"d0": "1.0"}
    if example:
        if example not in EXAMPLES:
            raise ConfigError(f"unknown example '{example}'; "
                              f"choose from {sorted(EXAMPLES)}")
        # presets carry keys for several commands; keep the relevant ones
        cfg.update({k: v for k, v in EXAMPLES[example].items() if k in allowed})
        cfg["example"] = example
    cfg.update(file_cfg)
    for flag in ("out", "seed", "resolution", "domain", "d0"):
        value = getattr(args, flag, None)
        if value is not None:
            cfg[flag] = str(value)

    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    return cfg


def _need(cfg, key):
    if key not in cfg:
        raise ConfigError(f"missing required config key '{key}'")
    return cfg[key]


def _get_float(cfg, key, default=None, positive=False):
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required config key '{key}'")
        return default
    try:
        value = float(cfg[key])
    except ValueError:
        raise ConfigError(f"{key} must be a number, got '{cfg[key]}'") from None
    if positive and not (value > 0 and math.isfinite(value)):
        raise ConfigError(f"{key} must be positive and finite, got '{cfg[key]}'")
    return value


def _get_int(cfg, key, default=None, minimum=None):
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required config key '{key}'")
        return default
    try:
        value = int(cfg[key])
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got '{cfg[key]}'") from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key} must be at least {minimum}, got {value}")
    return value


def load_grid_field(path):
    """Grid file: first line '# grid origin=<x0>,<y0> spacing=<hx>,<hy>',
    then one comma-separated row of samples per x index."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            rows = [(lineno, line.strip()) for lineno, line in enumerate(fh, 2)
                    if line.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read grid file: {exc}") from None
    if not header.startswith("# grid"):
        raise ConfigError(f"{path}: missing '# grid ...' header line")
    fields = dict(part.split("=", 1) for part in header[7:].split() if "=" in part)
    try:
        origin = _parse_floats(fields["origin"], 2, "origin")
        spacing = _parse_floats(fields["spacing"], 2, "spacing")
    except KeyError as exc:
        raise ConfigError(f"{path}: header lacks {exc}") from None
    if not all(map(math.isfinite, origin)):
        raise ConfigError(f"{path}: origin must be finite, got {fields['origin']}")
    if not all(h > 0 and math.isfinite(h) for h in spacing):
        raise ConfigError(f"{path}: spacing must be positive and finite, "
                          f"got {fields['spacing']}")
    values = []
    for lineno, row in rows:
        try:
            samples = [float(v) for v in row.split(",")]
            if not all(map(math.isfinite, samples)):
                raise ValueError
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: samples must be finite "
                              f"numbers, got '{row}'") from None
        if values and len(samples) != len(values[0]):
            raise ConfigError(f"{path}:{lineno}: expected {len(values[0])} "
                              f"samples, got {len(samples)}")
        values.append(samples)
    if len(values) < 3 or len(values[0]) < 3:
        raise ConfigError(f"{path}: needs at least 3 rows of at least 3 "
                          f"samples, got {len(values)} rows")
    return GridField(origin, spacing, np.array(values))


def _surface_field(cfg, name):
    grid_key = f"{name}_grid"
    if grid_key in cfg:
        return load_grid_field(cfg[grid_key])
    try:
        return ScalarField.from_expression(_need(cfg, name))
    except ExprError as exc:
        raise ConfigError(f"bad expression for {name}: {exc}") from None


def _surface_pair(cfg):
    domain = _parse_floats(_need(cfg, "domain"), 4, "domain")
    return SurfacePair(_surface_field(cfg, "z1"), _surface_field(cfg, "z2"),
                       Domain(*domain))


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(value):
    return repr(float(value))


def _fmts(values):
    """_fmt of every element of an array, in C order."""
    return list(map(repr, np.asarray(values, dtype=float).ravel().tolist()))


def _header_lines(cfg):
    lines = [f"# effdiff {__version__}"]
    for key in sorted(cfg):
        lines.append(f"# {key}={cfg[key]}")
    return lines


def write_csv(path, cfg, columns, rows, extra_header=()):
    out = _header_lines(cfg) + list(extra_header)
    out.append(",".join(columns))
    out.extend(map(",".join, rows))
    out.append("")  # the final newline, without copying the text again
    text = "\n".join(out)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def write_json(path, cfg, payload):
    document = {"meta": {"tool": "effdiff", "version": __version__,
                         "config": dict(sorted(cfg.items()))}}
    document.update(payload)
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _matrix(m):
    return [[float(m[0, 0]), float(m[0, 1])], [float(m[1, 0]), float(m[1, 1])]]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

TENSOR_COLUMNS = ["x", "y", "w", "psi", "m1", "m2", "D11", "D12", "D21", "D22",
                  "lam1", "lam2", "f1x", "f1y", "e1x", "e1y", "e2x", "e2y",
                  "flags"]


def cmd_tensor(cfg):
    """Tensor field CSV, one row per lattice node, scanlines y outer and x
    fastest.  A node where the width or a gradient is undefined (see
    SurfacePair.sample) gets the domain_error flag and no numbers; a node
    with an undefined tensor gets w and psi and the extreme_tilt flag."""
    pair = _surface_pair(cfg)
    med = MediumParams(_get_float(cfg, "d0", positive=True))
    nx, ny = _parse_resolution(_need(cfg, "resolution"))
    xs, ys = pair.domain.lattice(nx, ny)
    y, x = (a.ravel() for a in np.meshgrid(ys, xs, indexing="ij"))

    w, g1, g2, bad = pair.sample(x, y)
    rows = np.flatnonzero(~bad)
    fd = frame_field(w[rows], tuple(c[rows] for c in g1),
                     tuple(c[rows] for c in g2))
    tensor = effective_tensor(fd, med)
    fine = ~tensor.extreme_tilt
    ell = polar_decompose(tensor.coeffs[fine])
    # B = [xhat yhat] as columns; a matrix product, as to_cartesian uses
    basis = np.stack([np.stack(fd.xhat, -1), np.stack(fd.yhat, -1)], -1)[fine]

    def frame_to_global(v):
        return (basis @ v[..., None])[..., 0]

    cells = np.full((x.size, len(TENSOR_COLUMNS)), "", dtype=object)
    cells[:, 0] = _fmts(x)
    cells[:, 1] = _fmts(y)
    cells[rows, 2] = _fmts(w[rows])
    cells[rows, 3] = _fmts(fd.psi)
    values = np.column_stack([
        fd.m1[fine], fd.m2[fine], tensor.coeffs[fine].reshape(-1, 4),
        ell.lambda1, ell.lambda2, frame_to_global(ell.f1),
        frame_to_global(ell.e1), frame_to_global(ell.e2)])
    cells[rows[fine], 4:18] = np.reshape(_fmts(values), values.shape)
    cells[rows, 18] = np.where(
        fd.degenerate_frame, "degenerate_frame",
        np.where(tensor.extreme_tilt, "extreme_tilt", ""))
    cells[bad, 18] = "domain_error"
    write_csv(cfg.get("out"), cfg, TENSOR_COLUMNS, cells.tolist())
    return 0


def _plane_report(cfg):
    med = MediumParams(_get_float(cfg, "d0", positive=True))
    if "n1" in cfg or "n2" in cfg:
        n1 = _parse_floats(_need(cfg, "n1"), 3, "n1")
        n2 = _parse_floats(_need(cfg, "n2"), 3, "n2")
        zdir = _parse_floats(cfg.get("zdir", "0,0,1"), 3, "zdir")
        plane_cfg = PlaneConfig(np.array(n1), np.array(n2), np.array(zdir))
        fr = frame_for_planes(plane_cfg)
        rho, omega = rho_omega(fr.m1, fr.m2)
        tensor = effective_tensor(frame_from_slopes(fr.psi, fr.m1, fr.m2), med)
        ell = polar_decompose(tensor)
        return {
            "psi": fr.psi, "m1": fr.m1, "m2": fr.m2,
            "mu": 0.5 * (fr.m1 + fr.m2), "rho": rho, "omega": omega,
            "parallel": fr.parallel,
            "frame": {"xhat": list(fr.xhat), "yhat": list(fr.yhat),
                      "zhat": list(fr.zhat)},
            "tensor_frame": _matrix(tensor.coeffs),
            "ellipsoid": {
                "lambda1": ell.lambda1, "lambda2": ell.lambda2,
                "f1": list(ell.f1), "f2": list(ell.f2),
                "degenerate": ell.degenerate,
            },
            "response_lines": {"e1": list(ell.e1), "e2": list(ell.e2)},
        }
    # explicit extreme-tilt analysis from the slopes
    m1 = _get_float(cfg, "m1")
    m2 = _get_float(cfg, "m2")
    sign = cfg.get("tilt_sign", "+")
    tensor, endpoints = extreme_tilt_tensor(m1, m2, sign, med)
    rho, omega = rho_omega(m1, m2)
    return {
        "psi": tensor.psi, "m1": m1, "m2": m2, "mu": 0.5 * (m1 + m2),
        "rho": rho, "omega": omega, "extreme_tilt": True,
        "tensor_frame": _matrix(tensor.coeffs),
        "eigenvalues": [0.0, med.d0 * (0.5 * (m1 + m2) * rho + omega)],
        "segment_endpoints": [list(map(float, endpoints[0])),
                              list(map(float, endpoints[1]))],
    }


def cmd_planes(cfg):
    try:
        payload = _plane_report(cfg)
    except (DegenerateConfigError, ExtremeTiltError) as exc:
        write_json(cfg.get("out"), cfg, {"error": {
            "kind": "degenerate_configuration", "message": str(exc),
            "psi": getattr(exc, "psi", None)}})
        return 3
    write_json(cfg.get("out"), cfg, payload)
    return 0


def _oracle_case(psi, m1, m2, med, points, fd_step, eval_point):
    closed = effective_tensor(frame_from_slopes(psi, m1, m2), med).coeffs
    quad = quadrature_tensor(
        WedgeQuadratureJob(psi, m1, m2, eval_point=eval_point, points=points,
                           fd_step=fd_step), med)
    abs_err = np.abs(closed - quad)
    denom = np.maximum(np.abs(closed), 1e-300)
    return {
        "psi": psi, "m1": m1, "m2": m2,
        "closed_form": _matrix(closed), "quadrature": _matrix(quad),
        "max_abs_err": float(abs_err.max()),
        "max_rel_err": float((abs_err / denom).max()),
    }


def cmd_oracle(cfg):
    med = MediumParams(_get_float(cfg, "d0", positive=True))
    points = _get_int(cfg, "quad_points", 128, minimum=1)
    fd_step = _get_float(cfg, "fd_step", 1e-5, positive=True)
    eval_point = (_get_float(cfg, "eval_x", 1.0), _get_float(cfg, "eval_y", 0.0))
    count = _get_int(cfg, "count", 0)

    cases = []
    failed = False
    if count > 0:
        rng = np.random.default_rng(_get_int(cfg, "seed", 0))
        for _ in range(count):
            psi = float(rng.uniform(-1.4, 1.4))
            m1, m2 = np.sort(rng.uniform(-10.0, 10.0, size=2))
            if m2 - m1 < 0.1:
                m2 = m1 + 0.1
            cases.append((psi, float(m1), float(m2)))
    elif "psi" not in cfg and "n1" in cfg:
        fr = frame_for_planes(PlaneConfig(
            np.array(_parse_floats(_need(cfg, "n1"), 3, "n1")),
            np.array(_parse_floats(_need(cfg, "n2"), 3, "n2")),
            np.array(_parse_floats(cfg.get("zdir", "0,0,1"), 3, "zdir"))))
        cases.append((fr.psi, *sorted((fr.m1, fr.m2))))
    else:
        cases.append((_get_float(cfg, "psi"), _get_float(cfg, "m1"),
                      _get_float(cfg, "m2")))

    records = []
    for psi, m1, m2 in cases:
        try:
            records.append(_oracle_case(psi, m1, m2, med, points, fd_step,
                                        eval_point))
        except (OracleError, TensorError, ExtremeTiltError) as exc:
            failed = True
            records.append({"psi": psi, "m1": m1, "m2": m2, "error": {
                "kind": type(exc).__name__, "message": str(exc)}})

    summary = {
        "cases": records,
        "max_abs_err": max((r["max_abs_err"] for r in records
                            if "max_abs_err" in r), default=None),
        "n_cases": len(records),
        "n_failed": sum(1 for r in records if "error" in r),
    }
    write_json(cfg.get("out"), cfg, summary)
    return 3 if failed and count == 0 else 0


def cmd_mc(cfg):
    d0 = _get_float(cfg, "d0", positive=True)
    dt = _get_float(cfg, "dt", 1e-3, positive=True)
    steps = _get_int(cfg, "steps", 1000, minimum=1)
    particles = _get_int(cfg, "particles", 10000, minimum=2)
    seed = _get_int(cfg, "seed", 0)
    blocks = _get_int(cfg, "blocks", 25, minimum=2)
    if blocks > particles:
        raise ConfigError(f"blocks must not exceed particles ({particles}), "
                          f"got {blocks}")

    if ("z1" in cfg or "z2" in cfg) and "mu" not in cfg and "gap" not in cfg:
        pair = _surface_pair(cfg)
        cx = 0.5 * (pair.domain.x0 + pair.domain.x1)
        cy = 0.5 * (pair.domain.y0 + pair.domain.y1)
        cz = 0.5 * (pair.z1.value((cx, cy)) + pair.z2.value((cx, cy)))
        start = _parse_floats(cfg["start"], 3, "start") if "start" in cfg \
            else (cx, cy, cz)
        geometry = pair
        mode = "surfaces (report only)"
    else:
        mu = _get_float(cfg, "mu", 0.0)
        if not math.isfinite(mu):
            raise ConfigError(f"mu must be finite, got '{cfg['mu']}'")
        gap = _get_float(cfg, "gap", 1.0, positive=True)
        slab = Slab.from_slope(mu, gap)
        start = _parse_floats(cfg["start"], 3, "start") if "start" in cfg \
            else tuple(slab.midpoint_start())
        geometry = slab
        mode = "slab"

    job = McJob(geometry, d0=d0, dt=dt, n_particles=particles, n_steps=steps,
                seed=seed, start=start, jackknife_blocks=blocks)
    result = mc_projected_tensor(job)
    write_json(cfg.get("out"), cfg, {
        "mode": mode,
        "estimate": _matrix(result.estimate),
        "stderr": _matrix(result.stderr),
        "total_time": result.total_time,
        "seed": seed,
        "start": list(map(float, start)),
        "diagnostics": {
            "double_cross_fraction": result.double_cross_fraction,
            "rejected_steps": result.rejected_steps,
            "max_overshoot": result.max_overshoot,
        },
    })
    return 0


def cmd_solve(cfg):
    med = MediumParams(_get_float(cfg, "d0", positive=True))
    nx, ny = _parse_resolution(_need(cfg, "resolution"))
    mode = cfg.get("mode", "finite")
    if mode not in ("finite", "infinite"):
        raise ConfigError(f"mode must be finite or infinite, got '{mode}'")
    pair = _surface_pair(cfg)

    p0 = None
    if "p0" in cfg:
        try:
            field = ScalarField.from_expression(cfg["p0"])
        except ExprError as exc:
            raise ConfigError(f"bad expression for p0: {exc}") from None
        p0 = lambda x, y: field.value_array(x, y)  # noqa: E731

    grid = PdeGrid.from_surfaces(pair, med, nx, ny, p0=p0)
    # no dt: evolve takes half the stability bound
    dt = _get_float(cfg, "dt", positive=True) if "dt" in cfg else None
    steps = _get_int(cfg, "steps", 100, minimum=0)
    snap_every = _get_int(cfg, "snap_every", max(1, steps // 4), minimum=1)
    prefix = cfg.get("out", "solve")

    written = []
    # rows in scanline order (y outer, x fastest); x, y and w never change
    fixed = [f"{x},{y},{w}" for (y, x), w in zip(
        itertools.product(_fmts(grid.yc), _fmts(grid.xc)), _fmts(grid.w.T))]

    def snapshot(step, g):
        path = f"{prefix}_{step:06d}.csv"
        write_csv(path, cfg, ["x", "y", "w", "p"], zip(fixed, _fmts(g.p.T)),
                  extra_header=[f"# step={step}", f"# time={_fmt(g.t)}"])
        written.append(path)

    snapshot(0, grid)

    def callback(k, g):
        if k % snap_every == 0 or k == steps:
            snapshot(k, g)

    evolve(grid, dt, steps, mode=mode, callback=callback)
    sys.stderr.write(f"wrote {len(written)} snapshots: "
                     f"{written[0]} .. {written[-1]}\n")
    return 0


def cmd_recover_channel(cfg):
    med = MediumParams(_get_float(cfg, "d0", positive=True))
    x0 = _get_float(cfg, "x0", 0.0)
    x1 = _get_float(cfg, "x1", _TWO_PI)
    if not (math.isfinite(x0) and math.isfinite(x1) and x1 > x0):
        raise ConfigError(f"x0 and x1 must be finite with x1 > x0, "
                          f"got {x0!r} and {x1!r}")
    samples = _get_int(cfg, "samples", 100, minimum=1)
    z1 = _surface_field(cfg, "z1")
    z2 = _surface_field(cfg, "z2")
    margin = 0.05 * (x1 - x0)
    pair = SurfacePair(z1, z2, Domain(x0 - margin, x1 + margin, -1.0, 1.0))

    x = np.linspace(x0, x1, samples)
    _, g1, g2, tensor = sample_tensor(pair, x, np.zeros_like(x), med)
    pipeline = tensor.coeffs
    formula = channel_recovery(z1, z2, x, med)
    err = np.abs(pipeline - formula).max(axis=(-2, -1))
    columns = [x, g1[0], g2[0], *pipeline.reshape(-1, 4).T, formula[:, 0, 0], err]
    rows = zip(*map(_fmts, columns))
    write_csv(cfg.get("out"), cfg,
              ["x", "z1p", "z2p", "D11_surface", "D12_surface", "D21_surface",
               "D22_surface", "D11_channel", "max_abs_err"], rows,
              extra_header=[f"# worst_abs_err={_fmt(max(0.0, err.max()))}"])
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "tensor": cmd_tensor,
    "planes": cmd_planes,
    "oracle": cmd_oracle,
    "mc": cmd_mc,
    "solve": cmd_solve,
    "recover-channel": cmd_recover_channel,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="effdiff",
        description="Effective diffusion tensors for confined 3-D diffusion "
                    "projected onto the plane.")
    parser.add_argument("--version", action="version",
                        version=f"effdiff {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("tensor", "evaluate the tensor field of a surface pair (CSV)"),
            ("planes", "analyse a single two-plane configuration (JSON)"),
            ("oracle", "compare closed form vs quadrature on wedges (JSON)"),
            ("mc", "reflected Brownian motion estimate (JSON)"),
            ("solve", "run the projected diffusion solver (CSV snapshots)"),
            ("recover-channel", "planar channel comparison along x (CSV)")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", help="output path (default: stdout / 'solve' prefix)")
        p.add_argument("--example", choices=sorted(EXAMPLES),
                       help="start from a named built-in configuration")
        p.add_argument("--seed", type=int, help="random seed override")
        p.add_argument("--resolution", help="grid resolution NXxNY")
        p.add_argument("--domain", help="domain rectangle x0,x1,y0,y1")
        p.add_argument("--d0", type=float, help="bulk diffusion constant")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args.command, args)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except (GeometryError, TensorError, OracleError, BrownianError, PdeError,
            ExprError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
