"""Output checks against references that do not go through effdiff.

Each check reads the files a command wrote and compares them with values
computed here from the standard library alone.  A check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import glob
import json
import math

# Fixed bounds on |D_xx - 1/(1+mu^2)| and |D_yy - 1| for the slab Monte
# Carlo, per scale.  At full scale (10 000 walkers x 1 000 steps, dt = 1e-3)
# the jackknife errors are about 0.0065 on D_xx and 0.014 on D_yy, and the
# step-size bias of D_xx is about +0.01: both bounds sit more than 4
# standard errors out, so no seed should fail a correct program.
SLAB_BOUNDS = {"full": (0.04, 0.06), "tiny": (0.15, 0.25)}


def _data_rows(path):
    """Header-free rows of an effdiff CSV: '#' lines, then a column line."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    reader = csv.reader(lines)
    columns = next(reader)
    return columns, list(reader)


def _radial_d11(x, y):
    """(atan f2' - atan f1')/(f2' - f1') with f1' = cos r, f2' = -2 sin 2r.

    Below |f2' - f1'| = 1e-4 the divided difference is replaced by its
    Taylor series about the midpoint, to avoid cancellation.
    """
    r = math.hypot(x, y)
    a, b = math.cos(r), -2.0 * math.sin(2.0 * r)
    d = b - a
    if abs(d) > 1e-4:
        return (math.atan(b) - math.atan(a)) / d
    m = 0.5 * (a + b)
    q = 1.0 + m * m
    return 1.0 / q + (6.0 * m * m - 2.0) / q ** 3 * d * d / 24.0


def check_radial_tensor(path, n_rows):
    """Criterion 4 on the radial example's tensor CSV."""
    columns, rows = _data_rows(path)
    if len(rows) != n_rows:
        return [f"{path}: {len(rows)} rows, want {n_rows}"]
    col = {name: k for k, name in enumerate(columns)}
    problems = []
    for row in rows:
        where = f"{path} at ({row[col['x']]}, {row[col['y']]})"
        if row[col["flags"]]:
            problems.append(f"{where}: flag {row[col['flags']]}")
            continue
        x, y = float(row[col["x"]]), float(row[col["y"]])
        d12, d21 = float(row[col["D12"]]), float(row[col["D21"]])
        if not (abs(d12) <= 1e-12 and abs(d21) <= 1e-12):
            problems.append(f"{where}: off-diagonal {d12!r}, {d21!r}")
        if float(row[col["D22"]]) != 1.0:
            problems.append(f"{where}: D22 = {row[col['D22']]}")
        if not abs(float(row[col["psi"]])) <= 1e-10:
            problems.append(f"{where}: psi = {row[col['psi']]}")
        err = abs(float(row[col["D11"]]) - _radial_d11(x, y))
        if not err <= 1e-10:
            problems.append(f"{where}: D11 off by {err:.3g}")
    return problems[:5]


def check_snapshots(prefix, n_cells, n_snapshots):
    """Criterion 9 on the solver's snapshots: count, finite p, mass drift.

    Returns (problems, relative mass drift between first and last)."""
    paths = sorted(glob.glob(f"{prefix}_*.csv"))
    if len(paths) != n_snapshots:
        return [f"{len(paths)} snapshots, want {n_snapshots}"], 0.0
    masses = []
    problems = []
    for path in paths:
        columns, rows = _data_rows(path)
        if columns != ["x", "y", "w", "p"] or len(rows) != n_cells:
            problems.append(f"{path}: columns {columns}, {len(rows)} rows")
            continue
        p = [float(row[3]) for row in rows]
        if not all(map(math.isfinite, p)):
            problems.append(f"{path}: non-finite density")
            continue
        masses.append(math.fsum(p))
    if problems:
        return problems, 0.0
    drift = abs(masses[-1] - masses[0]) / masses[0]
    if not drift <= 1e-12:
        problems.append(f"relative mass drift {drift:.3g} > 1e-12")
    return problems, drift


def _wedge_tensor(psi, m1, m2):
    """Closed-form wedge tensor (D0 = 1) from the paper's formula."""
    dm = m2 - m1
    omega = (math.atan(m2) - math.atan(m1)) / dm
    rho = 0.5 * math.log((1.0 + m2 * m2) / (1.0 + m1 * m1)) / dm
    mu = 0.5 * (m1 + m2)
    sp, cp = math.sin(psi), math.cos(psi)
    return [[omega, -omega * mu * sp], [-rho * sp, cp * cp + mu * rho * sp * sp]]


def _max_abs_diff(a, b):
    return max(abs(a[i][j] - b[i][j]) for i in range(2) for j in range(2))


def check_oracle(path, n_cases):
    """Criterion 1: every case ran, and both the package's closed form and
    its wedge quadrature agree with the formula evaluated here."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("n_failed") != 0 or doc.get("n_cases") != n_cases:
        return [f"{path}: n_cases={doc.get('n_cases')}, "
                f"n_failed={doc.get('n_failed')}"]
    problems = []
    for case in doc["cases"]:
        want = _wedge_tensor(case["psi"], case["m1"], case["m2"])
        closed = _max_abs_diff(case["closed_form"], want)
        quad = _max_abs_diff(case["quadrature"], want)
        if not (closed <= 1e-10 and quad <= 1e-6):
            problems.append(f"{path}: case psi={case['psi']!r}: closed form "
                            f"off by {closed:.3g}, quadrature by {quad:.3g}")
    if not doc["max_abs_err"] <= 1e-6:
        problems.append(f"{path}: max_abs_err {doc['max_abs_err']!r}")
    return problems[:5]


def _mc_document(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    problems = []
    values = [v for key in ("estimate", "stderr") for row in doc[key] for v in row]
    if not all(map(math.isfinite, values)):
        problems.append(f"{path}: non-finite estimate or stderr")
    diag = doc.get("diagnostics", {})
    for key in ("double_cross_fraction", "rejected_steps", "max_overshoot"):
        if key not in diag:
            problems.append(f"{path}: diagnostics lack {key}")
    return doc, problems


def check_slab_mc(path, mu, scale):
    """Slab MC: D_xx within a fixed bound of 1/(1+mu^2), D_yy of 1."""
    doc, problems = _mc_document(path)
    if problems:
        return problems
    bound_xx, bound_yy = SLAB_BOUNDS[scale]
    dxx, dyy = doc["estimate"][0][0], doc["estimate"][1][1]
    want = 1.0 / (1.0 + mu * mu)
    if not abs(dxx - want) <= bound_xx:
        problems.append(f"{path}: D_xx = {dxx:.4f}, want {want} +- {bound_xx}")
    if not abs(dyy - 1.0) <= bound_yy:
        problems.append(f"{path}: D_yy = {dyy:.4f}, want 1 +- {bound_yy}")
    return problems


def check_curved_mc(path):
    """Curved MC is report-only: finite estimate and recorded diagnostics."""
    return _mc_document(path)[1]
