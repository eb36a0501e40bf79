"""Numerical reconstruction of the effective tensor for plane wedges.

For a wedge with tilt psi and slopes m1 < m2 the harmonic family

    Q_w = cos(w) log(X^2 + Z^2)/2 + sin(w) Y,      0 <= w < 2 pi,

satisfies reflective conditions on both planes (X, Y, Z are the wedge
coordinates: Y along the intersection line, bounding planes Z = m_i X).
Each member yields one linear condition D v_w = u_w with

    u_w = (D0 / w(x,y)) ( int_z1^z2 dQ_w/dx dz , int_z1^z2 dQ_w/dy dz ),
    v_w = grad( q_w / w ),        q_w = int_z1^z2 Q_w dz,

and w in {0, pi/2} determines D completely.  The integrals are evaluated
by Gauss-Legendre quadrature, for arrays of cases at once, and the outer
gradient by central differences, so this path shares no code with the
closed form and serves as an independent oracle for it.

Parallel planes (m1 = m2 = mu) use the slab family Q_a = x + mu z,
Q_b = y, which are harmonic with reflective conditions on both planes of
the tilted slab.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import InputError, integer, store_reals
from .tensor import UNDEFINED, MediumParams, coincident, extreme_tilt, too_large

APEX_THRESHOLD = 1e-6
MAX_POINTS = 1024      # Gauss-Legendre nodes per integral


class OracleError(Exception):
    pass


class ApexProximityError(OracleError):
    pass


class SingularSystemError(OracleError):
    pass


@dataclass(frozen=True)
class WedgeQuadratureJob:
    """Oracle evaluations: wedge frames (floats for one case, equal-length
    arrays for many), evaluation point in [-1e100, 1e100]^2, resolution."""

    psi: float
    m1: float
    m2: float
    eval_x: float = 1.0
    eval_y: float = 0.0
    points: int = 128
    fd_step: float = 1e-5

    def __post_init__(self):    # psi, m1 and m2 may be arrays
        store_reals(self, "eval_x", "eval_y", "fd_step")
        integer("points", self.points, 1, MAX_POINTS)
        for name, value in (("eval_x", self.eval_x), ("eval_y", self.eval_y)):
            if not abs(value) <= 1e100:
                raise InputError(name, f"must be in [-1e100, 1e100], got {value!r}")
        if not 0 < self.fd_step < 1:
            raise InputError("fd_step", f"must be in (0, 1), got {self.fd_step!r}")


def quadrature_tensor(job: WedgeQuadratureJob,
                      med: MediumParams = MediumParams(1.0)):
    """Effective tensor of the wedge, reconstructed numerically.

    One case gives a 2x2 matrix or raises the first error of `checks`: the
    closed form's refusals, tensor.UNDEFINED's extreme_tilt then
    slope_overflow entry, then ApexProximityError (|x| near the apex),
    OracleError (outside the wedge interior), SingularSystemError when the
    two gradient columns do not determine the matrix, OracleError
    (non-finite result).  N cases give (stack, errors): an (N, 2, 2) stack
    with NaN rows, and per case None or the error that it alone would raise.
    """
    one = np.ndim(job.psi) == 0
    psi, m1, m2 = np.atleast_1d(job.psi, job.m1, job.m2)
    x, y = job.eval_x, job.eval_y
    h = job.fd_step * max(1.0, abs(x), abs(y))
    # the evaluation point, then x + h, x - h, y + h and y - h
    px, py = np.array([[x, x + h, x - h, x, x], [y, y, y, y + h, y - h]])
    with np.errstate(all="ignore"):
        slab = coincident(m1, m2)
        checks = [      # (mask, error, text); first the closed form's
            (extreme_tilt(psi), *UNDEFINED[1][1:]),
            (too_large(m1, m2), *UNDEFINED[2][1:]),
            (~slab & (abs(x) < APEX_THRESHOLD * max(1.0, abs(y))),
             ApexProximityError,
             f"evaluation point x = {x:.3g} is too close to the apex"),
            (~slab & ((m2 - m1) * x <= 0),
             OracleError, "evaluation point is outside the wedge interior"),
        ]
        refused = np.logical_or.reduce([mask for mask, _, _ in checks])
        tensor = np.full(psi.shape + (2, 2), np.nan)
        singular = np.zeros_like(refused)
        for family, rows in ((_wedge_family, ~refused & ~slab),
                             (_slab_family, ~refused & slab)):
            if rows.any():   # a sweep block often holds no slab
                tensor[rows], singular[rows] = _reconstruct(
                    *family(psi[rows], m1[rows], m2[rows], px, py),
                    _gauss_legendre(job.points), h, med.d0)
    checks += [(singular, SingularSystemError,
                "gradient columns are linearly dependent"),
               (~np.isfinite(tensor).all(axis=(1, 2)),
                OracleError, "quadrature result is not finite")]
    masks = np.array([mask for mask, _, _ in checks])
    errors = [None] * len(psi)
    for k in np.flatnonzero(masks.any(axis=0)):   # its first check's error
        _, error, text = checks[masks[:, k].argmax()]
        errors[k] = error(text)
    if one and errors[0] is not None:
        raise errors[0]
    return tensor[0] if one else (tensor, errors)


def _reconstruct(z1, z2, integrands, rule, h, d0):
    """Tensors and singular-system mask of n cases of one family, from its
    z-bounds at the five points, (n, 5) each, and its integrands: per
    member, dQ/dx and dQ/dy at the evaluation point, (n, 1, nodes) each,
    and Q at the four shifted points, (n, 4, nodes)."""
    nodes, weights = rule
    mid, half = 0.5 * (z1 + z2), 0.5 * (z2 - z1)
    values = np.empty((len(mid), 2, 6, len(nodes)))  # case, member, row, node
    for k, member in enumerate(integrands(mid[..., None]
                                          + half[..., None] * nodes)):
        np.concatenate(member, axis=1, out=values[:, k])
    # Each integral is the dot product of its row with the weights, rounded
    # as weights.dot rounds one row; a matrix-vector product rounds
    # differently, and the central differences below magnify that to ~1e-10.
    dots = np.vecdot(values, weights)
    integrals = half[:, [0, 0, 1, 2, 3, 4]][:, None] * dots
    width = z2 - z1
    # u and v of each member as a column
    umat = integrals[..., :2].transpose(0, 2, 1) * (d0 / width[:, :1, None])
    q_over_w = integrals[..., 2:] / width[:, None, 1:]
    vmat = np.stack([(q_over_w[..., 0] - q_over_w[..., 1]) / (2 * h),
                     (q_over_w[..., 2] - q_over_w[..., 3]) / (2 * h)], axis=1)
    det = vmat[:, 0, 0] * vmat[:, 1, 1] - vmat[:, 0, 1] * vmat[:, 1, 0]
    scale = np.prod(np.linalg.norm(vmat, axis=1), axis=-1)
    singular = np.abs(det) <= 1e-10 * np.maximum(scale, 1e-30)
    solvable = np.isfinite(det) & ~singular
    tensor = np.full(det.shape + (2, 2), np.nan)
    tensor[solvable] = umat[solvable] @ np.linalg.inv(vmat[solvable])
    return tensor, singular


@functools.lru_cache(maxsize=8)
def _gauss_legendre(points):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per size;
    read-only, since every caller shares them."""
    nodes, weights = np.polynomial.legendre.leggauss(points)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _wedge_family(psi, m1, m2, px, py):
    """z-bounds of n wedges at the points (px, py), and the integrands of
    the members w = 0 and w = pi/2 of the harmonic family."""
    s, c = np.sin(psi)[:, None, None], np.cos(psi)[:, None, None]
    sec = 1.0 / c[..., 0]
    z1 = (m1[:, None] * px + py * s[..., 0]) * sec
    z2 = (m2[:, None] * px + py * s[..., 0]) * sec

    def integrands(z):
        x, y = px[:, None], py[:, None]
        zz = -y * s + z * c
        r2 = x * x + zz * zz
        log_r2 = np.log(r2[:, 1:])
        yy = y[1:] * c + z[:, 1:] * s
        for omega in (0.0, math.pi / 2):
            cw, sw = math.cos(omega), math.sin(omega)
            yield (cw * x[0] / r2[:, :1],
                   -cw * zz[:, :1] * s / r2[:, :1] + sw * c,
                   cw * 0.5 * log_r2 + sw * yy)

    return z1, z2, integrands


def _slab_family(psi, m1, m2, px, py):
    """z-bounds of n slabs between z = mu x and z = mu x + 1 at the points
    (px, py), and the integrands of the members Q_a = x + mu z, Q_b = y."""
    mu = (0.5 * (m1 + m2))[:, None]

    def integrands(z):
        ones, zeros = np.ones_like(z[:, :1]), np.zeros_like(z[:, :1])
        yield ones, zeros, px[1:, None] + mu[..., None] * z[:, 1:]
        yield zeros, ones, py[1:, None] + 0.0 * z[:, 1:]

    return mu * px, mu * px + 1.0, integrands
