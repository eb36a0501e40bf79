"""Numerical reconstruction of the effective tensor for plane wedges.

For a wedge with tilt psi and slopes m1 < m2 the harmonic family

    Q_w = cos(w) log(X^2 + Z^2)/2 + sin(w) Y,      0 <= w < 2 pi,

satisfies reflective conditions on both planes (X, Y, Z are the wedge
coordinates: Y along the intersection line, bounding planes Z = m_i X).
Each member yields one linear condition D v_w = u_w with

    u_w = (D0 / w(x,y)) ( int_z1^z2 dQ_w/dx dz , int_z1^z2 dQ_w/dy dz ),
    v_w = grad( q_w / w ),        q_w = int_z1^z2 Q_w dz,

and w in {0, pi/2} determines D completely.  The integrals are evaluated
with Gauss-Legendre quadrature and the outer gradient with central
differences, so this path shares no code with the closed form and serves
as an independent oracle for it.

Parallel planes (m1 = m2 = mu) use the slab family Q_a = x + mu z,
Q_b = y, which are harmonic with reflective conditions on both planes of
the tilted slab.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .tensor import EPS_M, EPS_PSI, MediumParams

APEX_THRESHOLD = 1e-6


class OracleError(Exception):
    pass


class ApexProximityError(OracleError):
    pass


class SingularSystemError(OracleError):
    pass


@dataclass(frozen=True)
class WedgeQuadratureJob:
    """One oracle evaluation: wedge frame, evaluation point, resolution."""

    psi: float
    m1: float
    m2: float
    eval_point: tuple = (1.0, 0.0)
    points: int = 128
    fd_step: float = 1e-5


def quadrature_tensor(job: WedgeQuadratureJob,
                      med: MediumParams = MediumParams(1.0)) -> np.ndarray:
    """Effective tensor of the wedge, reconstructed numerically.

    Raises ApexProximityError when the evaluation point sits too close to
    the wedge apex and SingularSystemError when the two gradient columns
    do not determine the matrix.
    """
    psi, m1, m2 = job.psi, job.m1, job.m2
    if not all(map(math.isfinite, (psi, m1, m2))):
        raise OracleError("non-finite wedge parameters")
    if math.pi / 2 - abs(psi) < EPS_PSI:
        raise OracleError("extreme tilt: wedge coordinates are undefined")

    x, y = float(job.eval_point[0]), float(job.eval_point[1])
    if abs(m2 - m1) <= EPS_M * (1.0 + abs(m1) + abs(m2)):
        family, z_bounds = _slab_family(0.5 * (m1 + m2))
    else:
        if x < APEX_THRESHOLD * max(1.0, abs(y)):
            raise ApexProximityError(
                f"evaluation point x = {x:.3g} is too close to the apex")
        if (m2 - m1) * x <= 0:
            raise OracleError("evaluation point is outside the wedge interior")
        family, z_bounds = _wedge_family(psi, m1, m2)
    nodes, weights = _gauss_legendre(job.points)

    def integral(f, px, py):
        """Gauss-Legendre integral of f(px, py, z) over z1 <= z <= z2."""
        z1, z2 = z_bounds(px, py)
        mid = 0.5 * (z1 + z2)
        half = 0.5 * (z2 - z1)
        return half * float(np.dot(weights, f(px, py, mid + half * nodes)))

    def q_over_w(q, px, py):
        z1, z2 = z_bounds(px, py)
        return integral(q, px, py) / (z2 - z1)

    z1, z2 = z_bounds(x, y)
    h = job.fd_step * max(1.0, abs(x), abs(y))
    us, vs = [], []
    for q, dqdx, dqdy in family:
        us.append(np.array([integral(dqdx, x, y), integral(dqdy, x, y)])
                  * (med.d0 / (z2 - z1)))
        vs.append(np.array([
            (q_over_w(q, x + h, y) - q_over_w(q, x - h, y)) / (2 * h),
            (q_over_w(q, x, y + h) - q_over_w(q, x, y - h)) / (2 * h),
        ]))
    umat = np.column_stack(us)
    vmat = np.column_stack(vs)
    det = vmat[0, 0] * vmat[1, 1] - vmat[0, 1] * vmat[1, 0]
    scale = np.linalg.norm(vs[0]) * np.linalg.norm(vs[1])
    if abs(det) <= 1e-10 * max(scale, 1e-30):
        raise SingularSystemError("gradient columns are linearly dependent")
    return umat @ np.linalg.inv(vmat)


@functools.lru_cache(maxsize=8)
def _gauss_legendre(points):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per size;
    read-only, since every caller shares them."""
    nodes, weights = np.polynomial.legendre.leggauss(points)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _wedge_family(psi, m1, m2):
    """Members w = 0 and w = pi/2 of the harmonic family, each as
    (Q, dQ/dx, dQ/dy) of (x, y, z), and the z-bounds of the wedge."""
    sp, cp = math.sin(psi), math.cos(psi)
    sec = 1.0 / cp

    def member(omega):
        cw, sw = math.cos(omega), math.sin(omega)

        def q(px, py, z):
            zz = -py * sp + z * cp
            yy = py * cp + z * sp
            return cw * 0.5 * np.log(px * px + zz * zz) + sw * yy

        def dqdx(px, py, z):
            zz = -py * sp + z * cp
            return cw * px / (px * px + zz * zz)

        def dqdy(px, py, z):
            zz = -py * sp + z * cp
            return -cw * zz * sp / (px * px + zz * zz) + sw * cp

        return q, dqdx, dqdy

    def z_bounds(px, py):
        z1 = (m1 * px + py * sp) * sec
        z2 = (m2 * px + py * sp) * sec
        return z1, z2

    return (member(0.0), member(math.pi / 2)), z_bounds


def _slab_family(mu):
    """The linear family Q_a = x + mu z, Q_b = y, each as (Q, dQ/dx, dQ/dy)
    of (x, y, z), and the z-bounds of the slab between z = mu x and
    z = mu x + 1."""
    ones = lambda px, py, z: np.ones_like(np.asarray(z, float))
    zeros = lambda px, py, z: np.zeros_like(np.asarray(z, float))
    family = ((lambda px, py, z: px + mu * z, ones, zeros),
              (lambda px, py, z: py + 0.0 * z, zeros, ones))
    return family, lambda px, py: (mu * px, mu * px + 1.0)
