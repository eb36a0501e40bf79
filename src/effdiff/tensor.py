"""Effective diffusion matrix, degenerate limits, polar decomposition.

In the frame adapted to the width gradient the projected diffusion operator
is the 2x2 matrix (acting on component columns, flux = D . gradient)

    D = D0 [ omega                 -omega mu sin(psi)            ]
           [ -rho sin(psi)          cos(psi)^2 + mu rho sin(psi)^2 ]

with mu = (m1+m2)/2 and

    rho + i omega = log((1 + i m2)/(1 + i m1)) / (m2 - m1).

omega is evaluated through atan2(m2 - m1, 1 + m1 m2), which reproduces
arctan(m2) - arctan(m1) on its full range; the naive principal-branch
complex log is wrong when 1 + m1 m2 < 0.  As m2 -> m1 the quotient tends
to (mu + i)/(1 + mu^2), which is used below a relative spacing eps_m.

At tilt +-pi/2 the matrix degenerates to the rank-1 pair

    D- = D0 [omega, mu omega; rho, mu rho],
    D+ = D0 [omega, -mu omega; -rho, mu rho],

with eigenvalues {0, D0 (mu rho + omega)}.  The image of the unit circle
under a non-degenerate D is an ellipse whose axes come from the symmetric
factor of the polar decomposition D = S R (S symmetric PSD, R orthogonal).

effective_tensor takes a one-point FrameData or a frame_field one of arrays
and returns an EffectiveTensor: the coefficients, that FrameData and the
extreme-tilt flag.  polar_decompose takes one 2x2 matrix or a (..., 2, 2)
stack, to_cartesian one tensor or a stacked one.  The tensor is undefined
at an extreme tilt, at a non-finite slope and where rho or omega overflows.
On arrays such a point gets NaN coefficients; at one point it raises.
sample_tensor runs sample, frame and tensor for a surface pair and refuses
the first undefined point by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import FrameData, GeometryError, frame_field, frame_from_slopes

EPS_M = 1e-7        # relative switch to the coincident-slope limit
EPS_PSI = 1e-9      # margin on pi/2 - |psi| for the extreme-tilt guard
EPS_DEGENERATE = 1e-12  # lambda2/lambda1 below this: degenerate ellipse


class TensorError(Exception):
    pass


class ExtremeTiltError(TensorError):
    """|psi| is at (or numerically indistinguishable from) pi/2; use
    extreme_tilt_tensor with the slopes instead."""


@dataclass(frozen=True)
class MediumParams:
    """Bulk medium: isotropic diffusion constant D0 (length^2/time)."""

    d0: float = 1.0

    def __post_init__(self):
        if not (self.d0 > 0 and math.isfinite(self.d0)):
            raise TensorError(f"D0 must be positive and finite, got {self.d0}")


@dataclass(frozen=True)
class EffectiveTensor:
    """2x2 operator matrix, flux = coeffs @ grad, in `frame`: the FrameData
    it was built from.  From a frame_field bundle, coeffs is a (..., 2, 2)
    stack and extreme_tilt a mask."""

    coeffs: np.ndarray
    frame: FrameData
    extreme_tilt: bool = False


@dataclass(frozen=True)
class EllipsoidData:
    """Polar factorization D = S R and the induced ellipse geometry.

    lambda1 >= lambda2 >= 0 are the semi-axes, f1/f2 the axis directions
    (eigenvectors of S) and e_i = R^T f_i the principal response
    directions: gradients along e_i map onto the ellipse axes.  For a stack
    of matrices every field is stacked along the leading axes.
    """

    S: np.ndarray
    R: np.ndarray
    lambda1: float
    lambda2: float
    f1: np.ndarray
    f2: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    degenerate: bool


# ---------------------------------------------------------------------------
# scalar building blocks
# ---------------------------------------------------------------------------

def rho_omega(m1, m2) -> tuple:
    """Real and imaginary parts of log((1+i m2)/(1+i m1))/(m2-m1).

    Below |m2-m1| <= eps_m (1+|m1|+|m2|) the coincident-slope limit
    (mu/(1+mu^2), 1/(1+mu^2)) with mu = (m1+m2)/2 is returned.  Arrays give
    arrays, with NaN or inf where a slope is not finite or rho or omega
    overflows, and never raise.  Two floats give floats and raise
    TensorError in those two cases.
    """
    m1 = np.asarray(m1, dtype=float)
    m2 = np.asarray(m2, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        dm = m2 - m1
        mu = 0.5 * (m1 + m2)
        den = 1.0 + mu * mu
        close = np.abs(dm) <= EPS_M * (1.0 + np.abs(m1) + np.abs(m2))
        dm_far = np.where(close, 1.0, dm)     # dm == 0 only where close
        omega = np.arctan2(dm, 1.0 + m1 * m2) / dm_far
        rho = 0.5 * np.log((1.0 + m2 * m2) / (1.0 + m1 * m1)) / dm_far
        rho = np.where(close, mu / den, rho)
        omega = np.where(close, 1.0 / den, omega)
    if rho.ndim:
        return rho, omega
    if not (np.isfinite(m1) and np.isfinite(m2)):
        raise TensorError(f"slopes must be finite, got ({m1}, {m2})")
    if not (np.isfinite(rho) and np.isfinite(omega)):
        raise TensorError(f"slopes ({m1:.6g}, {m2:.6g}) are too large: "
                          "rho or omega overflows")
    return float(rho), float(omega)


# ---------------------------------------------------------------------------
# the effective tensor
# ---------------------------------------------------------------------------

def effective_tensor(fd: FrameData, med: MediumParams) -> EffectiveTensor:
    """Effective diffusion matrix in the frame carried by `fd`.

    On a frame_field bundle the coefficients are a (..., 2, 2) stack, NaN
    wherever the tensor is undefined, and nothing raises: points within
    EPS_PSI of |psi| = pi/2 also get the extreme_tilt flag, and the other
    NaN points are those where rho_omega marks a non-finite slope or an
    overflow.  At one point an extreme tilt raises ExtremeTiltError, and
    then rho_omega raises its TensorError.
    """
    psi = np.asarray(fd.psi, dtype=float)
    extreme = np.pi / 2 - np.abs(psi) < EPS_PSI
    if psi.ndim == 0 and extreme:
        raise ExtremeTiltError(f"tilt {fd.psi:.12g} is within {EPS_PSI} of pi/2")
    d0 = med.d0
    rho, omega = rho_omega(fd.m1, fd.m2)
    mu = fd.mu
    sp, cp = np.sin(psi), np.cos(psi)
    coeffs = np.empty(np.broadcast(psi, rho, mu).shape + (2, 2))
    with np.errstate(invalid="ignore", over="ignore"):  # only where marked
        coeffs[..., 0, 0] = d0 * omega
        coeffs[..., 0, 1] = -d0 * omega * mu * sp
        coeffs[..., 1, 0] = -d0 * rho * sp
        coeffs[..., 1, 1] = d0 * (cp * cp + mu * rho * sp * sp)
    if coeffs.ndim > 2:
        coeffs[extreme | ~(np.isfinite(rho) & np.isfinite(omega))] = np.nan
    return EffectiveTensor(coeffs, fd, extreme if psi.ndim else False)


def _refuse_first(mask, x, y, error, what):
    if np.any(mask):
        k = np.unravel_index(np.argmax(mask), mask.shape)
        raise error(f"{what} at ({x[k]:.6g}, {y[k]:.6g})")


def sample_tensor(pair, x, y, med: MediumParams):
    """Width, surface gradients and effective tensor of a SurfacePair on
    arrays of points x, y: (w, g1, g2, EffectiveTensor).

    Refuses undefined points by name: first the points that
    SurfacePair.sample masks (GeometryError), then those within EPS_PSI of
    |psi| = pi/2 (ExtremeTiltError), then the other points where the
    tensor is NaN: a slope that is not finite or whose rho or omega
    overflows (TensorError).
    """
    w, g1, g2, bad = pair.sample(x, y)
    _refuse_first(bad, x, y, GeometryError,
                  "width or surface gradient undefined")
    tensor = effective_tensor(frame_field(g1, g2), med)
    _refuse_first(tensor.extreme_tilt, x, y, ExtremeTiltError,
                  "tensor undefined (extreme tilt)")
    _refuse_first(np.isnan(tensor.coeffs).any(axis=(-2, -1)), x, y,
                  TensorError, "tensor undefined (slope overflow)")
    return w, g1, g2, tensor


def extreme_tilt_tensor(m1: float, m2: float, sign: str, med: MediumParams):
    """Rank-1 tensors at tilt = sign * pi/2, plus the degenerate ellipse.

    Returns (EffectiveTensor, (endpoint_plus, endpoint_minus)): the tensor
    is in the unit frame of frame_from_slopes(sign * pi/2, m1, m2), and the
    endpoints are +-D0 (mu rho + omega)/sqrt(omega^2+rho^2) * (omega, -+rho),
    the diametrically opposite ends of the collapsed ellipse.
    """
    if sign not in ("+", "-"):
        raise TensorError("sign must be '+' or '-'")
    d0 = med.d0
    rho, omega = rho_omega(m1, m2)
    s = 1.0 if sign == "+" else -1.0
    frame = frame_from_slopes(s * math.pi / 2, m1, m2)
    mu = frame.mu
    coeffs = d0 * np.array([[omega, -s * mu * omega], [-s * rho, mu * rho]])
    direction = np.array([omega, -s * rho])
    scale = d0 * (mu * rho + omega) / math.hypot(omega, rho)
    endpoints = (scale * direction, -scale * direction)
    return EffectiveTensor(coeffs, frame, extreme_tilt=True), endpoints


def channel_recovery(z1, z2, x, med: MediumParams) -> np.ndarray:
    """Planar-channel matrix for surfaces depending on x only:

        D = D0 diag( (arctan z2' - arctan z1')/(z2' - z1'), 1 ),

    with the 1/(1 + z1'^2) limit at the points where z2' = z1'.  A scalar
    x gives a 2x2 matrix, an array of x a (..., 2, 2) stack."""
    x = np.asarray(x, dtype=float)
    y = np.zeros_like(x)
    shut = z2.value_array(x, y) <= z1.value_array(x, y)
    if np.any(shut):
        raise TensorError(f"channel is not open at x = {float(x[shut][0])}")
    omega = rho_omega(z1.gradient_array(x, y)[0], z2.gradient_array(x, y)[0])[1]
    d = np.zeros(x.shape + (2, 2))
    d[..., 0, 0] = med.d0 * omega
    d[..., 1, 1] = med.d0
    return d


# ---------------------------------------------------------------------------
# polar decomposition and the diffusion ellipse
# ---------------------------------------------------------------------------

def _t(a):
    return np.swapaxes(a, -1, -2)


def _pair(a, b):
    return np.stack([a, b], axis=-1)


def polar_decompose(tensor) -> EllipsoidData:
    """Polar factors of a 2x2 matrix: D = S R with S = (D D^T)^(1/2)
    symmetric PSD and R orthogonal (a rotation when det D >= 0).

    Accepts an EffectiveTensor or an array, one 2x2 matrix or a (..., 2, 2)
    stack; a stack gives stacked factors, vectors and flags.  For
    rank-deficient input the pseudo-inverse branch completes R to a
    rotation and the result is flagged degenerate.
    """
    d = tensor.coeffs if isinstance(tensor, EffectiveTensor) else np.asarray(tensor, float)
    if d.shape[-2:] != (2, 2) or not np.all(np.isfinite(d)):
        raise TensorError("need a finite 2x2 matrix or a stack of them")

    # eigen-decomposition of the symmetric D D^T = [[a, b], [b, c]]
    m = d @ _t(d)
    a, b, c = m[..., 0, 0], m[..., 0, 1], m[..., 1, 1]
    half_gap = np.hypot(0.5 * (a - c), b)
    l1sq = 0.5 * (a + c) + half_gap
    # pick the better conditioned eigenvector expression for l1sq
    v_a = (b, l1sq - a)
    v_b = (l1sq - c, b)
    use_a = np.hypot(*v_a) >= np.hypot(*v_b)
    v = _pair(np.where(use_a, v_a[0], v_b[0]), np.where(use_a, v_a[1], v_b[1]))
    norm = np.hypot(v[..., 0], v[..., 1])[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        # norm == 0: already diagonal with equal eigenvalues
        f1 = np.where(norm == 0.0, [1.0, 0.0], v / norm)
    lam1 = np.sqrt(np.maximum(l1sq, 0.0))
    zero = lam1 == 0.0
    det = d[..., 0, 0] * d[..., 1, 1] - d[..., 0, 1] * d[..., 1, 0]
    # lambda2 from |det D| = lambda1 lambda2 stays accurate down to rank 1,
    # where the smaller root of D D^T cancels; clamp the ulp by which the
    # quotient can exceed lambda1 when the two are nearly equal
    lam2 = np.minimum(np.abs(det) / np.where(zero, 1.0, lam1), lam1)
    f2 = _pair(-f1[..., 1], f1[..., 0])

    s = (lam1[..., None, None] * (f1[..., :, None] * f1[..., None, :])
         + lam2[..., None, None] * (f2[..., :, None] * f2[..., None, :]))
    s[..., 1, 0] = s[..., 0, 1]  # stored exactly symmetric

    degenerate = lam2 <= EPS_DEGENERATE * lam1
    g1 = (_t(d) @ f1[..., None])[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        g1 = g1 / np.sqrt(g1[..., 0] ** 2 + g1[..., 1] ** 2)[..., None]
    # rank-1: complete with a proper rotation
    orient = np.where(degenerate | (det == 0.0), 1.0, np.copysign(1.0, det))
    g2 = orient[..., None] * _pair(-g1[..., 1], g1[..., 0])
    r = f1[..., :, None] * g1[..., None, :] + f2[..., :, None] * g2[..., None, :]
    r = np.where(zero[..., None, None], np.eye(2), r)

    e1 = (_t(r) @ f1[..., None])[..., 0]
    e2 = (_t(r) @ f2[..., None])[..., 0]
    if d.ndim == 2:
        return EllipsoidData(s, r, float(lam1), float(lam2), f1, f2, e1, e2,
                             bool(degenerate))
    return EllipsoidData(s, r, lam1, lam2, f1, f2, e1, e2, degenerate)


def to_cartesian(tensor: EffectiveTensor) -> np.ndarray:
    """Operator matrix in global (x, y) components: B M B^T with
    B = FrameData.basis(); a (..., 2, 2) stack for a stacked tensor.
    Fails on an undefined frame."""
    b = tensor.frame.basis()
    if not np.all(np.isfinite(b)):
        raise TensorError("frame is degenerate; no Cartesian components")
    return b @ tensor.coeffs @ _t(b)
