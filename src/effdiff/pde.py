"""Conservative finite-volume solver for the projected diffusion equation.

The projected density p(x, y, t) evolves by

    dp/dt = div( w(x,y) D(x,y) grad( p / w ) ),

where D is the effective tensor in global Cartesian components (the
infinite-rate form replaces D by D0 I).  Working in u = p/w makes p = c w
a discrete steady state, to rounding: every face gradient of u vanishes.

Discretization: fields at the Domain.cells centers, explicit Euler, face fluxes

    F = - w_face D_face grad_face(u)

with arithmetic-mean face values for w and D.  The normal part of
grad_face(u) is the face slope (the difference across the face over h); the
transverse part averages the centered cell gradients on either side, which
at the outer rows/columns are one-sided: the inner face's slope.  Outer
boundary faces carry zero flux, so total mass telescopes, to rounding.

The divergence is a 3x3 stencil in u: c[di, dj][i, j] weighs u[i+di, j+dj].
evolve builds the nine weights once per run, in closed form and with dt folded
in (w - dt c_00, -dt c_k).  It holds p row-padded, flat nx x (ny+2) with zero
weights on the pads, so each of a step's nine multiply-adds reads one slice.

Stability (explicit scheme): dt <= 0.2 min(hx, hy)^2 / max ||D||, 0 < dt < inf.
Off-diagonal tensors get no positivity fix; strongly anisotropic cells
can undershoot (documented limitation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import InputError, SurfacePair, frame_from_gradients, integer
from .tensor import MediumParams, effective_tensor, sample_tensor, to_cartesian

# frame_from_gradients, effective_tensor and to_cartesian are re-exported:
# perfbench/spans.py traces them through this module by name.
__all__ = [
    "PdeGrid", "PdeError", "StabilityError",
    "step_finite_rate", "step_infinite_rate", "evolve", "stability_bound",
    "frame_from_gradients", "effective_tensor", "to_cartesian",
]


class PdeError(Exception):
    pass


class StabilityError(PdeError):
    pass


@dataclass(frozen=True)
class PdeGrid:
    """Cell-centered state at time t: density p, width w, Cartesian tensor
    field."""

    nx: int
    ny: int
    hx: float
    hy: float
    xc: np.ndarray          # (nx,)
    yc: np.ndarray          # (ny,)
    w: np.ndarray           # (nx, ny)
    dten: np.ndarray        # (nx, ny, 2, 2), global components
    p: np.ndarray           # (nx, ny)
    d0: float
    t: float = 0.0

    def mass(self) -> float:
        return float(self.p.sum()) * self.hx * self.hy

    def variance(self, axis: int) -> float:
        """Centered second moment of p along a coordinate axis."""
        coords = self.xc[:, None] if axis == 0 else self.yc[None, :]
        total = self.p.sum()
        mean = (self.p * coords).sum() / total
        return float((self.p * (coords - mean) ** 2).sum() / total)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_surfaces(pair: SurfacePair, med: MediumParams, nx, ny,
                      p0=None) -> "PdeGrid":
        """Sample w and the Cartesian effective tensor at cell centers.

        The cells are pair.domain.cells(nx, ny); a bad size, or a p0 (array
        or callable) that is not finite and non-negative, is an InputError.
        A cell without a tensor is refused by name (tensor.sample_tensor).
        """
        xc, yc, hx, hy = pair.domain.cells(nx, ny)
        gx, gy = np.meshgrid(xc, yc, indexing="ij")
        w, _, _, tensor = sample_tensor(pair, gx, gy, med)
        dten = to_cartesian(tensor)
        p = _initial_density(p0, gx, gy, w)
        return PdeGrid(nx, ny, hx, hy, xc, yc, w, dten, p, med.d0)


def _initial_density(p0, gx, gy, w):
    if p0 is None:
        return w.copy()
    p = np.array(p0(gx, gy) if callable(p0) else p0, dtype=float)
    if p.shape != w.shape:
        raise InputError("p0", f"must have the grid's shape {w.shape}, "
                         f"got {p.shape}")
    if not np.all((p >= 0) & (p < math.inf)):     # NaN fails both
        raise InputError("p0", "must be finite and non-negative")
    return p


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def _spectral_norm_sq(d):
    # largest eigenvalue of D^T D for a (..., 2, 2) stack
    a = d[..., 0, 0] ** 2 + d[..., 1, 0] ** 2
    b = d[..., 0, 1] ** 2 + d[..., 1, 1] ** 2
    c = d[..., 0, 0] * d[..., 0, 1] + d[..., 1, 0] * d[..., 1, 1]
    mid = 0.5 * (a + b)
    return mid + np.sqrt((0.5 * (a - b)) ** 2 + c * c)


def stability_bound(grid: PdeGrid, infinite_rate=False) -> float:
    """Largest admissible explicit time step, 0.2 h^2 / max ||D||."""
    dmax = grid.d0 if infinite_rate else math.sqrt(float(_spectral_norm_sq(grid.dten).max()))
    h = min(grid.hx, grid.hy)
    return 0.2 * (h * h) / dmax     # h * h overflows to inf, h ** 2 raises


def _faces(grid, infinite_rate):
    """Flux coefficients -w_face D_face on the x-faces (between cells i and
    i+1) and the y-faces (between j and j+1); D is D0 I at infinite rate."""
    dten = (np.broadcast_to(grid.d0 * np.eye(2), grid.dten.shape)
            if infinite_rate else grid.dten)
    wx = -0.5 * (grid.w[:-1, :] + grid.w[1:, :])
    dx = 0.5 * (dten[:-1, :] + dten[1:, :])
    wy = -0.5 * (grid.w[:, :-1] + grid.w[:, 1:])
    dy = 0.5 * (dten[:, :-1] + dten[:, 1:])
    return (wx * dx[..., 0, 0], wx * dx[..., 0, 1],
            wy * dy[..., 1, 1], wy * dy[..., 1, 0])


def _add_axis(c, an, at, h, ht, s):
    """Add to c s times the weights of the fluxes across the faces normal to
    axis 0: an/h^2 times the face slope plus at/2h times the cell gradients."""
    an = np.pad(an * (s / h / h), ((1, 1), (0, 0)))   # an / h^2 can overflow
    at = np.pad(at * (s / (2 * h) / ht), ((1, 1), (0, 0)))  # walls: no flux
    g = np.zeros((3, 1, an.shape[1]))   # u[., j-1], u[., j], u[., j+1] in grad
    g[0], g[2] = -0.5, 0.5              # centered, one-sided at the edges
    g[:, 0, 0], g[:, 0, -1] = (0, -1, 1), (-1, 1, 0)
    e = np.array([0.0, 1.0, 0.0])[:, None, None]
    hi, lo = at * g + an * e, at * g - an * e   # a face's weights per side
    c[2] += hi[:, 1:]
    c[1] += lo[:, 1:] - hi[:, :-1]
    c[0] -= lo[:, :-1]


def _stencil(grid, faces, dt):
    """The step's weights, (9, nx * (ny+2)) and zero on the pad columns: row
    3 (di+1) + dj+1 weighs u[i+di, j+dj] in p after one step."""
    a11, a12, a22, a21 = faces
    c = np.zeros((3, 3, grid.nx, grid.ny + 2))
    _add_axis(c[..., 1:-1], a11, a12, grid.hx, grid.hy, -dt)
    _add_axis(c[..., 1:-1].transpose(1, 0, 3, 2), a22.T, a21.T, grid.hy,
              grid.hx, -dt)
    c[1, 1, :, 1:-1] += grid.w
    return c.reshape(9, -1)


def step_finite_rate(grid: PdeGrid, dt: float) -> PdeGrid:
    """One explicit Euler step of dp/dt = div(w D grad(p/w))."""
    return evolve(grid, dt, 1)


def step_infinite_rate(grid: PdeGrid, dt: float) -> PdeGrid:
    """One explicit Euler step of dp/dt = div(w grad(p/w)) * D0."""
    return evolve(grid, dt, 1, mode="infinite")


def evolve(grid: PdeGrid, dt, n_steps: int, mode="finite",
           callback=None) -> PdeGrid:
    """Run n_steps of the chosen mode; callback(k, grid) with the grid as
    given (k = 0) once the step is checked, then after each step k.

    mode is "finite" or "infinite", n_steps an integer in [0, MAX_COUNT]
    and a given dt positive and finite; anything else raises InputError.
    dt=None takes half the stability bound; a dt above the bound, or a
    half bound that is not positive and finite, raises StabilityError.
    The step is decided and checked, and its nine weights are built, once
    per call; the grid after step k has time t0 + k dt, and a p of its own.
    """
    integer("n_steps", n_steps, 0)
    if mode not in ("finite", "infinite"):
        raise InputError("mode", f"must be finite or infinite, got {mode!r}")
    if dt is not None and not 0 < dt < math.inf:
        raise InputError("dt", f"= {dt:.3g} is not positive and finite")
    infinite_rate = mode == "infinite"
    bound = stability_bound(grid, infinite_rate=infinite_rate)
    dt = 0.5 * bound if dt is None else dt
    if not 0 < dt < math.inf:       # half a bound that under- or overflowed
        raise StabilityError(f"dt = {dt:.3g} is not positive and finite "
                             f"(stability bound {bound:.3g})")
    if dt > bound * (1 + 1e-12):
        raise StabilityError(
            f"dt = {dt:.3g} exceeds the stability bound {bound:.3g}")
    b = _stencil(grid, _faces(grid, infinite_rate), dt)
    nx, row, n = grid.nx, grid.ny + 2, b.shape[1]
    u = np.zeros(n + 2 * row + 2)   # a zero row and one more zero at each end
    reads = [u[a * row + d:a * row + d + n] for a in range(3) for d in range(3)]
    w = np.pad(grid.w, ((0, 0), (1, 1)), constant_values=1).ravel()
    p = np.pad(grid.p, ((0, 0), (1, 1))).ravel()
    t0 = grid.t
    if callback is not None:
        callback(0, grid)
    for k in range(1, n_steps + 1):
        np.divide(p, w, out=reads[4])
        p = b[0] * reads[0]
        for bk, uk in zip(b[1:], reads[1:]):
            p += bk * uk
        grid = replace(grid, p=p.reshape(nx, row)[:, 1:-1], t=t0 + k * dt)
        if callback is not None:
            callback(k, grid)
    return replace(grid, p=np.ascontiguousarray(grid.p))
