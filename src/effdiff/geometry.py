"""Surface pairs and per-point frame geometry.

The confinement region is z1(x,y) <= z <= z2(x,y) with width w = z2 - z1 > 0.
Every point carries a frame adapted to the width gradient,

    xhat = grad(w)/|grad(w)|,   yhat = gradperp(w)/|gradperp(w)|,

where gradperp = (-d/dy, d/dx), together with the tilt

    psi = arcsin( grad(z1).gradperp(z2) / (sqrt(1+|grad z1|^2) sqrt(1+|grad z2|^2)) )

and the slopes of the two bounding tangent planes

    m_i = grad(z_i).grad(w) / ( (grad(z_i).gradperp(w)) sin(psi) + |grad w| cos(psi) ).

frame_field evaluates these from the surface gradients on arrays of points
into one FrameData and flags the points where grad w vanishes;
frame_from_gradients is its one-point form, and SurfacePair.sample supplies
its inputs with a mask of the points where the width or a gradient is undefined.

The same quantities are available for a pure two-plane configuration given by
normals (frame_for_planes); there the tilt is the angle between the
plane intersection line and the projection plane.

Domain.lattice gives the axes of nx by ny nodes of a rectangle, corners
included, and Domain.cells the centres and widths of nx by ny cells; both
refuse, as `resolution`, all but two integers >= 2 with nx * ny <= MAX_COUNT.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from . import expr as _expr

EPS_GRAD = 1e-10     # |grad w| below this: frame direction is unreliable
EPS_PARALLEL = 1e-12  # |n1 x n2| below this: planes treated as parallel
MAX_COUNT = 10**15    # 24 PB of (x, y, z) floats; numpy refuses far more


class InputError(ValueError):
    """A value refused by the record or function that receives it: its
    `field`, then the `rule` it breaks (the rule alone if field is None)."""

    def __init__(self, field, rule):
        super().__init__(rule if field is None else f"{field} {rule}")
        self.field, self.rule = field, rule


class GeometryError(Exception):
    pass


class OutsideDomainError(GeometryError):
    pass


class SurfaceValidationError(GeometryError):
    """Width w = z2 - z1 is not strictly positive on the domain."""


class DegenerateConfigError(GeometryError):
    """Frame undefined: intersection line parallel to the projection
    direction (extreme tilt) or a vertical parallel-plane configuration."""

    def __init__(self, message, psi=None):
        super().__init__(message)
        self.psi = psi


def real(name, value):
    """float(value), or an InputError naming `name` unless value is a real
    number that a float can hold (an int too large for one is not)."""
    if not isinstance(value, numbers.Real):
        raise InputError(name, f"must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InputError(name, "must be finite, got an int too large for a "
                         "float") from None


def _real_pair(name, values):
    """real(name, v) of each of two values; an InputError if not two."""
    try:
        a, b = values
    except (TypeError, ValueError):
        raise InputError(name, f"must be two numbers, got {values!r}") from None
    return real(name, a), real(name, b)


def store_reals(record, *names):
    """Store each named field of a frozen dataclass as its real(...)."""
    for name in names:
        object.__setattr__(record, name, real(name, getattr(record, name)))


def integer(name, value, lo, hi=MAX_COUNT):
    """value, or an InputError naming `name` unless an integer in [lo, hi]."""
    if not (isinstance(value, numbers.Integral) and lo <= value <= hi):
        raise InputError(name, f"must be an integer in [{lo}, {hi}], got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Scalar fields
# ---------------------------------------------------------------------------

class ScalarField:
    """Twice-differentiable function of (x, y).

    Two backings: a parsed expression (exact symbolic derivatives) or a
    uniform grid (bilinear values, interpolated central differences).
    """

    def value(self, p) -> float:
        x, y = p
        return float(self.value_array(np.asarray(x, float), np.asarray(y, float)))

    def gradient(self, p):
        x, y = p
        gx, gy = self.gradient_array(np.asarray(x, float), np.asarray(y, float))
        return float(gx), float(gy)

    def value_array(self, x, y):
        raise NotImplementedError

    def gradient_array(self, x, y):
        raise NotImplementedError

    def sample(self, x, y):
        """Value and both derivatives on arrays of points, from one call,
        with a boolean mask of the points where `value_array` or
        `gradient_array` would raise; the values there are meaningless."""
        raise NotImplementedError

    @staticmethod
    def from_expression(source) -> "ExpressionField":
        return ExpressionField(source)


class ExpressionField(ScalarField):
    def __init__(self, source):
        self.tree = _expr.parse(source)
        self.dx = _expr.differentiate(self.tree, "x")
        self.dy = _expr.differentiate(self.tree, "y")

    _compiled = cached_property(
        lambda self: _expr.Compiled(self.tree, self.dx, self.dy))

    def value_array(self, x, y):
        return _expr.evaluate(self.tree, (x, y))

    def gradient_array(self, x, y):
        return _expr.evaluate(self.dx, (x, y)), _expr.evaluate(self.dy, (x, y))

    def sample(self, x, y):
        (value, gx, gy), bad = self._compiled.evaluate_masked((x, y))
        return value, gx, gy, bad


class GridField(ScalarField):
    """Uniform lattice of finite samples; queries must stay inside the hull."""

    def __init__(self, origin, spacing, values):
        self.x0, self.y0 = _real_pair("grid origin", origin)
        self.hx, self.hy = _real_pair("grid spacing", spacing)
        if not (self.hx > 0 and self.hy > 0):
            raise InputError("grid spacing", "must be positive")
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 2 or min(self.values.shape) < 3:
            raise InputError("grid", "backing needs at least a 3x3 lattice")
        self.nx, self.ny = self.values.shape
        self.x1 = self.x0 + (self.nx - 1) * self.hx
        self.y1 = self.y0 + (self.ny - 1) * self.hy
        if not np.isfinite([self.x0, self.y0, self.x1, self.y1]).all():
            raise InputError("grid corners", "(origin and far end) must be finite")
        if not np.all(np.isfinite(self.values)):
            raise InputError("grid samples", "must be finite")
        self._dx = self._nodal_derivative(axis=0) / self.hx
        self._dy = self._nodal_derivative(axis=1) / self.hy

    def _nodal_derivative(self, axis):
        v = self.values if axis == 0 else self.values.T
        d = np.empty_like(v)
        d[1:-1] = 0.5 * (v[2:] - v[:-2])
        # second-order one-sided stencils at the edges
        d[0] = -1.5 * v[0] + 2.0 * v[1] - 0.5 * v[2]
        d[-1] = 1.5 * v[-1] - 2.0 * v[-2] + 0.5 * v[-3]
        return d if axis == 0 else d.T

    def _read(self, x, y):
        """`sample`'s values, with one raise if any point is outside."""
        *values, outside = self.sample(x, y)
        if np.any(outside):
            raise OutsideDomainError("query point outside grid hull")
        return values

    def value_array(self, x, y):
        return self._read(x, y)[0]

    def gradient_array(self, x, y):
        return tuple(self._read(x, y)[1:])

    def sample(self, x, y):
        """Bilinear reads of the samples and of their nodal derivatives."""
        tolx, toly = 1e-9 * self.hx, 1e-9 * self.hy
        # written as "inside" so that NaN coordinates count as outside;
        # a point outside reads the cell at the origin
        outside = np.logical_not((x >= self.x0 - tolx) & (x <= self.x1 + tolx)
                                 & (y >= self.y0 - toly) & (y <= self.y1 + toly))
        fx = np.clip((np.where(outside, self.x0, x) - self.x0) / self.hx,
                     0.0, self.nx - 1.0)
        fy = np.clip((np.where(outside, self.y0, y) - self.y0) / self.hy,
                     0.0, self.ny - 1.0)
        ix = np.minimum(fx.astype(int), self.nx - 2)
        iy = np.minimum(fy.astype(int), self.ny - 2)
        tx, ty = fx - ix, fy - iy
        return (*((1 - tx) * (1 - ty) * t[ix, iy] + tx * (1 - ty) * t[ix + 1, iy]
                  + (1 - tx) * ty * t[ix, iy + 1] + tx * ty * t[ix + 1, iy + 1]
                  for t in (self.values, self._dx, self._dy)), outside)


# ---------------------------------------------------------------------------
# Surface pair
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Domain:
    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        store_reals(self, "x0", "x1", "y0", "y1")
        spans = self.x1 - self.x0, self.y1 - self.y0     # floats: no raise
        if not all(0 < span < math.inf for span in spans):  # corners finite
            raise InputError("domain", "needs x1 - x0 and y1 - y0 positive and finite")

    def contains(self, p):
        """Whether p = (x, y) lies in the rectangle; elementwise on arrays."""
        tol = 1e-9 * max(self.x1 - self.x0, self.y1 - self.y0)
        x, y = p
        return ((self.x0 - tol <= x) & (x <= self.x1 + tol)
                & (self.y0 - tol <= y) & (y <= self.y1 + tol))

    def lattice(self, nx, ny):
        _resolution(nx, ny)
        return (np.linspace(self.x0, self.x1, nx),
                np.linspace(self.y0, self.y1, ny))

    def cells(self, nx, ny):
        _resolution(nx, ny)
        hx = (self.x1 - self.x0) / nx
        hy = (self.y1 - self.y0) / ny
        xc = self.x0 + (np.arange(nx) + 0.5) * hx
        yc = self.y0 + (np.arange(ny) + 0.5) * hy
        return xc, yc, hx, hy


def _resolution(nx, ny):
    if not (all(isinstance(n, numbers.Integral) and n >= 2 for n in (nx, ny))
            and int(nx) * int(ny) <= MAX_COUNT):
        raise InputError("resolution", f"must be two integers NX, NY >= 2 with "
                         f"NX * NY <= {MAX_COUNT}, got {nx!r}x{ny!r}")


class SurfacePair:
    """Ordered pair (z1, z2) of scalar fields with w = z2 - z1 > 0.

    A grid's hull must hold the domain; positivity is checked on a
    validation lattice at construction (default 64x64) and re-checked at
    every queried point.  Two expression surfaces are compiled together on
    first use: one function gives both.
    """

    def __init__(self, z1: ScalarField, z2: ScalarField, domain, validation=64):
        self.z1 = z1
        self.z2 = z2
        self.domain = domain if isinstance(domain, Domain) else Domain(*domain)
        for name, f in (("z1", z1), ("z2", z2)):
            if isinstance(f, GridField) and f.sample(
                    *np.meshgrid(*self.domain.lattice(2, 2)))[-1].any():
                raise InputError(name, f"covers [{f.x0:.6g}, {f.x1:.6g}] x "
                                 f"[{f.y0:.6g}, {f.y1:.6g}], which does not "
                                 "contain the domain")
        if validation:
            xs, ys = self.domain.lattice(validation, validation)
            gx, gy = np.meshgrid(xs, ys, indexing="ij")
            with np.errstate(all="ignore"):
                z1, z2 = _expr.as_arrays(self.defined_heights(gx, gy), gx.shape)
            w = z2 - z1
            if not np.all(w > 0):
                i = np.unravel_index(int(np.argmin(w)), w.shape)
                raise SurfaceValidationError(
                    f"w = z2 - z1 is {w[i]:.6g} <= 0 at "
                    f"({gx[i]:.6g}, {gy[i]:.6g})")

    # compiled on first use; None unless both surfaces are expressions
    _heights = cached_property(lambda self: self._compile("tree"))
    _surfaces = cached_property(lambda self: self._compile("tree", "dx", "dy"))

    def _compile(self, *parts):
        pair = (self.z1, self.z2)
        if all(isinstance(f, ExpressionField) for f in pair):
            return _expr.Compiled(*(getattr(f, p) for f in pair for p in parts))

    def width(self, p) -> float:
        if not self.domain.contains(p):
            raise OutsideDomainError(f"point {p} outside domain")
        x, y = (np.asarray(c, dtype=float) for c in p)
        w = float(self.z2.value_array(x, y) - self.z1.value_array(x, y))
        if w <= 0:
            raise SurfaceValidationError(f"non-positive width {w:.6g} at {p}")
        return w

    def heights(self, x, y):
        """((z1, z2), bad) on float arrays of points, on every kind of pair:
        two expressions read by their compiled function, any other pair as
        `surfaces` reads it.  Never raises (its caller sets np.errstate);
        `bad` masks the points where either is undefined, or is None if none is."""
        if self._heights is None:
            (z1, _, _, z2, _, _), bad = self.surfaces(x, y)
            return (z1, z2), bad if np.count_nonzero(bad) else None
        return self._heights.run(x, y)

    def defined_heights(self, x, y):
        """(z1, z2) from `heights`; where either is undefined, z1 and then z2
        are re-read by `value_array`, whose error names the point."""
        (z1, z2), bad = self.heights(x, y)
        if bad is not None and np.count_nonzero(bad):
            self.z1.value_array(x, y)
            self.z2.value_array(x, y)
        return z1, z2

    def surfaces(self, x, y):
        """Both surfaces and their gradients on float arrays of points,
        read as `Compiled.run` reads them when both are expressions, else
        by each field's `sample`: ((z1, g1x, g1y, z2, g2x, g2y), bad), with
        the values and mask of `ScalarField.sample` bit for bit."""
        if self._surfaces is None:
            *s1, bad1 = self.z1.sample(x, y)
            *s2, bad2 = self.z2.sample(x, y)
            return (*s1, *s2), bad1 | bad2
        return self._surfaces.run(x, y)

    def sample(self, x, y):
        """Width and both surface gradients on arrays of points.

        Returns (w, (g1x, g1y), (g2x, g2y), bad).  The mask `bad` marks the
        points where `width` or a gradient would raise: outside the domain,
        outside a grid's hull, an expression undefined there, or w <= 0.
        The other values are meaningless at those points.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        with np.errstate(all="ignore"):
            values, bad = self.surfaces(x, y)
        z1, g1x, g1y, z2, g2x, g2y = _expr.as_arrays(
            values, np.broadcast_shapes(x.shape, y.shape))
        with np.errstate(invalid="ignore"):
            w = z2 - z1
            outside = ~self.domain.contains((x, y)) | ~(w > 0)
        return w, (g1x, g1y), (g2x, g2y), outside if bad is None else outside | bad


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrameData:
    """Frame of a surface pair at one point or at many: unit vectors xhat
    along grad w and yhat along gradperp w, tilt psi, slopes m1, m2 and
    their mean mu.  At one point the fields are floats, pairs of floats and
    a bool; from frame_field they are arrays of one shape (pairs of arrays
    for the vectors), and the flag is a boolean mask."""

    xhat: tuple
    yhat: tuple
    psi: float
    m1: float
    m2: float
    mu: float
    degenerate_frame: bool = False

    def basis(self):
        """B = [xhat yhat] as columns: one 2x2 matrix or a (..., 2, 2) stack."""
        return np.stack([np.stack(self.xhat, -1), np.stack(self.yhat, -1)], -1)


@dataclass(frozen=True)
class PlaneConfig:
    """Two planes given by their normals, plus the projection direction."""

    n1: np.ndarray
    n2: np.ndarray
    zdir: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))

    def __post_init__(self):
        for name in ("n1", "n2", "zdir"):
            object.__setattr__(self, name, unit_vector(name, getattr(self, name)))


def unit_vector(name, v):
    """v / sqrt(v.v), as np.linalg.norm computes it; an InputError naming
    `name` unless v.v is a normal float (a subnormal one has lost digits)."""
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore"):    # an overflow is refused below
        square = float(v.dot(v))
    if not sys.float_info.min <= square < math.inf:
        raise InputError(name, f"must be a vector whose squared length is in "
                         f"[{sys.float_info.min!r}, inf), got "
                         f"{tuple(v.tolist())}")
    return v / math.sqrt(square)


@dataclass(frozen=True)
class PlaneFrame:
    xhat: np.ndarray
    yhat: np.ndarray
    zhat: np.ndarray
    psi: float
    m1: float
    m2: float
    parallel: bool = False


def _perp_to(z):
    """Deterministic unit vector orthogonal to z (used when the common
    normal of parallel planes is along the projection direction)."""
    cand = np.array([0.0, 1.0, 0.0]) - z[1] * z
    if np.linalg.norm(cand) < 1e-6:
        cand = np.array([1.0, 0.0, 0.0]) - z[0] * z
    return cand / np.linalg.norm(cand)


def frame_for_planes(cfg: PlaneConfig) -> PlaneFrame:
    """Adapted frame, tilt and slopes for a two-plane configuration.

    The intersection direction n = n1 x n2 / |n1 x n2| gives the tilt
    psi = arcsin(n.zhat); the frame is xhat = n x zhat / |n x zhat|,
    yhat = zhat x xhat, and the slopes solve Z = m_i X in the rotated
    frame.  Parallel planes fall back to the frame built from the common
    normal (a,b,c): n = (-b,a,0)/sqrt(a^2+b^2), or (0,1,0) when a=b=0,
    giving psi = 0 and m1 = m2.

    Raises DegenerateConfigError when the intersection line is parallel
    to the projection direction (|psi| = pi/2) or parallel planes contain
    the projection direction.
    """
    n1, n2, z = cfg.n1, cfg.n2, cfg.zdir
    cross = np.cross(n1, n2)
    norm_cross = float(np.linalg.norm(cross))

    parallel = norm_cross < EPS_PARALLEL
    if parallel:
        # parallel planes; align the normals before reading components
        nc = n2 if float(np.dot(n1, n2)) >= 0 else -n2
        c = float(np.dot(nc, z))
        if abs(c) < EPS_PARALLEL:
            raise DegenerateConfigError(
                "parallel planes contain the projection direction", psi=math.pi / 2)
        if float(np.linalg.norm(nc - c * z)) > EPS_PARALLEL:
            n = np.cross(z, nc) / float(np.linalg.norm(np.cross(z, nc)))
        else:
            n = _perp_to(z)
    else:
        n = cross / norm_cross
    sinpsi = max(-1.0, min(1.0, float(np.dot(n, z))))
    psi = math.asin(sinpsi)
    if not parallel and float(np.linalg.norm(np.cross(n, z))) < EPS_PARALLEL:
        raise DegenerateConfigError(
            "intersection line parallel to the projection direction",
            psi=math.copysign(math.pi / 2, sinpsi))

    xhat = np.cross(n, z)
    xhat = xhat / float(np.linalg.norm(xhat))
    yhat = np.cross(z, xhat)

    sp, cp = math.sin(psi), math.cos(psi)
    slopes = []
    for ni in (n1, n2):
        den = float(np.dot(ni, yhat)) * sp - float(np.dot(ni, z)) * cp
        if abs(den) < EPS_PARALLEL:
            raise DegenerateConfigError(
                "plane is vertical in the adapted frame (infinite slope)",
                psi=psi)
        slopes.append(float(np.dot(ni, xhat)) / den)
    return PlaneFrame(xhat, yhat, np.asarray(z), psi, slopes[0], slopes[1],
                      parallel=parallel)


def _unit_clip(v):
    """max(-1, min(1, v)) elementwise, NaN mapping to 1 as it does there."""
    v = np.where(v < 1.0, v, 1.0)
    return np.where(v > -1.0, v, -1.0)


def frame_field(g1, g2) -> FrameData:
    """Frame bundles from surface gradients g1 = (g1x, g1y), g2 = (g2x, g2y),
    given as arrays of one shape (or broadcastable to one).

    Where |grad w| < EPS_GRAD the frame along grad w is unreliable; the
    tangent planes are parallel there, so the frame is built from grad z1,
    or is the x axis when that vanishes too, with psi = 0: flagged
    degenerate_frame.  Elsewhere both slope denominators equal
    cross12^2/(s1 s2) + |grad w| cos(psi) > 0.  Whether the tensor is
    defined is decided by effective_tensor from psi alone.
    """
    g1x, g1y = (np.asarray(c, dtype=float) for c in g1)
    g2x, g2y = (np.asarray(c, dtype=float) for c in g2)
    with np.errstate(all="ignore"):
        gwx, gwy = g2x - g1x, g2y - g1y
        gperp = (-gwy, gwx)
        norm_gw = np.hypot(gwx, gwy)

        cross12 = g1x * (-g2y) + g1y * g2x          # grad(z1).gradperp(z2)
        s1 = np.sqrt(1.0 + g1x * g1x + g1y * g1y)
        s2 = np.sqrt(1.0 + g2x * g2x + g2y * g2y)
        sinpsi = _unit_clip(cross12 / (s1 * s2))
        psi = np.arcsin(sinpsi)

        # generic frame along grad w
        xhat = (gwx / norm_gw, gwy / norm_gw)
        cp = np.cos(psi)
        slopes = []
        for gx, gy in ((g1x, g1y), (g2x, g2y)):
            num = gx * gwx + gy * gwy
            den = (gx * gperp[0] + gy * gperp[1]) * sinpsi + norm_gw * cp
            slopes.append(num / den)

        # gradients (nearly) cancel: parallel tangent planes share a slope
        # and take their frame from grad z1
        parallel = norm_gw < EPS_GRAD
        n1 = np.hypot(g1x, g1y)
        along_g1 = n1 > EPS_GRAD
        pxhat = (np.where(along_g1, g1x / n1, 1.0),
                 np.where(along_g1, g1y / n1, 0.0))
        pslopes = [gx * pxhat[0] + gy * pxhat[1]
                   for gx, gy in ((g1x, g1y), (g2x, g2y))]

        xhat = tuple(np.where(parallel, p, g) for p, g in zip(pxhat, xhat))
        yhat = (-xhat[1], xhat[0])     # xhat turned by pi/2
        m1, m2 = (np.where(parallel, p, g) for p, g in zip(pslopes, slopes))
        psi = np.where(parallel, 0.0, psi)
        mu = 0.5 * (m1 + m2)
    return FrameData(xhat, yhat, psi, m1, m2, mu, degenerate_frame=parallel)


def frame_from_gradients(g1, g2) -> FrameData:
    """Frame bundle at one point: frame_field on scalars."""
    fd = frame_field(g1, g2)
    return FrameData(*(tuple(c.item() for c in v) if isinstance(v, tuple)
                       else v.item()
                       for v in (getattr(fd, f.name) for f in fields(fd))))


def frame_from_slopes(psi, m1, m2) -> FrameData:
    """Frame bundle of a plane pair given directly by its tilt and slopes,
    in the unit frame (xhat, yhat) = (x axis, y axis)."""
    with np.errstate(over="ignore"):  # an overflow: rho_omega marks the point
        mu = 0.5 * (m1 + m2)
    return FrameData((1.0, 0.0), (0.0, 1.0), psi, m1, m2, mu)
