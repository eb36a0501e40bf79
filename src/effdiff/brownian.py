"""Reflected Brownian motion between two confining surfaces.

Walkers take Gaussian steps with per-axis variance 2 D0 dt and reflect
specularly off the surfaces.  The projected tensor is estimated from the
covariance of the total (x, y) displacements over the elapsed time T:

    D_ij = cov(dx_i, dx_j) / (2 T),

with jackknife standard errors over contiguous particle blocks.

Two geometries:

* Slab: the planes z = mu x and z = mu x + gap.  Reflection off a plane
  only folds the normal coordinate with the triangle wave T of period
  2 width (width = gap / sqrt(1 + mu^2)).  Because T(T(a) + xi) = T(+-a + xi)
  and each step xi is symmetric, the final normal coordinate of the walk
  has exactly the law of T(s0 + a), where a is the sum of the normal
  increments; the in-plane increments are independent of it.  So each
  walker is sampled exactly from one isotropic Gaussian 3-vector with
  per-axis variance 2 D0 T: the estimate depends on dt and n_steps only
  through T.  Quantitatively trustworthy: the tensor is position independent.
* SurfacePair: general curved surfaces.  A step that ends outside the
  region is cut where the margin min(z - z1, z2 - z) changes sign, and the
  rest is reflected about the normal of the surface hit there (up to
  MAX_BOUNCES per step).  Each bounce runs one safeguarded Newton search
  (`_crossing`) over all the walkers still outside; its stopping rule
  fixes the last bits of every curved estimate.  Every kept position was
  tested inside both surfaces, so none is clamped and max_overshoot is 0;
  a walker still outside after MAX_BOUNCES stays where its step began (a
  rejected step).  Such a step is a grazing chain, not a double crossing:
  where the region is convex (under a crest of z2, say), a segment
  reflected at a grazing angle meets the same wall again after a few
  percent of its length, so MAX_BOUNCES bounces can leave most of the
  step unused.  The domain only validates the pair and sets the default
  start: it does not confine the walk.  The estimator mixes positions of
  a position-dependent tensor, so results are report-only.  The walk's
  arrays are small, so it pays per numpy call: each read of the surfaces
  is one `SurfacePair.heights` or `.surfaces` call, under one np.errstate
  per walk.  A start where a surface is undefined is refused as outside
  the region; a step that ends there raises that field's own error.

Randomness: one numpy Generator per run, seeded with the job's seed; the
slab draws one (n_particles, 3) block, the curved walk one per step into a
single buffer.  Repeated runs with one seed are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import InputError, SurfacePair, integer, real, store_reals
from .tensor import MediumParams

MAX_BOUNCES = 8
NEWTON_TOL = 1e-14           # crossing search: step or bracket in t
NEWTON_MAX_ITER = 100        # termination bound; searches end far sooner
DOUBLE_CROSS_LIMIT = 1e-3    # abort above this fraction of steps
ROUNDING_MARGIN = 1e6        # least step, in ulp: rounding moves it <= 1e-6


class BrownianError(Exception):
    pass


class StepTooLargeError(BrownianError):
    pass


@dataclass(frozen=True)
class Slab:
    """Region between the planes z = mu x and z = mu x + gap (gap measured
    vertically), 0 <= normal . r <= width.  mu and gap are kept as floats;
    the slab is refused unless both are and 0 < width < inf."""

    mu: float = 0.0
    gap: float = 1.0
    normal: np.ndarray = field(init=False, repr=False, compare=False)
    width: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        store_reals(self, "gap", "mu")
        if not 0 < self.gap < math.inf:
            raise InputError("gap", f"must be positive and finite, got {self.gap!r}")
        s = math.sqrt(1.0 + self.mu * self.mu)
        if not math.isfinite(s):
            raise InputError("mu", f"must have 1 + mu^2 finite, got {self.mu!r}")
        if not self.gap / s > 0:
            raise InputError("gap", f"{self.gap!r} is too thin for mu {self.mu!r}: "
                             "the width gap / sqrt(1 + mu^2) underflows to 0")
        # (-mu, 0, 1) / s, divided once more by its computed norm (a few
        # ulp from 1), whose rounding every seeded slab output carries
        n = np.array([-self.mu, 0.0, 1.0]) / s
        object.__setattr__(self, "normal", n / np.linalg.norm(n))
        object.__setattr__(self, "width", self.gap / s)

    def coordinate(self, r):
        return r @ self.normal

    def midpoint_start(self):
        half = 0.5 * self.width
        return np.array([0.0, 0.0, half / self.normal[2]]) \
            if abs(self.normal[2]) > 1e-12 else half * self.normal


@dataclass(frozen=True)
class McJob:
    """One Monte Carlo run; one that cannot run is refused here.  The
    counts are integers up to MAX_COUNT and the seed an integer >= 0.  Its
    start defaults to the geometry's own: a slab's `midpoint_start`, a
    surface pair's domain centre, half-way between the surfaces.  A dt
    whose steps are lost to rounding is refused: `deviation` (for a slab,
    of one step of T = n_steps dt) must exceed ROUNDING_MARGIN ulp of the
    largest start coordinate (of a slab's width, where the fold rounds)."""

    geometry: object              # Slab or SurfacePair
    d0: float = 1.0
    dt: float = 1e-3
    n_particles: int = 10_000
    n_steps: int = 1_000
    seed: int = 0
    start: tuple | None = None    # (x, y, z); stored as floats
    jackknife_blocks: int = 25

    def __post_init__(self):
        store_reals(self, "dt")
        object.__setattr__(self, "d0", MediumParams(self.d0).d0)
        if self.start is not None:
            object.__setattr__(self, "start", tuple(
                real("start", v) for v in self.start))
        if not 0 < self.dt < math.inf:
            raise InputError("dt", f"= {self.dt:.3g} is not positive and finite")
        n = integer("n_particles", self.n_particles, 2)
        integer("n_steps", self.n_steps, 1)
        blocks = integer("jackknife_blocks", self.jackknife_blocks, 2, n)
        integer("seed", self.seed, 0, math.inf)
        if n - np.diff(_block_bounds(n, blocks)).max() < 2:
            raise InputError("jackknife_blocks", f"must leave at least 2 of {n} "
                             f"particles outside each block, got {blocks}")
        object.__setattr__(self, "start", _start(self.geometry, self.start))
        slab = isinstance(self.geometry, Slab)
        sigma = self.deviation(self.n_steps if slab else 1)
        scale = self.geometry.width if slab else max(map(abs, self.start))
        if not sigma > ROUNDING_MARGIN * math.ulp(scale):
            raise InputError("dt", f"= {self.dt:.3g} is too small: a step of "
                             f"{sigma:.3g} is lost to rounding at coordinates "
                             f"of {scale:.3g}")

    def deviation(self, steps=1):
        """Per-axis deviation sqrt(2 D0 steps dt) of `steps` summed steps."""
        return math.sqrt(2.0 * self.d0 * steps * self.dt)


def _start(geometry, start):
    """`start`, or the geometry's own start if it is None, as floats;
    refused unless finite, strictly inside and where both surfaces are defined."""
    if isinstance(geometry, Slab):
        start = geometry.midpoint_start() if start is None else start
        s0 = float(geometry.coordinate(np.asarray(start, dtype=float)))
        if not (0.0 < s0 < geometry.width):
            raise InputError("start", f"coordinate {s0:.6g} is not strictly "
                             f"inside [0, {geometry.width:.6g}]")
    elif isinstance(geometry, SurfacePair):
        d = geometry.domain
        x, y, z = ((0.5 * (d.x0 + d.x1), 0.5 * (d.y0 + d.y1), None)
                   if start is None else start)
        with np.errstate(all="ignore"):
            (z1, z2), bad = geometry.heights(*np.array([[x], [y]], dtype=float))
        z1, z2 = np.ravel(z1)[0], np.ravel(z2)[0]    # a constant is a scalar
        start = x, y, 0.5 * (z1 + z2) if z is None else z
        if not z1 < start[2] < z2 or not np.isfinite(start).all() or np.any(bad):
            raise InputError("start", "must lie strictly between the surfaces")
    else:
        raise InputError("geometry", "must be a Slab or a SurfacePair: "
                         f"unsupported geometry {type(geometry).__name__}")
    return tuple(map(float, start))


@dataclass(frozen=True)
class McResult:
    estimate: np.ndarray          # 2x2, projected onto (x, y)
    stderr: np.ndarray            # 2x2 jackknife standard errors
    total_time: float
    n_particles: int
    n_steps: int
    double_cross_fraction: float
    rejected_steps: int
    max_overshoot: float          # 0: no kept position lies outside


def _block_bounds(n, blocks):
    """Bounds of the contiguous jackknife blocks of n particles."""
    return np.linspace(0, n, blocks + 1).astype(int)


def _jackknife(disp, total_time, blocks):
    n = disp.shape[0]
    full_cov = np.cov(disp.T, ddof=1)
    estimate = full_cov / (2.0 * total_time)

    bounds = _block_bounds(n, blocks)
    s1 = disp.sum(axis=0)
    s2 = disp.T @ disp
    thetas = np.empty((blocks, 2, 2))
    for b in range(blocks):
        sel = disp[bounds[b]:bounds[b + 1]]
        nb = sel.shape[0]
        nc = n - nb
        s1c = s1 - sel.sum(axis=0)
        s2c = s2 - sel.T @ sel
        cov_c = (s2c - np.outer(s1c, s1c) / nc) / (nc - 1)
        thetas[b] = cov_c / (2.0 * total_time)
    mean = thetas.mean(axis=0)
    se = np.sqrt((blocks - 1) / blocks * ((thetas - mean) ** 2).sum(axis=0))
    return estimate, se


def mc_projected_tensor(job: McJob) -> McResult:
    """Monte Carlo estimate of the projected diffusion tensor.

    Aborts with StepTooLargeError when more than 0.1% of steps cross
    both surfaces within a single time step.  For a slab that fraction is
    the closed-form stationary probability, checked before sampling; for
    curved surfaces it is counted along the walks.
    """
    if isinstance(job.geometry, Slab):
        disp, frac = _run_slab(job)
        stats = {"rejected": 0}
    else:
        disp, stats = _run_surfaces(job)
        total_steps = job.n_particles * job.n_steps
        frac = stats["double_cross"] / total_steps
        if frac > DOUBLE_CROSS_LIMIT:
            raise StepTooLargeError(
                f"{stats['double_cross']} of {total_steps} steps "
                f"({100 * frac:.2f}%) crossed both surfaces; reduce dt")

    total_time = job.n_steps * job.dt
    estimate, se = _jackknife(disp, total_time, job.jackknife_blocks)
    return McResult(estimate, se, total_time, job.n_particles, job.n_steps,
                    frac, stats["rejected"], 0.0)


# ---------------------------------------------------------------------------
# slab geometry: exact sampling of the folded walk
# ---------------------------------------------------------------------------

def double_cross_probability(width, sigma):
    """Probability that one Gaussian step of per-axis deviation sigma,
    taken from a point s uniform across a slab of width `width`, crosses
    both walls: P(|floor((s + xi) / width)| >= 2).

    With a = width / sigma, Q the upper normal tail and
    F(u) = u Q(u) - phi(u) (an antiderivative of Q), this is
    (2 / a) (F(2a) - F(a)).  Below a = 1, where those terms cancel, it is
    1 - (2 erf(a sqrt 2) - erf(a / sqrt 2) + (2 / a) phi(0) e^(-a^2/2)
    expm1(-3a^2/2)), the bracket summed first; 1 at a = 0 (sigma = inf).
    """
    a = width / sigma
    if a < 1.0:
        phi_terms = (2.0 / math.sqrt(2.0 * math.pi) * math.exp(-0.5 * a * a)
                     * math.expm1(-1.5 * a * a) / a) if a else 0.0
        return 1.0 - (2.0 * math.erf(a * math.sqrt(2.0))
                      - math.erf(a / math.sqrt(2.0)) + phi_terms)

    def f(u):
        return (0.5 * u * math.erfc(u / math.sqrt(2.0))
                - math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi))

    return 2.0 / a * (f(2.0 * a) - f(a))


def _fold(s, width):
    """Triangle wave of period 2 width mapping s into [0, width]."""
    v = np.mod(s / width, 2.0)
    return width * np.where(v <= 1.0, v, 2.0 - v)


def _run_slab(job):
    slab = job.geometry
    n = slab.normal
    s0 = float(slab.coordinate(np.asarray(job.start, dtype=float)))
    frac = double_cross_probability(slab.width, job.deviation())
    if frac > DOUBLE_CROSS_LIMIT:
        raise StepTooLargeError(
            f"a step crosses both surfaces with probability {frac:.3g} "
            f"(limit {DOUBLE_CROSS_LIMIT:g}); reduce dt")

    raw = np.random.default_rng(job.seed).standard_normal((job.n_particles, 3))
    raw *= job.deviation(job.n_steps)
    unfolded = s0 + raw @ n
    delta = raw + (_fold(unfolded, slab.width) - unfolded)[:, None] * n
    return delta[:, :2], frac


# ---------------------------------------------------------------------------
# curved surfaces: find the crossing, reflect, repeat
# ---------------------------------------------------------------------------

def _run_surfaces(job):
    pair = job.geometry
    start = np.asarray(job.start, dtype=float)
    sigma = job.deviation()
    rng = np.random.default_rng(job.seed)
    stats = {"double_cross": 0, "rejected": 0}
    r = np.tile(start, (job.n_particles, 1))
    step = np.empty_like(r)
    with np.errstate(all="ignore"):     # for every surface read of the walk
        for _ in range(job.n_steps):
            rng.standard_normal(out=step)
            step *= sigma
            r = _surface_step(pair, r, step, stats)
    return r[:, :2] - start[:2], stats


def _gap_margins(pair, r):
    """phi1 = z - z1 >= 0 and phi2 = z2 - z >= 0 inside the region; a point
    where a surface is undefined raises that field's own error."""
    z1, z2 = pair.defined_heights(r[:, 0], r[:, 1])
    z = r[:, 2]
    return z - z1, z2 - z


def _crossing(pair, r0, delta):
    """Where each segment r0 + t delta leaves the region; r0 is inside,
    r0 + delta is not.  Returns the fraction t at which the margin
    g = min(z - z1, z2 - z) turns negative, whether the surface hit there
    is z2 (z1 wins a tie) and that surface's gradient (gx, gy).

    Safeguarded Newton (Brent 1973) on g, whose slope is that of the
    surface setting the minimum: exact for expressions, interpolated for a
    grid.  It starts from the outside end t = 1, because after a
    reflection t = 0 is itself a root, and keeps a bracket lo <= t <= hi
    with g(lo) >= 0 > g(hi): a Newton step is taken only if it lands
    strictly inside the bracket, otherwise the bracket is bisected.  Each
    walker stops once its step or its bracket is at most NEWTON_TOL; the
    step is tested first, since a converged step may land on the bracket's
    end.  A stopped walker stays at the last point it evaluated, so the
    surface and gradient returned are those of that point, within
    NEWTON_TOL of its root.  Each iteration reads both surfaces at every
    walker from one bare `pair.surfaces` call; a point where one is
    undefined raises BrownianError.
    """
    n = r0.shape[0]
    r0, delta = r0.T, delta.T
    dx, dy, dz = delta
    lo, hi, t = np.zeros(n), np.ones(n), np.ones(n)
    root, active = np.ones(n), np.ones(n, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(NEWTON_MAX_ITER):
            x, y, z = r0 + t * delta
            (z1, g1x, g1y, z2, g2x, g2y), bad = pair.surfaces(x, y)
            if bad is not None and np.count_nonzero(bad):
                k = np.argmax(bad)
                raise BrownianError(f"surface undefined at ({x[k]:.6g}, "
                                    f"{y[k]:.6g}) in a wall-crossing search")
            phi1, phi2 = z - z1, z2 - z
            on2 = phi2 < phi1
            inside = np.minimum(phi1, phi2) >= 0.0
            np.putmask(lo, inside, t)    # in place: half the cost of where
            np.putmask(hi, ~inside, t)
            gx, gy = np.where(on2, g2x, g1x), np.where(on2, g2y, g1y)
            # g / g', the signs of z2's margin and slope cancelled
            newton = t - (z - np.where(on2, z2, z1)) / (dz - gx * dx - gy * dy)
            small = np.abs(newton - t) <= NEWTON_TOL
            step = 0.5 * (lo + hi)
            np.putmask(step, small | ((lo < newton) & (newton < hi)), newton)
            np.putmask(root, active, step)
            np.putmask(active, small | (hi - lo <= NEWTON_TOL), False)
            if not np.count_nonzero(active):
                break
            np.putmask(t, active, step)
    return root, on2, gx, gy


def _surface_step(pair, r, delta, stats):
    """Move each walker from r by delta, reflecting off the surfaces.
    Each bounce searches once, for the walkers still outside: rows `idx`
    of r, which have hit surfaces `hit` (bit 1: z1, bit 2: z2)."""
    out = end = r + delta
    seg_start, seg_delta = r, delta
    for bounce in range(MAX_BOUNCES + 1):
        if bounce:
            out[idx] = end
        phi1, phi2 = _gap_margins(pair, end)
        outside = np.minimum(phi1, phi2) < 0.0
        if not np.count_nonzero(outside):
            break
        idx = idx[outside] if bounce else np.flatnonzero(outside)
        hit = hit[outside] if bounce else 0
        seg_start, seg_delta = seg_start[outside], seg_delta[outside]
        if bounce == MAX_BOUNCES:
            out[idx] = r[idx]
            stats["rejected"] += idx.size
            break

        t, on2, gx, gy = _crossing(pair, seg_start, seg_delta)
        cross = seg_start + t[:, None] * seg_delta
        norm = np.sqrt(1.0 + gx * gx + gy * gy)
        nvec = np.stack([-gx, -gy, np.ones_like(gx)], axis=1) / norm[:, None]

        remaining = (1.0 - t)[:, None] * seg_delta
        reflected = remaining - 2.0 * (remaining * nvec).sum(axis=1)[:, None] * nvec

        surface = on2 + 1    # a second surface hit is a double crossing
        stats["double_cross"] += int(np.count_nonzero(hit ^ surface == 3))
        hit = hit | surface
        seg_start, seg_delta = cross, reflected
        end = cross + reflected
    return out
