import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from effdiff import pde
from effdiff.geometry import ExpressionField, FrameData, InputError, SurfacePair
from effdiff.pde import (
    PdeGrid, StabilityError, evolve, stability_bound,
    step_finite_rate, step_infinite_rate, to_cartesian,
)
from effdiff.tensor import EffectiveTensor, MediumParams

MED = MediumParams(1.0)


def radial_pair():
    return SurfacePair(ExpressionField("sin(r)-3/2"),
                       ExpressionField("cos(2*r)+3/2"),
                       (-8, 8, -8, 8))


def channel_pair(ylen=1.0):
    return SurfacePair(ExpressionField("0"),
                       ExpressionField("2+sin(x)"),
                       (0, 2 * math.pi, 0, ylen))


def flat_slab(domain, nx, ny, p0=None, med=MED):
    """Grid of the flat slab z1 = 0, z2 = 1 over domain."""
    pair = SurfacePair(ExpressionField("0"),
                       ExpressionField("1"), domain)
    return PdeGrid.from_surfaces(pair, med, nx, ny, p0=p0)


def test_flat_slab_grid_is_unit_width_and_isotropic():
    grid = flat_slab((0, 1, 0, 1), 8, 6, med=MediumParams(0.7))
    assert np.array_equal(grid.w, np.ones((8, 6)))
    assert np.array_equal(grid.dten, np.broadcast_to(0.7 * np.eye(2), (8, 6, 2, 2)))
    assert np.array_equal(grid.p, grid.w)
    assert grid.d0 == 0.7


def test_to_cartesian_is_similarity_transform():
    s = 1 / math.sqrt(2)
    t = EffectiveTensor(np.array([[1.0, 0.2], [-0.3, 0.8]]),
                        FrameData((s, s), (-s, s), 0.1, 0.0, 1.0, 0.5))
    b = np.array([[s, -s], [s, s]])
    assert np.allclose(to_cartesian(t), b @ t.coeffs @ b.T, atol=1e-15)


def test_proportional_to_width_is_stationary():
    grid = PdeGrid.from_surfaces(radial_pair(), MED, 24, 24)  # p0 = w
    p0 = grid.p.copy()
    dt = 0.5 * stability_bound(grid)
    grid = evolve(grid, dt, 300, mode="finite")
    assert np.max(np.abs(grid.p - p0)) <= 1e-13 * p0.max()
    grid2 = PdeGrid.from_surfaces(radial_pair(), MED, 24, 24)
    grid2 = evolve(grid2, dt, 300, mode="infinite")
    assert np.max(np.abs(grid2.p - p0)) <= 1e-13 * p0.max()


def test_mass_conserved_and_density_nonnegative():
    def bump(x, y):
        return 1.0 + np.exp(-((x - 1) ** 2 + y**2))

    grid = PdeGrid.from_surfaces(radial_pair(), MED, 32, 32, p0=bump)
    m0 = grid.mass()
    dt = 0.5 * stability_bound(grid)
    mins = []

    def watch(_, g):
        mins.append(g.p.min())

    grid = evolve(grid, dt, 1000, mode="finite", callback=watch)
    assert abs(grid.mass() - m0) / m0 <= 1e-12
    assert min(mins) >= 0.0


def _fourier_decay_error(nx):
    k = 2 * math.pi
    grid = flat_slab((0, 1, 0, 0.25), nx, 4,
                     p0=lambda x, y: 1 + 0.01 * np.cos(k * x))
    dt = 0.05 * grid.hx**2
    steps = int(round(0.03 / dt))

    def amplitude(g):
        mode = np.cos(k * g.xc)[:, None]
        return float((g.p * mode).sum()) * 2 / (g.nx * g.ny)

    a0 = amplitude(grid)
    grid = evolve(grid, dt, steps, mode="finite")
    a1 = amplitude(grid)
    rate = math.log(a0 / a1) / (steps * dt)
    return abs(rate - k * k)


def test_flat_slab_fourier_rate_and_mesh_convergence():
    err32 = _fourier_decay_error(32)
    err64 = _fourier_decay_error(64)
    assert err32 < 0.01 * (2 * math.pi) ** 2
    assert 3.0 <= err32 / err64 <= 5.0


def test_gaussian_variance_grows_linearly():
    s0 = 0.4
    grid = flat_slab((-3, 3, -3, 3), 64, 64,
                     p0=lambda x, y: np.exp(-(x**2 + y**2) / (2 * s0**2)))
    dt = 0.5 * stability_bound(grid)
    steps = int(round(0.2 / dt))
    grid = evolve(grid, dt, steps, mode="finite")
    t = steps * dt
    for axis in (0, 1):
        assert grid.variance(axis) == pytest.approx(s0**2 + 2 * t, rel=0.02)


def test_infinite_rate_equals_finite_rate_on_flat_slab():
    grid = flat_slab((0, 1, 0, 1), 16, 16,
                     p0=lambda x, y: 1 + 0.3 * np.cos(np.pi * x) * np.cos(np.pi * y))
    dt = 0.5 * stability_bound(grid)
    a = step_finite_rate(grid, dt)
    b = step_infinite_rate(grid, dt)
    assert np.max(np.abs(a.p - b.p)) <= 1e-14 * grid.p.max()


def test_channel_relaxes_to_width_profile():
    rng = np.random.default_rng(12)
    grid = PdeGrid.from_surfaces(channel_pair(), MED, 32, 2,
                                 p0=rng.uniform(0.5, 2.0, size=(32, 2)))
    dt = 0.5 * stability_bound(grid, infinite_rate=True)
    grid = evolve(grid, dt, 45000, mode="infinite")
    c = grid.p.sum() / grid.w.sum()
    assert np.max(np.abs(grid.p / (c * grid.w) - 1.0)) < 1e-8


def test_finite_rate_spreads_no_faster_than_infinite_along_x():
    def bump(x, y):
        return np.exp(-((x - math.pi) ** 2 + (y - 1) ** 2) / (2 * 0.35**2))

    base = PdeGrid.from_surfaces(channel_pair(2.0), MED, 48, 8, p0=bump)
    dt = 0.4 * min(stability_bound(base), stability_bound(base, infinite_rate=True))
    fin = inf = base
    for _ in range(10):
        fin = evolve(fin, dt, 100, mode="finite")
        inf = evolve(inf, dt, 100, mode="infinite")
        assert fin.variance(0) <= inf.variance(0) + 1e-12


def test_stability_bound_enforced():
    grid = flat_slab((0, 1, 0, 1), 16, 16)
    with pytest.raises(StabilityError):
        step_finite_rate(grid, 10 * stability_bound(grid))
    with pytest.raises(StabilityError):
        step_infinite_rate(grid, 10 * stability_bound(grid, infinite_rate=True))


@pytest.mark.parametrize("domain", [(0, 1e200, 0, 1e200), (0, 1e-300, 0, 1)],
                         ids=["bound-overflows", "bound-underflows"])
def test_a_step_that_is_not_positive_and_finite_is_refused(domain):
    grid = flat_slab(domain, 4, 4)
    bound = stability_bound(grid)       # h * h: never an OverflowError
    assert bound in (0.0, math.inf)
    # half the bound is a numerical failure, a given step a refused input
    with pytest.raises(StabilityError, match="not positive and finite"):
        evolve(grid, None, 3)
    for dt in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InputError, match="not positive and finite") as info:
            evolve(grid, dt, 3)
        assert info.value.field == "dt"


def test_a_domain_whose_h_squared_is_subnormal_stays_stationary():
    # h = 2.5e-160: h^2 and the step are subnormal, the weights are not
    grid = flat_slab((0, 1e-159, 0, 1e-159), 4, 4)
    out = evolve(grid, None, 3)
    assert np.abs(out.p - grid.p).max() <= 1e-15


def test_an_unknown_mode_is_refused():
    grid = flat_slab((0, 1, 0, 1), 4, 4)
    with pytest.raises(InputError, match="'finit'") as info:
        evolve(grid, None, 3, mode="finit")
    assert info.value.field == "mode"


def test_bad_initial_density_rejected():
    with pytest.raises(InputError, match=r"^p0 must have the grid's shape "
                       r"\(8, 8\), got \(3, 3\)$") as info:
        flat_slab((0, 1, 0, 1), 8, 8, p0=np.ones((3, 3)))
    assert info.value.field == "p0"
    with pytest.raises(InputError, match="^p0 must be finite") as info:
        flat_slab((0, 1, 0, 1), 8, 8, p0=lambda x, y: np.sin(x) - 2.0)
    assert info.value.field == "p0"


@pytest.mark.parametrize("nx,ny", [(1, 4), (4, 1)])
def test_a_grid_of_fewer_than_2x2_cells_is_refused(nx, ny):
    with pytest.raises(InputError, match=f"^resolution must be two integers "
                       f"NX, NY >= 2 with NX \\* NY <= 1000000000000000, "
                       f"got {nx}x{ny}$") as info:
        flat_slab((0, 1, 0, 1), nx, ny)
    assert info.value.field == "resolution"


@pytest.mark.parametrize("p0", [
    np.full((4, 4), np.nan), lambda x, y: np.where(x > 0.5, np.inf, 1.0),
    lambda x, y: np.full_like(x, -np.inf)],
    ids=["nan-array", "infinite-callable", "minus-infinite-callable"])
def test_an_initial_density_that_is_not_finite_is_refused(p0):
    with pytest.raises(InputError,
                       match="^p0 must be finite and non-negative$") as info:
        flat_slab((0, 1, 0, 1), 4, 4, p0=p0)
    assert info.value.field == "p0"


@pytest.mark.parametrize("n_steps", [-1, 2.5, "3", None, 10**16],
                         ids=["minus-1", "fraction", "text", "none", "1e16"])
def test_a_step_count_that_is_not_an_integer_from_0_is_refused(n_steps):
    grid = flat_slab((0, 1, 0, 1), 4, 4)

    def stop(k, g):     # a count that is taken would run for years
        if k:
            raise RuntimeError(f"step {k} of {n_steps} ran")

    with pytest.raises(InputError, match="^n_steps must be an integer") as info:
        evolve(grid, None, n_steps, callback=stop)
    assert info.value.field == "n_steps"


def test_evolve_checks_the_stability_bound_once(monkeypatch):
    import effdiff.pde as pde
    calls = []
    bound = pde.stability_bound

    def counting(grid, infinite_rate=False):
        calls.append(infinite_rate)
        return bound(grid, infinite_rate=infinite_rate)

    monkeypatch.setattr(pde, "stability_bound", counting)
    grid = PdeGrid.from_surfaces(radial_pair(), MED, 16, 16,
                                 p0=lambda x, y: np.exp(-0.1 * (x * x + y * y)))
    out = evolve(grid, None, 40, mode="finite")
    assert calls == [False]
    dt = 0.5 * bound(grid)
    assert out.t == 40 * dt
    out = evolve(grid, dt, 25, mode="infinite")
    assert calls == [False, True]
    with pytest.raises(StabilityError):
        evolve(grid, 3 * dt, 25, mode="finite")
    assert calls == [False, True, False]


def test_evolve_matches_single_steps_and_reports_time():
    grid = PdeGrid.from_surfaces(radial_pair(), MED, 16, 12,
                                 p0=lambda x, y: np.exp(-0.1 * (x * x + y * y)))
    dt = 0.4 * stability_bound(grid)
    seen = []
    out = evolve(grid, dt, 30, callback=lambda k, g: seen.append((k, g)))
    # the grid as given, once the step is checked, then after each step
    assert seen[0][1] is grid
    assert [(k, g.t) for k, g in seen] == [(k, k * dt) for k in range(31)]
    one = grid
    for _ in range(30):
        one = step_finite_rate(one, dt)
    assert np.max(np.abs(one.p - out.p)) <= 1e-15 * grid.p.max()
    assert one.t == pytest.approx(out.t, rel=1e-14)
    assert grid.t == 0.0


# The matrix-free explicit step as it was written before the face slopes
# were shared with the one-sided edge gradients; kept verbatim as the
# reference of evolve's nine-weight step.
def _cell_gradients(u, hx, hy):
    gx = np.empty_like(u)
    gx[1:-1, :] = (u[2:, :] - u[:-2, :]) / (2 * hx)
    gx[0, :] = (u[1, :] - u[0, :]) / hx
    gx[-1, :] = (u[-1, :] - u[-2, :]) / hx
    gy = np.empty_like(u)
    gy[:, 1:-1] = (u[:, 2:] - u[:, :-2]) / (2 * hy)
    gy[:, 0] = (u[:, 1] - u[:, 0]) / hy
    gy[:, -1] = (u[:, -1] - u[:, -2]) / hy
    return gx, gy


def _step(grid, dt, faces):
    """Density after one explicit Euler step with face coefficients `faces`."""
    a11, a12, a22, a21 = faces
    hx, hy = grid.hx, grid.hy
    u = grid.p / grid.w
    gx_cell, gy_cell = _cell_gradients(u, hx, hy)

    # face fluxes: normal difference plus averaged transverse gradient
    fx = (a11 * ((u[1:, :] - u[:-1, :]) / hx)
          + a12 * (0.5 * (gy_cell[:-1, :] + gy_cell[1:, :])))
    fy = (a22 * ((u[:, 1:] - u[:, :-1]) / hy)
          + a21 * (0.5 * (gx_cell[:, :-1] + gx_cell[:, 1:])))

    fx /= hx
    fy /= hy
    div = np.zeros_like(grid.p)
    div[:-1, :] += fx
    div[1:, :] -= fx
    div[:, :-1] += fy
    div[:, 1:] -= fy
    return grid.p - dt * div


def _probe(grid, dt, faces):
    """The reference step's nine weights, b[di + 1, dj + 1][i, j] on
    u[i + di, j + dj], from nine colourings: u = 1 where i % 3 and j % 3
    take one pair of values, else 0.  Of a cell's nine neighbours exactly
    one has each colour, and one off the grid reads 0, its weight."""
    i, j = np.indices(grid.p.shape)
    b = np.zeros((3, 3) + grid.p.shape)
    for ci, cj in itertools.product(range(3), repeat=2):
        colour = (i % 3 == ci) & (j % 3 == cj)
        out = _step(replace(grid, p=grid.w * colour), dt, faces)  # u = colour
        for di, dj in itertools.product((-1, 0, 1), repeat=2):
            hit = ((i + di) % 3 == ci) & ((j + dj) % 3 == cj)
            b[di + 1, dj + 1][hit] = out[hit]
    return b


def _bump(x, y):
    return np.exp(-4 * (x - 1) ** 2 - 4 * (y - 1) ** 2)


def tilted_grid(nx, ny, p0=_bump):
    """Tilted waves whose tensor has |D12| up to 0.38."""
    pair = SurfacePair(ExpressionField("6*x+0.5*sin(3*y)"),
                       ExpressionField("6*y+20+0.5*cos(3*x)"),
                       (0, 2, 0, 2))
    return PdeGrid.from_surfaces(pair, MED, nx, ny, p0=p0)


def waves_grid(nx, ny):
    """The waves example, with the solve example's bump."""
    pair = SurfacePair(ExpressionField("cos(x)"), ExpressionField("cos(y)+5/2"),
                       (0, 2 * math.pi, 0, 2 * math.pi))
    return PdeGrid.from_surfaces(
        pair, MED, nx, ny, p0=lambda x, y: np.exp(-(x - 3) ** 2 - (y - 3) ** 2))


REFERENCE_CASES = [
    pytest.param(make, nx, ny, mode, id=f"{make.__name__}-{nx}x{ny}-{mode}")
    for make in (tilted_grid, waves_grid)
    for nx, ny in [(2, 2), (2, 7), (3, 3), (16, 12)]
    for mode in ("finite", "infinite")]


@pytest.mark.parametrize("make,nx,ny,mode", REFERENCE_CASES)
def test_the_nine_weights_are_a_probe_of_the_reference_step(make, nx, ny, mode):
    grid = make(nx, ny)
    infinite_rate = mode == "infinite"
    if make is tilted_grid and not infinite_rate:
        assert np.abs(grid.dten[..., 0, 1]).max() > 0.1
    dt = 0.5 * stability_bound(grid, infinite_rate=infinite_rate)
    faces = pde._faces(grid, infinite_rate)
    weights = pde._stencil(grid, faces, dt).reshape(3, 3, nx, ny + 2)
    assert not weights[..., [0, -1]].any()          # the pad columns
    probe = _probe(grid, dt, faces)
    for k in np.ndindex(3, 3):
        err = np.abs(weights[k][:, 1:-1] - probe[k]).max()
        assert err <= 1e-14 * np.abs(probe[k]).max()


@pytest.mark.parametrize("make,nx,ny,mode", REFERENCE_CASES)
def test_evolve_follows_the_reference_step_to_rounding(make, nx, ny, mode):
    # the nine weights sum the divergence in another order than the
    # face fluxes do, so the two runs part in the last bits only
    grid = make(nx, ny)
    infinite_rate = mode == "infinite"
    dt = 0.5 * stability_bound(grid, infinite_rate=infinite_rate)
    faces = pde._faces(grid, infinite_rate)
    ref = grid.p
    for _ in range(200):
        ref = _step(replace(grid, p=ref), dt, faces)
    out = evolve(grid, dt, 200, mode=mode)
    assert not np.array_equal(out.p, grid.p)
    assert np.abs(out.p - ref).max() <= 1e-13 * ref.max()


def test_a_grid_handed_to_the_callback_keeps_its_density():
    grid = tilted_grid(9, 7)
    seen = []
    out = evolve(grid, None, 12,
                 callback=lambda k, g: seen.append((g, g.p.copy())))
    assert len(seen) == 13
    for g, p in seen:       # no later step wrote into a density handed out
        assert np.array_equal(g.p, p)
    assert np.array_equal(out.p, seen[-1][1])
    assert out.p.shape == (9, 7) and out.p.flags.c_contiguous


@pytest.mark.parametrize("mode", ["finite", "infinite"])
def test_criterion_9_holds_off_the_diagonal(mode):
    # criterion 9's mass and stationarity bounds, on a tensor with |D12|
    # up to 0.38 (the criterion itself runs the radial pair, whose D12 = 0)
    grid = tilted_grid(32, 32, p0=lambda x, y: 1.0 + np.exp(-(x**2 + y**2)))
    infinite_rate = mode == "infinite"
    dt = 0.5 * stability_bound(grid, infinite_rate=infinite_rate)
    out = evolve(grid, dt, 1000, mode=mode)
    assert abs(out.mass() - grid.mass()) / grid.mass() <= 1e-12
    stat = tilted_grid(32, 32, p0=None)     # p0 = w
    out = evolve(stat, dt, 1000, mode=mode)
    assert np.abs(out.p - stat.p).max() <= 1e-13 * stat.p.max()
