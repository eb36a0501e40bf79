import math
import re

import numpy as np
import pytest

from effdiff.expr import EvalDomainError
from effdiff.geometry import (
    DegenerateConfigError, Domain, ExpressionField, GeometryError, GridField,
    InputError, OutsideDomainError, PlaneConfig, SurfacePair,
    SurfaceValidationError, frame_field, frame_for_planes,
)

SQ2 = math.sqrt(2.0)


def make_pair(z1, z2, domain=(-3, 3, -3, 3), **kw):
    return SurfacePair(ExpressionField(z1),
                       ExpressionField(z2), domain, **kw)


def surface_frames(pair, x, y):
    """Frame bundles of the pair at the points (x, y), all defined there,
    with the sampled surface gradients."""
    _, g1, g2, bad = pair.sample(x, y)
    assert not np.any(bad)
    return frame_field(g1, g2), g1, g2


# ---------------------------------------------------------------------------
# frame_for_planes
# ---------------------------------------------------------------------------

def test_planes_wedge():
    cfg = PlaneConfig(np.array([0.0, 0.0, -1.0]), np.array([-1.0, 0.0, 1.0]) / SQ2)
    fr = frame_for_planes(cfg)
    assert fr.psi == pytest.approx(0.0, abs=1e-15)
    assert fr.m1 == pytest.approx(0.0, abs=1e-15)
    assert fr.m2 == pytest.approx(1.0, rel=1e-14)
    assert np.allclose(fr.xhat, [1.0, 0.0, 0.0], atol=1e-15)


def test_planes_parallel_fallback_flat():
    cfg = PlaneConfig(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]))
    fr = frame_for_planes(cfg)
    assert fr.parallel
    assert fr.psi == 0.0
    assert fr.m1 == 0.0 and fr.m2 == 0.0


def test_planes_parallel_fallback_common_slope():
    n = np.array([-1.0, 0.0, 1.0]) / SQ2
    fr = frame_for_planes(PlaneConfig(n, n))
    assert fr.parallel
    assert fr.psi == pytest.approx(0.0, abs=1e-15)
    assert fr.m1 == pytest.approx(fr.m2, abs=1e-15)
    assert abs(fr.m1) == pytest.approx(1.0, rel=1e-14)


def test_planes_vertical_parallel_is_degenerate():
    with pytest.raises(DegenerateConfigError) as err:
        frame_for_planes(PlaneConfig(np.array([0.0, -1.0, 0.0]),
                                     np.array([0.0, 1.0, 0.0])))
    assert abs(err.value.psi) == pytest.approx(math.pi / 2)


@pytest.mark.parametrize("vector", [(0.0, 0.0, 0.0), (1e-320, 0.0, 0.0),
                                    (1e308, 0.0, 1e308), (math.nan, 0.0, 1.0),
                                    # a subnormal squared length: 2e-320
                                    # and just below 2.2250738585072014e-308
                                    (1e-160, 0.0, 1e-160),
                                    (1.05e-154, 0.0, 1.05e-154)])
@pytest.mark.parametrize("name", ["n1", "n2", "zdir"])
def test_a_vector_without_a_positive_finite_length_is_refused(name, vector):
    planes = dict(n1=(0.0, 0.0, 1.0), n2=(0.0, 0.5, 1.0), zdir=(0.0, 0.0, 1.0))
    with pytest.raises(InputError, match=f"^{name} must be a vector") as info:
        PlaneConfig(**{**planes, name: np.array(vector)})
    assert info.value.field == name
    # just above the threshold: a squared length of 2.2472e-308
    c = PlaneConfig(**{**planes, name: np.array([1.06e-154, 0.0, 1.06e-154])})
    np.testing.assert_allclose(getattr(c, name), [SQ2 / 2, 0.0, SQ2 / 2],
                               rtol=1e-15)


def test_planes_vertical_intersection_is_degenerate():
    # both planes contain the horizontal y-axis only; intersection is zhat
    n1 = np.array([1.0, 0.0, 0.0])
    n2 = np.array([1.0, 1.0, 0.0]) / SQ2
    with pytest.raises(DegenerateConfigError) as err:
        frame_for_planes(PlaneConfig(n1, n2))
    assert abs(err.value.psi) == pytest.approx(math.pi / 2)


def test_planes_frame_is_orthonormal():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n1 = rng.normal(size=3)
        n2 = rng.normal(size=3)
        try:
            fr = frame_for_planes(PlaneConfig(n1, n2))
        except DegenerateConfigError:
            continue
        basis = np.array([fr.xhat, fr.yhat, fr.zhat])
        assert np.allclose(basis @ basis.T, np.eye(3), atol=1e-12)
        assert abs(fr.psi) <= math.pi / 2


def test_planes_round_trip_from_generated_slopes():
    # build normals realizing (psi, m1, m2); recovery is exact up to a
    # joint sign flip of (psi, m1, m2)
    rng = np.random.default_rng(11)
    for _ in range(100):
        psi = rng.uniform(-1.4, 1.4)
        m1, m2 = rng.uniform(-8, 8, size=2)
        if abs(m2 - m1) < 1e-3:
            continue
        X = np.array([1.0, 0.0, 0.0])
        Y = np.array([0.0, math.cos(psi), math.sin(psi)])
        Z = np.array([0.0, -math.sin(psi), math.cos(psi)])
        n1 = (m1 * X - Z) / math.hypot(m1, 1.0)
        n2 = (m2 * X - Z) / math.hypot(m2, 1.0)
        fr = frame_for_planes(PlaneConfig(n1, n2))
        sign = 1.0 if abs(fr.psi - psi) < 1e-9 else -1.0
        assert fr.psi == pytest.approx(sign * psi, abs=1e-12)
        assert fr.m1 == pytest.approx(sign * m1, rel=1e-10, abs=1e-10)
        assert fr.m2 == pytest.approx(sign * m2, rel=1e-10, abs=1e-10)


# ---------------------------------------------------------------------------
# frames of a surface pair: SurfacePair.sample, then frame_field
# ---------------------------------------------------------------------------

def test_surfaces_orthogonal_waves_tilt():
    pair = make_pair("cos(x)", "cos(y)+5/2", domain=(0, 2 * math.pi, 0, 2 * math.pi))
    fd, _, _ = surface_frames(pair, math.pi / 2, math.pi / 2)
    assert fd.psi == pytest.approx(-math.asin(0.5), abs=1e-14)


def test_surfaces_tilted_upper_plane():
    pair = make_pair("0", "1+x/2", domain=(-1.5, 1.5, -1.5, 1.5))
    fd, _, _ = surface_frames(pair, 0.3, -1.2)
    assert fd.psi == 0.0
    assert fd.m1 == 0.0
    assert fd.m2 == pytest.approx(0.5, rel=1e-14)
    assert fd.xhat == pytest.approx((1.0, 0.0))
    assert not fd.degenerate_frame


def test_surfaces_flat_parallel_fallback():
    pair = make_pair("-1", "1")
    fd, _, _ = surface_frames(pair, 0.7, 0.7)
    assert fd.degenerate_frame
    assert fd.psi == 0.0
    assert fd.m1 == 0.0 and fd.m2 == 0.0


def test_surfaces_sloped_parallel_fallback():
    pair = make_pair("x", "x+1", domain=(-0.4, 0.4, -0.4, 0.4))
    fd, _, _ = surface_frames(pair, 0.1, 0.0)
    assert fd.degenerate_frame
    assert fd.psi == 0.0
    assert fd.m1 == pytest.approx(1.0, rel=1e-14)
    assert fd.m2 == pytest.approx(1.0, rel=1e-14)


def test_surfaces_one_dimensional_channel_slopes():
    pair = make_pair("sin(x)-3/2", "cos(2*x)+3/2", domain=(0, 2 * math.pi, -1, 1))
    x = np.array([0.3, 1.0, 2.2, 4.0, 5.5])
    fd, _, _ = surface_frames(pair, x, np.zeros_like(x))
    z1p = np.cos(x)
    z2p = -2.0 * np.sin(2 * x)
    sign = np.sign(z2p - z1p)
    assert np.all(fd.psi == 0.0)
    np.testing.assert_allclose(fd.m1, sign * z1p, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(fd.m2, sign * z2p, rtol=1e-12, atol=1e-12)
    assert np.array_equal(fd.mu, (fd.m1 + fd.m2) / 2)


def test_surfaces_frame_orthonormal_and_perp_rotation():
    pair = make_pair("cos(x)", "cos(y)+5/2", domain=(0, 2 * math.pi, 0, 2 * math.pi))
    p = np.random.default_rng(5).uniform(0.1, 6.1, size=(50, 2))
    fd, _, _ = surface_frames(pair, p[:, 0], p[:, 1])
    keep = ~fd.degenerate_frame
    assert keep.sum() > 40
    (xx, xy), (yx, yy) = ((c[keep] for c in v) for v in (fd.xhat, fd.yhat))
    np.testing.assert_allclose(xx * yx + xy * yy, 0.0, atol=1e-12)
    np.testing.assert_allclose(np.hypot(xx, xy), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.hypot(yx, yy), 1.0, atol=1e-12)
    assert np.array_equal(fd.yhat[0], -fd.xhat[1])
    assert np.array_equal(fd.yhat[1], fd.xhat[0])
    assert np.all(np.abs(fd.psi) <= math.pi / 2)


# ---------------------------------------------------------------------------
# width
# ---------------------------------------------------------------------------

def test_width_radial_origin():
    pair = make_pair("sin(r)-3/2", "cos(2*r)+3/2", domain=(-8, 8, -8, 8))
    assert pair.width((0.0, 0.0)) == pytest.approx(4.0, abs=1e-15)


def test_width_flat():
    pair = make_pair("0", "1")
    assert pair.width((0.2, 0.9)) == 1.0


def test_width_zero_fails_at_construction():
    with pytest.raises(SurfaceValidationError):
        make_pair("x", "x")


def test_width_outside_domain():
    pair = make_pair("0", "1", domain=(0, 1, 0, 1))
    with pytest.raises(OutsideDomainError):
        pair.width((2.0, 0.5))


# ---------------------------------------------------------------------------
# cross-route consistency
# ---------------------------------------------------------------------------

def surface_normals(g1, g2):
    """Outward unit normals of the tangent planes at a point, from the
    surface gradients: n1 points below the lower surface, n2 above the
    upper one."""
    s1 = math.sqrt(1.0 + g1[0] ** 2 + g1[1] ** 2)
    s2 = math.sqrt(1.0 + g2[0] ** 2 + g2[1] ** 2)
    n1 = np.array([g1[0], g1[1], -1.0]) / s1
    n2 = np.array([-g2[0], -g2[1], 1.0]) / s2
    return n1, n2


def _plane_frames(fd, g1, g2):
    """The points of fd with a frame along grad w, each with the frame of
    its two tangent planes: (k, PlaneFrame, n1 x n2)."""
    for k in np.flatnonzero(~fd.degenerate_frame):
        n1, n2 = surface_normals((g1[0][k], g1[1][k]), (g2[0][k], g2[1][k]))
        yield k, frame_for_planes(PlaneConfig(n1, n2)), np.cross(n1, n2)


def test_routes_agree_on_zero_tilt_points():
    pair = make_pair("sin(r)-3/2", "cos(2*r)+3/2", domain=(-8, 8, -8, 8))
    p = np.random.default_rng(17).uniform(0.5, 5.5, size=(60, 2))
    fd, g1, g2 = surface_frames(pair, p[:, 0], p[:, 1])
    checked = 0
    for k, fr, _ in _plane_frames(fd, g1, g2):
        assert fd.psi[k] == pytest.approx(fr.psi, abs=1e-10)
        assert fd.m1[k] == pytest.approx(fr.m1, rel=1e-10, abs=1e-10)
        assert fd.m2[k] == pytest.approx(fr.m2, rel=1e-10, abs=1e-10)
        assert np.allclose(fr.xhat[:2], (fd.xhat[0][k], fd.xhat[1][k]),
                           atol=1e-10)
        checked += 1
    assert checked >= 40


def test_routes_tilt_relation_general():
    # the surface tilt uses the unnormalized cross product of the unit
    # normals, so sin(psi_surface) = |n1 x n2| sin(psi_planes)
    pair = make_pair("cos(x)", "cos(y)+5/2", domain=(0, 2 * math.pi, 0, 2 * math.pi))
    p = np.random.default_rng(23).uniform(0.2, 6.0, size=(50, 2))
    fd, g1, g2 = surface_frames(pair, p[:, 0], p[:, 1])
    for k, fr, cross in _plane_frames(fd, g1, g2):
        assert math.sin(fd.psi[k]) == pytest.approx(
            np.linalg.norm(cross) * math.sin(fr.psi), abs=1e-12)
        assert np.allclose(fr.xhat[:2], (fd.xhat[0][k], fd.xhat[1][k]),
                           atol=1e-10)


def test_tilt_vanishes_for_functionally_dependent_surfaces():
    # z_i = f_i(z(x,y)) with z = x + 2y: gradients stay parallel
    pair = make_pair("sin(x+2*y)", "3+(x+2*y)^2/8", domain=(-1, 1, -1, 1))
    p = np.random.default_rng(8).uniform(-0.9, 0.9, size=(30, 2))
    fd, _, _ = surface_frames(pair, p[:, 0], p[:, 1])
    assert np.all(np.abs(fd.psi) <= 1e-10)


# ---------------------------------------------------------------------------
# grid backing
# ---------------------------------------------------------------------------

def _sampled(expr_text, x0, x1, y0, y1, n):
    f = ExpressionField(expr_text)
    xs = np.linspace(x0, x1, n)
    ys = np.linspace(y0, y1, n)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    values = f.value_array(gx, gy)
    return f, GridField((x0, y0), (xs[1] - xs[0], ys[1] - ys[0]), values)


def test_grid_field_second_order_gradients():
    errs = []
    for n in (41, 81):
        exact, grid = _sampled("sin(x)*cos(y)", -2, 2, -2, 2, n)
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(60):
            p = tuple(rng.uniform(-1.8, 1.8, size=2))
            ge = exact.gradient(p)
            gg = grid.gradient(p)
            worst = max(worst, abs(ge[0] - gg[0]), abs(ge[1] - gg[1]))
        errs.append(worst)
    # halving h divides the gradient error by about 4
    assert errs[0] / errs[1] > 2.5


@pytest.mark.parametrize("origin,spacing,bad,named", [
    ((0, 0), (math.nan, 0.1), None, "spacing"),
    ((0, 0), (0.1, 0.0), None, "spacing"),
    ((math.nan, 0), (0.1, 0.1), None, "corners"),
    ((0, -math.inf), (0.1, 0.1), None, "corners"),
    ((0, 0), (1e308, 0.1), None, "corners"),     # x1 = 4e308 overflows
    ((0, 0), (0.1, 0.1), math.nan, "samples"),
    ((0, 0), (0.1, 0.1), -math.inf, "samples"),
    ((10**400, 0), (0.1, 0.1), None, "origin"),     # too large for a float
    ((0, 0), (0.1, 10**400), None, "spacing"),
    ((0, 0, 0), (0.1, 0.1), None, "origin"),     # not two numbers
    ((0, 0), (0.1,), None, "spacing"),
    ((0, 0), 0.1, None, "spacing"),
])
def test_a_grid_without_finite_corners_and_samples_is_refused(origin, spacing,
                                                              bad, named):
    values = np.ones((5, 5))
    if bad is not None:
        values[2, 3] = bad
    with pytest.raises(InputError, match=f"^grid {named} ") as info:
        GridField(origin, spacing, values)
    assert info.value.field == f"grid {named}"


@pytest.mark.parametrize("domain,named", [
    ((0, 2, 0, 1), "z1"), ((-0.1, 1, 0, 1), "z2"), ((0, 1, 0, 1.000001), "z2")])
@pytest.mark.parametrize("validation", [64, 0])
def test_a_domain_outside_a_grid_s_hull_is_refused(domain, named, validation):
    # the hull of this 3x3 grid is [0, 1]^2, read with GridField's
    # tolerance of 1e-9 spacing; the other surface is an expression
    grid = GridField((0, 0), (0.5, 0.5), np.ones((3, 3)))
    level = ExpressionField("5" if named == "z1" else "-5")
    pair = (grid, level) if named == "z1" else (level, grid)
    with pytest.raises(InputError, match=f"^{named} covers \\[0, 1\\] x "
                       "\\[0, 1\\], which does not contain the domain$") as info:
        SurfacePair(*pair, domain, validation=validation)
    assert info.value.field == named
    SurfacePair(*pair, (0, 1.0000000001, 0.5, 1), validation=validation)


@pytest.mark.parametrize("validation", [1, -1, 2.5, None, True, 31622777])
def test_a_validation_lattice_size_outside_its_rule_is_refused_by_name(
        validation):
    # refused before any lattice is built; 0 reads none
    with pytest.raises(InputError, match="^validation must be an integer in "
                       f"\\[2, 31622776\\], got {validation!r}$") as info:
        make_pair("0", "1", validation=validation)
    assert info.value.field == "validation"
    for n in (0, 2):
        make_pair("0", "1", validation=n)


def test_a_grid_field_keeps_its_own_copy_of_the_samples():
    v = np.zeros((4, 4))
    g = GridField((0, 0), (1, 1), v)
    v[1, 1] = 100
    value, gx, gy, bad = g.sample(1.0, 1.0)
    assert (value, gx, gy, bad) == (0.0, 0.0, 0.0, False)


@pytest.mark.parametrize("corners", [
    (0, 1, 1, 0), (0, math.inf, 0, 1), (-math.inf, 0, 0, 1),
    (0, 1, math.nan, 1), (-1.7e308, 1.7e308, 0, 1),
    (np.float64(0), np.float64(1), np.float64(-1e308), np.float64(1e308))])
def test_a_domain_without_finite_positive_spans_is_refused(corners):
    with pytest.raises(InputError,
                       match="^domain needs x1 - x0 and y1 - y0") as info:
        Domain(*corners)
    assert info.value.field == "domain"


@pytest.mark.parametrize("build,named", [
    (lambda: Domain(0, 10**400, 0, 1), "x1"),
    (lambda: Domain(-10**400, 0, 0, 1), "x0"),
    (lambda: Domain(0, 1, "0", 1), "y0"),
    (lambda: make_pair("0", "1", domain=(0, 10**400, 0, 1)), "x1"),
    (lambda: make_pair("0", "1", domain=(0, 1, 0, 1j)), "y1")],
    ids=["domain-int-1e400", "domain-minus-int-1e400", "domain-text",
         "pair-int-1e400", "pair-complex"])
def test_a_domain_corner_a_float_cannot_hold_is_refused_by_name(build, named):
    # each corner is a float from the start, or the domain is refused
    with pytest.raises(InputError, match=f"^{named} must be ") as info:
        build()
    assert info.value.field == named


def test_domain_cells_are_equal_cells_and_lattice_nodes_include_the_corners():
    dom = Domain(-1.5, 2.0, 0.25, 1.0)
    xc, yc, hx, hy = dom.cells(7, 3)
    # the formula of the solver's cells, bit for bit
    assert (hx, hy) == (3.5 / 7, 0.75 / 3)
    assert xc.tobytes() == (-1.5 + (np.arange(7) + 0.5) * hx).tobytes()
    assert yc.tobytes() == (0.25 + (np.arange(3) + 0.5) * hy).tobytes()
    xs, ys = dom.lattice(np.int64(5), 2)
    assert xs.tolist() == [-1.5, -0.625, 0.25, 1.125, 2.0]
    assert ys.tolist() == [0.25, 1.0]


@pytest.mark.parametrize("nx,ny", [
    (1, 4), (4, 1), (0, 0), (-3, 4), (2.0, 4), ("4", 4), (None, 4),
    (10**8, 10**8), (10**400, 2),
    (np.int64(2**32), np.int64(2**32))])   # the product wraps in int64
@pytest.mark.parametrize("grid", ["lattice", "cells"])
def test_a_grid_size_outside_the_resolution_rule_is_refused(grid, nx, ny):
    text = ("resolution must be two integers NX, NY >= 2 with NX * NY <= "
            f"1000000000000000, got {nx!r}x{ny!r}")
    with pytest.raises(InputError, match=f"^{re.escape(text)}$") as info:
        getattr(Domain(0, 1, 0, 1), grid)(nx, ny)
    assert info.value.field == "resolution"


def test_grid_field_bilinear_value_and_hull():
    exact, grid = _sampled("x*y", 0, 1, 0, 1, 11)
    assert grid.value((0.53, 0.71)) == pytest.approx(0.53 * 0.71, abs=1e-12)
    with pytest.raises(OutsideDomainError):
        grid.value((1.5, 0.5))
    with pytest.raises(OutsideDomainError):
        grid.value((float("nan"), 0.5))


def test_grid_field_sample_masks_points_outside_the_hull():
    _, grid = _sampled("x*y", 0, 1, 0, 1, 11)
    x = np.array([0.53, 1.5, float("nan"), 1.0])
    y = np.array([0.71, 0.5, 0.5, 0.0])
    value, gx, gy, bad = grid.sample(x, y)
    assert bad.tolist() == [False, True, True, False]
    for k in (0, 3):
        p = (x[k], y[k])
        assert value[k] == grid.value(p)
        assert (gx[k], gy[k]) == grid.gradient(p)


def test_surface_pair_sample_masks_each_pointwise_failure():
    pair = make_pair("log(x+2.9)-1.5", "sqrt(4-y)-1", domain=(-3, 3, -3, 3),
                     validation=0)
    # outside the domain, log of a non-positive number, w <= 0, NaN, fine
    x = np.array([3.5, -2.95, 2.9, float("nan"), 0.5])
    y = np.array([0.0, 0.0, 2.9, 0.0, -1.0])
    w, g1, g2, bad = pair.sample(x, y)
    assert bad.tolist() == [True, True, True, True, False]
    p = (0.5, -1.0)
    assert w[4] == pair.width(p)
    assert (g1[0][4], g1[1][4]) == pair.z1.gradient(p)
    assert (g2[0][4], g2[1][4]) == pair.z2.gradient(p)
    for k in range(4):
        with pytest.raises((GeometryError, EvalDomainError)):
            pair.width((x[k], y[k]))


def test_grid_backed_surface_pair_frames():
    _, g1 = _sampled("0", -1, 1, -1, 1, 61)
    _, g2 = _sampled("1+x/2", -1, 1, -1, 1, 61)
    pair = SurfacePair(g1, g2, Domain(-1, 1, -1, 1))
    fd, _, _ = surface_frames(pair, 0.2, 0.3)
    assert fd.psi == pytest.approx(0.0, abs=1e-10)
    assert fd.m2 == pytest.approx(0.5, abs=1e-8)


def _bits(*arrays):
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


_PAIRS = {
    # z2 shares all of z1's sub-expressions
    "shared": lambda: make_pair("sin(x)*cos(y)", "sin(x)*cos(y)+2"),
    # z1 undefined for |x| < 0.1, z2 for y <= -2
    "undefined strip": lambda: make_pair("sqrt(x^2-0.01)-4", "log(y+2)",
                                         validation=0),
    "grid": lambda: SurfacePair(_sampled("sin(x)*cos(y)", -3, 3, -3, 3, 31)[1],
                                _sampled("2+x*y/9", -3, 3, -3, 3, 31)[1],
                                (-3, 3, -3, 3)),
    "mixed": lambda: SurfacePair(ExpressionField("sqrt(x^2-0.01)-4"),
                                 _sampled("2+x*y/9", -3, 3, -3, 3, 31)[1],
                                 (-3, 3, -3, 3), validation=0),
}


def _as_read(values, shape):
    """Values as SurfacePair.surfaces and .heights return them, broadcast
    to `shape`: only a constant may come back as a scalar."""
    assert all(np.shape(v) in (shape, ()) for v in values)
    return np.broadcast_arrays(*values, np.empty(shape))[:-1]


@pytest.mark.parametrize("kind", sorted(_PAIRS))
def test_pair_reads_both_surfaces_bit_for_bit_as_each_field_does(kind):
    pair = _PAIRS[kind]()
    rng = np.random.default_rng(6)
    x = np.concatenate([rng.uniform(-3, 3, 200), [-0.1, 0.0, 0.1, 0.05]])
    y = np.concatenate([rng.uniform(-3, 3, 200), [0.0, -2.0, 1.0, -2.5]])
    *s1, bad1 = pair.z1.sample(x, y)
    *s2, bad2 = pair.z2.sample(x, y)
    # the walk's reads: its caller silences floating-point errors
    with np.errstate(all="ignore"):
        both, bad = pair.surfaces(x, y)
    assert _bits(*_as_read(both, x.shape)) == _bits(*s1, *s2)
    assert np.array_equal(np.zeros(x.shape, bool) if bad is None else bad,
                          bad1 | bad2)
    if kind == "undefined strip":
        assert 0 < np.count_nonzero(bad1) and 0 < np.count_nonzero(bad2)
        # z1's slope in y and z2's in x are the constant 0
        assert np.ndim(both[2]) == np.ndim(both[4]) == 0
    if kind == "shared":
        assert bad is None

    # the width route reads the same bits
    w, g1, g2, pair_bad = pair.sample(x, y)
    with np.errstate(invalid="ignore"):
        assert _bits(w) == _bits(s2[0] - s1[0])
    assert _bits(*g1, *g2) == _bits(*s1[1:], *s2[1:])
    assert np.array_equal(pair_bad, ~pair.domain.contains((x, y)) | bad1 | bad2
                          | ~(s2[0] - s1[0] > 0))

    # heights: the values alone, masked where a value is undefined
    fine = ~(bad1 | bad2)
    with np.errstate(all="ignore"):
        (z1, z2), hbad = pair.heights(x[fine], y[fine])
    assert _bits(*_as_read((z1, z2), x[fine].shape)) \
        == _bits(s1[0][fine], s2[0][fine])
    assert hbad is None or not hbad.any()
    if kind in ("grid", "mixed"):    # read by each field's sample
        assert hbad.shape == x[fine].shape
    if kind == "undefined strip":
        with np.errstate(all="ignore"):
            (z1, z2), hbad = pair.heights(x, y)
        assert _bits(z1[~hbad], z2[~hbad]) == _bits(s1[0][~hbad], s2[0][~hbad])
        # both surfaces lose value and gradient at the same points
        assert np.array_equal(hbad, bad)


def test_heights_mask_is_none_or_a_boolean_array_that_may_be_all_false():
    # finite heights whose finiteness sum overflows: the generated function
    # builds its exact mask, which flags nothing
    pair = make_pair("1e308+0*x", "1.5e308+0*y")
    x, y = np.array([0.5, -1.0]), np.array([1.0, 2.0])
    with np.errstate(all="ignore"):
        (z1, z2), bad = pair.heights(x, y)
        defined = pair.defined_heights(x, y)
    assert bad.tolist() == [False, False]
    assert z1.tolist() == [1e308, 1e308] and z2.tolist() == [1.5e308] * 2
    assert [z.tolist() for z in defined] == [[1e308] * 2, [1.5e308] * 2]


@pytest.mark.parametrize("kind", ["grid", "mixed"])
def test_heights_masks_points_outside_a_grid_s_hull_instead_of_raising(kind):
    pair = _PAIRS[kind]()
    rng = np.random.default_rng(8)
    # the hull is [-3, 3]^2: about half of these points lie outside it
    x = np.concatenate([rng.uniform(-4, 4, 200), [3.5, -3.0, float("nan")]])
    y = np.concatenate([rng.uniform(-4, 4, 200), [0.0, 3.0, 0.0]])
    *s1, bad1 = pair.z1.sample(x, y)
    *s2, bad2 = pair.z2.sample(x, y)
    with np.errstate(all="ignore"):
        (z1, z2), hbad = pair.heights(x, y)
        _, bad = pair.surfaces(x, y)
    assert _bits(z1, z2) == _bits(s1[0], s2[0])
    assert np.array_equal(hbad, bad) and np.array_equal(hbad, bad1 | bad2)
    assert 50 < np.count_nonzero(hbad) < 150
    # the refusal re-reads z1 first: the mixed pair's expression names its
    # node at the NaN point
    with pytest.raises(OutsideDomainError if kind == "grid"
                       else EvalDomainError):
        pair.defined_heights(x, y)


def test_grid_reads_raise_once_outside_the_hull_and_match_sample_inside():
    _, grid = _sampled("x*y", 0, 1, 0, 1, 11)
    x, y = np.array([0.53, 1.0, 0.0]), np.array([0.71, 0.0, 1.0])
    value, gx, gy, bad = grid.sample(x, y)
    assert not bad.any()
    assert _bits(grid.value_array(x, y), *grid.gradient_array(x, y)) \
        == _bits(value, gx, gy)
    # plain floats are read as 0-d arrays are
    assert not grid.sample(0.53, 0.71)[3]
    assert grid.value_array(0.53, 0.71) == value[0]
    for read in (grid.value_array, grid.gradient_array):
        with pytest.raises(OutsideDomainError, match="outside grid hull"):
            read(np.append(x, 1.5), np.append(y, 0.5))


def test_validation_names_z1_first_where_both_surfaces_are_undefined():
    # both are undefined on the lattice's edges x = 0 and y = 0: z1 is read
    # before z2, so its node is the one named
    with pytest.raises(EvalDomainError, match=r"in 'log\(x\)'$"):
        make_pair("log(x)", "log(y)+5", domain=(0, 1, 0, 1))
    with pytest.raises(EvalDomainError, match=r"in 'log\(y\)'$"):
        make_pair("x", "log(y)+5", domain=(0, 1, 0, 1))
