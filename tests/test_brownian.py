import math
from dataclasses import fields, replace

import numpy as np
import pytest

from effdiff import brownian, expr
from effdiff.brownian import (
    MAX_BOUNCES, NEWTON_MAX_ITER, NEWTON_TOL, BrownianError, McJob, Slab,
    StepTooLargeError, _crossing, _surface_step, double_cross_probability,
    mc_projected_tensor,
)
from effdiff.expr import Compiled
from effdiff.geometry import (
    ExpressionField, GridField, InputError, ScalarField, SurfacePair,
)


def slab_job(mu, **kw):
    defaults = dict(d0=1.0, dt=1e-3, n_particles=10000, n_steps=1000,
                    seed=42, start=(0.0, 0.0, 0.4))
    defaults.update(kw)
    return McJob(Slab(mu), **defaults)


def test_flat_slab_is_isotropic_within_errors():
    res = mc_projected_tensor(slab_job(0.0))
    for i in (0, 1):
        assert abs(res.estimate[i, i] - 1.0) <= 3.0 * res.stderr[i, i]
    assert abs(res.estimate[0, 1]) <= 3.0 * res.stderr[0, 1]
    assert res.double_cross_fraction <= 1e-100
    assert res.rejected_steps == 0


def test_tilted_slab_damps_upslope_component():
    res = mc_projected_tensor(slab_job(1.0, n_steps=5000))
    assert res.estimate[0, 0] == pytest.approx(0.5, abs=3 * res.stderr[0, 0])
    assert res.estimate[1, 1] == pytest.approx(1.0, abs=3 * res.stderr[1, 1])


def test_seed_reproducibility():
    waves = SurfacePair(ScalarField.from_expression("cos(x)"),
                        ScalarField.from_expression("cos(y)+5/2"),
                        (-60, 60, -60, 60))
    for job in (slab_job(0.5, n_particles=2000, n_steps=200),
                McJob(waves, dt=1e-2, n_particles=300, n_steps=50, seed=3,
                      start=(0.0, 0.0, 1.5))):
        a = mc_projected_tensor(job)
        b = mc_projected_tensor(job)
        assert np.array_equal(a.estimate, b.estimate)
        assert np.array_equal(a.stderr, b.stderr)


def test_curved_walk_draws_every_step_for_all_walkers_from_one_generator():
    # steps too short to reach a wall: the walk is the running sum of one
    # (n, 3) block per step from default_rng(seed)
    pair = SurfacePair(ScalarField.from_expression("0"),
                       ScalarField.from_expression("1"), (-1, 1, -1, 1))
    n, steps, dt, seed = 400, 6, 1e-8, 21
    job = McJob(pair, dt=dt, n_particles=n, n_steps=steps, seed=seed,
                start=(0.0, 0.0, 0.5))
    res = mc_projected_tensor(job)

    sigma = np.sqrt(2.0 * dt)
    rng = np.random.default_rng(seed)
    r = np.tile(job.start, (n, 1))
    for _ in range(steps):
        r = r + sigma * rng.standard_normal((n, 3))
    disp = r[:, :2] - np.asarray(job.start)[:2]
    assert np.array_equal(res.estimate,
                          np.cov(disp.T, ddof=1) / (2.0 * steps * dt))
    assert res.rejected_steps == 0 and res.max_overshoot == 0.0


def test_stderr_scales_like_inverse_sqrt_particles():
    # a 25-block jackknife error is itself ~14% noisy, so one ratio leaves
    # [1.6, 2.4] about half the time; the mean of 16 has spread ~0.09
    ratios = []
    for seed in range(1, 9):
        small = mc_projected_tensor(slab_job(0.0, seed=seed, n_particles=2500,
                                             n_steps=300))
        big = mc_projected_tensor(slab_job(0.0, seed=seed, n_particles=10000,
                                           n_steps=300))
        ratios += [small.stderr[i, i] / big.stderr[i, i] for i in (0, 1)]
    assert 1.6 <= np.mean(ratios) <= 2.4


@pytest.mark.parametrize("sigma_over_gap", [0.45, 0.78])
def test_slab_double_cross_closed_form(sigma_over_gap):
    # one step from a point uniform across the gap, counted the way a
    # step-by-step fold counts a double crossing
    d1, gap, n = -0.3, 1.7, 2_000_000
    rng = np.random.default_rng(11)
    s = d1 + gap * rng.random(n)
    end = s + rng.normal(0.0, sigma_over_gap * gap, n)
    measured = np.mean(np.abs(np.floor((end - d1) / gap)) >= 2)
    p = double_cross_probability(gap, sigma_over_gap * gap)
    assert abs(measured - p) <= 5.0 * np.sqrt(p * (1.0 - p) / n)


def _double_cross_for_wide_gaps(a):
    """double_cross_probability(a, 1) as it is written for a >= 1."""
    def f(u):
        return (0.5 * u * math.erfc(u / math.sqrt(2.0))
                - math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi))

    return 2.0 / a * (f(2.0 * a) - f(a))


def test_double_cross_probability_is_a_probability_falling_with_the_gap():
    a = np.unique(np.concatenate([np.logspace(-300, 1.7, 3000),
                                  np.linspace(0.9, 1.1, 2001)]))
    p = np.array([double_cross_probability(float(x), 1.0) for x in a])
    assert np.all((0.0 <= p) & (p <= 1.0))
    assert np.all(np.diff(p) <= 0.0)
    wide = a >= 1.0
    assert p[wide].tobytes() == np.array(
        [_double_cross_for_wide_gaps(float(x)) for x in a[wide]]).tobytes()
    # below a = 1 the cancellation-free form agrees where the other is exact
    narrow = (a >= 1e-3) & ~wide
    ref = [_double_cross_for_wide_gaps(float(x)) for x in a[narrow]]
    assert np.allclose(p[narrow], ref, rtol=1e-12, atol=0.0)
    assert double_cross_probability(1e-20, 1.0) == 1.0
    assert double_cross_probability(1.0, math.inf) == 1.0


def test_oversized_steps_abort():
    with pytest.raises(StepTooLargeError):
        mc_projected_tensor(slab_job(0.0, dt=10.0, n_particles=500, n_steps=50))


def test_start_must_be_inside():
    # refused when the job is built, before any sampling; on a wall is out
    slab = Slab(0.5)
    pair = SurfacePair(ScalarField.from_expression("cos(x)"),
                       ScalarField.from_expression("cos(y)+5/2"), (0, 6, 0, 6))
    for geometry, start, message in (
            (slab, (0.0, 0.0, 2.0), "start coordinate .* is not strictly"),
            (slab, (0.0, 0.0, 0.0), "start coordinate 0 is not strictly"),
            (pair, (0.0, 0.0, 1.0), "strictly between the surfaces"),
            (pair, (0.0, 0.0, 3.6), "strictly between the surfaces"),
            (pair, (0.0, 0.0, math.nan), "strictly between the surfaces")):
        with pytest.raises(InputError, match=message) as info:
            McJob(geometry, start=start)
        assert info.value.field == "start"
    with pytest.raises(InputError, match="unsupported geometry") as info:
        McJob(object())
    assert info.value.field == "geometry"


@pytest.mark.parametrize("kind", ["slab", "pair"])
def test_a_step_lost_to_rounding_is_refused(kind):
    # the least step deviation: ROUNDING_MARGIN ulp of the slab's width,
    # over the whole run, or of the largest start coordinate, per step
    steps = 10
    if kind == "slab":
        geometry, start = Slab(2.0), (0.0, 0.0, 0.5)
        least, per_run = brownian.ROUNDING_MARGIN * math.ulp(geometry.width), steps
    else:
        geometry = SurfacePair(ScalarField.from_expression("cos(x)"),
                               ScalarField.from_expression("cos(y)+5/2"),
                               (0, 6, 0, 6))
        start = (3.0, 0.5, 1.5)
        least, per_run = brownian.ROUNDING_MARGIN * math.ulp(3.0), 1
    for factor in (1.01, 0.99):
        job = dict(dt=(factor * least) ** 2 / (2.0 * per_run), start=start,
                   n_particles=20, n_steps=steps, jackknife_blocks=4)
        if factor < 1:
            with pytest.raises(InputError, match="^dt = .* is too small") as info:
                McJob(geometry, **job)
            assert info.value.field == "dt"
        else:
            res = mc_projected_tensor(McJob(geometry, **job))
            assert np.all(np.isfinite(res.stderr))
            assert np.all(np.diag(res.estimate) > 0)


def test_a_start_where_a_surface_is_undefined_is_refused_as_outside():
    xs = np.linspace(0, 2, 21)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    grid = SurfacePair(GridField((0, 0), (0.1, 0.1), 0.1 * gx),
                       GridField((0, 0), (0.1, 0.1), 1 + 0.1 * gy), (0, 2, 0, 2))
    mixed = SurfacePair(ScalarField.from_expression("log(x)"),
                        GridField((0, 0), (0.1, 0.1), 5 + 0 * gx), (1, 2, 0, 2))
    for pair, start in ((grid, (2.5, 1.0, 0.5)), (grid, (1.0, -0.5, 0.5)),
                        (mixed, (-1.0, 1.0, 0.0)), (mixed, (1.0, 2.5, 3.0))):
        with pytest.raises(InputError,
                           match="^start must lie strictly between the surfaces$"
                           ) as info:
            McJob(pair, start=start)
        assert info.value.field == "start"
    # inside the hull, on the same pairs, the start stands
    assert McJob(grid, start=(1.0, 1.0, 0.5)).start == (1.0, 1.0, 0.5)
    assert McJob(mixed, start=(1.5, 1.0, 3.0)).start == (1.5, 1.0, 3.0)


def test_a_job_without_a_start_starts_at_the_geometry_s_own():
    slab = Slab(0.7, gap=2.0)
    start = McJob(slab).start
    assert start == tuple(slab.midpoint_start())
    assert all(type(c) is float for c in start)
    xs = np.linspace(-1, 2, 31)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    low = 0.3 * np.sin(gx) * np.cos(gy)
    grid = (GridField((-1, -1), (0.1, 0.1), low),
            GridField((-1, -1), (0.1, 0.1), low + 0.5 + 0.1 * gx))
    expressions = (ScalarField.from_expression("cos(x)"),
                   ScalarField.from_expression("cos(y)+5/2"))
    for z1, z2, domain in ((*expressions, (0, 2 * math.pi, 0, 2 * math.pi)),
                           (*expressions, (-0.3, 1.9, 0.1, 0.7)),
                           (*grid, (-0.9, 1.7, -0.4, 1.3))):
        pair = SurfacePair(z1, z2, domain)
        # the domain centre, half-way between the surfaces, as the command
        # line computed it before McJob did
        cx = 0.5 * (pair.domain.x0 + pair.domain.x1)
        cy = 0.5 * (pair.domain.y0 + pair.domain.y1)
        cz = 0.5 * float(pair.z1.value_array(cx, cy)
                         + pair.z2.value_array(cx, cy))
        start = McJob(pair).start
        assert np.array(start).tobytes() == np.array([cx, cy, cz]).tobytes()
        assert all(type(c) is float for c in start)


def test_curved_path_flat_pair_matches_identity():
    pair = SurfacePair(ScalarField.from_expression("0"),
                       ScalarField.from_expression("1"), (-60, 60, -60, 60))
    job = McJob(pair, d0=1.0, dt=1e-3, n_particles=3000, n_steps=300,
                seed=9, start=(0.0, 0.0, 0.5))
    res = mc_projected_tensor(job)
    for i in (0, 1):
        assert abs(res.estimate[i, i] - 1.0) <= 4.0 * res.stderr[i, i]
    assert res.max_overshoot <= 1e-12


def test_curved_path_affine_slab_matches_parallel_plane_value():
    pair = SurfacePair(ScalarField.from_expression("x"),
                       ScalarField.from_expression("x+1"), (-60, 60, -60, 60))
    job = McJob(pair, d0=1.0, dt=2e-3, n_particles=2000, n_steps=800,
                seed=5, start=(0.0, 0.0, 0.5))
    res = mc_projected_tensor(job)
    assert res.estimate[0, 0] == pytest.approx(0.5, abs=4 * res.stderr[0, 0])
    assert res.estimate[1, 1] == pytest.approx(1.0, abs=4 * res.stderr[1, 1])
    # the same slab through the exact sampler agrees with the stepper
    slab = mc_projected_tensor(replace(job, geometry=Slab(1.0)))
    se = np.hypot(slab.stderr[0, 0], res.stderr[0, 0])
    assert abs(slab.estimate[0, 0] - res.estimate[0, 0]) < 4 * se


def test_curved_reflection_keeps_walkers_confined():
    pair = SurfacePair(ScalarField.from_expression("sin(r)-3/2"),
                       ScalarField.from_expression("cos(2*r)+3/2"),
                       (-40, 40, -40, 40))
    job = McJob(pair, d0=1.0, dt=2e-3, n_particles=500, n_steps=400,
                seed=13, start=(2.0, 0.0, 0.0))
    res = mc_projected_tensor(job)
    assert res.max_overshoot <= 1e-12
    assert res.rejected_steps == 0


# z1 = 3 sin 2x and z2 = z1 + 0.6 + 0.3 cos 3y, with their gradients,
# in scalar arithmetic
_STEEP = (("3*sin(2*x)", lambda x, y: 3 * math.sin(2 * x),
           lambda x, y: (6 * math.cos(2 * x), 0.0), 1.0),
          ("3*sin(2*x)+0.6+0.3*cos(3*y)",
           lambda x, y: 3 * math.sin(2 * x) + 0.6 + 0.3 * math.cos(3 * y),
           lambda x, y: (6 * math.cos(2 * x), -0.9 * math.sin(3 * y)), -1.0))


def _reference_step(r, d):
    """One walker, one step: (end point, rejected, touched both surfaces,
    reflections)."""
    def margin(k, p):
        _, f, _, sgn = _STEEP[k]
        return sgn * (p[2] - f(p[0], p[1]))

    start, seg, hit = list(r), list(d), set()
    for bounce in range(MAX_BOUNCES + 1):
        end = [a + b for a, b in zip(start, seg)]
        crossed = [k for k in (0, 1) if margin(k, end) < 0.0]
        if not crossed:
            return end, False, len(hit) == 2, bounce
        if bounce == MAX_BOUNCES:
            return list(r), True, len(hit) == 2, bounce
        best = None
        for k in crossed:
            lo, hi = 0.0, 1.0
            for _ in range(48):
                mid = 0.5 * (lo + hi)
                if margin(k, [a + mid * b for a, b in zip(start, seg)]) >= 0.0:
                    lo = mid
                else:
                    hi = mid
            t = 0.5 * (lo + hi)
            if best is None or t < best[0]:
                best = (t, k)
        t, k = best
        start = [a + t * b for a, b in zip(start, seg)]
        gx, gy = _STEEP[k][2](start[0], start[1])
        norm = math.sqrt(1.0 + gx * gx + gy * gy)
        nvec = (-gx / norm, -gy / norm, 1.0 / norm)
        rest = [(1.0 - t) * b for b in seg]
        dot = sum(a * b for a, b in zip(rest, nvec))
        seg = [a - 2.0 * dot * b for a, b in zip(rest, nvec)]
        hit.add(k)


def test_surface_step_reflects_like_a_per_walker_loop():
    # steps of deviation 0.5 across a gap of 0.3 to 0.9 on walls of slope
    # up to 6: walkers bounce many times, some touch both surfaces and
    # some are still outside after MAX_BOUNCES reflections
    pair = SurfacePair(*(ScalarField.from_expression(src)
                         for src, *_ in _STEEP), (-3, 3, -3, 3))
    n = 200
    rng = np.random.default_rng(5)
    x, y = rng.uniform(-3, 3, (2, n))
    lo, hi = pair.z1.value_array(x, y), pair.z2.value_array(x, y)
    r = np.stack([x, y, lo + rng.uniform(0.1, 0.9, n) * (hi - lo)], axis=1)
    delta = 0.5 * rng.standard_normal((n, 3))
    stats = {"double_cross": 0, "rejected": 0}
    out = _surface_step(pair, r, delta, stats)

    x, y, z = out.T
    assert np.all(pair.z1.value_array(x, y) <= z)
    assert np.all(z <= pair.z2.value_array(x, y))
    ref = [_reference_step(a, b) for a, b in zip(r.tolist(), delta.tolist())]
    rejected = np.array([rej for _, rej, _, _ in ref])
    assert np.array_equal(out[rejected], r[rejected])
    assert stats["rejected"] == rejected.sum() > 0
    assert stats["double_cross"] == sum(both for _, _, both, _ in ref) > 0
    assert np.allclose(out, [end for end, *_ in ref], rtol=0.0, atol=1e-12)


def _halvings(field, sgn, r0, delta):
    """The crossing of each segment by 48 bisection halvings of [0, 1]."""
    lo, hi = np.zeros(len(r0)), np.ones(len(r0))
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        r = r0 + mid[:, None] * delta
        inside = sgn * (r[:, 2] - field.value_array(r[:, 0], r[:, 1])) >= 0.0
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    return 0.5 * (lo + hi)


def _beyond(field, sgn, r):
    return sgn * (r[:, 2] - field.value_array(r[:, 0], r[:, 1])) < 0


def _earliest_halvings(pair, r0, delta):
    """Per-surface reference: halvings on each surface a segment ends
    beyond; the earliest crossing wins, z1 on a tie."""
    t, which = np.full(len(r0), np.inf), np.zeros(len(r0), dtype=int)
    for k, (field, sgn) in enumerate(((pair.z1, 1.0), (pair.z2, -1.0))):
        sub = np.flatnonzero(_beyond(field, sgn, r0 + delta))
        if sub.size:
            tk = _halvings(field, sgn, r0[sub], delta[sub])
            earlier = tk < t[sub]
            t[sub[earlier]], which[sub[earlier]] = tk[earlier], k
    return t, which


def _assert_crossing_matches_halvings(pair, k, r0, delta):
    """Segments ending beyond surface k: the search finds the reference's
    crossing and surface, and that surface's gradient there."""
    field, sgn = ((pair.z1, 1.0), (pair.z2, -1.0))[k]
    assert np.all(_beyond(field, sgn, r0 + delta))
    t, which, gx, gy = _crossing(pair, r0, delta)
    ref_t, ref_which = _earliest_halvings(pair, r0, delta)
    assert np.allclose(t, ref_t, rtol=0.0, atol=1e-12)
    assert np.array_equal(which, ref_which)
    cross = r0 + t[:, None] * delta
    for j, surface in enumerate((pair.z1, pair.z2)):
        on = which == j
        want = surface.gradient_array(cross[on, 0], cross[on, 1])
        assert np.allclose((gx[on], gy[on]), want, rtol=0.0, atol=1e-10)
    return t


def _far_above(z1, domain):
    """z1 paired with z2 = 10, which the segments here never reach."""
    return SurfacePair(z1, ScalarField.from_expression("10"), domain)


def test_crossing_search_starts_clear_of_the_surface_it_left():
    # segments that start on z1 = cos(x) near its valley, heading inward at
    # phi'(0) = 0.2, and leave through the same surface further on: t = 0
    # is a root too, and the search must find the other one
    z1 = ScalarField.from_expression("cos(x)")
    x0 = np.linspace(2.6, 3.7, 12)
    y0 = np.linspace(-1.0, 1.0, 12)
    r0 = np.stack([x0, y0, z1.value_array(x0, y0)], axis=1)
    delta = np.stack([np.full(12, 2.0), np.full(12, 0.5),
                      -2.0 * np.sin(x0) + 0.2], axis=1)
    t = _assert_crossing_matches_halvings(_far_above(z1, (2, 6, -2, 2)), 0,
                                          r0, delta)
    assert np.all(t > 0.05)


def test_crossing_search_on_near_tangent_segments():
    # horizontal segments from the axis of z1 = x^2, eps above it: they
    # leave at t = 1/2 at an angle of 2 sqrt(eps)
    z1 = ScalarField.from_expression("x^2")
    eps = np.array([1e-2, 1e-4, 1e-6, 1e-8])
    r0 = np.stack([np.zeros(4), np.ones(4), eps], axis=1)
    delta = np.stack([2.0 * np.sqrt(eps), np.full(4, 0.3), np.zeros(4)], axis=1)
    t = _assert_crossing_matches_halvings(_far_above(z1, (-1, 1, 0, 2)), 0,
                                          r0, delta)
    assert np.allclose(t, 0.5, rtol=0.0, atol=1e-12)


def _steep_walkers(n):
    """The pair of _STEEP, and n walkers between its surfaces with steps of
    deviation 0.5 across a gap of 0.3 to 0.9."""
    pair = SurfacePair(*(ScalarField.from_expression(src)
                         for src, *_ in _STEEP), (-3, 3, -3, 3))
    rng = np.random.default_rng(5)
    x, y = rng.uniform(-3, 3, (2, n))
    lo, hi = pair.z1.value_array(x, y), pair.z2.value_array(x, y)
    r = np.stack([x, y, lo + rng.uniform(0.1, 0.9, n) * (hi - lo)], axis=1)
    return pair, r, 0.5 * rng.standard_normal((n, 3))


def test_crossing_search_on_steep_walls():
    pair, r, delta = _steep_walkers(400)
    end = r + delta
    for k, (field, sgn) in enumerate(((pair.z1, 1.0), (pair.z2, -1.0))):
        beyond = _beyond(field, sgn, end)
        assert beyond.sum() > 100
        _assert_crossing_matches_halvings(pair, k, r[beyond], delta[beyond])


def test_crossing_search_beyond_both_surfaces_and_on_a_tie():
    # z1 = x - 1/2 + s and z2 = -z1, s = 0.2 sin 3y, meet along
    # x = 1/2 - s, outside the validated domain: a segment from inside to
    # beyond that line can end below z1 and above z2 at once, and must stop
    # at its first crossing.  Both margins are bit-equal everywhere on
    # z = 0, so a segment there hits both at once, and z1 wins.
    pair = SurfacePair(ScalarField.from_expression("x-0.5+0.2*sin(3*y)"),
                       ScalarField.from_expression("0.5-x-0.2*sin(3*y)"),
                       (-1, 0.25, -1, 1))
    n = 300
    rng = np.random.default_rng(3)
    x0, y0 = rng.uniform(-0.8, 0.2, n), rng.uniform(-1, 1, n)
    lo, hi = pair.z1.value_array(x0, y0), pair.z2.value_array(x0, y0)
    x1, y1 = rng.uniform(0.8, 1.5, n), y0 + rng.uniform(-0.3, 0.3, n)
    below, above = pair.z2.value_array(x1, y1), pair.z1.value_array(x1, y1)
    r0 = np.stack([x0, y0, lo + rng.uniform(0.05, 0.95, n) * (hi - lo)], axis=1)
    r1 = np.stack([x1, y1, below + rng.uniform(0.05, 0.95, n) * (above - below)],
                  axis=1)
    assert np.all(_beyond(pair.z2, -1.0, r1))
    _assert_crossing_matches_halvings(pair, 0, r0, r1 - r0)
    assert 0 < np.count_nonzero(_crossing(pair, r0, r1 - r0)[1]) < n

    y = np.linspace(-1.0, 1.0, 7)
    tie0 = np.stack([np.linspace(-0.8, 0.2, 7), y, np.zeros(7)], axis=1)
    tie = np.stack([np.linspace(1.6, 2.0, 7), np.zeros(7), np.zeros(7)], axis=1)
    assert np.all(_beyond(pair.z2, -1.0, tie0 + tie))
    t = _assert_crossing_matches_halvings(pair, 0, tie0, tie)
    assert np.all(_crossing(pair, tie0, tie)[1] == 0)
    x = tie0[:, 0] + t * tie[:, 0]
    assert np.allclose(x, 0.5 - 0.2 * np.sin(3 * y), rtol=0.0, atol=1e-12)


def test_each_bounce_searches_once_over_the_walkers_still_outside(monkeypatch):
    pair, r, delta = _steep_walkers(200)
    sizes = []

    def recording(pair, r0, seg):
        sizes.append(len(r0))
        return _crossing(pair, r0, seg)

    monkeypatch.setattr(brownian, "_crossing", recording)
    _surface_step(pair, r, delta, {"double_cross": 0, "rejected": 0})
    bounces = np.array([_reference_step(a, d)[3]
                        for a, d in zip(r.tolist(), delta.tolist())])
    assert sizes == [np.count_nonzero(bounces > k) for k in range(bounces.max())]
    assert len(sizes) == MAX_BOUNCES


def test_crossing_search_through_an_undefined_strip_names_the_point():
    # z2 = sqrt(x^2 - 0.01) is undefined for |x| < 0.1; the segment from
    # x = -0.5 (inside) to x = 0.5 (outside) first bisects onto x = 0
    pair = SurfacePair(ScalarField.from_expression("-10"),
                       ScalarField.from_expression("sqrt(x^2-0.01)"),
                       (-1, 1, -1, 1), validation=0)
    r0 = np.array([[-0.5, 0.0, 0.0]])
    delta = np.array([[1.0, 0.0, 1.0]])
    with pytest.raises(BrownianError, match=r"surface undefined at \(0, 0\)"):
        _crossing(pair, r0, delta)


def test_grid_backed_pair_confines_walkers():
    # interpolated gradients are not the derivative of the bilinear values,
    # so the search converges more slowly, but every kept position is still
    # tested inside both surfaces
    xs = np.linspace(-3, 3, 61)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    low = 0.4 * np.sin(2 * gx) + 0.1 * np.cos(3 * gy)
    pair = SurfacePair(GridField((-3, -3), (0.1, 0.1), low),
                       GridField((-3, -3), (0.1, 0.1), low + 0.6), (-3, 3, -3, 3))
    rng = np.random.default_rng(8)
    x, y = rng.uniform(-1, 1, (2, 300))
    r = np.stack([x, y, pair.z1.value_array(x, y) + rng.uniform(0.1, 0.5, 300)],
                 axis=1)
    delta = 0.3 * rng.standard_normal((300, 3))
    stats = {"double_cross": 0, "rejected": 0}
    out = _surface_step(pair, r, delta, stats)
    x, y, z = out.T
    assert np.all(pair.z1.value_array(x, y) <= z)
    assert np.all(z <= pair.z2.value_array(x, y))
    assert np.count_nonzero(np.any(out != r + delta, axis=1)) > 50


def test_seeded_walk_between_grid_backed_surfaces():
    # the crossing search reads GridField.sample; a repeated run with one
    # seed is bit-identical, and no diagonal entry exceeds D0 = 1 by more
    # than three standard errors
    xs = np.linspace(-3, 3, 61)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    low = 0.4 * np.sin(2 * gx) + 0.1 * np.cos(3 * gy)
    pair = SurfacePair(GridField((-3, -3), (0.1, 0.1), low),
                       GridField((-3, -3), (0.1, 0.1), low + 0.6), (-3, 3, -3, 3))
    job = McJob(pair, dt=1e-3, n_particles=400, n_steps=100, seed=4,
                start=(0.0, 0.0, 0.3), jackknife_blocks=10)
    res = mc_projected_tensor(job)
    assert np.array_equal(res.estimate, mc_projected_tensor(job).estimate)
    assert res.rejected_steps == 0
    diag, se = np.diag(res.estimate), np.diag(res.stderr)
    assert np.all(diag > 0.0) and np.all(diag - 3.0 * se < 1.0)


def test_grazing_chain_under_a_crest_is_a_rejected_step(monkeypatch):
    # The one step that `mc --example waves` rejects at seed 11, 2e4 walkers
    # x 500 steps, dt = 1e-2: the walker starts 7.3e-6 below the crest of
    # z2 = cos(y) + 5/2 and moves off it at a grazing angle.  The region is
    # convex there, so each reflected segment meets z2 again after a few
    # percent of what is left, and MAX_BOUNCES bounces use up only about a
    # third of the step.
    pair = SurfacePair(ScalarField.from_expression("cos(x)"),
                       ScalarField.from_expression("cos(y)+5/2"),
                       (0, 2 * math.pi, 0, 2 * math.pi))
    r = np.array([[2.7187423386019685, -0.05675369601387542,
                   3.4983826226733856]])
    delta = np.array([[0.12240364241486275, -0.1903989895963329,
                       -0.011251755779247582]])
    searches = []

    def recording(pair, r0, seg):
        t, which, gx, gy = _crossing(pair, r0, seg)
        searches.append(((pair.z1, pair.z2)[int(which[0])], float(t[0])))
        return t, which, gx, gy

    monkeypatch.setattr(brownian, "_crossing", recording)
    stats = {"double_cross": 0, "rejected": 0}
    out = _surface_step(pair, r, delta, stats)
    assert stats == {"double_cross": 0, "rejected": 1}
    assert np.array_equal(out, r)
    assert len(searches) == MAX_BOUNCES
    assert all(field is pair.z2 for field, _ in searches)
    fractions = np.array([t for _, t in searches])
    assert np.all((0.03 < fractions) & (fractions < 0.08))
    assert 0.6 < np.prod(1.0 - fractions) < 0.66
    ref_stats = {"double_cross": 0, "rejected": 0}
    ref = _ref_surface_step(_FullReads(pair), r, delta, ref_stats)
    assert ref.tobytes() == out.tobytes() and ref_stats == stats


def test_every_jackknife_replicate_keeps_two_particles():
    slab = Slab(0.0)
    for n, blocks in ((2, 2), (3, 2), (5, 6)):
        with pytest.raises(InputError) as info:
            McJob(slab, n_particles=n, jackknife_blocks=blocks)
        assert info.value.field == "jackknife_blocks"
    for n, blocks in ((4, 2), (3, 3)):
        res = mc_projected_tensor(McJob(slab, n_particles=n, n_steps=1,
                                        jackknife_blocks=blocks))
        assert np.all(np.isfinite(res.stderr))


def test_slab_geometry():
    slab = Slab(2.0, gap=1.0)
    # the plane z = 2x contains (1, 0, 2); the upper one is one unit above
    assert slab.coordinate(np.array([1.0, 0.0, 2.0])) == pytest.approx(0.0, abs=1e-15)
    assert slab.coordinate(np.array([1.0, 0.0, 3.0])) == pytest.approx(slab.width, abs=1e-15)
    assert slab.normal @ slab.normal == pytest.approx(1.0, abs=1e-15)


def test_a_slab_is_its_slope_and_gap():
    assert [f.name for f in fields(Slab) if f.init] == ["mu", "gap"]
    assert Slab() == Slab(0.0, 1.0) and Slab(2.0).width == 1.0 / math.sqrt(5.0)
    assert not hasattr(Slab, "d1") and not hasattr(Slab(), "d2")
    # the start's last bits: half the width over a rounded normal
    assert tuple(Slab(1.0, 1.0).midpoint_start()) == (
        0.0, 0.0, 0.49999999999999994)
    # steeper than |normal_z| <= 1e-12: half-way along the normal
    assert tuple(Slab(1e13, 1e13).midpoint_start()) == (-0.5, 0.0, 5e-14)


@pytest.mark.parametrize("mu,gap,named", [
    (0.0, 0.0, "gap"), (0.0, -1.0, "gap"), (0.0, math.inf, "gap"),
    (0.0, math.nan, "gap"), (1e200, 1.0, "mu"), (math.inf, 1.0, "mu"),
    (math.nan, 1.0, "mu"), (1e100, 1e-300, "gap"),
    # ints: too large for a float, or with 1 + mu^2 too large for one
    (10**400, 1.0, "mu"), (1.0, 10**400, "gap"), (10**200, 1.0, "mu"),
    (-10**400, 1, "mu"), (0, -10**400, "gap")])
def test_a_slab_without_a_finite_positive_width_is_refused(mu, gap, named):
    with pytest.raises(InputError, match=f"^{named} ") as info:
        Slab(mu, gap)
    assert info.value.field == named


@pytest.mark.parametrize("key,value", [
    ("n_steps", 10**400), ("n_particles", 10**400), ("n_steps", 10**15 + 1),
    ("jackknife_blocks", 2.5), ("n_particles", 100.5), ("n_steps", 2.5),
    ("seed", -1), ("seed", 1.5), ("jackknife_blocks", 101)],
    ids=["steps-1e400", "particles-1e400", "steps-1e15+1", "blocks-2.5",
         "particles-100.5", "steps-2.5", "seed-minus-1", "seed-1.5",
         "blocks-above-particles"])
def test_a_job_with_a_count_or_seed_it_cannot_run_is_refused(key, value):
    with pytest.raises(InputError, match=f"^{key} must be an integer in ") as info:
        McJob(Slab(), **{"n_particles": 100, key: value})
    assert info.value.field == key


@pytest.mark.parametrize("key,value", [
    ("dt", 10**400), ("d0", 10**400), ("start", (0, 0, 10**400)),
    ("dt", "1e-3"), ("d0", None), ("start", (0, 0, "0.5")),
    # outside MediumParams' range of d0, which McJob shares
    ("d0", 1e300)],
    ids=["dt-1e400", "d0-1e400", "start-1e400", "dt-text", "d0-none",
         "start-text", "d0-1e300"])
def test_a_job_with_a_real_a_float_cannot_hold_is_refused(key, value):
    with pytest.raises(InputError, match=f"^{key} must be ") as info:
        McJob(Slab(), **{"n_particles": 100, key: value})
    assert info.value.field == key


# ---------------------------------------------------------------------------
# A walk that reads the surfaces through Compiled.evaluate_masked (full
# arrays, a full mask and an np.errstate of its own on every call) and keeps
# one (walkers, 2) record of the surfaces hit per step: the reference that
# brownian's walk must reproduce bit for bit.
# ---------------------------------------------------------------------------

class _FullReads:
    """A surface pair read through Compiled.evaluate_masked, counting the
    reads of the heights and of the surfaces."""

    def __init__(self, pair):
        self.z1, self.z2 = pair.z1, pair.z2
        self.reads = {"heights": 0, "surfaces": 0}
        exprs = all(isinstance(f, ExpressionField) for f in (self.z1, self.z2))
        self._heights = exprs and Compiled(self.z1.tree, self.z2.tree)
        self._surfaces = exprs and Compiled(*(getattr(f, part)
                                              for f in (self.z1, self.z2)
                                              for part in ("tree", "dx", "dy")))

    def heights(self, x, y):
        self.reads["heights"] += 1
        if not self._heights:
            z1, z2 = self.z1.value_array(x, y), self.z2.value_array(x, y)
            return z1, z2, np.zeros(np.shape(z1), dtype=bool)
        (z1, z2), bad = self._heights.evaluate_masked((x, y))
        return z1, z2, bad

    def surfaces(self, x, y):
        self.reads["surfaces"] += 1
        if not self._surfaces:
            *s1, bad1 = self.z1.sample(x, y)
            *s2, bad2 = self.z2.sample(x, y)
            return (*s1, *s2), bad1 | bad2
        return self._surfaces.evaluate_masked((x, y))


def _ref_gap_margins(pair, r):
    """phi1 = z - z1 >= 0 and phi2 = z2 - z >= 0 inside the region."""
    x, y, z = r[:, 0], r[:, 1], r[:, 2]
    z1, z2, bad = pair.heights(x, y)
    if np.count_nonzero(bad):    # raise, naming the undefined sub-expression
        z1, z2 = pair.z1.value_array(x, y), pair.z2.value_array(x, y)
    return z - z1, z2 - z


def _ref_crossing(pair, r0, delta):
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
    walker from one `pair.surfaces` call; a point where one is undefined
    raises BrownianError.
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
            if np.count_nonzero(bad):    # a third of bad.any()'s cost here
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


def _ref_surface_step(pair, r, delta, stats):
    """Move each walker from r by delta, reflecting off the surfaces.
    Each bounce searches once, for the walkers still outside."""
    out = end = r + delta
    hit = np.zeros((r.shape[0], 2), dtype=bool)
    idx = np.arange(r.shape[0])
    seg_start, seg_delta = r, delta
    for bounce in range(MAX_BOUNCES + 1):
        if bounce:
            out[idx] = end
        phi1, phi2 = _ref_gap_margins(pair, end)
        outside = np.minimum(phi1, phi2) < 0.0
        if not np.count_nonzero(outside):
            break
        idx, seg_start, seg_delta = idx[outside], seg_start[outside], seg_delta[outside]
        if bounce == MAX_BOUNCES:
            out[idx] = r[idx]
            stats["rejected"] += idx.size
            break

        t, on2, gx, gy = _ref_crossing(pair, seg_start, seg_delta)
        cross = seg_start + t[:, None] * seg_delta
        norm = np.sqrt(1.0 + gx * gx + gy * gy)
        nvec = np.stack([-gx, -gy, np.ones_like(gx)], axis=1) / norm[:, None]

        remaining = (1.0 - t)[:, None] * seg_delta
        reflected = remaining - 2.0 * (remaining * nvec).sum(axis=1)[:, None] * nvec

        hit[idx, on2.astype(int)] = True
        seg_start, seg_delta = cross, reflected
        end = cross + reflected

    stats["double_cross"] += int(np.count_nonzero(hit.all(axis=1)))
    return out


def _ref_walk(job):
    """Displacements, counters and surface reads of the reference walk;
    McJob has checked its start."""
    pair = _FullReads(job.geometry)
    start = np.asarray(job.start, dtype=float)
    sigma = math.sqrt(2.0 * job.d0 * job.dt)
    rng = np.random.default_rng(job.seed)
    stats = {"double_cross": 0, "rejected": 0}
    r = np.tile(start, (job.n_particles, 1))
    for _ in range(job.n_steps):
        step = sigma * rng.standard_normal((job.n_particles, 3))
        r = _ref_surface_step(pair, r, step, stats)
    return r[:, :2] - start[:2], stats, pair.reads


def _waves_job():
    waves = SurfacePair(ScalarField.from_expression("cos(x)"),
                        ScalarField.from_expression("cos(y)+5/2"),
                        (-60, 60, -60, 60))
    return McJob(waves, dt=1e-2, n_particles=300, n_steps=60, seed=3,
                 start=(0.0, 0.0, 1.5))


def _grid_job():
    xs = np.linspace(-3, 3, 61)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    low = 0.4 * np.sin(2 * gx) + 0.1 * np.cos(3 * gy)
    pair = SurfacePair(GridField((-3, -3), (0.1, 0.1), low),
                       GridField((-3, -3), (0.1, 0.1), low + 0.6), (-3, 3, -3, 3))
    return McJob(pair, dt=1e-3, n_particles=400, n_steps=100, seed=4,
                 start=(0.0, 0.0, 0.3), jackknife_blocks=10)


def _thin_channel_job():
    # a gap of 0.15 to 0.35 against steps of deviation 0.063: some steps
    # cross both walls
    pair = SurfacePair(ScalarField.from_expression("0.3*sin(x)"),
                       ScalarField.from_expression("0.3*sin(x)+0.25+0.1*cos(y)"),
                       (0, 2 * math.pi, 0, 2 * math.pi))
    return McJob(pair, dt=2e-3, n_particles=500, n_steps=200, seed=4,
                 start=(1.0, 1.0, 0.3 * math.sin(1.0) + 0.12))


_WALKS = {"waves": _waves_job, "grid": _grid_job, "thin channel": _thin_channel_job}


@pytest.mark.parametrize("kind", sorted(_WALKS))
def test_walk_is_bit_equal_to_the_full_read_reference(kind):
    job = _WALKS[kind]()
    disp, stats = brownian._run_surfaces(job)
    want, want_stats, _ = _ref_walk(job)
    assert disp.tobytes() == want.tobytes()
    assert stats == want_stats
    if kind == "thin channel":
        assert stats["double_cross"] > 0


def test_walk_reads_the_compiled_surfaces_as_often_as_the_reference(
        monkeypatch):
    # one read of both heights per position tested (each step's end and
    # each reflected end) and one of both surfaces and their gradients per
    # iteration of a crossing search: a read added to the walk fails here
    job = _waves_job()
    _, _, want = _ref_walk(job)
    assert want["surfaces"] > want["heights"] > job.n_steps

    generate, reads = expr._generate, {}

    def counting(trees):
        run = generate(trees)

        def counted(x, y):
            reads[len(trees)] = reads.get(len(trees), 0) + 1
            return run(x, y)
        return counted

    monkeypatch.setattr(expr, "_generate", counting)
    job = _waves_job()      # compiled on first use, through `counting`
    reads.clear()           # the validation lattice's and the start's reads
    brownian._run_surfaces(job)
    assert reads == {2: want["heights"], 6: want["surfaces"]}
