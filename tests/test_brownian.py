import math
from dataclasses import replace

import numpy as np
import pytest

from effdiff import brownian
from effdiff.brownian import (
    MAX_BOUNCES, BrownianError, McJob, Slab, StepTooLargeError, _crossing,
    _surface_step, double_cross_probability, mc_projected_tensor,
)
from effdiff.geometry import GridField, ScalarField, SurfacePair


def slab_job(mu, **kw):
    defaults = dict(d0=1.0, dt=1e-3, n_particles=10000, n_steps=1000,
                    seed=42, start=(0.0, 0.0, 0.4))
    defaults.update(kw)
    return McJob(Slab.from_slope(mu), **defaults)


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


def test_oversized_steps_abort():
    with pytest.raises(StepTooLargeError):
        mc_projected_tensor(slab_job(0.0, dt=10.0, n_particles=500, n_steps=50))


def test_start_must_be_inside():
    with pytest.raises(BrownianError):
        mc_projected_tensor(slab_job(0.0, start=(0.0, 0.0, 2.0)))
    pair = SurfacePair(ScalarField.from_expression("0"),
                       ScalarField.from_expression("1"), (-5, 5, -5, 5))
    with pytest.raises(BrownianError):
        mc_projected_tensor(McJob(pair, start=(0.0, 0.0, 1.5),
                                  n_particles=100, n_steps=10))


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
    slab = mc_projected_tensor(replace(job, geometry=Slab.from_slope(1.0)))
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
    """One walker, one step: (end point, rejected, touched both surfaces)."""
    def margin(k, p):
        _, f, _, sgn = _STEEP[k]
        return sgn * (p[2] - f(p[0], p[1]))

    start, seg, hit = list(r), list(d), set()
    for bounce in range(MAX_BOUNCES + 1):
        end = [a + b for a, b in zip(start, seg)]
        crossed = [k for k in (0, 1) if margin(k, end) < 0.0]
        if not crossed:
            return end, False, len(hit) == 2
        if bounce == MAX_BOUNCES:
            return list(r), True, len(hit) == 2
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
    rejected = np.array([rej for _, rej, _ in ref])
    assert np.array_equal(out[rejected], r[rejected])
    assert stats["rejected"] == rejected.sum() > 0
    assert stats["double_cross"] == sum(both for *_, both in ref) > 0
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


def _assert_crossing_matches_halvings(field, sgn, r0, delta):
    end = r0 + delta
    assert np.all(sgn * (end[:, 2] - field.value_array(end[:, 0], end[:, 1])) < 0)
    t = _crossing(field, sgn, r0, delta)
    assert np.allclose(t, _halvings(field, sgn, r0, delta), rtol=0.0, atol=1e-12)
    return t


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
    t = _assert_crossing_matches_halvings(z1, 1.0, r0, delta)
    assert np.all(t > 0.05)


def test_crossing_search_on_near_tangent_segments():
    # horizontal segments from the axis of z1 = x^2, eps above it: they
    # leave at t = 1/2 at an angle of 2 sqrt(eps)
    z1 = ScalarField.from_expression("x^2")
    eps = np.array([1e-2, 1e-4, 1e-6, 1e-8])
    r0 = np.stack([np.zeros(4), np.ones(4), eps], axis=1)
    delta = np.stack([2.0 * np.sqrt(eps), np.full(4, 0.3), np.zeros(4)], axis=1)
    t = _assert_crossing_matches_halvings(z1, 1.0, r0, delta)
    assert np.allclose(t, 0.5, rtol=0.0, atol=1e-12)


def test_crossing_search_on_steep_walls():
    pair = SurfacePair(*(ScalarField.from_expression(src)
                         for src, *_ in _STEEP), (-3, 3, -3, 3))
    rng = np.random.default_rng(5)
    x, y = rng.uniform(-3, 3, (2, 400))
    lo, hi = pair.z1.value_array(x, y), pair.z2.value_array(x, y)
    r = np.stack([x, y, lo + rng.uniform(0.1, 0.9, 400) * (hi - lo)], axis=1)
    delta = 0.5 * rng.standard_normal((400, 3))
    end = r + delta
    for field, sgn in ((pair.z1, 1.0), (pair.z2, -1.0)):
        beyond = sgn * (end[:, 2] - field.value_array(end[:, 0], end[:, 1])) < 0
        assert beyond.sum() > 100
        _assert_crossing_matches_halvings(field, sgn, r[beyond], delta[beyond])


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

    def recording(field, sgn, r0, seg):
        t = _crossing(field, sgn, r0, seg)
        searches.append((field, float(t[0])))
        return t

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


def test_every_jackknife_replicate_keeps_two_particles():
    slab = Slab.from_slope(0.0)
    for n, blocks in ((2, 2), (3, 2), (5, 6)):
        with pytest.raises(BrownianError):
            McJob(slab, n_particles=n, jackknife_blocks=blocks)
    for n, blocks in ((4, 2), (3, 3)):
        res = mc_projected_tensor(McJob(slab, n_particles=n, n_steps=1,
                                        jackknife_blocks=blocks))
        assert np.all(np.isfinite(res.stderr))


def test_slab_from_slope_geometry():
    slab = Slab.from_slope(2.0, gap=1.0)
    # the plane z = 2x contains (1, 0, 2); the upper one is one unit above
    assert slab.coordinate(np.array([1.0, 0.0, 2.0])) == pytest.approx(0.0, abs=1e-15)
    assert slab.coordinate(np.array([1.0, 0.0, 3.0])) == pytest.approx(slab.d2, abs=1e-15)
    assert slab.normal @ slab.normal == pytest.approx(1.0, abs=1e-15)
