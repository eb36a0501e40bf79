"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (visible with pytest -s; always printed
on failure).  Tolerances are fixed here, not calibrated at runtime.
"""

import json
import math
import time

import numpy as np

import effdiff.cli as cli
from effdiff.brownian import McJob, Slab, mc_projected_tensor
from effdiff.geometry import (
    FrameData, PlaneConfig, ScalarField, SurfacePair, frame_for_planes,
)
from effdiff.pde import PdeGrid, evolve, stability_bound
from effdiff.quadrature import WedgeQuadratureJob, quadrature_tensor
from effdiff.tensor import (
    MediumParams, channel_recovery, effective_tensor, extreme_tilt_tensor,
    polar_decompose, rho_omega, sample_tensor,
)

MED = MediumParams(1.0)


def report(num, desc, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def plain_frame(psi, m1, m2):
    return FrameData((1.0, 0.0), (0.0, 1.0), psi, m1, m2, 0.5 * (m1 + m2))


# ---------------------------------------------------------------------------

def test_criterion_01_oracle_equivalence_on_random_wedges():
    rng = np.random.default_rng(20260810)
    t0 = time.monotonic()
    worst = 0.0
    worst_doubling = 0.0
    for case in range(200):
        psi = float(rng.uniform(-1.4, 1.4))
        m1, m2 = np.sort(rng.uniform(-10.0, 10.0, size=2))
        if m2 - m1 < 0.1:
            m2 = m1 + 0.1
        theta = float(rng.uniform(0, 2 * math.pi))
        # realize the frame with actual plane normals, rotated about zhat
        xhat = np.array([math.cos(theta), math.sin(theta), 0.0])
        yhat = np.array([-math.sin(theta), math.cos(theta), 0.0])
        zhat = np.array([0.0, 0.0, 1.0])
        big_x = xhat
        big_z = -math.sin(psi) * yhat + math.cos(psi) * zhat
        n1 = (m1 * big_x - big_z) / math.hypot(m1, 1.0)
        n2 = (m2 * big_x - big_z) / math.hypot(m2, 1.0)
        fr = frame_for_planes(PlaneConfig(n1, n2))

        closed = effective_tensor(plain_frame(fr.psi, fr.m1, fr.m2), MED).coeffs
        lo, hi = sorted((fr.m1, fr.m2))
        quad = quadrature_tensor(WedgeQuadratureJob(fr.psi, lo, hi))
        worst = max(worst, float(np.abs(closed - quad).max()))
        if case % 20 == 0:  # doubling invariance on a subsample
            quad2 = quadrature_tensor(WedgeQuadratureJob(fr.psi, lo, hi,
                                                         points=256))
            worst_doubling = max(worst_doubling,
                                 float(np.abs(quad - quad2).max()))
    elapsed = time.monotonic() - t0
    report(1, "closed form matches wedge quadrature on 200 random configs",
           worst <= 1e-6 and worst_doubling <= 1e-6 and elapsed < 60.0,
           f"worst={worst:.3g}, doubling={worst_doubling:.3g}, "
           f"elapsed={elapsed:.1f}s")


def test_criterion_02_parallel_plane_monte_carlo():
    failures = []
    details = []
    for k, mu in enumerate((0.0, 0.5, 1.0, 2.0)):
        slab = Slab(mu)
        job = McJob(slab, d0=1.0, dt=1e-3, n_particles=100_000,
                    n_steps=10_000, seed=20260810 + k, start=(0.0, 0.0, 0.5))
        res = mc_projected_tensor(job)
        want = 1.0 / (1.0 + mu * mu)
        dxx, dyy = res.estimate[0, 0], res.estimate[1, 1]
        rel = abs(dxx - want) / want
        sigmas = abs(dxx - want) / res.stderr[0, 0]
        rel_y = abs(dyy - 1.0)
        details.append(f"mu={mu}: rel={100 * rel:.2f}%/{sigmas:.1f}sig, "
                       f"Dyy rel={100 * rel_y:.2f}%")
        if rel > 0.03 or sigmas > 3.0 or rel_y > 0.03:
            failures.append(mu)
    report(2, "slab Monte Carlo reproduces 1/(1+mu^2) and 1",
           not failures, "; ".join(details))


def test_criterion_03_channel_recovery():
    z1 = ScalarField.from_expression("sin(x)-3/2")
    z2 = ScalarField.from_expression("cos(2*x)+3/2")
    pair = SurfacePair(z1, z2, (-0.5, 2 * math.pi + 0.5, -1.0, 1.0))
    xs = np.concatenate([np.linspace(0.0, 2 * math.pi, 98),
                         [math.pi / 2, 3 * math.pi / 2]])
    _, _, _, pipeline = sample_tensor(pair, xs, np.zeros_like(xs), MED)
    # the slopes read by each field's own derivative trees, not by the
    # pair's compiled function that the pipeline reads them with
    ys = np.zeros_like(xs)
    formula = channel_recovery(z1.gradient_array(xs, ys)[0],
                               z2.gradient_array(xs, ys)[0], MED)
    worst = float(np.abs(pipeline.coeffs - formula).max())
    report(3, "surface pipeline reproduces the planar-channel matrix at "
              "100 x-values", worst <= 1e-10, f"worst={worst:.3g}")


def test_criterion_04_radial_example():
    pair = SurfacePair(ScalarField.from_expression("sin(r)-3/2"),
                       ScalarField.from_expression("cos(2*r)+3/2"),
                       (-8, 8, -8, 8))
    xs = np.linspace(-8, 8, 64)
    x, y = (c.ravel() for c in np.meshgrid(xs, xs, indexing="ij"))
    r = np.hypot(x, y)
    keep = r >= 1e-9
    x, y, r = x[keep], y[keep], r[keep]
    _, _, _, tensor = sample_tensor(pair, x, y, MED)
    t = tensor.coeffs
    worst_psi = float(np.abs(tensor.frame.psi).max())
    worst_off = float(np.abs(t[:, [0, 1], [1, 0]]).max())
    d22_exact = bool(np.all(t[:, 1, 1] == 1.0))
    # zero tilt: omega of the slopes f1'(r), f2'(r) along grad w
    want = rho_omega(np.cos(r), -2.0 * np.sin(2.0 * r))[1]
    worst_omega = float(np.abs(t[:, 0, 0] - want).max())
    report(4, "radial surfaces: diagonal tensor with zero-tilt diffusivity",
           worst_psi <= 1e-10 and worst_off <= 1e-12 and d22_exact
           and worst_omega <= 1e-10,
           f"|psi|<={worst_psi:.2g}, off-diag<={worst_off:.2g}, "
           f"D22 exact={d22_exact}, omega err<={worst_omega:.2g}")


def test_criterion_05_waves_example():
    pair = SurfacePair(ScalarField.from_expression("cos(x)"),
                       ScalarField.from_expression("cos(y)+5/2"),
                       (-0.5, 2 * math.pi + 0.5, -0.5, 2 * math.pi + 0.5))
    # the centre, then the lines x = n pi and y = n pi for n = 0, 1, 2
    sweep = np.linspace(0.0, 2 * math.pi, 41)
    lines = np.repeat(np.arange(3) * math.pi, sweep.size)
    along = np.tile(sweep, 3)
    x = np.concatenate([[math.pi / 2], lines, along])
    y = np.concatenate([[math.pi / 2], along, lines])
    _, _, _, tensor = sample_tensor(pair, x, y, MED)
    center_ok = abs(tensor.frame.psi[0] + math.asin(0.5)) <= 1e-12
    worst_line = float(np.abs(tensor.frame.psi[1:]).max())
    report(5, "waves: psi(pi/2,pi/2) = -arcsin(1/2); psi vanishes on the "
              "lattice lines", center_ok and worst_line <= 1e-10,
           f"line max |psi|={worst_line:.2g}")


def test_criterion_06_extreme_tilt():
    rng = np.random.default_rng(99)
    worst_eig = worst_ep = 0.0
    for _ in range(100):
        m1, m2 = rng.uniform(-10, 10, size=2)
        rho, omega = rho_omega(float(m1), float(m2))
        mu = 0.5 * (m1 + m2)
        lam = mu * rho + omega
        for sign, direction in (("+", np.array([omega, -rho])),
                                ("-", np.array([omega, rho]))):
            tensor, (ep, em) = extreme_tilt_tensor(float(m1), float(m2),
                                                   sign, MED)
            eigs = np.sort(np.linalg.eigvals(tensor.coeffs).real)
            worst_eig = max(worst_eig, abs(eigs[0]), abs(eigs[1] - lam))
            want = (lam / math.hypot(omega, rho)) * direction
            worst_ep = max(worst_ep, float(np.abs(ep - want).max()),
                           float(np.abs(em + want).max()))
    report(6, "extreme-tilt tensors have eigenvalues {0, D0(mu rho + omega)} "
              "and the stated segment endpoints",
           worst_eig <= 1e-12 and worst_ep <= 1e-12,
           f"eig err<={worst_eig:.2g}, endpoint err<={worst_ep:.2g}")


def test_criterion_07_degenerate_limit_continuity():
    ok = True
    details = []
    for mu in (0.0, 1.0, 5.0):
        limit = np.array([mu / (1 + mu * mu), 1.0 / (1 + mu * mu)])
        cs = []
        for h in (1e-2, 1e-3, 1e-4):
            dev = float(np.linalg.norm(np.array(rho_omega(mu - h, mu + h))
                                       - limit))
            cs.append(dev / h**2)
        stable = max(cs) / max(min(cs), 1e-30) < 1.5
        ok = ok and stable
        details.append(f"mu={mu}: C in [{min(cs):.3g}, {max(cs):.3g}]")
    report(7, "rho_omega approaches the coincident-slope limit at rate C h^2",
           ok, "; ".join(details))


def test_criterion_08_polar_decomposition():
    rng = np.random.default_rng(7)
    worst_rec = worst_orth = worst_sym = worst_psd = 0.0
    done = 0
    while done < 1000:
        d = rng.uniform(-1, 1, size=(2, 2))
        if np.linalg.det(d) <= 0:
            continue
        done += 1
        ell = polar_decompose(d)
        scale = max(float(np.linalg.norm(d)), 1e-30)
        worst_rec = max(worst_rec, float(np.abs(ell.S @ ell.R - d).max()) / scale)
        worst_orth = max(worst_orth,
                         float(np.abs(ell.R @ ell.R.T - np.eye(2)).max()))
        worst_sym = max(worst_sym, abs(ell.S[0, 1] - ell.S[1, 0]))
        worst_psd = max(worst_psd, -min(ell.lambda1, ell.lambda2))
    report(8, "S R reconstructs 1000 random matrices; R orthogonal, S "
              "symmetric PSD",
           worst_rec <= 1e-12 and worst_orth <= 1e-12 and worst_sym == 0.0
           and worst_psd <= 0.0,
           f"rec<={worst_rec:.2g}, orth<={worst_orth:.2g}")


def test_criterion_09_pde_solver():
    # mass conservation + stationarity on the radial geometry
    pair = SurfacePair(ScalarField.from_expression("sin(r)-3/2"),
                       ScalarField.from_expression("cos(2*r)+3/2"),
                       (-8, 8, -8, 8))
    grid = PdeGrid.from_surfaces(pair, MED, 32, 32,
                                 p0=lambda x, y: 1.0 + np.exp(-(x**2 + y**2)))
    dt = 0.5 * stability_bound(grid)
    m0 = grid.mass()
    grid = evolve(grid, dt, 1000, mode="finite")
    mass_drift = abs(grid.mass() - m0) / m0

    stat = PdeGrid.from_surfaces(pair, MED, 32, 32)  # p0 = w
    p0 = stat.p.copy()
    stat = evolve(stat, dt, 1000, mode="finite")
    stat_drift = float(np.max(np.abs(stat.p - p0))) / float(p0.max())

    # Fourier decay rate convergence on the flat slab
    slab = SurfacePair(ScalarField.from_expression("0"),
                       ScalarField.from_expression("1"), (0, 1, 0, 0.25))

    def decay_error(nx):
        k = 2 * math.pi
        g = PdeGrid.from_surfaces(slab, MED, nx, 4,
                                  p0=lambda x, y: 1 + 0.01 * np.cos(k * x))
        dt_f = 0.05 * g.hx**2
        steps = int(round(0.03 / dt_f))
        mode = np.cos(k * g.xc)[:, None]

        def amp(gg):
            return float((gg.p * mode).sum())

        a0 = amp(g)
        g = evolve(g, dt_f, steps, mode="finite")
        rate = math.log(a0 / amp(g)) / (steps * dt_f)
        return abs(rate - k * k)

    e32, e64 = decay_error(32), decay_error(64)
    ratio = e32 / e64
    report(9, "mass conserved to 1e-12/1000 steps, p = c w stationary, "
              "Fourier error shrinks x4 under mesh halving",
           mass_drift <= 1e-12 and stat_drift <= 1e-13
           and 3.0 <= ratio <= 5.0,
           f"mass drift={mass_drift:.2g}, stationary drift={stat_drift:.2g}, "
           f"ratio={ratio:.2f}")


def test_criterion_10_cli_determinism(tmp_path):
    def run_twice(name, argv):
        out = tmp_path / name
        assert cli.main(argv + ["--out", str(out)]) == 0
        first = out.read_bytes()
        assert cli.main(argv + ["--out", str(out)]) == 0
        return first == out.read_bytes()

    oracle_cfg = tmp_path / "oracle.cfg"
    oracle_cfg.write_text("count=20\nseed=11\n")
    mc_cfg = tmp_path / "mc.cfg"
    mc_cfg.write_text("mu=0.5\ngap=1\nparticles=3000\nsteps=300\ndt=1e-3\n"
                      "seed=4\n")
    solve_cfg = tmp_path / "solve.cfg"
    solve_cfg.write_text("z1=0\nz2=2+sin(x)\ndomain=0,6.283185307179586,0,1\n"
                         "resolution=16x3\nsteps=60\nsnap_every=60\n")

    ok_oracle = run_twice("oracle.json", ["oracle", "--config", str(oracle_cfg)])
    ok_mc = run_twice("mc.json", ["mc", "--config", str(mc_cfg)])

    prefix = tmp_path / "snap"
    assert cli.main(["solve", "--config", str(solve_cfg),
                     "--out", str(prefix)]) == 0
    first = [(p.name, p.read_bytes()) for p in sorted(tmp_path.glob("snap_*.csv"))]
    assert cli.main(["solve", "--config", str(solve_cfg),
                     "--out", str(prefix)]) == 0
    second = [(p.name, p.read_bytes()) for p in sorted(tmp_path.glob("snap_*.csv"))]
    ok_solve = first == second and len(first) >= 2

    report(10, "oracle, mc and solve outputs are byte-identical across "
               "repeated seeded runs", ok_oracle and ok_mc and ok_solve)
