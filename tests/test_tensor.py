import cmath
import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from effdiff.geometry import (
    FrameData, InputError, ScalarField, SurfacePair, frame_field,
    frame_from_gradients, frame_from_slopes,
)
from effdiff.tensor import (
    EffectiveTensor, ExtremeTiltError, MediumParams, TensorError,
    channel_recovery, effective_tensor, extreme_tilt, extreme_tilt_tensor,
    polar_decompose, rho_omega, sample_tensor, to_cartesian,
)

MED = MediumParams(1.0)


def frame(psi, m1, m2, xhat=(1.0, 0.0), yhat=(0.0, 1.0)):
    return FrameData(xhat, yhat, psi, m1, m2, 0.5 * (m1 + m2))


# ---------------------------------------------------------------------------
# rho_omega
# ---------------------------------------------------------------------------

def test_rho_omega_coincident_limit():
    assert rho_omega(0.0, 0.0) == (0.0, 1.0)
    rho, om = rho_omega(2.0, 2.0)
    assert rho == pytest.approx(2.0 / 5.0, abs=1e-15)
    assert om == pytest.approx(1.0 / 5.0, abs=1e-15)


def test_rho_omega_wedge_values():
    rho, om = rho_omega(0.0, 1.0)
    # brute force via the principal complex log (valid here: 1 + m1 m2 > 0)
    ref = cmath.log((1 + 1j) / (1 + 0j)) / 1.0
    assert rho == pytest.approx(ref.real, abs=1e-15)
    assert om == pytest.approx(ref.imag, abs=1e-15)
    assert om == pytest.approx(math.pi / 4, abs=1e-15)
    assert rho == pytest.approx(0.5 * math.log(2.0), abs=1e-15)


def test_rho_omega_branch_cut_regime():
    # 1 + m1 m2 = -24 < 0: principal-branch log would be off by pi/(m2-m1)
    rho, om = rho_omega(-5.0, 5.0)
    assert om == pytest.approx((math.atan(5.0) - math.atan(-5.0)) / 10.0, abs=1e-15)
    assert om == pytest.approx(0.2746801533890032, abs=1e-15)
    assert rho == 0.0


def test_rho_omega_exchange_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        m1, m2 = rng.uniform(-10, 10, size=2)
        a = rho_omega(m1, m2)
        b = rho_omega(m2, m1)
        assert abs(a[0] - b[0]) <= 1e-14 * max(1.0, abs(a[0]))
        assert abs(a[1] - b[1]) <= 1e-14 * max(1.0, abs(a[1]))


def test_rho_omega_branch_correctness():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        m1, m2 = rng.uniform(-20, 20, size=2)
        if abs(m2 - m1) < 1e-6:
            continue
        _, om = rho_omega(m1, m2)
        assert om * (m2 - m1) == pytest.approx(
            math.atan(m2) - math.atan(m1), abs=1e-12)


def test_rho_omega_coincident_continuity():
    # deviation from the limit shrinks as C h^2 with stable C
    for mu in (0.0, 1.0, 5.0):
        limit = np.array([mu / (1 + mu * mu), 1 / (1 + mu * mu)])
        cs = []
        for h in (1e-2, 1e-3, 1e-4):
            dev = np.array(rho_omega(mu - h, mu + h)) - limit
            cs.append(np.linalg.norm(dev) / h**2)
        top, bot = max(cs), min(cs)
        assert top <= 1e-12 / 1e-8 or top / max(bot, 1e-30) < 1.5, (mu, cs)


def test_rho_omega_rejects_non_finite():
    with pytest.raises(TensorError):
        rho_omega(float("nan"), 1.0)
    with pytest.raises(TensorError):
        rho_omega(0.0, float("inf"))


def test_rho_omega_marks_undefined_points_on_arrays_and_raises_on_floats():
    # 1 + m^2 overflows past |m| ~ 1.34e154, also where the slopes coincide
    # or their spacing overflows; 1e150 is the steepest pair kept here
    m1 = np.array([0.0, np.nan, 0.0, 1e300, 2.0, 1e155, -1e308, 1e150])
    m2 = np.array([1.0, 1.0, np.inf, -1e300, 2.0, 1e155, 1e308, 1e150])
    rho, omega = rho_omega(m1, m2)
    undefined = ~(np.isfinite(rho) & np.isfinite(omega))
    assert undefined.tolist() == [False, True, True, True, False, True, True,
                                  False]
    for k in (0, 4, 7):
        assert (rho[k], omega[k]) == rho_omega(float(m1[k]), float(m2[k]))
    with pytest.raises(TensorError,
                       match=r"^tensor undefined \(slope overflow\)$"):
        rho_omega(float("nan"), 1.0)
    for k in (3, 5, 6):
        with pytest.raises(TensorError,
                           match=r"^tensor undefined \(slope overflow\)$"):
            rho_omega(float(m1[k]), float(m2[k]))
    with pytest.raises(TensorError, match=r"^tensor undefined \(slope "):
        rho_omega(1e300, -1e300)


# ---------------------------------------------------------------------------
# effective_tensor
# ---------------------------------------------------------------------------

def test_tensor_parallel_planes():
    t = effective_tensor(frame(0.0, 1.0, 1.0), MED)
    assert np.allclose(t.coeffs, np.diag([0.5, 1.0]), atol=1e-15)


def test_tensor_wedge_no_tilt():
    t = effective_tensor(frame(0.0, 0.0, 1.0), MED)
    assert np.allclose(t.coeffs, np.diag([math.pi / 4, 1.0]), atol=1e-15)
    assert t.coeffs[0, 1] == 0.0 and t.coeffs[1, 0] == 0.0


def test_tensor_flat_is_identity():
    t = effective_tensor(frame(0.0, 0.0, 0.0), MED)
    assert np.array_equal(t.coeffs, np.eye(2))


def test_tensor_zero_tilt_structure():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m1, m2 = rng.uniform(-10, 10, size=2)
        t = effective_tensor(frame(0.0, m1, m2), MediumParams(2.5))
        assert t.coeffs[0, 1] == 0.0 and t.coeffs[1, 0] == 0.0
        assert t.coeffs[1, 1] == 2.5
        assert t.coeffs[0, 0] > 0.0


def test_tensor_determinant_identity_and_psd_symmetric_factor():
    # det D = D0^2 omega cos(psi)^2 and the polar factor S is PSD
    rng = np.random.default_rng(4)
    for _ in range(200):
        psi = rng.uniform(-1.5, 1.5)
        m1, m2 = rng.uniform(-10, 10, size=2)
        t = effective_tensor(frame(psi, m1, m2), MED)
        _, om = rho_omega(m1, m2)
        det = np.linalg.det(t.coeffs)
        assert det == pytest.approx(om * math.cos(psi) ** 2, rel=1e-10, abs=1e-12)
        ell = polar_decompose(t)
        assert ell.lambda2 >= -1e-12


@pytest.mark.parametrize("d0", [10**400, "1", None, 1e300, 1e-300],
                         ids=["int-1e400", "text", "none", "1e300", "1e-300"])
def test_a_medium_whose_d0_a_float_cannot_hold_is_refused(d0):
    # 1e300 and 1e-300: the squares of a tensor's entries overflow or
    # underflow in polar_decompose
    with pytest.raises(InputError, match="^d0 must be ") as info:
        MediumParams(d0)
    assert info.value.field == "d0"


def test_tensor_refuses_extreme_tilt():
    with pytest.raises(ExtremeTiltError):
        effective_tensor(frame(math.pi / 2 - 1e-12, 0.0, 1.0), MED)


def test_effective_tensor_marks_every_undefined_point_on_arrays():
    # valid rows, then an extreme tilt, a NaN slope and too-large slopes:
    # overflowing, coincident, and with a spacing that overflows
    cases = [(0.3, -1.0, 2.0), (0.0, 1.0, 1.0), (-1.2, 0.5, 7.0),
             (math.pi / 2 - 1e-12, 0.0, 1.0), (0.4, math.nan, 1.0),
             (0.0, 1e300, -1e300), (0.0, 1e155, 1e155), (0.2, -1e308, 1e308)]
    psi, m1, m2 = np.array(cases).T
    t = effective_tensor(frame(psi, m1, m2), MediumParams(2.5))
    undefined = np.isnan(t.coeffs).any(axis=(1, 2))
    assert undefined.tolist() == [False] * 3 + [True] * 5
    assert np.isnan(t.coeffs[3:]).all()
    assert extreme_tilt(t.frame.psi).tolist() == [False] * 3 + [True] + [False] * 4
    for k, case in enumerate(cases[:3]):
        one = effective_tensor(frame(*case), MediumParams(2.5)).coeffs
        assert one.tobytes() == t.coeffs[k].tobytes()
    with pytest.raises(ExtremeTiltError,
                       match=r"^tensor undefined \(extreme tilt\)$"):
        effective_tensor(frame(*cases[3]), MED)
    with pytest.raises(TensorError,
                       match=r"^tensor undefined \(slope overflow\)$"):
        effective_tensor(frame(*cases[4]), MED)
    for case in cases[5:]:
        with pytest.raises(TensorError,
                           match=r"^tensor undefined \(slope overflow\)$"):
            effective_tensor(frame(*case), MED)


# ---------------------------------------------------------------------------
# extreme tilt
# ---------------------------------------------------------------------------

def test_extreme_tilt_eigenvalues_and_endpoints():
    rho, om = rho_omega(0.0, 1.0)
    mu = 0.5
    t, (ep, em) = extreme_tilt_tensor(0.0, 1.0, "+", MED)
    eig = np.sort(np.linalg.eigvals(t.coeffs).real)
    assert eig[0] == pytest.approx(0.0, abs=1e-15)
    assert eig[1] == pytest.approx(mu * rho + om, abs=1e-14)
    assert eig[1] == pytest.approx(0.9586849585374346, abs=1e-15)
    scale = (mu * rho + om) / math.hypot(om, rho)
    assert np.allclose(ep, scale * np.array([om, -rho]), atol=1e-15)
    assert np.allclose(em, -ep, atol=1e-15)


def test_extreme_tilt_random_eigenstructure():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m1, m2 = rng.uniform(-10, 10, size=2)
        rho, om = rho_omega(m1, m2)
        mu = 0.5 * (m1 + m2)
        for sign, null_vec, range_vec in (
                ("-", np.array([mu, -1.0]), np.array([om, rho])),
                ("+", np.array([mu, 1.0]), np.array([om, -rho]))):
            t, _ = extreme_tilt_tensor(m1, m2, sign, MED)
            assert np.linalg.det(t.coeffs) == pytest.approx(0.0, abs=1e-12)
            assert np.allclose(t.coeffs @ null_vec, 0.0, atol=1e-12)
            got = t.coeffs @ range_vec
            want = (mu * rho + om) * range_vec
            assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("sign", ["", "x", "++", None, 1])
def test_extreme_tilt_tensor_refuses_a_sign_that_is_not_plus_or_minus(sign):
    text = f"sign must be '+' or '-', got {sign!r}"
    with pytest.raises(InputError, match=f"^{re.escape(text)}$") as info:
        extreme_tilt_tensor(0.0, 1.0, sign, MED)
    assert info.value.field == "sign"


def test_extreme_tilt_zero_mu_structure():
    t, (ep, _) = extreme_tilt_tensor(-2.0, 2.0, "+", MED)
    rho, om = rho_omega(-2.0, 2.0)
    assert rho == 0.0
    assert np.allclose(t.coeffs, [[om, 0.0], [0.0, 0.0]], atol=1e-15)
    assert np.allclose(ep / np.linalg.norm(ep), [1.0, 0.0], atol=1e-15)


# ---------------------------------------------------------------------------
# polar decomposition
# ---------------------------------------------------------------------------

def test_polar_identity():
    ell = polar_decompose(np.eye(2))
    assert np.allclose(ell.S, np.eye(2), atol=1e-15)
    assert np.allclose(ell.R, np.eye(2), atol=1e-15)
    assert ell.lambda1 == ell.lambda2 == 1.0


def test_polar_symmetric_positive_input():
    d = np.diag([math.pi / 4, 1.0])
    ell = polar_decompose(d)
    assert np.allclose(ell.S, d, atol=1e-15)
    assert np.allclose(ell.R, np.eye(2), atol=1e-14)
    assert ell.lambda1 == pytest.approx(1.0, abs=1e-15)
    assert abs(ell.f1[0]) == pytest.approx(0.0, abs=1e-15)
    assert abs(ell.f1[1]) == pytest.approx(1.0, abs=1e-15)


def test_polar_random_reconstruction():
    rng = np.random.default_rng(6)
    done = 0
    while done < 1000:
        d = rng.uniform(-1, 1, size=(2, 2))
        if np.linalg.det(d) <= 0:
            continue
        done += 1
        ell = polar_decompose(d)
        scale = np.linalg.norm(d)
        assert np.allclose(ell.S @ ell.R, d, atol=1e-12 * scale)
        assert np.allclose(ell.R @ ell.R.T, np.eye(2), atol=1e-12)
        assert ell.S[0, 1] == ell.S[1, 0]
        assert ell.lambda1 >= ell.lambda2 >= 0.0
        assert np.allclose(ell.S @ ell.f1, ell.lambda1 * ell.f1, atol=1e-10 * max(scale, 1))
        assert np.allclose(ell.S @ ell.f2, ell.lambda2 * ell.f2, atol=1e-10 * max(scale, 1))
        # independent oracle: S from numpy's symmetric eigensolver
        w, v = np.linalg.eigh(d @ d.T)
        s_ref = (v * np.sqrt(np.clip(w, 0, None))) @ v.T
        assert np.allclose(ell.S, s_ref, atol=1e-10 * max(scale, 1))


def test_polar_principal_response_maps_to_axes():
    rng = np.random.default_rng(7)
    for _ in range(100):
        d = rng.uniform(-2, 2, size=(2, 2))
        if abs(np.linalg.det(d)) < 1e-3:
            continue
        ell = polar_decompose(d)
        assert np.allclose(d @ ell.e1, ell.lambda1 * ell.f1, atol=1e-10)
        assert np.allclose(d @ ell.e2, ell.lambda2 * ell.f2, atol=1e-10)


def test_polar_degenerate_rank_one():
    t, _ = extreme_tilt_tensor(0.0, 1.0, "+", MED)
    ell = polar_decompose(t)
    assert ell.degenerate
    assert ell.lambda2 == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(ell.R @ ell.R.T, np.eye(2), atol=1e-12)
    assert np.linalg.det(ell.R) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(ell.S @ ell.R, t.coeffs, atol=1e-13)


def test_varying_tilt_minor_axis_collapses():
    lams = []
    psis = np.linspace(-math.pi / 2 + 1e-4, math.pi / 2 - 1e-4, 201)
    for psi in psis:
        t = effective_tensor(frame(psi, 0.0, 1.0), MED)
        lams.append(polar_decompose(t).lambda2)
    lams = np.array(lams)
    assert lams[0] < 1e-6 and lams[-1] < 1e-6
    assert lams.max() > 0.5
    # continuity along the sweep
    assert np.max(np.abs(np.diff(lams))) < 0.05


# ---------------------------------------------------------------------------
# channel recovery / zero-tilt omega
# ---------------------------------------------------------------------------

def test_channel_recovery_wedge():
    # z1 = 0 and z2 = x: slopes 0 and 1
    d = channel_recovery(0.0, 1.0, MED)
    assert np.allclose(d, np.diag([math.pi / 4, 1.0]), atol=1e-15)


def test_channel_recovery_flat():
    assert np.array_equal(channel_recovery(0.0, 0.0, MED), np.eye(2))


def test_channel_recovery_common_slope_limit():
    # z1 = x and z2 = x + 1: one slope, 1
    d = channel_recovery(1.0, 1.0, MED)
    assert np.allclose(d, np.diag([0.5, 1.0]), atol=1e-15)
    # arrays of slopes give a stack
    d = channel_recovery(np.array([0.0, 1.0]), np.array([1.0, 1.0]), MED)
    assert d.shape == (2, 2, 2)
    assert np.allclose(d[:, 0, 0], [math.pi / 4, 0.5], atol=1e-15)


def test_full_pipeline_matches_zero_tilt_omega_on_radial_surfaces():
    # z_i = f_i(r): zero tilt, and omega of the slopes f1'(r), f2'(r)
    # along grad w
    pair = SurfacePair(ScalarField.from_expression("sin(r)-3/2"),
                       ScalarField.from_expression("cos(2*r)+3/2"),
                       (-8, 8, -8, 8))
    p = np.random.default_rng(9).uniform(-6, 6, size=(70, 2))
    r = np.hypot(p[:, 0], p[:, 1])
    p, r = p[r >= 0.3][:50], r[r >= 0.3][:50]
    assert r.size == 50
    _, _, _, t = sample_tensor(pair, p[:, 0], p[:, 1], MED)
    assert np.all(np.abs(t.coeffs[:, 0, 1]) <= 1e-12)
    assert np.all(np.abs(t.coeffs[:, 1, 0]) <= 1e-12)
    assert np.all(t.coeffs[:, 1, 1] == 1.0)
    want = rho_omega(np.cos(r), -2.0 * np.sin(2 * r))[1]
    np.testing.assert_allclose(t.coeffs[:, 0, 0], want, rtol=0, atol=1e-10)


def test_to_cartesian_frames():
    t = EffectiveTensor(np.diag([2.0, 3.0]), frame(0.0, 0, 0))
    assert np.allclose(to_cartesian(t), np.diag([2.0, 3.0]), atol=1e-15)
    t = EffectiveTensor(np.diag([2.0, 3.0]),
                        frame(0.0, 0, 0, (0.0, 1.0), (-1.0, 0.0)))
    assert np.allclose(to_cartesian(t), np.diag([3.0, 2.0]), atol=1e-15)
    s = 1 / math.sqrt(2)
    t = EffectiveTensor(np.diag([1.0, 0.0]), frame(0.0, 0, 0, (s, s), (-s, s)))
    assert np.allclose(to_cartesian(t), [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


@pytest.mark.parametrize("xhat", [(math.nan, 0.0), (1.0, math.inf)])
def test_to_cartesian_refuses_a_frame_that_is_not_finite(xhat):
    # one tensor, and a stack whose second frame alone is not finite
    for fd in (frame(0.0, 0, 0, xhat, (0.0, 1.0)),
               frame(0.0, 0, 0, tuple(np.array([(1.0, 0.0), xhat]).T),
                     (np.zeros(2), np.ones(2)))):
        t = EffectiveTensor(np.broadcast_to(np.eye(2), np.shape(fd.xhat[0])
                                            + (2, 2)), fd)
        with pytest.raises(TensorError, match="^frame is degenerate; no "
                           "Cartesian components$"):
            to_cartesian(t)


# ---------------------------------------------------------------------------
# the array kernel against a per-point reference written with `math`
# ---------------------------------------------------------------------------

def _reference_point(g1, g2, d0=1.0):
    """Frame, tilt, slopes and tensor coefficients of one point, branch by
    branch, as the frame kernel once had them: (psi, m1, m2, xhat, yhat,
    degenerate, extreme, coeffs).  `extreme` marks the frame-level branches
    (cancelling but non-parallel gradients, a zero slope denominator) that
    finite gradients never reach; coeffs is None where the tensor is
    undefined (|psi| within 1e-9 of pi/2, or such a branch)."""
    nan = float("nan")
    g1x, g1y = g1
    g2x, g2y = g2
    gwx, gwy = g2x - g1x, g2y - g1y
    norm_gw = math.hypot(gwx, gwy)
    cross12 = g1x * (-g2y) + g1y * g2x
    s1 = math.sqrt(1.0 + g1x * g1x + g1y * g1y)
    s2 = math.sqrt(1.0 + g2x * g2x + g2y * g2y)
    sinpsi = max(-1.0, min(1.0, cross12 / (s1 * s2)))
    psi = math.asin(sinpsi)
    degenerate = extreme = False
    if norm_gw < 1e-10:
        degenerate = True
        par_tol = 1e-10 * max(1.0, math.hypot(g1x, g1y) * math.hypot(g2x, g2y))
        if abs(cross12) <= par_tol:
            n1 = math.hypot(g1x, g1y)
            xhat = (g1x / n1, g1y / n1) if n1 > 1e-10 else (1.0, 0.0)
            yhat = (-xhat[1], xhat[0])
            psi = 0.0
            m1 = g1x * xhat[0] + g1y * xhat[1]
            m2 = g2x * xhat[0] + g2y * xhat[1]
        else:
            xhat = yhat = (nan, nan)
            m1 = m2 = nan
            extreme = True
    else:
        xhat = (gwx / norm_gw, gwy / norm_gw)
        yhat = (-gwy / norm_gw, gwx / norm_gw)
        slopes = []
        for gx, gy in ((g1x, g1y), (g2x, g2y)):
            den = (gx * -gwy + gy * gwx) * sinpsi + norm_gw * math.cos(psi)
            if den == 0.0:
                extreme = True
                slopes = [nan, nan]
                break
            slopes.append((gx * gwx + gy * gwy) / den)
        m1, m2 = slopes
    coeffs = None
    if not extreme and math.pi / 2 - abs(psi) >= 1e-9:
        mu = 0.5 * (m1 + m2)
        dm = m2 - m1
        if abs(dm) <= 1e-7 * (1.0 + abs(m1) + abs(m2)):
            rho, omega = mu / (1.0 + mu * mu), 1.0 / (1.0 + mu * mu)
        else:
            omega = math.atan2(dm, 1.0 + m1 * m2) / dm
            rho = 0.5 * math.log((1.0 + m2 * m2) / (1.0 + m1 * m1)) / dm
        sp, cp = math.sin(psi), math.cos(psi)
        coeffs = [[d0 * omega, -d0 * omega * mu * sp],
                  [-d0 * rho * sp, d0 * (cp * cp + mu * rho * sp * sp)]]
    return psi, m1, m2, xhat, yhat, degenerate, extreme, coeffs


def _gradient_cases():
    rng = np.random.default_rng(21)
    cases = [tuple(map(tuple, rng.normal(0.0, 3.0, size=(2, 2))))
             for _ in range(400)]
    for _ in range(40):
        g = tuple(rng.normal(0.0, 3.0, size=2))
        cases.append((g, g))                                    # parallel
        cases.append((g, tuple(g + 1e-12 * rng.normal(size=2))))  # nearly
    cases += [((0.0, 0.0), (0.0, 0.0)), ((0.0, 0.0), (3e-11, 0.0)),
              ((2.0, 0.0), (2.0, 1e-11)), ((1e-12, 0.0), (0.0, 1e-12))]
    for a in np.logspace(0.0, 12.0, 49):                        # psi -> pi/2
        cases += [((a, 0.0), (0.0, a)), ((0.0, -a), (a, 0.0)),
                  ((a, 0.5), (-0.25, a))]
    # non-finite gradients: every mask must still follow the same branches
    inf, nan = float("inf"), float("nan")
    cases += [((inf, 0.0), (0.0, 1.0)), ((nan, 1.0), (1.0, 2.0)),
              ((1e300, 1e300), (-1e300, 1e300)), ((inf, inf), (inf, inf))]
    return cases


def _close(got, want):
    got, want = np.asarray(got, float), np.asarray(want, float)
    both_nan = np.isnan(got) & np.isnan(want)
    ok = both_nan | (np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
    ok |= got == want  # equal infinities
    return bool(np.all(ok))


def test_frame_and_tensor_kernel_match_the_per_point_reference():
    # The reference keeps the frame-level extreme branches that the kernel
    # dropped; none of these cases reaches them: cancelling gradients below
    # 1e-10 are always parallel within par_tol, and both slope denominators
    # equal cross12^2/(s1 s2) + |grad w| cos(psi) > 0.  The |psi| -> pi/2
    # guard and the non-finite cases are reached.
    cases = _gradient_cases()
    g1 = np.array([c[0] for c in cases])
    g2 = np.array([c[1] for c in cases])
    d0 = 1.7
    refs = [_reference_point(a, b, d0) for a, b in cases]
    fd = frame_field(g1.T, g2.T)
    t = effective_tensor(fd, MediumParams(d0))
    assert len(cases) == 635 and not any(r[6] for r in refs)
    assert fd.degenerate_frame.tolist() == [r[5] for r in refs]
    assert extreme_tilt(t.frame.psi).tolist() == [r[7] is None for r in refs]
    assert fd.degenerate_frame.sum() >= 80
    assert extreme_tilt(t.frame.psi).sum() >= 5
    for k, name in enumerate(("psi", "m1", "m2")):
        assert _close(getattr(fd, name), [r[k] for r in refs]), name
    for k, name in ((3, "xhat"), (4, "yhat")):
        for axis in (0, 1):
            assert _close(getattr(fd, name)[axis], [r[k][axis] for r in refs])
    defined = ~extreme_tilt(t.frame.psi)
    want = np.array([r[7] for r in refs if r[7] is not None])
    assert _close(t.coeffs[defined], want)
    assert np.all(np.isnan(t.coeffs[~defined]))


_finite = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e100, 1e100))
_vector = st.tuples(_finite, _finite)
_unit = st.floats(-1.0, 1.0)


@st.composite
def _gradient_pairs(draw):
    """(g1, g2): independent, or g2 a near-cancelling partner of g1, off by
    an absolute step around EPS_GRAD = 1e-10 or by a relative one."""
    g1 = draw(_vector)
    kind = draw(st.sampled_from(["free", "absolute", "relative"]))
    if kind == "free":
        return g1, draw(_vector)
    scale = draw(st.sampled_from([0.0, 1e-15, 1e-12, 5e-11, 1e-10, 2e-10, 1e-8]))
    d = draw(st.tuples(_unit, _unit))
    if kind == "absolute":
        return g1, (g1[0] + scale * d[0], g1[1] + scale * d[1])
    return g1, (g1[0] * (1.0 + scale * d[0]), g1[1] * (1.0 + scale * d[1]))


# The reference takes its undefined branch only on a rounding sliver like
# this pair: |grad w| = 1e-10 - 2e-18 cancels, and rounding puts the
# computed cross12 8e-18 above par_tol although the exact one is below it.
_ROUNDING_SLIVER = ((-0.4568666139712401, -0.8895351719284916),
                    (-0.4568666138822866, -0.8895351719741783))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@example(_ROUNDING_SLIVER)
@given(_gradient_pairs())
def test_frame_field_matches_the_reference_on_generated_gradients(pair):
    g1, g2 = pair
    psi, m1, m2, xhat, yhat, degenerate, extreme, coeffs = _reference_point(g1, g2)
    fd = frame_field(np.array(g1)[:, None], np.array(g2)[:, None])
    t = effective_tensor(fd, MED)
    assert degenerate or not extreme      # no zero slope denominator
    assert fd.degenerate_frame[0] == degenerate
    if extreme:
        # gradients cancel and the planes are parallel but for rounding in
        # cross12: the tilt is below 1e-10, not extreme, and the kernel
        # takes the parallel frame from grad z1
        assert abs(psi) < 1e-9
        assert fd.psi[0] == 0.0 and not extreme_tilt(t.frame.psi[0])
        assert _close([fd.xhat[0][0], fd.xhat[1][0]], np.divide(g1, math.hypot(*g1)))
        return
    assert _close([fd.psi[0], fd.m1[0], fd.m2[0], fd.xhat[0][0], fd.xhat[1][0],
                   fd.yhat[0][0], fd.yhat[1][0]], [psi, m1, m2, *xhat, *yhat])
    assert extreme_tilt(t.frame.psi[0]) == (coeffs is None)
    if coeffs is not None:
        assert _close(t.coeffs[0], coeffs)


def test_scalar_calls_are_one_element_kernel_calls():
    cases = _gradient_cases()[::7]
    g1 = np.array([c[0] for c in cases])
    g2 = np.array([c[1] for c in cases])
    fd = frame_field(g1.T, g2.T)
    t = effective_tensor(fd, MED)
    for k, (a, b) in enumerate(cases):
        one = frame_from_gradients(a, b)
        assert isinstance(one.psi, float)
        assert isinstance(one.degenerate_frame, bool)
        assert one.degenerate_frame == fd.degenerate_frame[k]
        assert _close([one.psi, one.m1, one.m2, *one.xhat, *one.yhat],
                      [fd.psi[k], fd.m1[k], fd.m2[k], fd.xhat[0][k],
                       fd.xhat[1][k], fd.yhat[0][k], fd.yhat[1][k]])
        if extreme_tilt(t.frame.psi[k]):
            with pytest.raises(ExtremeTiltError):
                effective_tensor(one, MED)
        else:
            assert _close(effective_tensor(one, MED).coeffs, t.coeffs[k])


def test_a_tensor_holds_the_frame_it_was_built_from():
    assert [f.name for f in fields(FrameData)] == [
        "xhat", "yhat", "psi", "m1", "m2", "mu", "degenerate_frame"]
    assert [f.name for f in fields(EffectiveTensor)] == [
        "coeffs", "frame"]
    one = frame_from_gradients((0.3, -0.2), (0.1, 0.5))
    many = frame_field(np.array([[0.3, 0.0]]).T, np.array([[0.1, 0.0]]).T)
    for fd in (one, many):
        assert effective_tensor(fd, MED).frame is fd
    for sign, psi in (("+", math.pi / 2), ("-", -math.pi / 2)):
        t, _ = extreme_tilt_tensor(0.5, 3.0, sign, MED)
        assert t.frame == frame_from_slopes(psi, 0.5, 3.0)


def test_basis_has_xhat_and_yhat_as_columns():
    s = 1 / math.sqrt(2)
    assert np.array_equal(frame(0.0, 0, 0, (s, s), (-s, s)).basis(),
                          [[s, -s], [s, s]])
    fd = frame_field((np.array([1.0, 0.0]), np.zeros(2)),
                     (np.array([2.0, 0.0]), np.array([0.0, 3.0])))
    b = fd.basis()
    assert b.shape == (2, 2, 2)
    for k in range(2):
        assert np.array_equal(b[k], [[fd.xhat[0][k], fd.yhat[0][k]],
                                     [fd.xhat[1][k], fd.yhat[1][k]]])


def test_frame_from_slopes_is_the_unit_frame():
    fd = frame_from_slopes(0.3, -1.0, 2.0)
    assert (fd.xhat, fd.yhat, fd.mu) == ((1.0, 0.0), (0.0, 1.0), 0.5)
    assert np.array_equal(effective_tensor(fd, MED).coeffs,
                          effective_tensor(frame(0.3, -1.0, 2.0), MED).coeffs)


def test_polar_decompose_of_a_stack_matches_per_matrix_calls():
    rng = np.random.default_rng(22)
    mats = list(rng.uniform(-2.0, 2.0, size=(300, 2, 2)))
    u = rng.normal(size=(20, 2))
    v = rng.normal(size=(20, 2))
    mats += list(u[:, :, None] * v[:, None, :])           # rank 1
    mats += [np.zeros((2, 2)), np.eye(2), np.diag([3.0, 0.0]),
             np.array([[0.0, 1.0], [0.0, 0.0]]), -np.eye(2),
             extreme_tilt_tensor(0.0, 1.0, "+", MED)[0].coeffs]
    stack = np.array(mats).reshape(-1, 2, 2)
    batch = polar_decompose(stack)
    rank_deficient = [*range(300, 321), 322, 323, 325]
    assert batch.degenerate[rank_deficient].all()
    for k, d in enumerate(mats):
        one = polar_decompose(d)
        assert isinstance(one.lambda1, float) and isinstance(one.degenerate, bool)
        assert one.degenerate == batch.degenerate[k]
        scale = max(1.0, float(np.abs(d).max()))
        for name in ("S", "R", "lambda1", "lambda2", "f1", "f2", "e1", "e2"):
            np.testing.assert_allclose(getattr(batch, name)[k], getattr(one, name),
                                       rtol=0, atol=1e-14 * scale, err_msg=name)
    zero = polar_decompose(np.zeros((2, 2)))
    assert zero.degenerate and np.array_equal(zero.R, np.eye(2))
    assert zero.lambda1 == zero.lambda2 == 0.0


def test_polar_and_cartesian_accept_stacks_of_any_shape():
    rng = np.random.default_rng(23)
    d = rng.uniform(-1.0, 1.0, size=(3, 4, 2, 2))
    ell = polar_decompose(d)
    assert ell.S.shape == ell.R.shape == (3, 4, 2, 2)
    assert ell.lambda1.shape == ell.degenerate.shape == (3, 4)
    assert np.allclose(ell.S @ ell.R, d, atol=1e-12)
    angle = rng.uniform(0.0, 2 * math.pi, size=(3, 4))
    c, s = np.cos(angle), np.sin(angle)
    t = EffectiveTensor(d, frame(0.0, 0.0, 0.0, (c, s), (-s, c)))
    b = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    assert np.allclose(to_cartesian(t), b @ d @ np.swapaxes(b, -1, -2), atol=1e-15)
    with pytest.raises(TensorError):
        polar_decompose(np.full((2, 2, 2), np.nan))
