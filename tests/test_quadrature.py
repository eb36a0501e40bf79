import math

import numpy as np
import pytest

from effdiff.geometry import FrameData, PlaneConfig, frame_for_planes
from effdiff.quadrature import (
    ApexProximityError, OracleError, WedgeQuadratureJob, quadrature_tensor,
)
from effdiff.tensor import MediumParams, effective_tensor

MED = MediumParams(1.0)
SQ2 = math.sqrt(2.0)


def closed_form(psi, m1, m2, d0=1.0):
    fd = FrameData(1.0, (1, 0), (0, 1), (1.0, 0.0), (0.0, 1.0), psi, m1, m2,
                   0.5 * (m1 + m2))
    return effective_tensor(fd, MediumParams(d0)).coeffs


def test_wedge_matches_arctan_diagonal():
    d = quadrature_tensor(WedgeQuadratureJob(0.0, 0.0, 1.0))
    assert np.allclose(d, np.diag([math.pi / 4, 1.0]), atol=1e-6)


def test_parallel_fallback_flat_and_sloped():
    d = quadrature_tensor(WedgeQuadratureJob(0.0, 0.0, 0.0))
    assert np.allclose(d, np.eye(2), atol=1e-8)
    d = quadrature_tensor(WedgeQuadratureJob(0.0, 1.0, 1.0))
    assert np.allclose(d, np.diag([0.5, 1.0]), atol=1e-8)


def test_tilted_wedge_matches_closed_form_including_off_diagonals():
    job = WedgeQuadratureJob(0.5, -1.0, 2.0, fd_step=1e-5)
    d = quadrature_tensor(job)
    assert np.max(np.abs(d - closed_form(0.5, -1.0, 2.0))) < 1e-6


def test_quadrature_point_doubling_is_converged():
    for psi, m1, m2 in ((0.9, -3.0, 4.0), (-1.2, 0.5, 7.0)):
        d128 = quadrature_tensor(WedgeQuadratureJob(psi, m1, m2, points=128))
        d256 = quadrature_tensor(WedgeQuadratureJob(psi, m1, m2, points=256))
        assert np.max(np.abs(d128 - d256)) < 1e-6


def test_random_wedges_match_closed_form():
    rng = np.random.default_rng(100)
    for _ in range(30):
        psi = rng.uniform(-1.4, 1.4)
        m1, m2 = np.sort(rng.uniform(-10, 10, size=2))
        if m2 - m1 < 0.1:
            m2 = m1 + 0.1
        d = quadrature_tensor(WedgeQuadratureJob(psi, m1, m2))
        assert np.max(np.abs(d - closed_form(psi, m1, m2))) < 1e-6


def test_job_from_plane_config():
    cfg = PlaneConfig(np.array([0.0, 0.0, -1.0]),
                      np.array([-1.0, 0.0, 1.0]) / SQ2)
    fr = frame_for_planes(cfg)
    job = WedgeQuadratureJob(fr.psi, fr.m1, fr.m2)
    d = quadrature_tensor(job)
    assert np.allclose(d, np.diag([math.pi / 4, 1.0]), atol=1e-6)


def test_apex_proximity_and_interior_checks():
    with pytest.raises(ApexProximityError):
        quadrature_tensor(WedgeQuadratureJob(0.0, 0.0, 1.0, eval_point=(1e-9, 0.0)))
    with pytest.raises(OracleError):
        quadrature_tensor(WedgeQuadratureJob(0.0, 1.0, 0.0, eval_point=(1.0, 0.0)))
    with pytest.raises(OracleError):
        quadrature_tensor(WedgeQuadratureJob(math.pi / 2, 0.0, 1.0))


def test_d0_scaling():
    d1 = quadrature_tensor(WedgeQuadratureJob(0.3, 0.0, 2.0), MediumParams(1.0))
    d3 = quadrature_tensor(WedgeQuadratureJob(0.3, 0.0, 2.0), MediumParams(3.0))
    assert np.allclose(d3, 3.0 * d1, rtol=1e-12)
