import json
import math

import numpy as np
import pytest

from effdiff import cli
from effdiff.cli import _oracle_records, main
from effdiff.geometry import (
    FrameData, InputError, PlaneConfig, frame_for_planes, frame_from_slopes,
)
from effdiff.quadrature import (
    APEX_THRESHOLD, ApexProximityError, OracleError, SingularSystemError,
    WedgeQuadratureJob, _gauss_legendre, quadrature_tensor,
)
from effdiff.tensor import (
    EPS_M, EPS_PSI, UNDEFINED, ExtremeTiltError, MediumParams, TensorError,
    effective_tensor,
)

MED = MediumParams(1.0)
SQ2 = math.sqrt(2.0)


def closed_form(psi, m1, m2, d0=1.0):
    fd = FrameData((1.0, 0.0), (0.0, 1.0), psi, m1, m2, 0.5 * (m1 + m2))
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
        quadrature_tensor(WedgeQuadratureJob(0.0, 0.0, 1.0, eval_x=1e-9, eval_y=0.0))
    with pytest.raises(OracleError):
        quadrature_tensor(WedgeQuadratureJob(0.0, 1.0, 0.0, eval_x=1.0, eval_y=0.0))
    with pytest.raises(ExtremeTiltError):
        quadrature_tensor(WedgeQuadratureJob(math.pi / 2, 0.0, 1.0))
    # at x < 0 the wedge with m1 > m2 is not empty, and the one with
    # m1 < m2 is outside: neither is the apex
    for psi, m1, m2, x, y in ((0.3, 2.0, -1.0, -1.0, 0.0),
                              (-1.2, 7.0, -3.0, -2.5, -0.4)):
        d = quadrature_tensor(WedgeQuadratureJob(psi, m1, m2, x, y))
        assert np.max(np.abs(d - closed_form(psi, m1, m2))) < 1e-9
    with pytest.raises(OracleError, match="^evaluation point is outside"):
        quadrature_tensor(WedgeQuadratureJob(0.3, -1.0, 2.0, eval_x=-1.0))


def test_d0_scaling():
    d1 = quadrature_tensor(WedgeQuadratureJob(0.3, 0.0, 2.0), MediumParams(1.0))
    d3 = quadrature_tensor(WedgeQuadratureJob(0.3, 0.0, 2.0), MediumParams(3.0))
    assert np.allclose(d3, 3.0 * d1, rtol=1e-12)


# ---------------------------------------------------------------------------
# The one-case reconstruction, integral by integral, kept as the reference
# that the array route must reproduce bit for bit.
# ---------------------------------------------------------------------------

def reference_tensor(job, med=MED):
    psi, m1, m2 = job.psi, job.m1, job.m2
    if not math.pi / 2 - abs(psi) >= EPS_PSI:      # a NaN tilt too
        raise ExtremeTiltError("tensor undefined (extreme tilt)")
    if not all(math.isfinite(1.0 + m * m) for m in (m1, m2)):
        raise TensorError("tensor undefined (slope overflow)")

    x, y = float(job.eval_x), float(job.eval_y)
    if abs(m2 - m1) <= EPS_M * (1.0 + abs(m1) + abs(m2)):
        family, z_bounds = _reference_slab_family(0.5 * (m1 + m2))
    else:
        if abs(x) < APEX_THRESHOLD * max(1.0, abs(y)):
            raise ApexProximityError(
                f"evaluation point x = {x:.3g} is too close to the apex")
        if (m2 - m1) * x <= 0:
            raise OracleError("evaluation point is outside the wedge interior")
        family, z_bounds = _reference_wedge_family(psi, m1, m2)
    nodes, weights = _gauss_legendre(job.points)

    def integral(f, px, py):
        z1, z2 = z_bounds(px, py)
        mid = 0.5 * (z1 + z2)
        half = 0.5 * (z2 - z1)
        return half * float(np.dot(weights, f(px, py, mid + half * nodes)))

    def q_over_w(q, px, py):
        z1, z2 = z_bounds(px, py)
        return integral(q, px, py) / (z2 - z1)

    z1, z2 = z_bounds(x, y)
    h = job.fd_step * max(1.0, abs(x), abs(y))
    us, vs = [], []
    for q, dqdx, dqdy in family:
        us.append(np.array([integral(dqdx, x, y), integral(dqdy, x, y)])
                  * (med.d0 / (z2 - z1)))
        vs.append(np.array([
            (q_over_w(q, x + h, y) - q_over_w(q, x - h, y)) / (2 * h),
            (q_over_w(q, x, y + h) - q_over_w(q, x, y - h)) / (2 * h),
        ]))
    umat = np.column_stack(us)
    vmat = np.column_stack(vs)
    det = vmat[0, 0] * vmat[1, 1] - vmat[0, 1] * vmat[1, 0]
    scale = np.linalg.norm(vs[0]) * np.linalg.norm(vs[1])
    if abs(det) <= 1e-10 * max(scale, 1e-30):
        raise SingularSystemError("gradient columns are linearly dependent")
    return umat @ np.linalg.inv(vmat)


def _reference_wedge_family(psi, m1, m2):
    sp, cp = math.sin(psi), math.cos(psi)
    sec = 1.0 / cp

    def member(omega):
        cw, sw = math.cos(omega), math.sin(omega)

        def q(px, py, z):
            zz = -py * sp + z * cp
            yy = py * cp + z * sp
            return cw * 0.5 * np.log(px * px + zz * zz) + sw * yy

        def dqdx(px, py, z):
            zz = -py * sp + z * cp
            return cw * px / (px * px + zz * zz)

        def dqdy(px, py, z):
            zz = -py * sp + z * cp
            return -cw * zz * sp / (px * px + zz * zz) + sw * cp

        return q, dqdx, dqdy

    def z_bounds(px, py):
        return (m1 * px + py * sp) * sec, (m2 * px + py * sp) * sec

    return (member(0.0), member(math.pi / 2)), z_bounds


def _reference_slab_family(mu):
    ones = lambda px, py, z: np.ones_like(np.asarray(z, float))
    zeros = lambda px, py, z: np.zeros_like(np.asarray(z, float))
    family = ((lambda px, py, z: px + mu * z, ones, zeros),
              (lambda px, py, z: py + 0.0 * z, zeros, ones))
    return family, lambda px, py: (mu * px, mu * px + 1.0)


def reference_records(cases, med=MED, **settings):
    """The oracle's records, one case at a time (closed form first)."""
    records = []
    for psi, m1, m2 in cases:
        try:
            closed = effective_tensor(frame_from_slopes(psi, m1, m2), med).coeffs
            quad = reference_tensor(
                WedgeQuadratureJob(psi, m1, m2, **settings), med)
        except (OracleError, TensorError) as exc:
            records.append({"psi": psi, "m1": m1, "m2": m2, "error": {
                "kind": type(exc).__name__, "message": str(exc)}})
            continue
        abs_err = np.abs(closed - quad).max()
        records.append({
            "psi": psi, "m1": m1, "m2": m2,
            "closed_form": closed.tolist(), "quadrature": quad.tolist(),
            "max_abs_err": float(abs_err),
            "max_rel_err": float(abs_err / np.abs(closed).max())})
    return records


def sweep_cases(count, seed):
    """The sweep's cases, drawn one case at a time."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        psi = float(rng.uniform(-1.4, 1.4))
        m1, m2 = np.sort(rng.uniform(-10.0, 10.0, size=2))
        if m2 - m1 < 0.1:
            m2 = m1 + 0.1
        cases.append((psi, float(m1), float(m2)))
    return cases


def same_bits(a, b):
    """Equal as JSON text: every float by its shortest repr, -0.0 too."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_reference_agrees_with_the_one_case_call():
    for job in (WedgeQuadratureJob(0.5, -1.0, 2.0),
                WedgeQuadratureJob(-1.2, 0.5, 7.0, points=256),
                WedgeQuadratureJob(0.3, 1.0, 1.0, eval_x=2.0, eval_y=-1.0)):
        assert reference_tensor(job).tobytes() == quadrature_tensor(job).tobytes()


def _oracle_sweep(tmp_path, count, seed, **extra):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in
                           dict(count=count, seed=seed, **extra).items()))
    out = tmp_path / "sweep.json"
    assert main(["oracle", "--config", str(cfg), "--out", str(out)]) == 0
    return json.loads(out.read_text())["cases"]


def test_seeded_sweep_is_bit_equal_to_the_one_case_reference(tmp_path):
    cases = sweep_cases(200, 1)
    assert same_bits(_oracle_sweep(tmp_path, 200, 1), reference_records(cases))
    psi, m1, m2 = np.array(cases).T
    stack, errors = quadrature_tensor(WedgeQuadratureJob(psi, m1, m2))
    assert stack.shape == (200, 2, 2) and errors == [None] * 200
    assert all(stack[k].tobytes() == reference_tensor(
        WedgeQuadratureJob(*case)).tobytes() for k, case in enumerate(cases))


_BLOCK = cli._ORACLE_BLOCK


_COUNTS = sorted({1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK - 1,
                  2 * _BLOCK, 2 * _BLOCK + 1, 65})


# each count at the default step, then at a step so small that 13 of the
# 65 cases, from case 7 on, are singular
@pytest.mark.parametrize("count,step", [
    *[pytest.param(n, {}, id=f"{n}") for n in _COUNTS],
    *[pytest.param(n, {"fd_step": 3e-16}, id=f"{n}-singular-step")
      for n in _COUNTS]])
def test_sweep_across_block_boundaries_is_bit_equal(tmp_path, count, step):
    settings = dict(quad_points=24, eval_x=1.5, eval_y=-0.5, **step)
    got = _oracle_sweep(tmp_path, count, 7, **settings)
    assert len(got) == count
    refused = [k for k, r in enumerate(got) if "error" in r]
    assert bool(refused) == (bool(step) and count > 7)
    assert same_bits(got, reference_records(
        sweep_cases(count, 7), points=24, eval_x=1.5, eval_y=-0.5, **step))


def test_slab_family_rows_are_bit_equal():
    rng = np.random.default_rng(3)
    m1 = rng.uniform(-10.0, 10.0, 40)
    m2 = m1.copy()
    m2[::2] += 1e-9 * (1.0 + np.abs(m1[::2]))   # within EPS_M: still a slab
    psi = rng.uniform(-1.4, 1.4, 40)
    for settings in ({}, {"eval_x": -3.0, "eval_y": 2.0, "fd_step": 1e-3}):
        stack, _ = quadrature_tensor(
            WedgeQuadratureJob(psi, m1, m2, **settings), MediumParams(2.5))
        for k in range(40):
            want = reference_tensor(WedgeQuadratureJob(
                psi[k], m1[k], m2[k], **settings), MediumParams(2.5))
            assert stack[k].tobytes() == want.tobytes()


# valid wedges and slabs, then one case per error, each twice and apart
_MIXED = [(0.5, -1.0, 2.0), (0.2, 1.0, 1.0), (0.0, 1.0, 0.0),
          (math.pi / 2, 0.0, 1.0), (1.0, 0.0, 1e20), (-0.3, 2.0, 5.0),
          (-math.pi / 2, 1.0, 1.0), (0.0, 3.0, -2.0), (1.2, -1e20, 0.0),
          (0.1, 0.0, 0.5), (-1.0, 2.0, 2.0)]
# a NaN slope: the closed form marks its row, as it marks an extreme tilt
_NAN_SLOPE = _MIXED[:6] + [(0.4, math.nan, 1.0)] + _MIXED[6:]


@pytest.mark.parametrize("cases", [_MIXED, _NAN_SLOPE],
                         ids=["nan-rows", "nan-slope"])
@pytest.mark.parametrize("eval_point", [(1.0, 0.0), (1e-9, 0.0)])
def test_mixed_batch_gives_the_reference_records_in_order(eval_point, cases):
    settings = {"eval_x": eval_point[0], "eval_y": eval_point[1],
                "points": 32, "fd_step": 1e-5}
    got = _oracle_records(np.array(cases), MED, settings)
    want = reference_records(cases, **settings)
    kinds = [r["error"]["kind"] for r in want if "error" in r]
    apex = eval_point[0] < APEX_THRESHOLD   # every wedge is refused first
    assert "ExtremeTiltError" in kinds
    assert ("TensorError" in kinds) == (cases is _NAN_SLOPE)
    assert ("ApexProximityError" in kinds) == apex
    assert ("OracleError" in kinds) == ("SingularSystemError" in kinds) != apex
    assert same_bits(got, want)
    # the quadrature alone: NaN and the error of the one-case call exactly
    # where that call raises
    psi, m1, m2 = np.array(cases).T
    stack, errors = quadrature_tensor(
        WedgeQuadratureJob(psi, m1, m2, **settings))
    assert len(errors) == len(cases)
    for k, case in enumerate(cases):
        job = WedgeQuadratureJob(*case, **settings)
        try:
            want = reference_tensor(job)
        except (OracleError, TensorError):
            assert np.isnan(stack[k]).all()
            with pytest.raises((OracleError, TensorError)) as info:
                quadrature_tensor(job)
            assert type(errors[k]) is type(info.value)
            assert str(errors[k]) == str(info.value)
        else:
            assert errors[k] is None
            assert stack[k].tobytes() == want.tobytes()


@pytest.mark.parametrize("case,eval_x", [
    ((0.0, 0.0, 1.0), "1e-9"), ((0.0, 1.0, 0.0), "1e-9"),
    ((0.0, 1.0, 0.0), "1"),
    (("1.5707963267948966", 0.0, 1.0), "1"), ((1.0, 0.0, 1e20), "1"),
    ((0.0, 1e300, -1e300), "1"), ((0.0, 1e308, 1e308), "1"),
    ((0.0, -1e308, 1e308), "1")])   # m2 - m1 overflows
def test_single_failing_case_keeps_exit_code_kind_and_message(
        tmp_path, capsys, case, eval_x):
    psi, m1, m2 = case
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"psi={psi}\nm1={m1!r}\nm2={m2!r}\neval_x={eval_x}\n")
    out = tmp_path / "one.json"
    assert main(["oracle", "--config", str(cfg), "--out", str(out)]) == 3
    [want] = reference_records([(float(psi), m1, m2)],
                               eval_x=float(eval_x), eval_y=0.0)
    [got] = json.loads(out.read_text())["cases"]
    assert same_bits(got, want)
    assert capsys.readouterr().err == f"error: {want['error']['message']}\n"


def test_too_large_slopes_are_refused_as_the_closed_form_refuses_them():
    # too large for 1 + m^2: coincident, with an overflowing spacing, and
    # one of two; then the steepest slab kept, whose width rounds to zero
    cases = [(0.0, 1e155, 1e155), (0.0, -1e308, 1e308), (0.3, 0.0, 1e200),
             (0.0, 1e150, 1e150), (0.5, -1.0, 2.0)]
    for case in cases[:3]:
        with pytest.raises(TensorError,
                           match=r"^tensor undefined \(slope overflow\)$"):
            quadrature_tensor(WedgeQuadratureJob(*case))
    with pytest.raises(OracleError, match="not finite"):
        quadrature_tensor(WedgeQuadratureJob(*cases[3]))
    psi, m1, m2 = np.array(cases).T
    stack, _ = quadrature_tensor(WedgeQuadratureJob(psi, m1, m2))
    assert np.isnan(stack[:4]).all() and np.isfinite(stack[4]).all()
    assert np.isnan(closed_form(psi, m1, m2)[:3]).all()


@pytest.mark.parametrize("key,value", [
    ("eval_x", 10**400), ("eval_y", -10**400), ("fd_step", 10**400),
    ("eval_x", "1"), ("fd_step", None),
    ("points", 0), ("points", -1), ("points", 2.5), ("points", 1025),
    # a step of the whole point or a negative one, and a point whose
    # shifted copies and squares overflow
    ("fd_step", 2.0), ("fd_step", -1e-5), ("eval_x", 1e200)],
    ids=["eval-x-1e400", "eval-y-minus-1e400", "fd-step-1e400", "eval-x-text",
         "fd-step-none", "points-0", "points-minus-1", "points-2.5",
         "points-1025", "fd-step-2", "fd-step-minus-1e-5", "eval-x-1e200"])
def test_a_job_with_a_real_a_float_cannot_hold_is_refused(key, value):
    with pytest.raises(InputError, match=f"^{key} must be ") as info:
        quadrature_tensor(WedgeQuadratureJob(0.1, 0.0, 1.0, **{key: value}))
    assert info.value.field == key


def test_a_slab_too_thin_to_resolve_is_an_error_not_a_crash():
    # mu x + 1 rounds to mu x: the width at the evaluation point is zero
    job = WedgeQuadratureJob(0.0, 1e16, 1e16)
    with pytest.raises(OracleError, match="not finite"):
        quadrature_tensor(job)
    with pytest.raises(ZeroDivisionError):
        reference_tensor(job)
    stack, _ = quadrature_tensor(WedgeQuadratureJob(
        np.zeros(2), np.array([1e16, 0.0]), np.array([1e16, 1.0])))
    assert np.isnan(stack[0]).all() and np.isfinite(stack[1]).all()


@pytest.mark.parametrize("case,flag", [
    ((math.nan, 0.0, 1.0), "extreme_tilt"), ((math.inf, 0.0, 1.0), "extreme_tilt"),
    ((math.pi / 2, 0.0, 1.0), "extreme_tilt"),
    ((0.3, math.nan, 1.0), "slope_overflow"),
    ((0.3, 1e300, -1e300), "slope_overflow"),
    ((0.0, 1e155, 1e155), "slope_overflow")],
    ids=["nan-tilt", "infinite-tilt", "tilt-pi-over-2", "nan-slope",
         "huge-slopes", "coincident-huge-slopes"])
def test_a_wedge_without_a_tensor_is_refused_through_one_table(
        tmp_path, capsys, case, flag):
    [(error, text)] = [(e, t) for f, e, t in UNDEFINED if f == flag]
    # the closed form at one point and the quadrature of one case
    for call in (lambda: effective_tensor(frame_from_slopes(*case), MED),
                 lambda: quadrature_tensor(WedgeQuadratureJob(*case))):
        with pytest.raises(TensorError) as info:
            call()
        assert type(info.value) is error and str(info.value) == text
    # the oracle command, for the wedges its config accepts
    if all(map(math.isfinite, case)) and abs(case[0]) <= math.pi / 2:
        cfg = tmp_path / "one.cfg"
        cfg.write_text("".join(f"{k}={v!r}\n"
                               for k, v in zip(("psi", "m1", "m2"), case)))
        out = tmp_path / "one.json"
        assert main(["oracle", "--config", str(cfg), "--out", str(out)]) == 3
        [got] = json.loads(out.read_text())["cases"]
        assert got["error"] == {"kind": error.__name__, "message": text}
        assert capsys.readouterr().err == f"error: {text}\n"
    # on arrays, beside a wedge that has a tensor: the same NaN rows
    psi, m1, m2 = np.array([case, (0.3, -1.0, 2.0)]).T
    closed = closed_form(psi, m1, m2)
    quad, _ = quadrature_tensor(WedgeQuadratureJob(psi, m1, m2))
    for stack in (closed, quad):
        assert np.isnan(stack).all(axis=(1, 2)).tolist() == [True, False]
        assert np.isfinite(stack[1]).all()
