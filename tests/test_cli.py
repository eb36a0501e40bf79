import argparse
import contextlib
import csv
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import effdiff
from effdiff.cli import EXAMPLES, _ALLOWED_KEYS, _fmts, build_parser, main
from effdiff.geometry import ExpressionField, SurfacePair
from effdiff.tensor import UNDEFINED, MediumParams, sample_tensor, tensor_field


def run(tmp_path, *argv):
    return main(list(argv))


def read_csv(path):
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def write_cfg(tmp_path, name, **kv):
    path = tmp_path / name
    path.write_text("".join(f"{k}={v}\n" for k, v in kv.items()))
    return str(path)


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------

def test_tensor_radial_field(tmp_path):
    out = tmp_path / "radial.csv"
    assert run(tmp_path, "tensor", "--example", "radial", "--out", str(out)) == 0
    header, data = read_csv(out)
    assert header[:6] == ["x", "y", "w", "psi", "m1", "m2"]
    assert header[-1] == "flags"
    assert len(data) == 64 * 64
    for row in data:
        if not row[3]:
            continue
        assert abs(float(row[3])) <= 1e-10          # psi
        assert abs(float(row[7])) <= 1e-12          # D12
        assert abs(float(row[8])) <= 1e-12          # D21
        assert float(row[9]) == 1.0                 # D22 = D0 exactly


def test_tensor_domain_error_row_is_per_point(tmp_path):
    # the radial surfaces use r = sqrt(x^2+y^2), whose gradient is undefined
    # at the origin: only that row is flagged, and it carries no numbers
    out = tmp_path / "radial3.csv"
    assert run(tmp_path, "tensor", "--example", "radial", "--resolution",
               "3x3", "--out", str(out)) == 0
    header, data = read_csv(out)
    assert len(data) == 9
    flagged = [row for row in data if row[-1]]
    assert len(flagged) == 1
    row = flagged[0]
    assert (row[0], row[1], row[-1]) == ("0.0", "0.0", "domain_error")
    assert row[2:-1] == [""] * 16
    for row in data:
        if row is not flagged[0]:
            assert all(row[2:-1]) and float(row[header.index("D22")]) == 1.0


def test_tensor_waves_tilt_vanishes_on_axis_lines(tmp_path):
    out = tmp_path / "waves.csv"
    assert run(tmp_path, "tensor", "--example", "waves", "--out", str(out)) == 0
    _, data = read_csv(out)
    two_pi = 2 * math.pi
    on_line = off_line = 0
    for row in data:
        x, y, psi = float(row[0]), float(row[1]), float(row[3])
        if min(abs(x), abs(x - two_pi)) < 1e-12 or \
                min(abs(y), abs(y - two_pi)) < 1e-12:
            assert abs(psi) <= 1e-10
            on_line += 1
        elif 1.0 < x < 2.0 and 1.0 < y < 2.0:
            off_line += 1
            assert abs(psi) > 1e-6
    assert on_line > 200 and off_line > 10


def test_tensor_flat_slab_rows_are_isotropic(tmp_path):
    out = tmp_path / "slab.csv"
    cfg = write_cfg(tmp_path, "slab.cfg", z1="0", z2="1",
                    domain="-1,1,-1,1", resolution="8x8", d0="2.0")
    assert run(tmp_path, "tensor", "--config", cfg, "--out", str(out)) == 0
    _, data = read_csv(out)
    for row in data:
        assert float(row[6]) == 2.0 and float(row[9]) == 2.0
        assert float(row[7]) == 0.0 and float(row[8]) == 0.0
        assert "degenerate_frame" in row[-1]


def test_tensor_grid_backed_surface(tmp_path):
    grid_file = tmp_path / "z2.grid"
    xs = np.linspace(-1, 1, 41)
    ys = np.linspace(-1, 1, 41)
    values = 1.0 + 0.5 * np.meshgrid(xs, ys, indexing="ij")[0]
    lines = ["# grid origin=-1,-1 spacing=0.05,0.05"]
    lines += [",".join(repr(float(v)) for v in row) for row in values]
    grid_file.write_text("\n".join(lines) + "\n")

    out = tmp_path / "grid.csv"
    cfg = write_cfg(tmp_path, "grid.cfg", z1="0", z2_grid=str(grid_file),
                    domain="-0.9,0.9,-0.9,0.9", resolution="6x6")
    assert run(tmp_path, "tensor", "--config", cfg, "--out", str(out)) == 0
    _, data = read_csv(out)
    for row in data:
        assert float(row[5]) == pytest.approx(0.5, abs=1e-6)   # m2


@pytest.mark.parametrize("z1,z2,domain,flags", [
    ("-1e200*x^2", "1", "0,1,0,1", "degenerate_frame"),
    ("-1e200*x^2", "1e200*x^2+1", "0,0.2,0,1", "degenerate_frame"),
    # parallel tangent planes whose common slope 1e155 is too large
    ("1e155*x", "1e155*x+1e142", "0,1,0,1", "slope_overflow")],
    ids=["1-0,1,0,1", "1e200*x^2+1-0,0.2,0,1", "steep-parallel"])
def test_tensor_flags_slope_overflow_per_node(tmp_path, capsys, z1, z2, domain,
                                              flags):
    # z1's slope overflows to -inf at every x > 0 (and z2's to +inf in the
    # second pair); at x = 0 the gradients cancel: the degenerate frame,
    # which has a tensor unless its slope is too large, as in the third
    out = tmp_path / "steep.csv"
    cfg = write_cfg(tmp_path, "steep.cfg", z1=z1, z2=z2,
                    domain=domain, resolution="3x2")
    assert run(tmp_path, "tensor", "--config", cfg, "--out", str(out)) == 0
    assert capsys.readouterr().err == ""
    _, data = read_csv(out)
    assert [row[-1] for row in data] == [flags, "slope_overflow",
                                         "slope_overflow"] * 2
    for row in data:
        assert all(row[:4])                     # x, y, w and psi
        assert all(row[4:18]) == (row[-1] == "degenerate_frame")
        assert any(row[4:18]) == (row[-1] == "degenerate_frame")


@pytest.mark.parametrize("z1,z2,domain,resolution,kind", [
    (EXAMPLES["radial"]["z1"], EXAMPLES["radial"]["z2"],
     EXAMPLES["radial"]["domain"], "3x3", "domain_error"),     # the origin
    ("1e155*x", "1e155*x+1e142", "0,1,0,1", "3x2", "slope_overflow"),
    ("2e9*x", "2e9*y+1", "0,1,2,3", "3x2", "extreme_tilt")],
    ids=["domain-error", "slope-overflow", "extreme-tilt"])
def test_tensor_flags_and_refusals_read_one_table_of_kinds(
        tmp_path, z1, z2, domain, resolution, kind):
    out = tmp_path / "kinds.csv"
    cfg = write_cfg(tmp_path, "kinds.cfg", z1=z1, z2=z2, domain=domain,
                    resolution=resolution)
    assert run(tmp_path, "tensor", "--config", cfg, "--out", str(out)) == 0
    _, data = read_csv(out)
    x, y = (np.array([float(row[i]) for row in data]) for i in (0, 1))
    pair = SurfacePair(ExpressionField(z1),
                       ExpressionField(z2),
                       tuple(map(float, domain.split(","))))
    kinds = tensor_field(pair, x, y, MediumParams())[-1]
    assert kinds.dtype == np.int8
    assert kind in [UNDEFINED[k - 1][0] for k in kinds.tolist() if k]
    for row, k in zip(data, kinds.tolist()):
        assert row[-1] in (("", "degenerate_frame") if k == 0
                           else (UNDEFINED[k - 1][0],))
    # sample_tensor refuses the first point of the first kind present
    first = min(set(kinds.tolist()) - {0})
    i = kinds.tolist().index(first)
    _, error, what = UNDEFINED[first - 1]
    with pytest.raises(error) as refused:
        sample_tensor(pair, x, y, MediumParams())
    assert refused.type is error
    assert str(refused.value) == f"{what} at ({x[i]:.6g}, {y[i]:.6g})"


@pytest.mark.parametrize("domain,code", [
    ("0,2,0,2", 2), ("-0.1,1,0,1", 2), ("0,1,0,1.000001", 2),
    ("0,1.0000000001,0,1", 0), ("0.5,1,0,0.5", 0)])
def test_a_domain_outside_a_grid_s_hull_is_one_config_error(
        tmp_path, capsys, domain, code):
    # the hull of this 3x3 grid is [0, 1]^2, read with GridField's
    # tolerance of 1e-9 spacing (5e-10 here)
    grid = tmp_path / "z2.grid"
    grid.write_text("# grid origin=0,0 spacing=0.5,0.5\n" + "1,1,1\n" * 3)
    cfg = write_cfg(tmp_path, "hull.cfg", z1="0", z2_grid=str(grid),
                    domain=domain, resolution="3x3")
    assert run(tmp_path, "tensor", "--config", cfg,
               "--out", str(tmp_path / "out.csv")) == code
    err = capsys.readouterr().err
    if code:
        assert err == ("config error: z2_grid covers [0, 1] x [0, 1], which "
                       "does not contain the domain\n")


# ---------------------------------------------------------------------------
# planes
# ---------------------------------------------------------------------------

def test_planes_wedge_json(tmp_path):
    out = tmp_path / "wedge.json"
    assert run(tmp_path, "planes", "--example", "wedge", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["psi"] == 0.0
    assert doc["m1"] == pytest.approx(0.0, abs=1e-15)
    assert doc["m2"] == pytest.approx(1.0, rel=1e-12)
    assert doc["omega"] == pytest.approx(math.pi / 4, rel=1e-12)
    assert doc["tensor_frame"][0][0] == pytest.approx(math.pi / 4, rel=1e-12)
    assert doc["ellipsoid"]["lambda1"] == pytest.approx(1.0, rel=1e-12)


def test_planes_parallel_json(tmp_path):
    # the common normal is zdir, so _perp_to builds the frame from the y
    # axis, or from the x axis where zdir is the y axis
    for zdir, xhat in (("0,0,1", [1.0, 0.0, 0.0]), ("0,1,0", [0.0, 0.0, 1.0])):
        out = tmp_path / "par.json"
        cfg = write_cfg(tmp_path, "par.cfg", n1=zdir, n2=zdir, zdir=zdir)
        assert run(tmp_path, "planes", "--config", cfg, "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["parallel"] is True and doc["frame"]["xhat"] == xhat
        assert doc["psi"] == 0.0 and doc["m1"] == 0.0 and doc["m2"] == 0.0
        assert doc["tensor_frame"] == [[1.0, 0.0], [0.0, 1.0]]


def test_planes_vertical_config_reports_structured_error(tmp_path):
    # vertical parallel planes, planes whose frame has a tilt that rounds
    # to pi/2, which the tensor refuses, and crossing planes one of which
    # contains zdir (an infinite slope): each record has its tilt
    for n1, n2, psi in (("0,-1,0", "0,1,0", math.pi / 2),
                        ("0.3,-1,1e-11", "0,1,1e-11", math.pi / 2),
                        ("1,0,0", "0,0,1", 0.0)):
        out = tmp_path / "vert.json"
        cfg = write_cfg(tmp_path, "vert.cfg", n1=n1, n2=n2)
        assert run(tmp_path, "planes", "--config", cfg, "--out", str(out)) == 3
        doc = json.loads(out.read_text())
        assert doc["error"]["kind"] == "degenerate_configuration"
        assert abs(doc["error"]["psi"]) == pytest.approx(psi)
    assert doc["error"]["message"] == ("plane is vertical in the adapted "
                                       "frame (infinite slope)")


def test_planes_extreme_tilt_from_slopes(tmp_path):
    out = tmp_path / "ext.json"
    cfg = write_cfg(tmp_path, "ext.cfg", m1="0", m2="1", tilt_sign="+")
    assert run(tmp_path, "planes", "--config", cfg, "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["extreme_tilt"] is True
    assert doc["eigenvalues"][0] == 0.0
    assert doc["eigenvalues"][1] == pytest.approx(0.9586849585374346, abs=1e-14)
    ep = np.array(doc["segment_endpoints"])
    assert np.allclose(ep[0], -ep[1])


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def test_oracle_sweep_json(tmp_path):
    out = tmp_path / "sweep.json"
    cfg = write_cfg(tmp_path, "sweep.cfg", count="30", seed="5")
    assert run(tmp_path, "oracle", "--config", cfg, "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["n_cases"] == 30 and doc["n_failed"] == 0
    assert doc["max_abs_err"] <= 1e-6


def test_oracle_accepts_plane_normals(tmp_path):
    out = tmp_path / "normals.json"
    cfg = write_cfg(tmp_path, "normals.cfg", n1="0,0,-1",
                    n2="-0.7071067811865476,0,0.7071067811865476")
    assert run(tmp_path, "oracle", "--config", cfg, "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    case = doc["cases"][0]
    assert case["psi"] == 0.0
    assert case["closed_form"][0][0] == pytest.approx(math.pi / 4, rel=1e-12)
    assert case["max_abs_err"] <= 1e-6


@pytest.mark.parametrize("d0", ["1", "1e50"])
def test_oracle_relative_error_is_taken_against_the_largest_entry(tmp_path, d0):
    # the wedge's closed form has a zero off-diagonal entry: an error
    # relative to each entry divided it by a floor of 1e-300
    out = tmp_path / "wedge.json"
    assert run(tmp_path, "oracle", "--example", "wedge", "--d0", d0,
               "--out", str(out)) == 0
    case = json.loads(out.read_text())["cases"][0]
    assert 0.0 in np.ravel(case["closed_form"])
    largest = np.abs(case["closed_form"]).max()
    assert case["max_rel_err"] == case["max_abs_err"] / largest
    assert 0.1 < case["max_rel_err"] / (case["max_abs_err"] / float(d0)) < 10.0


def test_oracle_failing_config_yields_error_record(tmp_path):
    out = tmp_path / "bad.json"
    cfg = write_cfg(tmp_path, "bad.cfg", psi="0", m1="0", m2="1",
                    eval_x="1e-9")
    assert run(tmp_path, "oracle", "--config", cfg, "--out", str(out)) == 3
    doc = json.loads(out.read_text())
    assert doc["cases"][0]["error"]["kind"] == "ApexProximityError"


def test_oracle_tilt_of_pi_over_2_is_extreme_tilt(tmp_path, capsys):
    out = tmp_path / "tilt.json"
    cfg = write_cfg(tmp_path, "tilt.cfg", psi=repr(-math.pi / 2), m1="0",
                    m2="1")
    assert run(tmp_path, "oracle", "--config", cfg, "--out", str(out)) == 3
    doc = json.loads(out.read_text())
    assert doc["cases"][0]["error"]["kind"] == "ExtremeTiltError"
    assert capsys.readouterr().err == "error: tensor undefined (extreme tilt)\n"


# ---------------------------------------------------------------------------
# mc / solve / recover-channel
# ---------------------------------------------------------------------------

def test_mc_slab_json_and_determinism(tmp_path):
    cfg = write_cfg(tmp_path, "mc.cfg", mu="0", gap="1", particles="2000",
                    steps="200", dt="1e-3")
    out = tmp_path / "mc.json"
    assert run(tmp_path, "mc", "--config", cfg, "--seed", "9",
               "--out", str(out)) == 0
    first = out.read_bytes()
    assert run(tmp_path, "mc", "--config", cfg, "--seed", "9",
               "--out", str(out)) == 0
    assert out.read_bytes() == first
    doc = json.loads(out.read_text())
    est = np.array(doc["estimate"])
    se = np.array(doc["stderr"])
    assert abs(est[0, 0] - 1.0) < 4 * se[0, 0]
    assert doc["diagnostics"]["rejected_steps"] == 0


@pytest.mark.parametrize("settings,named", [
    (dict(mu="0", start="0,0,2"), "start coordinate 2 is not strictly inside"),
    (dict(mu="0", start="0,0,1"), "start coordinate 1 is not strictly inside"),
    (dict(example="waves", start="1,1,10"), "strictly between the surfaces"),
    (dict(example="waves", start="0,0,1"), "strictly between the surfaces"),
    # log(-1) is undefined: the start is refused, not the expression
    (dict(z1="log(x)", z2="5", domain="1,3,0,1", start="-1,0,0"),
     "config error: start must lie strictly between the surfaces\n"),
], ids=["slab-start-outside", "slab-start-on-a-wall", "waves-start-above-z2",
        "waves-start-on-z1", "start-where-z1-is-undefined"])
def test_a_refused_mc_start_is_one_config_error_line(tmp_path, settings, named):
    # McJob refuses the job before any sampling: exit 2, no result file.
    # Its steps and blocks refusals are in the bad-numbers test.
    out = tmp_path / "mc.json"
    path = write_cfg(tmp_path, "mc.cfg", **settings)
    code, err = _run_quietly(["mc", "--config", path, "--out", str(out)])
    assert code == 2 and err.startswith("config error: ")
    assert named in err and err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("geometry", [dict(mu="0.5"), dict(example="waves")],
                         ids=["slab", "waves"])
def test_mc_defaults_written_out_give_the_same_result(tmp_path, geometry):
    # McJob's five defaults, written out, change nothing but the echoed config
    defaults = dict(dt="0.001", particles="10000", steps="1000", seed="0",
                    blocks="25")
    docs = []
    for name, keys in (("omitted", geometry), ("written", {**geometry,
                                                           **defaults})):
        out = tmp_path / f"{name}.json"
        path = write_cfg(tmp_path, f"{name}.cfg", **keys)
        assert run(tmp_path, "mc", "--config", path, "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        del doc["meta"]["config"]
        docs.append(json.dumps(doc, indent=2, sort_keys=True))
    assert docs[0] == docs[1]


@pytest.mark.parametrize("command,keys,defaults", [
    ("oracle", dict(example="wedge"),
     dict(eval_x="1.0", eval_y="0.0", quad_points="128", fd_step="1e-5")),
    ("oracle", dict(count="20", seed="3", eval_y="0.5"),
     dict(eval_x="1", quad_points="128", fd_step="0.00001")),
    ("planes", dict(example="wedge"), dict(zdir="0,0,1")),
    ("mc", dict(particles="500", seed="2"), dict(mu="0", gap="1")),
    ("mc", dict(mu="0.5", particles="500"), dict(gap="1.0")),
    ("solve", dict(z1="0", z2="1+0.3*sin(x)", domain="0,2,0,1",
                   resolution="6x4", steps="8", p0="1+x"), dict(mode="finite")),
], ids=["oracle-case", "oracle-sweep", "planes", "slab", "slab-mu", "solve"])
def test_library_defaults_written_out_give_the_same_result(
        tmp_path, command, keys, defaults):
    # the library's defaults, written out, change nothing but the echoed
    # config lines
    outputs = []
    for name, cfg in (("omitted", keys), ("written", {**keys, **defaults})):
        path = write_cfg(tmp_path, f"{name}.cfg", **cfg)
        assert run(tmp_path, command, "--config", path,
                   "--out", str(tmp_path / name)) == 0
        echoed = tuple(f"# {key}=" for key in [*cfg, "out"])
        outputs.append([
            (p.name.replace(name, ""), [ln for ln in p.read_text().splitlines()
                                        if not ln.startswith(echoed)])
            for p in sorted(tmp_path.glob(f"{name}*")) if p.suffix != ".cfg"])
        if command != "solve":
            [(_, text)] = outputs[-1]
            doc = json.loads("\n".join(text))
            del doc["meta"]["config"]
            outputs[-1] = doc
    assert outputs[0] == outputs[1] and outputs[0]


def test_solve_snapshots_conserve_mass(tmp_path):
    cfg = write_cfg(tmp_path, "solve.cfg", z1="0", z2="2+sin(x)",
                    domain="0,6.283185307179586,0,1", resolution="24x3",
                    mode="finite", steps="400", snap_every="200",
                    p0="1+cos(x)^2")
    prefix = tmp_path / "run"
    assert run(tmp_path, "solve", "--config", cfg, "--out", str(prefix)) == 0
    paths = sorted(tmp_path.glob("run_*.csv"))
    assert [p.name for p in paths] == ["run_000000.csv", "run_000200.csv",
                                       "run_000400.csv"]
    masses = []
    for p in paths:
        _, data = read_csv(p)
        masses.append(sum(float(r[3]) for r in data))
    assert masses[1] == pytest.approx(masses[0], rel=1e-12)
    assert masses[2] == pytest.approx(masses[0], rel=1e-12)


def test_solve_is_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, "solve.cfg", z1="0", z2="1+x/4",
                    domain="-1,1,-1,1", resolution="12x12", steps="50",
                    snap_every="50")
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(tmp_path, "solve", "--config", cfg, "--out", str(a)) == 0
    assert run(tmp_path, "solve", "--config", cfg, "--out", str(b)) == 0
    for step in ("000000", "000050"):
        fa = (tmp_path / f"a_{step}.csv").read_text()
        fb = (tmp_path / f"b_{step}.csv").read_text()
        assert fa.replace(str(a), "X") == fb.replace(str(b), "X")


def test_recover_channel_matches_formula(tmp_path):
    out = tmp_path / "chan.csv"
    cfg = write_cfg(tmp_path, "chan.cfg", z1="sin(x)-3/2", z2="cos(2*x)+3/2",
                    samples="100")
    assert run(tmp_path, "recover-channel", "--config", cfg,
               "--out", str(out)) == 0
    header, data = read_csv(out)
    assert len(data) == 100
    i = header.index("max_abs_err")
    assert max(float(r[i]) for r in data) <= 1e-10


def test_recover_channel_compares_on_exactly_x0_to_x1(tmp_path):
    # z2 = x is open on [0.01, 1] and shut at x <= 0, just outside it
    out = tmp_path / "chan.csv"
    cfg = write_cfg(tmp_path, "chan.cfg", z1="0", z2="x", x0="0.01", x1="1",
                    samples="5")
    assert run(tmp_path, "recover-channel", "--config", cfg,
               "--out", str(out)) == 0
    header, data = read_csv(out)
    assert [float(r[0]) for r in (data[0], data[-1])] == [0.01, 1.0]
    i = header.index("D11_channel")
    assert all(float(r[i]) == pytest.approx(math.pi / 4, abs=1e-15)
               for r in data)


def _around(*values):
    """Each value with its two float neighbours."""
    v = np.array(values)
    return np.concatenate([np.nextafter(v, 0), v, np.nextafter(v, np.inf)])


# any float64 bit pattern: subnormals, both zeros, NaN payloads, both infinities
_FLOAT_BITS = st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0])


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(values=st.lists(st.one_of(_FLOAT_BITS, st.floats(),
                                 st.floats(-1e16, 1e16)),
                       max_size=40).map(np.array))
@example(values=_around(1e-5, 1e-4, 1e16, -1e-5, -1e-4, -1e16))
@example(values=np.ldexp(1.0, np.arange(-1074, 1024)))
@example(values=np.array([5e-324, 1.7976931348623157e308, 0.0, -0.0,
                          math.nan, math.inf, -math.inf]))
@example(values=np.array([]))
@example(values=np.arange(12.0).reshape(3, 4) / 7)
@example(values=np.asfortranarray(np.arange(12.0).reshape(3, 4) * 1e15))
def test_numbers_are_written_as_repr_writes_them(values):
    assert _fmts(values) == list(map(repr, values.ravel().tolist()))


def test_importing_the_cli_loads_neither_orjson_nor_scipy():
    # both are imported where they are used, so neither adds to import time
    src = str(Path(effdiff.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import effdiff.cli, sys; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('orjson', 'scipy')))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_outputs_embed_version_and_resolved_config(tmp_path):
    out = tmp_path / "radial.csv"
    assert run(tmp_path, "tensor", "--example", "radial", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# effdiff ")
    header = [ln for ln in lines if ln.startswith("# ")]
    assert any(ln == "# z1=sin(r)-3/2" for ln in header)
    assert any(ln == "# resolution=64x64" for ln in header)

    out = tmp_path / "planes.json"
    assert run(tmp_path, "planes", "--example", "wedge", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["tool"] == "effdiff"
    assert doc["meta"]["version"]
    assert doc["meta"]["config"]["n1"] == "0,0,-1"


# ---------------------------------------------------------------------------
# error handling
# ---------------------------------------------------------------------------

def test_unknown_config_key_is_config_error(tmp_path):
    cfg = write_cfg(tmp_path, "bad.cfg", z1="0", z2="1", typo_key="1",
                    domain="0,1,0,1", resolution="4x4")
    assert run(tmp_path, "tensor", "--config", cfg) == 2


def test_missing_required_key_is_config_error(tmp_path):
    cfg = write_cfg(tmp_path, "bad.cfg", z1="0", z2="1", domain="0,1,0,1")
    assert run(tmp_path, "tensor", "--config", cfg) == 2


def test_bad_expression_is_config_error(tmp_path):
    cfg = write_cfg(tmp_path, "bad.cfg", z1="sin(x", z2="1",
                    domain="0,1,0,1", resolution="4x4")
    assert run(tmp_path, "tensor", "--config", cfg) == 2


def test_non_positive_width_is_numerical_error(tmp_path):
    cfg = write_cfg(tmp_path, "bad.cfg", z1="1", z2="x",
                    domain="-1,1,-1,1", resolution="4x4")
    assert run(tmp_path, "tensor", "--config", cfg) == 3


_BAD_NUMBER_BASE = {
    "mc": dict(mu="0", particles="200", steps="10"),
    "solve": dict(z1="0", z2="1", domain="0,1,0,1", resolution="4x4",
                  steps="4"),
    "tensor": dict(z1="0", domain="0,1,0,1", resolution="4x4"),
    "oracle": dict(psi="0", m1="0", m2="1", quad_points="16"),
    "recover-channel": dict(z1="0", z2="1+x/10", samples="5"),
    "planes": dict(m1="0", m2="1"),
}


@pytest.mark.parametrize("command,settings,named", [
    ("mc", {"d0": "-1"}, "d0"),
    ("mc", {"blocks": "1"}, "blocks"),
    ("mc", {"blocks": "201", "particles": "200"}, "blocks"),
    ("mc", {"particles": "1"}, "particles"),
    ("mc", {"steps": "0"}, "steps"),
    ("mc", {"dt": "0"}, "dt"),
    ("mc", {"dt": "nan"}, "dt"),
    ("solve", {"dt": "-1e-4"}, "dt"),
    ("solve", {"steps": "-1"}, "steps"),
    ("solve", {"snap_every": "0"}, "snap_every"),
    ("tensor", {"z2_grid": "1,1,1\n1,1\n1,1,1\n"}, "z2.grid:3"),
    ("tensor", {"z2_grid": "1,1,1\n1,x,1\n1,1,1\n"}, "z2.grid:3"),
    ("tensor", {"z2_grid": "1,1,1\n1,1,1\n1,nan,1\n"}, "z2.grid:4"),
    ("tensor", {"z2_grid": "1,1,1\n1,1,1\n"}, "z2.grid"),
    ("tensor", {"z2_grid": "1,1\n1,1\n1,1\n"}, "z2.grid"),
    ("tensor", {"z2_grid": "# grid origin=0,0 spacing=0,0.5\n"
                           "1,1,1\n1,1,1\n1,1,1\n"}, "z2.grid"),
    ("tensor", {"z2_grid": "# grid origin=0,0 spacing=0.5,-1\n"
                           "1,1,1\n1,1,1\n1,1,1\n"}, "spacing"),
    ("mc", {"mu": "nan"}, "mu"),
    ("mc", {"gap": "0"}, "gap"),
    ("mc", {"gap": "inf"}, "gap"),
    ("oracle", {"quad_points": "0"}, "quad_points"),
    ("oracle", {"fd_step": "0"}, "fd_step"),
    ("oracle", {"fd_step": "nan"}, "fd_step"),
    ("recover-channel", {"samples": "0"}, "samples"),
    ("recover-channel", {"x0": "1", "x1": "-1"}, "x1 - x0"),
    ("recover-channel", {"x1": "inf"}, "x1"),
    ("oracle", {"count": "2", "seed": "-1"}, "seed"),
    ("mc", {"--seed": "-1"}, "seed"),
    ("oracle", {"eval_x": "nan"}, "eval_x"),
    ("oracle", {"eval_y": "inf"}, "eval_y"),
    ("oracle", {"count": "-3"}, "count"),
    ("tensor", {"z2": "1", "domain": "0,1,1,0"}, "domain"),
    ("tensor", {"z2": "1", "domain": "0,1,0,nan"}, "domain"),
    ("tensor", {"z2": "1", "domain": "-1e308,1e308,0,1"}, "domain"),
    ("tensor", {"z2": "1", "z1_grid": "a\0b"}, "grid file"),
    ("planes", {"n1": "0,0,0", "n2": "0,0,1"}, "n1"),
    ("planes", {"n1": "0,0,1", "n2": "0,0,0"}, "n2"),
    ("oracle", {"n1": "0,0,-1", "n2": "0,0,1", "zdir": "0,0,0"}, "zdir"),
    ("planes", {"tilt_sign": "x"}, "tilt_sign"),
    ("mc", {"start": "0,0,nan"}, "start"),
    ("oracle", {"psi": "3"}, "psi"),
    ("oracle", {"psi": "-1.6"}, "psi"),
    ("planes", {"psi": "0"}, "unknown config keys"),
    ("mc", {"resolution": "4x4"}, "unknown config keys"),
    ("recover-channel", {"domain": "0,1,0,1"}, "unknown config keys"),
    ("recover-channel", {"resolution": "4x4"}, "unknown config keys"),
    ("mc", {"particles": "2", "blocks": "2"}, "blocks"),
    ("mc", {"particles": "3", "blocks": "2"}, "blocks"),
    ("oracle", {"quad_points": "1025"}, "quad_points"),
    ("mc", {"mu": "1e200"}, "mu"),      # 1 + mu^2 overflows
    ("recover-channel", {"x0": "-1e308", "x1": "1e308"}, "x0"),  # width: inf
    ("mc", {"mu": "1e100", "gap": "1e-300"}, "gap"),  # width underflows
    # a normal whose computed length underflows or overflows, used or not
    ("planes", {"n1": "1e-320,0,0", "n2": "0,0,1"}, "n1"),
    ("planes", {"n1": "1e308,0,1e308", "n2": "0,0.5,1"}, "n1"),
    ("oracle", {"n1": "0,0,-1", "n2": "0,0,1", "zdir": "1e-320,0,0"}, "zdir"),
    # a normal whose squared length is subnormal: 2e-320
    ("planes", {"n1": "1e-160,0,1e-160", "n2": "0,0.5,1"}, "n1"),
    # grid-backed walks and solves are library-only
    ("mc", {"z1_grid": "z1.grid"}, "unknown config keys"),
    ("solve", {"z1_grid": "z1.grid"}, "unknown config keys"),
    # a slab run moved by 4.5e-149, far below the rounding of its width
    ("mc", {"mu": "2", "start": "0,0,0.5", "dt": "1e-300"},
     "dt = 1e-300 is too small"),
    # counts past 10^15: far past memory, or past what numpy can size
    ("mc", {"particles": str(10**18)}, "particles"),
    ("mc", {"steps": str(10**400)}, "steps"),   # too large for a float
    ("oracle", {"count": str(10**16)}, "count"),
    ("recover-channel", {"samples": str(10**16)}, "samples"),
    ("tensor", {"z2": "1", "resolution": "100000000x100000000"}, "resolution"),
    # a grid whose far corner 2e308 overflows
    ("tensor", {"z2_grid": "# grid origin=0,0 spacing=1e308,0.5\n"
                           "1,1,1\n1,1,1\n1,1,1\n"},
     "z2.grid: grid corners"),
    # GridField counts the numbers of the header, not the loader
    ("tensor", {"z2_grid": "# grid origin=0,0,0 spacing=0.5,0.5\n"
                           "1,1,1\n1,1,1\n1,1,1\n"},
     "z2.grid: grid origin must be two numbers, got (0.0, 0.0, 0.0)"),
    ("tensor", {"z2_grid": "# grid origin=0,0 spacing=0.5\n"
                           "1,1,1\n1,1,1\n1,1,1\n"},
     "z2.grid: grid spacing must be two numbers, got (0.5,)"),
    ("solve", {"p0": "-1"}, "p0 must be finite and non-negative"),
    # header and row texts are quoted by repr too: a NUL stays escaped
    ("tensor", {"z2_grid": "# grid origin=0,0\0 spacing=0.5,0.5\n"
                           "1,1,1\n1,1,1\n1,1,1\n"},
     "got '# grid origin=0,0\\x00 spacing=0.5,0.5'"),
    ("tensor", {"z2_grid": "1,1,1\n1,\0,1\n1,1,1\n"},
     "z2.grid:3: samples must be finite numbers, got '1,\\x00,1'"),
    # the size rule of Domain's grids, one text for both commands
    *[(command, {"z2": "1", "resolution": size},
       "resolution must be two integers NX, NY >= 2 with "
       f"NX * NY <= 1000000000000000, got {size}")
      for command, size in (("tensor", "1x4"), ("solve", "1x4"),
                            ("solve", "100000000x100000000"))],
    ("solve", {"resolution": "4x4x4"}, "resolution must be two integers "
     "NXxNY, got '4x4x4'"),
    # a file without a header line, and a header without a spacing
    ("tensor", {"z2_grid": "# grd origin=0,0 spacing=0.5,0.5\n"
                           "1,1,1\n1,1,1\n1,1,1\n"},
     "z2.grid: missing '# grid ...' header line"),
    ("tensor", {"z2_grid": "# grid origin=0,0\n1,1,1\n1,1,1\n1,1,1\n"},
     "z2.grid: header lacks 'spacing'"),
])
def test_bad_numbers_and_grid_rows_are_config_errors(tmp_path, capsys, command,
                                                     settings, named):
    flags = [arg for key, value in settings.items() if key.startswith("--")
             for arg in (key, value)]
    settings = {k: v for k, v in settings.items() if not k.startswith("--")}
    cfg = dict(_BAD_NUMBER_BASE[command], **settings)
    if "z2_grid" in cfg:
        grid = tmp_path / "z2.grid"
        text = cfg["z2_grid"]
        if not text.startswith("#"):
            text = "# grid origin=0,0 spacing=0.5,0.5\n" + text
        grid.write_text(text)
        cfg["z2_grid"] = str(grid)
    path = write_cfg(tmp_path, "bad.cfg", **cfg)
    assert run(tmp_path, command, "--config", path,
               "--out", str(tmp_path / "out"), *flags) == 2
    err = capsys.readouterr().err
    # a row names the grid file z2.grid; the error quotes its path by repr
    named = named.replace("z2.grid", "z2.grid'")
    assert err.startswith("config error:") and named in err
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize("command,settings,named", [
    ("solve", dict(z1="log(abs(x-0.375))-5", z2="1", domain="0,1,0,1",
                   resolution="4x4", steps="1"),
     "width or surface gradient undefined at (0.375, 0.125)"),
    ("solve", dict(z1="1e10*x", z2="1e10*y+1e11", domain="0,1,0,1",
                   resolution="4x4", steps="1"),
     "tensor undefined (extreme tilt) at (0.125, 0.125)"),
    ("recover-channel", dict(z1="log(abs(x-1))-5", z2="1", x0="0", x1="2",
                             samples="3"),
     "width or surface gradient undefined at (1, 0)"),
    ("planes", dict(m1="1e300", m2="-1e300"),
     "tensor undefined (slope overflow)"),
    # coincident slopes whose 1 + m^2 overflows, and slopes whose spacing
    # overflows
    ("planes", dict(m1="1e155", m2="1e155"),
     "tensor undefined (slope overflow)"),
    ("planes", dict(m1="-1e308", m2="1e308"),
     "tensor undefined (slope overflow)"),
    # parallel tangent planes whose common slope is too large
    ("solve", dict(z1="1e155*x", z2="1e155*x+1e142", domain="0,1,0,1",
                   resolution="4x4", steps="1"),
     "tensor undefined (slope overflow) at (0.125, 0.125)"),
    # every slope of z1 but at x = 0 overflows to -inf
    ("solve", dict(z1="-1e200*x^2", z2="1", domain="0,1,0,1",
                   resolution="4x4", steps="1"),
     "tensor undefined (slope overflow) at (0.125, 0.125)"),
    ("recover-channel", dict(z1="-1e200*x^2", z2="1", x0="0", x1="1",
                             samples="3"),
     "tensor undefined (slope overflow) at (0.5, 0)"),
    # walkers reach x < -0.6, where z1 is undefined, at the end of a step
    ("mc", dict(z1="log(x+0.6)-3", z2="2", domain="0,1,0,1", particles="50",
                steps="300", dt="1e-2", seed="1"),
     "non-finite value in 'log(x + 0.6)'"),
    # the stability bound 0.2 h^2 / ||D|| underflows to 0
    ("solve", dict(z1="0", z2="1", domain="0,1e-300,0,1", resolution="4x4",
                   steps="3"),
     "dt = 0 is not positive and finite (stability bound 0)"),
    # a gap so far below the step length that P rounds to 1
    ("mc", dict(mu="0", gap="1e-20", particles="100", steps="2"),
     "a step crosses both surfaces with probability 1 (limit 0.001); "
     "reduce dt"),
    # sqrt(2 d0 dt) overflows to inf, so gap / sigma is 0
    ("mc", dict(mu="0", d0="1e50", dt="1e300", particles="100", steps="2"),
     "a step crosses both surfaces with probability 1 (limit 0.001); "
     "reduce dt"),
    # a step above the stability bound, refused before any snapshot
    ("solve", dict(example="waves", resolution="8x8", steps="3", dt="10"),
     "dt = 10 exceeds the stability bound 0.125"),
], ids=["solve-masked", "solve-extreme-tilt", "recover-channel-masked",
        "planes-huge-slopes", "planes-coincident-huge-slopes",
        "planes-spacing-overflows", "solve-steep-parallel-planes",
        "solve-slope-overflow", "recover-channel-slope-overflow",
        "mc-step-ends-where-a-surface-is-undefined", "solve-step-underflows",
        "mc-slab-tiny-gap", "mc-slab-step-overflows", "solve-unstable-dt"])
def test_solve_and_recover_channel_name_the_first_undefined_point(
        tmp_path, capsys, command, settings, named):
    path = write_cfg(tmp_path, "bad.cfg", **settings)
    assert run(tmp_path, command, "--config", path,
               "--out", str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert err == f"error: {named}\n"
    assert not list(tmp_path.glob("out*"))      # no output file, not one


@pytest.mark.parametrize("command,settings,named", [
    # a step of 1.4e-20 added to coordinates of about pi: lost to rounding
    ("mc", dict(example="waves", particles="50", steps="5", dt="1e-40"),
     "config error: dt = 1e-40 is too small"),
    # arrays of 0.7 to 2.1 PiB, more than any address space holds
    ("mc", dict(example="slab", particles=str(10**14)),
     "error: Unable to allocate "),
    ("oracle", dict(count=str(10**14)), "error: Unable to allocate "),
    ("recover-channel", dict(z1="0", z2="1", samples=str(10**14)),
     "error: Unable to allocate "),
    ("tensor", dict(example="radial", resolution=f"3x{10**14}"),
     "error: Unable to allocate "),
], ids=["mc-curved-tiny-dt", "mc-slab-particles", "oracle-count",
        "recover-channel-samples", "tensor-resolution"])
def test_a_run_too_fine_or_too_large_ends_in_one_line(tmp_path, command,
                                                      settings, named):
    path = write_cfg(tmp_path, "big.cfg", **settings,
                     out=str(tmp_path / "out"))
    code, err = _run_quietly([command, "--config", path])
    assert code == (2 if named.startswith("config error") else 3)
    assert err.startswith(named) and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["tensor", "solve"])
def test_an_undefined_surface_on_the_validation_lattice_names_its_node(
        tmp_path, capsys, command):
    # log(x) is undefined at x = 0, on the lattice that SurfacePair checks
    # when it is built
    path = write_cfg(tmp_path, "bad.cfg", z1="sin(log(x))+y", z2="5",
                     domain="0,1,0,1")
    assert run(tmp_path, command, "--config", path,
               "--out", str(tmp_path / "out")) == 3
    assert capsys.readouterr().err == "error: non-finite value in 'log(x)'\n"


# Tiny valid configs, one per command and mode: lattices of at most 4x4,
# at most 50 walkers x 5 steps, at most 2 oracle cases of 16 points.
_TINY = {
    "tensor": ("tensor", dict(z1="0", z2="1", domain="0,1,0,1",
                              resolution="4x4")),
    "planes-normals": ("planes", dict(
        n1="0,0,-1", n2="-0.7071067811865476,0,0.7071067811865476")),
    "planes-slopes": ("planes", dict(m1="0", m2="1")),
    "oracle-wedge": ("oracle", dict(psi="0", m1="0", m2="1",
                                    quad_points="16")),
    "oracle-sweep": ("oracle", dict(count="2", seed="1", quad_points="16")),
    "mc-slab": ("mc", dict(mu="0", particles="50", steps="5", blocks="5")),
    "mc-curved": ("mc", dict(z1="cos(x)", z2="cos(y)+5/2", domain="0,6,0,6",
                             particles="50", steps="5", blocks="5",
                             dt="1e-2")),
    "solve": ("solve", dict(z1="0", z2="1", domain="0,1,0,1",
                            resolution="4x4", steps="4")),
    "recover-channel": ("recover-channel", dict(z1="0", z2="1+x/10",
                                                samples="5")),
}

_ANY_TEXT = ["", "abc", "nan", "inf", "-inf", "-1", "0", "1e400", "1e-300",
             "1e300", "1,2", "0,0,0"]


def _offered_flags(command):
    """The options that the parser of a command offers, --help aside."""
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return sorted(option for action in sub.choices[command]._actions
                  for option in action.option_strings if option != "--help"
                  and option.startswith("--"))


@pytest.mark.parametrize("command", sorted(_ALLOWED_KEYS))
def test_the_parser_of_one_command_offers_what_the_full_parser_does(command):
    def options(parser):
        sub = next(action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction))
        return {name: sorted(option for action in p._actions
                             for option in action.option_strings)
                for name, p in sub.choices.items()}
    one, full = options(build_parser(command)), options(build_parser())
    assert sorted(full) == sorted(_ALLOWED_KEYS)
    assert one == {command: full[command]}


def _run_quietly(argv):
    """Exit code and stderr of main(argv); an exception escaping main,
    SystemExit included, is returned as its own description instead."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    except (Exception, SystemExit) as exc:
        return None, f"{type(exc).__name__}: {exc}"
    return code, err.getvalue()


def _exit_problem(code, err):
    """Why an exit code and stderr break the rule: a result, or exit 2 or
    3 with one line on stderr and no traceback; None when they keep it."""
    if code is None:
        return f"raised {err}"
    if (code not in (0, 2, 3) or "Traceback" in err
            or (code and err.count("\n") != 1)):
        return f"exit {code}, stderr {err!r}"
    return None


@pytest.mark.parametrize("base", sorted(_TINY))
def test_every_key_takes_any_text_without_a_traceback(tmp_path, monkeypatch,
                                                      base):
    # every allowed key set to each text in the config file, and every flag
    # the command offers given each text on the command line
    command, settings = _TINY[base]
    flags = _offered_flags(command)
    assert {flag[2:] for flag in flags} <= _ALLOWED_KEYS[command] | {"config"}
    cases = [(f"{key}={text!r}", {key: text}, [])
             for key in sorted(_ALLOWED_KEYS[command]) for text in _ANY_TEXT]
    cases += [(f"{flag} {text!r}", {}, [flag, text])
              for flag in flags for text in _ANY_TEXT]
    problems = []
    for i, (case, keys, argv) in enumerate(cases):
        workdir = tmp_path / str(i)
        workdir.mkdir()
        monkeypatch.chdir(workdir)   # out=abc and the like land here
        path = write_cfg(workdir, "sweep.cfg",
                         **{**settings, "out": "result", **keys})
        problem = _exit_problem(*_run_quietly([command, "--config", path,
                                               *argv]))
        if problem:
            problems.append(f"{case}: {problem}")
    assert problems == []


def _finite_numbers(path):
    """Whether every number in a JSON or CSV result file is finite."""
    with open(path) as fh:
        if fh.read(1) == "{":
            constants = []     # NaN, Infinity and -Infinity
            fh.seek(0)
            json.load(fh, parse_constant=constants.append)
            return not constants
    header, rows = read_csv(path)
    return all(math.isfinite(float(cell)) for row in rows
               for name, cell in zip(header, row) if cell and name != "flags")


@pytest.mark.parametrize("base,key,text", [
    *[(base, "d0", text) for base in ("tensor", "planes-normals",
                                      "oracle-wedge", "mc-slab", "mc-curved",
                                      "solve", "recover-channel")
      for text in ("1e-50", "1e50")],
    *[("oracle-wedge", key, text) for key in ("eval_x", "eval_y")
      for text in ("1e100", "-1e100")],
    ("oracle-wedge", "fd_step", "1e-300"), ("oracle-wedge", "fd_step", "0.999"),
    ("solve", "domain", "0,1e200,0,1e200"),   # the stability bound: inf
])
def test_range_ends_give_finite_results_or_one_error_line(
        tmp_path, monkeypatch, base, key, text):
    command, settings = _TINY[base]
    monkeypatch.chdir(tmp_path)
    path = write_cfg(tmp_path, "ends.cfg",
                     **{**settings, key: text, "out": "result"})
    code, err = _run_quietly([command, "--config", path])
    assert _exit_problem(code, err) is None
    if code == 0:
        written = sorted(tmp_path.glob("result*"))
        assert written and all(_finite_numbers(str(p)) for p in written)


@pytest.mark.parametrize("name,data", [
    ("bad.cfg", b"\xff"), ("bad.cfg", b"z1=x\xe9\nz2=9\n"), ("bad\0.cfg", None),
    ("no\nsuch.cfg", None)],
    ids=["0xff", "latin-1", "nul-in-path", "newline-in-path"])
def test_an_unreadable_config_file_is_one_config_error_line(tmp_path, name,
                                                            data):
    # the path is quoted as repr quotes it: a NUL or newline stays escaped
    path = tmp_path / name
    if data is not None:
        path.write_bytes(data)
    code, err = _run_quietly(["tensor", "--config", str(path)])
    assert code == 2
    assert err.startswith(
        f"config error: cannot read config file: {str(path)!r}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("lines,bad", [
    (["z1=0", "oops"], 2), (["# z1=0", "", "  ", "oops", "z2=1"], 4),
    (["", "# a comment with no equals sign", "z1=0", "", "z2 1"], 5)],
    ids=["second", "after-comment-and-blanks", "last"])
def test_a_config_line_without_equals_names_its_line(tmp_path, lines, bad):
    path = tmp_path / "c.cfg"
    path.write_text("\n".join(lines) + "\n")
    code, err = _run_quietly(["tensor", "--config", str(path)])
    assert code == 2
    assert err == f"config error: {str(path)!r}:{bad}: expected key=value\n"


@pytest.mark.parametrize("argv,named", [
    (["tensor", "--example", "radial", "--seed", "abc"], "seed"),
    (["planes", "--example", "wedge", "--resolution", "4x4"], "--resolution"),
    (["mc", "--example", "slab", "--resolution", "4x4"], "--resolution"),
    (["recover-channel", "--seed", "1"], "--seed"),
    (["tensor", "--out"], "--out"),
    (["nonsense"], "nonsense"),
    ([], "command"),
], ids=["seed-abc", "planes-resolution", "mc-resolution",
        "recover-channel-seed", "out-without-value", "unknown-command", "bare"])
def test_command_line_errors_are_one_config_error_line(argv, named):
    code, err = _run_quietly(argv)
    assert code == 2
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert named in err


# Grid files and expression texts for `tensor`, drawn to be mostly valid:
# each file may get a malformed header, origin or spacing, a ragged row, a
# non-finite or non-numeric sample, or too few rows or columns.
_BAD_NUMBER = st.sampled_from(["", "abc", "nan", "inf", "-inf", "1e400",
                               "0", "-1", "1,2"])
_FUNCTIONS = ["sin", "cos", "tan", "asin", "acos", "atan", "exp", "log",
              "sqrt", "abs"]
_EXPRESSION_TREES = st.recursive(
    st.sampled_from(["x", "y", "r", "pi", "e", "0", "1", "2.5", "-3",
                     "1e308", "1e-300", "0.5"]),
    lambda inner: st.one_of(
        st.builds("{}({})".format, st.sampled_from(_FUNCTIONS), inner),
        st.builds("({}{}{})".format, inner, st.sampled_from("+-*/^"), inner)),
    max_leaves=6)
_EXPRESSION_TEXT = st.one_of(
    _EXPRESSION_TREES, _EXPRESSION_TREES.map("9+{}".format),
    st.text(alphabet="xyr0123456789.e+-*/^() sinco", max_size=16))


@st.composite
def _grid_files(draw):
    nx, ny = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.floats(-3.0, 3.0).map(repr),
                                  min_size=ny, max_size=ny),
                         min_size=nx, max_size=nx))
    if draw(st.booleans()):
        k = draw(st.integers(0, nx * ny - 1))
        rows[k // ny][k % ny] = draw(_BAD_NUMBER)
    if draw(st.booleans()):
        row = rows[draw(st.integers(0, nx - 1))]
        if draw(st.booleans()):
            row.pop()
        else:
            row.append("1")
    origin = draw(st.one_of(st.sampled_from(["-0.1,-0.1", "0,0"]),
                            _BAD_NUMBER))
    spacing = draw(st.one_of(st.sampled_from(["0.3,0.3", "0.5,0.25"]),
                             _BAD_NUMBER))
    header = draw(st.sampled_from([
        "# grid origin={} spacing={}", "# grid spacing={1} origin={0}",
        "# grid origin={}", "grid origin={} spacing={}", ""]))
    return "\n".join([header.format(origin, spacing)]
                     + [",".join(row) for row in rows]) + "\n"


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(z1=st.one_of(st.just("-5"), st.just("0.1*sin(x*y)-5"),
                   _EXPRESSION_TEXT),
       z2=st.one_of(_grid_files(), _grid_files(), _EXPRESSION_TEXT),
       domain=st.sampled_from(["0,1,0,1", "0,0.5,0,0.5", "-1,2,-1,2"]),
       resolution=st.sampled_from(["3x3", "2x4"]))
def test_generated_grid_files_and_expressions_run_without_a_traceback(
        z1, z2, domain, resolution):
    with tempfile.TemporaryDirectory() as tmp:
        keys = dict(z1=z1, domain=domain, resolution=resolution)
        if "\n" in z2:
            grid = Path(tmp) / "z2.grid"
            grid.write_text(z2)
            keys["z2_grid"] = str(grid)
        else:
            keys["z2"] = z2
        path = write_cfg(Path(tmp), "gen.cfg", **keys)
        out = str(Path(tmp) / "out.csv")
        problem = _exit_problem(*_run_quietly(["tensor", "--config", path,
                                               "--out", out]))
    assert problem is None


@pytest.mark.parametrize("out", ["", "a\0b", "missing/out"],
                         ids=["empty", "nul", "missing"])
@pytest.mark.parametrize("base", ["tensor", "planes-slopes", "oracle-wedge",
                                  "mc-slab", "solve", "recover-channel"])
def test_unwritable_out_is_config_error(tmp_path, capsys, base, out):
    command, settings = _TINY[base]
    path = write_cfg(tmp_path, "ok.cfg", **settings)
    target = str(tmp_path / out) if "/" in out else out
    assert run(tmp_path, command, "--config", path, "--out", target) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "Traceback" not in err
    if "/" in out:
        written = target + "_000000.csv" if command == "solve" else target
        assert repr(written) in err
    else:
        assert "out must be a file path" in err
