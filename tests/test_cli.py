"""End-to-end checks of the command-line interface via main(argv)."""

import csv
import io
import itertools
import json
import math

import numpy as np
import pytest

from ckgeo import GeometryError, Space, distance
from ckgeo.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# -- dist ---------------------------------------------------------------------


def test_dist_euclidean(capsys):
    got = run_json(capsys, "dist", "--space", "pe", "--p", "1,0,0", "--q", "1,3,4")
    assert got["phi"] == pytest.approx(5.0, rel=1e-12)
    assert got["level"] == 1 and got["kind"] == "real"


def test_dist_sphere(capsys):
    got = run_json(capsys, "dist", "--space", "ee", "--p", "1,0,0", "--q", "0,1,0")
    assert got["phi"] == pytest.approx(math.pi / 2)


def test_dist_imaginary_kind(capsys):
    t = 0.9
    q = "%r,0,%r" % (math.cosh(t), math.sinh(t))
    got = run_json(capsys, "dist", "--space", "1,-1", "--p", "1,0,0", "--q", q)
    assert got["kind"] == "imaginary"
    assert got["phi"] == pytest.approx(t, rel=1e-12)


def test_dist_bulk_csv(capsys, tmp_path):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("1,0,0,1,3,4\n1,1,0,1,1,2\n")
    code, out, err = run(
        capsys,
        "dist",
        "--space",
        "pe",
        "--pairs",
        str(pairs),
        "--output",
        "csv",
    )
    assert code == 0, err
    lines = out.strip().splitlines()
    assert lines[0] == "phi,level,kind"
    assert lines[1] == "5.0,1,real"
    assert lines[2] == "2.0,1,real"


def test_dist_bulk_json(capsys, tmp_path):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("1,0,0,1,3,4\n")
    got = run_json(capsys, "dist", "--space", "pe", "--pairs", str(pairs))
    assert isinstance(got, list) and got[0]["phi"] == pytest.approx(5.0)


def _coords(v):
    return ",".join(repr(float(c)) for c in v)


def _sample_rows(sig, rng, count=12):
    """Raw (x, y) rows of measurable pairs: random ones, and every third
    near-coincident (y = x moved by about 1e-6)."""
    sp = Space(sig)
    rows = []
    while len(rows) < count:
        x = rng.uniform(-2.0, 2.0, sp.n + 1)
        y = x + 1e-6 * rng.uniform(-1.0, 1.0, sp.n + 1) if len(rows) % 3 == 0 else rng.uniform(-2.0, 2.0, sp.n + 1)
        try:
            sp.normalize(np.array([x, y]), tol=1e-3)  # stay clear of the absolute
            distance(sp, sp.normalize(x), sp.normalize(y))
        except GeometryError:
            continue
        rows.append((x, y))
    return rows


@pytest.mark.parametrize(
    "sig", ["".join(p) for p in itertools.product("hpe", repeat=2)] + ["ehe", "hehe"]
)
def test_dist_bulk_matches_single_rows(capsys, tmp_path, sig):
    rows = _sample_rows(sig, np.random.default_rng(sum(map(ord, sig))))
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("".join(_coords(x) + "," + _coords(y) + "\n" for x, y in rows))
    bulk = run_json(capsys, "dist", "--space", sig, "--pairs", str(pairs))
    code, out, err = run(capsys, "dist", "--space", sig, "--pairs", str(pairs), "--output", "csv")
    assert code == 0, err
    assert "np." not in out
    table = list(csv.reader(io.StringIO(out)))[1:]
    assert len(bulk) == len(table) == len(rows)
    for (x, y), got, line in zip(rows, bulk, table):
        one = run_json(capsys, "dist", "--space", sig, "--p=" + _coords(x), "--q=" + _coords(y))
        assert got == one  # phi to the last bit
        assert line == [repr(one["phi"]), "1", one["kind"]]
    if sig in ("eh", "hh", "ehe", "hehe"):
        assert "imaginary" in {row["kind"] for row in bulk}


def test_dist_bulk_empty_file(capsys, tmp_path):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("")
    assert run_json(capsys, "dist", "--space", "he", "--pairs", str(pairs)) == []


def _bulk_error(capsys, tmp_path, space, lines):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("".join(line + "\n" for line in lines))
    code, out, err = run(capsys, "dist", "--space", space, "--pairs", str(pairs))
    assert out == ""
    return code, json.loads(err)["error"]


def _scalar_loop_error(space, lines):
    """Exit code and error class of measuring the rows one by one."""
    sp = Space(space)
    for line in lines:
        values = [float(v) for v in line.split(",")]
        for point in (values[: sp.n + 1], values[sp.n + 1 :]):
            try:
                sp.normalize(point)
            except GeometryError as exc:
                return 3, type(exc).__name__
    return 0, None


@pytest.mark.parametrize(
    "lines",
    [
        # an x on the absolute in row 2, a negative-norm y in row 4
        ["1,0,0,2,0.5,0", "1,0,0,1.5,0.2,0.1", "1,1,0,1,0,0", "2,0,0,1,0.3,0", "1,0,0,0.5,2,0"],
        # x before y: the negative-norm x of row 2 beats the y on the absolute
        ["1,0,0,2,0.5,0", "0.5,2,0,1,1,0", "1,1,0,1,0,0"],
        # the y of row 1 is on the absolute, the x of row 2 has negative norm
        ["1,0,0,1,0,1", "0.5,2,0,2,0.5,0"],
        # a non-finite row
        ["1,0,0,2,0.5,0", "1,0,0,inf,0,0", "1,1,0,1,0,0"],
    ],
)
def test_dist_bulk_error_is_the_first_bad_point(capsys, tmp_path, lines):
    want = _scalar_loop_error("he", lines)
    assert want[0] == 3
    assert _bulk_error(capsys, tmp_path, "he", lines) == want


def test_dist_bulk_error_order_with_malformed_rows(capsys, tmp_path):
    # a bad point before a malformed row is reported as the point
    assert _bulk_error(capsys, tmp_path, "he", ["1,0,0,2,0.5,0", "1,1,0,1,0,0", "1,0,0"]) == (
        3,
        "OnAbsolute",
    )
    # a malformed row before a bad point is a usage error
    assert _bulk_error(capsys, tmp_path, "he", ["1,0,0,x,0,0", "1,1,0,1,0,0"]) == (2, "usage")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_dist_non_finite_coordinate_exit_code(capsys, bad):
    code, out, err = run(capsys, "dist", "--space", "he", "--p=" + bad + ",0,0", "--q", "1,0,0")
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "DomainError"


# -- angle --------------------------------------------------------------------


def test_angle_coordinate_lines(capsys):
    got = run_json(
        capsys,
        "angle",
        "--space",
        "ee",
        "--x",
        "[[1,0,0],[0,1,0]]",
        "--y",
        "[[1,0,0],[0,0,1]]",
    )
    assert got["phi"] == pytest.approx(math.pi / 2)
    assert got["level"] == 2


def test_angle_of_line_with_itself(capsys):
    got = run_json(
        capsys,
        "angle",
        "--space",
        "ee",
        "--x",
        "[[1,0,0],[0,1,0]]",
        "--y",
        "[[1,0,0],[0,1,0]]",
    )
    assert got["phi"] == pytest.approx(0.0, abs=1e-12)


# -- triangle -----------------------------------------------------------------


def test_triangle_octant_with_laws(capsys):
    half_pi = repr(math.pi / 2)
    got = run_json(
        capsys,
        "triangle",
        "--space",
        "ee",
        "--b",
        half_pi,
        "--alpha",
        half_pi,
        "--c",
        half_pi,
        "--laws",
    )
    tm = got["measurements"]
    for key in ("a", "b", "c", "alpha", "beta_prime", "gamma"):
        assert tm[key] == pytest.approx(math.pi / 2, abs=1e-12)
    assert set(got["residuals"]) == {"eq%d" % i for i in range(13, 26)}
    assert max(got["residuals"].values()) <= 1e-9


def test_triangle_345(capsys):
    got = run_json(
        capsys,
        "triangle",
        "--space",
        "pe",
        "--b",
        "4",
        "--alpha",
        repr(math.pi / 2),
        "--c",
        "3",
    )
    assert got["measurements"]["a"] == pytest.approx(5.0, rel=1e-12)
    assert "residuals" not in got


# -- volume ---------------------------------------------------------------------


def test_volume_octant_small_run(capsys):
    args = (
        "volume",
        "--space",
        "ee",
        "--vertices",
        "[[1,0,0],[0,1,0],[0,0,1]]",
        "--samples",
        "20000",
        "--seed",
        "3",
    )
    got = run_json(capsys, *args)
    assert set(got) == {"volume", "stderr", "hits", "samples"}
    assert got["volume"] == pytest.approx(math.pi / 2, abs=3.5 * got["stderr"])


def test_volume_deterministic_output(capsys):
    args = (
        "volume",
        "--space",
        "pe",
        "--vertices",
        "[[1,0,0],[1,3,0],[1,0,4]]",
        "--samples",
        "5000",
        "--seed",
        "11",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


# -- transform ---------------------------------------------------------------


def test_transform_givens_apply_point(capsys):
    got = run_json(
        capsys,
        "transform",
        "--space",
        "ee",
        "--givens",
        "0,1," + repr(math.pi / 2),
        "--apply",
        '{"points": [[1, 0, 0]]}',
    )
    moved = got["applied"]["points"][0]
    assert moved[0] == pytest.approx(0.0, abs=1e-12)
    assert moved[1] == pytest.approx(1.0)
    assert got["transform"]["word"][0][0] == "givens"


def test_transform_random_deterministic(capsys):
    args = ("transform", "--space", "he", "--random", "7")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_transform_validate_rejects_shear(capsys):
    got = run_json(
        capsys,
        "transform",
        "--space",
        "ee",
        "--validate",
        "[[1,0.3,0],[0,1,0],[0,0,1]]",
    )
    assert got["ok"] is False
    assert got["mode"] == "direct"


# -- exit codes -----------------------------------------------------------------


def test_usage_error_exit_code(capsys):
    code, out, err = run(capsys, "dist", "--space", "pe", "--p", "1,0,0")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "usage"


def test_argparse_error_exit_code(capsys):
    assert main(["dist", "--space", "pe", "--nonsense"]) == 2
    capsys.readouterr()


def test_bad_space_exit_code(capsys):
    code, _, err = run(capsys, "dist", "--space", "xe", "--p", "1,0", "--q", "0,1")
    assert code == 2
    assert json.loads(err)["error"] == "usage"


def test_geometry_error_exit_code(capsys):
    code, out, err = run(capsys, "dist", "--space", "pe", "--p", "0,0,1", "--q", "1,0,0")
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "OnAbsolute"


def test_too_few_samples_exit_code(capsys):
    code, _, err = run(
        capsys,
        "volume",
        "--space",
        "ee",
        "--vertices",
        "[[1,0,0],[0,1,0]]",
        "--samples",
        "10",
    )
    assert code == 3
    assert json.loads(err)["error"] == "DomainError"


def test_transform_mode_conflict(capsys):
    code, _, err = run(
        capsys, "transform", "--space", "ee", "--random", "1", "--givens", "0,1,0.5"
    )
    assert code == 2


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    out, _ = capsys.readouterr()
    assert out.startswith("ckgeo ")
