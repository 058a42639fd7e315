"""End-to-end checks of the command-line interface via main(argv)."""

import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ckgeo import DomainError, GeometryError, Measure, Measures, NonDivisible, Space, cli, distance
from ckgeo.cli import _dist_text, main

SRC = Path(cli.__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def _reject_constant(token):
    raise ValueError("stdout holds %s, which is not valid JSON" % token)


def run_json(capsys, *argv):
    """Exit code 0 and stdout parsed as strict JSON: NaN and +-Infinity fail."""
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out, parse_constant=_reject_constant)


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


def _encoder_text(measures, output, single=False):
    """dist's output as json.dumps(sort_keys=True) of Measure.to_dict(), or as
    csv.writer of (repr(phi), level, kind) under the phi,level,kind header."""
    if output == "json":
        payload = measures[0].to_dict() if single else [m.to_dict() for m in measures]
        return json.dumps(payload, sort_keys=True) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("phi", "level", "kind"))
    for m in measures:
        writer.writerow((repr(m.value), m.level, m.kind))
    return buf.getvalue()


def _sample_rows(sig, rng, count=12):
    """Raw (x, y) rows of measurable pairs: random ones, and every third
    near-coincident (y = x moved by about 1e-6)."""
    sp = Space(sig)
    K = np.array(sp.K, dtype=float)
    rows = []
    while len(rows) < count:
        x = rng.uniform(-2.0, 2.0, sp.n + 1)
        y = x + 1e-6 * rng.uniform(-1.0, 1.0, sp.n + 1) if len(rows) % 3 == 0 else rng.uniform(-2.0, 2.0, sp.n + 1)
        squares = np.array([x, y]) ** 2
        # stay clear of the absolute: q > 1e-3 max(1, sum |K| x^2) for both rows, q = sum K x^2
        if not (squares @ K > 1e-3 * np.maximum(1.0, squares @ np.abs(K))).all():
            continue
        try:
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
    for output, want in (("json", "[]\n"), ("csv", "phi,level,kind\n")):
        assert run(capsys, "dist", "--space", "he", "--pairs", str(pairs), "--output", output) == (0, want, "")
        assert want == _encoder_text([], output)


GOLDEN = json.loads((Path(__file__).parent / "data" / "dist_golden.json").read_text())


@pytest.mark.parametrize("output", ["json", "csv"])
@pytest.mark.parametrize("case", GOLDEN["pairs"], ids=[case["space"] for case in GOLDEN["pairs"]])
def test_dist_bulk_stdout_is_the_golden_bytes(capsys, tmp_path, case, output):
    """`dist --pairs` writes the bytes recorded in tests/data/dist_golden.json.

    The fixture was written before stacks measured into Measures, by running
    cli.main with stdout captured.  For each signature S of the nine planar
    ones, ehe and hehe, its "rows" are perfbench.gen.pairs_csv of
    perfbench.gen.make_pairs(S, random.Random("golden:" + S), 12)[0]: 12
    seeded pairs, near-coincident and imaginary ones among them.  Its "json"
    and "csv" are the stdout of `dist --space S --pairs FILE --output json`
    and `--output csv` on those rows.  The "singles" are the --p and --q
    halves of row 0 of ee (json), row 1 of eh (csv) and row 2 of hehe (json).
    """
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(case["rows"])
    assert run(capsys, "dist", "--space", case["space"], "--pairs", str(pairs), "--output", output) == (
        0,
        case[output],
        "",
    )


@pytest.mark.parametrize("case", GOLDEN["singles"], ids=[case["space"] for case in GOLDEN["singles"]])
def test_dist_single_stdout_is_the_golden_bytes(capsys, case):
    """`dist --p --q` writes the bytes recorded in tests/data/dist_golden.json
    (see test_dist_bulk_stdout_is_the_golden_bytes)."""
    argv = ("dist", "--space", case["space"], "--p=" + case["p"], "--q=" + case["q"], "--output", case["output"])
    assert run(capsys, *argv) == (0, case["stdout"], "")


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
    assert _bulk_error(capsys, tmp_path, "he", ["1,0,0,2,0.5,0", "1,1,0,1,0,0", "1,0,0,2,0.5,y"]) == (
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


@pytest.mark.parametrize("output", ["json", "csv"])
@pytest.mark.parametrize("sig", ["pe", "eh", "hh", "ehe"])
def test_dist_rows_are_the_encoders_bytes(capsys, tmp_path, sig, output):
    sp = Space(sig)
    rows = _sample_rows(sig, np.random.default_rng(7 + len(sig)))
    if sig == "pe":
        # phi in exponent form: 1e-150, 1e16 and 1e20
        rows += [(np.array([1.0, 0.0, 0.0]), np.array([1.0, t, 0.0])) for t in (1e-150, 1e16, 1e20)]
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("".join(_coords(x) + "," + _coords(y) + "\n" for x, y in rows))
    measures = [distance(sp, sp.normalize(x), sp.normalize(y)) for x, y in rows]
    if sig != "pe":
        assert {m.kind for m in measures} == {"real", "imaginary"}
    code, out, err = run(capsys, "dist", "--space", sig, "--pairs", str(pairs), "--output", output)
    assert (code, err) == (0, "")
    assert out == _encoder_text(measures, output)
    for (x, y), m in zip(rows[-3:], measures[-3:]):
        argv = ("dist", "--space", sig, "--p=" + _coords(x), "--q=" + _coords(y), "--output", output)
        assert run(capsys, *argv) == (0, _encoder_text([m], output, single=True), "")


def _stack(measures):
    """Measures of level-1 Measure rows, the stack _dist_text writes."""
    return Measures([m.value for m in measures], [m.kind == "imaginary" for m in measures], 1)


@pytest.mark.parametrize("output", ["json", "csv"])
def test_dist_text_of_extreme_phi_is_the_encoders_bytes(output):
    measures = [
        Measure(5e-324, 1),
        Measure(1e-300, 1, "imaginary"),
        Measure(1e16, 1),
        Measure(0.1 + 0.2, 1, "imaginary"),
        Measure(0.0, 1),
        Measure(123456789.0, 1),
    ]
    assert _dist_text(_stack(measures), output) + "\n" == _encoder_text(measures, output)
    for m in measures:
        assert _dist_text(_stack([m]), output, single=True) + "\n" == _encoder_text([m], output, single=True)


@pytest.mark.parametrize("phi", [math.inf, math.nan])
def test_dist_text_refuses_a_non_finite_phi(phi):
    with pytest.raises(DomainError, match="phi of pair 2"):
        _dist_text(_stack([Measure(0.5, 1), Measure(phi, 1)]), "json")
    with pytest.raises(DomainError, match="phi of pair 1"):
        _dist_text(_stack([Measure(phi, 1, "imaginary")]), "csv", single=True)


def test_dist_non_finite_phi_exits_with_one_json_error_line(capsys, tmp_path, monkeypatch):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("1,0,0,2,0.5,0\n")
    monkeypatch.setattr(cli, "distance", lambda space, x, y: _stack([Measure(math.inf, 1)]))
    code, out, err = run(capsys, "dist", "--space", "he", "--pairs", str(pairs))
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and json.loads(err)["error"] == "DomainError"


def _bulk_usage_message(capsys, tmp_path, lines):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("".join(line + "\n" for line in lines))
    code, out, err = run(capsys, "dist", "--space", "he", "--pairs", str(pairs))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and len(err.encode()) < 1000
    payload = json.loads(err)
    assert payload["error"] == "usage"
    return payload["message"]


@pytest.mark.parametrize(
    "lines, message",
    [
        # a bad token in the middle of row 2, after a good row 1
        (["1,0,0,2,0.5,0", "1,0,x,2,0.5,0"], "--pairs row 2: could not convert string to float: 'x'"),
        # the good tokens before the bad one are not read as points: (1,1,0) is on the absolute
        (["1,0,0,2,0.5,0", "1,1,0,x,0,0"], "--pairs row 2: could not convert string to float: 'x'"),
        # a short row and a long one; blank lines are skipped and not counted
        (["1,0,0,2,0.5,0", "1,0,0,2,0.5"], "--pairs row 2: needs 6 values, got 5"),
        (["1,0,0,2,0.5,0", "", "1,0,0,2,0.5,0,7"], "--pairs row 2: needs 6 values, got 7"),
        # the first malformed row wins
        (["1,0,0,2,0.5,0", "1,0,0,2,0.5", "1,0,0,x,0,0"], "--pairs row 2: needs 6 values, got 5"),
        # a token over 80 characters is reported by its first 40 and its length
        (
            ["1,0,0,2,0.5,0", "1,0," + "x" * 140000 + ",2,0.5,0"],
            "--pairs row 2: could not convert string to float: '%s'... (140000 characters)" % ("x" * 40),
        ),
        (["1,0,0,2," + "y" * 81 + ",0"], "--pairs row 1: could not convert string to float: '%s'... (81 characters)" % ("y" * 40)),
        (["1,0,0,2," + "y" * 80 + ",0"], "--pairs row 1: could not convert string to float: '%s'" % ("y" * 80)),
    ],
)
def test_dist_bulk_usage_messages(capsys, tmp_path, lines, message):
    assert _bulk_usage_message(capsys, tmp_path, lines) == message


def test_dist_p_bounds_a_long_token_as_pairs_does(capsys):
    for token, shown in (("x" * 100000, "'%s'... (100000 characters)" % ("x" * 40)), ("x" * 80, repr("x" * 80))):
        code, out, err = run(capsys, "dist", "--space", "pe", "--p", "1,0," + token, "--q", "1,0,0")
        assert (code, out) == (2, "") and err.count("\n") == 1 and len(err.encode()) < 1000
        assert json.loads(err) == {"error": "usage", "message": "--p: could not convert string to float: " + shown}


def test_dist_bulk_parses_what_float_parses(capsys, tmp_path):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(" 1.5,0,0,1_0,0.5,-0.0\n")
    bulk = run_json(capsys, "dist", "--space", "he", "--pairs", str(pairs))
    assert bulk == [run_json(capsys, "dist", "--space", "he", "--p= 1.5,0,0", "--q=1_0,0.5,-0.0")]
    pairs.write_text("1,0,0,2,0.5,0\n1,0,0,inf,0,0\n")
    code, out, err = run(capsys, "dist", "--space", "he", "--pairs", str(pairs))
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "DomainError", "message": "coordinate 0 is inf, not a finite number"}


BOM = "\ufeff"


def test_dist_bulk_reads_a_byte_order_mark(capsys, tmp_path):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text("1,0,0,1,3,4\n1,1,0,1,1,2\n", encoding="utf-8")
    marked.write_text(BOM + "1,0,0,1,3,4\n1,1,0,1,1,2\n", encoding="utf-8")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    for output in ("json", "csv"):
        want = run(capsys, "dist", "--space", "pe", "--pairs", str(plain), "--output", output)
        assert want[0] == 0
        assert run(capsys, "dist", "--space", "pe", "--pairs", str(marked), "--output", output) == want


def test_json_file_argument_reads_a_byte_order_mark(capsys, tmp_path):
    x = tmp_path / "x.json"
    x.write_text(BOM + "[[1,0,0],[0,1,0]]", encoding="utf-8")
    got = run_json(capsys, "angle", "--space", "ee", "--x", str(x), "--y", "[[1,0,0],[0,0,1]]")
    want = run_json(capsys, "angle", "--space", "ee", "--x", "[[1,0,0],[0,1,0]]", "--y", "[[1,0,0],[0,0,1]]")
    assert got == want and got["phi"] == pytest.approx(math.pi / 2)


@pytest.mark.parametrize(
    "text",
    [
        '"1",0,0,1,3,4\n',  # a quoted field, which --p refuses too
        "1,0,0,1,3," + "x" * 140000 + "\n",  # a field over csv's 131 072-character limit
    ],
    ids=["quoted", "over-long"],
)
def test_dist_bulk_reads_fields_as_p_reads_them(capsys, tmp_path, text):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(text)
    code, out, err = run(capsys, "dist", "--space", "pe", "--pairs", str(pairs))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert json.loads(err)["message"].startswith("--pairs row 1: could not convert string to float")


def test_dist_bulk_reads_universal_newlines(capsys, tmp_path):
    plain, other = tmp_path / "plain.csv", tmp_path / "other.csv"
    plain.write_bytes(b"1,0,0,1,3,4\n1,1,0,1,1,2\n")
    want = run(capsys, "dist", "--space", "pe", "--pairs", str(plain))
    assert want[0] == 0
    for data in (b"1,0,0,1,3,4\r\n1,1,0,1,1,2\r\n", b"1,0,0,1,3,4\r1,1,0,1,1,2", b"\r\n1,0,0,1,3,4\r\n\r1,1,0,1,1,2\n\n"):
        other.write_bytes(data)
        assert run(capsys, "dist", "--space", "pe", "--pairs", str(other)) == want


UNDECODABLE = b"[[1,0,0],[0,1,0]]\xff\n"
FILE_OPTIONS = [
    ("--pairs", ("dist", "--space", "pe", "--pairs", "FILE")),
    ("--x", ("angle", "--space", "ee", "--x", "FILE", "--y", "[[1,0,0],[0,1,0]]")),
    ("--y", ("angle", "--space", "ee", "--x", "[[1,0,0],[0,1,0]]", "--y", "FILE")),
    ("--vertices", ("volume", "--space", "ee", "--vertices", "FILE")),
    ("--validate", ("transform", "--space", "ee", "--validate", "FILE")),
    ("--apply", ("transform", "--space", "ee", "--givens", "0,1,0.5", "--apply", "FILE")),
]


@pytest.mark.parametrize("option, argv", FILE_OPTIONS)
def test_undecodable_file_arguments_are_usage_errors(capsys, tmp_path, option, argv):
    path = tmp_path / "bad.txt"
    path.write_bytes(UNDECODABLE)
    code, out, err = run(capsys, *[str(path) if a == "FILE" else a for a in argv])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.endswith("\n")
    payload = json.loads(err)
    assert payload["error"] == "usage"
    assert payload["message"].startswith(option + ": cannot read file ")


def test_module_entry_point(tmp_path):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("1,0,0,1,3,4\n1,1,0,1,1,2\n")
    bad.write_bytes(UNDECODABLE)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

    def ckgeo(*argv):
        return subprocess.run(
            [sys.executable, "-m", "ckgeo.cli", *argv], capture_output=True, env=env, timeout=60
        )

    done = ckgeo("dist", "--space", "pe", "--pairs", str(good), "--output", "csv")
    assert (done.returncode, done.stdout, done.stderr) == (0, b"phi,level,kind\n5.0,1,real\n2.0,1,real\n", b"")
    done = ckgeo("dist", "--space", "pe", "--pairs", str(bad))
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr.count(b"\n") == 1 and done.stderr.endswith(b"\n")
    assert json.loads(done.stderr)["error"] == "usage"


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


def test_triangle_laws_with_an_overflowing_sine_are_finite(capsys):
    # In ph, sinh(a)^2 of a side near 500 overflows; the quartic term of eq23
    # and eq24 has coefficient k1*k2 = 0, so it is not formed (it was 0 * inf)
    got = run_json(capsys, "triangle", "--space", "ph", "--b", "500", "--alpha", "0.5", "--c", "0.5", "--laws")
    assert got["variants"]["eq23"] == got["variants"]["eq24"] == "tie"
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


def test_volume_of_the_criterion_6_triangle_is_byte_stable(capsys):
    # every sample hits, so nothing is drawn; the bytes are those sampling gave
    code, out, _ = run(
        capsys, "volume", "--space", "pe", "--vertices", "[[1,0,0],[1,3,0],[1,0,4]]",
        "--samples", "1000000", "--seed", "42",
    )
    assert code == 0
    assert out == '{"hits": 1000000, "samples": 1000000, "stderr": 4.081840020524353e-14, "volume": 6.0}\n'


def test_volume_refuses_a_nested_vertex(capsys):
    # [[1,0,0]] normalizes to a stack of one row, which is not a vertex
    code, out, err = run(
        capsys, "volume", "--space", "ee", "--vertices", "[[[1,0,0]],[0,1,0],[0,0,1]]",
        "--samples", "1000",
    )
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "DimensionMismatch"


@pytest.mark.parametrize("error, code", [(NonDivisible, 4), (DomainError, 3)])
def test_geometry_errors_exit_with_one_json_line(capsys, monkeypatch, error, code):
    def fail(*args):
        raise error("no such quantity")

    monkeypatch.setattr(cli, "mc_volume", fail)
    got, out, err = run(capsys, "volume", "--space", "ee", "--vertices", "[[1,0,0],[0,1,0]]")
    assert (got, out) == (code, "")
    assert err == json.dumps({"error": error.__name__, "message": "no such quantity"}) + "\n"


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


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_transform_validate_non_finite_exit_code(capsys, bad):
    matrix = "[[1,0,0],[0,1,0],[0,0,%s]]" % bad
    code, out, err = run(capsys, "transform", "--space", "ee", "--validate", matrix)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "DomainError"


def test_transform_validate_huge_entry_exit_code(capsys):
    matrix = "[[1e200,0,0],[0,1,0],[0,0,1]]"
    code, out, err = run(capsys, "transform", "--space", "he", "--validate", matrix)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "DomainError"


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


VOL = ("volume", "--space", "ee", "--vertices")
APPLY = ("transform", "--space", "ee", "--givens", "0,1,0.5", "--apply")
BAD_PAYLOADS = [
    (VOL + ('[[1,0,0],[0,1,0],["a",0,1]]',), 2, "usage"),
    (VOL + ('[[1,0,0],{"a":1}]',), 2, "usage"),
    (VOL + ("[[1,0,0],[0,1,0]]", "--seed", "-1"), 3, "DomainError"),
    (("angle", "--space", "eee", "--x", '[[1,0,0,0],["a",1,0,0]]', "--y", "[[1,0,0,0]]"), 2, "usage"),
    (("angle", "--space", "eee", "--x", "[[1,0,0,0],[0,1,0]]", "--y", "[[1,0,0,0]]"), 2, "usage"),
    (("transform", "--space", "ee", "--validate", '[["a",0,0],[0,1,0],[0,0,1]]'), 2, "usage"),
    (("transform", "--space", "ee", "--validate", "[[1,0,0],[0,1],[0,0,1]]"), 2, "usage"),
    (APPLY + ('{"points": [[1,0,"x"]]}',), 2, "usage"),
    (APPLY + ('{"planes": [[[1,0,"x"]]]}',), 2, "usage"),
    (APPLY + ('{"points": 5}',), 2, "usage"),
    (("transform", "--space", "ee", "--givens", "0,5,0.5"), 2, "usage"),
    (("transform", "--space", "ee", "--givens", "1,0,0.5"), 2, "usage"),
    (("transform", "--space", "ee", "--givens", "0,1,nan"), 3, "DomainError"),
    (("transform", "--space", "ee", "--givens", "0,1,inf"), 3, "DomainError"),
    (("transform", "--space", "he", "--givens", "0,1,inf"), 3, "DomainError"),
    (APPLY + ('{"points": [[NaN,0,1]]}',), 3, "DomainError"),
    # built vertex coordinates above 1e150: refused before any product overflows
    (("triangle", "--space", "pe", "--b", "1e200", "--alpha", "0.5", "--c", "1e200"), 3, "DomainError"),
    (("triangle", "--space", "pe", "--b", "1e308", "--alpha", "0.5", "--c", "1e308", "--laws"), 3, "DomainError"),
    # building C overflows to inf: reported as that coordinate, with no numpy warning
    (("triangle", "--space", "pp", "--b", "1e308", "--alpha", "10", "--c", "1"), 3, "DomainError"),
    # a validated plane entry whose products would overflow: refused before they are formed
    (("angle", "--space", "ee", "--x", "[[1,0,0],[0,1e200,0]]", "--y", "[[1,0,0],[0,0,1]]"), 3, "DomainError"),
    (("angle", "--space", "ee", "--x", "[[1,0,0],[0,1e100,0]]", "--y", "[[1,0,0],[0,0,1]]"), 3, "DomainError"),
    # finite vertices whose angle products overflow: refused, not printed as NaN
    (("triangle", "--space", "hh", "--b", "300", "--alpha", "0.3", "--c", "0.5"), 3, "DomainError"),
]


@pytest.mark.parametrize("argv, want_code, want_error", BAD_PAYLOADS)
def test_bad_payloads_exit_with_one_json_error_line(capsys, argv, want_code, want_error):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (want_code, "")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert json.loads(err)["error"] == want_error


def test_transform_mode_conflict(capsys):
    code, _, err = run(
        capsys, "transform", "--space", "ee", "--random", "1", "--givens", "0,1,0.5"
    )
    assert code == 2


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    out, _ = capsys.readouterr()
    assert out.startswith("ckgeo ")
