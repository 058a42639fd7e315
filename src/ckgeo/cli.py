"""Command-line front end.

One binary with subcommands (dist, angle, triangle, volume, transform), all
output as JSON on stdout (floats serialized in shortest round-trip form) or,
for dist, CSV.  dist writes its rows from a template, with the bytes
json.dumps(sort_keys=True) or csv.writer would give; the other commands go
through json.dumps.  Exit codes: 0 success, 2 usage or parse problem,
3 domain error (the payload carries the error class name), 4 internal
coefficient-algebra failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import List, Optional, Sequence

import numpy as np

from . import __version__
from .entity import MPlane, Space
from .errors import DomainError, GeometryError, NonDivisible
from .metric import Measures, angle, distance, law_residuals, measure_triangle, triangle_from_sas
from .transform import (
    apply_plane,
    apply_point,
    givens,
    random_transform,
    validate,
)
from .volume import GeodesicSimplex, mc_volume


class _UsageError(Exception):
    pass


# A token longer than this is reported by its first _TOKEN_HEAD characters and its length.
_TOKEN_LIMIT, _TOKEN_HEAD = 80, 40


def _bad_float(token: str, exc: ValueError) -> str:
    """float's message for a token that is not a number, shortened for a long token."""
    if len(token) <= _TOKEN_LIMIT:
        return str(exc)
    return "could not convert string to float: %r... (%d characters)" % (token[:_TOKEN_HEAD], len(token))


def _parse_floats(tokens: Sequence[str], want: int, what: str) -> List[float]:
    values: List[float] = []
    try:
        values += map(float, tokens)
    except ValueError as exc:
        raise _UsageError("%s: %s" % (what, _bad_float(tokens[len(values)], exc))) from exc
    if len(values) != want:
        raise _UsageError("%s needs %d comma-separated numbers, got %d" % (what, want, len(values)))
    return values


def _read_text(path: str, what: str) -> str:
    """A UTF-8 file's text with universal newlines (a leading byte-order mark
    is skipped); a file that cannot be read or decoded is a usage error."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError("%s: cannot read file %r (%s)" % (what, path, exc)) from exc


def _load_json_arg(text: str, what: str):
    """Inline JSON when the value starts like JSON, else a file path (see _read_text)."""
    raw = text.strip()
    if not raw.startswith(("[", "{")):
        raw = _read_text(text, what)
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise _UsageError("%s: invalid JSON (%s)" % (what, exc)) from exc


def _floats(payload, what: str) -> np.ndarray:
    """A parsed JSON value as a float array; a non-number or a ragged nesting is a usage error."""
    try:
        return np.asarray(payload, dtype=float)
    except (TypeError, ValueError) as exc:
        raise _UsageError("%s: %s" % (what, exc)) from exc


def _space(args) -> Space:
    try:
        return Space(args.space)
    except ValueError as exc:
        raise _UsageError("--space: %s" % exc) from exc


def _point(space: Space, text: str, what: str) -> np.ndarray:
    return space.normalize(_parse_floats(text.split(","), space.n + 1, what))


def _plane(space: Space, payload, what: str) -> MPlane:
    cols = _floats(payload, what)
    if cols.ndim != 2:
        raise _UsageError("%s: expected a JSON array of column arrays" % what)
    return MPlane(space, cols.T)


def _json(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def _cmd_dist(args) -> str:
    space = _space(args)
    if args.pairs is not None:
        return _dist_text(_dist_bulk(space, args.pairs), args.output)
    if args.p is None or args.q is None:
        raise _UsageError("dist needs --p and --q (or --pairs FILE)")
    x, y = _point(space, args.p, "--p"), _point(space, args.q, "--q")
    # a stack of one, which measures with the bits of the lone pair
    return _dist_text(distance(space, x[None], y[None]), args.output, single=True)


def _dist_bulk(space: Space, path: str) -> Measures:
    """The Measures of a --pairs file's rows: non-empty lines of 2(n+1)
    comma-separated numbers, read as --p and --q are read.

    Errors come in file order: the rows before the first malformed one are
    measured, and its usage error is raised only if they measure without
    error.  The bad point reported is the first one (x before y), even when
    an earlier pair cannot be measured.
    """
    rows = [line.split(",") for line in _read_text(path, "--pairs").split("\n") if line]
    width, values, malformed = 2 * (space.n + 1), [], None
    for lineno, row in enumerate(rows, 1):
        if len(row) != width:
            malformed = _UsageError("--pairs row %d: needs %d values, got %d" % (lineno, width, len(row)))
            break
        try:
            values += map(float, row)
        except ValueError as exc:
            # Drop the row's good tokens: the rows before it are still measured.
            done = len(values) // width * width
            token = row[len(values) - done]
            del values[done:]
            malformed = _UsageError("--pairs row %d: %s" % (lineno, _bad_float(token, exc)))
            break
    # Rows x0, y0, x1, y1, ...: normalize reports the first bad point in file order.
    points = space.normalize(np.array(values).reshape(-1, space.n + 1))
    measures = distance(space, points[0::2], points[1::2])
    if malformed is not None:
        raise malformed
    return measures


def _dist_text(measures: Measures, output: str, single: bool = False) -> str:
    """dist's output, with the bytes json.dumps(sort_keys=True) gives for the
    rows' Measure.to_dict(), a list of them unless single, or csv.writer for
    (repr(phi), level, kind) under a phi,level,kind header: both write a
    finite float as float.__repr__ does.  A non-finite phi raises DomainError.
    """
    finite = np.isfinite(measures.values)
    if not finite.all():
        idx = int(np.argmin(finite))
        raise DomainError("phi of pair %d is %r, not a finite number" % (idx + 1, float(measures.values[idx])))
    level = measures.level
    if output == "csv":
        real, imaginary = "%%r,%d,real" % level, "%%r,%d,imaginary" % level
    else:
        real = '{"kind": "real", "level": %d, "phi": %%r}' % level
        imaginary = '{"kind": "imaginary", "level": %d, "phi": %%r}' % level
    lines = [
        (imaginary if kind else real) % phi
        for phi, kind in zip(measures.values.tolist(), measures.imaginary.tolist())
    ]
    if output == "csv":
        return "\n".join(["phi,level,kind", *lines])
    return lines[0] if single else "[%s]" % ", ".join(lines)


def _cmd_angle(args) -> str:
    space = _space(args)
    X = _plane(space, _load_json_arg(args.x, "--x"), "--x")
    Y = _plane(space, _load_json_arg(args.y, "--y"), "--y")
    return _json(angle(space, X, Y).to_dict())


def _cmd_triangle(args) -> str:
    space = _space(args)
    tri = triangle_from_sas(space, args.b, args.alpha, args.c)
    tm = measure_triangle(tri)
    payload = {"measurements": tm.to_dict()}
    if args.laws:
        payload.update(law_residuals(space, tm).to_dict())
    return _json(payload)


def _cmd_volume(args) -> str:
    space = _space(args)
    data = _load_json_arg(args.vertices, "--vertices")
    if not isinstance(data, list):
        raise _UsageError("--vertices: expected a JSON array of points")
    points = [space.normalize(_floats(v, "--vertices")) for v in data]
    simplex = GeodesicSimplex(space, points)
    return _json(mc_volume(space, simplex, args.samples, args.seed).to_dict())


def _cmd_transform(args) -> str:
    space = _space(args)
    chosen = [opt for opt in (args.random, args.givens, args.validate) if opt is not None]
    if len(chosen) != 1:
        raise _UsageError("transform needs exactly one of --random, --givens, --validate")
    if args.validate is not None:
        mat = _floats(_load_json_arg(args.validate, "--validate"), "--validate")
        side = space.n + 1
        if mat.size != side * side:
            raise _UsageError("--validate: matrix needs %d entries" % (side * side,))
        return _json(validate(space, mat.reshape(side, side)).to_dict())
    if args.random is not None:
        g = random_transform(space, args.random)
    else:
        parts = args.givens.split(",")
        if len(parts) != 3:
            raise _UsageError("--givens needs i,j,t")
        try:
            g = givens(space, int(parts[0]), int(parts[1]), float(parts[2]))
        except ValueError as exc:  # unparsable, or not 0 <= i < j <= n
            raise _UsageError("--givens: %s" % exc) from exc
    payload = {"transform": g.to_dict()}
    if args.apply is not None:
        data = _load_json_arg(args.apply, "--apply")
        if not isinstance(data, dict):
            raise _UsageError("--apply: expected a JSON object")
        if not all(isinstance(data.get(key, []), list) for key in ("points", "planes")):
            raise _UsageError("--apply: 'points' and 'planes' must be JSON arrays")
        applied = {}
        if "points" in data:
            applied["points"] = [
                list(apply_point(g, _floats(p, "--apply"))) for p in data["points"]
            ]
        if "planes" in data:
            applied["planes"] = [
                [list(col) for col in apply_plane(g, _plane(space, cols, "--apply")).cols.T]
                for cols in data["planes"]
            ]
        payload["applied"] = applied
    return _json(payload)


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ckgeo", description=__doc__)
    parser.add_argument("--version", action="version", version="%(prog)s " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--space", required=True, help="signature, e.g. '0,1' or 'pe'")

    p_dist = sub.add_parser("dist", help="distance between two points")
    common(p_dist)
    p_dist.add_argument("--p", help="comma-separated coordinates")
    p_dist.add_argument("--q", help="comma-separated coordinates")
    p_dist.add_argument("--pairs", help="CSV file, one x,y pair per row")
    p_dist.add_argument("--output", choices=("json", "csv"), default="json")
    p_dist.set_defaults(handler=_cmd_dist)

    p_angle = sub.add_parser("angle", help="angle between two flats")
    common(p_angle)
    p_angle.add_argument("--x", required=True, help="JSON array of column arrays, or a file")
    p_angle.add_argument("--y", required=True, help="JSON array of column arrays, or a file")
    p_angle.set_defaults(handler=_cmd_angle)

    p_tri = sub.add_parser("triangle", help="measure a side-angle-side triangle")
    common(p_tri)
    p_tri.add_argument("--b", type=float, required=True)
    p_tri.add_argument("--alpha", type=float, required=True)
    p_tri.add_argument("--c", type=float, required=True)
    p_tri.add_argument("--laws", action="store_true", help="include law residuals")
    p_tri.set_defaults(handler=_cmd_triangle)

    p_vol = sub.add_parser("volume", help="Monte-Carlo volume of a geodesic simplex")
    common(p_vol)
    p_vol.add_argument("--vertices", required=True, help="JSON array of points, or a file")
    p_vol.add_argument("--samples", type=int, default=1000000)
    p_vol.add_argument("--seed", type=int, default=0)
    p_vol.set_defaults(handler=_cmd_volume)

    p_tr = sub.add_parser("transform", help="build, validate, or apply a transform")
    common(p_tr)
    p_tr.add_argument("--random", type=int, help="seed for a random word of rotations")
    p_tr.add_argument("--givens", help="i,j,t for a single rotation")
    p_tr.add_argument("--validate", help="matrix as JSON or file")
    p_tr.add_argument("--apply", help="JSON object with 'points' and/or 'planes'")
    p_tr.set_defaults(handler=_cmd_transform)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        text = args.handler(args)
    except _UsageError as exc:
        print(json.dumps({"error": "usage", "message": str(exc)}), file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 4 if isinstance(exc, NonDivisible) else 3
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
