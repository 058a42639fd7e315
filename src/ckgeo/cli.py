"""Command-line front end.

One binary with subcommands (dist, angle, triangle, volume, transform), all
output as JSON on stdout (floats serialized in shortest round-trip form) or
CSV for bulk point pairs.  Exit codes: 0 success, 2 usage or parse problem,
3 domain error (the payload carries the error class name), 4 internal
coefficient-algebra failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from typing import List, Optional, Sequence

import numpy as np

from . import __version__
from .entity import MPlane, ProjPoint, Space
from .errors import GeometryError, NonDivisible
from .metric import angle, distance, law_residuals, measure_triangle, triangle_from_sas
from .transform import (
    apply_plane,
    apply_point,
    from_word,
    givens,
    random_transform,
    validate,
)
from .volume import GeodesicSimplex, mc_volume


class _UsageError(Exception):
    pass


def _parse_floats(tokens: Sequence[str], want: int, what: str) -> List[float]:
    try:
        values = [float(tok) for tok in tokens]
    except ValueError as exc:
        raise _UsageError("%s: %s" % (what, exc)) from exc
    if len(values) != want:
        raise _UsageError("%s needs %d comma-separated numbers, got %d" % (what, want, len(values)))
    return values


def _load_json_arg(text: str, what: str):
    """Inline JSON when the value starts like JSON, else a UTF-8 file path."""
    raw = text.strip()
    if not raw.startswith(("[", "{")):
        try:
            with open(text, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise _UsageError("%s: cannot read file %r (%s)" % (what, text, exc)) from exc
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise _UsageError("%s: invalid JSON (%s)" % (what, exc)) from exc


def _space(args) -> Space:
    try:
        return Space(args.space)
    except ValueError as exc:
        raise _UsageError("--space: %s" % exc) from exc


def _point(space: Space, text: str, what: str) -> ProjPoint:
    return space.normalize(_parse_floats(text.split(","), space.n + 1, what))


def _plane(space: Space, payload, what: str) -> MPlane:
    cols = np.asarray(payload, dtype=float)
    if cols.ndim != 2:
        raise _UsageError("%s: expected a JSON array of column arrays" % what)
    return MPlane(space, cols.T)


def _cmd_dist(args) -> object:
    space = _space(args)
    if args.pairs is not None:
        return _dist_bulk(space, args)
    if args.p is None or args.q is None:
        raise _UsageError("dist needs --p and --q (or --pairs FILE)")
    x = _point(space, args.p, "--p")
    y = _point(space, args.q, "--q")
    return distance(space, x, y, args.tol).to_dict()


def _dist_bulk(space: Space, args) -> object:
    """Measure all rows as one batch.

    Errors come in file order: rows are parsed up to the first malformed
    one, whose usage error is raised only if the rows before it measure
    without error, and the bad point reported is the first one (x before
    y).  Points are checked before pairs are measured, so a bad point is
    reported even when an earlier pair cannot be measured.
    """
    try:
        with open(args.pairs, "r", encoding="utf-8", newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise _UsageError("--pairs: cannot read %r (%s)" % (args.pairs, exc)) from exc
    width = 2 * (space.n + 1)
    values, malformed = [], None
    for lineno, row in enumerate(rows, 1):
        try:
            if len(row) != width:
                raise _UsageError("--pairs row %d: needs %d values, got %d" % (lineno, width, len(row)))
            values.append(_parse_floats(row, width, "--pairs row %d" % lineno))
        except _UsageError as exc:
            malformed = exc
            break
    # Rows x0, y0, x1, y1, ...: normalize reports the first bad point in file order.
    points = space.normalize(np.array(values, dtype=float).reshape(-1, space.n + 1))
    out = [m.to_dict() for m in distance(space, points[0::2], points[1::2], args.tol)]
    if malformed is not None:
        raise malformed
    return out


def _cmd_angle(args) -> object:
    space = _space(args)
    X = _plane(space, _load_json_arg(args.x, "--x"), "--x")
    Y = _plane(space, _load_json_arg(args.y, "--y"), "--y")
    return angle(space, X, Y, args.tol).to_dict()


def _cmd_triangle(args) -> object:
    space = _space(args)
    tri = triangle_from_sas(space, args.b, args.alpha, args.c)
    tm = measure_triangle(tri, args.tol)
    payload = {"measurements": tm.to_dict()}
    if args.laws:
        payload.update(law_residuals(space, tm).to_dict())
    return payload


def _cmd_volume(args) -> object:
    space = _space(args)
    data = _load_json_arg(args.vertices, "--vertices")
    if not isinstance(data, list):
        raise _UsageError("--vertices: expected a JSON array of points")
    points = [space.normalize(np.asarray(v, dtype=float)) for v in data]
    simplex = GeodesicSimplex(space, points)
    return mc_volume(space, simplex, args.samples, args.seed).to_dict()


def _cmd_transform(args) -> object:
    space = _space(args)
    chosen = [opt for opt in (args.random, args.givens, args.validate) if opt is not None]
    if len(chosen) != 1:
        raise _UsageError("transform needs exactly one of --random, --givens, --validate")
    if args.validate is not None:
        mat = np.asarray(_load_json_arg(args.validate, "--validate"), dtype=float)
        side = space.n + 1
        if mat.size != side * side:
            raise _UsageError("--validate: matrix needs %d entries" % (side * side,))
        return validate(space, mat.reshape(side, side), args.tol).to_dict()
    if args.random is not None:
        g = random_transform(space, args.random)
    else:
        parts = args.givens.split(",")
        if len(parts) != 3:
            raise _UsageError("--givens needs i,j,t")
        try:
            i, j, t = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise _UsageError("--givens: %s" % exc) from exc
        g = givens(space, i, j, t)
    payload = {"transform": g.to_dict()}
    if args.apply is not None:
        data = _load_json_arg(args.apply, "--apply")
        if not isinstance(data, dict):
            raise _UsageError("--apply: expected a JSON object")
        applied = {}
        if "points" in data:
            applied["points"] = [
                list(apply_point(g, np.asarray(p, dtype=float)).coords)
                for p in data["points"]
            ]
        if "planes" in data:
            applied["planes"] = [
                [list(col) for col in apply_plane(g, _plane(space, cols, "--apply")).cols.T]
                for cols in data["planes"]
            ]
        payload["applied"] = applied
    return payload


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ckgeo", description=__doc__)
    parser.add_argument("--version", action="version", version="%(prog)s " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--space", required=True, help="signature, e.g. '0,1' or 'pe'")
        p.add_argument("--tol", type=float, default=1e-9)

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


def _emit(payload, output: str) -> str:
    if output == "csv":
        rows = payload if isinstance(payload, list) else [payload]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("phi", "level", "kind"))
        for row in rows:
            writer.writerow((repr(row["phi"]), row["level"], row["kind"]))
        return buf.getvalue().rstrip("\n")
    return json.dumps(payload, sort_keys=True)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        payload = args.handler(args)
    except _UsageError as exc:
        print(json.dumps({"error": "usage", "message": str(exc)}), file=sys.stderr)
        return 2
    except NonDivisible as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 4
    except GeometryError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 3
    print(_emit(payload, getattr(args, "output", "json")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
