"""Command-line front end.

Subcommands: density, lambda, sj, verify, enumerate, phi, search,
stair-opt, render.  All numeric inputs take exact rational syntax "a/b"
(decimals are rejected), --json switches to machine output, and exit codes
are 0 for success, 1 for a failed --expect assertion, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable

from .density import (COVERING, PACKING, DensityResult, density_result,
                      family_lattice, triangle_lattice)
from .geometry import Box, Point, format_rational, parse_rational
from .lattice import (Lattice, enumerate_integer_sublattices, integer_lattice,
                      shift_lattice)
from .multiplicity import stair_region, triangle_region
from .arith import phi_k, phi_k_bruteforce
from .scales import lambda_lower, lambda_upper
from .search import (optimize_circumscribed_stair, optimize_inscribed_stair,
                     search_covering, search_packing)
from .stairs import (_shifts_tile, canonical_stair, selection_stair,
                     verify_stair_tiling_converse, verify_stair_tiling_forward)
from .svgout import RenderSpec, render


class UsageError(ValueError):
    pass


def _parse_lattice(spec: str, j: int | None) -> Lattice:
    """Lattice from a CLI spec: "Z2", "shift:M", "packing:M", "covering:M"
    (the latter three need --j), or "u1x,u1y;u2x,u2y" in rationals."""
    s = spec.strip()
    if s in ("Z2", "z2"):
        return integer_lattice()
    prefix, _, token = s.partition(":")
    if prefix in ("shift", "packing", "covering"):
        if j is None:
            raise UsageError(f"lattice spec {spec!r} needs --j")
        try:
            m = int(token)
        except ValueError:
            raise UsageError(f"lattice spec {spec!r} needs an integer M: "
                             f"{token!r}") from None
        return (shift_lattice(m, j) if prefix == "shift"
                else family_lattice(j, m, prefix))
    try:
        u1, u2 = ([parse_rational(v) for v in part.split(",")]
                  for part in s.split(";"))
        if len(u1) != 2 or len(u2) != 2:
            raise ValueError("each basis vector needs exactly two "
                             "coordinates")
        return Lattice(Point(*u1), Point(*u2))
    except Exception as exc:
        raise UsageError(f"cannot parse lattice spec {spec!r}: {exc}") from exc


def _parse_viewport(text: str) -> Box:
    parts = [parse_rational(v) for v in text.split(",")]
    if len(parts) != 4:
        raise UsageError(f"viewport needs xmin,xmax,ymin,ymax: {text!r}")
    return Box(parts[0], parts[1], parts[2], parts[3])


def _emit(payload: dict, as_json: bool,
          plain: str | Callable[[], str]) -> None:
    """Print the payload as JSON, or the plain text; a callable plain is
    called only when the plain text is printed."""
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(plain if isinstance(plain, str) else plain())


def _json_lines(items: list[dict]) -> Callable[[], str]:
    return lambda: "\n".join(json.dumps(item, sort_keys=True)
                             for item in items)


def _cmd_density(args) -> int:
    vertices = [Point(0, 0), Point(1, 0), Point(0, 1)]
    if args.triangle is not None:
        coords = [parse_rational(v) for v in args.triangle.split(",")]
        if len(coords) != 6:
            raise UsageError("--triangle needs ax,ay,bx,by,cx,cy")
        vertices = [Point(*coords[i:i + 2]) for i in (0, 2, 4)]
    # collinear vertices are refused before any witness is computed
    triangle_lattice(*vertices, integer_lattice())
    result = density_result(args.j, args.kind)
    result = DensityResult(result.value, result.kind, result.j,
                           tuple(triangle_lattice(*vertices, lat)
                                 for lat in result.witness_lattices))
    _emit(result.to_json(), args.json, format_rational(result.value))
    return 0


def _cmd_lambda(args) -> int:
    lat = _parse_lattice(args.lattice, args.j)
    cert = (lambda_lower(lat, args.j) if args.which == "lower"
            else lambda_upper(lat, args.j))
    _emit(cert.to_json(), args.json, format_rational(cert.value))
    return 0


def _cmd_sj(args) -> int:
    lat = _parse_lattice(args.lattice, args.j)
    result = selection_stair(lat, args.j)
    if args.svg is not None:
        bb = result.stair.bbox()
        pad = max(bb.width, bb.height)
        viewport = Box(bb.x_min - pad, bb.x_max + pad,
                       bb.y_min - pad, bb.y_max + pad)
        spec = RenderSpec(stair_region(result.stair), lat, viewport,
                          copies=8)
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(render(spec))
    payload = result.to_json()
    _emit(payload, args.json, lambda: json.dumps(payload, sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    if args.expect and args.m is None:
        raise UsageError("--expect needs --m")
    if args.stair != "Sj":
        raise UsageError(f"only the canonical stair 'Sj' is supported: "
                         f"{args.stair!r}")
    if args.qmax is not None and not args.converse:
        raise UsageError("--qmax needs --converse")
    if args.forward:
        table = verify_stair_tiling_forward(args.j)
        payload = {"j": args.j,
                   "tilings": [{"m": m, "tiles": ok} for m, ok in table]}
        _emit(payload, args.json,
              lambda: "\n".join(f"m={m}: {'tiling' if ok else 'not a tiling'}"
                                for m, ok in table))
        return 0
    if args.converse:
        qmax = 2 if args.qmax is None else args.qmax
        found = [lat.to_json()
                 for lat in verify_stair_tiling_converse(args.j, qmax)]
        _emit({"j": args.j, "qmax": qmax, "tilers": found}, args.json,
              _json_lines(found))
        return 0
    if args.m is None:
        raise UsageError("verify needs --m, --forward or --converse")
    [tiles] = _shifts_tile(args.j, [args.m])  # refuses j < 1 first
    shift_lattice(args.m, args.j)  # then m < 1
    payload = {"j": args.j, "m": args.m, "tiles": tiles}
    _emit(payload, args.json, "tiling" if tiles else "not a tiling")
    if args.expect == "tiling" and not tiles:
        return 1
    if args.expect == "no-tiling" and tiles:
        return 1
    return 0


def _cmd_enumerate(args) -> int:
    found = [lat.to_json() for lat in enumerate_integer_sublattices(args.det)]
    _emit({"det": args.det, "count": len(found), "lattices": found},
          args.json, _json_lines(found))
    return 0


def _cmd_phi(args) -> int:
    value = phi_k(args.k, args.n)
    payload = {"k": args.k, "n": args.n, "value": value}
    plain = str(value)
    if args.verify:
        brute = phi_k_bruteforce(args.k, args.n)
        payload["bruteforce"] = brute
        plain = f"{value} (bruteforce {brute})"
        if brute != value:
            _emit(payload, args.json, plain)
            return 1
    _emit(payload, args.json, plain)
    return 0


def _cmd_search(args) -> int:
    fn = search_packing if args.kind == PACKING else search_covering
    report = fn(args.j, args.qmax, args.cmax)
    plain = ("no lattice passed" if report.best_value is None
             else format_rational(report.best_value))
    _emit(report.to_json(), args.json, plain)
    return 0


def _cmd_stair_opt(args) -> int:
    fn = (optimize_inscribed_stair if args.mode == "in"
          else optimize_circumscribed_stair)
    result = fn(args.j, args.iters, seed=args.seed)
    _emit(result.to_json(), args.json,
          f"value {result.value:.9f} target "
          f"{format_rational(result.target)} gap {result.gap:.2e}")
    return 0


def _cmd_render(args) -> int:
    if args.j < 1:
        raise UsageError(f"need j >= 1: {args.j}")
    lat = (shift_lattice(1 if args.m is None else args.m, args.j)
           if args.lattice is None else _parse_lattice(args.lattice, args.j))
    if args.region == "stair":
        shape = canonical_stair(args.j)
        if args.scale is not None:
            shape = shape.scaled(args.scale)
        region = stair_region(shape)
    else:
        region = triangle_region(1 if args.scale is None else args.scale)
    spec = RenderSpec(region, lat, _parse_viewport(args.viewport),
                      args.copies)
    document = render(spec)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(document)
    else:
        sys.stdout.write(document)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stairtile",
        description="Exact j-fold lattice packings, coverings, and "
                    "stair-polygon tilings of the plane with triangles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="closed-form j-fold densities")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--kind", choices=[PACKING, COVERING], required=True)
    p.add_argument("--triangle", help="ax,ay,bx,by,cx,cy in rationals")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_density)

    p = sub.add_parser("lambda", help="critical packing/covering scales")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--which", choices=["lower", "upper"], required=True)
    p.add_argument("--lattice", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_lambda)

    p = sub.add_parser("sj", help="first-j selection stair of a lattice")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--lattice", required=True)
    p.add_argument("--svg", help="also render the tiling to this file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_sj)

    p = sub.add_parser("verify", help="exact tiling checks")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--stair", default="Sj")
    p.add_argument("--expect", choices=["tiling", "no-tiling"])
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--m", type=int)
    mode.add_argument("--forward", action="store_true",
                      help="tabulate all m in 1..2j+1")
    mode.add_argument("--converse", action="store_true",
                      help="exhaust the bounded rational space")
    p.add_argument("--qmax", type=int, help="--converse bound, default 2")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("enumerate", help="integer sublattices of an index")
    p.add_argument("--det", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("phi", help="windowed-coprimality totient")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the definitional count")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_phi)

    p = sub.add_parser("search",
                       help="exact search of a bounded lattice space")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--kind", choices=[PACKING, COVERING], required=True)
    p.add_argument("--qmax", type=int, required=True)
    p.add_argument("--cmax", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("stair-opt", help="numeric stair-area optimization")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--mode", choices=["in", "out"], required=True)
    p.add_argument("--iters", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_stair_opt)

    p = sub.add_parser("render", help="deterministic SVG of a tiling")
    p.add_argument("--region", choices=["stair", "triangle"], required=True)
    p.add_argument("--j", type=int, required=True)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--m", type=int,
                        help="shift of the lattice (1, m), (0, 2j+1); "
                             "default 1")
    source.add_argument("--lattice")
    p.add_argument("--scale", help="rational scale factor for the region")
    p.add_argument("--viewport", required=True,
                   help="xmin,xmax,ymin,ymax in rationals")
    p.add_argument("--copies", type=int, default=6)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_render)
    return parser


def run(argv: list[str]) -> int:
    """Dispatch a CLI invocation; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return code
    # every option's dest is its flag's name; none takes an empty value
    empty = [name for name, value in vars(args).items() if value == ""]
    if empty:
        print(f"error: --{empty[0]} needs a value", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
