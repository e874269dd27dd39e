"""Command line entry points.

Exit codes follow one rule everywhere: 0 when the requested artifact was
produced (or the structure asked about is absent), 1 when a forbidden
structure was found or a certificate failed verification, 2 for usage,
parse, and precondition errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import constructions, detectors, search, structure
from .coloring import ColoredCompleteGraph, VertexSubset, parse, serialize
from .errors import (
    DegreePreconditionFailed,
    DiracPreconditionFailed,
    GallaiLabError,
    HypothesisViolated,
    NotGallai,
)


def _read_coloring(path: str) -> ColoredCompleteGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(payload: dict, out: str | None) -> None:
    _emit(json.dumps(payload, indent=2) + "\n", out)


def _parse_color_list(text: str) -> list[int] | None:
    """The colors of ``--colors``, ascending, or None for all of them.

    A list with no entries is a usage error: it would scan no color.
    """
    if text == "all":
        return None
    try:
        colors = sorted({int(p) for p in text.split(",") if p.strip()})
    except ValueError:
        raise ValueError(f"bad color list {text!r}") from None
    if not colors:
        raise ValueError(f"color list {text!r} names no color")
    return colors


# -- gen -------------------------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "extremal-odd":
        if args.ell is None or args.k is None:
            raise ValueError("extremal-odd needs --ell and --k")
        g, recipe = constructions.build_extremal_odd(args.ell, args.k)
        comments = (f"recipe: {recipe.to_json()}",)
    elif args.kind == "ramsey-lower":
        if args.m is None or args.n is None:
            raise ValueError("ramsey-lower needs --m and --n")
        g, recipe = constructions.build_ramsey_cycle_lower(args.m, args.n)
        comments = (f"recipe: {recipe.to_json()}",)
    else:
        if args.order is None or args.k is None:
            raise ValueError("random needs --order and --k")
        g = constructions.random_gallai(args.order, args.k, args.seed)
        recipe = constructions.ConstructionRecipe(
            kind="RandomSubstitution",
            parameters=(("n", args.order), ("k", args.k), ("seed", args.seed)),
            expected_order=args.order,
            expected_properties=({"forbid": "rainbow_triangle"},),
        )
        comments = (f"recipe: {recipe.to_json()}",)
    _emit(serialize(g, comments), args.output)
    return 0


# -- check -----------------------------------------------------------------------


def _cmd_check(args: argparse.Namespace) -> int:
    g = _read_coloring(args.file)
    do_rainbow = args.rainbow or args.cycle is None
    cycles = [] if args.cycle is None else [(args.cycle, _parse_color_list(args.colors))]
    witnesses = list(detectors.forbidden_structures(g, do_rainbow, cycles))
    lines = []
    if do_rainbow:
        tri = [w for w in witnesses if w.kind == detectors.RAINBOW_TRIANGLE]
        lines.append("rainbow triangle: " + (" ".join(str(v) for v in tri[0].vertices)
                                             if tri else "absent"))
    if args.cycle is not None:
        hits = [w for w in witnesses if w.kind == detectors.MONO_CYCLE]
        for w in hits:
            verts = " ".join(str(v) for v in w.vertices)
            lines.append(f"C_{args.cycle} in color {w.color}: {verts}")
        if not hits:
            scope = "all colors" if args.colors == "all" else f"colors {args.colors}"
            lines.append(f"C_{args.cycle}: absent in {scope}")
    if args.json or args.output:
        payload = {"found": bool(witnesses), "witnesses": [w.to_json_dict() for w in witnesses]}
        _emit_json(payload, args.output)
    else:
        _emit("\n".join(lines) + "\n", None)
    if witnesses and args.witness_file:
        _emit("\n".join(w.to_json() for w in witnesses) + "\n", args.witness_file)
    return 1 if witnesses else 0


# -- partition -------------------------------------------------------------------


def _cmd_partition(args: argparse.Namespace) -> int:
    g = _read_coloring(args.file)
    try:
        p = structure.gallai_partition(g, coarsest=args.coarsest)
    except NotGallai as exc:
        _emit_json({"gallai": False, "witness": exc.witness.to_json_dict()}, args.output)
        return 1
    _emit_json(p.to_json_dict(), args.output)
    if args.reduced:
        _emit(serialize(structure.reduced_graph(g, p)), args.reduced)
    return 0


# -- lemmas ----------------------------------------------------------------------


def _cmd_lemmas(args: argparse.Namespace) -> int:
    g = _read_coloring(args.file)
    if args.kind == "dirac":
        w = detectors.dirac_hamiltonian(g.color_class(args.color))
        _emit_json(w.to_json_dict(), args.output)
        return 0
    if args.kind == "eg-path":
        w = detectors.erdos_gallai_path(g.color_class(args.color), args.edges, args.color)
        if w is None:
            _emit_json({"found": False}, args.output)
        else:
            _emit_json(w.to_json_dict(), args.output)
        return 0
    if args.kind == "colored-split":
        w = detectors.colored_path_split(g, args.red, args.blue, args.a, args.b)
        _emit_json(w.to_json_dict(), args.output)
        return 0
    # recolor
    if not args.part or len(args.part) < 2:
        raise ValueError("recolor needs --part A --part B1 [--part B2 ...]")
    sets = []
    for listed in args.part:
        members = [int(p) for p in listed.split(",") if p.strip()]
        sets.append(VertexSubset.of(g.n, members))
    out = structure.recolor_small_parts(g, sets[0], sets[1:], args.k, args.cycle)
    _emit(serialize(out), args.output)
    return 0


# -- search / verify -------------------------------------------------------------


def _witness_path(args: argparse.Namespace) -> str | None:
    if args.witness_file:
        return args.witness_file
    if args.output:
        return args.output + ".witness"
    return None


def _cmd_search(args: argparse.Namespace) -> int:
    if args.family == "ramsey" and args.n is None:
        raise ValueError("search ramsey needs --n")
    if args.family == "gallai" and args.k is None:
        raise ValueError("search gallai needs --k")
    if args.family == "ramsey":
        report = search.search_ramsey(args.m, args.n, budget=args.budget)
    else:
        report = search.search_gallai_ramsey(args.m, args.k, budget=args.budget)
    wpath = _witness_path(args)
    if report.witness is not None and wpath is not None:
        _emit(serialize(report.witness), wpath)
    else:
        wpath = None
    _emit(report.to_json(wpath), args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    with open(args.report, "r", encoding="utf-8") as fh:
        d = json.load(fh)
    report = search.SearchReport.from_json_dict(d)
    wfile = d.get("witness_file")
    if wfile is not None and type(wfile) is not str:
        raise ValueError(f"report field 'witness_file' is {wfile!r}, not str or null")
    if wfile:
        if not os.path.isabs(wfile):
            wfile = os.path.join(os.path.dirname(os.path.abspath(args.report)), wfile)
        report.witness = _read_coloring(wfile)
    check = search.verify_certificate(report)
    payload: dict = {"valid": check.valid}
    if not check.valid:
        payload["reason"] = check.reason
        if check.witness is not None:
            payload["witness"] = check.witness.to_json_dict()
    _emit_json(payload, args.output)
    return 0 if check.valid else 1


# -- parser ----------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process on the first call; ``main`` reuses it.

    It is not built at import, so importing the module without running a command
    costs no parser build (about 1.5 ms).  The ``_cmd_*`` functions are bound
    here, so one replaced after the first ``main`` call is not used.
    """
    ap = argparse.ArgumentParser(
        prog="gallai-lab",
        description="Rainbow-triangle-free colorings: generators, detectors, partitions, searches.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a coloring built from a named recipe")
    gen.add_argument("kind", choices=["extremal-odd", "ramsey-lower", "random"])
    gen.add_argument("--ell", type=int, help="half of (cycle order - 1) for extremal-odd")
    gen.add_argument("--k", type=int, help="palette size")
    gen.add_argument("--m", type=int, help="first cycle order for ramsey-lower")
    gen.add_argument("--n", type=int, help="second cycle order for ramsey-lower")
    gen.add_argument("--order", type=int, help="vertex count for random")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output")
    gen.set_defaults(func=_cmd_gen)

    chk = sub.add_parser("check", help="scan a coloring for forbidden structures")
    chk.add_argument("file")
    chk.add_argument("--rainbow", action="store_true", help="look for a rainbow triangle")
    chk.add_argument("--cycle", type=int, metavar="M",
                     help="look for a monochromatic cycle on exactly M vertices")
    chk.add_argument("--colors", default="all", help="colors to scan, e.g. 1,3 (default all)")
    chk.add_argument("--json", action="store_true", help="print the JSON report instead of text")
    chk.add_argument("--witness-file", help="also write found witnesses here, one JSON per line")
    chk.add_argument("-o", "--output")
    chk.set_defaults(func=_cmd_check)

    part = sub.add_parser("partition", help="split a coloring at its top structural level")
    part.add_argument("file")
    part.add_argument("--coarsest", action="store_true",
                      help="merge parts until no two can be merged")
    part.add_argument("--reduced", help="write the quotient coloring to this file")
    part.add_argument("-o", "--output")
    part.set_defaults(func=_cmd_partition)

    lem = sub.add_parser("lemmas", help="run one of the guarantee routines")
    lem.add_argument("kind", choices=["dirac", "eg-path", "colored-split", "recolor"])
    lem.add_argument("file")
    lem.add_argument("--color", type=int, default=1, help="color class for dirac / eg-path")
    lem.add_argument("--edges", type=int, default=1, help="path edge count for eg-path")
    lem.add_argument("--red", type=int, default=1, help="first color for colored-split")
    lem.add_argument("--blue", type=int, default=2, help="second color for colored-split")
    lem.add_argument("--a", type=int, default=1, help="red path order for colored-split")
    lem.add_argument("--b", type=int, default=1, help="blue path order for colored-split")
    lem.add_argument("--part", action="append", metavar="V,V,...",
                     help="recolor: first is the hub set, the rest are the small parts")
    lem.add_argument("--k", type=int, default=2, help="recolor: target palette size")
    lem.add_argument("--cycle", type=int, default=5, help="recolor: forbidden cycle order")
    lem.add_argument("-o", "--output")
    lem.set_defaults(func=_cmd_lemmas)

    sch = sub.add_parser("search", help="exact small threshold searches")
    sch.add_argument("family", choices=["ramsey", "gallai"])
    sch.add_argument("--m", type=int, required=True, help="cycle order (color 1)")
    sch.add_argument("--n", type=int, help="cycle order for color 2 (ramsey)")
    sch.add_argument("--k", type=int, help="palette size (gallai)")
    sch.add_argument("--budget", type=int, default=search.DEFAULT_BUDGET,
                     help="steps for the whole search: one per cycle-walk call and l * k per"
                          " node (a cycle-free color vector) of order l on k colors; a search that"
                          " runs out ends with a lower bound (default %(default)s)")
    sch.add_argument("--witness-file")
    sch.add_argument("-o", "--output")
    sch.set_defaults(func=_cmd_search)

    ver = sub.add_parser("verify", help="recheck a search report and its witness")
    ver.add_argument("report")
    ver.add_argument("-o", "--output")
    ver.set_defaults(func=_cmd_verify)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (DiracPreconditionFailed, DegreePreconditionFailed, HypothesisViolated) as exc:
        print(f"gallai-lab: precondition failed: {exc}", file=sys.stderr)
        return 2
    except GallaiLabError as exc:
        print(f"gallai-lab: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"gallai-lab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
