"""Command-line interface.

Subcommands construct complexes into the .cplx text format and run the
computations over them, printing human tables by default and stable JSON
with ``--json``.  Exit codes: 0 on success or a passing check, 1 when a
verification fails or an obstruction fires, 2 on usage errors (bad
arguments, malformed input, or a refused vertex cap).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .bitsets import vertices_of
from .classify import (
    csp_obstructions,
    obstruction_json_obj,
    parse_model,
    verify_csp_model,
)
from .complexes import (
    SimplicialComplex,
    builtin_complex,
    read_cplx,
    write_cplx,
)
from .errors import CapExceeded, MomentAngleError, ParseError
from .homology import reduced_homology
from .hochster import DEFAULT_VERTEX_CAP, _thread_default, bigraded_betti
from .reproduction import checklist_json_obj, run_checklist
from .resolutions import (
    MethodDisagreement,
    cross_check,
    koszul_bigraded,
    taylor_bigraded,
)
from .ring import ring_json_obj, ring_presentation

USAGE_ERROR = 2
CHECK_FAILED = 1


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load(path: str) -> SimplicialComplex:
    return read_cplx(Path(path).read_text(encoding="utf-8"))


def _group_row(caption, group) -> str:
    torsion = " + ".join(f"Z/{t}" for t in group.torsion)
    free = f"Z^{group.rank}" if group.rank > 1 else ("Z" if group.rank else "")
    body = " + ".join(x for x in (free, torsion) if x) or "0"
    return f"{caption:>6}  {body}"


def cmd_construct(args) -> int:
    complex_ = builtin_complex(args.name, tuple(args.params))
    _emit(write_cplx(complex_), args.out)
    return 0


def cmd_join(args) -> int:
    left = _load(args.file_a)
    right = _load(args.file_b)
    _emit(write_cplx(left.join(right)), args.out)
    return 0


def cmd_betti(args) -> int:
    complex_ = _load(args.file)
    groups = reduced_homology(complex_)
    if args.json:
        payload = {
            "m": complex_.m,
            "dim": complex_.dim(),
            "homology": [
                {"d": d, "rank": g.rank, "torsion": list(g.torsion)}
                for d, g in sorted(groups.items())
            ],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    lines = [f"reduced homology (m={complex_.m}, dim={complex_.dim()})"]
    for d, g in sorted(groups.items()):
        if not g.is_zero:
            lines.append(_group_row(d, g))
    if len(lines) == 1:
        lines.append("  trivial in all degrees")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _totals_by_method(complex_, method: str, threads: int, cap: int):
    if method == "hochster":
        return bigraded_betti(complex_, threads=threads, max_vertices=cap).total()
    if method == "koszul":
        _check_cap(complex_, cap)
        return koszul_bigraded(complex_).total()
    if method == "taylor":
        _check_cap(complex_, cap)
        return taylor_bigraded(complex_).bidegrees().total()
    raise AssertionError(method)


def _check_cap(complex_, cap: int) -> None:
    if complex_.m > cap:
        raise CapExceeded(
            f"vertex count {complex_.m} exceeds the cap {cap}; "
            "raise the cap explicitly to proceed"
        )


def cmd_zk(args) -> int:
    complex_ = _load(args.file)
    threads = args.threads
    cap = args.max_vertices
    table = None
    if args.method in ("hochster", "all") or args.bigraded:
        table = bigraded_betti(complex_, threads=threads, max_vertices=cap)
    if args.method == "all":
        try:
            cross_check(complex_, table=table)
        except MethodDisagreement as exc:
            sys.stderr.write(f"method disagreement: {exc}\n")
            return CHECK_FAILED
    if args.method in ("hochster", "all"):
        totals = table.total()
    else:
        totals = _totals_by_method(complex_, args.method, threads, cap)
    if args.json:
        if table is not None:
            payload = table.to_json_obj()
        else:
            payload = {
                "m": complex_.m,
                "dim": complex_.dim(),
                "total": [
                    {"p": p, "rank": g.rank, "torsion": list(g.torsion)}
                    for p, g in sorted(totals.items())
                ],
            }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    lines = [f"moment-angle cohomology over {args.file} (method: {args.method})"]
    for p, g in sorted(totals.items()):
        if not g.is_zero:
            lines.append(_group_row(p, g))
    if args.bigraded:
        lines.append("bigraded entries (J, d, rank, torsion):")
        for subset, d in table.sorted_keys():
            g = table.entries[(subset, d)]
            torsion = f" torsion {list(g.torsion)}" if g.torsion else ""
            lines.append(f"  J={vertices_of(subset)} d={d} rank={g.rank}{torsion}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_ring(args) -> int:
    complex_ = _load(args.file)
    presentation = ring_presentation(
        complex_, threads=args.threads, max_vertices=args.max_vertices
    )
    payload = ring_json_obj(presentation)
    if args.json:
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    lines = [f"ring presentation over {args.file}: {len(payload['generators'])} generators"]
    for gen in payload["generators"]:
        lines.append(f"  g{gen['id']}: J={tuple(gen['J'])} d={gen['d']} p={gen['p']}")
    lines.append("nonzero products:")
    for prod in payload["products"]:
        terms = " + ".join(f"{c}*g{g}" for g, c in prod["terms"])
        lines.append(f"  g{prod['g']} * g{prod['h']} = {terms}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_crosscheck(args) -> int:
    complex_ = _load(args.file)
    try:
        report = cross_check(
            complex_, threads=args.threads, max_vertices=args.max_vertices
        )
    except MethodDisagreement as exc:
        sys.stderr.write(f"method disagreement: {exc}\n")
        return CHECK_FAILED
    _emit(
        f"three methods agree on {len(report.bidegrees)} bidegrees "
        f"({report.strata_checked} strata refined)\n",
        args.out,
    )
    return 0


def cmd_classify(args) -> int:
    complex_ = _load(args.file)
    report = csp_obstructions(
        complex_, threads=args.threads, max_vertices=args.max_vertices
    )
    if args.json:
        _emit(json.dumps(obstruction_json_obj(report), indent=2) + "\n", args.out)
    else:
        lines = [f"obstruction report (dim {report.dim})"]
        for name, (verdict, witness) in sorted(report.checks.items()):
            suffix = f" witness={witness}" if witness is not None else ""
            lines.append(f"  {name}: {verdict}{suffix}")
        lines.append(f"degree-zero classes: {report.degree_zero_classes}")
        _emit("\n".join(lines) + "\n", args.out)
    return CHECK_FAILED if report.obstructed else 0


def cmd_verify(args) -> int:
    complex_ = _load(args.file)
    model = parse_model(args.model)
    result = verify_csp_model(
        complex_, model, threads=args.threads, max_vertices=args.max_vertices
    )
    if args.json:
        payload = {
            "model": model.describe(),
            "consistent": result.consistent,
            "additive": result.additive_ok,
            "pairing": result.pairing_ok,
            "product_ranks": result.product_rank_ok,
            "top_products": result.top_products_ok,
            "mismatches": [list(map(str, entry)) for entry in result.mismatches],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        verdict = "consistent with" if result.consistent else "INCONSISTENT with"
        lines = [f"{args.file} is {verdict} {model.describe()}"]
        for entry in result.mismatches:
            lines.append(f"  mismatch: {entry}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if result.consistent else CHECK_FAILED


def cmd_paper(args) -> int:
    items = run_checklist(threads=args.threads)
    if args.json:
        _emit(json.dumps(checklist_json_obj(items), indent=2) + "\n", args.out)
    else:
        lines = []
        for item in items:
            mark = "PASS" if item.passed else "FAIL"
            suffix = f" - {item.detail}" if item.detail else ""
            lines.append(f"[{mark}] {item.name}{suffix}")
        ok = all(item.passed for item in items)
        lines.append(f"{'all checks passed' if ok else 'CHECKS FAILED'}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if all(item.passed for item in items) else CHECK_FAILED


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threads", type=int, default=_thread_default(),
                        help="worker count; results never depend on it")
    parser.add_argument("--max-vertices", type=int, default=DEFAULT_VERTEX_CAP,
                        help="refuse 2^m subset runs beyond this many vertices")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--out", help="write output to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moment-angle",
        description="integral cohomology rings of moment-angle complexes",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="write a builtin complex as .cplx")
    p_construct.add_argument(
        "name",
        choices=["p28-8", "polygon", "simplex-boundary", "cross-polytope",
                 "truncated-simplex", "join"],
    )
    p_construct.add_argument("params", nargs="*", help="builder parameters")
    p_construct.add_argument("--out", help="output path (default stdout)")

    p_betti = sub.add_parser("betti", help="reduced homology of the complex itself")
    p_betti.add_argument("file")
    _add_common(p_betti)

    p_zk = sub.add_parser("zk", help="moment-angle Betti table")
    p_zk.add_argument("file")
    p_zk.add_argument("--method", choices=["hochster", "koszul", "taylor", "all"],
                      default="hochster")
    p_zk.add_argument("--bigraded", action="store_true",
                      help="also print the full subset decomposition")
    _add_common(p_zk)

    p_ring = sub.add_parser("ring", help="generators and structure constants")
    p_ring.add_argument("file")
    _add_common(p_ring)

    p_cross = sub.add_parser("crosscheck", help="three-method agreement")
    p_cross.add_argument("file")
    _add_common(p_cross)

    p_classify = sub.add_parser("classify", help="sphere-product obstruction battery")
    p_classify.add_argument("file")
    _add_common(p_classify)

    p_verify = sub.add_parser("verify", help="check a sphere-product model")
    p_verify.add_argument("file")
    p_verify.add_argument("--model", required=True,
                          help='e.g. "3,3,6;5,7*8;6,6*8"')
    _add_common(p_verify)

    p_paper = sub.add_parser(
        "paper", aliases=["reproduce"],
        help="run the built-in end-to-end verification checklist",
    )
    _add_common(p_paper)
    return parser


_HANDLERS = {
    "betti": cmd_betti,
    "zk": cmd_zk,
    "ring": cmd_ring,
    "crosscheck": cmd_crosscheck,
    "classify": cmd_classify,
    "verify": cmd_verify,
    "paper": cmd_paper,
    "reproduce": cmd_paper,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        if args.command == "construct":
            if args.name == "join":
                if len(args.params) != 2:
                    sys.stderr.write("construct join needs two .cplx paths\n")
                    return USAGE_ERROR
                args.file_a, args.file_b = args.params
                return cmd_join(args)
            try:
                args.params = [int(p) for p in args.params]
            except ValueError:
                sys.stderr.write("builder parameters must be integers\n")
                return USAGE_ERROR
            return cmd_construct(args)
        handler = _HANDLERS[args.command]
        if args.threads < 1:
            sys.stderr.write("--threads must be >= 1\n")
            return USAGE_ERROR
        return handler(args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return USAGE_ERROR
    except CapExceeded as exc:
        sys.stderr.write(f"{exc} (use --max-vertices to override)\n")
        return USAGE_ERROR
    except FileNotFoundError as exc:
        sys.stderr.write(f"no such file: {exc.filename}\n")
        return USAGE_ERROR
    except MomentAngleError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
