"""Command-line interface.

Subcommands construct complexes into the .cplx text format and run the
computations over them.  Each report subcommand returns one JSON payload, a
text rendering built only when it is printed, and its exit code; ``main``
alone prints the text, or the payload with ``--json``, to stdout or
``--out``.  Exit codes: 0 on success or a passing check, 1 when a
verification fails, an obstruction fires or the three methods disagree, 2
on usage errors (bad arguments, an option the subcommand does not take,
``zk --bigraded`` with ``--method koszul|taylor``, malformed or unreadable
input, an ``--out`` that cannot be written, or a refused cap or budget).
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
from .errors import MomentAngleError, ParameterOutOfRange, ParseError, VertexCapExceeded
from .homology import reduced_homology
from .hochster import (
    DEFAULT_VERTEX_CAP,
    bigraded_betti,
    check_vertex_cap,
    total_json,
)
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
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        line_no = exc.object[: exc.start].count(b"\n") + 1
        raise ParseError(line_no, f"not UTF-8 ({exc.reason})") from None
    return read_cplx(text)


def _group_rows(groups: dict) -> list:
    rows = []
    for caption, group in sorted(groups.items()):
        if not group.is_zero:
            torsion = " + ".join(f"Z/{t}" for t in group.torsion)
            free = f"Z^{group.rank}" if group.rank > 1 else ("Z" if group.rank else "")
            rows.append(f"{caption:>6}  {' + '.join(x for x in (free, torsion) if x)}")
    return rows


def cmd_construct(args) -> int:
    if args.name == "join":
        if len(args.params) != 2:
            sys.stderr.write("construct join needs two .cplx paths\n")
            return USAGE_ERROR
        complex_ = _load(args.params[0]).join(_load(args.params[1]))
    else:
        try:
            params = tuple(int(p) for p in args.params)
        except ValueError:
            sys.stderr.write("builder parameters must be integers\n")
            return USAGE_ERROR
        complex_ = builtin_complex(args.name, params)
    _emit(write_cplx(complex_), args.out)
    return 0


# Each report handler returns (JSON payload, text lines on demand, exit code).


def cmd_betti(args):
    complex_ = _load(args.file)
    groups = reduced_homology(complex_)
    payload = {
        "m": complex_.m,
        "dim": complex_.dim(),
        "homology": [
            {"d": d, "rank": g.rank, "torsion": list(g.torsion)}
            for d, g in sorted(groups.items())
        ],
    }
    header = f"reduced homology (m={complex_.m}, dim={complex_.dim()})"
    return payload, lambda: [header, *(_group_rows(groups) or ["  trivial in all degrees"])], 0


def cmd_zk(args):
    if args.bigraded and args.method in ("koszul", "taylor"):
        raise ParameterOutOfRange("--bigraded needs --method hochster or all")
    complex_ = _load(args.file)
    if args.method in ("hochster", "all"):
        table = bigraded_betti(complex_, max_vertices=args.max_vertices)
        if args.method == "all":
            cross_check(complex_, table=table)
        totals = table.total()
        payload = table._json_obj(totals)
    else:
        check_vertex_cap(complex_, args.max_vertices)
        if args.method == "koszul":
            totals = koszul_bigraded(complex_).total()
        else:
            totals = taylor_bigraded(complex_).bidegrees().total()
        payload = {"m": complex_.m, "dim": complex_.dim(), "total": total_json(totals)}

    def text():
        yield f"moment-angle cohomology over {args.file} (method: {args.method})"
        yield from _group_rows(totals)
        if args.bigraded:
            yield "bigraded entries (J, d, rank, torsion):"
            for (subset, d), g in table.entries.items():
                torsion = f" torsion {list(g.torsion)}" if g.torsion else ""
                yield f"  J={vertices_of(subset)} d={d} rank={g.rank}{torsion}"

    return payload, text, 0


def cmd_ring(args):
    presentation = ring_presentation(_load(args.file), max_vertices=args.max_vertices)
    payload = ring_json_obj(presentation)

    def text():
        yield f"ring presentation over {args.file}: {len(payload['generators'])} generators"
        for gen in payload["generators"]:
            yield f"  g{gen['id']}: J={tuple(gen['J'])} d={gen['d']} p={gen['p']}"
        yield "nonzero products:"
        for prod in payload["products"]:
            terms = " + ".join(f"{c}*g{g}" for g, c in prod["terms"])
            yield f"  g{prod['g']} * g{prod['h']} = {terms}"

    return payload, text, 0


def cmd_crosscheck(args):
    report = cross_check(_load(args.file), max_vertices=args.max_vertices)
    payload = {
        "ok": report.ok,
        "bidegrees": [
            [i, j, g.rank, list(g.torsion)] for (i, j), g in sorted(report.bidegrees.items())
        ],
        "strata_checked": report.strata_checked,
    }
    line = (
        f"three methods agree on {len(report.bidegrees)} bidegrees "
        f"({report.strata_checked} strata refined)"
    )
    return payload, lambda: [line], 0


def cmd_classify(args):
    report = csp_obstructions(_load(args.file), max_vertices=args.max_vertices)

    def text():
        yield f"obstruction report (dim {report.dim})"
        for name, (verdict, witness) in sorted(report.checks.items()):
            suffix = f" witness={witness}" if witness is not None else ""
            yield f"  {name}: {verdict}{suffix}"
        yield f"degree-zero classes: {report.degree_zero_classes}"

    return obstruction_json_obj(report), text, CHECK_FAILED if report.obstructed else 0


def cmd_verify(args):
    complex_ = _load(args.file)
    model = parse_model(args.model)
    result = verify_csp_model(complex_, model, max_vertices=args.max_vertices)
    payload = {
        "model": model.describe(),
        "consistent": result.consistent,
        "additive": result.additive_ok,
        "pairing": result.pairing_ok,
        "product_ranks": result.product_rank_ok,
        "top_products": result.top_products_ok,
        "mismatches": [list(map(str, entry)) for entry in result.mismatches],
    }

    def text():
        verdict = "consistent with" if result.consistent else "INCONSISTENT with"
        yield f"{args.file} is {verdict} {model.describe()}"
        for entry in result.mismatches:
            yield f"  mismatch: {entry}"

    return payload, text, 0 if result.consistent else CHECK_FAILED


def cmd_paper(args):
    items = run_checklist()
    payload = checklist_json_obj(items)

    def text():
        for item in items:
            mark = "PASS" if item.passed else "FAIL"
            suffix = f" - {item.detail}" if item.detail else ""
            yield f"[{mark}] {item.name}{suffix}"
        yield "all checks passed" if payload["passed"] else "CHECKS FAILED"

    return payload, text, 0 if payload["passed"] else CHECK_FAILED


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

    def report(name, handler, summary, *, file=True, cap=True, aliases=()):
        p = sub.add_parser(name, help=summary, aliases=list(aliases))
        p.set_defaults(report=handler)
        if file:
            p.add_argument("file")
        if cap:
            p.add_argument("--max-vertices", type=int, default=DEFAULT_VERTEX_CAP,
                           help="refuse 2^m subset runs beyond this many vertices")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--out", help="write output to a file instead of stdout")
        return p

    report("betti", cmd_betti, "reduced homology of the complex itself", cap=False)
    p_zk = report("zk", cmd_zk, "moment-angle Betti table")
    p_zk.add_argument("--method", choices=["hochster", "koszul", "taylor", "all"],
                      default="hochster")
    p_zk.add_argument("--bigraded", action="store_true",
                      help="also print the full subset decomposition "
                           "(--method hochster or all)")
    report("ring", cmd_ring, "generators and structure constants")
    report("crosscheck", cmd_crosscheck, "three-method agreement")
    report("classify", cmd_classify, "sphere-product obstruction battery")
    report("verify", cmd_verify, "check a sphere-product model").add_argument(
        "--model", required=True, help='e.g. "3,3,6;5,7*8;6,6*8"'
    )
    report("paper", cmd_paper, "run the built-in end-to-end verification checklist",
           file=False, cap=False, aliases=["reproduce"])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        if args.command == "construct":
            return cmd_construct(args)
        payload, text, code = args.report(args)
        _emit((json.dumps(payload, indent=2) if args.json else "\n".join(text())) + "\n", args.out)
        return code
    except MethodDisagreement as exc:
        sys.stderr.write(f"method disagreement: {exc}\n")
        return CHECK_FAILED
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return USAGE_ERROR
    except VertexCapExceeded as exc:
        sys.stderr.write(f"{exc} (use --max-vertices to override)\n")
        return USAGE_ERROR
    except OSError as exc:  # an input that cannot be read, an --out that cannot be written
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except MomentAngleError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
