"""Command-line interface.

Verbs: validate, integrate, hom, factor, lift, extract, roundtrip,
check, trees, export-dot.  Operads come from builtins ("nat:M", "trees:N",
"terminal:N") or JSON files.  Exit codes: 0 all checks pass, 1 a check
failed with a located witness (an operad failing validation included),
2 usage or input error, 3 a search hit its cap and was inconclusive.
OPINT_CAP overrides the default cap; a cap is a non-negative integer.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import dot, jsonio
from .fincat import is_terminal, terminal_object
from .integration import InvalidOperad, ZeroCell, check_factorization, \
    check_projection, check_two_category_laws, integrate
from .operads import TruncatedOperad, check_associativity, check_unitality, \
    nat_operad, terminal_operad, tree_operad, validate_structure
from .operadic import canonical_fibration, check_all_lifts_cartesian, \
    check_operadic_axioms, check_splitting, extract_operad, is_operadic_cartesian, \
    roundtrip_2cat, roundtrip_operad
from .report import CAPPED, DEFAULT_CAP, FAIL, PASS, summarize
from .surjections import parse_surjection
from .trees import enumerate_trees, tree_from_json, tree_to_json

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAPPED = 3


class UsageError(Exception):
    pass


def load_operad(spec: str) -> TruncatedOperad:
    if ":" in spec and not os.path.exists(spec):
        head, _, arg = spec.partition(":")
        builders = {"nat": nat_operad, "trees": tree_operad,
                    "terminal": terminal_operad}
        if head in builders:
            try:
                return builders[head](int(arg))
            except ValueError as exc:
                raise UsageError("bad builtin parameter in %r: %s" % (spec, exc))
        raise UsageError("unknown builtin %r (want nat:M, trees:N, terminal:N)"
                         % spec)
    try:
        with open(spec) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError("cannot read %r: %s" % (spec, exc))
    except json.JSONDecodeError as exc:
        raise UsageError("malformed JSON in %r at line %d column %d: %s"
                         % (spec, exc.lineno, exc.colno, exc.msg))
    except RecursionError as exc:   # nested deeper than the interpreter recurses
        raise UsageError("bad operad file %r: %s" % (spec, exc))
    try:
        return jsonio.operad_from_json(data)
    except (KeyError, ValueError, TypeError, RecursionError) as exc:
        raise UsageError("bad operad file %r: %s" % (spec, exc))


def resolve_cap(flag) -> int:
    """The cap given by --cap, else by OPINT_CAP, else DEFAULT_CAP."""
    name, text = ("--cap", flag) if flag is not None else \
        ("OPINT_CAP", os.environ.get("OPINT_CAP", str(DEFAULT_CAP)))
    if not text.strip().isdecimal():
        raise UsageError("%s must be a non-negative integer, not %r" % (name, text))
    return int(text)


def hom_request(args):
    """The integration of --operad, with its 0-cells --src and --dst."""
    P = load_operad(args.operad)
    return integrate(P), parse_zero_cell(args.src, P), parse_zero_cell(args.dst, P)


def parse_zero_cell(text: str, P: TruncatedOperad) -> ZeroCell:
    text = text.strip()
    quoted = repr(text[:40]) + ("..." if len(text) > 40 else "")
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError):
        raise UsageError("cannot parse 0-cell %s (want an object of the "
                         "arity-1 component or [m, object])" % quoted)
    if isinstance(data, list) and len(data) == 2 and isinstance(data[0], int):
        arity, obj = data
    else:
        arity, obj = 1, data
    try:
        obj = jsonio.freeze(obj)
        if 1 <= arity <= P.bound and obj in P.component(arity):
            return ZeroCell(arity, obj)
    except ValueError:  # a JSON object
        pass
    except RecursionError:
        raise UsageError("cannot parse 0-cell %s: nested too deeply" % quoted)
    raise UsageError("%s is not a 0-cell of the integration of %s" % (quoted, P.name))


def emit(args, text_lines, json_payload):
    out = json.dumps(json_payload, indent=2, sort_keys=True) if args.json \
        else "\n".join(text_lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out + "\n")
        print(args.out)
    else:
        print(out)


def status_exit(reports) -> int:
    worst = summarize(reports)
    return {PASS: EXIT_PASS, FAIL: EXIT_FAIL, CAPPED: EXIT_CAPPED}[worst]


def cmd_validate(args) -> int:
    P = load_operad(args.operad)
    reports = validate_structure(P)
    if all(r.ok for r in reports):
        reports.append(check_associativity(P, cap=args.cap))
    emit(args, [r.line() for r in reports], jsonio.reports_to_json(reports))
    return status_exit(reports)


def cmd_integrate(args) -> int:
    P = load_operad(args.operad)
    I = integrate(P)
    payload = jsonio.integration_to_json(I)
    cells = len(payload["zero_cells"])
    homs = len(payload["homs"])
    ones = sum(len(h["one_cells"]) for h in payload["homs"].values())
    twos = sum(len(h["two_cells"]) for h in payload["homs"].values())
    lines = ["0-cells: %d" % cells, "non-empty homs: %d" % homs,
             "1-cells: %d" % ones, "2-cells: %d" % twos]
    emit(args, lines, payload)
    return EXIT_PASS


def cmd_hom(args) -> int:
    I, src, dst = hom_request(args)
    H = I.hom(src, dst)
    term = terminal_object(H)
    # every terminal cell receives an arrow from the first one
    terminals = {c for c in H.objects if term and (c == term[0] or (
        H.hom(term[0], c) and is_terminal(H, c)))}
    lines = ["hom(%s, %s): %d 1-cells, %d 2-cells"
             % (src, dst, len(H.objects), len(H.morphism_ids()))]
    for cell in H.objects:
        mark = "  <- terminal" if cell in terminals else ""
        lines.append("  %s%s" % (cell, mark))
    payload = {
        "one_cells": [jsonio.one_cell_to_json(c) for c in H.objects],
        "terminal": jsonio.one_cell_to_json(term[0]) if term else None,
    }
    emit(args, lines, payload)
    return EXIT_PASS


def cmd_factor(args) -> int:
    I, src, dst = hom_request(args)
    lines = []
    payload = []
    for cell in I.sources(dst).get(src, ()):
        e_part, m_part = I.factorize(cell)
        ok = I.h_compose(m_part, e_part) == cell
        lines.append("%s" % cell)
        lines.append("  = [%s] then [%s]%s"
                     % (e_part, m_part, "" if ok else "  MISMATCH"))
        payload.append({"cell": jsonio.one_cell_to_json(cell),
                        "component_part": jsonio.one_cell_to_json(e_part),
                        "cut_part": jsonio.one_cell_to_json(m_part),
                        "recomposes": ok})
        if not ok:
            emit(args, lines, payload)
            return EXIT_FAIL
    emit(args, lines, payload)
    return EXIT_PASS


def cmd_lift(args) -> int:
    P = load_operad(args.operad)
    I = integrate(P)
    if not args.surjection or not args.dst or not args.fibers:
        raise UsageError("lift needs --surjection, --dst and --fibers")
    try:
        g = parse_surjection(args.surjection)
    except ValueError as exc:
        raise UsageError("bad --surjection: %s" % exc)
    target = parse_zero_cell(args.dst, P)
    try:
        fibers = tuple(jsonio.zero_cell_from_json(f) for f in json.loads(args.fibers))
    except (TypeError, ValueError, RecursionError) as exc:
        raise UsageError("cannot parse --fibers (want a JSON list of [m, object]): %s"
                         % exc)
    try:
        cell = I.cartesian_lift(g, target, fibers)
    except ValueError as exc:
        raise UsageError(str(exc))
    S = canonical_fibration(I)
    report = is_operadic_cartesian(S.operadic, cell, cap=args.cap)
    lines = ["lift: %s" % cell, report.line()]
    payload = {"lift": jsonio.one_cell_to_json(cell),
               "cartesian": jsonio.reports_to_json([report])[0]}
    emit(args, lines, payload)
    return status_exit([report])


def cmd_extract(args) -> int:
    P = load_operad(args.operad)
    S = canonical_fibration(integrate(P))
    P2 = extract_operad(S)
    lines = ["extracted operad: bound %d" % P2.bound]
    for n in range(1, P2.bound + 1):
        o, m = P2.component(n).counts()
        lines.append("  arity %d: %d objects, %d morphisms" % (n, o, m))
    emit(args, lines, jsonio.operad_to_json(P2))
    return EXIT_PASS


def cmd_roundtrip(args) -> int:
    P = load_operad(args.operad)
    cert1 = roundtrip_operad(P, cap=args.cap)
    cert2 = roundtrip_2cat(canonical_fibration(integrate(P)), cap=args.cap)
    lines = [cert1.line(), cert2.line()]
    payload = {"operad": jsonio.certificate_to_json(cert1),
               "two_category": jsonio.certificate_to_json(cert2)}
    emit(args, lines, payload)
    return status_exit([cert1, cert2])


def cmd_check(args) -> int:
    """The verification battery on one operad, from the operad axioms to
    the cartesian lifts; the trivial subcategory and the round trips are
    not run here."""
    P = load_operad(args.operad)
    I = integrate(P)   # validates P before any check reads it
    reports = [check_unitality(P), check_associativity(P, cap=args.cap)]
    reports += check_two_category_laws(I, cap=args.cap)
    reports.append(check_projection(I, cap=args.cap))
    reports.append(check_factorization(I, cap=args.cap))
    S = canonical_fibration(I)
    reports += check_operadic_axioms(S.operadic, cap=args.cap)
    reports.append(check_splitting(S, cap=args.cap))
    reports.append(check_all_lifts_cartesian(S, cap=args.cap))
    emit(args, [r.line() for r in reports], jsonio.reports_to_json(reports))
    return status_exit(reports)


def cmd_trees(args) -> int:
    if args.leaves is None or args.leaves < 1:
        raise UsageError("trees needs --leaves N, with N >= 1")
    ts = enumerate_trees(args.leaves)
    lines = ["%d trees with %d leaves" % (len(ts), args.leaves)]
    lines += ["  %s" % json.dumps(tree_to_json(t)) for t in ts]
    emit(args, lines, [tree_to_json(t) for t in ts])
    return EXIT_PASS


def cmd_export_dot(args) -> int:
    if args.entity == "tree":
        if not args.tree:
            raise UsageError("export-dot --entity tree needs --tree JSON")
        try:
            t = tree_from_json(json.loads(args.tree))
        except (ValueError, RecursionError) as exc:
            raise UsageError("bad tree: %s" % exc)
        text = dot.tree_to_dot(t)
    else:   # hom or factorization, as argparse's choices allow
        if not args.operad or not args.src or not args.dst:
            raise UsageError("export-dot --entity %s needs --operad, --src, --dst"
                             % args.entity)
        I, src, dst = hom_request(args)
        cells = I.sources(dst).get(src, ())
        if args.entity == "hom":
            text = dot.hom_to_dot(I, src, dst)
        elif not cells:
            raise UsageError("hom(%s, %s) has no 1-cells" % (src, dst))
        elif not 0 <= args.index < len(cells):
            raise UsageError("--index %d outside 0..%d"
                             % (args.index, len(cells) - 1))
        else:
            text = dot.factorization_to_dot(I, cells[args.index])
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(args.out)
    else:
        print(text, end="")
    return EXIT_PASS


@functools.cache   # one parser per process, built at the first main() call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opint",
        description="finite categorical operads and their integrations")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, needs_operad=True):
        if needs_operad:
            p.add_argument("--operad", required=True,
                           help="builtin (nat:M, trees:N, terminal:N) or JSON file")
        p.add_argument("--cap", help="instance cap for exhaustive searches, a "
                       "non-negative integer (default: OPINT_CAP, else %d)" % DEFAULT_CAP)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--out", help="write output to this path")

    p = sub.add_parser("validate", help="category, unit and associativity checks")
    common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("integrate", help="build the integration 2-category")
    common(p)
    p.set_defaults(fn=cmd_integrate)

    p = sub.add_parser("hom", help="list a hom-category and its terminal object")
    common(p)
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)
    p.set_defaults(fn=cmd_hom)

    p = sub.add_parser("factor", help="factor every 1-cell of a hom")
    common(p)
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)
    p.set_defaults(fn=cmd_factor)

    p = sub.add_parser("lift", help="build a canonical lift and certify it")
    common(p)
    p.add_argument("--surjection", help='e.g. "3->2:[1,1,2]"')
    p.add_argument("--dst", help="target 0-cell")
    p.add_argument("--fibers", help="JSON list of fiber 0-cells")
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("extract", help="extract the operad back from the integration")
    common(p)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("roundtrip", help="certify both round-trip isomorphisms")
    common(p)
    p.set_defaults(fn=cmd_roundtrip)

    p = sub.add_parser("check", help="the full verification battery")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("trees", help="enumerate reduced planar rooted trees")
    common(p, needs_operad=False)
    p.add_argument("--leaves", type=int)
    p.set_defaults(fn=cmd_trees)

    p = sub.add_parser("export-dot", help="emit DOT graphics")
    common(p, needs_operad=False)
    p.add_argument("--operad",
                   help="builtin (nat:M, trees:N, terminal:N) or JSON file")
    p.add_argument("--entity", required=True,
                   choices=["tree", "hom", "factorization"])
    p.add_argument("--tree", help="tree as nested JSON arrays")
    p.add_argument("--src")
    p.add_argument("--dst")
    p.add_argument("--index", type=int, default=0)
    p.set_defaults(fn=cmd_export_dot)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.  Every call in a process reads
    the one parser built at the first call and parses ``argv`` into a new
    namespace, so no option value, exit code or output carries over."""
    args = build_parser().parse_args(argv)
    try:
        args.cap = resolve_cap(args.cap)
        return args.fn(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except InvalidOperad as exc:
        print("error: invalid operad: %s" % exc, file=sys.stderr)
        return EXIT_FAIL
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
