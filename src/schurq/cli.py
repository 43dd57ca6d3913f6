"""Command line front end."""

import argparse
import json
import sys

from .classifier import classify
from .coefficients import (
    coefficient,
    decompose,
    enumerate_amenable,
    enumerate_tableaux,
    expansion_json,
    expansion_text,
)
from .partitions import (
    NotContained,
    format_partition,
    normalize_basic,
    parse_partition,
    render_diagram,
    shifted_diagram,
    skew_diagram,
    basic_pairs_by_weight,
)
from .tableaux import render_tableau
from .verify import SUITES, run_suite


def _shape(args):
    return args.lam, args.mu


def _print_shape_note(lam, mu, alpha, beta):
    print(f"normalized {format_partition(lam)}/{format_partition(mu)} "
          f"to {format_partition(alpha)}/{format_partition(beta)}",
          file=sys.stderr)


def cmd_decompose(args):
    lam, mu = _shape(args)
    try:
        d = skew_diagram(lam, mu)
    except NotContained:
        print("Q = 0")
        return 0
    if args.normalize:
        alpha, beta = normalize_basic(d)
        if (alpha, beta) != (lam, mu):
            _print_shape_note(lam, mu, alpha, beta)
        lam, mu = alpha, beta
    terms = decompose(lam, mu)
    if args.json:
        print(json.dumps(expansion_json(lam, mu, terms)))
    else:
        print(expansion_text(terms))
    return 0


def cmd_coeff(args):
    print(coefficient(args.lam, args.mu, args.nu))
    return 0


def cmd_classify(args):
    lam, mu = _shape(args)
    try:
        d = skew_diagram(lam, mu)
    except NotContained:
        print("Q = 0")
        return 0
    alpha, beta = normalize_basic(d)
    if not alpha:
        # lam = mu: the expansion is the constant 1
        doc = {"lambda": list(lam), "mu": list(mu),
               "multiplicity_free": True, "cases": [], "witness": None}
        print(json.dumps(doc) if args.json else
              "multiplicity_free: true, cases: (empty shape)")
        return 0
    if (alpha, beta) != (lam, mu):
        _print_shape_note(lam, mu, alpha, beta)
    result = classify(alpha, beta, witness=True)
    if args.json:
        print(json.dumps(result.to_json()))
        return 0
    flag = "true" if result.multiplicity_free else "false"
    cases = ", ".join(result.matched_cases) or "none"
    line = f"multiplicity_free: {flag}, cases: {cases}"
    if result.witness is not None:
        nu, f = result.witness
        line += f", witness: Q[{format_partition(nu)}] x {f}"
    print(line)
    return 0


def cmd_tableaux(args):
    lam, mu = _shape(args)
    try:
        d = skew_diagram(lam, mu)
    except NotContained:
        print("Q = 0")
        return 0
    if args.content is not None:
        stream = enumerate_amenable(lam, mu, content=args.content)
    elif args.amenable_only:
        stream = enumerate_amenable(lam, mu)
    else:
        stream = enumerate_tableaux(lam, mu, max_value=args.max_value)
    inner = shifted_diagram(mu)
    shown = 0
    for t in stream:
        if shown == args.limit:
            print(f"... stopped at {args.limit} tableaux (raise with --limit)",
                  file=sys.stderr)
            break
        if shown:
            print()
        print(render_tableau(t, mu_boxes=inner))
        shown += 1
    print(f"{shown} tableaux", file=sys.stderr)
    return 0


def cmd_render(args):
    lam, mu = _shape(args)
    try:
        boxes = skew_diagram(lam, mu)
    except NotContained as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(render_diagram(boxes, inner=shifted_diagram(mu),
                         inner_char="×"))
    return 0


def cmd_verify(args):
    report = run_suite(args.suite, args.max_size)
    print(report.summary())
    if report.case_counts:
        print("  cases: " + ", ".join(f"{tag} {n}" for tag, n
                                      in sorted(report.case_counts.items())))
    for failure in report.failures[:20]:
        print(f"  disagreement: {failure}")
    return 0 if report.ok else 1


def cmd_sweep(args):
    rows = []
    for lam, mu in basic_pairs_by_weight(args.max_size):
        result = classify(lam, mu)
        rows.append(result)
    if args.json:
        print(json.dumps([r.to_json() for r in rows]))
        return 0
    for r in rows:
        flag = "free" if r.multiplicity_free else "not free"
        cases = ", ".join(r.matched_cases) or "-"
        print(f"{format_partition(r.lam)}/{format_partition(r.mu)}: "
              f"{flag} ({cases})")
    print(f"{len(rows)} shapes", file=sys.stderr)
    return 0


def _add_shape_arguments(sub, mu_default=None):
    sub.add_argument("--lambda", dest="lam", type=parse_partition,
                     required=True, metavar="PARTS",
                     help="outer strict partition, e.g. 8,6,5,1")
    sub.add_argument("--mu", dest="mu", type=parse_partition,
                     default=mu_default, metavar="PARTS",
                     help="inner strict partition, '-' for empty")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="schurq",
        description="Skew Schur Q-function expansions and "
                    "multiplicity-freeness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="expand Q_{lambda/mu} in the Q basis")
    _add_shape_arguments(p, mu_default=())
    p.add_argument("--json", action="store_true")
    p.add_argument("--normalize", action="store_true",
                   help="replace the shape by its basic normalization")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("coeff", help="one structure coefficient")
    _add_shape_arguments(p, mu_default=())
    p.add_argument("--nu", dest="nu", type=parse_partition, required=True,
                   metavar="PARTS")
    p.set_defaults(fn=cmd_coeff)

    p = sub.add_parser("classify",
                       help="decide Q-multiplicity-freeness by case list")
    _add_shape_arguments(p, mu_default=())
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("tableaux", help="print tableaux of the skew shape")
    _add_shape_arguments(p, mu_default=())
    p.add_argument("--content", type=parse_partition, metavar="PARTS",
                   help="only amenable tableaux with this content")
    p.add_argument("--amenable-only", action="store_true")
    p.add_argument("--max-value", type=int,
                   help="largest letter value (default: the box count)")
    p.add_argument("--limit", type=int, default=10000,
                   help="stop after this many tableaux (default 10000)")
    p.set_defaults(fn=cmd_tableaux)

    p = sub.add_parser("render", help="draw the shifted diagram")
    _add_shape_arguments(p, mu_default=())
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("verify", help="run a cross-check suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--max-size", type=int, default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sweep",
                       help="classify every basic shape up to a weight")
    p.add_argument("--max-size", type=int, required=True,
                   help="largest |lambda| to include")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_sweep)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
