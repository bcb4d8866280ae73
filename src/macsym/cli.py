"""Batch command-line interface.

Subcommands: expand, norm, skew, kostka, integral, verify.  Exit status is 0
when every requested check passes, 1 on an identity failure (the first
counterexample is printed), 2 on usage errors such as malformed partitions
or a bad --cache-path file.
"""

import argparse
import json
import sys

from . import ctengine, kostka, macdonald, verify
from .coeff import emit_ratqt
from .errors import MacsymError
from .macdonald import macdonald_pair
from .partitions import format_partition, parse_partition, partitions_of, weight
from .symfunc import convert

DEFAULT_ORDER = 6


def _partition_arg(text):
    try:
        return parse_partition(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _degree_arg(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"degree must be >= 0, got {value}")
    return value


def _term_list(f):
    return [
        {"partition": list(lam), "coeff": emit_ratqt(c)}
        for lam, c in sorted(f.terms.items(), key=lambda kv: (weight(kv[0]), kv[0]))
    ]


def _emit(args, payload):
    if args.format == "json":
        print(json.dumps(payload, indent=1, default=str))
    else:
        _emit_text(payload)


def _emit_text(payload, indent=0):
    pad = " " * indent
    if isinstance(payload, dict):
        for key, value in payload.items():
            if isinstance(value, (dict, list)):
                print(f"{pad}{key}:")
                _emit_text(value, indent + 2)
            else:
                print(f"{pad}{key}: {value}")
    elif isinstance(payload, list):
        for item in payload:
            if isinstance(item, (dict, list)):
                _emit_text(item, indent)
                print()
            else:
                print(f"{pad}{item}")
    else:
        print(f"{pad}{payload}")


def _header(args):
    return {
        "report": verify.REPORT_VERSION,
        "defaults": {"order": DEFAULT_ORDER, "n": "|lambda|"},
        "command": args.command,
    }


def cmd_expand(args):
    lam = args.lam
    if args.what == "P":
        f = macdonald_pair(lam).P
    elif args.what == "Q":
        f = macdonald_pair(lam).Qf
    elif args.what == "M":
        f = kostka.m_function(lam)
    elif args.what == "St":
        f = kostka.dual_schur_t(weight(lam))[lam]
    else:
        f = kostka.dual_schur_qt(weight(lam))[lam]
    f = convert(f, args.basis)
    payload = dict(_header(args))
    payload.update({
        "what": args.what,
        "lambda": list(lam),
        "basis": args.basis,
        "terms": _term_list(f),
    })
    _emit(args, payload)
    return 0


def cmd_norm(args):
    lam = args.lam
    n = args.n if args.n is not None else max(weight(lam), 1)
    pair = macdonald_pair(lam)
    prime = ctengine.norm_prime_product(lam, n)
    payload = dict(_header(args))
    payload.update({
        "lambda": list(lam),
        "b": emit_ratqt(pair.b),
        "norm": emit_ratqt(pair.norm),
        "prime_norm_closed_form": {"n": n, "product": repr(prime)},
        "prime_norm_series": repr(prime.to_series(args.order)),
    })
    _emit(args, payload)
    return 0


def cmd_skew(args):
    from . import fock
    lam, mu = args.lam, args.mu
    a = macdonald.skew_q(lam, mu)
    b = fock.skew_via_fock(lam, mu)
    c = fock.skew_via_diffop(lam, mu)
    agree = a == b == c
    payload = dict(_header(args))
    payload.update({
        "lambda": list(lam),
        "mu": list(mu),
        "routes_agree": agree,
        "skew_Q_in_p": _term_list(a),
    })
    _emit(args, payload)
    if not agree:
        print(f"counterexample: routes disagree for lambda={format_partition(lam)} "
              f"mu={format_partition(mu)}", file=sys.stderr)
        return 1
    return 0


def cmd_kostka(args):
    table = kostka.kostka_matrix(args.degree)
    plist = list(partitions_of(args.degree))
    if args.format == "tsv":
        cols = "\t".join(format_partition(mu) for mu in plist)
        print(f"lambda\\mu\t{cols}")
        for lam in plist:
            row = "\t".join(
                emit_ratqt(table.entries.get((lam, mu), 0)) for mu in plist)
            print(f"{format_partition(lam)}\t{row}")
        return 0
    payload = dict(_header(args))
    payload.update({
        "degree": args.degree,
        "entries": {
            f"{format_partition(lam)},{format_partition(mu)}": emit_ratqt(v)
            for (lam, mu), v in sorted(table.entries.items())
        },
        "non_polynomial_entries": [
            [list(lam), list(mu)] for lam, mu in table.non_polynomial()
        ],
    })
    _emit(args, payload)
    return 0


def cmd_integral(args):
    lam = args.lam
    if args.dual:
        ok = ctengine.integral_rep_dual_check(lam, args.order)
        got = ctengine.integral_rep_P_dual(lam, args.order)
        identity = "integral-rep-dual"
    else:
        ok = ctengine.integral_rep_check(lam, args.order)
        got = ctengine.integral_rep_P(lam, args.order)
        identity = "integral-rep"
    payload = dict(_header(args))
    payload.update({
        "identity": identity,
        "lambda": list(lam),
        "order": args.order,
        "status": "pass" if ok else "fail",
        "series_in_p": {str(k): repr(v) for k, v in sorted(got.terms.items())},
    })
    _emit(args, payload)
    if not ok:
        print(f"counterexample: {identity} fails for lambda="
              f"{format_partition(lam)} at order {args.order}", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args):
    params = {}
    if args.maxweight is not None:
        params["maxweight"] = args.maxweight
        params["maxdegree"] = args.maxweight
    if args.order is not None:
        params["order"] = args.order
    records = verify.run_suite(args.suite, **params)
    payload = dict(_header(args))
    payload.update({"suite": args.suite, "checks": records})
    failures = [r for r in records if r["status"] != "pass"]
    payload["passed"] = len(records) - len(failures)
    payload["failed"] = len(failures)
    _emit(args, payload)
    if failures:
        first = failures[0]
        print(f"counterexample: {first['identity']} {first['parameters']}",
              file=sys.stderr)
        return 1
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="macsym",
        description="Exact computations and identity verification for "
                    "Macdonald symmetric functions.")
    parser.add_argument("--cache-path", default=None,
                        help="JSON cache of constructed pairs, loaded before "
                             "and saved after the command")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--order", type=int, default=DEFAULT_ORDER)

    p = sub.add_parser("expand", help="expand P/Q/M/S bases")
    p.add_argument("--lam", "--lambda", dest="lam", type=_partition_arg, required=True)
    p.add_argument("--what", choices=("P", "Q", "M", "St", "Sqt"), default="P")
    p.add_argument("--basis", choices=("p", "m", "e", "h", "s"), default="m")
    add_common(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("norm", help="norms: b, <P,P>, and the primed closed form")
    p.add_argument("--lam", "--lambda", dest="lam", type=_partition_arg, required=True)
    p.add_argument("--n", type=int, default=None)
    add_common(p)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("skew", help="skew function by three routes")
    p.add_argument("--lam", "--lambda", dest="lam", type=_partition_arg, required=True)
    p.add_argument("--mu", type=_partition_arg, required=True)
    add_common(p)
    p.set_defaults(func=cmd_skew)

    p = sub.add_parser("kostka", help="Kostka table for a degree")
    p.add_argument("--degree", type=_degree_arg, required=True)
    p.add_argument("--format", choices=("text", "json", "tsv"), default="text")
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.set_defaults(func=cmd_kostka)

    p = sub.add_parser("integral", help="nested-integral reproduction of P")
    p.add_argument("--lam", "--lambda", dest="lam", type=_partition_arg, required=True)
    p.add_argument("--dual", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_integral)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", default="all",
                   choices=sorted(verify.SUITES) + ["all"])
    p.add_argument("--maxweight", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--order", type=int, default=None,
                   help="series order; suites pick their own defaults when unset")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cache_path:
        try:
            macdonald.load_cache(args.cache_path)
        except FileNotFoundError:
            pass
        except (OSError, ValueError) as exc:  # ValueError covers malformed JSON
            print(f"error: bad cache file: {exc}", file=sys.stderr)
            return 2
    try:
        code = args.func(args)
    except MacsymError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.cache_path:
        macdonald.save_cache(args.cache_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
