"""Batch command-line interface.

Subcommands: expand, norm, skew, kostka, integral, verify.  Exit status is 0
when every requested check passes, 1 on an identity failure (the first
counterexample is printed), 2 on usage errors such as malformed partitions,
a partition or --maxweight above MAX_WEIGHT, kostka --degree above
MAX_KOSTKA_DEGREE, an integral partition above MAX_INTEGRAL_WEIGHT, --order
above MAX_ORDER, norm --n above MAX_N, a negative number, a norm in fewer
variables than parts, or a --cache-path file that cannot be read, written or
trusted (a record of weight above MAX_WEIGHT included), and 3 on an internal
inconsistency (two routes that must agree did not: a bug in macsym, not a
counterexample).  verify runs the integral-reps suite up to weight
MAX_INTEGRAL_WEIGHT, the kostka suite up to degree MAX_KOSTKA_DEGREE and
Hall-Littlewood P up to weight MAX_HL_WEIGHT at most, whatever --maxweight is.
"""

import argparse
import json
import sys

from . import ctengine, kostka, macdonald, verify
from .coeff import emit_ratqt
from .errors import InternalInconsistency, MacsymError
from .macdonald import macdonald_pair
from .partitions import (MAX_INTEGRAL_WEIGHT, MAX_KOSTKA_DEGREE, MAX_WEIGHT,
                         format_partition, parse_partition, partitions_of, weight)
from .symfunc import _reduced_p, convert

DEFAULT_ORDER = 6
# Ceilings picked, as MAX_WEIGHT and MAX_INTEGRAL_WEIGHT were, from the
# largest inputs whose worst case runs within about 10 s on a 2-vCPU VM; cold,
# (1^5) at order 10 now takes 1.4-2.5 s, and norm --lam 8 --n 200 --order 10
# 1.9-2.4 s.
MAX_ORDER = 10
MAX_N = 200


def _partition_arg(text):
    try:
        lam = parse_partition(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    _bounded(weight(lam), MAX_WEIGHT, "partition weight")
    return lam


def _int_arg(text):
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")


def _degree_arg(text):
    value = _int_arg(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _integral_partition_arg(text):
    lam = _partition_arg(text)
    _bounded(weight(lam), MAX_INTEGRAL_WEIGHT, "integral partition weight")
    return lam


def _bounded(value, limit, what):
    if value > limit:
        raise argparse.ArgumentTypeError(f"{what} {value} is above the limit {limit}")
    return value


def _order_arg(text):
    return _bounded(_degree_arg(text), MAX_ORDER, "order")


def _n_arg(text):
    return _bounded(_int_arg(text), MAX_N, "n")


def _weight_arg(text):
    return _bounded(_degree_arg(text), MAX_WEIGHT, "weight")


def _kostka_degree_arg(text):
    return _bounded(_degree_arg(text), MAX_KOSTKA_DEGREE, "degree")


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


def _counterexample(what, detail):
    """The stderr line of a failed check, with its first difference when known."""
    if detail:
        at = f" at {detail['key']}" if "key" in detail else ""
        what += f"; first difference{at}: got {detail['got']}, want {detail['want']}"
    print(f"counterexample: {what}", file=sys.stderr)


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
    try:
        prime = ctengine.norm_prime_product(lam, n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    pair = macdonald_pair(lam)
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
    lam, mu = args.lam, args.mu
    got, want, _ = verify.skew_route_sides(lam, mu)
    agree, a = got is None, _reduced_p(want)
    payload = dict(_header(args))
    payload.update({
        "lambda": list(lam),
        "mu": list(mu),
        "routes_agree": agree,
        "skew_Q_in_p": _term_list(a),
    })
    _emit(args, payload)
    if not agree:
        _counterexample(f"routes disagree for lambda={format_partition(lam)} "
                        f"mu={format_partition(mu)}",
                        verify.first_difference(_reduced_p(got), a))
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
    got, want = ctengine.integral_rep_sides(args.lam, args.order, args.dual)
    identity = "integral-rep-dual" if args.dual else "integral-rep"
    ok = got == want
    payload = dict(_header(args))
    payload.update({
        "identity": identity,
        "lambda": list(args.lam),
        "order": args.order,
        "status": "pass" if ok else "fail",
        "series_in_p": {str(k): repr(v) for k, v in sorted(got.items())},
    })
    _emit(args, payload)
    if not ok:
        _counterexample(f"{identity} fails for lambda={format_partition(args.lam)} "
                        f"at order {args.order}", verify.first_difference(got, want))
        return 1
    return 0


def cmd_verify(args):
    params = {}
    if args.maxweight is not None:
        params["maxweight"] = args.maxweight
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
        _counterexample(f"{first['identity']} {first['parameters']}", first.get("detail"))
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
        p.add_argument("--order", type=_order_arg, default=DEFAULT_ORDER)

    p = sub.add_parser("expand", help="expand P/Q/M/S bases")
    p.add_argument("--lam", "--lambda", dest="lam", type=_partition_arg, required=True)
    p.add_argument("--what", choices=("P", "Q", "M", "St", "Sqt"), default="P")
    p.add_argument("--basis", choices=("p", "m", "e", "h", "s"), default="m")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("norm", help="norms: b, <P,P>, and the primed closed form")
    p.add_argument("--lam", "--lambda", dest="lam", type=_partition_arg, required=True)
    p.add_argument("--n", type=_n_arg, default=None)
    add_common(p)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("skew", help="skew function by three routes")
    p.add_argument("--lam", "--lambda", dest="lam", type=_partition_arg, required=True)
    p.add_argument("--mu", type=_partition_arg, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_skew)

    p = sub.add_parser("kostka", help="Kostka table for a degree")
    p.add_argument("--degree", type=_kostka_degree_arg, required=True)
    p.add_argument("--format", choices=("text", "json", "tsv"), default="text")
    p.set_defaults(func=cmd_kostka)

    p = sub.add_parser("integral", help="nested-integral reproduction of P")
    p.add_argument("--lam", "--lambda", dest="lam", type=_integral_partition_arg,
                   required=True)
    p.add_argument("--dual", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_integral)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", default="all",
                   choices=sorted(verify.SUITES) + ["all"])
    p.add_argument("--maxweight", type=_weight_arg, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--order", type=_order_arg, default=None,
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
    except InternalInconsistency as exc:
        print(f"error: internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except MacsymError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.cache_path:
        try:
            macdonald.save_cache(args.cache_path)
        except OSError as exc:
            print(f"error: cannot write cache file: {args.cache_path}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
