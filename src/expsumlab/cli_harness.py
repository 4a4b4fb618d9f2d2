"""Command-line front end.

One subcommand per component battery, plus single-evaluation modes and an
exact-arithmetic expression calculator.  Configuration is resolved in the
order defaults < config file < EXPSUMLAB_* environment variables < flags.
Suite runs emit CSV or JSON rows on stdout and exit 0 exactly when every
row passes; the first failing case is named on stderr.  A report with no
rows is refused, since it checked nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

from . import __version__
from . import diophantine_count as dc
from . import exponent_calc as xc
from . import floor_mangoldt as fm
from . import suites
from .reports import ReportRow, rows_to_csv, rows_to_json

ENV_PREFIX = "EXPSUMLAB_"


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# every setting a --config file or an EXPSUMLAB_* variable may give:
# name -> (coerce from text, default)
SETTINGS = {
    "seed": (int, 0),
    "format": (str, "csv"),
    "timing": (_parse_bool, False),
    "eps": (float, 0.1),
}
# what the config_hash leaves out: how rows are printed, and where the
# settings came from rather than what they are
_UNHASHED = ("format", "timing", "config", "run")
# options that only some runs of a subcommand read, with their defaults.
# They parse to None, so that _refuse_unread can refuse one given to a run
# that does not read it before it fills in the defaults.
_SOMETIMES_READ = {
    "dio": {"N": 4, "H": 2, "M": 2, "alpha": 1.0, "beta": 1.0, "gamma": 1.0,
            "X": 100.0, "delta": None, "mode": "endpoint"},
    "msum": {"method": "blocked"},
}
# the hashed settings that each run reads ("dio --kind" is a dio run with a
# kind); the config_hash leaves out the ones a run does not read, which
# cannot change its rows
_SETTINGS_READ = {
    "sieve": ("seed",), "psi": ("seed",), "dls": ("seed",), "dio": ("seed",),
    "dio --kind": ("seed", "eps"), "vaughan": ("seed",), "msum": ("seed",),
}


def load_config_file(path: str) -> dict:
    """key = value lines; # starts a comment; unknown keys are an error."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in SETTINGS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                out[key] = SETTINGS[key][0](val.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return out


def env_overrides() -> dict:
    out = {}
    for key, (coerce, _) in SETTINGS.items():
        name = ENV_PREFIX + key.upper()
        if name in os.environ:
            try:
                out[key] = coerce(os.environ[name])
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
    return out


def resolve_settings(args) -> None:
    """Write each setting onto args: the flag, else EXPSUMLAB_*, else the
    --config file, else the default."""
    from_file = load_config_file(args.config) if args.config else {}
    from_env = env_overrides()
    for key, (_, default) in SETTINGS.items():
        if getattr(args, key) is None:
            setattr(args, key, from_env.get(key, from_file.get(key, default)))
    if args.format not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {args.format!r}")
    if not 0 < args.eps < math.inf:
        raise ValueError(f"eps must be a finite number > 0, got {args.eps!r}")


def _config_digest(args) -> str:
    """Every option and every setting the run reads (_SETTINGS_READ) but
    _UNHASHED."""
    run = "dio --kind" if args.command == "dio" and args.kind else args.command
    unread = set(SETTINGS) - set(_SETTINGS_READ.get(run, ()))
    payload = {k: v for k, v in vars(args).items()
               if k not in _UNHASHED and k not in unread}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _emit(rows, args) -> int:
    suite_name = "fraks" if args.command == "frak-s" else args.command
    if not rows:
        raise ValueError(f"the {suite_name} report has no rows, so nothing was checked")
    meta = {
        "tool": "expsumlab",
        "version": __version__,
        "suite": suite_name,
        "config_hash": _config_digest(args),
    }
    if args.format == "json":
        sys.stdout.write(rows_to_json(rows, meta))
    else:
        sys.stdout.write(rows_to_csv(rows))
    failures = [r for r in rows if r.verdict != "pass"]
    if failures:
        first = failures[0]
        print(f"FAIL {first.suite}/{first.case}: lhs={first.lhs!r} "
              f"rhs={first.rhs!r}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# subcommand runners: each returns its report's rows


def _suite_rows(args, suite, **kwargs) -> list:
    """Rows of one suite call.  Under --timing every row gets the call's wall
    time divided by its row count, not a time of its own."""
    t0 = time.perf_counter()
    rows = suite(**kwargs).rows
    if args.timing:
        wall = time.perf_counter() - t0
        for r in rows:
            r.wall_time = wall / len(rows)
    return rows


def _refuse_unread(args, reads, run: str) -> None:
    """Refuse the options of _SOMETIMES_READ[args.command] that were given
    but that this run does not read; then fill in the defaults of the rest."""
    options = _SOMETIMES_READ[args.command]
    unread = [f"--{dest}" for dest in options
              if getattr(args, dest) is not None and dest not in reads]
    if unread:
        raise ValueError(f"{run} does not read {', '.join(unread)}")
    for dest, default in options.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)


def _run_sieve(args):
    return _suite_rows(args, suites.sieve_suite, seed=args.seed, limit=args.limit,
                       window=args.window)


def _run_psi(args):
    return _suite_rows(args, suites.vaaler_suite, seed=args.seed, count=args.count)


def _run_dls(args):
    return (_suite_rows(args, suites.lemma21_suite, seed=args.seed, count=args.count)
            + _suite_rows(args, suites.dls_suite, seed=args.seed, count=args.count))


def _run_expsum(args):
    return _suite_rows(args, suites.expsum_regression_suite, count=args.count)


def _run_dio(args):
    if not args.kind:
        _refuse_unread(args, (), "dio without --kind")
        return _suite_rows(args, suites.dio_suite, seed=args.seed)
    kind = args.kind
    # a B2 or B3 count also reads its perturbation spec and scan mode
    spec_reads = ("beta", "delta", "mode") if kind in dc.DEFAULT_DELTAS else ()
    _refuse_unread(args, dc.KIND_PARAMS[kind] + spec_reads, f"dio --kind {kind}")
    params = {k: getattr(args, k) for k in dc.KIND_PARAMS[kind]}
    spec = dc.default_spec(kind, args.N, beta=args.beta, delta=args.delta)
    rep = dc.dio_report(kind, eps=args.eps, mode=args.mode, spec=spec, **params)
    return [ReportRow("dio", kind, rep.params, rep.count, rep.bound, seed=args.seed)]


def _run_vaughan(args):
    d_values = tuple(int(v) for v in args.d_list.split(","))
    return _suite_rows(args, suites.vaughan_suite, seed=args.seed, d_values=d_values)


def _run_msum(args):
    _refuse_unread(args, () if args.x is None else ("method",), "msum without --x")
    if args.x is None:
        return _suite_rows(args, suites.msum_suite, seed=args.seed)
    if args.method == "direct":
        value = fm.s_lambda_direct(args.x)
    else:
        value = fm.s_lambda_blocked(args.x)
    return [ReportRow("msum", f"{args.method}_x{args.x}",
                      {"x": args.x, "method": args.method}, value, seed=args.seed)]


def _run_fraks(args):
    if args.check_decomposition:
        return _suite_rows(args, suites.fraks_suite, x=args.x, d_values=(args.d,),
                           delta=args.delta)
    value = fm.frak_s(args.x, args.d, args.delta)
    return [ReportRow("fraks", f"D{args.d}",
                      {"x": args.x, "D": args.d, "delta": args.delta}, value)]


def _run_fit(args):
    return _suite_rows(args, suites.fit_suite, lo=args.lo, hi=args.hi,
                       points=args.points, slope_cap=args.slope_cap)


# ---------------------------------------------------------------------------
# exact expression calculator


def _parse_range(text: str):
    lo, _, hi = text.partition(":")
    return xc.parse_fraction(lo), xc.parse_fraction(hi)


def _parse_assigns(pairs):
    out = {}
    for item in pairs or ():
        var, _, mono = item.partition("=")
        if not mono:
            raise ValueError(f"--assign needs VAR=MONOMIAL, got {item!r}")
        out[var.strip()] = xc.parse_monomial(mono)
    return out


_EXPCALC_FLAGS = {"substitute": ("terms",), "balance": ("terms",),
                  "dominate": ("a", "b", "range")}


def _run_expcalc(args):
    for flag in _EXPCALC_FLAGS[args.action]:
        if getattr(args, flag) is None:
            raise ValueError(f"expcalc {args.action} needs --{flag}")
    if args.var is None:
        args.var = "D" if args.action == "dominate" else "E"
    if args.action == "substitute":
        expr = xc.parse_bound_expr(args.terms)
        for var, mono in _parse_assigns(args.assign).items():
            expr = expr.substitute(var, mono)
        print(str(expr))
        return 0
    if args.action == "balance":
        expr = xc.parse_bound_expr(args.terms)
        if args.range:
            lo, hi = _parse_range(args.range)
            res = xc.minimax_balance(expr, lo=lo, hi=hi, var=args.var,
                                     base=args.base)
            print(f"{args.var} = {res.optimum}")
            return 0
        if len(expr.terms) != 2:
            raise ValueError("balance without --range needs exactly 2 terms")
        res = xc.balance_pair(expr.terms[0], expr.terms[1], var=args.var)
        print(f"{args.var}* = {res.l_star}")
        if res.value is not None:
            print(f"value = {res.value}")
        return 0
    # dominate
    a = xc.parse_monomial(args.a)
    b = xc.parse_bound_expr(args.b)
    lo, hi = _parse_range(args.range)
    res = xc.dominance_check(a, b, lo, hi, var=args.var, base=args.base,
                             assignments=_parse_assigns(args.assign))
    print(f"dominated = {'yes' if res.holds else 'no'}")
    for t, av, bv in res.margins:
        print(f"  t = {t}: {av} <= {bv}" if res.holds
              else f"  t = {t}: {av} vs {bv}")
    return 0 if res.holds else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="expsumlab", allow_abbrev=False,
        description="verification batteries for perturbed exponential sums")
    p.add_argument("--version", action="version", version=__version__)
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument("--timing", action="store_const", const=True, default=None,
                   help="fill the wall_time column: each row gets its battery's "
                        "wall time divided by the battery's row count (output "
                        "is no longer byte-stable)")
    p.add_argument("--eps", type=float, default=None)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("sieve", help="sieve consistency battery")
    s.add_argument("--limit", type=int, default=10 ** 6)
    s.add_argument("--window", type=int, default=10 ** 4)
    s.set_defaults(run=_run_sieve)

    s = sub.add_parser("psi", help="sawtooth approximation battery")
    s.add_argument("--count", type=int, default=10 ** 5)
    s.set_defaults(run=_run_psi)

    s = sub.add_parser("dls", help="counting and dispersion batteries")
    s.add_argument("--count", type=int, default=1000)
    s.set_defaults(run=_run_dls)

    s = sub.add_parser("expsum", help="triple sum regression battery")
    s.add_argument("--count", type=int, default=24)
    s.set_defaults(run=_run_expsum)

    s = sub.add_parser("dio", help="correlation count battery or single count")
    s.add_argument("--kind", choices=tuple(dc.KIND_PARAMS))
    # defaults in _SOMETIMES_READ
    s.add_argument("--N", type=int)
    s.add_argument("--H", type=int)
    s.add_argument("--M", type=int)
    s.add_argument("--alpha", type=float)
    s.add_argument("--beta", type=float)
    s.add_argument("--gamma", type=float)
    s.add_argument("--X", type=float)
    s.add_argument("--delta", type=float)
    s.add_argument("--mode", choices=dc.MODES)
    s.set_defaults(run=_run_dio)

    s = sub.add_parser("vaughan", help="decomposition identity battery")
    s.add_argument("--d-list", default="101,1000,10000")
    s.set_defaults(run=_run_vaughan)

    s = sub.add_parser("msum", help="floor-ratio sum battery or single value")
    s.add_argument("--x", type=int)
    s.add_argument("--method", choices=("direct", "blocked"))  # default in _SOMETIMES_READ
    s.set_defaults(run=_run_msum)

    s = sub.add_parser("frak-s", help="sawtooth block sum")
    s.add_argument("--x", type=float, required=True)
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--delta", type=float, default=0.0)
    s.add_argument("--check-decomposition", action="store_true")
    s.set_defaults(run=_run_fraks)

    s = sub.add_parser("fit", help="error curve and slope fit")
    s.add_argument("--lo", type=int, default=10 ** 4)
    s.add_argument("--hi", type=int, default=10 ** 9)
    s.add_argument("--points", type=int, default=12)
    s.add_argument("--slope-cap", type=float, default=0.60)
    s.set_defaults(run=_run_fit)

    s = sub.add_parser("expcalc", help="exact exponent arithmetic")
    s.add_argument("action", choices=("substitute", "dominate", "balance"))
    s.add_argument("--terms", help="comma-separated monomials")
    s.add_argument("--a", help="candidate dominated monomial")
    s.add_argument("--b", help="dominating expression")
    s.add_argument("--range", help="exponent range lo:hi as fractions")
    s.add_argument("--var", default=None,
                   help="variable to optimize (default E, or D for dominate)")
    s.add_argument("--base", default="x")
    s.add_argument("--assign", action="append",
                   help="VAR=MONOMIAL substitution, repeatable")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        resolve_settings(args)
        if args.command == "expcalc":
            # prints expressions and its own verdict, not a report
            return _run_expcalc(args)
        return _emit(args.run(args), args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
