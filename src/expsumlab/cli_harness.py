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
import os
import sys
import time
from dataclasses import dataclass, fields
from fractions import Fraction

from . import __version__
from . import diophantine_count as dc
from . import exponent_calc as xc
from . import floor_mangoldt as fm
from . import suites
from .reports import ReportRow, rows_to_csv, rows_to_json

ENV_PREFIX = "EXPSUMLAB_"


@dataclass
class RunConfig:
    seed: int = 0
    format: str = "csv"
    timing: bool = False
    eps: float = 0.1
    baseline: str | None = None
    capacity: int | None = None


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


_COERCE = {
    "seed": int, "format": str, "timing": _parse_bool,
    "eps": float, "baseline": str, "capacity": int,
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
            if key not in _COERCE:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = _COERCE[key](val.strip())
    return out


def env_overrides(environ=None) -> dict:
    environ = os.environ if environ is None else environ
    out = {}
    for key, coerce in _COERCE.items():
        raw = environ.get(ENV_PREFIX + key.upper())
        if raw is not None:
            out[key] = coerce(raw)
    return out


def resolve_config(args, environ=None) -> RunConfig:
    cfg = RunConfig()
    layers = []
    if args.config:
        layers.append(load_config_file(args.config))
    layers.append(env_overrides(environ))
    layers.append({f.name: getattr(args, f.name) for f in fields(RunConfig)
                   if getattr(args, f.name, None) is not None})
    for layer in layers:
        for key, val in layer.items():
            setattr(cfg, key, val)
    if cfg.format not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {cfg.format!r}")
    return cfg


def _config_digest(cfg: RunConfig, extra: dict) -> str:
    # timing does not influence any computed value, so it stays out of the
    # digest and runs differing only in it hash identically
    payload = {"seed": cfg.seed, "eps": cfg.eps}
    payload.update(extra)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _emit(rows, cfg: RunConfig, suite_name: str, extra: dict,
          out=None) -> int:
    if not rows:
        raise ValueError(f"the {suite_name} report has no rows, so nothing was checked")
    out = sys.stdout if out is None else out
    meta = {
        "tool": "expsumlab",
        "version": __version__,
        "suite": suite_name,
        "config_hash": _config_digest(cfg, extra),
    }
    if cfg.format == "json":
        out.write(rows_to_json(rows, meta))
    else:
        out.write(rows_to_csv(rows))
    failures = [r for r in rows if r.verdict != "pass"]
    if failures:
        first = failures[0]
        print(f"FAIL {first.suite}/{first.case}: lhs={first.lhs!r} "
              f"rhs={first.rhs!r}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# subcommand runners


def _suite_rows(cfg: RunConfig, suite, **kwargs) -> list:
    """Rows of one suite call.  Under --timing every row gets the call's wall
    time divided by its row count, not a time of its own."""
    t0 = time.perf_counter()
    rows = suite(**kwargs).rows
    if cfg.timing:
        wall = time.perf_counter() - t0
        for r in rows:
            r.wall_time = wall / len(rows)
    return rows


def _run_sieve(args, cfg):
    rows = _suite_rows(cfg, suites.sieve_suite, seed=cfg.seed, limit=args.limit,
                       window=args.window)
    return _emit(rows, cfg, "sieve", {"limit": args.limit})


def _run_psi(args, cfg):
    rows = _suite_rows(cfg, suites.vaaler_suite, seed=cfg.seed, count=args.count)
    return _emit(rows, cfg, "psi", {"count": args.count})


def _run_dls(args, cfg):
    rows = (_suite_rows(cfg, suites.lemma21_suite, seed=cfg.seed, count=args.count)
            + _suite_rows(cfg, suites.dls_suite, seed=cfg.seed, count=args.count))
    return _emit(rows, cfg, "dls", {"count": args.count})


def _run_expsum(args, cfg):
    baseline = None
    if cfg.baseline:
        with open(cfg.baseline) as fh:
            baseline = json.load(fh)
    rows = _suite_rows(cfg, suites.expsum_regression_suite, count=args.count,
                       baseline=baseline)
    return _emit(rows, cfg, "expsum", {"count": args.count})


def _dio_single(args, cfg):
    kind = args.kind
    params = {}
    if kind == "B0":
        params = {"N": args.N, "beta": args.beta, "X": args.X}
    elif kind == "B1":
        params = {"H": args.H, "M": args.M, "alpha": args.alpha,
                  "beta": args.beta, "X": args.X}
    else:
        params = {"N": args.N, "gamma": args.gamma, "X": args.X}
    spec = dc.default_spec(kind, args.N, beta=args.beta, delta=args.delta)
    rep = dc.dio_report(kind, eps=cfg.eps, mode=args.mode, spec=spec, **params)
    row = ReportRow("dio", kind, rep.params, rep.count, rep.bound, seed=cfg.seed)
    return _emit([row], cfg, "dio", params)


def _run_dio(args, cfg):
    if args.kind:
        return _dio_single(args, cfg)
    return _emit(_suite_rows(cfg, suites.dio_suite, seed=cfg.seed), cfg, "dio", {})


def _run_vaughan(args, cfg):
    d_values = tuple(int(v) for v in args.d_list.split(","))
    rows = _suite_rows(cfg, suites.vaughan_suite, seed=cfg.seed, d_values=d_values)
    return _emit(rows, cfg, "vaughan", {"d_values": list(d_values)})


def _run_msum(args, cfg):
    if args.x is not None:
        if args.method == "direct":
            value = fm.s_lambda_direct(args.x)
        else:
            value = fm.s_lambda_blocked(args.x)
        row = ReportRow("msum", f"{args.method}_x{args.x}",
                        {"x": args.x, "method": args.method}, value, seed=cfg.seed)
        return _emit([row], cfg, "msum", {"x": args.x, "method": args.method})
    return _emit(_suite_rows(cfg, suites.msum_suite, seed=cfg.seed), cfg, "msum", {})


def _run_fraks(args, cfg):
    if args.check_decomposition:
        rows = _suite_rows(cfg, suites.fraks_suite, x=args.x, d_values=(args.d,),
                           delta=args.delta)
        return _emit(rows, cfg, "fraks", {"x": args.x, "D": args.d})
    value = fm.frak_s(args.x, args.d, args.delta, capacity=cfg.capacity)
    row = ReportRow("fraks", f"D{args.d}",
                    {"x": args.x, "D": args.d, "delta": args.delta}, value)
    return _emit([row], cfg, "fraks", {"x": args.x, "D": args.d})


def _run_fit(args, cfg):
    rows = _suite_rows(cfg, suites.fit_suite, lo=args.lo, hi=args.hi,
                       points=args.points, slope_cap=args.slope_cap)
    return _emit(rows, cfg, "fit", {"lo": args.lo, "hi": args.hi,
                                    "points": args.points})


# ---------------------------------------------------------------------------
# exact expression calculator


def _parse_range(text: str):
    lo, _, hi = text.partition(":")
    return Fraction(lo), Fraction(hi)


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


def _run_expcalc(args, cfg):
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
    p.add_argument("--baseline", default=None,
                   help="path to an alternative baseline file")
    p.add_argument("--capacity", type=int, default=None,
                   help="segment sieve capacity")
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
    s.add_argument("--kind", choices=("B0", "B1", "B2", "B3"))
    s.add_argument("--N", type=int, default=4)
    s.add_argument("--H", type=int, default=2)
    s.add_argument("--M", type=int, default=2)
    s.add_argument("--alpha", type=float, default=1.0)
    s.add_argument("--beta", type=float, default=1.0)
    s.add_argument("--gamma", type=float, default=1.0)
    s.add_argument("--X", type=float, default=100.0)
    s.add_argument("--delta", type=float, default=None)
    s.add_argument("--mode", choices=("endpoint", "scan"), default="endpoint")
    s.set_defaults(run=_run_dio)

    s = sub.add_parser("vaughan", help="decomposition identity battery")
    s.add_argument("--d-list", default="101,1000,10000")
    s.set_defaults(run=_run_vaughan)

    s = sub.add_parser("msum", help="floor-ratio sum battery or single value")
    s.add_argument("--x", type=int)
    s.add_argument("--method", choices=("direct", "blocked"), default="blocked")
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
    s.set_defaults(run=_run_expcalc)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        return args.run(args, cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
