import argparse
import json
import math

import pytest

from expsumlab import suites
from expsumlab.cli_harness import _config_digest, build_parser, main
from expsumlab.diophantine_count import KIND_PARAMS


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_msum_direct_value(capsys):
    rc, out, err = _run(capsys, ["msum", "--x", "10", "--method", "direct"])
    assert rc == 0
    line = [l for l in out.splitlines() if l.startswith("msum,direct_x10")][0]
    lhs = float(line.split(",")[-6])
    assert lhs == pytest.approx(math.log(60.0), abs=1e-12)


def test_dio_single_count(capsys):
    rc, out, err = _run(capsys, ["dio", "--kind", "B0", "--N", "2",
                                 "--beta", "2", "--X", "100"])
    assert rc == 0
    line = [l for l in out.splitlines() if l.startswith("dio,B0")][0]
    assert float(line.split(",")[-6]) == 6.0


@pytest.mark.parametrize("kind", ["B0", "B1", "B2", "B3"])
def test_dio_single_count_params_follow_kind_table(capsys, kind):
    # the parser's flags must supply exactly the parameters the counter takes
    rc, out, err = _run(capsys, ["--format", "json", "dio", "--kind", kind, "--X", "8"])
    assert rc == 0
    params = json.loads(out)["rows"][0]["params"]
    spec_fields = ({"beta_spec", "delta", "M_spec", "kind_spec", "mode", "in_regime"}
                   if kind in ("B2", "B3") else set())
    assert set(params) == set(KIND_PARAMS[kind]) | spec_fields


@pytest.mark.parametrize("argv, case, key, value", [
    (["dio", "--kind", "B3", "--N", "4", "--X", "8", "--mode", "scan"], "B3", "mode", "scan"),
    (["dio", "--kind", "B2", "--N", "4", "--X", "8"], "B2", "mode", "endpoint"),
    # B2's window at N = 4 ends at X = 53.3, so the default X = 100 lies
    # outside it: the count is printed but its bound is not asserted
    pytest.param(["dio", "--kind", "B2"], "B2", "in_regime", False,
                 marks=pytest.mark.filterwarnings("ignore:X = 100 outside supported window")),
    (["dio", "--kind", "B2", "--N", "8", "--X", "8"], "B2", "in_regime", True),
    (["dio", "--kind", "B3", "--N", "8", "--X", "8"], "B3", "in_regime", True),
    (["sieve", "--limit", "1000", "--window", "100"], "segment_agrees", "window", 100),
], ids=["dio-b3-scan", "dio-b2-endpoint", "dio-b2-outside-window", "dio-b2-in-window",
       "dio-b3-in-window", "sieve-window"])
def test_row_echoes_what_it_checked(capsys, argv, case, key, value):
    # runs that differ only in this option print different rows
    rc, out, err = _run(capsys, ["--format", "json", *argv])
    assert rc == 0
    row = next(r for r in json.loads(out)["rows"] if r["case"] == case)
    assert row["params"][key] == value


def test_expcalc_balance_headline(capsys):
    rc, out, err = _run(capsys, [
        "expcalc", "balance",
        "--terms", "E, x^{17/19}*E^{-17/19}, x^{212/285}*E^{-329/570}",
        "--range", "8/17:1/2",
    ])
    assert rc == 0
    assert out.strip() == "E = x^{17/36}"


def test_expcalc_two_term_balance(capsys):
    rc, out, err = _run(capsys, [
        "expcalc", "balance", "--var", "L",
        "--terms", "D*L^{-1}, x^{1/2}*D^{-1/6}*L^{1/2}",
    ])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "L* = x^{-1/3} * D^{7/9}"
    assert lines[1] == "value = x^{1/3} * D^{2/9}"


def test_expcalc_dominate_exit_codes(capsys):
    rc, out, _ = _run(capsys, [
        "expcalc", "dominate", "--a", "D^{679/760}", "--b", "D^{17/19}",
        "--range", "11/21:3/4",
    ])
    assert rc == 0
    assert out.splitlines()[0] == "dominated = yes"
    rc, out, _ = _run(capsys, [
        "expcalc", "dominate", "--a", "D^{17/19}", "--b", "D^{679/760}",
        "--range", "11/21:3/4",
    ])
    assert rc == 1
    assert out.splitlines()[0] == "dominated = no"


def test_expcalc_substitute(capsys):
    rc, out, _ = _run(capsys, [
        "expcalc", "substitute", "--terms", "x^{17/19}*E^{-17/19}",
        "--assign", "E=x^{17/36}",
    ])
    assert rc == 0
    assert out.strip() == "x^{17/36}"


def test_bad_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["msum", "--no-such-flag"])
    assert exc.value.code == 2


def test_runtime_error_exits_one(capsys):
    rc, out, err = _run(capsys, ["frak-s", "--x", "2", "--d", "5"])
    assert rc == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("argv, needle", [
    (["msum", "--x", "10000000000000"], "blocked budget"),
    (["expsum", "--count", "30"], "'rand_24'"),
    (["frak-s", "--x", "1e30", "--d", "5"], "precision guard"),
    (["frak-s", "--x", "nan", "--d", "5"], "x must be a finite number"),
    (["frak-s", "--x", "100", "--d", "5", "--delta", "nan"],
     "delta must be a finite number"),
    (["sieve", "--limit", "10", "--window", "10000"], "--window"),
    (["sieve", "--limit", "1"], "--limit >= 2"),
    (["--eps", "nan", "dio", "--kind", "B0"], "eps must be a finite number > 0"),
    (["--eps", "-1", "dio", "--kind", "B0"], "eps must be a finite number > 0"),
    (["--eps", "inf", "dio", "--kind", "B0"], "eps must be a finite number > 0"),
    (["expsum", "--count", "-1"], "--count must be >= 0"),
    (["expcalc", "substitute", "--assign", "E=x"], "needs --terms"),
    (["expcalc", "balance", "--range", "8/17:1/2"], "needs --terms"),
    (["expcalc", "dominate", "--b", "D", "--range", "0:1"], "needs --a"),
    (["expcalc", "dominate", "--a", "D", "--range", "0:1"], "needs --b"),
    (["expcalc", "dominate", "--a", "D", "--b", "D"], "needs --range"),
    (["psi", "--count", "0"], "no rows"),
    (["psi", "--count", "-4"], "no rows"),
    (["dls", "--count", "0"], "no rows"),
    (["dls", "--count", "-4"], "no rows"),
    (["dio", "--kind", "B1", "--alpha", "nan"], "alpha must be a finite number"),
    (["dio", "--kind", "B2", "--delta", "nan"], "delta must be a finite number"),
    (["dio", "--kind", "B0", "--beta", "nan"], "beta must be a finite number"),
    (["dio", "--kind", "B0", "--X", "inf"], "X must be a finite number"),
    (["expcalc", "substitute", "--terms", "x^1/0"], "zero denominator in '1/0'"),
    (["expcalc", "substitute", "--terms", "x^{1/0}"], "zero denominator in '1/0'"),
    (["expcalc", "substitute", "--terms", "E", "--assign", "E=x^{2/0}"],
     "zero denominator in '2/0'"),
    (["expcalc", "balance", "--terms", "E, x", "--range", "1/0:1"],
     "zero denominator in '1/0'"),
    (["expcalc", "dominate", "--a", "D", "--b", "D", "--range", "0:1/0"],
     "zero denominator in '1/0'"),
    (["dio", "--kind", "B3", "--N", "8", "--X", "8", "--beta", "inf"],
     "beta must be a finite number"),
    (["dio", "--kind", "B2", "--N", "8", "--X", "8", "--beta", "inf"],
     "beta must be a finite number"),
    (["dio", "--N", "8", "--mode", "scan"], "dio without --kind does not read --N, --mode"),
    (["dio", "--delta", "0.2"], "dio without --kind does not read --delta"),
    (["dio", "--kind", "B3", "--N", "4", "--X", "8", "--H", "3", "--alpha", "5"],
     "dio --kind B3 does not read --H, --alpha"),
    (["dio", "--kind", "B2", "--M", "3"], "dio --kind B2 does not read --M"),
    (["dio", "--kind", "B0", "--N", "2", "--beta", "2", "--X", "100", "--mode", "scan",
      "--gamma", "3", "--delta", "0.2"], "dio --kind B0 does not read --gamma, --delta, --mode"),
    (["dio", "--kind", "B1", "--N", "3"], "dio --kind B1 does not read --N"),
    (["dio", "--kind", "B1", "--mode", "endpoint"], "dio --kind B1 does not read --mode"),
    (["msum", "--method", "direct"], "msum without --x does not read --method"),
    # n ** beta overflows to inf, and inf - inf is NaN, which never counts
    (["dio", "--kind", "B0", "--N", "2", "--beta", "1000", "--X", "2"],
     "B0: member values overflow a double at N = 2, beta = 1000.0, X = 2.0"),
    (["dio", "--kind", "B1", "--H", "2", "--M", "2", "--alpha", "700", "--beta", "1",
      "--X", "2"], "B1: member values overflow a double"),
    (["dio", "--kind", "B1", "--H", "2", "--M", "2", "--alpha", "700", "--beta", "700",
      "--X", "2"], "B1: member values overflow a double"),
    # a Python float power raises OverflowError
    (["dio", "--kind", "B0", "--N", "2", "--beta", "1e308", "--X", "2"],
     "B0: a power overflows a double"),
    (["--eps", "1e308", "dio", "--kind", "B0"], "eps = 1e+308"),
    (["dio", "--kind", "B2", "--N", "4", "--X", "8", "--gamma", "1e308"],
     "B2: a power overflows a double"),
    (["dio", "--kind", "B3", "--N", "4", "--X", "8", "--gamma", "1e308"],
     "B3: a power overflows a double"),
    (["fit", "--slope-cap", "nan"], "--slope-cap must be a finite number, got nan"),
    (["fit", "--slope-cap", "inf"], "--slope-cap must be a finite number, got inf"),
    # refused before the split or the points are computed
    (["vaughan", "--d-list", "20000000"],
     "segment length 20000000 exceeds segment capacity 16777216"),
    (["psi", "--count", "1000000000"], "count 1000000000 exceeds the psi budget 10000000"),
], ids=["msum-budget", "expsum-count30", "frak-s-precision",
        "frak-s-nan", "frak-s-delta-nan", "sieve-window-wide",
        "sieve-limit1", "eps-nan", "eps-negative", "eps-inf", "expsum-count-neg",
        "substitute-no-terms", "balance-no-terms", "dominate-no-a",
        "dominate-no-b", "dominate-no-range", "psi-count0", "psi-count-neg",
        "dls-count0", "dls-count-neg", "dio-alpha-nan", "dio-delta-nan",
        "dio-beta-nan", "dio-x-inf", "substitute-zero-denominator",
        "substitute-braced-zero-denominator", "assign-zero-denominator",
        "balance-range-zero-denominator", "dominate-range-zero-denominator",
        "dio-b3-beta-inf", "dio-b2-beta-inf", "dio-battery-n-mode", "dio-battery-delta",
        "dio-b3-h-alpha", "dio-b2-m",
        "dio-b0-gamma-delta-mode", "dio-b1-n", "dio-b1-mode", "msum-battery-method",
        "dio-b0-nan-members", "dio-b1-nan-members", "dio-b1-nan-norm",
        "dio-b0-beta-overflow", "dio-eps-overflow", "dio-b2-gamma-overflow",
        "dio-b3-gamma-overflow", "fit-slope-cap-nan", "fit-slope-cap-inf",
        "vaughan-d-over-capacity", "psi-count-over-budget"])
@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
def test_refused_input_is_one_error_line(capsys, argv, needle):
    rc, out, err = _run(capsys, argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and needle in err
    assert len(err.splitlines()) == 1


def test_dio_underflowing_perturbation_counts(capsys):
    # delta * M^-beta underflows to 0 at beta = 1e308: the supported window
    # is unbounded, and the count is reported
    rc, out, err = _run(capsys, ["dio", "--kind", "B3", "--N", "8", "--X", "8",
                                 "--beta", "1e308"])
    assert rc == 0 and err == ""
    assert len(out.splitlines()) == 2 and out.splitlines()[1].startswith("dio,B3,")


@pytest.mark.parametrize("name, value, run", [
    ("workers", "0", ["msum", "--x", "10"]),
    ("workers", "-3", ["msum", "--x", "10"]),
    ("capacity", "5000", ["frak-s", "--x", "12345.6", "--d", "1000"]),
    ("baseline", "base.json", ["expsum", "--count", "2"]),
    ("config", "run.cfg", ["psi", "--count", "10"]),
], ids=["workers-0-flag", "workers-neg3-flag", "capacity-flag", "baseline-flag",
       "config-flag"])
def test_retired_setting_is_refused(capsys, name, value, run):
    # one worker count, one segment size and one expsum baseline serve every
    # run, and settings come from flags alone, so none of these is an
    # option: each is a usage error
    with pytest.raises(SystemExit) as exc:
        main([f"--{name}", value, *run])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_shell_variables_change_no_output(capsys, monkeypatch):
    # settings come from flags alone: the environment cannot turn a CSV
    # into JSON or change the seed
    argv = ["psi", "--count", "10"]
    rc, want, _ = _run(capsys, argv)
    assert rc == 0 and want.startswith("suite,case")
    monkeypatch.setenv("EXPSUMLAB_FORMAT", "json")
    monkeypatch.setenv("EXPSUMLAB_SEED", "9")
    assert _run(capsys, argv) == (0, want, "")


def test_failure_reported_on_stderr(capsys, monkeypatch):
    # the packaged baseline cannot fail; a zeroed one must
    base = suites.load_baselines()
    zeroed = {**base, "expsum_thm1": {k: 0.0 for k in base["expsum_thm1"]}}
    monkeypatch.setattr(suites, "load_baselines", lambda: zeroed)
    rc, out, err = _run(capsys, ["expsum"])
    assert rc == 1
    assert err.startswith("FAIL expsum/")


def test_byte_identical_reruns(capsys):
    argv = ["--seed", "5", "dls", "--count", "25"]
    rc1, out1, _ = _run(capsys, argv)
    rc2, out2, _ = _run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_json_meta_keys(capsys):
    rc, out, _ = _run(capsys, ["--format", "json", "dio"])
    assert rc == 0
    meta = json.loads(out)["meta"]
    assert set(meta) == {"tool", "version", "suite", "config_hash"}
    assert meta["tool"] == "expsumlab"
    assert meta["suite"] == "dio"


def test_config_hash_ignores_timing(capsys):
    rc, one, _ = _run(capsys, ["--format", "json", "dio"])
    rc, two, _ = _run(capsys, ["--format", "json", "--timing", "dio"])
    h1 = json.loads(one)["meta"]["config_hash"]
    h2 = json.loads(two)["meta"]["config_hash"]
    assert h1 == h2
    rc, three, _ = _run(capsys, ["--format", "json", "--seed", "42", "dio"])
    assert json.loads(three)["meta"]["config_hash"] != h1


@pytest.mark.parametrize("argv", [
    ["msum", "--x", "1000000"],
    ["frak-s", "--x", "12345.6", "--d", "1000", "--delta", "0.5"],
    ["dio", "--kind", "B0", "--N", "2", "--beta", "2", "--X", "100"],
    ["dls", "--count", "3"],
], ids=["msum-x", "frak-s", "dio-kind", "dls"])
def test_timing_spreads_the_run_time_over_its_rows(capsys, argv):
    # single-value rows carry their run's time too; dls times its lemma21
    # and dls batteries as one run
    rc, out, _ = _run(capsys, ["--format", "json", "--timing", *argv])
    assert rc == 0
    walls = {row["wall_time"] for row in json.loads(out)["rows"]}
    assert len(walls) == 1 and walls.pop() > 0.0


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# One cheap run of every report subcommand, and for each of its options
# (by argparse dest) flags that change it; argparse keeps the last value of
# a repeated flag.  The "" entry holds the top-level options, each run on
# SETTING_RUNS[dest].
# A key's first word is the subcommand; "dio B1" is a second dio run for the
# options that a B3 count does not read.
HASH_RUNS = {
    "": ([], {"seed": ["--seed", "1"], "eps": ["--eps", "0.2"]}),
    "sieve": (["--limit", "1000", "--window", "100"],
              {"limit": ["--limit", "1001"], "window": ["--window", "101"]}),
    "psi": (["--count", "40"], {"count": ["--count", "41"]}),
    "dls": (["--count", "25"], {"count": ["--count", "26"]}),
    "expsum": (["--count", "2"], {"count": ["--count", "3"]}),
    "dio": (["--kind", "B3", "--N", "4", "--X", "8"],
            {"kind": ["--kind", "B2"], "N": ["--N", "5"], "beta": ["--beta", "2"],
             "gamma": ["--gamma", "2"], "X": ["--X", "9"], "delta": ["--delta", "0.4"],
             "mode": ["--mode", "scan"]}),
    "dio B1": (["--kind", "B1", "--H", "4", "--M", "8", "--X", "32"],
               {"H": ["--H", "3"], "M": ["--M", "3"], "alpha": ["--alpha", "2"]}),
    "vaughan": (["--d-list", "101"], {"d_list": ["--d-list", "102"]}),
    "msum": (["--x", "10", "--method", "direct"],
             {"x": ["--x", "11"], "method": ["--method", "blocked"]}),
    "frak-s": (["--x", "12345.6", "--d", "1000", "--delta", "0.5"],
               {"x": ["--x", "12345.7"], "d": ["--d", "999"], "delta": ["--delta", "0.7"]}),
    "fit": (["--lo", "10000", "--hi", "1000000", "--points", "6", "--slope-cap", "0.7"],
            {"lo": ["--lo", "20000"], "hi": ["--hi", "2000000"], "points": ["--points", "7"],
             "slope_cap": ["--slope-cap", "0.8"]}),
}
# settings that change how rows are printed, not which rows are computed
UNHASHED = {"format", "timing"}


def _subcommand(name):
    return name.partition(" ")[0]


HASH_CASES = [(n, d) for n, (_, alts) in HASH_RUNS.items() for d in alts]


def test_hash_table_covers_every_option():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    own = {a.dest for a in parser._actions} - {"help", "version", "command"}
    assert set(HASH_RUNS[""][1]) | UNHASHED == own
    reports = set(sub.choices) - {"expcalc"}  # prints expressions, not a report
    assert {_subcommand(key) for key in HASH_RUNS} - {""} == reports
    for name in reports:
        covered = {d for key, d in HASH_CASES if _subcommand(key) == name}
        assert covered == {a.dest for a in sub.choices[name]._actions} - {"help"}


# a run that reads each top-level option: the "" entry's flags go before it
_DIO_B3 = ["dio", "--kind", "B3", "--N", "4", "--X", "8"]
SETTING_RUNS = {"seed": _DIO_B3, "eps": _DIO_B3}
# the top-level options that each run reads; "dio all" is dio without --kind
SETTINGS_READ = {"sieve": {"seed"}, "psi": {"seed"}, "dls": {"seed"},
                 "expsum": set(), "dio": {"seed", "eps"}, "dio B1": {"seed", "eps"},
                 "dio all": {"seed"}, "vaughan": {"seed"}, "msum": {"seed"},
                 "frak-s": set(), "fit": set()}


def _argv(name, extra=(), dest="seed"):
    """The base run of name, with extra flags after its own; the "" entry's
    flags run on SETTING_RUNS[dest]."""
    if name == "dio all":
        return ["dio", *extra]
    base, _ = HASH_RUNS[name]
    if name == "":
        return [*base, *extra, *SETTING_RUNS[dest]]
    return [_subcommand(name), *base, *extra]


def _hash(capsys, argv):
    rc, out, _ = _run(capsys, ["--format", "json", *argv])
    assert rc == 0
    return json.loads(out)["meta"]["config_hash"]


@pytest.mark.parametrize("name, dest", HASH_CASES,
                         ids=[f"{_subcommand(n)}-{d}" for n, d in HASH_CASES])
def test_config_hash_covers_option(capsys, name, dest):
    # two runs that differ in one option never share a hash
    alt = HASH_RUNS[name][1][dest]
    assert _hash(capsys, _argv(name, dest=dest)) != _hash(capsys, _argv(name, alt, dest))


@pytest.mark.parametrize("name", list(SETTINGS_READ))
def test_config_hash_leaves_out_unread_settings(capsys, name):
    # a top-level option changes the hash of exactly the runs that read it
    h = _hash(capsys, _argv(name))
    for dest, alt in HASH_RUNS[""][1].items():
        changed = _hash(capsys, [*alt, *_argv(name)]) != h
        assert changed == (dest in SETTINGS_READ[name]), dest


@pytest.mark.parametrize("name", list(HASH_RUNS))
def test_config_hash_ignores_print_settings(capsys, name):
    h = _hash(capsys, _argv(name))
    assert _hash(capsys, ["--timing", *_argv(name)]) == h


@pytest.mark.parametrize("argv, digest", [
    (["dio"], "1b7b6bccab870057"),
    (["dio", "--kind", "B1", "--H", "4", "--M", "8", "--X", "32"], "f5072479e9370816"),
    (["dio", "--kind", "B3", "--N", "4", "--X", "8"], "aa9a6dada309c0c0"),
    (["msum", "--x", "10", "--method", "direct"], "91b607813c7948e1"),
    (["msum", "--x", "1000"], "88b1c574fc549014"),
    (["expsum", "--count", "2"], "00dddd2c216a340d"),
], ids=["dio", "dio-b1", "dio-b3", "msum-direct", "msum-blocked", "expsum"])
def test_config_hash_pinned(capsys, argv, digest):
    # the dio and msum options that only some runs read get their defaults
    # after the parse and are hashed with them; the top-level settings that
    # a run does not read are left out
    assert _hash(capsys, argv) == digest


def test_config_hash_ignores_format():
    # CSV carries no hash, so compare the digest the JSON form would print
    digests = set()
    for fmt in ("csv", "json"):
        args = build_parser().parse_args(["--format", fmt, "psi", "--count", "40"])
        digests.add(_config_digest(args))
    assert len(digests) == 1
