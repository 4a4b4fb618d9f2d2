import argparse
import json
import math
import os

import pytest

from expsumlab.cli_harness import (
    ENV_PREFIX,
    _config_digest,
    build_parser,
    env_overrides,
    load_config_file,
    main,
    resolve_settings,
)
from expsumlab.diophantine_count import KIND_PARAMS
from expsumlab.suites import load_baselines


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
    (["--baseline", "PARTIAL", "expsum"], "'rand_05'"),
    (["--baseline", "NOTOBJECT", "expsum"], "JSON object"),
    (["--baseline", "TEXTENTRY", "expsum"], "'rand_03' is not a number"),
    (["frak-s", "--x", "1e30", "--d", "5"], "precision guard"),
    (["frak-s", "--x", "nan", "--d", "5"], "x must be a finite number"),
    (["frak-s", "--x", "100", "--d", "5", "--delta", "nan"],
     "delta must be a finite number"),
    (["sieve", "--limit", "10", "--window", "10000"], "--window"),
    (["sieve", "--limit", "1"], "--limit >= 2"),
    (["--eps", "nan", "dio", "--kind", "B0"], "eps must be a finite number > 0"),
    (["--eps", "-1", "dio", "--kind", "B0"], "eps must be a finite number > 0"),
    (["--eps", "inf", "dio", "--kind", "B0"], "eps must be a finite number > 0"),
    (["EXPSUMLAB_EPS=nan", "dio", "--kind", "B0"], "eps must be a finite number > 0"),
    (["--config", "NANEPS", "dio", "--kind", "B0"], "eps must be a finite number > 0"),
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
    (["--config", "BADSEED", "psi", "--count", "10"],
     "seed.cfg:1: seed: invalid literal for int()"),
    (["EXPSUMLAB_EPS=x", "psi", "--count", "10"],
     "EXPSUMLAB_EPS: could not convert string to float: 'x'"),
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
], ids=["msum-budget", "expsum-count30", "expsum-partial-baseline",
        "expsum-list-baseline", "expsum-text-entry", "frak-s-precision",
        "frak-s-nan", "frak-s-delta-nan", "sieve-window-wide",
        "sieve-limit1", "eps-nan", "eps-negative", "eps-inf", "eps-env-nan",
        "eps-file-nan", "expsum-count-neg",
        "substitute-no-terms", "balance-no-terms", "dominate-no-a",
        "dominate-no-b", "dominate-no-range", "psi-count0", "psi-count-neg",
        "dls-count0", "dls-count-neg", "dio-alpha-nan", "dio-delta-nan",
        "dio-beta-nan", "dio-x-inf", "substitute-zero-denominator",
        "substitute-braced-zero-denominator", "assign-zero-denominator",
        "balance-range-zero-denominator", "dominate-range-zero-denominator",
        "dio-b3-beta-inf", "dio-b2-beta-inf", "config-bad-seed", "env-bad-eps",
        "dio-battery-n-mode", "dio-battery-delta", "dio-b3-h-alpha", "dio-b2-m",
        "dio-b0-gamma-delta-mode", "dio-b1-n", "dio-b1-mode", "msum-battery-method"])
def test_refused_input_is_one_error_line(capsys, tmp_path, monkeypatch, argv, needle):
    from expsumlab.suites import load_baselines

    partial = load_baselines()
    del partial["expsum_thm1"]["rand_05"]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(partial))
    text_entry = load_baselines()
    text_entry["expsum_thm1"]["rand_03"] = "0.5"
    files = {"PARTIAL": path, "NOTOBJECT": tmp_path / "list.json",
             "TEXTENTRY": tmp_path / "text.json", "NANEPS": tmp_path / "eps.cfg",
             "BADSEED": tmp_path / "seed.cfg"}
    files["NOTOBJECT"].write_text("[1, 2]")
    files["TEXTENTRY"].write_text(json.dumps(text_entry))
    files["NANEPS"].write_text("eps = nan\n")
    files["BADSEED"].write_text("seed = abc\n")
    # leading NAME=value words set the environment, as on a shell line
    argv = list(argv)
    while argv[0].startswith(ENV_PREFIX):
        name, _, value = argv.pop(0).partition("=")
        monkeypatch.setenv(name, value)
    argv = [str(files.get(a, a)) for a in argv]
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


@pytest.mark.parametrize("via", ["flag", "file"])
@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_rejected(capsys, tmp_path, via, workers):
    # the worker count is no longer a run setting: the flag is a usage error
    # and the config key an unknown key
    if via == "flag":
        with pytest.raises(SystemExit) as exc:
            main(["--workers", str(workers), "msum", "--x", "10"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"workers = {workers}\n")
        rc, out, err = _run(capsys, ["--config", str(cfg), "msum", "--x", "10"])
        assert rc == 1
        assert out == ""
        assert err.startswith("error:") and "unknown key 'workers'" in err


@pytest.mark.parametrize("via", ["flag", "file"])
def test_capacity_is_not_a_setting(capsys, tmp_path, via):
    # one segment size serves every sieve: the flag is a usage error and
    # the config key an unknown key
    if via == "flag":
        with pytest.raises(SystemExit) as exc:
            main(["--capacity", "5000", "frak-s", "--x", "12345.6", "--d", "1000"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("capacity = 5000\n")
        rc, out, err = _run(capsys, ["--config", str(cfg), "frak-s",
                                     "--x", "12345.6", "--d", "1000"])
        assert rc == 1
        assert out == ""
        assert err.startswith("error:") and "unknown key 'capacity'" in err


def test_failure_reported_on_stderr(capsys, tmp_path):
    # an inflated baseline cannot fail; a zeroed one must
    zeroed = {"version": 1, "seed": 20260801, "count": 24,
              "expsum_thm1": {}}
    from expsumlab.suites import load_baselines
    base = load_baselines()
    zeroed["expsum_thm1"] = {k: 0.0 for k in base["expsum_thm1"]}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(zeroed))
    rc, out, err = _run(capsys, ["--baseline", str(path), "expsum"])
    assert rc == 1
    assert err.startswith("FAIL expsum/")


def test_config_file_layers(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 7  # comment\n\nformat = json\n")
    rc, out, _ = _run(capsys, ["--config", str(cfg), "psi", "--count", "40"])
    assert rc == 0
    data = json.loads(out)
    assert data["rows"][0]["seed"] == 7

    # env overrides the file
    monkeypatch.setenv(ENV_PREFIX + "SEED", "9")
    rc, out, _ = _run(capsys, ["--config", str(cfg), "psi", "--count", "40"])
    data = json.loads(out)
    assert data["rows"][0]["seed"] == 9

    # flags override the env
    rc, out, _ = _run(capsys, ["--config", str(cfg), "--seed", "3",
                               "--format", "csv", "psi", "--count", "40"])
    assert out.startswith("suite,case")
    assert ",3," in out.splitlines()[1]


def test_env_coercion(monkeypatch):
    monkeypatch.setenv(ENV_PREFIX + "TIMING", "yes")
    monkeypatch.setenv(ENV_PREFIX + "EPS", "0.25")
    # not settings any more, so ignored
    monkeypatch.setenv(ENV_PREFIX + "WORKERS", "4")
    monkeypatch.setenv(ENV_PREFIX + "CAPACITY", "5000")
    over = env_overrides()
    assert over == {"timing": True, "eps": 0.25}
    monkeypatch.setenv(ENV_PREFIX + "TIMING", "maybe")
    with pytest.raises(ValueError):
        env_overrides()


def test_config_file_unknown_key(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("colour = blue\n")
    with pytest.raises(ValueError, match="unknown key"):
        load_config_file(str(bad))
    bad.write_text("budget = 1000\n")
    with pytest.raises(ValueError, match="unknown key 'budget'"):
        load_config_file(str(bad))
    nokv = tmp_path / "nokv.cfg"
    nokv.write_text("just words\n")
    with pytest.raises(ValueError, match="key = value"):
        load_config_file(str(nokv))


def test_missing_config_file_is_an_error(capsys, tmp_path):
    rc, out, err = _run(capsys, ["--config", str(tmp_path / "none.cfg"),
                                 "psi", "--count", "10"])
    assert rc == 1
    assert err.startswith("error:")


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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# One cheap run of every report subcommand, and for each of its options
# (by argparse dest) flags that change it; argparse keeps the last value of
# a repeated flag.  The "" entry holds the top-level options, run on expsum.
# A key's first word is the subcommand; "dio B1" is a second dio run for the
# options that a B3 count does not read.
HASH_RUNS = {
    "": (["--baseline", "BASE"],
         {"seed": ["--seed", "1"], "eps": ["--eps", "0.2"],
          "baseline": ["--baseline", "INFLATED"]}),
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
               {"x": ["--x", "12345.7"], "d": ["--d", "999"], "delta": ["--delta", "0.7"],
                "check_decomposition": ["--check-decomposition"]}),
    "fit": (["--lo", "10000", "--hi", "1000000", "--points", "6", "--slope-cap", "0.7"],
            {"lo": ["--lo", "20000"], "hi": ["--hi", "2000000"], "points": ["--points", "7"],
             "slope_cap": ["--slope-cap", "0.8"]}),
}
# settings that change how rows are printed or where a value came from,
# not which rows are computed
UNHASHED = {"format", "timing", "config"}


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
SETTING_RUNS = {"seed": _DIO_B3, "eps": _DIO_B3, "baseline": ["expsum", "--count", "2"]}
# the top-level options that each run reads; "dio all" is dio without --kind
SETTINGS_READ = {"sieve": {"seed"}, "psi": {"seed"}, "dls": {"seed"},
                 "expsum": {"baseline"}, "dio": {"seed", "eps"}, "dio B1": {"seed", "eps"},
                 "dio all": {"seed"}, "vaughan": {"seed"}, "msum": {"seed"},
                 "frak-s": set(), "fit": set()}


def _argv(name, extra=(), dest="baseline"):
    """The base run of name, with extra flags after its own; the "" entry's
    flags run on SETTING_RUNS[dest]."""
    if name == "dio all":
        return ["dio", *extra]
    base, _ = HASH_RUNS[name]
    if name == "":
        return [*base, *extra, *SETTING_RUNS[dest]]
    return [_subcommand(name), *base, *extra]


def _hash(capsys, tmp_path, argv):
    files = {"BASE": tmp_path / "base.json", "COPY": tmp_path / "copy.json",
             "INFLATED": tmp_path / "inflated.json"}
    base = load_baselines()
    files["BASE"].write_text(json.dumps(base))
    files["COPY"].write_text(json.dumps(base))
    base["expsum_thm1"] = {k: 2 * v for k, v in base["expsum_thm1"].items()}
    files["INFLATED"].write_text(json.dumps(base))
    argv = [str(files.get(a, a)) for a in ["--format", "json", *argv]]
    rc, out, _ = _run(capsys, argv)
    assert rc == 0
    return json.loads(out)["meta"]["config_hash"]


@pytest.mark.parametrize("name, dest", HASH_CASES,
                         ids=[f"{_subcommand(n)}-{d}" for n, d in HASH_CASES])
def test_config_hash_covers_option(capsys, tmp_path, name, dest):
    # two runs that differ in one option never share a hash
    alt = HASH_RUNS[name][1][dest]
    assert (_hash(capsys, tmp_path, _argv(name, dest=dest))
            != _hash(capsys, tmp_path, _argv(name, alt, dest)))


@pytest.mark.parametrize("name", list(SETTINGS_READ))
def test_config_hash_leaves_out_unread_settings(capsys, tmp_path, name):
    # a top-level option changes the hash of exactly the runs that read it
    h = _hash(capsys, tmp_path, _argv(name))
    for dest, alt in HASH_RUNS[""][1].items():
        changed = _hash(capsys, tmp_path, [*alt, *_argv(name)]) != h
        assert changed == (dest in SETTINGS_READ[name]), dest


@pytest.mark.parametrize("name", list(HASH_RUNS))
def test_config_hash_ignores_print_settings(capsys, tmp_path, monkeypatch, name):
    h = _hash(capsys, tmp_path, _argv(name))
    assert _hash(capsys, tmp_path, ["--timing", *_argv(name)]) == h
    # a value from EXPSUMLAB_* or --config hashes as the same value given by flag
    monkeypatch.setenv(ENV_PREFIX + "SEED", "0")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps = 0.1\n")
    assert _hash(capsys, tmp_path, ["--config", str(cfg), *_argv(name)]) == h
    if name == "":
        # a baseline enters by its bytes, not its path
        assert _hash(capsys, tmp_path, _argv(name, ["--baseline", "COPY"])) == h


@pytest.mark.parametrize("argv, digest", [
    (["dio"], "1b7b6bccab870057"),
    (["dio", "--kind", "B1", "--H", "4", "--M", "8", "--X", "32"], "f5072479e9370816"),
    (["dio", "--kind", "B3", "--N", "4", "--X", "8"], "aa9a6dada309c0c0"),
    (["msum", "--x", "10", "--method", "direct"], "91b607813c7948e1"),
    (["msum", "--x", "1000"], "88b1c574fc549014"),
], ids=["dio", "dio-b1", "dio-b3", "msum-direct", "msum-blocked"])
def test_config_hash_pinned(capsys, tmp_path, argv, digest):
    # the dio and msum options that only some runs read get their defaults
    # after the parse and are hashed with them; the top-level settings that
    # a run does not read are left out
    assert _hash(capsys, tmp_path, argv) == digest


def test_config_hash_ignores_format():
    # CSV carries no hash, so compare the digest the JSON form would print
    digests = set()
    for fmt in ("csv", "json"):
        args = build_parser().parse_args(["--format", fmt, "psi", "--count", "40"])
        resolve_settings(args)
        digests.add(_config_digest(args))
    assert len(digests) == 1


def test_shell_settings_are_cleared():
    # tests/conftest.py removes every EXPSUMLAB_* variable of the caller's
    # shell, so no test sees them
    assert not [name for name in os.environ if name.startswith(ENV_PREFIX)]
