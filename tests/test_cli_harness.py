import json
import math

import pytest

from expsumlab.cli_harness import (
    ENV_PREFIX,
    env_overrides,
    load_config_file,
    main,
)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for key in ("SEED", "FORMAT", "TIMING", "EPS", "BASELINE", "CAPACITY"):
        monkeypatch.delenv(ENV_PREFIX + key, raising=False)


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
    (["expcalc", "substitute", "--assign", "E=x"], "needs --terms"),
    (["expcalc", "balance", "--range", "8/17:1/2"], "needs --terms"),
    (["expcalc", "dominate", "--b", "D", "--range", "0:1"], "needs --a"),
    (["expcalc", "dominate", "--a", "D", "--range", "0:1"], "needs --b"),
    (["expcalc", "dominate", "--a", "D", "--b", "D"], "needs --range"),
    (["psi", "--count", "0"], "no rows"),
    (["psi", "--count", "-4"], "no rows"),
    (["dls", "--count", "0"], "no rows"),
    (["dls", "--count", "-4"], "no rows"),
], ids=["msum-budget", "expsum-count30", "expsum-partial-baseline",
        "substitute-no-terms", "balance-no-terms", "dominate-no-a",
        "dominate-no-b", "dominate-no-range", "psi-count0", "psi-count-neg",
        "dls-count0", "dls-count-neg"])
def test_refused_input_is_one_error_line(capsys, tmp_path, argv, needle):
    from expsumlab.suites import load_baselines

    partial = load_baselines()
    del partial["expsum_thm1"]["rand_05"]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(partial))
    argv = [str(path) if a == "PARTIAL" else a for a in argv]
    rc, out, err = _run(capsys, argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and needle in err
    assert len(err.splitlines()) == 1


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
    # not a setting any more, so ignored
    monkeypatch.setenv(ENV_PREFIX + "WORKERS", "4")
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
