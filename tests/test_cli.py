import os

import pytest

from emanetsim.cli import main


def test_run_verb(tmp_path, capsys):
    rc = main(["run", "--seed", "2", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "delay=" in out
    assert (tmp_path / "summary.csv").exists()


def test_run_with_config_file(tmp_path, capsys):
    cfg = tmp_path / "scenario.ini"
    cfg.write_text("[scenario]\nprotocol = olsr\nnodes = 6\nduration = 30\n"
                   "warmup = 5\n")
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert "olsr" in capsys.readouterr().out


def test_bad_config_reports_key(tmp_path, capsys):
    cfg = tmp_path / "broken.ini"
    cfg.write_text("[scenario]\nnodes = 1\n")
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert "nodes" in capsys.readouterr().err


@pytest.mark.parametrize("verb,flag,value", [
    ("sweep", "--sizes", "5,x"), ("calibrate-k", "--sizes", "5:a"),
    ("sweep", "--seeds", "0"), ("calibrate-k", "--seeds", "0")],
    ids=["sweep-5,x", "calibrate-k-5:a", "sweep-seeds-0", "calibrate-k-seeds-0"])
def test_bad_sizes_reports_key(tmp_path, capsys, verb, flag, value):
    out = tmp_path / "out"
    rc = main([verb, flag, value, "--out", str(out)])
    assert rc == 2
    assert f"configuration error: {flag[2:]}:" in capsys.readouterr().err
    assert not out.exists()  # rejected before any run or CSV


def test_sweep_verb(tmp_path, capsys):
    base = tmp_path / "base.ini"
    base.write_text("[scenario]\nduration = 30\nwarmup = 5\n")
    rc = main(["sweep", "--config", str(base), "--sizes", "5,8", "--seeds", "1",
               "--protocols", "olsr", "--out", str(tmp_path / "sweep")])
    assert rc == 0
    for name in ("summary.csv", "means.csv", "cumulative.csv"):
        assert (tmp_path / "sweep" / name).exists()


def test_attack_verb(tmp_path, capsys):
    base = tmp_path / "base.ini"
    base.write_text("[scenario]\nnodes = 8\nduration = 100\nwarmup = 20\n"
                    "[mobility]\nv_min = 0\nv_max = 0\n")
    rc = main(["attack", "--config", str(base), "--behavior", "forge-cp",
               "--out", str(tmp_path / "atk")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "adversary-triggered" in out


def test_shipped_default_config_loads():
    import configparser

    import emanetsim
    from emanetsim.config import _KEYS, ScenarioConfig, load_config
    path = os.path.join(os.path.dirname(emanetsim.__file__), "data", "default.ini")
    assert load_config(path) == ScenarioConfig()
    # the file lists every key, in _KEYS order
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=(";", "#"))
    parser.read(path)
    assert [(section, key) for section in parser.sections()
            for key in parser.options(section)] == \
        [(section, key) for section, key, *_ in _KEYS]
