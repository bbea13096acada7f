"""Command-line behavior: exit codes, file formats, determinism, resume."""

import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrbath import THETA_HI, THETA_LO, SystemParams, analysis
from kerrbath.cli import (
    COMMAND_OPTIONS,
    CSV_HEADER,
    OPTIONS,
    ConfigError,
    draw_parameters,
    fmt,
    main,
    parse_config,
    run_sweep_draw,
    sweep_lambda_bar,
)

QUANTUM = ["--mu-bar", "0.1", "--intensity", "50", "--beta-bar", "1", "--gamma", "1e-4"]


def read_json(path):
    return json.loads(path.read_text())


def serialize_config(options: dict) -> str:
    """Inverse of parse_config: floats at 17 significant digits."""
    lines = []
    for key in sorted(options):
        if key not in OPTIONS:
            raise ConfigError(f"unknown key {key!r}")
        value = options[key]
        lines.append(f"{key} = {fmt(value) if OPTIONS[key][0] is float else value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# config files


def test_parse_config_basics():
    text = """
    # comment
    mu_bar = 0.25

    seed=17
    mode = closed
    mu_bar = 0.5
    """
    out = parse_config(text)
    assert out == {"mu_bar": 0.5, "seed": 17, "mode": "closed"}


def test_parse_config_errors():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("bogus = 1\n")
    with pytest.raises(ConfigError, match="key=value"):
        parse_config("just a line\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("seed = seven\n")
    with pytest.raises(ConfigError, match="unknown key"):
        serialize_config({"bogus": 1})


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from(["mu_bar", "gamma", "tau_end", "tolerance"]),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    st.dictionaries(st.sampled_from(["seed", "draws", "samples"]), st.integers()),
    st.fixed_dictionaries(
        {}, optional={key: st.sampled_from(OPTIONS[key][0]) for key in ("mode", "frame", "window")}
    ),
)
def test_config_round_trip(floats, ints, strs):
    opts = {**floats, **ints, **strs}
    assert parse_config(serialize_config(opts)) == opts


# each key paired with a value from outside its accepted set
OUT_OF_SET = [
    (key, value)
    for key in ("mode", "frame", "window")
    for value in ("closed", "lab", "hann", "born-markov-transient", "hamming", "bogus")
    if value not in OPTIONS[key][0]
]


@pytest.mark.parametrize("key,value", OUT_OF_SET)
def test_config_rejects_out_of_set_values(tmp_path, capsys, key, value):
    """A config file's value is checked like the flag's, before any run and
    before the output directory is made; main returns 2 for either. Each
    command that reads the key is checked."""
    with pytest.raises(ConfigError, match=f"bad value for {key}"):
        parse_config(f"{key} = {value}\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    out = tmp_path / "out"
    commands = [c for c in ("simulate", "compare", "spectrum") if key in COMMAND_OPTIONS[c]]
    assert commands
    for command in commands:
        run = ["--tau-end", "1"] if "tau_end" in COMMAND_OPTIONS[command] else []
        argv = [command, *QUANTUM, *run, "--out", str(out)]
        assert main([*argv, "--config", str(cfg)]) == 2
        assert f"bad value for {key}" in capsys.readouterr().err
        assert main([*argv, "--" + key, value]) == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("opts", [
    {"command": "simulate", "mode": "lindblad-rwa", "mu_bar": 0.1, "intensity": 5.0,
     "gamma": 1e-3, "tau_end": 1.0, "dtau": 0.01},
    {"command": "simulate", "mode": "born-markov-asymptotic", "frame": "rotating",
     "mu_bar": 0.1, "intensity": 5.0, "gamma": 1e-3, "beta_bar": 0.5,
     "lambda_bar": 20.0, "theta": 0.3, "tau_end": 0.5},
    {"command": "compare", "mode": "closed", "mu_bar": 0.1, "intensity": 20.0,
     "tau_end": 10.0, "tolerance": 1e-5},
    pytest.param({"command": "compare", "mode": "lindblad-rwa", "frame": "rotating",
                  "mu_bar": 0.1, "intensity": 20.0, "gamma": 1e-3, "tau_end": 2.5,
                  "tolerance": 1e-3}, id="compare-rotating"),
    {"command": "spectrum", "mode": "closed", "mu_bar": 0.1, "intensity": 50.0,
     "samples": 1024, "periods": 2, "window": "none", "theta": 0.2},
], ids=lambda opts: opts["command"])
def test_config_file_matches_flags(tmp_path, opts):
    """A command given its options as a config file writes the same bytes as
    with flags, apart from the sidecar's timestamp."""
    opts = dict(opts)
    command = opts.pop("command")
    flags = [
        arg for key, value in opts.items()
        for arg in ("--" + key.replace("_", "-"), str(value))
    ]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(serialize_config(opts))
    by_flag, by_file = tmp_path / "flags", tmp_path / "file"
    assert main([command, *flags, "--out", str(by_flag)]) == 0
    assert main([command, "--config", str(cfg), "--out", str(by_file)]) == 0
    names = sorted(f.name for f in by_flag.iterdir())
    assert names == sorted(f.name for f in by_file.iterdir())
    for name in names:
        a, b = (by_flag / name).read_bytes(), (by_file / name).read_bytes()
        if name.endswith(".json"):
            a, b = json.loads(a), json.loads(b)
            assert a.pop("created_utc") and b.pop("created_utc")
        assert a == b, name


def test_config_layering(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mu_bar = 0.2\nintensity = 50\ngamma = 1e-4\n")
    assert main(["timescales", "--config", str(cfg), "--mu-bar", "0.1"]) == 0
    out = capsys.readouterr().out
    # the flag overrides the file: tau_r = pi / 0.1
    assert f"tau_r     = {fmt(math.pi / 0.1)}" in out


def test_missing_config_file():
    assert main(["timescales", "--config", "/nonexistent/x.cfg"]) == 2


def test_commands_refuse_options_they_do_not_read(tmp_path, capsys):
    """Each command takes only the options it reads, as flags and as config
    keys: 46 of the 5 x 18 pairs. Any other exits 2 before any run, and the
    message names the option and the command. A sweep given --gamma ran its
    drawn values instead."""
    assert sum(len(names) for names in COMMAND_OPTIONS.values()) == 46
    assert {len(names) for names in COMMAND_OPTIONS.values()} == {5, 7, 11, 12}
    values = {"mode": "closed", "frame": "lab", "window": "none", "out": "o"}
    cfg = tmp_path / "run.cfg"
    for command, names in COMMAND_OPTIONS.items():
        assert set(names) <= set(OPTIONS), command
        for name in set(OPTIONS) - set(names):
            value = values.get(name, "1")
            flag = "--" + name.replace("_", "-")
            assert main([command, flag, value]) == 2, (command, name)
            assert f"{command} does not take {flag} {value}" in capsys.readouterr().err
            cfg.write_text(f"{name} = {value}\n")
            assert main([command, "--config", str(cfg)]) == 2, (command, name)
            assert f"line 1: {command} does not read key {name!r}" in capsys.readouterr().err
    out = tmp_path / "g"
    argv = ["sweep", "--gamma", "0.5", "--draws", "1", "--seed", "1", "--out", str(out)]
    assert main(argv) == 2
    assert "sweep does not take --gamma 0.5" in capsys.readouterr().err
    assert not out.exists()


BETA_RUN = ["--mu-bar", "0.1", "--intensity", "5", "--gamma", "1e-3", "--tau-end", "0.5"]


@pytest.mark.parametrize("argv,message", [
    (["simulate", "--mode", "lindblad-rwa", "--mu-bar", "0.1", "--intensity", "5",
      "--gamma", "1e-3", "--tau-end", "nan"], "tau_end must be finite and non-negative, got nan"),
    (["simulate", "--mode", "born-markov-asymptotic", "--mu-bar", "0.1", "--intensity", "5",
      "--gamma", "1e-3", "--tau-end", "inf"], "tau_end must be finite and non-negative, got inf"),
    (["compare", "--mu-bar", "0.1", "--intensity", "5", "--tau-end=-inf"],
     "tau_end must be finite and non-negative, got -inf"),
    (["timescales", "--mu-bar", "0.1", "--intensity", "inf"],
     "intensity must be positive and finite, got inf"),
    (["timescales", "--mu-bar", "nan", "--intensity", "5"], "mu_bar must be a number, got nan"),
    (["spectrum", "--mu-bar", "0.1", "--intensity", "5", "--theta", "nan"],
     "theta must be a number, got nan"),
    (["compare", "--mode", "closed", "--mu-bar", "0.1", "--intensity", "5", "--tau-end", "1",
      "--tolerance", "nan"], "tolerance must be finite and non-negative, got nan"),
    (["compare", "--mode", "closed", "--mu-bar", "0.1", "--intensity", "5", "--tau-end", "1",
      "--tolerance", "-1"], "tolerance must be finite and non-negative, got -1.0"),
    *[(["simulate", "--mode", mode, "--mu-bar", "0.1", "--intensity", "5", "--gamma", "1e-3",
        "--beta-bar", "inf", "--tau-end", "0.5"],
       "beta_bar must be finite in born-markov-asymptotic and born-markov-transient, got inf")
      for mode in ("born-markov-asymptotic", "born-markov-transient")],
    *[(["simulate", "--mode", f"born-markov-{mode}", *BETA_RUN, "--beta-bar", beta], message)
      for mode, beta, message in [
          ("transient", "1e6", "need 2.39e+06 Matsubara terms at beta_bar = 1e+06 and "
           "lambda_bar = 10, more than the 262144 they sum; beta_bar * lambda_bar must be "
           "at most 1.09806e+06"),
          ("transient", "1e20", "need 2.39e+20 Matsubara terms at beta_bar = 1e+20"),
          ("transient", "1e305", "need 2.39e+305 Matsubara terms at beta_bar = 1e+305"),
          ("transient", "1.7e308", "beta_bar = 1.7e+308 overflows"),
          ("asymptotic", "1.7e308", "beta_bar = 1.7e+308 overflows"),
          *[(mode, beta, f"beta_bar = {beta} overflows the Matsubara frequency 2pi/beta_bar; "
             "beta_bar must be at least 3.5e-308")
            for beta in ("1e-310", "1e-308") for mode in ("asymptotic", "transient")],
          *[("transient", beta, f"beta_bar = {beta} overflows the squared Matsubara frequency "
             "(2pi k/beta_bar)^2 of the transient coefficients; beta_bar must be at least 9.4e-154")
            for beta in ("3.5e-308", "1e-250", "1e-160")]]],
    *[(["simulate", "--mode", mode, "--mu-bar", "1e306", "--intensity", "5", "--gamma", "1e-3",
        "--tau-end", "1"], "mu_bar = 1e+306 overflows the top level energy E_top")
      for mode in ("lindblad-rwa", "born-markov-asymptotic", "closed")],
    (["timescales", "--mu-bar", "1e308", "--intensity", "5", "--gamma", "1e-3"],
     "mu_bar = 1e+308 overflows 1/tau_e = 2 mu_bar sqrt(I0)"),
    *[(["simulate", "--mode", "born-markov-asymptotic", *BETA_RUN, "--lambda-bar", lam],
       f"the long-time bath coefficients are not finite at lambda_bar = {lam}")
      for lam in ("1e+103", "1e-310")],
    *[(["simulate", "--mode", mode, *BETA_RUN, "--gamma", "inf"],
       "gamma must be non-negative and finite, got inf")
      for mode in ("lindblad-rwa", "born-markov-transient")],
    (["simulate", "--mode", "closed", *BETA_RUN, "--theta", "inf"], "theta must be finite, got inf"),
    (["simulate", "--mode", "born-markov-asymptotic", *BETA_RUN, "--lambda-bar", "inf"],
     "lambda_bar must be positive and finite, got inf"),
    (["simulate", "--mode", "born-markov-asymptotic", *BETA_RUN, "--mu-bar", "inf"],
     "mu_bar must be non-negative and finite, got inf"),
    (["timescales", "--mu-bar", "0.1", "--intensity", "5", "--gamma", "inf"],
     "gamma must be non-negative and finite, got inf"),
    (["sweep", "--draws", "1", "--seed", "1", "--lambda-bar", "inf"],
     "lambda_bar must be positive and finite, got inf"),
    *[([*command, "--mu-bar", "0.1", "--intensity", "1e-200", "--gamma", "1e-200"],
       "intensity = 1e-200 and gamma = 1e-200 underflow the decoherence rate I0 gamma omega_bar")
      for command in (["timescales"], ["simulate", "--mode", "lindblad-rwa", "--tau-end", "1"],
                      ["compare", "--mode", "lindblad-rwa", "--tau-end", "1"])],
    (["timescales", "--mu-bar", "1e-320", "--intensity", "5"],
     "mu_bar = 9.99989e-321 overflows tau_e = 1/(2 mu_bar sqrt(I0))"),
    (["timescales", "--mu-bar", "0.1", "--intensity", "5", "--gamma", "5e-324"],
     "gamma = 4.94066e-324 overflows tau_gamma = 2/gamma"),
    (["timescales", "--mu-bar", "1e200", "--intensity", "1e200"],
     "mu_bar = 1e+200 and intensity = 1e+200 overflow omega_bar = 1 + mu_bar (1 + 2 I0)"),
    (["simulate", "--mode", "born-markov-transient", *BETA_RUN, "--beta-bar", "1e10",
      "--lambda-bar", "1e-310"],
     "lambda_bar = 1e-310 and beta_bar = 1e+10 overflow the settle time"),
], ids=["tau-end-nan", "tau-end-inf", "tau-end-minus-inf", "intensity-inf", "mu-nan",
        "theta-nan", "tolerance-nan", "tolerance-negative", "beta-inf-asymptotic",
        "beta-inf-transient", "beta-1e6-transient", "beta-1e20-transient",
        "beta-1e305-transient", "beta-1.7e308-transient", "beta-1.7e308-asymptotic",
        "beta-1e-310-asymptotic", "beta-1e-310-transient", "beta-1e-308-asymptotic",
        "beta-1e-308-transient", "beta-3.5e-308-transient", "beta-1e-250-transient",
        "beta-1e-160-transient", "mu-1e306-lindblad-rwa", "mu-1e306-asymptotic",
        "mu-1e306-closed", "mu-1e308-timescales", "lambda-1e103-asymptotic",
        "lambda-1e-310-asymptotic", "gamma-inf-lindblad-rwa", "gamma-inf-transient",
        "theta-inf", "lambda-inf-asymptotic", "mu-inf-asymptotic", "gamma-inf-timescales",
        "lambda-inf-sweep", "rate-underflow-timescales", "rate-underflow-lindblad-rwa",
        "rate-underflow-compare", "mu-1e-320-timescales", "gamma-5e-324-timescales",
        "omega-bar-inf-timescales", "settle-time-inf-transient"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_inputs_exit_2(tmp_path, capsys, argv, message):
    """A nan or an infinite time or intensity, a compare tolerance that is
    not finite and non-negative, zero temperature in a born-markov mode, and
    a finite beta_bar past the born-markov limits are refused before any
    run, with a message that names the value and no numpy RuntimeWarning,
    and leave no output directory. (tau_end = nan wrote one row at tau = 0;
    inf overflowed in the step count; an infinite intensity divided by zero
    in timescales, and a nan mu_bar printed nan times. A nan tolerance
    passed every run and wrote NaN into compare.json, and -1 failed every
    run with exit 4. beta_bar = inf failed inside the bath coefficients. A
    transient run at beta_bar = 1e6 ran for over a minute on 2.4e6
    Matsubara terms a row, 1e20 and 1e305 warned and wrote a garbage table,
    and 1.7e308 exited 2 on a nan. At beta_bar = 1e-310 and 1e-308, where
    2pi/beta_bar overflows, the asymptotic run warned and exited 3 and the
    transient run divided by zero; from 3.5e-308 to about 1e-154 the
    transient run overflowed in the squared Matsubara frequencies, warned
    and exited 3. A mu_bar that overflows E_top divided by
    zero in the default grid or, in closed mode, warned and exited 3, and
    one that overflows 1/tau_e divided by zero in timescales. lambda_bar =
    1e103 overflowed in lambda_bar^3, and 1e-310 warned and exited 3.
    validate_params refuses every infinite field but beta_bar = +inf: gamma
    = inf warned and exited 3, or in timescales printed tau_d = 0; theta =
    inf exited 2 on "math domain error"; lambda_bar = inf was blamed on
    beta_bar, and a sweep ran its draws, each failing; mu_bar = inf printed
    a cutoff warning before its error. A decoherence rate I0 gamma omega_bar
    that underflows to 0 divided by zero in timescales and in the default
    grid; mu_bar = 1e-320 was called classical with tau_e = tau_r = inf,
    gamma = 5e-324 isolated with tau_gamma = tau_d = inf, and mu_bar = I0 =
    1e200 printed tau_cl = tau_d = 0 after a cutoff warning. A transient
    table spread over an infinite settle time warned in np.linspace.)"""
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_infinite_mu_bar_prints_no_warning(tmp_path, capsys):
    """An infinite mu_bar, or a finite one whose omega_bar overflows, is
    refused alone: no cutoff warning against omega_bar = inf comes before
    the error."""
    argv = ["simulate", "--mode", "born-markov-asymptotic", *BETA_RUN, "--mu-bar", "inf"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "mu_bar must be non-negative and finite, got inf" in err
    assert "warning" not in err
    assert main(["timescales", "--mu-bar", "1e308", "--intensity", "5", "--gamma", "1e-3"]) == 2
    err = capsys.readouterr().err
    assert "mu_bar = 1e+308 overflows" in err
    assert "warning" not in err


@pytest.mark.parametrize("beta", ["1e200", "1e305"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_large_finite_beta_bar_runs_in_asymptotic_mode(tmp_path, beta):
    """The asymptotic coefficients stay finite up to where beta_bar overflows
    the digamma arguments, and their run prints no numpy warning (w * w
    overflowed in the digamma series, whose 1/w^2 -> 0 is the right limit)."""
    argv = ["simulate", "--mode", "born-markov-asymptotic", *BETA_RUN, "--beta-bar", beta]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    cols = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(cols))


def test_zero_temperature_timescales(capsys):
    """beta_bar = inf is zero temperature, which timescales reports."""
    assert main(["timescales", "--mu-bar", "0.1", "--intensity", "5", "--gamma", "1e-3",
                 "--beta-bar", "inf"]) == 0
    assert "tau_d" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# timescales


def test_timescales_stdout_and_json(tmp_path, capsys):
    code = main(["timescales", *QUANTUM, "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    for key in ("tau_cl", "tau_e", "tau_r", "tau_d", "tau_gamma", "theta", "regime", "ordering"):
        assert key in out
    data = read_json(tmp_path / "timescales.json")
    assert data["schema_version"] == "1"
    assert "created_utc" in data and "tool_version" in data
    assert data["timescales"]["tau_e"] == pytest.approx(1.0 / (2.0 * 0.1 * math.sqrt(50.0)))
    assert data["regime"] == "quantum-surviving"
    assert data["params"]["gamma"] == 1e-4


def test_invalid_parameters_exit_2(capsys):
    assert main(["timescales", "--mu-bar", "0.1", "--intensity", "-5"]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate


def test_simulate_csv_contract(tmp_path, capsys):
    code = main([
        "simulate", "--mu-bar", "0.1", "--intensity", "5", "--gamma", "1e-3",
        "--mode", "lindblad-rwa", "--tau-end", "1.0",
        "--dtau", "0.01", "--out", str(tmp_path),
    ])
    assert code == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 101  # header + one sample per grid point
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert rows[0, 0] == 0.0 and rows[-1, 0] == pytest.approx(1.0)
    # x column is sqrt(2) * re<a>, written independently
    np.testing.assert_allclose(rows[:, 1], math.sqrt(2.0) * rows[:, 2], rtol=1e-15)
    # every cell round-trips through its own 17-digit representation
    for ln in lines[1:]:
        for cell in ln.split(","):
            assert fmt(float(cell)) == cell
    meta = read_json(tmp_path / "trajectory.json")
    assert meta["n_samples"] == 101
    assert meta["mode"] == "lindblad-rwa"
    # the run steps the co-moving state by lengths of time, not grid cells:
    # here it climbs from its floor of 0.25/Omega_top (4.39 cells) to its
    # ceiling of 1/Omega_top, with Omega_top = 5.7 at n_max = 25
    assert meta["step"] == pytest.approx(1.0 / 5.7, rel=1e-9)
    assert meta["steps"] < 5.7 / 0.25 and meta["step_error"] > 0.0
    assert meta["max_trace_deviation"] < 1e-10


def test_simulate_bad_step_exit_2(tmp_path, capsys):
    """A bad step is refused before the output directory is made, and a
    missing --out before any run."""
    out = tmp_path / "d"
    base = ["simulate", "--mu-bar", "0.1", "--intensity", "5", "--gamma", "1e-3",
            "--tau-end", "1.0", "--out", str(out)]
    for mode in ("closed", "lindblad-rwa"):
        for dtau in ("0", "-0.01", "nan", "inf"):
            assert main([*base, "--mode", mode, "--dtau", dtau]) == 2
            assert "dtau must be positive and finite" in capsys.readouterr().err
    assert not out.exists()
    # this run would record 1e9 samples, over the sample limit, and exit 3
    assert main(base[:-2] + ["--mode", "lindblad-rwa", "--dtau", "1e-9"]) == 2
    assert "--out DIR is required" in capsys.readouterr().err


def test_simulate_coarse_dtau_keeps_the_step(tmp_path):
    """An explicit dtau sets the sample density, not the step: at dtau = 1
    the run takes as many RK4 steps as on the default grid."""
    args = ["simulate", "--mode", "born-markov-asymptotic", "--mu-bar", "0.1",
            "--intensity", "20", "--gamma", "1e-3", "--tau-end", "5"]
    assert main([*args, "--dtau", "1.0", "--out", str(tmp_path / "c")]) == 0
    assert main([*args, "--out", str(tmp_path / "d")]) == 0
    coarse, default = (read_json(tmp_path / d / "trajectory.json") for d in ("c", "d"))
    assert coarse["n_samples"] == 6 and default["n_samples"] > 6
    assert coarse["steps"] == default["steps"] and coarse["step"] < coarse["dtau"]


def test_simulate_closed_honours_dtau(tmp_path):
    """Every grid point of an explicit dtau is a sample: 10000 cells give
    10001 rows."""
    code = main(["simulate", "--mu-bar", "0.1", "--intensity", "5", "--mode", "closed",
                 "--tau-end", "10", "--dtau", "0.001", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 1 + 10001
    meta = read_json(tmp_path / "trajectory.json")
    assert meta["dtau"] == pytest.approx(0.001) and meta["n_samples"] == 10001
    # closed mode integrates no step
    assert meta["step"] is None and meta["steps"] == 0 and meta["step_error"] is None


def test_stride_is_not_an_option(tmp_path, capsys):
    """dtau alone sets the samples: a --stride flag or a stride config key is
    refused like any unknown name, before the output directory is made."""
    out = tmp_path / "out"
    base = ["simulate", "--mu-bar", "0.1", "--intensity", "5", "--tau-end", "1",
            "--out", str(out)]
    assert main([*base, "--stride", "10"]) == 2
    assert "--stride" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("stride=10\n")
    assert main([*base, "--config", str(cfg)]) == 2
    assert "unknown key 'stride'" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_requires_tau_end(capsys):
    assert main(["simulate", "--mu-bar", "0.1", "--intensity", "5", "--out", "/tmp/x"]) == 2
    assert "tau_end" in capsys.readouterr().err


def test_simulate_deterministic_bytes(tmp_path):
    args = ["simulate", "--mu-bar", "0.1", "--intensity", "5", "--tau-end", "3.0",
            "--mode", "closed"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main([*args, "--out", str(d1)]) == 0
    assert main([*args, "--out", str(d2)]) == 0
    assert (d1 / "trajectory.csv").read_bytes() == (d2 / "trajectory.csv").read_bytes()
    m1, m2 = read_json(d1 / "trajectory.json"), read_json(d2 / "trajectory.json")
    m1.pop("created_utc"), m2.pop("created_utc")
    assert m1 == m2


# gamma = 100 puts the rate budget far below the step floor of one rotating
# cell, so the fixed step is unstable and the state overflows to nan
UNSTABLE = ["simulate", "--mu-bar", "0.1", "--intensity", "20", "--gamma", "100",
            "--mode", "lindblad-rwa", "--tau-end", "50", "--dtau", "5"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_integrator_failure_exit_3(tmp_path, capsys):
    """The run's non-finite check is its only report: numpy's overflow and
    invalid-value warnings, errors here, are not raised on the way. The
    message names a fix that can be followed: the dtau that the step needs
    (2.2e-5 at gamma = 100, 1.5e-300 at beta_bar = 1e-300) would exceed the
    limit of 1e6 samples to tau_end, so it names the parameters that set the
    rate, or the tau_end that the limit allows at that dtau."""
    hot = ["simulate", "--mode", "born-markov-asymptotic", "--mu-bar", "0.1", "--intensity", "5",
           "--gamma", "1e-3", "--beta-bar", "1e-300", "--tau-end", "0.5"]
    for k, (argv, fix) in enumerate((
            (UNSTABLE, "lower gamma, or run to tau_end <= 21.5517 with dtau <= 2.15517e-05"),
            (hot, "lower gamma or raise beta_bar, or run to tau_end <= 1.49875e-294 "
                  "with dtau <= 1.49875e-300"))):
        code = main([*argv, "--out", str(tmp_path / str(k))])
        assert code == 3
        err = capsys.readouterr().err
        assert "integration failed" in err and fix in err and "reduce dtau" not in err


@pytest.mark.parametrize("mode,fix", [
    ("lindblad-rwa", "lower gamma (the RK4 step runs"),
    ("born-markov-asymptotic", "lower gamma or raise beta_bar (the RK4 step runs"),
    ("born-markov-transient", "lower gamma or raise beta_bar (the RK4 step runs"),
], ids=["lindblad-rwa", "asymptotic", "transient"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_generator_exits_3_with_its_fix_alone(tmp_path, capsys, mode, fix):
    """At gamma = 1e307 the generator overflows as it is built: the run
    exits 3 at its first step, naming the fix, with no numpy warning before
    it. (The Lindblad decay and the bath's P bands overflowed while the
    kernel was built, and the first right-hand side, outside the step
    loop's errstate, took inf and nan: 5, 7 and 4 RuntimeWarnings.)"""
    out = tmp_path / "out"
    argv = ["simulate", "--mode", mode, "--mu-bar", "0.1", "--intensity", "5",
            "--gamma", "1e307", "--tau-end", "0.5", "--out", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "integration failed" in err and "non-finite RK4 step" in err and fix in err
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["--mu-bar", "1e300", "--intensity", "5"],
     "takes at least 4.7e+301 RK4 steps of at most 2.12766e-302 from tau = 0, "
     "more than the limit of 1e+12"),
    (["--mu-bar", "1e306", "--intensity", "0.1"], "more than the limit of 1e+12"),
    (["--mu-bar", "1e306", "--intensity", "1"],
     "tau_end / dtau = 1 / 2.5e-309 is not a finite number of samples, above the limit of "
     "1000000; lower mu_bar"),
], ids=["mu-1e300-steps", "mu-1e306-steps", "mu-1e306-cells"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_too_long_to_step_exits_3(tmp_path, capsys, argv, message):
    """A run whose step ceiling or sample grid the level spread shrinks past
    every limit is refused before it steps, with exit 3 and a message that
    names the limit. (At mu_bar = 1e300 the ceiling of 2.1e-302 asked for
    4.7e301 steps at least, and the run never ended, as at mu_bar = 1e306
    and I0 = 0.1; at I0 = 1 the default dtau underflowed to 2.5e-309 and
    the cell count raised OverflowError.)"""
    out = tmp_path / "out"
    argv = ["simulate", "--mode", "lindblad-rwa", *argv, "--gamma", "1e-3", "--tau-end", "1"]
    assert main([*argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "integration failed" in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("argv,code", [
    (UNSTABLE, 3),
    # the fit finds too few bins on the dominant lobe
    (["spectrum", "--mu-bar", "0.1", "--intensity", "1", "--samples", "64"], 2),
], ids=["simulate-exit-3", "spectrum-exit-2"])
def test_failed_run_leaves_no_out_dir(tmp_path, capsys, argv, code):
    """--out is made by the first file written, so a command that fails
    after its inputs were accepted leaves no directory behind."""
    out = tmp_path / "new" / "out"
    assert main([*argv, "--out", str(out)]) == code
    assert capsys.readouterr().err
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("command,out", [("simulate", "afile"), ("timescales", "afile/sub")])
def test_out_that_is_or_lies_under_a_file_exits_2(tmp_path, capsys, monkeypatch, command, out):
    """An --out that names a file, or a path beneath one, is refused before
    any run, with a message that names the path."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("keep\n")
    run = ["--tau-end", "1"] if "tau_end" in COMMAND_OPTIONS[command] else []
    assert main([command, *QUANTUM, *run, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--out {out}: afile is not a directory" in captured.err
    assert (tmp_path / "afile").read_text() == "keep\n"


# ---------------------------------------------------------------------------
# compare


def test_compare_healthy_and_breach(tmp_path, capsys):
    args = ["compare", "--mu-bar", "0.1", "--intensity", "20",
            "--mode", "closed", "--tau-end", "10"]
    assert main([*args, "--tolerance", "1e-5", "--out", str(tmp_path)]) == 0
    data = read_json(tmp_path / "compare.json")
    assert data["relative_deviation"] < 1e-7
    capsys.readouterr()
    # the same healthy run breaches an unreasonably strict tolerance
    assert main([*args, "--tolerance", "1e-12"]) == 4
    assert "tolerance breached" in capsys.readouterr().err


def test_compare_reports_the_step_error(tmp_path):
    """At acceptance 02's parameters both frames' lindblad-rwa runs step the
    co-moving state, and compare.json reports their steps and local error
    estimates. The step does not depend on the grid: both runs take 32
    steps that climb to the 2-rad ceiling 1/Omega_top (31.1 cells of the
    955-cell lab grid, 20 of the 615-cell rotating one), within the 3e-10
    tolerance (measured: 5.1e-11 on both). A one-cell lab-frame step took
    955 steps with an estimate of 8.2e-7."""
    args = ["compare", "--mu-bar", "0.1", "--intensity", "20", "--gamma", "1e-3",
            "--mode", "lindblad-rwa", "--tau-end", "2.5"]
    data = {}
    for frame in ("lab", "rotating"):
        assert main([*args, "--frame", frame, "--out", str(tmp_path / frame)]) == 0
        data[frame] = read_json(tmp_path / frame / "compare.json")
    omega_top = 12.3  # at n_max = 58
    assert data["lab"]["steps"] == data["rotating"]["steps"] < 2.5 * omega_top / 0.25
    for frame in ("lab", "rotating"):
        assert data[frame]["step"] == pytest.approx(1.0 / omega_top, rel=1e-9), frame
        assert 0.0 < data[frame]["step_error"] <= 3e-10, frame


def test_compare_rejects_modes_without_reference(capsys):
    code = main(["compare", "--mu-bar", "0.1", "--intensity", "20", "--gamma", "1e-3",
                 "--mode", "born-markov-asymptotic", "--tau-end", "1"])
    assert code == 2
    assert "closed-form reference" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_closed_quantum(tmp_path, capsys):
    code = main(["spectrum", *QUANTUM, "--out", str(tmp_path)])
    assert code == 0
    data = read_json(tmp_path / "spectrum.json")
    tau_e = 1.0 / (2.0 * 0.1 * math.sqrt(50.0))
    assert data["width_times_tau_e"] == pytest.approx(1.0, abs=0.15)
    assert data["center"] == pytest.approx(11.0, abs=0.2)
    assert data["tau_e_estimate"] == pytest.approx(tau_e, rel=0.15)
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "omega,amplitude"
    assert len(lines) == 1 + 2048 // 2 + 1
    assert "width*tau_e" in capsys.readouterr().out
    assert data["step"] is None and data["steps"] == 0 and data["step_error"] is None
    assert data["route"] == "comb"


def test_spectrum_honours_samples(tmp_path):
    """--samples 8192 transforms 8192 points over one recurrence period:
    4097 frequency rows, up to the Nyquist frequency of that grid."""
    code = main(["spectrum", "--mode", "closed", "--mu-bar", "0.1", "--intensity", "50",
                 "--samples", "8192", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert len(lines) == 1 + 8192 // 2 + 1
    omegas = np.array([float(ln.split(",")[0]) for ln in lines[1:]])
    assert omegas[-1] == pytest.approx(math.pi * 8192 / (2 * math.pi / 0.1), rel=1e-12)
    assert read_json(tmp_path / "spectrum.json")["samples"] == 8192


def test_spectrum_validation(capsys):
    assert main(["spectrum", "--intensity", "50", "--out", "/tmp/x"]) == 2
    assert "mu_bar" in capsys.readouterr().err
    assert main(["spectrum", *QUANTUM, "--samples", "16", "--out", "/tmp/x"]) == 2


def test_spectrum_hann_resolves_the_comb_by_default(tmp_path, capsys):
    """One period puts the comb lines two frequency bins apart, inside a
    Hann line's four-bin main lobe, so the windowed spectrum is one smooth
    hump that the lobe fit cannot use. With a hann window, spectrum takes
    two periods by default, refuses fewer before any run, and fits the
    width of the rectangular transform of one period (measured: 6e-6
    relative apart)."""
    args = ["spectrum", "--mode", "closed", "--mu-bar", "0.1", "--intensity", "50"]
    assert main([*args, "--window", "hann", "--out", str(tmp_path / "hann")]) == 0
    hann = read_json(tmp_path / "hann" / "spectrum.json")
    assert hann["width_times_tau_e"] == pytest.approx(1.0, rel=0.05)
    assert hann["duration"] == pytest.approx(2 * 2 * math.pi / 0.1, rel=1e-15)
    assert main([*args, "--out", str(tmp_path / "none")]) == 0
    none = read_json(tmp_path / "none" / "spectrum.json")
    assert none["duration"] == pytest.approx(2 * math.pi / 0.1, rel=1e-15)
    assert hann["width"] == pytest.approx(none["width"], rel=1e-4)
    capsys.readouterr()
    short = tmp_path / "short"
    assert main([*args, "--window", "hann", "--periods", "1", "--out", str(short)]) == 2
    assert "need periods >= 2" in capsys.readouterr().err
    assert not short.exists()


def test_spectrum_damped_run_fits_the_aligned_bins(tmp_path):
    """At gamma = 1e-2 the recurrences are gone within the record, so the
    comb no longer resolves the lobe and the width comes from every bin of
    the phase-aligned transform. The first bump still sets it: width * tau_e
    0.947. (The fit on the comb peaks of |X| found one point on the lobe and
    exited 2.)"""
    argv = ["spectrum", "--mode", "born-markov-asymptotic", "--mu-bar", "0.1", "--intensity",
            "10", "--gamma", "1e-2", "--lambda-bar", "100", "--samples", "1024"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    data = read_json(tmp_path / "spectrum.json")
    assert data["route"] == "bins"
    assert data["width_times_tau_e"] == pytest.approx(1.0, rel=0.15)


# ---------------------------------------------------------------------------
# sweep


def test_draw_parameters_deterministic_and_ranged():
    a = draw_parameters(42, 6)
    b = draw_parameters(42, 6)
    assert a == b
    for entry in a:
        assert 1e-3 <= entry["mu_bar"] <= 1.0
        assert 1e-5 <= entry["gamma"] <= 1e-2
        assert 1e-2 <= entry["beta_bar"] <= 1.0
        assert 20.0 <= entry["intensity"] <= 50.0
    # a longer plan extends, never reshuffles, the shorter one
    assert draw_parameters(42, 3) == a[:3]


def test_sweep_lambda_rule():
    assert sweep_lambda_bar(1.0) == 30.0
    assert sweep_lambda_bar(20.0) == 60.0


@pytest.mark.parametrize("index", [0, 1])
def test_run_sweep_draw_result_contract(index):
    # acceptance 07's plan: draw 0 drops 25 e-folds per modulation period,
    # draw 1 only 0.055; one estimator and one window rule serve both
    spec = dict(draw_parameters(1, 20)[index], lambda_bar=None)
    res = run_sweep_draw(spec)
    for key in ("index", "params", "delta_eff", "n_max", "window", "fit_method",
                "rate_fit", "rate_predicted", "tau_d_fit", "tau_d_theory",
                "ln_ratio", "fit_uncertainty", "fit_residual_rms",
                "max_trace_deviation", "max_herm_defect", "final_min_eig",
                "step", "steps", "step_error"):
        assert key in res, key
    omega = 1.0 + spec["mu_bar"] * (1.0 + 2.0 * spec["intensity"])
    assert res["params"]["lambda_bar"] == sweep_lambda_bar(omega)
    assert res["fit_method"] == "modulated"
    assert res["window"] == pytest.approx(0.23 / res["rate_predicted"], rel=1e-15)
    assert abs(res["ln_ratio"]) < math.log(2.0)
    assert res["max_trace_deviation"] < 1e-10


def test_sweep_fit_keeps_last_sample(monkeypatch):
    """Draw 3 of acceptance 07's plan ends one ulp past its window (400
    steps of window/400); the fit still uses every recorded sample."""
    fits = []
    fit_overlap = analysis.overlap_rate_modulated

    def spy(taus, *args):
        fits.append((taus, fit_overlap(taus, *args)))
        return fits[-1][1]

    monkeypatch.setattr(analysis, "overlap_rate_modulated", spy)
    res = run_sweep_draw(dict(draw_parameters(1, 20)[3], lambda_bar=None))
    (taus, fit), = fits
    assert taus[-1] > res["window"]
    assert fit.n_points == taus.size


def test_sweep_end_to_end_and_resume(tmp_path):
    args = ["sweep", "--seed", "7", "--draws", "1", "--out", str(tmp_path)]
    assert main(args) == 0
    manifest = read_json(tmp_path / "manifest.json")
    assert manifest["seed"] == 7 and manifest["draws"] == 1
    assert manifest["pair_rule"].startswith("quarter-orbit")
    entry = manifest["entries"][0]
    assert entry["status"] == "complete"
    result_bytes = (tmp_path / entry["result_file"]).read_bytes()
    res = json.loads(result_bytes)
    assert abs(res["ln_ratio"]) < math.log(2.0)
    assert res["params"]["mu_bar"] == manifest["entries"][0]["params"]["mu_bar"]
    for key in RECORD_FIELDS:
        assert entry[key] == res[key], key
    assert res["steps"] > 0
    # resuming a finished sweep recomputes nothing: bytes stay identical
    assert main(args) == 0
    assert (tmp_path / entry["result_file"]).read_bytes() == result_bytes


def test_sweep_workers_write_what_one_process_writes(tmp_path):
    """--workers 2 runs the pending draws in a process pool and writes the
    same draw files and manifest entries as one process does (the creation
    stamps aside)."""
    def written(workers):
        out = tmp_path / str(workers)
        assert main(["sweep", "--seed", "7", "--draws", "2", "--workers", str(workers),
                     "--out", str(out)]) == 0
        files = {p.name: read_json(p) for p in sorted(out.iterdir())}
        for data in files.values():
            data.pop("created_utc")
        return files

    pool, one = written(2), written(1)
    assert sorted(pool) == ["draw_000.json", "draw_001.json", "manifest.json"]
    assert [e["status"] for e in pool["manifest.json"]["entries"]] == ["complete"] * 2
    assert pool == one


def test_sweep_records_failures_and_recovers(tmp_path, monkeypatch, capsys):
    args = ["sweep", "--seed", "7", "--draws", "1", "--out", str(tmp_path)]

    def boom(spec):
        raise RuntimeError("synthetic draw failure")

    monkeypatch.setattr("kerrbath.cli.run_sweep_draw", boom)
    assert main(args) == 0  # a failed draw is recorded, not fatal
    manifest = read_json(tmp_path / "manifest.json")
    assert manifest["entries"][0]["status"] == "failed"
    assert "synthetic draw failure" in manifest["entries"][0]["error"]
    assert "1 failed" in capsys.readouterr().out

    monkeypatch.undo()
    assert main(args) == 0  # resume retries the failed entry
    manifest = read_json(tmp_path / "manifest.json")
    assert manifest["entries"][0]["status"] == "complete"


def test_sweep_rejects_foreign_manifest(tmp_path, capsys):
    assert main(["sweep", "--seed", "7", "--draws", "0", "--out", str(tmp_path)]) == 0
    manifest = read_json(tmp_path / "manifest.json")
    assert manifest["entries"] == []
    code = main(["sweep", "--seed", "8", "--draws", "0", "--out", str(tmp_path)])
    assert code == 2
    assert "different sweep" in capsys.readouterr().err


def test_sweep_manifest_records_its_lambda_override(tmp_path, capsys):
    """--lambda-bar overrides the sweep's cutoff rule for every draw, and
    the manifest records it (null when the rule applies). A resume with
    another override, or none, is a different sweep and exits 2, naming
    the override; so does an override that is no cutoff."""
    args = ["sweep", "--seed", "7", "--draws", "1", "--out", str(tmp_path)]
    assert main([*args, "--lambda-bar", "50"]) == 0
    manifest = read_json(tmp_path / "manifest.json")
    assert manifest["lambda_bar_override"] == 50.0
    assert read_json(tmp_path / "draw_000.json")["params"]["lambda_bar"] == 50.0
    capsys.readouterr()
    for other, shown in ((["--lambda-bar", "60"], "60.0"), ([], "None")):
        assert main([*args, *other]) == 2
        assert f"lambda_bar_override 50.0 there, {shown} here" in capsys.readouterr().err
    assert main([*args, "--lambda-bar", "50"]) == 0
    assert main(["sweep", "--seed", "7", "--draws", "0", "--out", str(tmp_path / "rule")]) == 0
    assert read_json(tmp_path / "rule" / "manifest.json")["lambda_bar_override"] is None
    # an override is checked like a run's cutoff: 0 would record 0 and run the rule
    for bad, message in (("0", "lambda_bar must be positive, got 0.0"),
                         ("nan", "lambda_bar must be a number, got nan")):
        bad_out = tmp_path / f"bad-{bad}"
        assert main(["sweep", "--seed", "7", "--draws", "1", "--lambda-bar", bad,
                     "--out", str(bad_out)]) == 2
        assert message in capsys.readouterr().err
        assert not bad_out.exists()


def test_sweep_requires_seed_and_draws(tmp_path, capsys):
    assert main(["sweep", "--out", "/tmp/x"]) == 2
    assert "--draws and --seed" in capsys.readouterr().err
    assert main(["sweep", "--seed", "7", "--draws", "-1", "--out", str(tmp_path / "n")]) == 2
    assert "draws must be non-negative, got -1" in capsys.readouterr().err
    assert not (tmp_path / "n").exists()


def test_sweep_rejects_nonpositive_workers(tmp_path, capsys):
    args = ["sweep", "--seed", "7", "--draws", "1", "--workers", "0", "--out", str(tmp_path)]
    assert main(args) == 2
    assert "workers must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


#: the run record that every run JSON and manifest entry carries, the four
#: invariants last
RECORD_FIELDS = ("mode", "frame", "n_max", "dtau", "n_samples", "step", "steps", "step_error",
                 "spectral_radius", "max_trace_deviation", "max_herm_defect", "max_top_population",
                 "final_min_eig")
SIDECARS = {
    "trajectory.json": ["simulate", "--mu-bar", "0.1", "--intensity", "5", "--gamma", "1e-3",
                        "--mode", "lindblad-rwa", "--tau-end", "0.5"],
    "compare.json": ["compare", "--mu-bar", "0.1", "--intensity", "5", "--tau-end", "1"],
    "spectrum.json": ["spectrum", "--mu-bar", "0.2", "--intensity", "20", "--samples", "256"],
    "draw_000.json": ["sweep", "--seed", "7", "--draws", "1"],
}


@pytest.mark.parametrize("name", SIDECARS)
def test_run_sidecars_carry_params_stamp_and_steps(tmp_path, name):
    """Every sidecar of a run carries the run's params, its run record (the
    stepping telemetry and the four invariants among it, each measured) and
    the schema stamp (timescales.json, which has no run, is checked in
    test_timescales_stdout_and_json). A sweep's manifest entry repeats its
    draw's record. (compare.json and spectrum.json lacked the invariants,
    trajectory.json the positivity and top population, and draw files the
    mode, frame, sample spacing and count and the top population.)"""
    assert main([*SIDECARS[name], "--out", str(tmp_path)]) == 0
    data = read_json(tmp_path / name)
    for key in ("params", "schema_version", "tool_version", "created_utc", *RECORD_FIELDS):
        assert key in data, key
    assert data["schema_version"] == "1"
    assert set(data["params"]) == {f.name for f in dataclasses.fields(SystemParams)}
    for key in RECORD_FIELDS[-4:]:
        assert math.isfinite(data[key]), key
    assert data["n_samples"] > 1
    if name == "draw_000.json":
        entry = read_json(tmp_path / "manifest.json")["entries"][0]
        assert {k: entry[k] for k in RECORD_FIELDS} == {k: data[k] for k in RECORD_FIELDS}


# ---------------------------------------------------------------------------
# regimes


def test_regimes_bec(capsys):
    code = main(["regimes", "bec", "--atoms", "1e4",
                 "--scattering-length", "5e-9", "--mass", "1.5e-25",
                 "--trap-omega", str(2.0 * math.pi * 100.0),
                 "--tau-gamma", str(2.0 * math.pi * 1e2)])
    assert code == 0
    out = capsys.readouterr().out
    theta = float(out.splitlines()[0].split("=")[1])
    assert theta == pytest.approx(237.0, abs=1.0)
    assert "regime = quantum-surviving" in out


def test_regimes_cantilever(capsys):
    code = main(["regimes", "cantilever", "--mu-cl", "1", "--quality", "1",
                 "--n-levels", "16"])
    assert code == 0
    out = capsys.readouterr().out
    assert f"theta = {fmt(1.0)}" in out
    assert f"mu_cl threshold (theta = 1) = {fmt(1.0)}" in out
    assert "regime = intermediate" in out


@pytest.mark.parametrize("theta,verdict", [
    (THETA_HI * (1.0 + 1e-9), "quantum-surviving"),
    (THETA_HI * (1.0 - 1e-9), "intermediate"),
    (THETA_LO * (1.0 + 1e-9), "intermediate"),
    (THETA_LO * (1.0 - 1e-9), "classical"),
])
def test_regimes_cantilever_thresholds(capsys, theta, verdict):
    """At Q = 1 and n = 16, theta = 4 mu_cl Q / sqrt(n) is mu_cl exactly; the
    verdict flips at the model's THETA_HI and THETA_LO."""
    code = main(["regimes", "cantilever", "--mu-cl", repr(theta), "--quality", "1",
                 "--n-levels", "16"])
    assert code == 0
    out = capsys.readouterr().out
    assert f"theta = {fmt(theta)}" in out
    assert f"regime = {verdict}" in out


def test_regimes_invalid_exit_2(capsys):
    code = main(["regimes", "cantilever", "--mu-cl", "1", "--quality", "-3",
                 "--n-levels", "16"])
    assert code == 2


BEC = {"--atoms": "1e4", "--scattering-length": "5e-9", "--mass": "1.5e-25",
       "--trap-omega": "628.3", "--tau-gamma": "628.3"}
CANTILEVER = {"--mu-cl": "0.194", "--quality": "1e6", "--n-levels": "6e11"}


@pytest.mark.parametrize("system,flag,value,message", [
    ("cantilever", "--mu-cl", "nan", "mu_cl must be finite, got nan"),
    ("cantilever", "--quality", "nan", "quality must be positive and finite, got nan"),
    ("cantilever", "--n-levels", "nan", "n_levels must be positive and finite, got nan"),
    ("cantilever", "--quality", "inf", "quality must be positive and finite, got inf"),
    ("bec", "--atoms", "nan", "n_atoms must be positive and finite, got nan"),
    ("bec", "--mass", "-1", "atom_mass must be positive and finite, got -1.0"),
    ("bec", "--tau-gamma", "0", "tau_gamma must be positive and finite, got 0.0"),
    ("bec", "--scattering-length", "inf", "scattering_length must be finite, got inf"),
], ids=["mu-cl-nan", "quality-nan", "n-levels-nan", "quality-inf", "atoms-nan", "mass-negative",
        "tau-gamma-zero", "scattering-length-inf"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_regimes_refuses_bad_inputs(capsys, system, flag, value, message):
    """A non-finite input, or a non-positive one where the formula needs a
    positive one, exits 2 with a message that names it. (A nan exited 0 with
    theta = nan and regime intermediate, a negative mass exited 2 on "math
    domain error", and tau_gamma = 0 gave theta = 0, classical.)"""
    flags = {**(BEC if system == "bec" else CANTILEVER), flag: value}
    assert main(["regimes", system, *(x for item in flags.items() for x in item)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "theta" not in captured.out


@pytest.mark.parametrize("argv,message", [
    (["cantilever", "--mu-cl", "1e300", "--quality", "1e300", "--n-levels", "1"],
     "mu_cl = 1e+300, quality = 1e+300 and n_levels = 1 overflow theta = 4 mu_cl Q/sqrt(n)"),
    (["cantilever", "--mu-cl", "1e-300", "--quality", "1e300", "--n-levels", "1e-300"],
     "quality = 1e+300 and n_levels = 1e-300 underflow the threshold sqrt(n)/(4 Q)"),
    (["bec", "--atoms", "1e300", "--scattering-length", "0", "--mass", "1e300",
      "--trap-omega", "1e300", "--tau-gamma", "1"],
     "atom_mass = 1e+300, trap_omega = 1e+300 and n_atoms = 1e+300 overflow 2 m omega N/(pi hbar)"),
], ids=["cantilever-theta-inf", "cantilever-threshold-zero", "bec-root-inf"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_regimes_refuses_overflow(capsys, argv, message):
    """Finite inputs whose estimate leaves the float range exit 2 before
    any line is printed. (The cantilever printed theta = inf, or a zero
    threshold, and the condensate theta = nan before its error.)"""
    assert main(["regimes", *argv]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# installed entry point


def test_console_script_version():
    proc = subprocess.run([sys.executable, "-m", "kerrbath.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    # in process, --version and --help return 0 like any successful command
    assert main(["--version"]) == 0
    assert main(["simulate", "--help"]) == 0


def test_cli_import_leaves_scipy_out():
    """scipy is a test dependency only, and importing it was most of the
    package's start-up time: importing the CLI, and with it every module of
    the package, must not load it."""
    code = "import sys, kerrbath.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
