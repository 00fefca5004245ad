import csv
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import siamp
from siamp import NonFiniteState, experiment
from siamp.cli import main

SIMULATE_OUTPUTS = ("roc.csv", "nmse.csv", "se_trace.csv", "denoiser_curve.csv",
                    "threshold_curve.csv", "metadata.json")


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(
        "num_devices = 60\n"
        "pilot_length = 24\n"
        "num_blocks = 2\n"
        "activity_rate = 0.1\n"
        "persistence = 0.46\n"
        "gamma = 1.0\n"
        "noise_variance = 0.1\n"
        "rng_seed = 5\n"
        "num_trials = 3\n"
        "se_sample_count = 2000\n"
        "l_grid = -8:8:17\n")
    return path


def test_simulate_writes_outputs(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["simulate", str(tiny_config), "--out-dir", str(out)])
    assert code == 0
    for name in SIMULATE_OUTPUTS:
        assert (out / name).exists()
    stdout = capsys.readouterr().out
    assert "completed 3 trials" in stdout


@pytest.mark.parametrize("persistence", ["0.0", "1.0"])
def test_simulate_at_extreme_persistence(tiny_config, tmp_path, persistence):
    # one threshold limit is infinite here; the run still writes every file
    text = tiny_config.read_text().replace("persistence = 0.46",
                                           f"persistence = {persistence}")
    tiny_config.write_text(text)
    out = tmp_path / "out"
    assert main(["simulate", str(tiny_config), "--out-dir", str(out),
                 "--trials", "2"]) == 0
    for name in SIMULATE_OUTPUTS:
        assert (out / name).exists()


def test_roc_subcommand(tiny_config, tmp_path):
    out = tmp_path / "roc_out"
    assert main(["roc", str(tiny_config), "--out-dir", str(out),
                 "--trials", "2"]) == 0
    with open(out / "roc.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["variant"] for row in rows} == {"si", "nosi"}
    assert len(rows) == 2 * 2 * 17


def test_se_trace_subcommand(tiny_config, tmp_path):
    out = tmp_path / "se_out"
    assert main(["se-trace", str(tiny_config), "--out-dir", str(out)]) == 0
    with open(out / "se_trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert all(float(r["tau_sq"]) >= 0.1 for r in rows)
    assert {r["converged"] for r in rows} == {"1"}


def test_denoiser_curve(tmp_path):
    assert main(["denoiser-curve", "--out-dir", str(tmp_path),
                 "--points", "50"]) == 0
    with open(tmp_path / "denoiser_curve.csv") as fh:
        rows = list(csv.DictReader(fh))
    variants = {r["variant"] for r in rows}
    assert variants == {"si", "nosi"}
    assert len(rows) == 3 * 50  # nosi plus the two default SI magnitudes


def test_detector_curve(tmp_path, capsys):
    assert main(["detector-curve", "--out-dir", str(tmp_path),
                 "--points", "40"]) == 0
    with open(tmp_path / "threshold_curve.csv") as fh:
        rows = list(csv.DictReader(fh))
    values = np.array([float(r["threshold_si"]) for r in rows])
    assert np.all(np.diff(values) <= 1e-25)
    assert "limits:" in capsys.readouterr().out


def test_dump_traces(tiny_config, tmp_path):
    out = tmp_path / "traces_out"
    assert main(["dump-traces", str(tiny_config), "--out-dir", str(out)]) == 0
    with open(out / "traces.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 60 * 2


def test_dump_traces_lf_and_exact(tiny_config, tmp_path):
    # every CSV ends its lines in LF alone, and channels read back exactly
    from siamp import generate_scenario, parse_config
    out = tmp_path / "traces_out"
    assert main(["dump-traces", str(tiny_config), "--out-dir", str(out)]) == 0
    data = (out / "traces.csv").read_bytes()
    assert b"\r" not in data
    rows = list(csv.DictReader(data.decode().splitlines()))
    realization = generate_scenario(parse_config(tiny_config).scenario)
    channels = np.array([[complex(float(r["channel_re_1"]),
                                  float(r["channel_im_1"]))] for r in rows])
    np.testing.assert_array_equal(
        channels, np.concatenate([b.channels for b in realization.blocks]))


def test_amp_trace(tiny_config, tmp_path):
    out = tmp_path / "amp_out"
    assert main(["amp-trace", str(tiny_config), "--out-dir", str(out)]) == 0
    with open(out / "amp_trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["block"] for row in rows} == {"1", "2"}
    taus = [float(r["tau"]) for r in rows if r["block"] == "1"]
    assert all(t > 0 for t in taus)


def test_oracle_check_passes(capsys):
    assert main(["oracle-check", "--samples", "300", "--seed", "3"]) == 0
    assert "oracle-check: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["denoiser-curve", "--prev", "foo"],
    ["denoiser-curve", "--prev", "1e-7,nan"],
    ["denoiser-curve", "--points", "0"],
    ["denoiser-curve", "--max-input", "nan"],
    ["detector-curve", "--points", "-1"],
    ["detector-curve", "--points", "0"],
    ["detector-curve", "--max-prev", "nan"],
    ["detector-curve", "--l", "nan"],
    ["oracle-check", "--samples", "0"],
    ["oracle-check", "--seed", "-1"],
], ids=lambda argv: " ".join(argv))
def test_bad_flag_is_error(argv, tmp_path, capsys):
    # rejected before any output is written, with a one-line reason
    out = ["--out-dir", str(tmp_path)] if argv[0] != "oracle-check" else []
    assert main(argv + out) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "PASS" not in captured.out
    assert os.listdir(tmp_path) == []


def test_missing_config_is_error(capsys):
    assert main(["simulate"]) == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_config_nonzero_exit(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("num_devices = 10\npilot_length = 5\ngamma = 1\n"
                    "activity_rate = 1.9\n")
    assert main(["simulate", str(path)]) == 2
    assert "activity_rate" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["dump-traces", "simulate"])
@pytest.mark.parametrize("source", ["preset", "annulus-config",
                                    "gamma-config"])
def test_negative_seed_is_error(command, source, tmp_path, capsys):
    # rejected before any draw, with the reason and no traceback
    if source == "preset":
        argv = [command, "--preset", "fig3-desk", "--seed", "-1"]
    else:
        placement = source.split("-")[0]
        gamma = "gamma = 1\n" if placement == "gamma" else ""
        path = tmp_path / "negative.cfg"
        path.write_text("num_devices = 10\npilot_length = 5\n"
                        f"placement = {placement}\n{gamma}rng_seed = -3\n")
        argv = [command, str(path)]
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "rng_seed must be nonnegative" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["dump-traces", "simulate"])
@pytest.mark.parametrize("key", ["gamma", "noise_variance"])
def test_infinite_scale_is_error(command, key, tiny_config, tmp_path, capsys):
    # an infinite gain or noise variance is rejected before any draw, under
    # the name the config file uses
    set_key(tiny_config, key, "inf")
    out = tmp_path / "out"
    assert main([command, str(tiny_config), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"{key} must be finite and positive" in err
    assert "path_losses" not in err and "Traceback" not in err
    assert not out.exists()


def set_key(config_path, key, value):
    text = "".join(f"{key} = {value}\n" if line.startswith(f"{key} =")
                   else line
                   for line in config_path.read_text().splitlines(True))
    config_path.write_text(text)


def tiny_power_bound(config_path):
    # sqrt(largest double) / (N*L*M) for the config's 60 devices, 24 pilots
    # and one antenna
    scenario = experiment.parse_config(config_path).scenario
    assert (scenario.num_devices, scenario.pilot_length,
            scenario.num_antennas) == (60, 24, 1)
    return float(np.sqrt(np.finfo(float).max) / (60 * 24 * 1))


@pytest.mark.parametrize("command", ["dump-traces", "simulate"])
@pytest.mark.parametrize("key", ["gamma", "noise_variance"])
def test_scale_above_power_bound_is_error(command, key, tiny_config, tmp_path,
                                          capsys):
    # a finite power whose sums or squares would overflow is rejected too
    above = float(np.nextafter(tiny_power_bound(tiny_config), np.inf))
    set_key(tiny_config, key, repr(above))
    out = tmp_path / "out"
    assert main([command, str(tiny_config), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid configuration:\n  - {key} must be "
                          "at most sqrt(largest double)/(N*L*M)")
    assert "Traceback" not in err
    assert not out.exists()


def test_gain_below_power_bound_runs_cleanly(tiny_config, tmp_path):
    # the largest admitted gain runs every trial with no numpy warning, and
    # so does the largest admitted noise variance, under that gain so that
    # gamma/noise_variance clears its floor
    below = repr(float(np.nextafter(tiny_power_bound(tiny_config), 0.0)))
    for keys in (["gamma"], ["gamma", "noise_variance"]):
        for key in keys:
            set_key(tiny_config, key, below)
        out = tmp_path / "-".join(keys)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", str(tiny_config),
                         "--out-dir", str(out)]) == 0
        with open(out / "nmse.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(np.isfinite(float(row["nmse"])) for row in rows)


@pytest.mark.parametrize("command", ["dump-traces", "simulate"])
def test_gain_below_noise_floor_is_error(command, tiny_config, tmp_path,
                                         capsys):
    # at gamma/noise_variance = 1e-20 the gain rounds away in tau^2 + gamma
    # and the energy test would divide 0 by 0; the config is rejected under
    # the name it uses
    set_key(tiny_config, "noise_variance", "1e20")
    out = tmp_path / "out"
    assert main([command, str(tiny_config), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration:\n  - gamma must be "
                          "at least 2^-40*noise_variance")
    assert "Traceback" not in err
    assert not out.exists()


def test_failed_trials_are_error(tiny_config, tmp_path, capsys, monkeypatch):
    # more than 10% of the trials failed: the run stops with the reason
    # and writes nothing
    def failing(config):
        raise NonFiniteState("diverged")
    monkeypatch.setattr(experiment, "run_trial_variants", failing)
    out = tmp_path / "out"
    assert main(["simulate", str(tiny_config), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 3/3 trials failed")
    assert "diverged" in err
    assert not out.exists()


def test_preset_flag(tmp_path):
    out = tmp_path / "preset_out"
    code = main(["roc", "--preset", "fig3-desk", "--trials", "2",
                 "--out-dir", str(out), "--seed", "9"])
    assert code == 0
    assert os.path.exists(out / "roc.csv")


def test_runtime_imports_no_scipy():
    # numpy is the one runtime dependency: the CLI and a preset spec load
    # no scipy module in a fresh interpreter
    code = ("import sys\n"
            "import siamp.cli\n"
            "from siamp import spec_from_options\n"
            "spec_from_options({'preset': 'fig3-desk'})\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))\n")
    src = os.path.dirname(os.path.dirname(siamp.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
