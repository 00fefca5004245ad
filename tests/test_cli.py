import csv
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import siamp
from siamp import amp, cli, experiment
from siamp.cli import main
from siamp.errors import NonFiniteState
from siamp.model import generate_scenario

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
    with open(out / "roc.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["variant"] for row in rows} == {"si", "nosi"}
    assert len(rows) == 2 * 2 * 17  # variants x blocks x levels
    stdout = capsys.readouterr().out
    assert "completed 3 trials" in stdout
    assert re.search(r"^block runs stopped at 50 iterations: si \d/6, "
                     r"nosi \d/6$", stdout, re.MULTILINE)


def test_simulate_counts_blocks_stopped_at_max_iters(tiny_config, tmp_path,
                                                     capsys, monkeypatch):
    # no block's estimate settles within 2 iterations from x = 0
    monkeypatch.setattr(amp, "MAX_ITERS", 2)
    assert main(["simulate", str(tiny_config), "--out-dir",
                 str(tmp_path / "out")]) == 0
    stdout = capsys.readouterr().out
    assert "block runs stopped at 2 iterations: si 6/6, nosi 6/6" in stdout


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


def test_se_trace_subcommand(tiny_config, tmp_path):
    out = tmp_path / "se_out"
    assert main(["se-trace", str(tiny_config), "--out-dir", str(out)]) == 0
    with open(out / "se_trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert all(float(r["tau_sq"]) >= 0.1 for r in rows)
    assert {r["converged"] for r in rows} == {"1"}


def test_denoiser_curve(tmp_path):
    assert main(["curves", "--out-dir", str(tmp_path)]) == 0
    with open(tmp_path / "denoiser_curve.csv") as fh:
        rows = list(csv.DictReader(fh))
    # nosi, then the SI magnitudes 1e-7 and 1e-3, each on one 501-point grid
    assert [(r["variant"], float(r["prev_abs"])) for r in rows[::501]] == [
        ("nosi", 0.0), ("si", 1e-7), ("si", 1e-3)]
    assert len(rows) == 3 * 501


def test_detector_curve(tmp_path, capsys):
    assert main(["curves", "--out-dir", str(tmp_path)]) == 0
    with open(tmp_path / "threshold_curve.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 501
    values = np.array([float(r["threshold_si"]) for r in rows])
    assert np.all(np.diff(values) <= 0)
    assert capsys.readouterr().out.splitlines()[-1] == (
        "limits: lower=1.3259647435722055e-11 upper=4.0905720560629837e-11")


@pytest.mark.parametrize("argv", [
    ["curves", "--points", "5"],
    # the two commands `curves` replaced
    ["denoiser-curve"],
    ["detector-curve"],
], ids=lambda argv: " ".join(argv))
def test_curves_take_no_tuning_flags(argv, tmp_path, capsys):
    # the curves plot one example family on one grid: a usage error
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_dump_traces(tiny_config, tmp_path):
    out = tmp_path / "traces_out"
    assert main(["dump-traces", str(tiny_config), "--out-dir", str(out)]) == 0
    with open(out / "traces.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 60 * 2


def test_dump_traces_lf_and_exact(tiny_config, tmp_path):
    # every CSV ends its lines in LF alone, and the channels of simulate's
    # trial 0 read back exactly
    out = tmp_path / "traces_out"
    assert main(["dump-traces", str(tiny_config), "--out-dir", str(out)]) == 0
    data = (out / "traces.csv").read_bytes()
    assert b"\r" not in data
    rows = list(csv.DictReader(data.decode().splitlines()))
    realization = generate_scenario(experiment.trial_config(
        experiment.parse_config(tiny_config).scenario, 0))
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


def traced_run(source, tiny_config):
    """The source flags of a trace command, and the spec `simulate` runs
    from them: the tiny config, or a desk preset at 2 trials."""
    if source == "tiny":
        return [str(tiny_config)], experiment.parse_config(tiny_config)
    return (["--preset", source],
            experiment.spec_from_options({"preset": source, "num_trials": 2}))


@pytest.mark.parametrize("source", ["tiny", "fig3-desk", "fig4-desk"])
def test_amp_trace_is_simulate_trial_0(source, tiny_config, tmp_path):
    # amp-trace traces the blocks simulate's trial 0 ran, under each variant:
    # a block's last tau, its row count and its converged flag are that
    # trial's tau_final, iters_used and converged, bit for bit
    argv, spec = traced_run(source, tiny_config)
    assert main(["amp-trace", *argv, "--out-dir", str(tmp_path)]) == 0
    with open(tmp_path / "amp_trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    per_trial = experiment.run_experiment(spec).per_trial
    assert {row["variant"] for row in rows} == set(per_trial)
    for variant, data in per_trial.items():
        for j in range(spec.scenario.num_blocks):
            block = [row for row in rows if row["variant"] == variant
                     and row["block"] == str(j + 1)]
            assert [int(row["iter"]) for row in block] == list(
                range(1, len(block) + 1))
            assert len(block) == data["iters_used"][0, j]
            assert float(block[-1]["tau"]) == data["tau_final"][0, j]
            assert {row["converged"] for row in block} == {
                str(int(data["converged"][0, j]))}


@pytest.mark.parametrize("source", ["tiny", "fig3-desk", "fig4-desk"])
def test_dump_traces_is_simulate_trial_0(source, tiny_config, tmp_path):
    # the dumped activity is the truth of simulate's trial 0
    argv, spec = traced_run(source, tiny_config)
    assert main(["dump-traces", *argv, "--out-dir", str(tmp_path)]) == 0
    with open(tmp_path / "traces.csv", newline="") as fh:
        active = np.array([int(row["active"]) for row in csv.DictReader(fh)])
    active = active.reshape(spec.scenario.num_blocks, -1)
    truth = generate_scenario(experiment.trial_config(spec.scenario, 0))
    np.testing.assert_array_equal(
        active, [block.activity.astype(int) for block in truth.blocks])
    np.testing.assert_array_equal(
        active.sum(axis=1),
        experiment.run_experiment(spec).per_trial["si"]["n_active"][0])


def test_oracle_check_passes(capsys):
    assert main(["oracle-check", "--samples", "300", "--seed", "3"]) == 0
    assert "oracle-check: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["oracle-check", "--samples", "0"],
    ["oracle-check", "--seed", "-1"],
], ids=lambda argv: " ".join(argv))
def test_bad_flag_is_error(argv, capsys):
    # rejected before any sample is drawn, with a one-line reason
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "PASS" not in captured.out


def test_missing_config_is_error(capsys):
    assert main(["simulate"]) == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_config_nonzero_exit(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("num_devices = 10\npilot_length = 5\ngamma = 1\n"
                    "persistence = 0.1\nactivity_rate = 1.9\n")
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
                        "persistence = 0.1\n"
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


@pytest.mark.parametrize("command", ["dump-traces", "simulate"])
@pytest.mark.parametrize("key", ["gamma", "noise_variance"])
def test_power_below_floor_is_error(command, key, tiny_config, tmp_path,
                                    capsys):
    # below 2^-1000 intermediates approach the subnormal range, where
    # scaling every power by 4^k stops being exact; such a power is
    # rejected under the name it uses
    set_key(tiny_config, key, repr(float(np.nextafter(2.0 ** -1000, 0.0))))
    out = tmp_path / "out"
    assert main([command, str(tiny_config), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid configuration:\n  - {key} must be "
                          "at least 2^-1000")
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


@pytest.mark.parametrize("case", ["missing", "directory", "non-utf8",
                                  "out-dir-under-file",
                                  "file-out-dir-under-file"])
def test_unusable_path_is_error(case, tiny_config, tmp_path, capsys,
                                monkeypatch):
    # an unreadable config file or an output directory that cannot be made,
    # given by --out-dir or by the config file, is named before any trial
    # runs, with no traceback, and nothing is created
    def never(spec):
        raise AssertionError("run_experiment was called")
    monkeypatch.setattr(cli, "run_experiment", never)
    under_file = case.endswith("out-dir-under-file")
    out = tiny_config / "out" if under_file else tmp_path / "out"
    config = {"missing": tmp_path / "missing.cfg", "directory": tmp_path,
              "non-utf8": tmp_path / "latin.cfg",
              "file-out-dir-under-file": tmp_path / "out-dir.cfg"
              }.get(case, tiny_config)
    flags = ["--out-dir", str(out)]
    if case == "non-utf8":
        config.write_bytes(tiny_config.read_bytes() + b"# \xff\n")
    elif case == "file-out-dir-under-file":
        config.write_text(tiny_config.read_text() + f"out_dir = {out}\n")
        flags = []
    assert main(["simulate", str(config), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert str(tiny_config if under_file else config) in err
    assert not os.path.exists(out)


def test_os_error_is_error(tiny_config, tmp_path, capsys, monkeypatch):
    # a file that cannot be written is reported, not raised
    def full(out_dir, tables):
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(cli, "write_tables", full)
    assert main(["dump-traces", str(tiny_config),
                 "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: [Errno 28] No space left on device\n")


def test_failed_trials_are_error(tiny_config, tmp_path, capsys, monkeypatch):
    # more than 10% of the trials failed: the run stops with the reason
    # and writes nothing
    run = experiment.run_trial_variants

    def failing(config):
        raise NonFiniteState("diverged")
    monkeypatch.setattr(experiment, "run_trial_variants", failing)
    out = tmp_path / "out"
    assert main(["simulate", str(tiny_config), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 3/3 trials failed: trial 0: "
                          "NonFiniteState: diverged; trial 1: ")
    assert not out.exists()

    # one failure in ten is recorded in metadata.json, with the trial
    # index, the exception type and the message apart
    def one_failing(config):
        if config.rng_seed == experiment.trial_seed(5, 1):
            raise NonFiniteState("diverged")
        return run(config)
    monkeypatch.setattr(experiment, "run_trial_variants", one_failing)
    assert main(["simulate", str(tiny_config), "--trials", "10",
                 "--out-dir", str(out)]) == 0
    with open(out / "metadata.json") as fh:
        assert json.load(fh)["failures"] == [{
            "trial": 1, "error_type": "NonFiniteState",
            "message": "diverged"}]


def test_preset_flag(tmp_path):
    out = tmp_path / "preset_out"
    code = main(["simulate", "--preset", "fig3-desk", "--trials", "2",
                 "--out-dir", str(out), "--seed", "9"])
    assert code == 0
    assert os.path.exists(out / "roc.csv")


@pytest.mark.parametrize("command,flag,value", [
    *(pytest.param(command, flag, "2", id=f"{flag}-{command}")
      for flag in ("--trials", "--parallelism")
      for command in ("se-trace", "dump-traces", "amp-trace")),
    # amp-trace writes both variants
    pytest.param("amp-trace", "--variant", "si", id="--variant-amp-trace"),
])
def test_trial_flags_only_for_simulate(command, flag, value, tiny_config,
                                       tmp_path, capsys):
    # the other commands run no trials; the flag was read, then ignored
    # (--parallelism) or checked against a run that never happens (--trials)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, str(tiny_config), flag, value, "--out-dir", str(out)])
    assert exc.value.code == 2
    assert (f"unrecognized arguments: {flag} {value}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_simulate_takes_trial_flags(tiny_config, tmp_path, capsys):
    assert main(["simulate", str(tiny_config), "--trials", "2",
                 "--parallelism", "1", "--out-dir", str(tmp_path)]) == 0
    assert "completed 2 trials" in capsys.readouterr().out


def run_python(code, *args):
    """Standard output of `code` run with `args` in a fresh interpreter
    that imports siamp from these sources."""
    src = os.path.dirname(os.path.dirname(siamp.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          check=True, capture_output=True, text=True).stdout


def test_simulate_leaves_numpy_ma_unloaded(tiny_config, tmp_path):
    # np.median imports numpy.ma (about 0.5 MB) on first use; a run takes
    # its median without it
    code = ("import sys\n"
            "from siamp.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    out = run_python(code, "simulate", str(tiny_config), "--out-dir",
                     str(tmp_path))
    assert out.splitlines()[-1] == "False"


def test_runtime_imports_no_scipy():
    # numpy is the one runtime dependency: the CLI and a preset spec load
    # no scipy module in a fresh interpreter
    code = ("import sys\n"
            "import siamp.cli\n"
            "from siamp.experiment import spec_from_options\n"
            "spec_from_options({'preset': 'fig3-desk'})\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))\n")
    assert run_python(code).strip() == "[]"


def test_import_siamp_loads_nothing():
    # the package root holds its docstring and version only: every name is
    # imported from the module that defines it
    code = ("import sys\n"
            "import siamp\n"
            "print(sorted(m for m in sys.modules if m == 'numpy'\n"
            "             or m.startswith(('numpy.', 'siamp.'))))\n")
    assert run_python(code).strip() == "[]"


@pytest.mark.parametrize("flag", [False, True], ids=["file", "flag"])
def test_config_out_dir(flag, tiny_config, tmp_path):
    # a config file's out_dir line sets where simulate writes, and
    # --out-dir wins over it
    from_file, from_flag = tmp_path / "from-file", tmp_path / "from-flag"
    tiny_config.write_text(tiny_config.read_text()
                           + f"out_dir = {from_file}\n")
    argv = ["simulate", str(tiny_config), "--trials", "2"]
    assert main(argv + (["--out-dir", str(from_flag)] if flag else [])) == 0
    written, unused = ((from_flag, from_file) if flag
                       else (from_file, from_flag))
    for name in SIMULATE_OUTPUTS:
        assert (written / name).exists()
    assert not unused.exists()
