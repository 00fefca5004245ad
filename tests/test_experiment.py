import csv
import functools
import json
import math
import os
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siamp import amp, experiment, model
from siamp.errors import (NonFiniteState, ParseError, SiAmpError,
                          ValidationError)
from siamp.experiment import (_run_trial_counts, annulus_gains,
                              chained_se_traces, default_l_grid,
                              denoiser_response_curve,
                              detector_threshold_curve, emit_csv, parse_config,
                              run_experiment, spec_from_options, trial_seed)
from siamp.streams import substream


def desk_options(**overrides):
    opts = {"num_devices": "60", "pilot_length": "24", "num_antennas": "1",
            "num_blocks": "2", "activity_rate": "0.1", "persistence": "0.46",
            "gamma": "1.0", "noise_variance": "0.1", "rng_seed": "5",
            "num_trials": "4", "l_grid": "-10:10:21"}
    opts.update(overrides)
    return opts


class TestParseConfig:
    def test_fig3_preset_fields(self):
        spec = spec_from_options({"preset": "paper-fig3"})
        sc = spec.scenario
        assert (sc.num_devices, sc.pilot_length, sc.num_antennas,
                sc.num_blocks) == (4000, 600, 1, 10)
        assert sc.activity_rate == 0.1 and sc.persistence == 0.46
        assert sc.beta == pytest.approx(0.06, abs=1e-15)
        assert sc.noise_variance == 1.0  # normalized to the thermal floor
        assert sc.path_losses.shape == (4000,)
        # 23 dBm over the -99 dBm thermal floor at the 1 km edge
        assert sc.path_losses.min() == pytest.approx(
            10 ** ((23 - 128.1 + 99) / 10), rel=0.5)

    def test_fig4_preset_fields(self):
        spec = spec_from_options({"preset": "paper-fig4"})
        assert spec.scenario.num_antennas == 2
        assert spec.scenario.pilot_length == 500
        assert spec.scenario.num_devices == 4000

    def test_beta_out_of_range_collected(self):
        with pytest.raises(ValidationError) as exc:
            spec_from_options(desk_options(activity_rate="0.7",
                                           persistence="0.5"))
        assert any("beta" in v for v in exc.value.violations)

    def test_all_violations_reported(self):
        with pytest.raises(ValidationError) as exc:
            spec_from_options(desk_options(activity_rate="1.7",
                                           noise_variance="-2",
                                           num_trials="0"))
        assert len(exc.value.violations) >= 3

    def test_config_file_roundtrip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# comment line\n"
            "num_devices = 60\n"
            "pilot_length = 24\n"
            "gamma = 1.0   # inline comment\n"
            "persistence = 0.1\n"
            "num_trials = 4\n"
            "l_grid = -5,0,5\n")
        spec = parse_config(path)
        assert spec.scenario.num_devices == 60
        np.testing.assert_array_equal(spec.l_grid, [-5.0, 0.0, 5.0])

    def test_unknown_key_is_parse_error(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("num_devices = 60\nbogus_key = 1\n")
        with pytest.raises(ParseError, match="bogus_key"):
            parse_config(path)

    def test_out_dir_is_not_an_option(self):
        # the output directory is the command line's: the CLI reads a
        # config file's out_dir line itself, and a spec has none
        with pytest.raises(ParseError, match="unknown key 'out_dir'"):
            spec_from_options({"preset": "fig3-desk", "out_dir": "out"})

    @pytest.mark.parametrize("key, value", [
        ("amp_max_iters", "50"), ("amp_convergence_tol", "1e-6"),
        ("cell_radius_km", "1.0"), ("min_radius_km", "0.05"),
        ("tx_power_dbm", "23"), ("noise_psd_dbm_hz", "-169"),
        ("bandwidth_hz", "1e7"), ("variants", "si,nosi")])
    def test_fixed_constant_key_is_parse_error(self, tmp_path, key, value):
        # the AMP stopping rule, the cell and the compared variants are
        # constants, not options
        path = tmp_path / "exp.cfg"
        path.write_text(f"preset = fig3-desk\n{key} = {value}\n")
        with pytest.raises(ParseError, match=key):
            parse_config(path)

    @pytest.mark.parametrize("key", ["gamma", "noise_variance"])
    def test_annulus_rejects_option_it_ignores(self, key):
        # annulus placement draws the gains and fixes the noise variance
        with pytest.raises(ValidationError) as exc:
            spec_from_options({"preset": "fig3-desk", key: "5"})
        assert any(key in v for v in exc.value.violations)

    @pytest.mark.parametrize(
        "path", sorted(Path(__file__).parent.parent.glob("configs/*.cfg")),
        ids=lambda p: p.name)
    def test_shipped_config_loads(self, path):
        spec = parse_config(path)
        assert spec.num_trials >= 1

    def test_bad_value_reports_field(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("num_devices = sixty\npilot_length = 24\ngamma = 1\n")
        with pytest.raises(ParseError, match="num_devices"):
            parse_config(path)

    def test_missing_required_fields(self):
        with pytest.raises(ValidationError) as exc:
            spec_from_options({"gamma": "1.0"})
        assert exc.value.violations == [
            f"missing required field {key!r}"
            for key in ("num_devices", "pilot_length", "persistence")]
        # persistence sets what the side information is worth, so no
        # default stands in for it, even in an otherwise complete config
        options = desk_options()
        del options["persistence"]
        with pytest.raises(ValidationError) as exc:
            spec_from_options(options)
        assert exc.value.violations == ["missing required field 'persistence'"]

    def test_unknown_preset(self):
        with pytest.raises(ParseError, match="unknown preset"):
            spec_from_options({"preset": "fig9"})

    def test_single_se_sample_rejected(self):
        # the standard error of one sample is undefined
        with pytest.raises(ValidationError) as exc:
            spec_from_options(desk_options(se_sample_count="1"))
        assert any("se_sample_count" in v for v in exc.value.violations)

    @pytest.mark.parametrize("placement", [{"preset": "fig3-desk"},
                                           {"gamma": "1.0",
                                            "persistence": "0.1"}],
                             ids=["annulus", "gamma"])
    def test_count_and_seed_checked_before_gains_are_built(self, placement):
        # a negative device count or seed cannot size or seed the gains:
        # both are reported as violations, and nothing else is
        with pytest.raises(ValidationError) as exc:
            spec_from_options({**placement, "num_devices": "-5",
                               "pilot_length": "10", "rng_seed": "-1"})
        assert sorted(exc.value.violations) == [
            "num_devices must be a positive count",
            "rng_seed must be nonnegative, got -1"]

    @pytest.mark.parametrize("key, value", [
        ("num_devices", 40.0), ("pilot_length", 2.5), ("num_antennas", True),
        ("num_blocks", True), ("rng_seed", 1.5), ("num_trials", 2.5),
        ("parallelism", np.float64(1.0)), ("se_sample_count", 2000.0)])
    def test_count_or_seed_not_an_integer_rejected(self, key, value):
        # typed options are taken as they are: a float or bool count would
        # fail late, and a float seed would run truncated
        with pytest.raises(ValidationError) as exc:
            spec_from_options(desk_options(**{key: value}))
        assert exc.value.violations == [
            f"{key} must be an integer, got {value!r}"]
        spec = spec_from_options(desk_options())
        if hasattr(spec.scenario, key):
            built = replace(spec, scenario=replace(spec.scenario,
                                                   **{key: value}))
        else:
            built = replace(spec, **{key: value})
        with pytest.raises(ValidationError, match=key):
            built.validate()

    def test_numpy_integer_counts_run(self):
        typed = {key: np.int64(desk_options()[key])
                 for key in ("num_devices", "pilot_length", "num_antennas",
                             "num_blocks", "rng_seed")}
        typed.update(num_trials=np.int64(2), parallelism=np.int64(1),
                     se_sample_count=np.int64(200))
        spec = spec_from_options(desk_options(**typed))
        again = spec_from_options(desk_options(num_trials="2",
                                               se_sample_count="200"))
        got, want = run_experiment(spec), run_experiment(again)
        for variant in spec.variants:
            for a, b in zip(got.curves[variant], want.curves[variant],
                            strict=True):
                np.testing.assert_array_equal(a.p_md, b.p_md)

    @pytest.mark.parametrize("grid", [
        "20:-20:81", "0,nan",
        # values built in code: the grid must be one row of levels
        pytest.param([[0, 1], [2, 3]], id="2-D"),
        pytest.param(0.5, id="scalar"),
    ])
    def test_unordered_or_nonfinite_l_grid_rejected(self, grid):
        # per-trial rates are interpolated in l, which needs an increasing
        # 1-D grid
        with pytest.raises(ValidationError) as exc:
            spec_from_options(desk_options(l_grid=grid))
        assert any("l_grid" in v for v in exc.value.violations)


class TestAnnulusGains:
    def test_radius_bounds_respected(self):
        gains = annulus_gains(5000, substream(0, "place"))
        hi = 10 ** ((23 - 30) / 10) * 10 ** ((-128.1 - 36.7 * np.log10(0.05)) / 10) \
            / (10 ** ((-169 - 30) / 10) * 1e7)
        lo = 10 ** ((23 - 30) / 10) * 10 ** (-128.1 / 10) \
            / (10 ** ((-169 - 30) / 10) * 1e7)
        assert gains.max() <= hi * (1 + 1e-9)
        assert gains.min() >= lo * (1 - 1e-9)

    def test_uniform_area_density(self):
        rng = substream(1, "place")
        gains = annulus_gains(200_000, rng)
        # invert the path-loss law back to distance and test r^2 uniformity
        tx = 10 ** ((23 - 30) / 10)
        noise = 10 ** ((-169 - 30) / 10) * 1e7
        loss_db = 10 * np.log10(gains * noise / tx)
        d = 10 ** ((-128.1 - loss_db) / 36.7)
        u = (d ** 2 - 0.05 ** 2) / (1.0 ** 2 - 0.05 ** 2)
        counts, _ = np.histogram(u, bins=10, range=(0, 1))
        assert counts.min() > 0.95 * len(u) / 10


class TestRunExperiment:
    def test_single_trial_single_block(self):
        spec = spec_from_options(desk_options(num_blocks="1", num_trials="1"))
        result = run_experiment(spec)
        assert list(result.curves) == ["si", "nosi"]
        for curves in result.curves.values():
            assert len(curves) == 1
            assert curves[0].num_trials == 1

    def test_parallel_matches_serial(self):
        spec = spec_from_options(desk_options())
        serial = run_experiment(replace(spec, parallelism=1))
        parallel = run_experiment(replace(spec, parallelism=3))
        for variant in spec.variants:
            for a, b in zip(serial.curves[variant], parallel.curves[variant]):
                np.testing.assert_array_equal(a.p_fa, b.p_fa)
                np.testing.assert_array_equal(a.p_md, b.p_md)
                np.testing.assert_array_equal(a.se_p_md, b.se_p_md)

    def test_one_scenario_and_shared_first_block_per_trial(self, monkeypatch):
        calls = {"generate_scenario": 0, "run_trial": 0, "run_blocks": 0,
                 "sweep_block_counts": 0}
        estimated = []  # blocks per call of the AMP kernel

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                if name == "run_blocks":
                    estimated.append(len(args[0]))
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(model, "generate_scenario")
        counted(amp, "run_trial")
        counted(amp, "run_blocks")
        counted(experiment, "sweep_block_counts")
        spec = spec_from_options(desk_options(num_blocks="3"))
        out, error = _run_trial_counts((spec, 0))
        assert error is None and set(out) == set(spec.variants)
        assert calls["generate_scenario"] == 1
        assert calls["run_trial"] == len(spec.variants)
        # block 1 has no side information under either variant, so it is
        # estimated once: one nosi batch of 3 blocks, then one kernel call
        # per later si block; every variant sweeps every block
        assert estimated == [3, 1, 1]
        assert sum(estimated) == 3 * len(spec.variants) - 1
        assert calls["sweep_block_counts"] == 3 * len(spec.variants)
        first = out[spec.variants[0]]
        for variant in spec.variants[1:]:
            for key in ("fa", "md", "n_inactive", "n_active", "nmse",
                        "tau_final", "iters_used", "converged"):
                np.testing.assert_array_equal(out[variant][key][0],
                                              first[key][0])

    def test_per_trial_keeps_stopping_rule(self):
        spec = spec_from_options(desk_options(num_blocks="3", num_trials="3"))
        result = run_experiment(spec)
        for k in range(spec.num_trials):
            config = replace(spec.scenario, rng_seed=trial_seed(
                spec.scenario.rng_seed, k))
            for trial in amp.run_trial_variants(config):
                data = result.per_trial[trial.variant]
                assert data["iters_used"].shape == (3, 3)
                assert data["converged"].dtype == bool
                # counts are at most num_devices (MAX_ITERS for iterations)
                for key in ("fa", "md", "n_inactive", "n_active"):
                    assert data[key].dtype == experiment.count_dtype(
                        spec.scenario.num_devices), key
                assert data["iters_used"].dtype == experiment.count_dtype(
                    amp.MAX_ITERS)
                assert data["iters_used"][k].tolist() == [
                    block.iters_used for block in trial.blocks]
                assert data["converged"][k].tolist() == [
                    block.converged for block in trial.blocks]

    def test_nosi_fixed_point_solved_once(self, monkeypatch):
        solved = []
        solve = experiment.se_fixed_point

        def counted(*args, **kwargs):
            solved.append(solve(*args, **kwargs))
            return solved[-1]

        spec = spec_from_options(desk_options(num_blocks="4",
                                              se_sample_count="2000"))
        monkeypatch.setattr(experiment, "se_fixed_point", counted)
        traces = chained_se_traces(spec)
        monkeypatch.undo()
        # one nosi recursion plus one si recursion per slot after the first
        assert len(solved) == spec.scenario.num_blocks
        nosi = traces["nosi"][0]
        assert all(t is nosi for t in traces["nosi"])
        assert traces["si"][0] is nosi
        assert traces["si"][1:] == solved[1:]

    def _fail_one_trial(self, monkeypatch, exc):
        run = experiment.run_trial_variants
        calls = []

        def failing(config):
            calls.append(config.rng_seed)
            if len(calls) == 2:
                raise exc
            return run(config)
        monkeypatch.setattr(experiment, "run_trial_variants", failing)

    def test_non_library_error_propagates(self, monkeypatch):
        self._fail_one_trial(monkeypatch, TypeError("bug"))
        with pytest.raises(TypeError, match="bug"):
            run_experiment(spec_from_options(desk_options(num_trials="10")))

    def test_library_error_recorded_and_trial_skipped(self, monkeypatch,
                                                      tmp_path):
        self._fail_one_trial(monkeypatch, NonFiniteState("diverged"))
        spec = spec_from_options(desk_options(num_trials="10"))
        result = run_experiment(spec)
        monkeypatch.undo()
        assert result.failures == [{"trial": 1,
                                    "error_type": "NonFiniteState",
                                    "message": "diverged"}]
        # metadata.json gives the reason of every failed trial
        with open(emit_csv(result, tmp_path)["metadata"]) as fh:
            assert json.load(fh)["failures"] == result.failures
        assert result.metadata["completed_trials"] == 9
        # the completed trials fill the rows in trial order, trial 1 skipped
        expected = [_run_trial_counts((spec, i))[0] for i in range(10) if i != 1]
        for variant in result.spec.variants:
            assert result.per_trial[variant]["nmse"].shape[0] == 9
            assert result.curves[variant][0].num_trials == 9
            for key, rows in result.per_trial[variant].items():
                np.testing.assert_array_equal(
                    rows, np.stack([trial[variant][key] for trial in expected]),
                    strict=True, err_msg=f"{variant} {key}")

    def test_too_many_failures_is_library_error(self, monkeypatch):
        def failing(config):
            raise NonFiniteState("diverged")
        monkeypatch.setattr(experiment, "run_trial_variants", failing)
        with pytest.raises(SiAmpError, match="4/4 trials failed"):
            run_experiment(spec_from_options(desk_options()))

    def test_trial_seeds_distinct_and_stable(self):
        seeds = [trial_seed(5, i) for i in range(100)]
        assert len(set(seeds)) == 100
        assert seeds[:3] == [trial_seed(5, i) for i in range(3)]

    def test_csv_roundtrip_exact(self, tmp_path):
        spec = spec_from_options(desk_options(num_trials="3"))
        result = run_experiment(spec)
        paths = emit_csv(result, tmp_path)
        loaded = {}
        with open(paths["roc"], newline="") as fh:
            for row in csv.DictReader(fh):
                entry = loaded.setdefault((int(row["slot_j"]), row["variant"]),
                                          {"p_fa": [], "p_md": [], "se_p_md": []})
                for key, column in (("p_fa", "P_FA"), ("p_md", "P_MD"),
                                    ("se_p_md", "se_P_MD")):
                    entry[key].append(float(row[column]))
        for variant in spec.variants:
            for j, curve in enumerate(result.curves[variant]):
                entry = {k: np.array(v) for k, v in loaded[(j + 1, variant)].items()}
                np.testing.assert_array_equal(entry["p_fa"], curve.p_fa)
                np.testing.assert_array_equal(entry["p_md"], curve.p_md)
                nan_mask = np.isnan(curve.se_p_md)
                np.testing.assert_array_equal(entry["se_p_md"][~nan_mask],
                                              curve.se_p_md[~nan_mask])

    def test_csv_schema(self, tmp_path):
        spec = spec_from_options(desk_options(num_trials="2"))
        result = run_experiment(spec)
        paths = emit_csv(result, tmp_path)
        with open(paths["roc"]) as fh:
            header = fh.readline().strip().split(",")
            assert header == ["slot_j", "variant", "l", "P_FA", "P_MD",
                              "trials", "se_P_FA", "se_P_MD"]
            rows = fh.readlines()
        expected = len(spec.variants) * spec.scenario.num_blocks * len(spec.l_grid)
        assert len(rows) == expected
        assert os.path.exists(paths["se_trace"])
        with open(paths["metadata"]) as fh:
            metadata = json.load(fh)
        # the stopping rule that produced the estimates the CSVs pool
        assert metadata["amp_max_iters"] == amp.MAX_ITERS
        assert metadata["amp_convergence_tol"] == amp.CONVERGENCE_TOL
        # the numeric environment the output bytes may depend on
        assert metadata["numpy_version"] == np.__version__
        assert set(metadata["blas"]) == {"name", "version"}
        assert metadata["blas_thread_env"] == {
            var: os.environ.get(var) for var in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        assert metadata["cpu_count"] == os.cpu_count()
        # the wall time of each phase, within the run's
        phases = metadata["phase_s"]
        assert set(phases) == {"trials", "aggregation", "state_evolution",
                               "csv"}
        assert all(value >= 0 for value in phases.values())
        assert sum(phases.values()) <= metadata["wall_time_s"]


@pytest.mark.parametrize("bound, dtype", [
    (0, np.int8), (63, np.int8), (64, np.int16),
    (1000, np.int16), (4000, np.int16), (16383, np.int16),
    (16384, np.int32), (2 ** 30 - 1, np.int32), (2 ** 30, np.int64)])
def test_count_dtype_holds_twice_the_bound(bound, dtype):
    # the narrowest signed type in which the sum and the paired difference
    # of two counts up to the bound stay exact
    assert experiment.count_dtype(bound) == dtype
    counts = np.array([0, bound], dtype=experiment.count_dtype(bound))
    assert (counts + counts)[1] == 2 * bound
    assert (counts - counts[::-1]).tolist() == [-bound, bound]


def test_desk_and_paper_counts_are_int16():
    for preset in ("fig3-desk", "paper-fig3"):
        spec = spec_from_options({"preset": preset})
        assert experiment.count_dtype(spec.scenario.num_devices) == np.int16


@pytest.mark.parametrize("size", [1, 2, 999, 1000])
def test_median_is_numpy_median(size):
    # np.median's value by its own arithmetic, for odd and even sizes
    gains = annulus_gains(size, substream(4, "placement"))
    assert experiment._median(gains) == float(np.median(gains))


@pytest.mark.slow
def test_per_trial_memory_is_the_counts():
    # trial outcomes are written into arrays allocated once, with no second
    # copy: each added trial grows the traced peak by at most 1.5x its
    # int32 count bytes, 2 variants x (fa and md over the l grid, plus
    # n_inactive, n_active and iters_used) per slot
    options = {"num_devices": "40", "pilot_length": "20", "num_blocks": "5",
               "persistence": "0.1", "gamma": "1.0", "noise_variance": "0.1",
               "se_sample_count": "2000"}

    def peak(trials):
        spec = spec_from_options({**options, "num_trials": str(trials)})
        tracemalloc.start()
        try:
            run_experiment(spec)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    slots, levels = 5, len(default_l_grid())
    count_bytes = len(experiment.VARIANTS) * (2 * slots * levels + 3 * slots) * 4
    growth = (peak(400) - peak(100)) / 300
    assert growth <= 1.5 * count_bytes, (growth, count_bytes)


@pytest.mark.slow
def test_memoryless_chain_si_matches_nosi():
    # at persistence = activity rate the previous block carries no
    # information: the SI log-odds are exactly 0, so si and nosi differ
    # only by rounding (si blocks run alone, nosi blocks as one wide
    # batch), by at most one device per block and level
    spec = spec_from_options({"preset": "fig3-desk", "persistence": "0.1",
                              "rng_seed": "5", "num_trials": "24",
                              "se_sample_count": "2000"})
    assert model.beta_from(0.1, 0.1) == 0.1 == spec.scenario.beta
    result = run_experiment(spec)
    assert result.failures == []
    si, nosi = result.per_trial["si"], result.per_trial["nosi"]
    for key in ("n_inactive", "n_active"):
        np.testing.assert_array_equal(si[key], nosi[key])
    for key in ("fa", "md"):
        assert np.abs(si[key] - nosi[key]).max() <= 1, key
    np.testing.assert_allclose(si["nmse"], nosi["nmse"], rtol=1e-12)
    for a, b in zip(result.se_traces["si"], result.se_traces["nosi"],
                    strict=True):
        np.testing.assert_array_equal(a.tau_sq, b.tau_sq)


class TestCurves:
    def test_denoiser_curve_zero_region_shrinks_with_evidence(self):
        grid = np.linspace(0, 2e-5, 501)
        _, rows = denoiser_response_curve(
            gamma=1e-8, tau=2e-6, tau_prev=2e-6, lam=0.1, alpha=0.91, beta=0.01,
            num_antennas=1, prev_magnitudes=[1e-7, 1e-3], grid=grid)
        def first_alive(prev_mag, variant):
            xs = [r[2] for r in rows if r[0] == variant and r[1] == prev_mag]
            ys = [r[3] for r in rows if r[0] == variant and r[1] == prev_mag]
            for x, y in zip(xs, ys):
                if x > 0 and y > 1e-3 * x:
                    return x
            return np.inf

        weak = first_alive(1e-7, "si")
        strong = first_alive(1e-3, "si")
        nosi = first_alive(0.0, "nosi")
        assert strong < nosi < weak

    def test_threshold_curve_monotone_and_bracketed(self):
        prev_grid = np.linspace(0, 2e-5, 401)
        (_, rows), lower, upper = detector_threshold_curve(
            gamma=1e-8, tau=2e-6, tau_prev=2e-6, alpha=0.91, beta=0.01,
            num_antennas=1, l=0.0, prev_grid=prev_grid)
        values = np.array([r[1] for r in rows])
        assert np.all(np.diff(values) <= 1e-25)
        assert np.all(values <= upper + 1e-25)
        assert np.all(values >= lower - 1e-25)
        assert lower < upper

    def test_default_l_grid_nonempty_and_sorted(self):
        grid = default_l_grid()
        assert grid.size > 0
        assert np.all(np.diff(grid) > 0)


def pmd_at_targets(curve, targets):
    """Pooled P_MD and its standard error at each target P_FA, linear in
    P_FA between the sweep points."""
    order = np.argsort(curve.p_fa, kind="stable")
    p_fa = curve.p_fa[order]
    return (np.interp(targets, p_fa, curve.p_md[order]),
            np.interp(targets, p_fa, curve.se_p_md[order]))


@pytest.mark.slow
@pytest.mark.parametrize("preset", ["fig3-desk", "fig4-desk"])
def test_stopping_rule_keeps_detection_quality(preset, monkeypatch):
    # the shipped convergence tolerance against a 1e-6 run of the same
    # trials: detection and NMSE must not see the difference, and the
    # iterations it saves must be there
    spec = spec_from_options({"preset": preset, "rng_seed": 3,
                              "num_trials": 24})
    shipped = run_experiment(spec)
    monkeypatch.setattr(amp, "CONVERGENCE_TOL", 1e-6)
    tight = run_experiment(spec)
    targets = [0.01, 0.05, 0.1]
    for variant in spec.variants:
        for ours, ref in zip(shipped.curves[variant], tight.curves[variant]):
            p_md, _ = pmd_at_targets(ours, targets)
            p_md_ref, se_ref = pmd_at_targets(ref, targets)
            assert np.all(np.abs(p_md - p_md_ref) <= 0.25 * se_ref)
        nmse = np.nanmean(shipped.per_trial[variant]["nmse"], axis=0)
        nmse_ref = np.nanmean(tight.per_trial[variant]["nmse"], axis=0)
        np.testing.assert_allclose(nmse, nmse_ref, rtol=0.01)
    iters = sum(data["iters_used"].sum() for data in shipped.per_trial.values())
    iters_ref = sum(data["iters_used"].sum()
                    for data in tight.per_trial.values())
    assert iters <= 0.6 * iters_ref


@pytest.mark.slow
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 6: oscillating AMP blocks stop at "
                          "MAX_ITERS until damping lands")
@pytest.mark.parametrize("preset", ["fig3-desk", "fig4-desk"])
def test_every_desk_block_run_converges(preset):
    # the 9 distinct block runs of each trial, nosi slots 1-5 and si slots
    # 2-5 (si slot 1 is nosi's block 1), on trials 0-59 of the preset seed
    result = run_experiment(spec_from_options({"preset": preset,
                                               "num_trials": 60}))
    stuck = []
    for variant, first_slot in (("nosi", 1), ("si", 2)):
        converged = result.per_trial[variant]["converged"][:, first_slot - 1:]
        for trial, j in zip(*np.nonzero(~converged)):
            stuck.append(f"trial {trial} {variant} slot {j + first_slot}")
    assert stuck == []


@st.composite
def config_options(draw):
    # the admitted ranges, powers log-uniform from the power floor 2^-1000
    # up to the power bound
    n, l = draw(st.integers(4, 79)), draw(st.integers(2, 59))
    m = draw(st.sampled_from([1, 2, 8]))
    lam = draw(st.floats(0.01, 0.6))
    persistence = draw(st.sampled_from([0.0, lam, 1.0, None]))
    if persistence is None:
        persistence = draw(st.floats(0.0, 1.0))
    top = np.log2(np.sqrt(np.finfo(float).max) / (n * l * m))

    def power():
        return 2.0 ** draw(st.floats(-1000.0, top))

    return {"num_devices": n, "pilot_length": l, "num_antennas": m,
            "num_blocks": draw(st.integers(1, 3)), "activity_rate": lam,
            "persistence": persistence, "gamma": power(),
            "noise_variance": power(), "rng_seed": draw(st.integers(0, 999)),
            "num_trials": draw(st.integers(2, 3)), "se_sample_count": 200,
            "l_grid": "-10:10:21"}


def runs_cleanly_or_is_rejected(build_spec):
    # the config either writes its outputs with no warning or stops with a
    # library error
    with warnings.catch_warnings(), tempfile.TemporaryDirectory() as out:
        warnings.simplefilter("error")
        try:
            emit_csv(run_experiment(build_spec()), out)
        except SiAmpError:
            pass


@settings(max_examples=600, deadline=None)
@given(config_options())
def test_admitted_config_runs_cleanly_or_is_rejected(options):
    runs_cleanly_or_is_rejected(lambda: spec_from_options(options))


@settings(max_examples=400, deadline=None)
@given(config_options(), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
def test_config_built_in_code_runs_cleanly_or_is_rejected(options, spread,
                                                          gain_seed):
    # the same ranges, with no config file in between: per-device gains
    # log-uniform over up to 25 decades below the drawn gamma, and a
    # noise variance that may sit above the gain floor
    top = np.log10(options["gamma"])
    exponents = np.random.default_rng(gain_seed).uniform(
        top - 25.0 * spread, top, options["num_devices"])
    scenario = model.ScenarioConfig(
        num_devices=options["num_devices"],
        pilot_length=options["pilot_length"],
        num_antennas=options["num_antennas"],
        num_blocks=options["num_blocks"],
        activity_rate=options["activity_rate"],
        persistence=options["persistence"],
        noise_variance=options["noise_variance"],
        path_losses=10.0 ** exponents, rng_seed=options["rng_seed"])
    runs_cleanly_or_is_rejected(lambda: experiment.ExperimentSpec(
        scenario=scenario, num_trials=options["num_trials"],
        l_grid=np.linspace(-10.0, 10.0, 21), parallelism=1,
        se_sample_count=options["se_sample_count"]))


# a small annulus run whose gains and noise variance are scaled by 4^k
SCALING_SPEC = spec_from_options({
    "num_devices": "60", "pilot_length": "20", "num_antennas": "2",
    "num_blocks": "3", "activity_rate": "0.1", "persistence": "0.46",
    "placement": "annulus", "rng_seed": "3", "num_trials": "3",
    "se_sample_count": "200", "l_grid": "-10:10:41"})
_BASE_POWERS = np.append(SCALING_SPEC.scenario.path_losses,
                         SCALING_SPEC.scenario.noise_variance)
# every k whose scaled powers stay within [2^-1000, power bound]
SCALE_K_MIN = math.ceil((-1000 - np.log2(_BASE_POWERS.min())) / 2)
SCALE_K_MAX = math.floor((np.log2(SCALING_SPEC.scenario.power_bound())
                          - np.log2(_BASE_POWERS.max())) / 2)


@functools.cache
def power_scaled_run(k):
    scenario = SCALING_SPEC.scenario
    return run_experiment(replace(SCALING_SPEC, scenario=replace(
        scenario, path_losses=scenario.path_losses * 4.0 ** k,
        noise_variance=scenario.noise_variance * 4.0 ** k)))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(SCALE_K_MIN, SCALE_K_MAX))
@example(SCALE_K_MIN)
@example(-120)
@example(SCALE_K_MAX)
def test_power_scaling_is_exact(k):
    # scaling every power by 4^k scales y, the estimates and tau by exactly
    # 2^k (the square root of a power of 4 is exact), so every detection,
    # NMSE and iteration count keeps its bits, down to the power floor
    base, scaled = power_scaled_run(0), power_scaled_run(k)
    assert scaled.failures == base.failures == []
    assert (experiment.roc_table(scaled.curves)
            == experiment.roc_table(base.curves))
    for variant in experiment.VARIANTS:
        ours, theirs = scaled.per_trial[variant], base.per_trial[variant]
        for key in ("nmse", "iters_used", "converged"):
            np.testing.assert_array_equal(ours[key], theirs[key])
        np.testing.assert_array_equal(ours["tau_final"],
                                      theirs["tau_final"] * 2.0 ** k)
        for trace, base_trace in zip(scaled.se_traces[variant],
                                     base.se_traces[variant], strict=True):
            np.testing.assert_array_equal(trace.tau_sq,
                                          base_trace.tau_sq * 4.0 ** k)
    rows = experiment.nmse_table(scaled.per_trial)[1]
    assert ([row[:4] for row in rows]
            == [row[:4] for row in experiment.nmse_table(base.per_trial)[1]])
