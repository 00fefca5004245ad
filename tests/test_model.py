import tracemalloc

import numpy as np
import pytest

from siamp.errors import DimensionMismatch, InvalidConfig
from siamp.model import (DRAW_CHUNK, ScenarioConfig, _complex_gaussian,
                         beta_from, draw_block_truth, draw_pilot_matrix,
                         generate_scenario, path_loss_linear,
                         sample_activity_trace, synthesize_block)
from siamp.streams import substream


def desk_config(**overrides):
    defaults = dict(num_devices=40, pilot_length=16, num_antennas=2,
                    num_blocks=3, activity_rate=0.1, persistence=0.46,
                    noise_variance=0.1, path_losses=np.full(40, 1.0),
                    rng_seed=123)
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestBetaFrom:
    def test_paper_operating_point(self):
        assert beta_from(0.1, 0.46) == pytest.approx(0.06, abs=1e-15)

    def test_high_persistence_point(self):
        assert beta_from(0.1, 0.91) == pytest.approx(0.01, abs=1e-15)

    def test_independence_case(self):
        # alpha equal to the marginal rate makes the chain memoryless
        assert beta_from(0.1, 0.1) == pytest.approx(0.1, abs=1e-15)

    def test_rejects_beta_above_one(self):
        with pytest.raises(InvalidConfig):
            beta_from(0.7, 0.5)

    def test_rejects_bad_marginal(self):
        with pytest.raises(InvalidConfig):
            beta_from(0.0, 0.5)
        with pytest.raises(InvalidConfig):
            beta_from(1.0, 0.5)

    def test_stationarity_identity(self):
        lam, alpha = 0.3, 0.8
        beta = beta_from(lam, alpha)
        assert alpha * lam + beta * (1 - lam) == pytest.approx(lam, abs=1e-15)


class TestPathLoss:
    def test_one_km_reference(self):
        assert path_loss_linear(1.0) == pytest.approx(10 ** (-128.1 / 10), rel=1e-12)

    def test_hundred_meters(self):
        assert path_loss_linear(0.1) == pytest.approx(10 ** (-91.4 / 10), rel=1e-12)

    def test_half_km_high_precision(self):
        # frozen from mpmath: -128.1 - 36.7*log10(0.5) evaluated at 50 digits
        expected_db = -117.05219915913189013565578256361110591760743135034
        assert 10 * np.log10(path_loss_linear(0.5)) == pytest.approx(
            expected_db, abs=1e-9)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(InvalidConfig):
            path_loss_linear(0.0)
        with pytest.raises(InvalidConfig):
            path_loss_linear(-1.0)


class TestActivityTrace:
    def test_absorbing_persistence(self):
        # alpha=1 forces beta=0: activity frozen at the first block's draw
        trace = sample_activity_trace(0.1, 1.0, 500, 6, substream(0, "act"))
        assert np.all(trace == trace[:, [0]])

    def test_independence_case_autocorrelation(self):
        trace = sample_activity_trace(0.1, 0.1, 100_000, 11, substream(1, "act"))
        a = trace[:, :-1].astype(float).ravel()
        b = trace[:, 1:].astype(float).ravel()
        corr = np.corrcoef(a, b)[0, 1]
        # lag-1 autocorrelation of a memoryless chain, ~1e6 device-blocks
        assert abs(corr) < 3.5 / np.sqrt(a.size)

    def test_marginal_and_transition_frequencies(self):
        lam, alpha = 0.1, 0.46
        beta = beta_from(lam, alpha)
        n, j = 100_000, 10
        trace = sample_activity_trace(lam, alpha, n, j, substream(2, "act"))
        marginal = trace.mean()
        sd_marginal = np.sqrt(lam * (1 - lam) / trace.size)
        assert abs(marginal - lam) < 3 * sd_marginal
        prev = trace[:, :-1].ravel()
        nxt = trace[:, 1:].ravel()
        stay = nxt[prev].mean()
        sd_stay = np.sqrt(alpha * (1 - alpha) / prev.sum())
        assert abs(stay - alpha) < 3 * sd_stay
        rise = nxt[~prev].mean()
        sd_rise = np.sqrt(beta * (1 - beta) / (~prev).sum())
        assert abs(rise - beta) < 3 * sd_rise

    def test_first_block_is_stationary(self):
        trace = sample_activity_trace(0.2, 0.7, 200_000, 1, substream(3, "act"))
        sd = np.sqrt(0.2 * 0.8 / 200_000)
        assert abs(trace.mean() - 0.2) < 3 * sd


class TestPilotsAndSynthesis:
    def test_pilot_entry_variance(self):
        pilots = draw_pilot_matrix(64, 2000, substream(4, "pil"))
        emp = np.mean(np.abs(pilots) ** 2)
        # per-entry variance 1/L, chi-square concentration over 128k entries
        assert emp == pytest.approx(1 / 64, rel=0.02)

    def test_all_inactive_zero_noise_gives_zero(self):
        rng = substream(5, "syn")
        activity = np.zeros(10, dtype=bool)
        truth = draw_block_truth(activity, np.ones(10), 3, rng)
        pilots = draw_pilot_matrix(8, 10, rng)
        block = synthesize_block(truth, pilots, 1e-300, rng)
        np.testing.assert_allclose(np.abs(block), 0.0, atol=1e-140)

    def test_single_active_device_rank_one(self):
        rng = substream(6, "syn")
        activity = np.zeros(10, dtype=bool)
        activity[4] = True
        truth = draw_block_truth(activity, np.ones(10), 3, rng)
        pilots = draw_pilot_matrix(8, 10, rng)
        block = synthesize_block(truth, pilots, 1e-300, rng)
        expected = np.outer(pilots[:, 4], truth.channels[4])
        np.testing.assert_allclose(block, expected, atol=1e-130)

    def test_received_matches_direct_sum(self):
        rng = substream(7, "syn")
        activity = rng.random(12) < 0.4
        truth = draw_block_truth(activity, rng.uniform(0.5, 2.0, 12), 2, rng)
        pilots = draw_pilot_matrix(9, 12, rng)
        noise_state = rng.bit_generator.state
        block = synthesize_block(truth, pilots, 0.3, rng)
        # replay the noise draw: real parts first, then imaginary parts
        rng.bit_generator.state = noise_state
        re = rng.standard_normal((9, 2))
        im = rng.standard_normal((9, 2))
        direct = np.sqrt(0.3 / 2) * (re + 1j * im)
        for n in range(12):
            if activity[n]:
                direct += np.outer(pilots[:, n], truth.channels[n])
        np.testing.assert_allclose(block, direct, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        rng = substream(8, "syn")
        truth = draw_block_truth(np.ones(5, dtype=bool), np.ones(5), 2, rng)
        pilots = draw_pilot_matrix(8, 6, rng)
        with pytest.raises(DimensionMismatch):
            synthesize_block(truth, pilots, 0.1, rng)


def two_call_gaussian(rng, shape, variance):
    """The draw as one `standard_normal` call per part, no chunks."""
    scale = np.sqrt(np.asarray(variance, dtype=float) / 2.0)
    out = np.empty(shape, dtype=complex)
    out.real = scale * rng.standard_normal(shape)
    out.imag = scale * rng.standard_normal(shape)
    return out


class TestChunkedDraw:
    @pytest.mark.parametrize("shape", [
        (16, 1000),  # below DRAW_CHUNK entries: one call per part
        (150, 1000),  # 3 chunks of 65 rows, the last one 20 rows
        (600, 4000),  # paper-fig3 pilots: 38 chunks of 16 rows, the last 8
        (3, DRAW_CHUNK + 1),  # a row longer than a chunk: one row per call
        (4000, 1), (4000, 2), (600, 1)])  # channels and noise
    @pytest.mark.parametrize("per_row", [False, True])
    def test_equals_two_call_draw(self, shape, per_row):
        variance = (np.linspace(0.5, 2.0, shape[0])[:, None] if per_row
                    else 1.0 / 600)
        ours, theirs = substream(3, "draw"), substream(3, "draw")
        drawn = _complex_gaussian(ours, shape, variance)
        expected = two_call_gaussian(theirs, shape, variance)
        # bit for bit, and the generator is left where the two calls leave it
        assert drawn.shape == expected.shape
        assert drawn.tobytes() == expected.tobytes()
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_paper_scale_peak_is_the_pilots(self):
        # the pilot matrix is drawn without a full-size float temporary
        # (half its bytes): the traced peak of a paper-fig3 scenario stays
        # within 2 MiB of the pilots themselves
        config = desk_config(num_devices=4000, pilot_length=600,
                             num_antennas=1, num_blocks=10,
                             path_losses=np.full(4000, 1.0))
        tracemalloc.start()
        try:
            scenario = generate_scenario(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scenario.pilots.nbytes == 600 * 4000 * 16
        assert peak < scenario.pilots.nbytes + 2 * 2 ** 20, peak


class TestScenario:
    def test_row_sparsity_exact(self):
        scenario = generate_scenario(desk_config())
        for truth in scenario.blocks:
            nonzero_rows = np.any(truth.effective_signal != 0, axis=1)
            np.testing.assert_array_equal(nonzero_rows, truth.activity)

    def test_reproducibility_bit_identical(self):
        a = generate_scenario(desk_config())
        b = generate_scenario(desk_config())
        np.testing.assert_array_equal(a.pilots, b.pilots)
        for ta, tb in zip(a.blocks, b.blocks):
            np.testing.assert_array_equal(ta.channels, tb.channels)
            np.testing.assert_array_equal(ta.activity, tb.activity)
        for ra, rb in zip(a.received, b.received):
            np.testing.assert_array_equal(ra, rb)

    def test_seed_changes_realization(self):
        a = generate_scenario(desk_config())
        b = generate_scenario(desk_config(rng_seed=124))
        assert not np.array_equal(a.pilots, b.pilots)

    def test_noise_energy(self):
        cfg = desk_config(num_devices=4, pilot_length=300, num_antennas=8,
                          num_blocks=20, noise_variance=0.37,
                          path_losses=np.full(4, 1.0))
        scenario = generate_scenario(cfg)
        z = np.concatenate([(y - scenario.pilots @ truth.effective_signal).ravel()
                            for y, truth in zip(scenario.received,
                                                scenario.blocks)])
        emp = np.mean(np.abs(z) ** 2)
        sd = 0.37 / np.sqrt(z.size)
        assert abs(emp - 0.37) < 4 * sd

    def test_config_validation_collects_errors(self):
        bad = desk_config(activity_rate=1.5, noise_variance=-1.0)
        assert len(bad.violations()) >= 2
        with pytest.raises(InvalidConfig):
            bad.validate()

    def test_gain_below_noise_floor_is_rejected(self):
        # a config built in code is held to the floor a config file is:
        # at gain/noise_variance = 1e-20 the gain rounds away in tau^2 +
        # gamma; the floor itself is admitted, the next double below not
        from siamp.amp import run_trial_variants
        from siamp.model import MIN_GAIN_TO_NOISE
        bad = desk_config(num_devices=60, path_losses=np.ones(60),
                          noise_variance=1e20)
        assert bad.violations() == [
            "path_losses must be at least 2^-40*noise_variance = 9.09495e+07, "
            "got 1.0"]
        with pytest.raises(InvalidConfig):
            bad.validate()
        with pytest.raises(InvalidConfig):
            run_trial_variants(bad)
        floor = MIN_GAIN_TO_NOISE * 0.1
        assert desk_config(path_losses=np.full(40, floor)).violations() == []
        below = np.full(40, 1.0)
        below[7] = np.nextafter(floor, 0.0)
        assert len(desk_config(path_losses=below).violations()) == 1

    def test_gain_above_noise_ceiling_is_rejected(self):
        # at gain/noise_variance near 1e306 the log-odds overflow; 2^900 *
        # noise_variance is admitted and runs cleanly, the next double up not
        from siamp.amp import run_trial_variants
        from siamp.model import MAX_GAIN_TO_NOISE
        noise = 2.0 ** -800
        ceiling = MAX_GAIN_TO_NOISE * noise
        at_ceiling = desk_config(noise_variance=noise,
                                 path_losses=np.full(40, ceiling))
        assert at_ceiling.violations() == []
        run_trial_variants(at_ceiling)
        gains = np.full(40, ceiling)
        gains[5] = np.nextafter(ceiling, np.inf)
        assert desk_config(noise_variance=noise,
                           path_losses=gains).violations() == [
            f"path_losses must be at most 2^900*noise_variance = "
            f"{ceiling:.6g}, got {gains[5]}"]

    def test_power_below_floor_is_rejected(self):
        # 2^-1000 itself is admitted for the gains and the noise variance;
        # the next double below is rejected by name
        from siamp.model import MIN_POWER
        below = float(np.nextafter(MIN_POWER, 0.0))
        assert desk_config(path_losses=np.full(40, MIN_POWER),
                           noise_variance=MIN_POWER).violations() == []
        gains = np.full(40, 1.0)
        gains[3] = below
        assert desk_config(path_losses=gains).violations() == [
            f"path_losses must be at least 2^-1000 = 9.33264e-302, got {below}"]
        assert desk_config(noise_variance=below).violations() == [
            f"noise_variance must be at least 2^-1000 = 9.33264e-302, "
            f"got {below}"]
        with pytest.raises(InvalidConfig, match="noise_variance"):
            generate_scenario(desk_config(noise_variance=below))

    @pytest.mark.parametrize("key, value", [
        ("num_devices", 40.0), ("pilot_length", np.float64(16.0)),
        ("num_antennas", True), ("num_blocks", 2.5), ("rng_seed", 1.5)])
    def test_count_or_seed_must_be_an_integer(self, key, value):
        # a float or bool count passed the checks and failed in numpy, and a
        # float seed ran truncated
        bad = desk_config(**{key: value})
        assert bad.violations() == [f"{key} must be an integer, got {value!r}"]
        with pytest.raises(InvalidConfig, match=key):
            generate_scenario(bad)
        good = desk_config(**{key: np.int64(getattr(desk_config(), key))})
        assert good.violations() == []

    def test_trace_csv_roundtrip(self, tmp_path):
        import csv
        from siamp.experiment import write_tables
        from siamp.model import trace_table
        scenario = generate_scenario(desk_config(num_blocks=2))
        path = write_tables(tmp_path, {"traces": trace_table(scenario)})["traces"]
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 40
        row = rows[43]  # block 2, device 3
        assert row["block"] == "2" and row["device"] == "3"
        truth = scenario.blocks[1]
        assert float(row["channel_re_1"]) == truth.channels[3, 0].real
        assert int(row["active"]) == int(truth.activity[3])
