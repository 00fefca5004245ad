import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from siamp import (AmpState, NonFiniteState, ScenarioConfig, SiAmpError,
                   amp, amp_iterate, detector, generate_scenario,
                   pseudo_observations, run_block, run_blocks, run_trial,
                   run_trial_variants, spec_from_options)
from siamp.denoiser import SideInfo, denoise_rows, si_log_odds
from siamp.streams import substream


def small_config(**overrides):
    defaults = dict(num_devices=24, pilot_length=12, num_antennas=2,
                    num_blocks=3, activity_rate=0.1, persistence=0.46,
                    noise_variance=0.1, path_losses=np.full(24, 1.0),
                    rng_seed=7)
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestPseudoObservations:
    def test_matched_filter_initialization(self):
        rng = substream(0, "t")
        l, n, m = 6, 10, 3
        pilots = (rng.standard_normal((l, n)) + 1j * rng.standard_normal((l, n)))
        y = (rng.standard_normal((l, m)) + 1j * rng.standard_normal((l, m)))
        out = pseudo_observations(np.zeros((n, m), complex), y, pilots)
        np.testing.assert_allclose(out, np.conj(pilots).T @ y, atol=1e-14)

    def test_zero_residual_passthrough(self):
        rng = substream(1, "t")
        x = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        pilots = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        out = pseudo_observations(x, np.zeros((4, 2), complex), pilots)
        np.testing.assert_array_equal(out, x)

    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("l, n", [(7, 9), (9, 7)])
    def test_matches_per_device_loop(self, l, n, m):
        rng = substream(2, "t")
        x = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        r = rng.standard_normal((l, m)) + 1j * rng.standard_normal((l, m))
        pilots = rng.standard_normal((l, n)) + 1j * rng.standard_normal((l, n))
        out = pseudo_observations(x, r, pilots)
        for dev in range(n):
            direct = x[dev] + sum(np.conj(pilots[k, dev]) * r[k] for k in range(l))
            np.testing.assert_allclose(out[dev], direct, atol=1e-12)

    def test_dimension_mismatch(self):
        from siamp.errors import DimensionMismatch
        with pytest.raises(DimensionMismatch):
            pseudo_observations(np.zeros((3, 1), complex),
                                np.zeros((4, 1), complex),
                                np.zeros((5, 3), complex))


class TestIterate:
    def test_identity_denoiser_closed_form(self):
        cfg = small_config()
        scenario = generate_scenario(cfg)
        y = scenario.received[0]
        s = scenario.pilots
        n = cfg.num_devices
        state = AmpState(x=np.zeros((n, cfg.num_antennas), complex),
                         residual=y.copy(),
                         tau=np.linalg.norm(y) / np.sqrt(y.size), t=0)
        hook = lambda xt: (xt, np.ones(n))
        new = amp_iterate(state, y, s, 0.0, cfg, denoiser_fn=hook)
        expected_x = pseudo_observations(state.x, state.residual, s)
        np.testing.assert_array_equal(new.x, expected_x)
        expected_r = y - s @ expected_x + (n / cfg.pilot_length) * state.residual
        np.testing.assert_allclose(new.residual, expected_r, atol=1e-12)

    def test_zero_denoiser_fixed_point(self):
        cfg = small_config()
        scenario = generate_scenario(cfg)
        y = scenario.received[0]
        s = scenario.pilots
        n = cfg.num_devices
        state = AmpState(x=np.zeros((n, cfg.num_antennas), complex),
                         residual=y.copy(),
                         tau=np.linalg.norm(y) / np.sqrt(y.size), t=0)
        hook = lambda xt: (np.zeros_like(xt), np.zeros(n))
        new = amp_iterate(state, y, s, 0.0, cfg, denoiser_fn=hook)
        np.testing.assert_array_equal(new.x, 0.0)
        np.testing.assert_array_equal(new.residual, y)

    def test_matches_independent_transcription(self):
        # straight-line rewrite of the update equations, no shared helpers
        cfg = small_config(num_devices=4, pilot_length=3, num_antennas=2,
                           path_losses=np.array([0.5, 1.0, 1.5, 2.0]))
        scenario = generate_scenario(cfg)
        y = scenario.received[0]
        s = scenario.pilots
        prev = SideInfo(
            pseudo_obs=(substream(4, "t").standard_normal((4, 2))
                        + 1j * substream(5, "t").standard_normal((4, 2))),
            tau_prev=0.9)
        state = AmpState(x=np.zeros((4, 2), complex), residual=y.copy(),
                         tau=np.linalg.norm(y) / np.sqrt(y.size), t=0)
        for _ in range(3):
            state = amp_iterate(state, y, s, si_log_odds(
                prev, cfg.path_losses, cfg.persistence, cfg.beta), cfg)

        lam, alpha, beta = cfg.activity_rate, cfg.persistence, cfg.beta
        x = np.zeros((4, 2), complex)
        r = y.copy()
        tau = np.linalg.norm(y) / np.sqrt(3 * 2)
        for _ in range(3):
            derivs = np.zeros(4)
            x_new = np.zeros_like(x)
            for dev in range(4):
                g = cfg.path_losses[dev]
                xt = x[dev] + np.conj(s[:, dev]) @ r
                t2 = tau ** 2
                delta = 1 / t2 - 1 / (t2 + g)
                mu_cur = (f := (t2 + g) / t2) ** 2 * np.exp(-delta * np.sum(np.abs(xt) ** 2))
                p2 = prev.tau_prev ** 2
                delta_p = 1 / p2 - 1 / (p2 + g)
                mu_prev = ((p2 + g) / p2) ** 2 * np.exp(
                    -delta_p * np.sum(np.abs(prev.pseudo_obs[dev]) ** 2))
                weight = (beta + (1 - beta) * mu_prev) / (alpha + (1 - alpha) * mu_prev)
                denom = 1 + (1 - lam) / lam * mu_cur * weight
                gain = g / (g + t2) / denom
                x_new[dev] = gain * xt
                pa = 1 / denom
                derivs[dev] = (g / (g + t2)) * pa * (
                    1 + delta * np.sum(np.abs(xt) ** 2) / 2 * (1 - pa))
            r = y - s @ x_new + (4 / 3) * np.mean(derivs) * r
            x = x_new
            tau = max(np.linalg.norm(r) / np.sqrt(6),
                      1e-12 * np.sqrt(cfg.path_losses.max()))
        np.testing.assert_allclose(state.x, x, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(state.residual, r, rtol=1e-12, atol=1e-15)
        assert state.tau == pytest.approx(tau, rel=1e-12)

    def test_non_finite_state_raises(self):
        cfg = small_config()
        scenario = generate_scenario(cfg)
        y = scenario.received[0]
        state = AmpState(x=np.zeros((24, 2), complex), residual=y.copy(),
                         tau=np.linalg.norm(y) / np.sqrt(y.size), t=0)
        hook = lambda xt: (np.full_like(xt, np.inf), np.ones(24))
        with pytest.raises(NonFiniteState):
            amp_iterate(state, y, scenario.pilots, 0.0, cfg,
                        denoiser_fn=hook)


class TestRunBlock:
    def test_silent_block_low_noise(self):
        # all devices inactive and nearly no noise: the estimate stays zero
        # and tau drops to its floor immediately
        y = np.zeros((12, 2), complex)
        scenario = generate_scenario(small_config())
        res = run_block(y, scenario.pilots, 0.0,
                        small_config(noise_variance=1e-12))
        np.testing.assert_allclose(np.abs(res.x_hat), 0.0, atol=1e-9)
        assert res.tau_trace[-1] <= res.tau_trace[0] + 1e-12

    def test_determinism(self):
        cfg = small_config()
        scenario = generate_scenario(cfg)
        y = scenario.received[0]
        a = run_block(y, scenario.pilots, 0.0, cfg)
        b = run_block(y, scenario.pilots, 0.0, cfg)
        np.testing.assert_array_equal(a.x_hat, b.x_hat)
        np.testing.assert_array_equal(a.tau_trace, b.tau_trace)

    def test_pseudo_obs_recomputable(self):
        cfg = small_config()
        scenario = generate_scenario(cfg)
        res = run_block(scenario.received[0], scenario.pilots, 0.0, cfg)
        again = pseudo_observations(res.x_hat, res.residual,
                                    scenario.pilots)
        np.testing.assert_array_equal(res.pseudo_obs, again)

    def test_tau_settles_downward(self):
        cfg = ScenarioConfig(num_devices=1000, pilot_length=300, num_antennas=1,
                             num_blocks=1, activity_rate=0.1, persistence=0.1,
                             noise_variance=0.1, path_losses=np.full(1000, 1.0),
                             rng_seed=11)
        scenario = generate_scenario(cfg)
        res = run_block(scenario.received[0], scenario.pilots, 0.0, cfg)
        trace = res.tau_trace
        # after the initial transient the trace stops increasing materially
        tail = trace[3:]
        assert np.all(np.diff(tail) < 0.01 * tail[:-1])
        assert trace[-1] < trace[0]


def assert_blocks_close(batch, alone, rtol):
    assert len(batch) == len(alone)
    for a, b in zip(batch, alone):
        assert a.iters_used == b.iters_used and a.converged == b.converged
        for name in ("tau_trace", "delta_x_trace", "residual_fro_trace"):
            assert len(getattr(a, name)) == len(getattr(b, name))
        for name in ("x_hat", "pseudo_obs", "residual", "tau_trace",
                     "residual_fro_trace"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.shape == y.shape
            assert np.max(np.abs(x - y)) <= rtol * np.max(np.abs(y))


class TestRunBlocks:
    @pytest.mark.parametrize("m", [1, 2])
    def test_matches_one_block_at_a_time(self, m):
        cfg = ScenarioConfig(num_devices=300, pilot_length=60, num_antennas=m,
                             num_blocks=5, activity_rate=0.1, persistence=0.46,
                             noise_variance=0.1,
                             path_losses=np.linspace(0.5, 2.0, 300),
                             rng_seed=21)
        scenario = generate_scenario(cfg)
        batch = run_blocks(scenario.received, scenario.pilots, 0.0, cfg)
        alone = [run_block(y, scenario.pilots, 0.0, cfg)
                 for y in scenario.received]
        assert_blocks_close(batch, alone, 1e-12)
        # the blocks stopped at different iterations, so some left early
        assert len({r.iters_used for r in batch}) > 1

    def test_early_blocks_leave_the_batch(self, monkeypatch):
        # one block hits MAX_ITERS while the others converge before it; the
        # converged ones stop iterating and keep their own traces
        cfg = small_config(num_blocks=4, num_devices=120, pilot_length=40,
                           path_losses=np.full(120, 1.0), rng_seed=3)
        scenario = generate_scenario(cfg)
        iters = sorted(r.iters_used for r in
                       run_blocks(scenario.received, scenario.pilots, 0.0, cfg))
        assert iters[-1] > iters[-2] + 1
        monkeypatch.setattr(amp, "MAX_ITERS", iters[-1] - 1)
        widths = []
        real_iterate = amp.amp_iterate

        def recorded_iterate(state, *args, **kwargs):
            widths.append(state.x.shape[1])
            return real_iterate(state, *args, **kwargs)

        monkeypatch.setattr(amp, "amp_iterate", recorded_iterate)
        batch = run_blocks(scenario.received, scenario.pilots, 0.0, cfg)
        monkeypatch.setattr(amp, "amp_iterate", real_iterate)
        alone = [run_block(y, scenario.pilots, 0.0, cfg)
                 for y in scenario.received]
        assert_blocks_close(batch, alone, 1e-12)
        capped = [r for r in batch if not r.converged]
        assert len(capped) == 1 and capped[0].iters_used == amp.MAX_ITERS
        for result in batch:
            assert len(result.tau_trace) == result.iters_used + 1
            assert len(result.delta_x_trace) == result.iters_used
            assert len(result.residual_fro_trace) == result.iters_used
            if result.converged:
                assert result.iters_used < amp.MAX_ITERS
        # each iteration spans only the blocks still running
        m = cfg.num_antennas
        assert len(widths) == amp.MAX_ITERS
        for t, width in enumerate(widths, start=1):
            assert width == m * sum(r.iters_used >= t for r in batch)
        assert widths[-1] == m

    def test_non_finite_block_raises(self):
        cfg = small_config(num_blocks=3)
        scenario = generate_scenario(cfg)
        received = [y.copy() for y in scenario.received]
        received[1][2, 0] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteState):
                run_blocks(received, scenario.pilots, 0.0, cfg)

    def test_repeated_calls_identical(self):
        cfg = small_config(num_blocks=4)
        scenario = generate_scenario(cfg)
        a = run_blocks(scenario.received, scenario.pilots, 0.0, cfg)
        b = run_blocks(scenario.received, scenario.pilots, 0.0, cfg)
        for x, y in zip(a, b):
            for name in ("x_hat", "pseudo_obs", "residual", "tau_trace",
                         "delta_x_trace", "residual_fro_trace"):
                assert getattr(x, name).tobytes() == getattr(y, name).tobytes()
            assert (x.iters_used, x.converged) == (y.iters_used, y.converged)


def oracle_run_blocks(received, pilots, si_term, cfg):
    """The block estimator in its first, straight-line form: the full
    product `pilots @ x`, `np.linalg.norm` of each block, `mean` for the
    Onsager term and numpy scalars in the traces."""
    n, l, m = cfg.num_devices, cfg.pilot_length, cfg.num_antennas
    tau_floor = amp.TAU_FLOOR_FACTOR * np.sqrt(np.max(cfg.path_losses))

    def block_norms(a):
        return np.array([np.linalg.norm(a[:, i:i + m])
                         for i in range(0, a.shape[1], m)])

    def columns(blocks):
        return (blocks[:, None] * m + np.arange(m)).ravel()

    active = list(range(len(received)))
    y = np.concatenate(received, axis=1)
    x, r = np.zeros((n, len(active) * m), complex), y
    tau = np.maximum(block_norms(y) / np.sqrt(l * m), tau_floor)
    traces = {b: ([t], [], []) for b, t in zip(active, tau)}
    x_norms, results, t = np.zeros(len(active)), {}, 0
    while active:
        k = len(active)
        x_tilde = x + np.conj(pilots.T @ np.conj(r))
        rows = np.ascontiguousarray(x_tilde.reshape(n, k, m).transpose(1, 0, 2))
        x_rows, deriv = denoise_rows(rows, cfg.path_losses,
                                     tau[:, None] if k > 1 else tau[0],
                                     cfg.activity_rate, si_term)
        x_new = x_rows.transpose(1, 0, 2).reshape(n, k * m)
        onsager = np.reshape(deriv, (k, n)).mean(axis=1)
        correction = ((n / l) * onsager)[:, None] * r.reshape(-1, k, m)
        r = y - pilots @ x_new + correction.reshape(-1, k * m)
        norms = block_norms(r)
        tau = np.maximum(norms / np.sqrt(l * m), tau_floor)
        change = block_norms(x_new - x) / np.maximum(x_norms, 1e-30)
        x, x_norms, t = x_new, block_norms(x_new), t + 1
        for b, tau_b, delta, res in zip(active, tau, change, norms):
            traces[b][0].append(tau_b)
            traces[b][1].append(delta)
            traces[b][2].append(res)
        converged = change < amp.CONVERGENCE_TOL
        done = converged | (t == amp.MAX_ITERS)
        leaving, keep = np.flatnonzero(done), np.flatnonzero(~done)
        cols = columns(leaving)
        x_hat, residual = x[:, cols], r[:, cols]
        pseudo_obs = x_hat + np.conj(pilots.T @ np.conj(residual))
        for i, j in enumerate(leaving):
            own = slice(i * m, (i + 1) * m)
            results[active[j]] = (x_hat[:, own], pseudo_obs[:, own],
                                  residual[:, own],
                                  *map(np.asarray, traces[active[j]]), t,
                                  bool(converged[j]))
        cols = columns(keep)
        x, r, y = x[:, cols], r[:, cols], y[:, cols]
        tau, x_norms = tau[keep], x_norms[keep]
        active = [active[j] for j in keep]
    return [results[b] for b in range(len(received))]


class TestOracle:
    @pytest.mark.parametrize("preset", ["fig3-desk", "fig4-desk"])
    @pytest.mark.parametrize("k", [1, 5])
    def test_reproduces_straight_line_estimator(self, preset, k):
        # every output byte of run_block (the si chain) and run_blocks
        # (the nosi batch) on desk-shaped blocks, M = 1 and M = 2
        cfg = spec_from_options({"preset": preset}).scenario
        assert cfg.num_blocks == 5
        scenario = generate_scenario(cfg)
        if k == 1:
            first = run_block(scenario.received[0], scenario.pilots, 0.0, cfg)
            si_term = si_log_odds(first.side_info(), cfg.path_losses,
                                  cfg.persistence, cfg.beta)
            received = scenario.received[1:2]
            got = [run_block(received[0], scenario.pilots, si_term, cfg)]
        else:
            si_term, received = 0.0, scenario.received
            got = run_blocks(received, scenario.pilots, si_term, cfg)
        want = oracle_run_blocks(received, scenario.pilots, si_term, cfg)
        names = ("x_hat", "pseudo_obs", "residual", "tau_trace",
                 "delta_x_trace", "residual_fro_trace")
        for block, expected in zip(got, want, strict=True):
            for name, value in zip(names, expected):
                assert getattr(block, name).tobytes() == value.tobytes(), name
            assert (block.iters_used, block.converged) == expected[-2:]


class TestRunTrial:
    def test_single_block_variants_identical(self):
        cfg = small_config(num_blocks=1)
        a = run_trial(cfg, variant="si")
        b = run_trial(cfg, variant="nosi")
        np.testing.assert_array_equal(a.blocks[0].x_hat, b.blocks[0].x_hat)

    def test_memoryless_chain_matches_independent_blocks(self):
        cfg = small_config(activity_rate=0.1, persistence=0.1, num_blocks=3)
        trial = run_trial(cfg, variant="si")
        scenario = generate_scenario(cfg)
        for j in range(3):
            res = run_block(scenario.received[j],
                            scenario.pilots, 0.0, cfg)
            np.testing.assert_array_equal(trial.blocks[j].x_hat, res.x_hat)
            np.testing.assert_array_equal(trial.blocks[j].pseudo_obs,
                                          res.pseudo_obs)

    @pytest.mark.parametrize("variant", ["si", "nosi"])
    def test_blocks_use_previous_side_info(self, variant):
        # si conditions each block on the previous block's converged
        # output; nosi conditions no block on anything, so all its blocks
        # are one batch
        cfg = small_config(num_blocks=4)
        trial = run_trial(cfg, variant=variant)
        scenario = generate_scenario(cfg)
        batch = run_blocks(scenario.received, scenario.pilots, 0.0, cfg)
        si_term = 0.0
        for j, block in enumerate(trial.blocks):
            again = (batch[j] if variant == "nosi" else
                     run_block(scenario.received[j], scenario.pilots, si_term,
                               cfg))
            np.testing.assert_array_equal(block.x_hat, again.x_hat)
            np.testing.assert_array_equal(block.pseudo_obs, again.pseudo_obs)
            np.testing.assert_array_equal(block.tau_trace, again.tau_trace)
            if variant == "si":
                si_term = si_log_odds(block.side_info(), cfg.path_losses,
                                      cfg.persistence, cfg.beta)

    @pytest.mark.parametrize("m", [1, 2])
    def test_variants_match_separate_trials(self, m):
        # the si chain starts from block 1 of the nosi batch
        cfg = small_config(num_antennas=m, num_blocks=3)
        joint = run_trial_variants(cfg)
        assert [t.variant for t in joint] == ["si", "nosi"]
        first_block = joint[1].blocks[0]
        for trial in joint:
            alone = run_trial(cfg, variant=trial.variant,
                              first_block=(first_block if trial.variant == "si"
                                           else None))
            assert len(trial.blocks) == len(alone.blocks) == 3
            for a, b in zip(trial.blocks, alone.blocks):
                np.testing.assert_array_equal(a.x_hat, b.x_hat)
                np.testing.assert_array_equal(a.pseudo_obs, b.pseudo_obs)
                np.testing.assert_array_equal(a.tau_trace, b.tau_trace)
            for a, b in zip(trial.detections, alone.detections):
                np.testing.assert_array_equal(a.llr, b.llr)
                np.testing.assert_array_equal(a.activity, b.activity)
            for a, b in zip(trial.reports, alone.reports):
                np.testing.assert_array_equal(a.decisions, b.decisions)
                np.testing.assert_array_equal(a.metrics.nmse, b.metrics.nmse)

    def test_side_info_term_computed_once_per_block(self, monkeypatch):
        # si_log_odds runs once per si block, never for nosi, and every
        # denoiser call and the detection of a block get that one array
        cfg = small_config(num_blocks=4)
        terms, calls = [], []  # calls: (blocks, si_term, denoisers' si_terms)
        detected = []  # si_term of every detection, in block order
        real_si_log_odds, real_run_blocks = amp.si_log_odds, amp.run_blocks
        real_denoise_rows = amp.denoise_rows
        real_block_detection = detector.block_detection

        def counted_si_log_odds(*args):
            terms.append(real_si_log_odds(*args))
            return terms[-1]

        def recorded_run_blocks(received, pilots, si_term, config):
            calls.append((len(received), si_term, []))
            return real_run_blocks(received, pilots, si_term, config)

        def recorded_denoise_rows(x, gamma, tau, lam, si_term=0.0):
            calls[-1][2].append(si_term)
            return real_denoise_rows(x, gamma, tau, lam, si_term)

        def recorded_block_detection(obs, tau, gamma, activity, si_term=0.0):
            detected.append(si_term)
            return real_block_detection(obs, tau, gamma, activity, si_term)

        monkeypatch.setattr(amp, "si_log_odds", counted_si_log_odds)
        monkeypatch.setattr(amp, "run_blocks", recorded_run_blocks)
        monkeypatch.setattr(amp, "denoise_rows", recorded_denoise_rows)
        monkeypatch.setattr(detector, "block_detection",
                            recorded_block_detection)
        run_trial_variants(cfg)

        j = cfg.num_blocks
        assert len(terms) == j - 1
        # the nosi batch (block 1 included), then one call per si block
        assert [blocks for blocks, _, _ in calls] == [j] + [1] * (j - 1)
        for term, (_, block_term, callees) in zip(terms, calls[1:]):
            assert isinstance(term, np.ndarray) and term.shape == (24,)
            assert block_term is term
            assert callees and all(c is term for c in callees)
        _, block_term, callees = calls[0]
        assert block_term == 0.0
        # nosi detects its j blocks, then si its block 1 and its si blocks
        assert len(detected) == 2 * j
        for c in callees + detected[:j + 1]:
            assert isinstance(c, float) and c == 0.0
        assert all(c is term for c, term in zip(detected[j + 1:], terms))

    def test_shared_first_block_scored_alike(self):
        # block 1 is estimated once; each variant detects and scores that
        # same estimate, with byte-identical results
        cfg = small_config(num_blocks=3)
        si, nosi = run_trial_variants(cfg)
        assert si.blocks[0] is nosi.blocks[0]
        a, b = si.detections[0], nosi.detections[0]
        for name in ("llr", "activity"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert (np.float64(si.reports[0].metrics.nmse).tobytes()
                == np.float64(nosi.reports[0].metrics.nmse).tobytes())

    def test_trial_determinism(self):
        cfg = small_config(num_blocks=2)
        a = run_trial(cfg, variant="si")
        b = run_trial(cfg, variant="si")
        for x, y in zip(a.blocks, b.blocks):
            np.testing.assert_array_equal(x.x_hat, y.x_hat)


@settings(max_examples=72, deadline=None, derandomize=True)
@given(load=st.floats(0.5, 10.0), num_devices=st.integers(10, 200),
       persistence=st.sampled_from(["zero", "lam", "one"]),
       num_antennas=st.sampled_from([1, 2, 8]),
       spread_db=st.floats(0.0, 60.0), seed=st.integers(0, 2 ** 16))
def test_trial_finite_or_loud_failure(load, num_devices, persistence,
                                      num_antennas, spread_db, seed):
    # across load, persistence (0 and 1 put log 0 into si_log_odds),
    # antenna count and gain spread, a trial returns finite estimates,
    # noise levels and LLRs without a single numpy warning, or raises a
    # library error
    lam = 0.1
    pilot_length = max(1, round(num_devices / load))
    alpha = {"zero": 0.0, "lam": lam, "one": 1.0}[persistence]
    gains = 10.0 ** (-substream(seed, "gains").uniform(0.0, spread_db,
                                                       num_devices) / 10.0)
    cfg = ScenarioConfig(num_devices=num_devices, pilot_length=pilot_length,
                         num_antennas=num_antennas, num_blocks=3,
                         activity_rate=lam, persistence=alpha,
                         noise_variance=0.01, path_losses=gains,
                         rng_seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            trials = run_trial_variants(cfg)
        except SiAmpError:
            return
    for trial in trials:
        for block, det in zip(trial.blocks, trial.detections):
            assert np.all(np.isfinite(block.x_hat))
            assert np.isfinite(block.tau_final)
            assert np.all(np.isfinite(det.llr))


@pytest.mark.slow
class TestAsymptotics:
    def test_pseudo_observation_gaussianity(self):
        cfg = ScenarioConfig(num_devices=2000, pilot_length=400, num_antennas=1,
                             num_blocks=1, activity_rate=0.05, persistence=0.05,
                             noise_variance=0.1, path_losses=np.full(2000, 1.0),
                             rng_seed=29)
        scenario = generate_scenario(cfg)
        res = run_block(scenario.received[0], scenario.pilots, 0.0, cfg)
        err = res.pseudo_obs - scenario.blocks[0].effective_signal
        scale = np.sqrt(res.tau_final ** 2 / 2.0)
        z = np.concatenate([err.real.ravel(), err.imag.ravel()]) / scale
        assert stats.kstest(z, "norm").pvalue > 0.01

    def test_onsager_term_needed_for_gaussianity(self):
        # dropping the correction breaks the calibration the test above checks
        cfg = ScenarioConfig(num_devices=2000, pilot_length=400, num_antennas=1,
                             num_blocks=1, activity_rate=0.05, persistence=0.05,
                             noise_variance=0.1, path_losses=np.full(2000, 1.0),
                             rng_seed=29)
        scenario = generate_scenario(cfg)
        y = scenario.received[0]
        s = scenario.pilots

        def no_onsager(xt):
            out, _ = denoise_rows(xt, cfg.path_losses, state.tau,
                                  cfg.activity_rate)
            return out, np.zeros(cfg.num_devices)

        state = AmpState(x=np.zeros((2000, 1), complex), residual=y.copy(),
                         tau=np.linalg.norm(y) / np.sqrt(y.size), t=0)
        for _ in range(25):
            state = amp_iterate(state, y, s, 0.0, cfg, denoiser_fn=no_onsager)
        err = (pseudo_observations(state.x, state.residual, s)
               - scenario.blocks[0].effective_signal)
        emp_var = np.mean(np.abs(err) ** 2)
        # without the correction the residual no longer calibrates the true
        # pseudo-observation error and the iteration stalls at a much worse
        # effective noise level than the corrected run
        corrected = run_block(y, s, 0.0, cfg)
        err_c = corrected.pseudo_obs - scenario.blocks[0].effective_signal
        ratio_c = np.mean(np.abs(err_c) ** 2) / corrected.tau_final ** 2
        assert abs(ratio_c - 1.0) < 0.05
        assert abs(emp_var / state.tau ** 2 - 1.0) > 0.1
        assert state.tau ** 2 > 2.0 * corrected.tau_final ** 2
