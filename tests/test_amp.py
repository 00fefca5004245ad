import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import siamp
from siamp import amp, detector
from siamp.amp import (pseudo_observations, run_block, run_blocks, run_trial,
                       run_trial_variants)
from siamp.denoiser import SideInfo, denoise_rows, si_log_odds
from siamp.errors import NonFiniteState, SiAmpError
from siamp.experiment import spec_from_options
from siamp.model import (BlockTruth, ScenarioConfig, ScenarioRealization,
                         generate_scenario)
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


def record_iterates(monkeypatch):
    """Replace `amp.amp_iterate` by a wrapper; returns the list of the
    (estimate, residual, norms) it hands back, one per iteration."""
    returned, real_iterate = [], amp.amp_iterate

    def recorded_iterate(*args):
        returned.append(real_iterate(*args))
        return returned[-1]

    monkeypatch.setattr(amp, "amp_iterate", recorded_iterate)
    return returned


class TestIterate:
    # each test runs one block for a fixed number of iterations, through
    # run_block, with the module's denoiser binding replaced where needed
    def test_identity_denoiser_closed_form(self, monkeypatch):
        cfg = small_config()
        scenario = generate_scenario(cfg)
        y = scenario.received[0]
        s = scenario.pilots
        n = cfg.num_devices
        monkeypatch.setattr(amp, "MAX_ITERS", 1)
        monkeypatch.setattr(amp, "denoise_rows",
                            lambda rows, *args: (rows, np.ones(n)))
        returned = record_iterates(monkeypatch)
        new = run_block(y, s, 0.0, cfg)
        expected_x = pseudo_observations(np.zeros_like(new.x_hat), y, s)
        np.testing.assert_array_equal(new.x_hat, expected_x)
        expected_r = y - s @ expected_x + (n / cfg.pilot_length) * y
        [(_, residual, _)] = returned
        np.testing.assert_allclose(residual, expected_r, atol=1e-12)

    def test_zero_denoiser_fixed_point(self, monkeypatch):
        cfg = small_config()
        scenario = generate_scenario(cfg)
        y = scenario.received[0]
        s = scenario.pilots
        n = cfg.num_devices
        monkeypatch.setattr(amp, "MAX_ITERS", 1)
        monkeypatch.setattr(amp, "denoise_rows",
                            lambda rows, *args: (np.zeros_like(rows),
                                                 np.zeros(n)))
        returned = record_iterates(monkeypatch)
        new = run_block(y, s, 0.0, cfg)
        np.testing.assert_array_equal(new.x_hat, 0.0)
        [(_, residual, _)] = returned
        np.testing.assert_array_equal(residual, y)

    def test_matches_independent_transcription(self, monkeypatch):
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
        monkeypatch.setattr(amp, "MAX_ITERS", 3)
        result = run_block(y, s, si_log_odds(prev, cfg.path_losses,
                                             cfg.persistence, cfg.beta), cfg)
        assert result.iters_used == 3

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
        np.testing.assert_allclose(result.x_hat, x, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(result.pseudo_obs, x + np.conj(s).T @ r,
                                   rtol=1e-12, atol=1e-15)
        assert result.tau_final == pytest.approx(tau, rel=1e-12)

    def test_non_finite_state_raises(self, monkeypatch):
        cfg = small_config()
        scenario = generate_scenario(cfg)
        y = scenario.received[0]
        monkeypatch.setattr(amp, "MAX_ITERS", 1)
        monkeypatch.setattr(amp, "denoise_rows",
                            lambda rows, *args: (np.full_like(rows, np.inf),
                                                 np.ones(24)))
        with pytest.raises(NonFiniteState, match="estimate at t=1"):
            run_block(y, scenario.pilots, 0.0, cfg)


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
        for name in ("x_hat", "pseudo_obs", "tau_trace", "residual_fro_trace"):
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

        def recorded_iterate(x, *args, **kwargs):
            widths.append(x.shape[1])
            return real_iterate(x, *args, **kwargs)

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
            for name in ("x_hat", "pseudo_obs", "tau_trace", "delta_x_trace",
                         "residual_fro_trace"):
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
        new_norms = block_norms(x_new)
        ref = np.where(x_norms > 0, x_norms, new_norms)
        change = np.divide(block_norms(x_new - x), ref,
                           out=np.zeros(len(active)), where=ref > 0)
        x, x_norms, t = x_new, new_norms, t + 1
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
        names = ("x_hat", "pseudo_obs", "tau_trace", "delta_x_trace",
                 "residual_fro_trace")
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

    @pytest.mark.parametrize("m", [1, 2])
    def test_device_permutation_permutes_llrs(self, m):
        # relabelling the devices (pilot columns, gains and truth together)
        # leaves every received block as it is, so each per-device LLR moves
        # with its device.  The matched filter and S x then sum in another
        # order, so the LLRs agree to rounding, relative to the largest
        # (within 5e-14 over 20 seeds at M = 1 and 2)
        rtol = 1e-9
        rng = substream(11, "permutation")
        n = 40
        cfg = small_config(num_devices=n, pilot_length=20, num_antennas=m,
                           num_blocks=3,
                           path_losses=10.0 ** rng.uniform(-1.0, 1.0, n))
        scenario = generate_scenario(cfg)
        perm = rng.permutation(n)
        moved_cfg = replace(cfg, path_losses=cfg.path_losses[perm])
        moved = ScenarioRealization(
            config=moved_cfg, pilots=scenario.pilots[:, perm],
            blocks=[BlockTruth(activity=b.activity[perm],
                               channels=b.channels[perm],
                               effective_signal=b.effective_signal[perm])
                    for b in scenario.blocks],
            received=scenario.received)
        for variant in amp.VARIANTS:
            base = run_trial(cfg, variant, scenario=scenario)
            got = run_trial(moved_cfg, variant, scenario=moved)
            for a, b in zip(base.detections, got.detections, strict=True):
                np.testing.assert_array_equal(b.activity, a.activity[perm])
                np.testing.assert_allclose(b.llr, a.llr[perm], rtol=rtol,
                                           atol=rtol * np.abs(a.llr).max())


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

    def test_onsager_term_needed_for_gaussianity(self, monkeypatch):
        # dropping the correction breaks the calibration the test above checks
        cfg = ScenarioConfig(num_devices=2000, pilot_length=400, num_antennas=1,
                             num_blocks=1, activity_rate=0.05, persistence=0.05,
                             noise_variance=0.1, path_losses=np.full(2000, 1.0),
                             rng_seed=29)
        scenario = generate_scenario(cfg)
        y = scenario.received[0]
        s = scenario.pilots
        corrected = run_block(y, s, 0.0, cfg)
        real_denoise_rows = amp.denoise_rows

        def no_onsager(rows, *args):
            out, _ = real_denoise_rows(rows, *args)
            return out, np.zeros(cfg.num_devices)

        # 25 iterations with the correction dropped
        monkeypatch.setattr(amp, "MAX_ITERS", 25)
        monkeypatch.setattr(amp, "CONVERGENCE_TOL", 0.0)
        monkeypatch.setattr(amp, "denoise_rows", no_onsager)
        result = run_block(y, s, 0.0, cfg)
        assert result.iters_used == 25
        err = result.pseudo_obs - scenario.blocks[0].effective_signal
        emp_var = np.mean(np.abs(err) ** 2)
        # without the correction the residual no longer calibrates the true
        # pseudo-observation error and the iteration stalls at a much worse
        # effective noise level than the corrected run
        err_c = corrected.pseudo_obs - scenario.blocks[0].effective_signal
        ratio_c = np.mean(np.abs(err_c) ** 2) / corrected.tau_final ** 2
        assert abs(ratio_c - 1.0) < 0.05
        assert abs(emp_var / result.tau_final ** 2 - 1.0) > 0.1
        assert result.tau_final ** 2 > 2.0 * corrected.tau_final ** 2


# prints one sha256 per block of the x_hat and pseudo_obs bytes that
# run_blocks gives for trial 0 of the fig3-desk preset seed
_BLOCK_DIGESTS = """
import hashlib
from dataclasses import replace
from siamp.amp import run_blocks
from siamp.experiment import spec_from_options, trial_seed
from siamp.model import generate_scenario
scenario = spec_from_options({"preset": "fig3-desk"}).scenario
config = replace(scenario, rng_seed=trial_seed(scenario.rng_seed, 0))
realization = generate_scenario(config)
for block in run_blocks(realization.received, realization.pilots, 0.0, config):
    print(hashlib.sha256(block.x_hat.tobytes()
                         + block.pseudo_obs.tobytes()).hexdigest())
"""


def _block_digests(blas_threads):
    src = os.path.dirname(os.path.dirname(siamp.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path,
           **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                            "MKL_NUM_THREADS"), str(blas_threads))}
    return subprocess.run([sys.executable, "-c", _BLOCK_DIGESTS], env=env,
                          check=True, capture_output=True,
                          text=True).stdout.split()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 16: the nosi batch's wide matched "
                          "filter rounds differently on 2 BLAS threads")
def test_run_blocks_bytes_independent_of_blas_threads():
    # OpenBLAS caps its threads at the core count, so on one usable CPU
    # both runs would use one thread and compare nothing
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs 2 usable CPUs: BLAS would run one thread either way")
    one = _block_digests(1)
    assert len(one) == 5
    assert _block_digests(2) == one
