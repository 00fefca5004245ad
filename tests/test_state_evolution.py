from dataclasses import replace

import numpy as np
import pytest

from siamp import (InvalidConfig, SeParams, SeTrace, SideInfo, denoise_rows,
                   draw_samples, se_fixed_point, se_step, si_log_odds,
                   spec_from_options, state_evolution)
from siamp.experiment import STREAM_SE_TRACE, chained_se_traces
from siamp.streams import substream


def make_params(**overrides):
    defaults = dict(noise_variance=0.1, load=1000 / 300, num_antennas=1,
                    lam=0.1, alpha=0.46, beta=0.06, gammas=np.array([1.0]),
                    sample_count=50_000)
    defaults.update(overrides)
    return SeParams(**defaults)


def step(tau_sq, params, rng, denoiser_fn=None):
    # one step on samples freshly drawn from rng
    return se_step(tau_sq, params, draw_samples(params, rng), denoiser_fn)


class TestSeStep:
    def test_perfect_denoiser_returns_noise_floor(self):
        params = make_params()
        hook = lambda xt, x_true: x_true
        nxt, err = step(0.5, params, substream(0, "se"), denoiser_fn=hook)
        assert nxt == params.noise_variance
        assert err == 0.0

    def test_zero_denoiser_adds_signal_power(self):
        params = make_params(sample_count=400_000)
        hook = lambda xt, x_true: np.zeros_like(xt)
        nxt, err = step(0.5, params, substream(1, "se"), denoiser_fn=hook)
        expected = params.noise_variance + params.load * params.lam * 1.0
        assert nxt == pytest.approx(expected, abs=4 * err)

    def test_lower_bound_is_noise_floor(self):
        params = make_params()
        rng = substream(3, "se")
        tau_sq = 0.7
        for _ in range(5):
            tau_sq, _ = step(tau_sq, params, rng)
            assert tau_sq >= params.noise_variance

    def test_monte_carlo_error_scaling(self):
        # doubling the sample count shrinks the standard error by ~sqrt(2)
        small = make_params(sample_count=20_000)
        big = make_params(sample_count=40_000)
        errs_small = [step(0.5, small, substream(s, "se"))[1]
                      for s in range(8)]
        errs_big = [step(0.5, big, substream(100 + s, "se"))[1]
                    for s in range(8)]
        ratio = np.mean(errs_small) / np.mean(errs_big)
        assert ratio == pytest.approx(np.sqrt(2.0), rel=0.1)

    def test_heterogeneous_gains_sampled(self):
        params = make_params(gammas=np.array([0.5, 2.0]),
                             sample_count=200_000)
        hook = lambda xt, x_true: np.zeros_like(xt)
        nxt, err = step(0.5, params, substream(4, "se"), denoiser_fn=hook)
        expected = params.noise_variance + params.load * params.lam * 1.25
        assert nxt == pytest.approx(expected, abs=4 * err)


class TestFixedPoint:
    def test_noise_dominant_fixed_point(self):
        # gains far below the noise floor: the denoiser output is negligible
        params = make_params(gammas=np.array([1e-6]), sample_count=50_000)
        trace = se_fixed_point(params, rng=substream(5, "se"))
        expected = params.noise_variance + params.load * params.lam * 1e-6
        assert trace.converged
        assert trace.fixed_point == pytest.approx(expected, rel=1e-3)

    def test_trace_bounded_below_by_noise(self):
        params = make_params()
        trace = se_fixed_point(params, rng=substream(6, "se"))
        assert np.all(trace.tau_sq >= params.noise_variance)

    def test_stale_side_info_matches_no_si(self):
        # ancient previous-block estimate (huge tau_prev) carries nothing
        base = make_params(sample_count=100_000)
        with_si = make_params(sample_count=100_000, tau_prev=1e6)
        a = se_fixed_point(base, rng=substream(7, "se"))
        b = se_fixed_point(with_si, rng=substream(7, "se"))
        assert b.fixed_point == pytest.approx(a.fixed_point, rel=0.02)

    def test_side_info_never_hurts(self):
        # conditioning on the previous block cannot worsen the fixed point
        base = make_params(lam=0.1, alpha=0.91, beta=0.01, sample_count=100_000)
        nosi = se_fixed_point(base, rng=substream(8, "se"))
        si_params = make_params(lam=0.1, alpha=0.91, beta=0.01,
                                sample_count=100_000,
                                tau_prev=float(np.sqrt(nosi.fixed_point)))
        si = se_fixed_point(si_params, rng=substream(9, "se"))
        last_err = max(si.stderr[-1], nosi.stderr[-1])
        assert si.fixed_point <= nosi.fixed_point + 2 * last_err

    def test_si_mse_not_worse_at_equal_state(self):
        # at the same tau, the richer conditioning gives no higher MSE
        params = make_params(lam=0.1, alpha=0.91, beta=0.01,
                             sample_count=200_000, tau_prev=0.3)
        a, ea = step(0.25, replace(params, tau_prev=None), substream(10, "se"))
        b, eb = step(0.25, params, substream(10, "se"))
        assert b <= a + 2 * np.hypot(ea, eb)

    def test_steps_replay_one_draw(self):
        # every step maps the same samples: re-running the last step on a
        # draw from the trace's starting state reproduces it exactly
        params = make_params(sample_count=20_000)
        trace = se_fixed_point(params, rng=substream(13, "se"))
        nxt, err = step(trace.tau_sq[-2], params, substream(13, "se"))
        assert trace.converged
        assert (nxt, err) == (trace.tau_sq[-1], trace.stderr[-1])

    def test_single_sample_rejected(self):
        with pytest.raises(InvalidConfig):
            make_params(sample_count=1)

    def test_nonconvergence_flagged(self, monkeypatch):
        monkeypatch.setattr(state_evolution, "REL_TOL", 0.0)
        monkeypatch.setattr(state_evolution, "MAX_STEPS", 5)
        params = make_params(sample_count=5000)
        trace = se_fixed_point(params, rng=substream(11, "se"))
        assert not trace.converged
        assert len(trace.tau_sq) == 6


@pytest.mark.parametrize("preset", ["fig3-desk", "fig4-desk"])
def test_desk_preset_traces_converge(preset):
    traces = chained_se_traces(spec_from_options({"preset": preset}))
    for variant, per_slot in traces.items():
        for j, trace in enumerate(per_slot):
            assert trace.converged, f"{preset} {variant} slot {j + 1}"
            assert len(trace.tau_sq) <= 20


@pytest.mark.parametrize("preset", ["fig3-desk", "fig4-desk"])
def test_desk_preset_si_below_nosi_every_later_slot(preset):
    # si and nosi traces replay one common draw, so the side-information
    # gain (about 1% in tau^2) is not buried in Monte Carlo scatter
    for seed in (1, 2, 3):
        traces = chained_se_traces(spec_from_options({"preset": preset,
                                                      "rng_seed": str(seed)}))
        nosi = traces["nosi"][0].fixed_point
        for j, trace in enumerate(traces["si"][1:], start=2):
            assert trace.fixed_point < nosi, f"{preset} seed {seed} slot {j}"


@pytest.mark.slow
def test_desk_preset_tau_matches_fixed_point():
    # the converged empirical noise level of a single desk-preset block
    # agrees with the fixed point at the tau (not tau^2) level
    from dataclasses import replace
    from siamp import generate_scenario, run_block, spec_from_options

    scenario = replace(spec_from_options({"preset": "fig3-desk"}).scenario,
                       rng_seed=0, num_blocks=1)
    realization = generate_scenario(scenario)
    res = run_block(realization.received[0],
                    realization.pilots, 0.0, scenario)
    params = SeParams.from_scenario(scenario, sample_count=100_000)
    trace = se_fixed_point(params, rng=substream(12, "se"))
    predicted = np.sqrt(trace.fixed_point)
    assert abs(res.tau_final - predicted) / predicted < 0.05


# Straight-line copy of the recursion as it was written before a trace drew
# its samples once: every step restores the generator's starting state and
# redraws everything, the side-information term included.
def redraw_step(tau_sq, params, rng):
    s, m = params.sample_count, params.num_antennas

    def cn():
        return (rng.standard_normal((s, m))
                + 1j * rng.standard_normal((s, m))) / np.sqrt(2.0)

    lam, alpha, beta = params.lam, params.alpha, params.beta
    priors = np.array([alpha * lam, (1.0 - alpha) * lam, beta * (1.0 - lam),
                       (1.0 - beta) * (1.0 - lam)])
    case = rng.choice(4, size=s, p=priors)
    gamma = rng.choice(params.gammas, size=s)
    scale = np.sqrt(gamma)[:, None]
    tau = float(np.sqrt(tau_sq))
    x_true = np.where(((case == 0) | (case == 2))[:, None], scale * cn(), 0.0)
    x_tilde = x_true + tau * cn()
    si_term = 0.0
    if params.tau_prev is not None:
        x_prev = np.where(((case == 0) | (case == 1))[:, None],
                          scale * cn(), 0.0)
        prev_obs = x_prev + params.tau_prev * cn()
        si_term = si_log_odds(SideInfo(pseudo_obs=prev_obs,
                                       tau_prev=params.tau_prev),
                              gamma, alpha, beta)
    estimates, _ = denoise_rows(x_tilde, gamma, tau, lam, si_term)
    per_sample_mse = np.sum(np.abs(estimates - x_true) ** 2, axis=-1) / m
    return (params.noise_variance + params.load * float(np.mean(per_sample_mse)),
            params.load * float(np.std(per_sample_mse, ddof=1) / np.sqrt(s)))


def redraw_fixed_point(params, rng):
    start = rng.bit_generator.state
    tau_sq = (params.noise_variance
              + params.load * params.lam * float(np.mean(params.gammas)))
    trace, errs, converged = [tau_sq], [0.0], False
    for _ in range(state_evolution.MAX_STEPS):
        rng.bit_generator.state = start
        nxt, err = redraw_step(tau_sq, params, rng)
        trace.append(nxt)
        errs.append(err)
        converged = abs(nxt - tau_sq) / tau_sq < state_evolution.REL_TOL
        tau_sq = nxt
        if converged:
            break
    return SeTrace(tau_sq=np.asarray(trace), stderr=np.asarray(errs),
                   converged=converged)


@pytest.mark.parametrize("preset", ["fig3-desk", "fig4-desk"])
def test_chained_traces_match_redraw_oracle(preset):
    # one draw per trace maps exactly what redrawing at every step did:
    # same draw order, same arithmetic, every value bit for bit
    spec = spec_from_options({"preset": preset, "se_sample_count": "2000"})
    traces = chained_se_traces(spec)

    def solve(tau_prev=None):
        params = SeParams.from_scenario(spec.scenario, sample_count=2000,
                                        tau_prev=tau_prev)
        rng = substream(spec.scenario.rng_seed, STREAM_SE_TRACE, "nosi", 0)
        return redraw_fixed_point(params, rng)

    expected = [solve()]
    for _ in range(1, spec.scenario.num_blocks):
        expected.append(solve(float(np.sqrt(expected[-1].fixed_point))))
    for got, want in zip(traces["si"], expected, strict=True):
        assert got.tau_sq.tobytes() == want.tau_sq.tobytes()
        assert got.stderr.tobytes() == want.stderr.tobytes()
        assert got.converged == want.converged
    assert all(t is traces["si"][0] for t in traces["nosi"])
