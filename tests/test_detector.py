import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siamp import detector
from siamp.amp import run_trial_variants
from siamp.denoiser import (DenoiserParams, SideInfo, _row_norm_sq,
                            draw_case_pair, log_odds_terms, si_log_odds)
from siamp.detector import (BlockDetection, aggregate_slot_counts,
                            block_detection, compute_metrics, detect_block,
                            llr_appendix_oracle, sweep_block_counts)
from siamp.errors import InvalidConfig
from siamp.experiment import (detector_threshold_curve, spec_from_options,
                              trial_seed)
from siamp.model import beta_from

FIG_FAMILY = dict(gamma=1e-8, tau=2e-6, lam=0.1, alpha=0.91, beta=0.01)


def make_params(m=1, **overrides):
    kw = dict(FIG_FAMILY, num_antennas=m)
    kw.update(overrides)
    return DenoiserParams(**kw)


def detect_one(x, si, params):
    """Detection state of one device, as a one-row block."""
    si_term = 0.0 if si is None else si_log_odds(si, params.gamma,
                                                 params.alpha, params.beta)
    return block_detection(np.asarray(x)[None, :], params.tau, params.gamma,
                           np.zeros(1, dtype=bool), si_term)


def llr_one(x, si, params):
    return float(detect_one(x, si, params).llr[0])


def threshold(l, si, params):
    """The energy threshold at level `l` that `detector_threshold_curve`
    publishes, with side information `si` or without (None)."""
    prev = [0.0 if si is None else np.linalg.norm(si.pseudo_obs)]
    tau_prev = params.tau if si is None else si.tau_prev
    (_, rows), _, _ = detector_threshold_curve(
        params.gamma, params.tau, tau_prev, params.alpha, params.beta,
        params.num_antennas, l, prev)
    return rows[0][1 if si is not None else 2]


class TestLlr:
    def test_memoryless_chain_drops_side_term(self):
        params = make_params(alpha=0.1, beta=0.1)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, si = draw_case_pair(rng, params, tau_prev=2e-6)
            assert llr_one(x, si, params) == llr_one(x, None, params)

    def test_zero_observation_leans_inactive(self):
        params = make_params(gamma=2.0, tau=1.0, m=3)
        value = llr_one(np.zeros(3, complex), None, params)
        assert value == pytest.approx(-3 * np.log(3.0), rel=1e-12)
        assert value < 0

    def test_matches_unsimplified_likelihood_ratio(self):
        rng = np.random.default_rng(1)
        lam, alpha = 0.1, 0.91
        beta = beta_from(lam, alpha)
        worst = 0.0
        for _ in range(2000):
            m = int(rng.choice([1, 2, 4]))
            ratio = float(rng.choice([0.1, 1.0, 2500.0]))
            tau = float(10.0 ** rng.uniform(-6, 0))
            params = DenoiserParams(gamma=ratio * tau * tau, tau=tau, lam=lam,
                                    alpha=alpha, beta=beta, num_antennas=m)
            x, si = draw_case_pair(rng, params, tau_prev=tau * rng.uniform(0.5, 2))
            a = llr_one(x, si, params)
            b = llr_appendix_oracle(x, si, params)
            worst = max(worst, abs(a - b) / max(abs(b), 1.0))
        assert worst < 1e-10


class TestThreshold:
    def test_memoryless_reduces_to_single_block_rule(self):
        params = make_params(alpha=0.1, beta=0.1)
        rng = np.random.default_rng(2)
        for _ in range(50):
            _, si = draw_case_pair(rng, params, tau_prev=2e-6)
            for l in (-3.0, 0.0, 4.0):
                assert threshold(l, si, params) == threshold(l, None, params)

    def test_uninformative_side_info_reduces(self):
        params = make_params(gamma=0.0, tau=1.0)
        si = SideInfo(pseudo_obs=np.array([5.0 + 1j]), tau_prev=1.0)
        # gamma=0 makes delta vanish; rule degenerates entirely
        with pytest.raises(InvalidConfig):
            detect_one(si.pseudo_obs, si, params)

    def test_mu_equal_one_drops_side_term(self):
        # tau_prev >> gamma: previous block carries almost no information
        params = make_params()
        si = SideInfo(pseudo_obs=np.array([0.0j]), tau_prev=1.0)
        assert threshold(0.0, si, params) == pytest.approx(
            threshold(0.0, None, params), rel=1e-9)

    def test_monotone_in_previous_magnitude_with_limits(self):
        params = make_params()
        tau_sq = params.tau ** 2
        delta = 1 / tau_sq - 1 / (tau_sq + params.gamma)
        base = np.log((tau_sq + params.gamma) / tau_sq)
        lower = (base + np.log(params.beta / params.alpha)) / delta
        upper = (base + np.log((1 - params.beta) / (1 - params.alpha))) / delta
        mags = np.linspace(0.0, 2e-5, 200)
        values = []
        for mag in mags:
            si = SideInfo(pseudo_obs=np.array([mag + 0j]), tau_prev=2e-6)
            values.append(threshold(0.0, si, params))
        values = np.asarray(values)
        assert np.all(np.diff(values) <= 1e-25)
        assert np.all(values >= lower - 1e-25)
        assert np.all(values <= upper + 1e-25)
        assert values[0] == pytest.approx(upper, rel=1e-6)
        assert values[-1] == pytest.approx(lower, rel=1e-9)

    def test_decide_rules(self):
        det = BlockDetection(llr=np.array([-1.0, 1.0, 0.0, -np.inf, np.inf]),
                             activity=np.zeros(5, dtype=bool))
        decisions = detect_block(det, 0.0).decisions
        assert not decisions[0]
        assert decisions[1]
        assert not decisions[2]  # ties resolve inactive
        assert not decisions[3] and decisions[4]

    def test_energy_rule_equals_llr_rule(self):
        rng = np.random.default_rng(3)
        lam, alpha = 0.1, 0.91
        beta = beta_from(lam, alpha)
        checked = 0
        for _ in range(2000):
            m = int(rng.choice([1, 2, 4]))
            tau = float(10.0 ** rng.uniform(-3, 0))
            params = DenoiserParams(gamma=rng.uniform(0.5, 3) * tau * tau,
                                    tau=tau, lam=lam, alpha=alpha, beta=beta,
                                    num_antennas=m)
            x, si = draw_case_pair(rng, params, tau_prev=tau * rng.uniform(0.5, 2))
            llr = llr_one(x, si, params)
            l = float(rng.uniform(-10, 10))
            if abs(llr - l) < 1e-9:
                continue
            checked += 1
            energy = np.sum(np.abs(x) ** 2)
            assert (energy > threshold(l, si, params)) == (llr > l)
        assert checked > 1500


class TestMetrics:
    def test_empty_denominators_flagged(self):
        # trial 1 has no inactive device: its per-trial P_FA is NaN, so
        # it adds nothing to the pooled rate or to its standard error
        fa = np.array([[3], [0], [1]])
        md = np.array([[1], [2], [0]])
        n_inactive, n_active = np.array([30, 0, 20]), np.array([4, 2, 5])
        curve = aggregate_slot_counts(fa, md, n_inactive, n_active, [0.0])
        assert np.isnan(detector._per_trial_rates(fa, n_inactive)[1, 0])
        assert curve.p_fa[0] == 4 / 50
        np.testing.assert_array_equal(
            curve.se_p_fa, detector.rate_stderr(np.array([[3 / 30], [1 / 20]])))
        assert curve.p_md[0] == 3 / 11

    def test_nmse_over_active_rows(self):
        activity = np.array([True, False])
        x_true = np.array([[2.0 + 0j], [0.0j]])
        x_hat = np.array([[1.0 + 0j], [5.0 + 0j]])  # inactive row ignored
        metrics = compute_metrics(activity, x_hat, x_true)
        assert metrics.nmse == pytest.approx(0.25)

    def test_misaligned_rows_rejected(self):
        x = np.zeros((3, 1), dtype=complex)
        with pytest.raises(InvalidConfig, match="align per device"):
            compute_metrics(np.ones(2, bool), x, x)


def toy_block(rng, n=400, m=1):
    lam = 0.1
    gamma = rng.uniform(0.5, 2.0, n)
    tau = 0.3
    activity = rng.random(n) < lam
    x = np.where(activity[:, None],
                 np.sqrt(gamma[:, None] / 2) * (rng.standard_normal((n, m))
                                                + 1j * rng.standard_normal((n, m))),
                 0)
    pseudo = x + tau * np.sqrt(0.5) * (rng.standard_normal((n, m))
                                       + 1j * rng.standard_normal((n, m)))
    return block_detection(pseudo, tau, gamma, activity)


def pool_blocks(dets, grid):
    """One slot's curve from the sweep counts of one block per trial."""
    fa, md, n_inactive, n_active = (
        np.array(c) for c in zip(*(sweep_block_counts(d, grid) for d in dets)))
    return aggregate_slot_counts(fa, md, n_inactive, n_active, grid)


def sweep_matrix_oracle(det, l_grid):
    """Sweep counts from the full (levels, devices) decision matrix."""
    decisions = det.llr[None, :] > l_grid[:, None]
    inactive = ~det.activity
    fa = np.sum(decisions & inactive[None, :], axis=1)
    md = np.sum(~decisions & det.activity[None, :], axis=1)
    return fa, md, int(inactive.sum()), int(det.activity.sum())


def assert_sweep_matches_oracle(det, grid):
    got = sweep_block_counts(det, grid)
    want = sweep_matrix_oracle(det, grid)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)
        assert np.asarray(a).dtype == np.asarray(b).dtype


class TestSweep:
    @pytest.mark.parametrize("seed", range(50))
    def test_matches_decision_matrix(self, seed):
        rng = np.random.default_rng(100 + seed)
        det = toy_block(rng, n=int(rng.integers(1, 1000)),
                        m=int(rng.choice([1, 2, 4])))
        assert_sweep_matches_oracle(det, np.linspace(-40.0, 40.0, 161))

    @pytest.mark.parametrize("size", [1, 2, 3, 7, 8, 9, 64, 161, 256, 257])
    def test_matches_decision_matrix_any_grid_size(self, size):
        det = toy_block(np.random.default_rng(size))
        assert_sweep_matches_oracle(det, np.linspace(-30.0, 30.0, size))

    def test_infinite_offsets(self):
        # at persistence 0 and 1 the side-information term tends to +inf
        # or -inf, and the LLR to -inf or +inf: such a device is declared
        # active at no level, or at every level; then real LLRs at both
        # persistences
        det = toy_block(np.random.default_rng(11), n=300)
        llr = det.llr.copy()
        llr[::3] = -np.inf
        llr[1::3] = np.inf
        det = BlockDetection(llr=llr, activity=det.activity)
        grid = np.linspace(-40.0, 40.0, 161)
        assert_sweep_matches_oracle(det, grid)
        for alpha in (0.0, 1.0):
            rng = np.random.default_rng(12)
            prev = rng.standard_normal((300, 1)) + 1j * rng.standard_normal((300, 1))
            si_term = si_log_odds(SideInfo(prev, 0.4), 1.0, alpha,
                                  beta_from(0.1, alpha))
            pseudo = rng.standard_normal((300, 1)) + 1j * rng.standard_normal((300, 1))
            assert_sweep_matches_oracle(
                block_detection(pseudo, 0.3, 1.0, rng.random(300) < 0.1,
                                si_term), grid)

    def test_ties_resolve_inactive(self):
        # an LLR exactly on a grid level
        det = toy_block(np.random.default_rng(13), n=200)
        grid = np.linspace(-10.0, 10.0, 41)
        llr = det.llr.copy()
        levels = np.random.default_rng(14).integers(0, len(grid), 200)
        llr[::2] = grid[levels][::2]
        det = BlockDetection(llr=llr, activity=det.activity)
        assert_sweep_matches_oracle(det, grid)
        assert not detect_block(det, grid[levels[0]]).decisions[0]

    @pytest.mark.parametrize("active", [True, False])
    def test_all_active_or_all_inactive_block(self, active):
        det = toy_block(np.random.default_rng(15), n=120)
        det = BlockDetection(llr=det.llr, activity=np.full(120, active))
        grid = np.linspace(-40.0, 40.0, 161)
        assert_sweep_matches_oracle(det, grid)
        fa, md, n_inact, n_act = sweep_block_counts(det, grid)
        assert (n_act, n_inact) == ((120, 0) if active else (0, 120))
        assert not np.any(md if not active else fa)

    def test_extreme_levels(self):
        det = toy_block(np.random.default_rng(5))
        fa, md, n_inact, n_act = sweep_block_counts(det, np.array([-1e9, 1e9]))
        assert fa[0] == n_inact and md[0] == 0  # everything declared active
        assert fa[1] == 0 and md[1] == n_act  # nothing declared active

    def test_monotone_in_level(self):
        det = toy_block(np.random.default_rng(6))
        grid = np.linspace(-20, 20, 101)
        fa, md, _, _ = sweep_block_counts(det, grid)
        assert np.all(np.diff(fa) <= 0)
        assert np.all(np.diff(md) >= 0)

    def test_report_consistent_with_sweep(self):
        det = toy_block(np.random.default_rng(7))
        decisions = detect_block(det, 1.5).decisions
        fa, md, _, _ = sweep_block_counts(det, np.array([1.5]))
        assert np.sum(decisions & ~det.activity) == fa[0]
        assert np.sum(~decisions & det.activity) == md[0]
        np.testing.assert_array_equal(decisions, det.llr > 1.5)

    def test_roc_curve_monotone_after_aggregation(self):
        rng = np.random.default_rng(8)
        grid = np.linspace(-15, 15, 61)
        trials = [[toy_block(rng), toy_block(rng)] for _ in range(10)]
        curves = [pool_blocks([trial[j] for trial in trials], grid)
                  for j in range(2)]
        for curve in curves:
            # both rates are monotone in l, so P_MD cannot rise where P_FA
            # strictly rises (ties in P_FA are the only degeneracy)
            assert np.all(np.diff(curve.p_fa) <= 0)
            assert np.all(np.diff(curve.p_md) >= 0)

    def test_interpolation_at_target(self):
        rng = np.random.default_rng(9)
        grid = np.linspace(-15, 15, 121)
        curve = pool_blocks([toy_block(rng) for _ in range(20)], grid)
        l_star = curve.l_at(0.1)
        assert grid[0] <= l_star <= grid[-1]
        pmd = np.interp(l_star, grid, curve.p_md)
        se = np.interp(l_star, grid, curve.se_p_md)
        assert 0.0 <= pmd <= 1.0
        assert se > 0.0
        with pytest.raises(InvalidConfig):
            curve.l_at(2.0)


def bisection_sweep(energy, delta, offset, activity, l_grid):
    """Sweep counts by the energy test energy > (l + offset)/delta, as the
    detector ran it before it tested the LLR: each device's first level
    not declared active by binary search, then `bincount`/`cumsum`."""
    size = len(l_grid)
    first_inactive = np.zeros(len(energy), dtype=np.intp)
    for step in (1 << np.arange(size.bit_length()))[::-1]:
        level = first_inactive + step - 1
        inside = level < size
        l = l_grid[np.minimum(level, size - 1)]
        declared = inside & (energy > (l + offset) / delta)
        first_inactive = np.where(declared, first_inactive + step,
                                  first_inactive)
    inactive = ~activity
    fa = np.cumsum(np.bincount(first_inactive[inactive],
                               minlength=size + 1)[::-1])[::-1][1:]
    md = np.cumsum(np.bincount(first_inactive[activity],
                               minlength=size + 1))[:size]
    return fa, md, int(inactive.sum()), int(activity.sum())


@pytest.mark.parametrize("preset", ["fig3-desk", "fig4-desk"])
def test_sweep_matches_energy_bisection_at_desk_scale(preset, monkeypatch):
    # every detection of three desk-scale trials, both variants: the LLR
    # sweep counts equal those of the energy test on the same block
    spec = spec_from_options({"preset": preset})
    calls = []  # (block_detection arguments, its result)
    real_block_detection = detector.block_detection

    def recorded(obs, tau, gamma, activity, si_term=0.0):
        det = real_block_detection(obs, tau, gamma, activity, si_term)
        calls.append(((obs, tau, gamma, activity, si_term), det))
        return det

    monkeypatch.setattr(detector, "block_detection", recorded)
    for index in range(3):
        run_trial_variants(replace(spec.scenario, rng_seed=trial_seed(
            spec.scenario.rng_seed, index)))
    assert len(calls) == 3 * 2 * spec.scenario.num_blocks
    for (obs, tau, gamma, activity, si_term), det in calls:
        energy = _row_norm_sq(obs)
        delta, log_gain = log_odds_terms(gamma, tau, obs.shape[-1])
        delta = np.broadcast_to(delta, energy.shape)
        offset = np.broadcast_to(log_gain + si_term, energy.shape).astype(float)
        want = bisection_sweep(energy, delta, offset, activity, spec.l_grid)
        for a, b in zip(sweep_block_counts(det, spec.l_grid), want):
            np.testing.assert_array_equal(a, b)
            assert np.asarray(a).dtype == np.asarray(b).dtype


def loop_reference(slot_counts, n_l):
    """Pooled rates and per-trial standard errors, one trial at a time:
    running float sums, and a per-trial rate row that is NaN for an empty
    denominator."""
    fa, md = np.zeros(n_l), np.zeros(n_l)
    n_inact = n_act = 0
    rates_fa, rates_md = [], []
    for fa_i, md_i, ninact_i, nact_i in slot_counts:
        fa += fa_i
        md += md_i
        n_inact += ninact_i
        n_act += nact_i
        rates_fa.append(fa_i / ninact_i if ninact_i > 0 else np.full(n_l, np.nan))
        rates_md.append(md_i / nact_i if nact_i > 0 else np.full(n_l, np.nan))
    stderr = []
    for rates in (np.asarray(rates_fa), np.asarray(rates_md)):
        valid = np.sum(~np.isnan(rates), axis=0)
        with warnings.catch_warnings(), np.errstate(invalid="ignore",
                                                    divide="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)
            se = np.nanstd(rates, axis=0, ddof=1) / np.sqrt(valid)
        stderr.append(np.where(valid > 1, se, np.nan))
    p_fa = fa / n_inact if n_inact > 0 else np.full(n_l, np.nan)
    p_md = md / n_act if n_act > 0 else np.full(n_l, np.nan)
    return p_fa, p_md, stderr[0], stderr[1]


@st.composite
def slot_counts(draw):
    """Per-trial sweep counts of one slot; device counts include zero, so
    some trials have no inactive or no active device."""
    n_l = draw(st.integers(1, 5))
    trials = []
    for _ in range(draw(st.integers(1, 8))):
        n_inactive = draw(st.integers(0, 30))
        n_active = draw(st.integers(0, 6))
        fa = draw(st.lists(st.integers(0, n_inactive), min_size=n_l,
                           max_size=n_l))
        md = draw(st.lists(st.integers(0, n_active), min_size=n_l,
                           max_size=n_l))
        trials.append((np.array(fa), np.array(md), n_inactive, n_active))
    return trials, n_l


@settings(max_examples=300, deadline=None)
@given(slot_counts())
def test_pooling_matches_loop_reference(case):
    trials, n_l = case
    grid = np.linspace(-1.0, 1.0, n_l)
    fa, md, n_inactive, n_active = (np.array(c) for c in zip(*trials))
    curve = aggregate_slot_counts(fa, md, n_inactive, n_active, grid)
    expected = loop_reference(trials, n_l)
    got = (curve.p_fa, curve.p_md, curve.se_p_fa, curve.se_p_md)
    for a, b in zip(got, expected):
        # equal values, NaN where the reference has NaN
        np.testing.assert_array_equal(a, b)
    assert curve.num_trials == len(trials)
