import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siamp import (BlockDetection, DenoiserParams, InvalidConfig, SideInfo,
                   aggregate_slot_counts, beta_from, block_detection,
                   compute_metrics, detect_block, draw_case_pair,
                   llr_appendix_oracle, si_log_odds, sweep_block_counts)

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
    return float(detect_block(detect_one(np.zeros(params.num_antennas), si,
                                         params), l).threshold[0])


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
            threshold(0.0, si, params)

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
        # thresholds (l + offset)/delta at l = 0 are 1, -1 and 1
        det = BlockDetection(energy=np.array([0.0, 0.0, 1.0]),
                             llr=np.zeros(3), delta=np.ones(3),
                             offset=np.array([1.0, -1.0, 1.0]),
                             activity=np.zeros(3, dtype=bool))
        decisions = detect_block(det, 0.0).decisions
        assert not decisions[0]
        assert decisions[1]  # negative threshold forces active
        assert not decisions[2]  # ties resolve inactive

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
            det = detect_one(x, si, params)
            llr = float(det.llr[0])
            l = float(rng.uniform(-10, 10))
            if abs(llr - l) < 1e-9:
                continue
            checked += 1
            assert bool(detect_block(det, l).decisions[0]) == (llr > l)
        assert checked > 1500


class TestMetrics:
    def test_perfect_decisions(self):
        activity = np.array([True, False, True, False])
        metrics = compute_metrics(activity.copy(), activity)
        assert metrics.p_fa == 0.0 and metrics.p_md == 0.0

    def test_all_active_decisions(self):
        activity = np.array([True, False, True, False])
        metrics = compute_metrics(np.ones(4, bool), activity)
        assert metrics.p_md == 0.0 and metrics.p_fa == 1.0

    def test_random_decisions_match_flip_probability(self):
        rng = np.random.default_rng(4)
        n = 1_000_000
        activity = rng.random(n) < 0.1
        decisions = rng.random(n) < 0.3
        metrics = compute_metrics(decisions, activity)
        assert metrics.p_fa == pytest.approx(0.3, abs=3 * np.sqrt(0.3 * 0.7 / n) * 2)
        assert metrics.p_md == pytest.approx(0.7, abs=3 * np.sqrt(0.3 * 0.7 / (0.1 * n)) * 2)

    def test_empty_denominators_flagged(self):
        metrics = compute_metrics(np.array([True, True]), np.array([True, True]))
        assert metrics.num_inactive == 0
        assert np.isnan(metrics.p_fa)
        assert metrics.p_md == 0.0

    def test_nmse_over_active_rows(self):
        activity = np.array([True, False])
        x_true = np.array([[2.0 + 0j], [0.0j]])
        x_hat = np.array([[1.0 + 0j], [5.0 + 0j]])  # inactive row ignored
        metrics = compute_metrics(activity, activity, x_hat, x_true)
        assert metrics.nmse == pytest.approx(0.25)


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
    thresholds = (l_grid[:, None] + det.offset[None, :]) / det.delta[None, :]
    decisions = det.energy[None, :] > thresholds
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
        # or -inf: such a device is declared active at no level, or at
        # every level; then real offsets at both persistences
        det = toy_block(np.random.default_rng(11), n=300)
        offset = det.offset.copy()
        offset[::3] = np.inf
        offset[1::3] = -np.inf
        det = BlockDetection(energy=det.energy, llr=det.llr, delta=det.delta,
                             offset=offset, activity=det.activity)
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
        # energy exactly at a device's threshold on a grid level
        det = toy_block(np.random.default_rng(13), n=200)
        grid = np.linspace(-10.0, 10.0, 41)
        energy = det.energy.copy()
        levels = np.random.default_rng(14).integers(0, len(grid), 200)
        energy[::2] = ((grid[levels] + det.offset) / det.delta)[::2]
        det = BlockDetection(energy=energy, llr=det.llr, delta=det.delta,
                             offset=det.offset, activity=det.activity)
        assert_sweep_matches_oracle(det, grid)
        assert not detect_block(det, grid[levels[0]]).decisions[0]

    @pytest.mark.parametrize("active", [True, False])
    def test_all_active_or_all_inactive_block(self, active):
        det = toy_block(np.random.default_rng(15), n=120)
        det = BlockDetection(energy=det.energy, llr=det.llr, delta=det.delta,
                             offset=det.offset,
                             activity=np.full(120, active))
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
        report = detect_block(det, 1.5)
        fa, md, n_inact, n_act = sweep_block_counts(det, np.array([1.5]))
        assert report.metrics.false_alarms == fa[0]
        assert report.metrics.missed == md[0]
        assert report.decisions[3] == (det.energy[3] > report.threshold[3])

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
