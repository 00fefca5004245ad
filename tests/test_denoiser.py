import warnings

import numpy as np
import pytest

from scipy.special import expit, logsumexp

from siamp.denoiser import (ACTIVE_BEFORE, ACTIVE_NOW, DenoiserParams,
                            SideInfo, case_log_likelihoods, case_priors,
                            denoise_rows, draw_case_pair, log_odds_terms,
                            oracle_posterior_mean, si_log_odds)
from siamp.errors import InvalidConfig
from siamp.model import beta_from

# parameter family of the response-curve examples
FIG_FAMILY = dict(gamma=1e-8, tau=2e-6, lam=0.1, alpha=0.91, beta=0.01)


def make_params(m=1, **overrides):
    kw = dict(FIG_FAMILY, num_antennas=m)
    kw.update(overrides)
    return DenoiserParams(**kw)


def denoise_one(x, si, params):
    """(estimate, derivative average) of one device, as a one-row call."""
    si_term = 0.0 if si is None else si_log_odds(si, params.gamma,
                                                 params.alpha, params.beta)
    out, deriv = denoise_rows(np.asarray(x)[None, :], params.gamma, params.tau,
                              params.lam, si_term)
    return out[0], deriv[0]


def log_mu(x, params):
    """Log of the inactive/active likelihood factor at one observation."""
    delta, log_gain = log_odds_terms(params.gamma, params.tau,
                                     params.num_antennas)
    return log_gain - delta * np.sum(np.abs(x) ** 2)


def si_weight(si, params):
    """The side-information factor on the prior odds."""
    return float(np.exp(si_log_odds(si, params.gamma, params.alpha,
                                    params.beta)))


class TestLogMu:
    def test_zero_gain(self):
        params = make_params(gamma=0.0, tau=1.0)
        x = np.array([1.0 + 2.0j])
        assert log_mu(x, params) == 0.0

    def test_unit_case(self):
        params = make_params(gamma=1.0, tau=1.0)
        assert log_mu(np.array([0.0j]), params) == pytest.approx(np.log(2.0),
                                                                 rel=1e-15)

    def test_two_antenna_value(self):
        # frozen from mpmath: log(16*exp(-3/4)) at 30 digits
        params = make_params(m=2, gamma=3.0, tau=1.0)
        x = np.array([1.0 + 0.0j, 0.0 + 0.0j])  # squared norm 1
        assert log_mu(x, params) == pytest.approx(
            2.02258872223978123766892848583, rel=1e-14)

    def test_log_domain_needed(self):
        # mu itself overflows here; its log stays finite
        params = make_params(m=64, gamma=2500.0, tau=1.0)
        value = log_mu(np.zeros(64, dtype=complex), params)
        assert np.isfinite(value)
        assert value > 400


class TestSiWeight:
    def test_equal_transitions_give_unity(self):
        params = make_params(alpha=0.3, beta=0.3, lam=0.3)
        rng = np.random.default_rng(0)
        for _ in range(20):
            si = SideInfo(pseudo_obs=rng.standard_normal(1) * (1 + 1j),
                          tau_prev=2e-6)
            assert si_weight(si, params) == 1.0

    def test_degenerate_gain_reduces_to_unity(self):
        # gamma=0 makes the previous block uninformative (mu_prev = 1)
        params = make_params(gamma=0.0)
        si = SideInfo(pseudo_obs=np.array([3.0 + 4.0j]), tau_prev=0.5)
        assert si_weight(si, params) == pytest.approx(1.0, abs=1e-15)

    def test_strong_activity_evidence_limit(self):
        # huge previous magnitude kills mu_prev; ratio tends to beta/alpha
        params = make_params()
        si = SideInfo(pseudo_obs=np.array([np.sqrt(1e3) * 2e-6 + 0j]),
                      tau_prev=2e-6)
        assert si_weight(si, params) == pytest.approx(
            0.010989010989010989, rel=1e-9)

    def test_weak_evidence_limit(self):
        params = make_params()
        si = SideInfo(pseudo_obs=np.array([0.0j]), tau_prev=2e-6)
        # mu_prev is maximal (2501) here; ratio close to (1-beta)/(1-alpha)
        assert si_weight(si, params) == pytest.approx(
            (1 - 0.01) / (1 - 0.91), rel=1e-2)

    def test_rejects_degenerate_side_info(self):
        with pytest.raises(InvalidConfig):
            SideInfo(pseudo_obs=np.array([1.0 + 0j]), tau_prev=0.0)
        with pytest.raises(InvalidConfig):
            SideInfo(pseudo_obs=np.array([np.nan + 0j]), tau_prev=1.0)
        rows = np.ones((3, 2), dtype=complex)
        rows[1, 0] = np.inf
        with pytest.raises(InvalidConfig):
            SideInfo(pseudo_obs=rows, tau_prev=1.0)
        with pytest.raises(InvalidConfig):
            SideInfo(pseudo_obs=np.ones((2, 2, 2), dtype=complex), tau_prev=1.0)


class TestDenoisers:
    def test_zero_input_maps_to_zero(self):
        params = make_params(m=3)
        si = SideInfo(pseudo_obs=np.ones(3, dtype=complex), tau_prev=2e-6)
        np.testing.assert_array_equal(denoise_one(np.zeros(3, complex), si,
                                                  params)[0], np.zeros(3))
        np.testing.assert_array_equal(denoise_one(np.zeros(3, complex), None,
                                                  params)[0], np.zeros(3))

    def test_no_side_info_falls_back(self):
        # si=None is the single-block denoiser, written out independently
        params = make_params()
        x = np.array([1e-6 + 2e-6j])
        g, t2 = params.gamma, params.tau ** 2
        log_mu_cur = np.log((t2 + g) / t2) - (1 / t2 - 1 / (t2 + g)) * np.sum(
            np.abs(x) ** 2)
        expected = g / (g + t2) / (1 + (1 - params.lam) / params.lam
                                   * np.exp(log_mu_cur)) * x
        np.testing.assert_allclose(denoise_one(x, None, params)[0], expected,
                                   rtol=1e-12)

    def test_memoryless_chain_equals_nosi_bitwise(self):
        params = make_params(alpha=0.1, beta=0.1)
        rng = np.random.default_rng(1)
        for _ in range(100):
            x, si = draw_case_pair(rng, params, tau_prev=3e-6)
            np.testing.assert_array_equal(denoise_one(x, si, params)[0],
                                          denoise_one(x, None, params)[0])

    def test_dense_prior_limit_is_linear(self):
        params = make_params(lam=1.0 - 1e-15, alpha=1.0 - 1e-15,
                             beta=1.0 - 1e-15, gamma=1.0, tau=1.0)
        x = np.array([0.3 - 0.7j])
        c = 1.0 / (1.0 + 1.0)
        np.testing.assert_allclose(denoise_one(x, None, params)[0], c * x,
                                   rtol=1e-12)

    def test_matches_posterior_oracle(self):
        rng = np.random.default_rng(2)
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
            ours = denoise_one(x, si, params)[0]
            ref = oracle_posterior_mean(x, si, params)
            err = np.linalg.norm(ours - ref) / max(np.linalg.norm(ref), 1e-300)
            worst = max(worst, err)
        assert worst < 1e-9

    def test_shrinkage_scalar_structure(self):
        # output is a real factor in [0, gamma/(gamma+tau^2)] times the input
        rng = np.random.default_rng(3)
        params = make_params(m=4)
        c = params.gamma / (params.gamma + params.tau ** 2)
        for _ in range(200):
            x, si = draw_case_pair(rng, params, tau_prev=2e-6)
            out = denoise_one(x, si, params)[0]
            mask = np.abs(x) > 0
            factors = (out[mask] / x[mask]).real
            np.testing.assert_allclose(out[mask] / x[mask], factors, atol=1e-12)
            assert np.all(factors >= 0.0) and np.all(factors <= c + 1e-15)
            assert np.allclose(factors, factors[0], rtol=1e-12)

    def test_monotone_side_info_effect(self):
        # stronger previous-block magnitude never increases the shrinkage
        params = make_params()
        x = np.array([3e-6 + 0j])
        prev_mags = np.linspace(0.0, 1e-5, 80)
        gains = []
        for mag in prev_mags:
            si = SideInfo(pseudo_obs=np.array([mag + 0j]), tau_prev=2e-6)
            out = denoise_one(x, si, params)[0]
            gains.append(np.abs(out[0] / x[0]))
        assert np.all(np.diff(gains) >= -1e-18)

    def test_overflow_safety(self):
        params = make_params(m=64, gamma=2500.0, tau=1.0, lam=0.1,
                             alpha=0.91, beta=0.01)
        si = SideInfo(pseudo_obs=np.zeros(64, complex), tau_prev=1.0)
        for scale in (0.0, 1.0, 1e3, 1e6):
            x = np.full(64, np.sqrt(scale / 64.0), dtype=complex)
            out, deriv = denoise_one(x, si, params)
            assert np.all(np.isfinite(out))
            assert np.isfinite(deriv)


class TestDerivative:
    @staticmethod
    def finite_difference(x, si, params, h):
        """Central differences of the conjugate-fixed derivative, averaged."""
        m = len(x)
        total = 0.0
        for k in range(m):
            for direction in (1.0, 1j):
                step = np.zeros(m, complex)
                step[k] = direction * h
                fp = denoise_one(x + step, si, params)[0][k]
                fm = denoise_one(x - step, si, params)[0][k]
                d = (fp - fm) / (2 * h)
                total += 0.5 * (d if direction == 1.0 else -1j * d)
        return total / m

    def test_zero_gain_zero_derivative(self):
        params = make_params(gamma=0.0, tau=1.0)
        assert denoise_one(np.array([1.0 + 1.0j]), None, params)[1] == 0.0

    def test_dense_limit_slope(self):
        params = make_params(lam=1.0 - 1e-15, alpha=1 - 1e-15, beta=1 - 1e-15,
                             gamma=2.0, tau=1.0)
        c = 2.0 / 3.0
        assert denoise_one(np.array([0.5 + 0.5j]), None, params)[1] == \
            pytest.approx(c, rel=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        params = make_params(m=2)
        h = 1e-6 * params.tau
        worst = 0.0
        for _ in range(300):
            x, si = draw_case_pair(rng, params, tau_prev=2e-6)
            if np.linalg.norm(x) < 0.2 * params.tau:
                continue  # oracle noise dominates at the origin
            analytic = denoise_one(x, si, params)[1]
            numeric = self.finite_difference(x, si, params, h)
            err = abs(analytic - numeric) / max(abs(numeric), 1e-300)
            worst = max(worst, err)
        assert worst < 1e-6

    def test_derivative_is_real(self):
        rng = np.random.default_rng(5)
        params = make_params(m=4)
        x, si = draw_case_pair(rng, params, tau_prev=2e-6)
        _, deriv = denoise_rows(x[None, :], params.gamma, params.tau,
                                params.lam, si_log_odds(si, params.gamma,
                                                        params.alpha,
                                                        params.beta))
        assert deriv.dtype == np.float64 and deriv.shape == (1,)

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    @pytest.mark.parametrize("alpha", [0.0, 0.46, 0.91, 1.0])
    def test_matches_two_logistic_form(self, m, alpha):
        # one exponential for g and 1-g gives the derivative of the form
        # with two independent logistics, c*expit(-q)*(1+D*(E/M)*expit(q))
        rng = np.random.default_rng(m * 100 + int(alpha * 100))
        n, lam, tau = 4000, 0.1, 1.0
        beta = beta_from(lam, alpha)
        gamma = tau ** 2 * 10.0 ** rng.uniform(-2.0, 6.0, n)

        def rows(active):
            z = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
            var = np.where(active, gamma + tau ** 2, tau ** 2)
            return np.sqrt(var / 2)[:, None] * z

        x = rows(rng.random(n) < lam)
        x[::50] = 0.0
        si = SideInfo(pseudo_obs=rows(rng.random(n) < lam), tau_prev=tau)
        si_term = si_log_odds(si, gamma, alpha, beta)
        _, deriv = denoise_rows(x, gamma, tau, lam, si_term)
        delta, log_gain = log_odds_terms(gamma, tau, m)
        norm_sq = np.sum(np.abs(x) ** 2, axis=-1)
        q = np.log((1 - lam) / lam) + (log_gain - delta * norm_sq) + si_term
        c = gamma / (gamma + tau ** 2)
        reference = c * expit(-q) * (1 + delta * (norm_sq / m) * expit(q))
        np.testing.assert_allclose(deriv, reference, rtol=1e-10, atol=0.0)

    def test_overflowing_exponential_gives_zero(self):
        # exp(q) overflows for a zero row at gamma/tau^2 = 1e300 and M = 8,
        # and for a small nonzero row beside it
        x = np.zeros((2, 8), complex)
        x[1] = 1e-3
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            out, deriv = denoise_rows(x, 1e300, 1.0, 0.1)
        assert np.all(out == 0.0)
        np.testing.assert_array_equal(deriv, [0.0, 0.0])


def case_posterior(x_tilde, si, params):
    """Posterior over the four activity cases, normalized here."""
    ll = case_log_likelihoods(x_tilde, si, params)
    return np.exp(ll - logsumexp(ll))


class TestCasePosterior:
    def test_absorbing_chain_kills_transitions(self):
        params = make_params(alpha=1.0, beta=0.0)
        si = SideInfo(pseudo_obs=np.array([1e-6 + 0j]), tau_prev=2e-6)
        ll = case_log_likelihoods(np.array([1e-6 + 0j]), si, params)
        assert ll[1] == -np.inf and ll[2] == -np.inf
        assert np.isfinite(ll[0]) and np.isfinite(ll[3])

    def test_uninformative_observations_recover_priors(self):
        params = make_params(gamma=0.0, tau=1.0)
        si = SideInfo(pseudo_obs=np.array([0.0j]), tau_prev=1.0)
        post = case_posterior(np.array([0.0j]), si, params)
        lam, alpha, beta = params.lam, params.alpha, params.beta
        priors = [alpha * lam, (1 - alpha) * lam,
                  beta * (1 - lam), (1 - beta) * (1 - lam)]
        np.testing.assert_allclose(post, priors, rtol=1e-12)

    def test_posterior_normalization(self):
        rng = np.random.default_rng(6)
        params = make_params(m=2)
        for _ in range(200):
            x, si = draw_case_pair(rng, params, tau_prev=2e-6)
            post = case_posterior(x, si, params)
            assert abs(post.sum() - 1.0) < 1e-12
            assert np.all(post >= 0.0)

    def test_likelihoods_match_direct_density_sum(self):
        # exp of the four values must renormalize against an independent
        # evaluation of the total joint density
        rng = np.random.default_rng(7)
        params = make_params(gamma=1.0, tau=0.7, m=2)
        for _ in range(50):
            x, si = draw_case_pair(rng, params, tau_prev=0.9)
            ll = case_log_likelihoods(x, si, params)
            total = np.exp(ll).sum()
            direct = _direct_total_density(x, si, params)
            assert total == pytest.approx(direct, rel=1e-10)


class TestCasePriors:
    @pytest.mark.parametrize("lam", [1e-3, 0.1, 0.3, 0.5])
    @pytest.mark.parametrize("alpha", [0.0, 0.46, 0.91, 1.0])
    def test_stationary_marginals(self, lam, alpha):
        # with beta from the stationarity constraint, the device is active
        # with probability lam in both blocks
        priors = case_priors(lam, alpha, beta_from(lam, alpha))
        assert priors.sum() == pytest.approx(1.0, rel=1e-15)
        assert priors[ACTIVE_NOW].sum() == pytest.approx(lam, rel=1e-15)
        assert priors[ACTIVE_BEFORE].sum() == pytest.approx(lam, rel=1e-15)

    @pytest.mark.parametrize("key, value", [
        ("lam", 1.2), ("lam", 0.0), ("lam", 1.0), ("alpha", 1.5),
        ("alpha", np.nan), ("beta", -0.2)])
    def test_params_reject_out_of_range_probability(self, key, value):
        # constructed without complaint, and the first draw failed in numpy
        with pytest.raises(InvalidConfig, match=f"{key} must lie in"):
            make_params(**{key: value})

    @pytest.mark.parametrize("value, message", [
        (1.5, "must be an integer, got 1.5"), (True, "must be an integer"),
        (0, "must be a positive count")])
    def test_params_reject_bad_antenna_count(self, value, message):
        # 1.5 constructed, and draw_case_pair then failed in numpy
        with pytest.raises(InvalidConfig, match=f"num_antennas {message}"):
            make_params(m=value)


def _direct_total_density(x, si, params):
    """Plain-domain four-case mixture density, no shared helpers."""
    m = params.num_antennas

    def gauss(vec, var):
        return np.exp(-np.sum(np.abs(vec) ** 2) / var) / (np.pi * var) ** m

    lam, alpha, beta = params.lam, params.alpha, params.beta
    t2, p2, g = params.tau ** 2, si.tau_prev ** 2, params.gamma
    return (alpha * lam * gauss(x, g + t2) * gauss(si.pseudo_obs, g + p2)
            + (1 - alpha) * lam * gauss(x, t2) * gauss(si.pseudo_obs, g + p2)
            + beta * (1 - lam) * gauss(x, g + t2) * gauss(si.pseudo_obs, p2)
            + (1 - beta) * (1 - lam) * gauss(x, t2) * gauss(si.pseudo_obs, p2))


class TestBatchedRows:
    def test_batch_equals_per_device(self):
        rng = np.random.default_rng(8)
        n, m = 64, 3
        gammas = rng.uniform(0.5, 2.0, n)
        x = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        prev = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        si_term = si_log_odds(SideInfo(pseudo_obs=prev, tau_prev=1.1),
                              gammas, 0.46, 0.06)
        out, deriv = denoise_rows(x, gammas, 0.8, 0.1, si_term)
        for i in range(n):
            params = DenoiserParams(gamma=gammas[i], tau=0.8, lam=0.1,
                                    alpha=0.46, beta=0.06, num_antennas=m)
            si = SideInfo(pseudo_obs=prev[i], tau_prev=1.1)
            out_i, deriv_i = denoise_one(x[i], si, params)
            np.testing.assert_array_equal(out[i], out_i)
            assert deriv[i] == deriv_i
