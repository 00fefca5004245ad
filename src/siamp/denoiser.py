"""MMSE denoisers for row-sparse recovery with previous-block side information.

The denoiser shrinks each device's pseudo-observation toward zero by a
data-dependent scalar.  With side information (the previous block's
converged pseudo-observation and its noise level) the shrinkage is biased
by how active the device looked one block earlier.  The shrinkage and the
activity detector's likelihood-ratio test both depend on the data through
one posterior log-odds.  `log_odds_terms` computes its data terms for
both; `si_log_odds` computes its side-information term, which is fixed
for a whole block, once per block for both.

The module owns the four-case two-block activity model (`case_priors`).
`oracle_posterior_mean` is an independent implementation of the same
posterior mean built directly from the four-case Gaussian-mixture
decomposition; it exists to cross-check the closed form and shares no
helpers with it.  `draw_case_pair` samples the inputs of such checks.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig
from .model import count_violation


# The two-block activity cases, previous->current: active->active,
# active->inactive, inactive->active, inactive->inactive.
ACTIVE_BEFORE = np.array([True, True, False, False])
ACTIVE_NOW = np.array([True, False, True, False])
ACTIVE_BEFORE.flags.writeable = ACTIVE_NOW.flags.writeable = False


def case_priors(lam: float, alpha: float, beta: float) -> np.ndarray:
    """Priors of the four cases in order; `alpha` and `beta` are P(active
    now | active, inactive before).  Rejects by name a `lam` outside (0, 1)
    or an `alpha` or `beta` outside [0, 1]."""
    if not 0.0 < lam < 1.0:
        raise InvalidConfig(f"lam must lie in (0, 1), got {lam}")
    for name, p in (("alpha", alpha), ("beta", beta)):
        if not 0.0 <= p <= 1.0:
            raise InvalidConfig(f"{name} must lie in [0, 1], got {p}")
    return np.array([alpha * lam, (1.0 - alpha) * lam,
                     beta * (1.0 - lam), (1.0 - beta) * (1.0 - lam)])


@dataclass(frozen=True)
class DenoiserParams:
    """Per-device denoiser inputs: channel gain, noise level, activity model."""

    gamma: float  # channel power gain of the device
    tau: float  # current pseudo-noise standard deviation
    lam: float  # marginal activity rate
    alpha: float  # P(active now | active previous block)
    beta: float  # P(active now | inactive previous block)
    num_antennas: int

    def __post_init__(self):
        if not self.tau > 0.0:
            raise InvalidConfig(f"tau must be positive, got {self.tau}")
        if not self.gamma >= 0.0:
            raise InvalidConfig(f"gamma must be nonnegative, got {self.gamma}")
        bad = count_violation("num_antennas", self.num_antennas, 1,
                              "num_antennas must be a positive count")
        if bad:
            raise InvalidConfig(bad)
        case_priors(self.lam, self.alpha, self.beta)


@dataclass(frozen=True)
class SideInfo:
    """Previous block's converged pseudo-observations and their noise level,
    for one device ((M,) row) or for all devices ((N, M) rows)."""

    pseudo_obs: np.ndarray  # (M,) or (N, M) complex
    tau_prev: float

    def __post_init__(self):
        # A degenerate side-information state indicates an upstream bug;
        # reject it instead of silently falling back to the no-SI path.
        obs = np.asarray(self.pseudo_obs)
        object.__setattr__(self, "pseudo_obs", obs)
        if not np.isfinite(self.tau_prev) or self.tau_prev <= 0.0:
            raise InvalidConfig(f"tau_prev must be positive, got {self.tau_prev}")
        if obs.ndim not in (1, 2):
            raise InvalidConfig(f"side information must be (M,) or (N, M) rows, "
                                f"got shape {obs.shape}")
        if not np.all(np.isfinite(obs)):
            raise InvalidConfig("side-information vector has non-finite entries")


def _row_norm_sq(x: np.ndarray) -> np.ndarray:
    # `np.sum`'s arithmetic without its wrapper
    return np.add.reduce(np.abs(x) ** 2, axis=-1)


def _log_or_neg_inf(p) -> float:
    return float(np.log(p)) if p > 0.0 else -np.inf


def log_odds_terms(gamma, tau: float, num_antennas: int):
    """The two data terms of the posterior activity log-odds, vectorized.

    Returns (delta, log_gain) with delta = 1/tau^2 - 1/(tau^2+gamma) and
    log_gain = M*log((tau^2+gamma)/tau^2).  For an observation of squared
    norm E the log of the inactive/active likelihood factor mu is
    log_gain - delta*E; the LLR of "active now" is
    delta*E - (log_gain + si_term), with si_term from `si_log_odds` (0.0
    without side information).  Everything stays in the log domain: mu
    itself overflows double precision already at moderate antenna counts
    and SNRs.
    """
    tau_sq = tau * tau
    total = tau_sq + gamma
    delta = 1.0 / tau_sq - 1.0 / total
    log_gain = num_antennas * np.log(total / tau_sq)
    return delta, log_gain


def si_log_odds(si: SideInfo, gamma, alpha: float, beta: float):
    """The side-information term of the posterior activity log-odds.

    Returns log((beta+(1-beta)*mu_prev)/(alpha+(1-alpha)*mu_prev)) per
    device, mu_prev being the previous block's inactive/active likelihood
    factor.  It tends to log((1-beta)/(1-alpha)) when the previous-block
    evidence is weak (mu_prev large) and to log(beta/alpha) when it
    strongly indicates activity (mu_prev -> 0).
    """
    delta_prev, log_gain_prev = log_odds_terms(gamma, si.tau_prev,
                                               si.pseudo_obs.shape[-1])
    log_mu_prev = log_gain_prev - delta_prev * _row_norm_sq(si.pseudo_obs)
    num = np.logaddexp(_log_or_neg_inf(beta),
                       _log_or_neg_inf(1.0 - beta) + log_mu_prev)
    den = np.logaddexp(_log_or_neg_inf(alpha),
                       _log_or_neg_inf(1.0 - alpha) + log_mu_prev)
    return num - den


def denoise_rows(x_rows: np.ndarray, gamma, tau: float, lam: float,
                 si_term=0.0):
    """Vectorized MMSE denoiser over device rows.

    Parameters
    ----------
    x_rows : (N, M) complex pseudo-observations, one row per device, or
        (K, N, M) rows of K blocks.
    gamma : scalar or (N,) per-device channel power gains.
    tau : current pseudo-noise standard deviation, shared by all devices
        (scalar, or (K, 1) per block for (K, N, M) rows).
    lam : marginal activity rate.
    si_term : scalar or (N,) side-information log-odds term from
        `si_log_odds`; 0.0 selects the no-SI denoiser.

    Returns
    -------
    denoised : complex estimates c*x/(1+exp(q)) shaped like `x_rows`,
        where c is the linear-MMSE gain and q the log-odds of "inactive
        now".
    deriv_avg : (N,) (or (K, N)) per-device entrywise-averaged
        derivatives of the denoiser with respect to its observation
        (Wirtinger convention, real-valued), used for the residual
        correction term.
    """
    x_rows = np.asarray(x_rows)
    num_antennas = x_rows.shape[-1]
    gamma = np.asarray(gamma, dtype=float)
    norm_sq = _row_norm_sq(x_rows)
    delta, log_gain = log_odds_terms(gamma, tau, num_antennas)
    c = gamma / (gamma + tau * tau)
    # q = log((1-lam)/lam) - LLR; other groupings of these sums round
    # differently and change the emitted CSV bytes
    q = (_log_or_neg_inf((1.0 - lam) / lam)
         + (log_gain - delta * norm_sq)) + si_term
    # one exponential for the gain and the posterior-active factor g
    with np.errstate(over="ignore"):  # exp(q) = inf gives gain = g = 0
        denom = 1.0 + np.exp(q)
    gain = c / denom
    g = 1.0 / denom
    # Wirtinger derivative of gain(||x||^2)*x averaged over entries
    deriv_avg = c * g * (1.0 + delta * (norm_sq / num_antennas) * (1.0 - g))
    return np.atleast_1d(gain)[..., None] * x_rows, np.atleast_1d(deriv_avg)


def _log_cgauss(x: np.ndarray, variance: float, num_antennas: int) -> float:
    """Log-pdf of an isotropic circular complex Gaussian CN(0, variance*I)."""
    norm_sq = float(_row_norm_sq(np.asarray(x)))
    return -num_antennas * float(np.log(np.pi * variance)) - norm_sq / variance


def case_log_likelihoods(x_tilde: np.ndarray, si: SideInfo,
                         params: DenoiserParams) -> np.ndarray:
    """Log joint densities of (current, previous) pseudo-observations under
    the four two-block activity cases, including the case priors.

    Cases in the order of `case_priors`.  A case with prior zero gets -inf.
    """
    m = params.num_antennas
    tau_sq = params.tau ** 2
    taup_sq = si.tau_prev ** 2
    gamma = params.gamma
    cur = np.where(ACTIVE_NOW, _log_cgauss(x_tilde, gamma + tau_sq, m),
                   _log_cgauss(x_tilde, tau_sq, m))
    prev = np.where(ACTIVE_BEFORE,
                    _log_cgauss(si.pseudo_obs, gamma + taup_sq, m),
                    _log_cgauss(si.pseudo_obs, taup_sq, m))
    with np.errstate(divide="ignore"):  # log(0) = -inf for a prior of zero
        log_priors = np.log(case_priors(params.lam, params.alpha, params.beta))
    return log_priors + (cur + prev)


def oracle_posterior_mean(x_tilde: np.ndarray, si: SideInfo,
                          params: DenoiserParams) -> np.ndarray:
    """Posterior mean computed directly from the four-case mixture.

    Conditional on either case where the device is currently active, the
    mean is the linear-MMSE estimate gamma/(gamma+tau^2)*x; in the other
    two cases the signal is exactly zero.  This routine is deliberately
    independent of the closed-form shrinkage path and serves as its
    ground-truth oracle.
    """
    ll = case_log_likelihoods(x_tilde, si, params)
    with np.errstate(invalid="ignore"):
        p_active_now = np.exp(np.logaddexp.reduce(ll[ACTIVE_NOW])
                              - np.logaddexp.reduce(ll))
    if not np.isfinite(p_active_now):  # both log-sum-exps at -inf cannot happen
        raise InvalidConfig("degenerate case likelihoods")
    c = params.gamma / (params.gamma + params.tau ** 2)
    return c * p_active_now * np.asarray(x_tilde)


def draw_case_pair(rng: np.random.Generator, params: DenoiserParams,
                   tau_prev: float):
    """(current observation, side information) for one device, drawn from
    the four-case two-block model: the case from its prior, then the real
    and the imaginary parts of both observations."""
    case = rng.choice(4, p=case_priors(params.lam, params.alpha, params.beta))
    m = params.num_antennas
    var_now = params.tau ** 2 + (params.gamma if ACTIVE_NOW[case] else 0.0)
    var_prev = tau_prev ** 2 + (params.gamma if ACTIVE_BEFORE[case] else 0.0)
    z = rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))
    x = np.sqrt(var_now / 2) * z[0]
    si = SideInfo(pseudo_obs=np.sqrt(var_prev / 2) * z[1], tau_prev=tau_prev)
    return x, si
