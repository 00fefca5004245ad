"""Scalar state recursion predicting the per-iteration effective noise.

In the large-system limit the per-device effective observation behaves
like the truth plus isotropic complex Gaussian noise of variance tau_t^2
per antenna; tau evolves by adding the load-scaled per-antenna MSE of the
denoiser to the channel noise floor.  The MSE expectation is estimated by
Monte Carlo over the generative model (activity case, channels, noise,
and in SI mode the previous block's effective observation).  A trace
draws its samples once and maps them at every step (common random
numbers), so its recursion is a deterministic map with a true fixed point.
"""

from dataclasses import dataclass

import numpy as np

from .denoiser import SideInfo, denoise_rows, si_log_odds
from .errors import InvalidConfig
from .model import ScenarioConfig

__all__ = ["SeParams", "SeTrace", "draw_samples", "se_step", "se_fixed_point"]

REL_TOL = 1e-4  # relative change of tau^2 below which a trace has converged
MAX_STEPS = 200  # steps after which a trace is returned unconverged


@dataclass(frozen=True)
class SeParams:
    """Inputs of the state recursion."""

    noise_variance: float
    load: float  # devices per pilot symbol, N/L
    num_antennas: int
    lam: float
    alpha: float
    beta: float
    gammas: np.ndarray  # channel gains, drawn uniformly
    sample_count: int
    tau_prev: float | None = None  # converged level of the previous block (SI mode)

    def __post_init__(self):
        object.__setattr__(self, "gammas",
                           np.atleast_1d(np.asarray(self.gammas, dtype=float)))
        if self.sample_count < 2:
            raise InvalidConfig("sample_count must be >= 2")
        if not self.noise_variance > 0.0 or not self.load > 0.0:
            raise InvalidConfig("noise_variance and load must be positive")
        if self.tau_prev is not None and not self.tau_prev > 0.0:
            raise InvalidConfig("tau_prev must be positive when given")

    @classmethod
    def from_scenario(cls, config: ScenarioConfig, sample_count: int,
                      tau_prev: float | None = None) -> "SeParams":
        """Gains sampled from the scenario's empirical path-loss distribution."""
        return cls(noise_variance=config.noise_variance,
                   load=config.num_devices / config.pilot_length,
                   num_antennas=config.num_antennas,
                   lam=config.activity_rate, alpha=config.persistence,
                   beta=config.beta, gammas=config.path_losses,
                   sample_count=sample_count, tau_prev=tau_prev)


@dataclass
class SeTrace:
    """tau_t^2 sequence with Monte Carlo standard errors per step."""

    tau_sq: np.ndarray
    stderr: np.ndarray
    converged: bool

    @property
    def fixed_point(self) -> float:
        return float(self.tau_sq[-1])


def draw_samples(params: SeParams, rng: np.random.Generator):
    """A trace's samples, drawn once: (gamma, x_true, noise, si_term).

    Draw order: the four-case activity, the gain, the truth and the unit
    current noise, then in SI mode the previous truth and its noise (real
    parts before imaginary ones).  The no-SI draws come first, so si and
    nosi traces drawn from one stream are paired sample by sample.
    """
    s, m = params.sample_count, params.num_antennas

    def unit_normal():
        return (rng.standard_normal((s, m))
                + 1j * rng.standard_normal((s, m))) / np.sqrt(2.0)

    # case = 2*(inactive before) + (inactive now)
    priors = np.array([
        params.alpha * params.lam,
        (1.0 - params.alpha) * params.lam,
        params.beta * (1.0 - params.lam),
        (1.0 - params.beta) * (1.0 - params.lam),
    ])
    case = rng.choice(4, size=s, p=priors)
    gamma = rng.choice(params.gammas, size=s)
    scale = np.sqrt(gamma)[:, None]
    x_true = np.where((case % 2 == 0)[:, None], scale * unit_normal(), 0.0)
    noise = unit_normal()
    if params.tau_prev is None:
        return gamma, x_true, noise, 0.0
    x_prev = np.where((case < 2)[:, None], scale * unit_normal(), 0.0)
    prev = SideInfo(pseudo_obs=x_prev + params.tau_prev * unit_normal(),
                    tau_prev=params.tau_prev)
    si_term = si_log_odds(prev, gamma, params.alpha, params.beta)
    return gamma, x_true, noise, si_term


def se_step(tau_sq: float, params: SeParams, samples, denoiser_fn=None):
    """One recursion step: (next tau^2, Monte Carlo standard error), a pure
    map of `draw_samples`' output.  `denoiser_fn(x_tilde, x_true)` replaces
    the real denoiser when given (test hook).
    """
    if not tau_sq > 0.0:
        raise InvalidConfig(f"tau_sq must be positive, got {tau_sq}")
    gamma, x_true, noise, si_term = samples
    s, m = x_true.shape
    tau = float(np.sqrt(tau_sq))
    x_tilde = x_true + tau * noise
    if denoiser_fn is not None:
        estimates = denoiser_fn(x_tilde, x_true)
    else:
        estimates, _ = denoise_rows(x_tilde, gamma, tau, params.lam, si_term)
    per_sample_mse = np.sum(np.abs(estimates - x_true) ** 2, axis=-1) / m
    next_tau_sq = params.noise_variance + params.load * float(np.mean(per_sample_mse))
    stderr = params.load * float(np.std(per_sample_mse, ddof=1) / np.sqrt(s))
    return next_tau_sq, stderr


def se_fixed_point(params: SeParams, rng: np.random.Generator) -> SeTrace:
    """Iterate the recursion to its fixed point.

    Starts from the zero-denoiser level noise_variance + load*lam*E[gamma]
    and stops when the relative change drops below `REL_TOL`.  Every step
    maps one set of samples drawn from `rng`.  A trace that fails to
    converge within `MAX_STEPS` is returned with converged=False.
    """
    samples = draw_samples(params, rng)
    mean_gamma = float(np.mean(params.gammas))
    tau_sq = params.noise_variance + params.load * params.lam * mean_gamma
    trace = [tau_sq]
    errs = [0.0]
    converged = False
    for _ in range(MAX_STEPS):
        nxt, err = se_step(tau_sq, params, samples)
        trace.append(nxt)
        errs.append(err)
        converged = abs(nxt - tau_sq) / tau_sq < REL_TOL
        tau_sq = nxt
        if converged:
            break
    return SeTrace(tau_sq=np.asarray(trace), stderr=np.asarray(errs),
                   converged=converged)
