"""Iterative row-sparse estimator for one coherence block, chained across
blocks through converged pseudo-observations.

Each iteration denoises the matched-filter-corrected estimate and rebuilds
the residual with the correction term that keeps the per-device effective
noise Gaussian.  After convergence, the block's pseudo-observations and
final noise level become the side information for the next block.
"""

from dataclasses import dataclass, field

import numpy as np

from . import detector, model
from .denoiser import SideInfo, denoise_rows, si_log_odds
from .errors import DimensionMismatch, NonFiniteState

# stopping rule of every block: converged once the relative estimate
# change drops below CONVERGENCE_TOL, stopped after MAX_ITERS iterations
MAX_ITERS = 50
CONVERGENCE_TOL = 1e-6

# guards the relative-change convergence test against a zero baseline
_NORM_FLOOR = 1e-30

# tau is clamped to this multiple of the strongest channel gain so the
# precision gap in the denoiser never divides by zero
TAU_FLOOR_FACTOR = 1e-12

# the compared variants: side information from the previous block, or none
VARIANTS = ("si", "nosi")

__all__ = [
    "AmpState",
    "AmpBlockResult",
    "TrialResult",
    "pseudo_observations",
    "estimate_tau",
    "amp_iterate",
    "run_block",
    "run_trial",
    "run_trial_variants",
]


@dataclass
class AmpState:
    """Iterate of the algorithm: estimate, residual, noise level, counter."""

    x: np.ndarray  # (N, M) complex
    residual: np.ndarray  # (L, M) complex
    tau: float
    t: int


@dataclass(frozen=True)
class AmpBlockResult:
    """Converged output of one block."""

    x_hat: np.ndarray  # (N, M) converged estimate
    pseudo_obs: np.ndarray  # (N, M) converged pseudo-observations
    residual: np.ndarray  # (L, M) final residual
    tau_trace: np.ndarray  # tau_0 .. tau_T
    delta_x_trace: np.ndarray  # relative estimate change per iteration
    residual_fro_trace: np.ndarray  # Frobenius norm of the residual per iteration
    iters_used: int
    converged: bool

    @property
    def tau_final(self) -> float:
        return float(self.tau_trace[-1])

    def side_info(self) -> SideInfo:
        return SideInfo(pseudo_obs=self.pseudo_obs, tau_prev=self.tau_final)


def pseudo_observations(x: np.ndarray, residual: np.ndarray,
                        pilots: np.ndarray) -> np.ndarray:
    """Matched-filter-corrected estimates: row n is x_n + s_n^H residual.

    The pilot (not the residual) carries the conjugate: only this reading
    makes the matched filter center on x_n rather than its conjugate, so
    that the residual recursion cancels the signal component.  S^H r is
    evaluated as conj(S^T conj(r)), which gives the same bits without
    building a conjugate copy of S on every call.
    """
    if pilots.shape[0] != residual.shape[0] or pilots.shape[1] != x.shape[0]:
        raise DimensionMismatch(
            f"pilots {pilots.shape} incompatible with estimate {x.shape} "
            f"and residual {residual.shape}")
    return x + np.conj(pilots.T @ np.conj(residual))


def estimate_tau(residual: np.ndarray) -> float:
    """Root-mean-square magnitude of the residual entries."""
    l, m = residual.shape
    return float(np.linalg.norm(residual) / np.sqrt(l * m))


def _tau_floor(config: model.ScenarioConfig) -> float:
    return TAU_FLOOR_FACTOR * float(np.max(config.path_losses))


def amp_iterate(state: AmpState, y: np.ndarray, pilots: np.ndarray,
                si_term, config: model.ScenarioConfig,
                denoiser_fn=None) -> AmpState:
    """One estimator update followed by the corrected residual update.

    `si_term` is the block's side-information log-odds term (0.0 for
    none).  `denoiser_fn`, when given, replaces the MMSE denoiser (test
    hook); it maps the (N, M) pseudo-observations to (estimates,
    per-device derivative averages).
    """
    n, l = config.num_devices, config.pilot_length
    x_tilde = pseudo_observations(state.x, state.residual, pilots)
    if denoiser_fn is not None:
        x_next, deriv = denoiser_fn(x_tilde)
    else:
        x_next, deriv = denoise_rows(x_tilde, config.path_losses, state.tau,
                                     config.activity_rate, si_term)
    # single correction scalar: population average of the per-device
    # entrywise-averaged derivatives
    onsager = float(np.mean(deriv))
    if not np.all(np.isfinite(x_next)):
        raise NonFiniteState(f"non-finite estimate at t={state.t + 1}")
    residual = y - pilots @ x_next + (n / l) * onsager * state.residual
    if not np.all(np.isfinite(residual)):
        raise NonFiniteState(f"non-finite residual at t={state.t + 1}")
    tau = max(estimate_tau(residual), _tau_floor(config))
    return AmpState(x=x_next, residual=residual, tau=tau, t=state.t + 1)


def run_block(y: np.ndarray, pilots: np.ndarray, si_term,
              config: model.ScenarioConfig) -> AmpBlockResult:
    """Iterate one block to convergence from x=0, residual=y."""
    n, m = config.num_devices, config.num_antennas
    state = AmpState(x=np.zeros((n, m), dtype=complex), residual=y.copy(),
                     tau=max(estimate_tau(y), _tau_floor(config)), t=0)
    tau_trace = [state.tau]
    delta_trace = []
    res_trace = []
    converged = False
    for _ in range(MAX_ITERS):
        new = amp_iterate(state, y, pilots, si_term, config)
        change = (np.linalg.norm(new.x - state.x)
                  / max(np.linalg.norm(state.x), _NORM_FLOOR))
        tau_trace.append(new.tau)
        delta_trace.append(change)
        res_trace.append(np.linalg.norm(new.residual))
        state = new
        if change < CONVERGENCE_TOL:
            converged = True
            break
    final_pseudo = pseudo_observations(state.x, state.residual, pilots)
    return AmpBlockResult(x_hat=state.x, pseudo_obs=final_pseudo,
                          residual=state.residual,
                          tau_trace=np.asarray(tau_trace),
                          delta_x_trace=np.asarray(delta_trace),
                          residual_fro_trace=np.asarray(res_trace),
                          iters_used=state.t, converged=converged)


@dataclass
class TrialResult:
    """All per-block outputs of one J-block trial under one variant.

    `reports` score each block's detection at the fixed level l = 0.
    """

    variant: str
    blocks: list[AmpBlockResult] = field(default_factory=list)
    detections: list[detector.BlockDetection] = field(default_factory=list)
    reports: list[detector.DetectionReport] = field(default_factory=list)


def _track_block(config: model.ScenarioConfig,
                 scenario: model.ScenarioRealization, j: int,
                 si: SideInfo | None):
    """Estimate block j of the scenario given side information si, detect
    its activity and score it at l = 0; returns (estimate, detection,
    report).  si enters both through its log-odds term, computed once."""
    truth = scenario.blocks[j]
    si_term = 0.0 if si is None else si_log_odds(
        si, config.path_losses, config.persistence, config.beta)
    result = run_block(scenario.received[j], scenario.pilots, si_term, config)
    det = detector.block_detection(result.pseudo_obs, result.tau_final,
                                   config.path_losses, truth.activity, si_term)
    report = detector.detect_block(det, 0.0, x_hat=result.x_hat,
                                   x_true=truth.effective_signal)
    return result, det, report


def run_trial(config: model.ScenarioConfig, variant: str = "si", *,
              scenario=None, first_block=None) -> TrialResult:
    """Generate a scenario and track it block by block.

    With variant "si" each block after the first is denoised and detected
    using the previous block's converged pseudo-observations; "nosi"
    treats every block independently.  The scenario realization depends
    only on the config (named substreams), so both variants see identical
    data.  `run_trial_variants` passes in the scenario and the
    (estimate, detection, report) of block 1 that its variants share;
    without them both are computed here.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if scenario is None:
        scenario = model.generate_scenario(config)
    out = TrialResult(variant=variant)
    si = None
    for j in range(len(scenario.blocks)):
        if j == 0 and first_block is not None:
            result, det, report = first_block
        else:
            result, det, report = _track_block(config, scenario, j, si)
        out.blocks.append(result)
        out.detections.append(det)
        out.reports.append(report)
        if variant == "si":
            si = result.side_info()
    return out


def run_trial_variants(config: model.ScenarioConfig) -> list[TrialResult]:
    """`run_trial` under each of `VARIANTS` on one scenario realization.

    Block 1 has no side information under any variant, so it is estimated
    and detected once and shared.  Returns one result per variant, in
    order, each equal to a separate `run_trial(config, variant)`.
    """
    scenario = model.generate_scenario(config)
    first_block = _track_block(config, scenario, 0, None)
    return [run_trial(config, variant, scenario=scenario,
                      first_block=first_block) for variant in VARIANTS]
