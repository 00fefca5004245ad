"""Iterative row-sparse estimator for coherence blocks, chained across
blocks through converged pseudo-observations.

Each iteration denoises the matched-filter-corrected estimate and rebuilds
the residual with the correction term that keeps the per-device effective
noise Gaussian.  Blocks that share the pilot matrix and the side
information iterate as one wide problem (`run_blocks`), so each pass over
the pilot matrix serves all of them.  After convergence, a block's
pseudo-observations and final noise level become the side information for
the next block.  A trial estimates all its blocks first, then detects and
scores each one.
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
    "amp_iterate",
    "run_blocks",
    "run_block",
    "run_trial",
    "run_trial_variants",
]


@dataclass
class AmpState:
    """Iterate of the algorithm for K blocks that share the pilot matrix:
    block k owns columns k*M .. (k+1)*M - 1 of the estimate and residual."""

    x: np.ndarray  # (N, K*M) complex
    residual: np.ndarray  # (L, K*M) complex
    tau: np.ndarray  # (K,) noise level per block (a float for K = 1)
    t: int
    residual_norm: np.ndarray | None = None  # (K,) Frobenius norm per block


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


def _tau_floor(config: model.ScenarioConfig) -> float:
    return TAU_FLOOR_FACTOR * float(np.max(config.path_losses))


def _block_norms(a: np.ndarray, m: int) -> np.ndarray:
    """(K,) Frobenius norms of the M-column blocks of a wide array, each
    computed as `np.linalg.norm` of that block alone."""
    return np.array([np.linalg.norm(a[:, i:i + m])
                     for i in range(0, a.shape[1], m)])


def _columns(blocks: np.ndarray, m: int) -> np.ndarray:
    """Column indices of the given blocks in a wide array."""
    return (blocks[:, None] * m + np.arange(m)).ravel()


def amp_iterate(state: AmpState, y: np.ndarray, pilots: np.ndarray,
                si_term, config: model.ScenarioConfig,
                denoiser_fn=None, *, tau_floor=None) -> AmpState:
    """One estimator update followed by the corrected residual update, for
    the K blocks of a wide state at once.

    `si_term` is the side-information log-odds term shared by the blocks
    (0.0 for none).  `denoiser_fn`, when given, replaces the MMSE denoiser
    (test hook); it maps the (K, N, M) pseudo-observation rows to
    (estimates, per-device derivative averages (K, N), or (N,) for K = 1).
    `tau_floor` defaults to the config's.
    """
    n, l = config.num_devices, config.pilot_length
    tau = np.atleast_1d(state.tau)
    k = tau.size
    m = state.x.shape[1] // k
    x_tilde = pseudo_observations(state.x, state.residual, pilots)
    # block-major rows, so every per-device operation runs along the devices
    rows = np.ascontiguousarray(x_tilde.reshape(n, k, m).transpose(1, 0, 2))
    if denoiser_fn is not None:
        x_next, deriv = denoiser_fn(rows)
    else:
        # a lone block's tau goes in as a scalar: broadcasting a (1, 1)
        # array costs about a microsecond in each denoiser operation
        x_next, deriv = denoise_rows(rows, config.path_losses,
                                     tau[:, None] if k > 1 else tau[0],
                                     config.activity_rate, si_term)
    x_next = np.reshape(x_next, (k, n, m)).transpose(1, 0, 2).reshape(n, k * m)
    # one correction scalar per block: the population average of its
    # devices' entrywise-averaged derivatives
    onsager = np.reshape(deriv, (k, n)).mean(axis=1)
    if not np.all(np.isfinite(x_next)):
        raise NonFiniteState(f"non-finite estimate at t={state.t + 1}")
    correction = ((n / l) * onsager)[:, None] * state.residual.reshape(-1, k, m)
    residual = y - pilots @ x_next + correction.reshape(-1, k * m)
    if not np.all(np.isfinite(residual)):
        raise NonFiniteState(f"non-finite residual at t={state.t + 1}")
    norms = _block_norms(residual, m)
    if tau_floor is None:
        tau_floor = _tau_floor(config)
    tau = np.maximum(norms / np.sqrt(l * m), tau_floor)
    return AmpState(x=x_next, residual=residual, tau=tau, t=state.t + 1,
                    residual_norm=norms)


def run_blocks(received, pilots: np.ndarray, si_term,
               config: model.ScenarioConfig) -> list[AmpBlockResult]:
    """Iterate blocks that share `pilots` and `si_term` to convergence,
    each from x=0, residual=y, as one wide problem.

    Every iteration runs one matched filter and one S x product over the
    columns of all still-active blocks.  A block leaves the active columns
    once its relative estimate change drops below CONVERGENCE_TOL or after
    MAX_ITERS iterations, with its own traces.  Returns one result per
    block of `received`, in order.
    """
    n, l, m = config.num_devices, config.pilot_length, config.num_antennas
    tau_floor = _tau_floor(config)
    y = np.concatenate(received, axis=1)
    k = len(received)
    norms = _block_norms(y, m)
    state = AmpState(x=np.zeros((n, k * m), dtype=complex), residual=y,
                     tau=np.maximum(norms / np.sqrt(l * m), tau_floor), t=0,
                     residual_norm=norms)
    tau_traces = [[tau] for tau in state.tau]
    delta_traces = [[] for _ in range(k)]
    res_traces = [[] for _ in range(k)]
    results = [None] * k
    active = list(range(k))
    x_norms = np.zeros(k)  # norms of the current estimates
    while True:
        new = amp_iterate(state, y, pilots, si_term, config,
                          tau_floor=tau_floor)
        new_x_norms = _block_norms(new.x, m)
        change = (_block_norms(new.x - state.x, m)
                  / np.maximum(x_norms, _NORM_FLOOR))
        for b, tau, delta, res in zip(active, new.tau, change,
                                      new.residual_norm):
            tau_traces[b].append(tau)
            delta_traces[b].append(delta)
            res_traces[b].append(res)
        state, x_norms = new, new_x_norms
        converged = change < CONVERGENCE_TOL
        if state.t < MAX_ITERS and not converged.any():
            continue
        done = converged | (state.t == MAX_ITERS)
        leaving, keep = np.flatnonzero(done), np.flatnonzero(~done)
        cols = _columns(leaving, m)
        x_hat, residual = state.x[:, cols], state.residual[:, cols]
        final_pseudo = pseudo_observations(x_hat, residual, pilots)
        for i, j in enumerate(leaving):
            own = slice(i * m, (i + 1) * m)
            b = active[j]
            results[b] = AmpBlockResult(
                x_hat=np.ascontiguousarray(x_hat[:, own]),
                pseudo_obs=np.ascontiguousarray(final_pseudo[:, own]),
                residual=np.ascontiguousarray(residual[:, own]),
                tau_trace=np.asarray(tau_traces[b]),
                delta_x_trace=np.asarray(delta_traces[b]),
                residual_fro_trace=np.asarray(res_traces[b]),
                iters_used=state.t, converged=bool(converged[j]))
        if not keep.size:
            break
        active = [active[j] for j in keep]
        cols = _columns(keep, m)
        y = y[:, cols]
        state = AmpState(x=state.x[:, cols], residual=state.residual[:, cols],
                         tau=state.tau[keep], t=state.t,
                         residual_norm=state.residual_norm[keep])
        x_norms = x_norms[keep]
    return results


def run_block(y: np.ndarray, pilots: np.ndarray, si_term,
              config: model.ScenarioConfig) -> AmpBlockResult:
    """Iterate one block to convergence from x=0, residual=y: `run_blocks`
    with a single block."""
    return run_blocks([y], pilots, si_term, config)[0]


@dataclass
class TrialResult:
    """All per-block outputs of one J-block trial under one variant.

    `reports` score each block's detection at the fixed level l = 0.
    """

    variant: str
    blocks: list[AmpBlockResult] = field(default_factory=list)
    detections: list[detector.BlockDetection] = field(default_factory=list)
    reports: list[detector.DetectionReport] = field(default_factory=list)


def _score(config: model.ScenarioConfig,
           scenario: model.ScenarioRealization, variant: str,
           blocks: list[AmpBlockResult], si_terms: list) -> TrialResult:
    """Detect every block's activity from its estimate, with the
    side-information term its estimate used, and score it at l = 0."""
    detections, reports = [], []
    for block, truth, si_term in zip(blocks, scenario.blocks, si_terms):
        det = detector.block_detection(block.pseudo_obs, block.tau_final,
                                       config.path_losses, truth.activity,
                                       si_term)
        detections.append(det)
        reports.append(detector.detect_block(
            det, 0.0, x_hat=block.x_hat, x_true=truth.effective_signal))
    return TrialResult(variant=variant, blocks=blocks, detections=detections,
                       reports=reports)


def run_trial(config: model.ScenarioConfig, variant: str = "si", *,
              scenario=None, first_block=None) -> TrialResult:
    """Generate a scenario, estimate its blocks, then detect and score them.

    With variant "si" each block after the first is denoised and detected
    using the previous block's converged pseudo-observations, one block
    after the other; "nosi" treats every block independently, so all of
    them are estimated in one `run_blocks` call.  The scenario realization
    depends only on the config (named substreams), so both variants see
    identical data.  `run_trial_variants` passes in the scenario, and for
    "si" the estimate of block 1 (an `AmpBlockResult`) that the variants
    share; without them both are computed here.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if scenario is None:
        scenario = model.generate_scenario(config)
    if variant == "nosi":
        if first_block is not None:
            raise ValueError("first_block starts the si chain only")
        blocks = run_blocks(scenario.received, scenario.pilots, 0.0, config)
        return _score(config, scenario, variant, blocks, [0.0] * len(blocks))
    if first_block is None:
        first_block = run_block(scenario.received[0], scenario.pilots, 0.0,
                                config)
    blocks, si_terms = [first_block], [0.0]
    for y in scenario.received[1:]:
        # computed once per block: its estimate and detection share it
        si_terms.append(si_log_odds(blocks[-1].side_info(), config.path_losses,
                                    config.persistence, config.beta))
        blocks.append(run_block(y, scenario.pilots, si_terms[-1], config))
    return _score(config, scenario, variant, blocks, si_terms)


def run_trial_variants(config: model.ScenarioConfig) -> list[TrialResult]:
    """`run_trial` under each of `VARIANTS` on one scenario realization.

    Block 1 has no side information under any variant, so it is estimated
    once, within the nosi batch, and starts the si chain; each variant
    detects and scores it, with identical results.  Returns one result
    per variant, in order; the nosi result equals `run_trial(config,
    "nosi")` and the si result equals `run_trial(config, "si",
    first_block=...)` given the nosi result's block 1.
    """
    scenario = model.generate_scenario(config)
    nosi = run_trial(config, "nosi", scenario=scenario)
    si = run_trial(config, "si", scenario=scenario,
                   first_block=nosi.blocks[0])
    trials = {"si": si, "nosi": nosi}
    return [trials[variant] for variant in VARIANTS]
