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

import math
from dataclasses import dataclass, field

import numpy as np

from . import detector, model
from .denoiser import SideInfo, denoise_rows, si_log_odds
from .errors import DimensionMismatch, NonFiniteState

# stopping rule of every block: converged once the relative estimate
# change drops below CONVERGENCE_TOL, stopped after MAX_ITERS iterations.
# Past 1e-3 the estimate moves below what the LLR detector resolves: on
# the desk presets, pooled P_MD stays within 0.1 standard errors of a
# 1e-6 run at half the iterations, while 1e-2 moves it by 0.36.
MAX_ITERS = 50
CONVERGENCE_TOL = 1e-3

# tau, an amplitude, is clamped to this multiple of the square root of the
# strongest channel gain so the precision gap in the denoiser never
# divides by zero, and the floor stays below tau at any admitted gain
TAU_FLOOR_FACTOR = 1e-12

# the compared variants: side information from the previous block, or none
VARIANTS = ("si", "nosi")


@dataclass(frozen=True)
class AmpBlockResult:
    """Converged output of one block."""

    x_hat: np.ndarray  # (N, M) converged estimate
    pseudo_obs: np.ndarray  # (N, M) converged pseudo-observations
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


def _block_norms(a: np.ndarray, m: int) -> np.ndarray:
    """(K,) Frobenius norms of the M-column blocks of a wide array, with
    `np.linalg.norm`'s arithmetic: the square root of re.re + im.im, each a
    BLAS dot over the block's entries in row-major order."""
    rows = a.shape[0]
    # a view for one block, a block-major copy for several
    b = a.reshape(rows, -1, m).transpose(1, 0, 2).reshape(-1, rows * m)
    re, im = b.real, b.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def _columns(blocks: np.ndarray, m: int) -> np.ndarray:
    """Column indices of the given blocks in a wide array."""
    return (blocks[:, None] * m + np.arange(m)).ravel()


def amp_iterate(x: np.ndarray, residual: np.ndarray, tau: np.ndarray,
                y: np.ndarray, pilots: np.ndarray, si_term,
                config: model.ScenarioConfig):
    """One estimator update followed by the corrected residual update, for
    K blocks that share the pilot matrix at once: block k owns columns
    k*M .. (k+1)*M - 1 of the (N, K*M) estimate `x` and of the (L, K*M)
    residual, and `tau[k]` is its noise level.

    `si_term` is the side-information log-odds term shared by the blocks
    (0.0 for none).  Returns the next estimate, the next residual and the
    residual's (K,) Frobenius norm per block.
    """
    n, l = config.num_devices, config.pilot_length
    k = tau.size
    m = x.shape[1] // k
    x_tilde = pseudo_observations(x, residual, pilots)
    # block-major rows, so every per-device operation runs along the devices
    rows = (x_tilde[None] if k == 1 else
            np.ascontiguousarray(x_tilde.reshape(n, k, m).transpose(1, 0, 2)))
    # a lone block's tau goes in as a scalar: broadcasting a (1, 1) array
    # costs about a microsecond in each denoiser operation
    x_rows, deriv = denoise_rows(rows, config.path_losses,
                                 tau[:, None] if k > 1 else tau[0],
                                 config.activity_rate, si_term)
    # a view of the denoiser's output for one block
    x_next = x_rows.reshape(k, n, m).transpose(1, 0, 2).reshape(n, k * m)
    if not np.isfinite(x_next).all():
        raise NonFiniteState("non-finite estimate")
    # one correction scalar per block: the population average of its
    # devices' entrywise-averaged derivatives (`mean`'s arithmetic)
    onsager = np.add.reduce(deriv.reshape(k, n), axis=-1) / n
    correction = residual * np.repeat((n / l) * onsager, m)
    # S x by row halves split at a multiple of 8 rows, the later half
    # first: the matched filter has just read S front to back, so its last
    # rows are still cached.  Single-threaded OpenBLAS gives every row the
    # bits of the full product.  The buffer is C-ordered: a shrunk batch's
    # residual is not, and matmul rounds differently into a strided output.
    s_x = np.empty((l, k * m), dtype=complex)
    half = (l // 2) & ~7
    np.matmul(pilots[half:], x_next, out=s_x[half:])
    np.matmul(pilots[:half], x_next, out=s_x[:half])
    residual = y - s_x + correction
    if not np.isfinite(residual).all():
        raise NonFiniteState("non-finite residual")
    return x_next, residual, _block_norms(residual, m)


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
    tau_floor = TAU_FLOOR_FACTOR * math.sqrt(float(np.max(config.path_losses)))
    y = np.concatenate(received, axis=1)
    k = len(received)
    x, residual = np.zeros((n, k * m), dtype=complex), y
    tau = np.maximum(_block_norms(y, m) / math.sqrt(l * m), tau_floor)
    tau_traces = [[v] for v in tau.tolist()]
    delta_traces = [[] for _ in range(k)]
    res_traces = [[] for _ in range(k)]
    results = [None] * k
    active = list(range(k))
    x_norms = np.zeros(k)  # norms of the current estimates
    for t in range(1, MAX_ITERS + 1):
        try:
            x_next, residual, norms = amp_iterate(x, residual, tau, y, pilots,
                                                  si_term, config)
        except NonFiniteState as exc:
            raise NonFiniteState(f"{exc} at t={t}") from exc
        tau = np.maximum(norms / math.sqrt(l * m), tau_floor)
        new_x_norms = _block_norms(x_next, m)
        # ||x_t - x_(t-1)|| relative to ||x_(t-1)||, or to ||x_t|| where
        # x_(t-1) = 0 (at t = 1 it so reads 1), with no absolute scale.
        # 0/0 reads 0, converged: a zero estimate has zero derivatives, so
        # the residual is y again and the estimate stays 0.
        ref = np.where(x_norms > 0, x_norms, new_x_norms)
        change = np.divide(_block_norms(x_next - x, m), ref,
                           out=np.zeros(len(active)), where=ref > 0)
        for b, tau_b, delta, res in zip(active, tau.tolist(), change.tolist(),
                                        norms.tolist()):
            tau_traces[b].append(tau_b)
            delta_traces[b].append(delta)
            res_traces[b].append(res)
        x, x_norms = x_next, new_x_norms
        converged = change < CONVERGENCE_TOL
        if t < MAX_ITERS and not converged.any():
            continue
        done = converged | (t == MAX_ITERS)
        leaving, keep = np.flatnonzero(done), np.flatnonzero(~done)
        cols = _columns(leaving, m)
        x_hat, final_residual = x[:, cols], residual[:, cols]
        final_pseudo = pseudo_observations(x_hat, final_residual, pilots)
        for i, j in enumerate(leaving):
            own = slice(i * m, (i + 1) * m)
            b = active[j]
            results[b] = AmpBlockResult(
                x_hat=np.ascontiguousarray(x_hat[:, own]),
                pseudo_obs=np.ascontiguousarray(final_pseudo[:, own]),
                tau_trace=np.asarray(tau_traces[b]),
                delta_x_trace=np.asarray(delta_traces[b]),
                residual_fro_trace=np.asarray(res_traces[b]),
                iters_used=t, converged=bool(converged[j]))
        if not keep.size:
            break
        active = [active[j] for j in keep]
        cols = _columns(keep, m)
        x, residual, y = x[:, cols], residual[:, cols], y[:, cols]
        tau, x_norms = tau[keep], x_norms[keep]
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


def run_trial(config: model.ScenarioConfig, variant: str, *,
              scenario=None, first_block=None) -> TrialResult:
    """Generate a scenario, estimate its blocks, then detect every block's
    activity, with the side-information term its estimate used, and score
    it at l = 0.

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
        si_terms = [0.0] * len(blocks)
    else:
        if first_block is None:
            first_block = run_block(scenario.received[0], scenario.pilots,
                                    0.0, config)
        blocks, si_terms = [first_block], [0.0]
        for y in scenario.received[1:]:
            # computed once per block: its estimate and detection share it
            si_terms.append(si_log_odds(blocks[-1].side_info(),
                                        config.path_losses,
                                        config.persistence, config.beta))
            blocks.append(run_block(y, scenario.pilots, si_terms[-1], config))
    trial = TrialResult(variant=variant, blocks=blocks)
    for block, truth, si_term in zip(blocks, scenario.blocks, si_terms):
        det = detector.block_detection(block.pseudo_obs, block.tau_final,
                                       config.path_losses, truth.activity,
                                       si_term)
        trial.detections.append(det)
        trial.reports.append(detector.detect_block(
            det, 0.0, x_hat=block.x_hat, x_true=truth.effective_signal))
    return trial


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
