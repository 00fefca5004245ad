"""Activity detection from converged pseudo-observations.

A device is declared active in a block when the log-likelihood ratio
(LLR) of "active now" exceeds a level `l`; with side information the LLR
shifts per device according to how active the device looked in the
previous block.  A single scalar `l` is shared by all devices and blocks;
sweeping it traces the false-alarm / missed-detection tradeoff.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .denoiser import (ACTIVE_NOW, DenoiserParams, SideInfo, _row_norm_sq,
                       case_log_likelihoods, log_odds_terms)
from .errors import InvalidConfig


@dataclass(frozen=True)
class DetectionMetrics:
    """Estimation quality of one block: NMSE over its truly active devices,
    NaN when it has none.  Error counts come from `sweep_block_counts`."""

    nmse: float


@dataclass(frozen=True)
class DetectionReport:
    """Per-device test outcomes at one `l`, plus the block's NMSE; the LLRs
    it tests are those of its `BlockDetection`."""

    decisions: np.ndarray  # (N,) bool
    metrics: DetectionMetrics


@dataclass(frozen=True)
class BlockDetection:
    """Everything needed to test one block at any `l`, so a sweep over
    `l` never has to rerun the estimator."""

    llr: np.ndarray  # (N,) log-odds of "active now"
    activity: np.ndarray  # (N,) bool ground truth


def llr_appendix_oracle(x_tilde: np.ndarray, si: SideInfo,
                        params: DenoiserParams) -> float:
    """LLR via the unsimplified four-case conditional densities.

    Forms p(observations | active now) and p(observations | inactive now)
    as explicit two-case Gaussian mixtures of `case_log_likelihoods` and
    takes the log ratio; kept free of the simplified threshold algebra so
    it can vouch for it.
    """
    ll = case_log_likelihoods(x_tilde, si, params)
    log_joint_active = np.logaddexp.reduce(ll[ACTIVE_NOW]) - np.log(params.lam)
    log_joint_inactive = (np.logaddexp.reduce(ll[~ACTIVE_NOW])
                          - np.log(1.0 - params.lam))
    return float(log_joint_active - log_joint_inactive)


def compute_metrics(activity: np.ndarray, x_hat: np.ndarray,
                    x_true: np.ndarray) -> DetectionMetrics:
    """NMSE of `x_hat` over the truly active rows of `x_true`."""
    activity = np.asarray(activity, dtype=bool)
    if not len(activity) == len(x_hat) == len(x_true):
        raise InvalidConfig("activity and estimates must align per device")
    nmse = float("nan")
    if np.any(activity):
        err = _row_norm_sq(x_hat[activity] - x_true[activity]).sum()
        ref = _row_norm_sq(x_true[activity]).sum()
        nmse = float(err / ref)
    return DetectionMetrics(nmse=nmse)


def block_detection(pseudo_obs: np.ndarray, tau: float, gamma,
                    activity: np.ndarray, si_term=0.0) -> BlockDetection:
    """Vectorized detection state for one block (all devices at once).

    The LLR of "active now" is delta*energy - (log_gain + si_term), with
    the terms of `log_odds_terms` and `si_log_odds`.
    """
    gamma = np.asarray(gamma, dtype=float)
    if not np.all(gamma > 0.0):
        raise InvalidConfig("the likelihood ratio requires gamma > 0")
    pseudo_obs = np.asarray(pseudo_obs)
    delta, log_gain = log_odds_terms(gamma, tau, pseudo_obs.shape[-1])
    llr = delta * _row_norm_sq(pseudo_obs) - (log_gain + si_term)
    return BlockDetection(llr=llr, activity=np.asarray(activity, dtype=bool))


def detect_block(det: BlockDetection, l: float,
                 x_hat: np.ndarray | None = None,
                 x_true: np.ndarray | None = None) -> DetectionReport:
    """Test a prepared block at level `l`: a device is declared active iff
    its LLR strictly exceeds `l`, so ties resolve inactive.  The report's
    NMSE is that of `x_hat` against `x_true`, NaN without them."""
    metrics = DetectionMetrics(nmse=float("nan"))
    if x_hat is not None and x_true is not None:
        metrics = compute_metrics(det.activity, x_hat, x_true)
    return DetectionReport(decisions=det.llr > l, metrics=metrics)


def sweep_block_counts(det: BlockDetection, l_grid: np.ndarray):
    """Error counts of one block over an increasing grid of `l` values.

    Returns (false_alarms, missed, num_inactive, num_active) where the
    first two are arrays over the grid.  At each level the devices not
    declared active are those whose LLR is at most `l`; a right-sided
    search in the sorted LLRs of each class counts them.
    """
    inactive = np.sort(det.llr[~det.activity])
    active = np.sort(det.llr[det.activity])
    l_grid = np.asarray(l_grid, dtype=float)
    fa = len(inactive) - np.searchsorted(inactive, l_grid, "right")
    md = np.searchsorted(active, l_grid, "right")
    return fa, md, len(inactive), len(active)


@dataclass(frozen=True)
class RocCurve:
    """Pooled tradeoff curve for one slot index, with per-trial spread."""

    l_grid: np.ndarray
    p_fa: np.ndarray
    p_md: np.ndarray
    se_p_fa: np.ndarray
    se_p_md: np.ndarray
    num_trials: int

    def l_at(self, target_p_fa: float) -> float:
        """Threshold level `l` at which the pooled false-alarm rate equals
        `target_p_fa`, interpolating linearly between grid points."""
        order = np.argsort(self.p_fa)
        pfa_sorted = self.p_fa[order]
        if not pfa_sorted[0] <= target_p_fa <= pfa_sorted[-1]:
            raise InvalidConfig(f"target p_fa={target_p_fa} outside sweep")
        return float(np.interp(target_p_fa, pfa_sorted, self.l_grid[order]))


def aggregate_slot_counts(fa: np.ndarray, md: np.ndarray,
                          n_inactive: np.ndarray, n_active: np.ndarray,
                          l_grid: np.ndarray) -> RocCurve:
    """Pool one slot's per-trial sweep counts into one curve.

    `fa` and `md` are (trials, len(l_grid)) error counts, `n_inactive`
    and `n_active` the (trials,) device counts they are rates of.  A
    trial with an empty denominator has a NaN per-trial rate and adds
    nothing to the pooled one.
    """
    l_grid = np.asarray(l_grid, dtype=float)
    return RocCurve(l_grid=l_grid, p_fa=_pooled_rate(fa, n_inactive),
                    p_md=_pooled_rate(md, n_active),
                    se_p_fa=rate_stderr(_per_trial_rates(fa, n_inactive)),
                    se_p_md=rate_stderr(_per_trial_rates(md, n_active)),
                    num_trials=len(fa))


def _pooled_rate(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    total = int(np.sum(totals))
    if total == 0:
        return np.full(np.shape(counts)[1], np.nan)
    return np.sum(counts, axis=0) / total


def _per_trial_rates(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    totals = np.asarray(totals)[:, None]
    return np.divide(counts, totals, out=np.full(np.shape(counts), np.nan),
                     where=totals > 0)


def rate_stderr(per_trial_rates: np.ndarray) -> np.ndarray:
    """Standard error of the mean along axis 0, from its non-NaN entries."""
    valid = np.sum(~np.isnan(per_trial_rates), axis=0)
    with warnings.catch_warnings(), np.errstate(invalid="ignore",
                                                divide="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        sd = np.nanstd(per_trial_rates, axis=0, ddof=1)
        se = sd / np.sqrt(valid)
    return np.where(valid > 1, se, np.nan)
