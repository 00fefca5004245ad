"""Monte Carlo experiment orchestration: config files, presets, seeded
trial execution, aggregation and CSV emission.

A config is a flat key = value text file (or a named preset).  Physical
presets place devices uniformly in the paper's fixed annulus and convert
its transmit power, noise spectral density and bandwidth into per-device
effective channel gains normalized to unit noise variance; the numerical
core only ever sees linear effective units.  Every CSV is a (header,
rows) table, written by `write_tables`.
"""

import json
import multiprocessing
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from . import __version__
from .amp import VARIANTS, run_trial_variants
from .denoiser import SideInfo, denoise_rows, log_odds_terms, si_log_odds
from .detector import _rate_stderr, aggregate_slot_counts, sweep_block_counts
from .errors import ParseError, SiAmpError, ValidationError
from .model import ScenarioConfig, path_loss_linear
from .state_evolution import SeParams, SeTrace, se_fixed_point
from .streams import seed_sequence, substream

STREAM_PLACEMENT = "placement"
STREAM_TRIAL = "trial"
STREAM_SE_TRACE = "se-trace"

# the cell of every physical placement
CELL_RADIUS_KM = 1.0
MIN_RADIUS_KM = 0.05
TX_POWER_DBM = 23.0
NOISE_PSD_DBM_HZ = -169.0
BANDWIDTH_HZ = 1e7


def default_l_grid() -> np.ndarray:
    """Threshold sweep wide enough to cover both tradeoff extremes."""
    return np.linspace(-40.0, 40.0, 161)


def annulus_gains(num_devices: int, rng: np.random.Generator) -> np.ndarray:
    """Effective per-device gains for uniform placement in the cell annulus.

    Gains are path loss times transmit power over the thermal noise
    power, so the matching noise variance is exactly 1.  The inner radius
    keeps the path-loss law away from its d -> 0 singularity.
    """
    # uniform over the annulus area => cdf proportional to r^2
    u = rng.random(num_devices)
    radii = np.sqrt(MIN_RADIUS_KM ** 2
                    + u * (CELL_RADIUS_KM ** 2 - MIN_RADIUS_KM ** 2))
    tx_watt = 10.0 ** ((TX_POWER_DBM - 30.0) / 10.0)
    noise_watt = 10.0 ** ((NOISE_PSD_DBM_HZ - 30.0) / 10.0) * BANDWIDTH_HZ
    return np.array([path_loss_linear(r) for r in radii]) * tx_watt / noise_watt


@dataclass(frozen=True)
class ExperimentSpec:
    """A full experiment: scenario, trial budget and sweep grid."""

    variants: ClassVar[tuple] = VARIANTS  # every run compares all of them
    scenario: ScenarioConfig
    num_trials: int
    l_grid: np.ndarray
    out_dir: str | None
    parallelism: int
    se_sample_count: int

    def violations(self) -> list[str]:
        out = list(self.scenario.violations())
        if self.num_trials < 1:
            out.append("num_trials must be >= 1")
        grid = np.atleast_1d(self.l_grid)
        if len(grid) == 0:
            out.append("l_grid must be nonempty")
        elif not (np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0)):
            # per-trial rates are interpolated in l, which needs this order
            out.append("l_grid must be finite and strictly increasing")
        if self.parallelism < 1:
            out.append("parallelism must be >= 1")
        if self.se_sample_count < 2:
            out.append("se_sample_count must be >= 2")
        return out

    def validate(self) -> "ExperimentSpec":
        bad = self.violations()
        if bad:
            raise ValidationError(bad)
        return self


# ---------------------------------------------------------------------------
# presets and config parsing

_PAPER_COMMON = dict(
    num_devices=4000, num_antennas=1, num_blocks=10, activity_rate=0.1,
    persistence=0.46, placement="annulus", num_trials=50, rng_seed=12345,
)

PRESETS = {
    "paper-fig3": dict(_PAPER_COMMON, pilot_length=600),
    "paper-fig4": dict(_PAPER_COMMON, pilot_length=500, num_antennas=2),
    # desk-scale variants keep the device/pilot load of the paper setup
    # but run in minutes on one core
    "fig3-desk": dict(_PAPER_COMMON, num_devices=1000, pilot_length=150,
                      num_blocks=5, num_trials=200),
    "fig4-desk": dict(_PAPER_COMMON, num_devices=1000, pilot_length=125,
                      num_antennas=2, num_blocks=5, num_trials=200),
}

_DEFAULTS = dict(
    num_antennas=1, num_blocks=1, activity_rate=0.1, persistence=0.1,
    noise_variance=1.0, rng_seed=0, num_trials=1, parallelism=1,
    se_sample_count=20_000, placement="gamma", out_dir=None,
    l_grid=default_l_grid(),
)


def _parse_l_grid(text: str) -> np.ndarray:
    """Either 'start:stop:count' or a comma-separated list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("grid spec must be start:stop:count")
        return np.linspace(float(parts[0]), float(parts[1]), int(parts[2]))
    return np.array([float(v) for v in text.split(",") if v.strip()])


# every config key, with the converter of its string form
_KEYS = {
    **dict.fromkeys(("num_devices", "pilot_length", "num_antennas",
                     "num_blocks", "rng_seed", "num_trials", "parallelism",
                     "se_sample_count"), int),
    **dict.fromkeys(("activity_rate", "persistence", "noise_variance",
                     "gamma"), float),
    **dict.fromkeys(("preset", "placement", "out_dir"), str),
    "l_grid": _parse_l_grid,
}


def read_config_file(path) -> dict:
    """Parse a key = value file into unconverted string values by key;
    `spec_from_options` checks and converts them."""
    raw = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ParseError(f"{path}:{lineno}: expected 'key = value', "
                                 f"got {stripped!r}")
            key, value = (s.strip() for s in stripped.split("=", 1))
            if key in raw:
                raise ParseError(f"{path}:{lineno}: duplicate key {key!r}")
            raw[key] = value
    return raw


def spec_from_options(options: dict, source: str = "<options>") -> ExperimentSpec:
    """Build and validate an ExperimentSpec from a flat option dict.

    Preset values are applied first, explicit options override them.
    String values are converted by the key's converter; other values are
    taken as they are.  Raises ParseError on unknown keys and malformed
    values, and ValidationError listing every violated invariant.
    """
    merged = dict(_DEFAULTS)
    preset = options.get("preset")
    if preset is not None:
        if preset not in PRESETS:
            raise ParseError(f"{source}: unknown preset {preset!r} "
                             f"(available: {', '.join(sorted(PRESETS))})")
        merged.update(PRESETS[preset])
    merged.update({k: v for k, v in options.items() if k != "preset"})

    converted = {}
    for key, value in merged.items():
        if key not in _KEYS:
            raise ParseError(f"{source}: unknown key {key!r}")
        try:
            converted[key] = _KEYS[key](value) if isinstance(value, str) else value
        except ValueError as exc:
            raise ParseError(f"{source}: field {key!r}: {exc}") from None

    violations = []
    for key in ("num_devices", "pilot_length"):
        if key not in converted:
            violations.append(f"missing required field {key!r}")
    if violations:
        raise ValidationError(violations)

    placement, num_devices = converted["placement"], converted["num_devices"]
    if placement == "annulus":
        # only the caller's options count: _DEFAULTS holds noise_variance
        ignored = [f"placement 'annulus' sets {key!r} itself; remove it"
                   for key in ("gamma", "noise_variance") if key in options]
        if ignored:
            raise ValidationError(ignored)
        noise_variance = 1.0  # gains are normalized to the noise floor
        # placeholder gains: the device count and the seed are checked
        # before the gains are built from them
        gains = np.ones(max(num_devices, 0))
    elif placement == "gamma":
        if "gamma" not in converted:
            raise ValidationError(["placement 'gamma' needs a gamma value"])
        noise_variance = converted["noise_variance"]
        gains = np.full(max(num_devices, 0), converted["gamma"], dtype=float)
    else:
        raise ParseError(f"{source}: placement must be 'annulus' or 'gamma', "
                         f"got {placement!r}")

    seed = converted["rng_seed"]
    scenario = ScenarioConfig(
        num_devices=num_devices,
        pilot_length=converted["pilot_length"],
        num_antennas=converted["num_antennas"],
        num_blocks=converted["num_blocks"],
        activity_rate=converted["activity_rate"],
        persistence=converted["persistence"],
        noise_variance=noise_variance,
        path_losses=gains,
        rng_seed=seed)
    spec = ExperimentSpec(scenario=scenario, num_trials=converted["num_trials"],
                          l_grid=np.array(converted["l_grid"], dtype=float),
                          out_dir=converted["out_dir"],
                          parallelism=converted["parallelism"],
                          se_sample_count=converted["se_sample_count"])
    bad = spec.violations()
    if bad:
        # a config file sets the gains only as 'gamma', so errors name that
        raise ValidationError([v.replace("path_losses", "gamma") for v in bad])
    if placement == "gamma":
        return spec
    gains = annulus_gains(num_devices, substream(seed, STREAM_PLACEMENT))
    return replace(spec, scenario=replace(scenario,
                                          path_losses=gains)).validate()


def parse_config(path) -> ExperimentSpec:
    """Read, convert and validate a config file."""
    return spec_from_options(read_config_file(path), source=str(path))


# ---------------------------------------------------------------------------
# experiment execution

def trial_seed(master_seed: int, index: int) -> int:
    """Independent 63-bit scenario seed for one trial."""
    state = seed_sequence(master_seed, STREAM_TRIAL, index).generate_state(1, np.uint64)
    return int(state[0] >> 1)


def _run_trial_counts(args):
    """Worker: one trial, both variants, reduced to per-slot arrays keyed
    and shaped as in `AggregateResult.per_trial` without the trial axis.
    Returns (index, {variant: arrays}, None), or (index, None, repr(exc))
    if the trial raised a `SiAmpError`."""
    spec, index = args
    config = replace(spec.scenario, rng_seed=trial_seed(spec.scenario.rng_seed,
                                                        index))
    try:
        trials = run_trial_variants(config)
    except SiAmpError as exc:
        return index, None, repr(exc)
    out = {}
    for trial in trials:
        counts = [sweep_block_counts(det, spec.l_grid)
                  for det in trial.detections]
        fa, md, n_inactive, n_active = (np.array(c) for c in zip(*counts))
        out[trial.variant] = {
            "fa": fa, "md": md, "n_inactive": n_inactive, "n_active": n_active,
            "nmse": np.array([report.metrics.nmse for report in trial.reports]),
            "tau_final": np.array([block.tau_final for block in trial.blocks]),
        }
    return index, out, None


@dataclass
class AggregateResult:
    """Cross-trial aggregate of one experiment.

    `per_trial[variant]` keeps the per-trial arrays every table is pooled
    from: sweep counts `fa`/`md` of shape (trials, slots, len(l_grid)),
    and `n_inactive`, `n_active`, `nmse` and `tau_final` of shape
    (trials, slots).  Variants share scenario substreams, so paired
    per-trial comparisons across variants or slots are valid.
    """

    spec: ExperimentSpec
    curves: dict  # variant -> list[RocCurve] per slot
    se_traces: dict  # variant -> list[SeTrace] per slot
    per_trial: dict
    metadata: dict
    failures: list  # (trial index, repr of its SiAmpError) per failed trial

    def p_md_per_trial(self, variant: str, slot: int,
                       target_p_fa: float) -> np.ndarray:
        """Per-trial missed-detection rates at a pooled false-alarm level.

        The threshold level is fixed once from the pooled curve (linear
        interpolation in l), then applied to every trial, preserving
        pairing across variants and slots.
        """
        l_star = self.curves[variant][slot].l_at(target_p_fa)
        data = self.per_trial[variant]
        md = data["md"][:, slot, :]  # (trials, n_l)
        n_act = data["n_active"][:, slot].astype(float)
        grid = self.spec.l_grid
        rates = np.array([np.interp(l_star, grid, md[i]) for i in range(md.shape[0])])
        with np.errstate(invalid="ignore", divide="ignore"):
            out = rates / n_act
        return out


def run_experiment(spec: ExperimentSpec) -> AggregateResult:
    """Execute all trials, pool per-slot counts, attach SE predictions.

    Deterministic for a given spec regardless of parallelism: every trial
    draws from substreams of its own derived seed and results are merged
    in trial order.  A trial that raises a library error (`SiAmpError`,
    such as a diverging block's `NonFiniteState`) is recorded and
    skipped; more than 10% failures aborts the experiment with a
    `SiAmpError`.  Any other exception propagates.
    """
    spec.validate()
    start = time.perf_counter()
    jobs = [(spec, i) for i in range(spec.num_trials)]
    if spec.parallelism > 1:
        with ProcessPoolExecutor(
                max_workers=spec.parallelism,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            outcomes = list(pool.map(_run_trial_counts, jobs))
    else:
        outcomes = [_run_trial_counts(job) for job in jobs]
    done = [payload for _, payload, _ in outcomes if payload is not None]
    failures = [(i, error) for i, _, error in outcomes if error is not None]
    if len(failures) > 0.1 * spec.num_trials:
        raise SiAmpError(f"{len(failures)}/{spec.num_trials} trials failed: "
                         f"{failures[:3]}")

    per_trial = {variant: {key: np.stack([trial[variant][key] for trial in done])
                           for key in done[0][variant]}
                 for variant in VARIANTS}
    curves = {variant: [aggregate_slot_counts(data["fa"][:, j], data["md"][:, j],
                                              data["n_inactive"][:, j],
                                              data["n_active"][:, j], spec.l_grid)
                        for j in range(spec.scenario.num_blocks)]
              for variant, data in per_trial.items()}
    se_traces = chained_se_traces(spec)
    metadata = {
        "seed": spec.scenario.rng_seed,
        "version": __version__,
        "wall_time_s": time.perf_counter() - start,
        "num_trials": spec.num_trials,
        "completed_trials": len(done),
        "failed_trials": len(failures),
        "parallelism": spec.parallelism,
        "variants": list(VARIANTS),
    }
    return AggregateResult(spec=spec, curves=curves, se_traces=se_traces,
                           per_trial=per_trial, metadata=metadata,
                           failures=failures)


def chained_se_traces(spec: ExperimentSpec) -> dict[str, list[SeTrace]]:
    """Per-slot state-evolution predictions, {variant: list[SeTrace]}.

    Every nosi slot and si slot 1 run the same recursion without side
    information, so it is solved once and that trace is shared.  Each
    later si slot conditions on the previous slot's converged fixed point.
    Every trace draws from one stream (`draw_samples`), so si and nosi
    fixed points differ by what the side information does, not by Monte
    Carlo noise.
    """
    def solve(tau_prev=None):
        params = SeParams.from_scenario(spec.scenario, tau_prev=tau_prev,
                                        sample_count=spec.se_sample_count)
        rng = substream(spec.scenario.rng_seed, STREAM_SE_TRACE, "nosi", 0)
        return se_fixed_point(params, rng)

    nosi = solve()
    si = [nosi]
    for _ in range(1, spec.scenario.num_blocks):
        si.append(solve(float(np.sqrt(si[-1].fixed_point))))
    return {"si": si, "nosi": [nosi] * spec.scenario.num_blocks}


# ---------------------------------------------------------------------------
# response-curve and threshold-curve grids

def denoiser_response_curve(gamma: float, tau: float, tau_prev: float,
                            lam: float, alpha: float, beta: float,
                            num_antennas: int, prev_magnitudes,
                            grid: np.ndarray):
    """Magnitude response |output| over a |input| grid.

    Returns the table (header, rows), rows (variant, prev_magnitude,
    input_magnitude, output_magnitude); the no-SI response is included
    once with prev_magnitude 0.  Only magnitudes matter: the denoiser is
    phase equivariant.
    """
    grid = np.asarray(grid, dtype=float)
    x = np.zeros((grid.size, num_antennas), dtype=complex)
    x[:, 0] = grid
    nosi, _ = denoise_rows(x, gamma, tau, lam)
    rows = [("nosi", 0.0, float(g), float(o))
            for g, o in zip(grid, np.abs(nosi[:, 0]))]
    for prev_mag in prev_magnitudes:
        prev = np.zeros((grid.size, num_antennas), dtype=complex)
        prev[:, 0] = prev_mag
        si_term = si_log_odds(SideInfo(pseudo_obs=prev, tau_prev=tau_prev),
                              gamma, alpha, beta)
        si_out, _ = denoise_rows(x, gamma, tau, lam, si_term)
        rows += [("si", float(prev_mag), float(g), float(o))
                 for g, o in zip(grid, np.abs(si_out[:, 0]))]
    return ["variant", "prev_abs", "input_abs", "output_abs"], rows


def _energy_threshold(l, offset, delta):
    """The energy above which a device is declared active at level `l`:
    the LLR delta*energy - offset exceeds `l` above it."""
    return (l + offset) / delta


def detector_threshold_curve(gamma: float, tau: float, tau_prev: float,
                             alpha: float, beta: float,
                             num_antennas: int, l: float,
                             prev_grid: np.ndarray):
    """Energy threshold versus previous-block magnitude, with its limits.

    Returns ((header, rows), lower_limit, upper_limit); rows are
    (prev_magnitude, threshold_si, threshold_nosi).  The limits are the
    thresholds for previous-block evidence of certain activity (SI factor
    beta/alpha) and of none ((1-beta)/(1-alpha)); at persistence 0 or 1
    one of them is infinite.
    """
    prev_grid = np.asarray(prev_grid, dtype=float)
    prev = np.zeros((prev_grid.size, num_antennas), dtype=complex)
    prev[:, 0] = prev_grid
    delta, log_gain = log_odds_terms(gamma, tau, num_antennas)
    si_term = si_log_odds(SideInfo(pseudo_obs=prev, tau_prev=tau_prev),
                          gamma, alpha, beta)
    t_si = _energy_threshold(l, log_gain + si_term, delta)
    t_nosi = _energy_threshold(l, log_gain, delta)
    base = l + log_gain
    # the limits are infinite at persistence 0 or 1, and beyond double range
    # when the persistence is subnormal
    with np.errstate(divide="ignore", over="ignore"):
        lower = (base + np.log(np.float64(beta) / alpha)) / delta
        upper = (base + np.log(np.float64(1.0 - beta) / (1.0 - alpha))) / delta
    rows = [(float(p), float(t), float(t_nosi)) for p, t in zip(prev_grid, t_si)]
    table = (["prev_abs", "threshold_si", "threshold_nosi"], rows)
    return table, float(lower), float(upper)


# ---------------------------------------------------------------------------
# CSV tables: each builder returns (header, rows), `write_tables` writes them

def roc_table(curves: dict):
    """roc.csv from {variant: per-slot RocCurves}."""
    rows = [(j + 1, variant, l, curve.p_fa[k], curve.p_md[k], curve.num_trials,
             curve.se_p_fa[k], curve.se_p_md[k])
            for variant, per_slot in curves.items()
            for j, curve in enumerate(per_slot)
            for k, l in enumerate(curve.l_grid)]
    return ["slot_j", "variant", "l", "P_FA", "P_MD", "trials", "se_P_FA",
            "se_P_MD"], rows


def nmse_table(per_trial: dict):
    """nmse.csv: per variant and slot, the mean and standard error over
    trials of the NMSE and of tau_final, from `AggregateResult.per_trial`."""
    rows = []
    for variant, data in per_trial.items():
        stats = []
        with warnings.catch_warnings():
            # a slot with no valid trial has a NaN mean
            warnings.simplefilter("ignore", RuntimeWarning)
            for key in ("nmse", "tau_final"):
                stats += [np.nanmean(data[key], axis=0), _rate_stderr(data[key])]
        rows += [(j + 1, variant, *(column[j] for column in stats))
                 for j in range(len(stats[0]))]
    return ["slot_j", "variant", "nmse", "se_nmse", "tau_final",
            "se_tau_final"], rows


def se_trace_table(se_traces: dict):
    """se_trace.csv from {variant: per-slot SeTraces}."""
    rows = [(variant, j + 1, step, tau_sq, err, int(trace.converged))
            for variant, per_slot in se_traces.items()
            for j, trace in enumerate(per_slot)
            for step, (tau_sq, err) in enumerate(zip(trace.tau_sq, trace.stderr))]
    return ["variant", "slot_j", "step", "tau_sq", "stderr", "converged"], rows


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{value:.17g}"
    return str(value)


def write_tables(out_dir, tables: dict) -> dict:
    """Write each {name: (header, rows)} table to `out_dir`/name.csv and
    return {name: path}.

    Floats are written with 17 significant digits, so reading a file back
    reproduces them exactly; lines end in LF.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name, (header, rows) in tables.items():
        path = paths[name] = os.path.join(out_dir, f"{name}.csv")
        try:
            with open(path, "w", newline="") as fh:
                fh.write(",".join(header) + "\n")
                for row in rows:
                    fh.write(",".join(_fmt(v) for v in row) + "\n")
        except OSError as exc:
            raise OSError(f"writing {path}: {exc}") from exc
    return paths


def emit_csv(result: AggregateResult, out_dir) -> dict:
    """Write the run's ROC, NMSE, SE-trace and curve CSVs plus a metadata
    JSON; returns {name: path}.

    The CSV bytes are deterministic functions of (spec, seed); wall time
    and other run-dependent facts live only in metadata.json.
    """
    # response/threshold grids at the experiment's own operating point:
    # median channel gain and the converged slot-1 noise level
    scenario = result.spec.scenario
    gamma = float(np.median(scenario.path_losses))
    tau = float(np.sqrt(result.se_traces["nosi"][0].fixed_point))
    scale = np.sqrt(gamma)
    curve_kw = dict(gamma=gamma, tau=tau, tau_prev=tau,
                    alpha=scenario.persistence, beta=scenario.beta,
                    num_antennas=scenario.num_antennas)
    grid = np.linspace(0.0, 4.0 * np.sqrt(gamma + tau * tau), 401)
    threshold_curve, _, _ = detector_threshold_curve(l=0.0, prev_grid=grid,
                                                     **curve_kw)
    paths = write_tables(out_dir, {
        "roc": roc_table(result.curves),
        "nmse": nmse_table(result.per_trial),
        "se_trace": se_trace_table(result.se_traces),
        "denoiser_curve": denoiser_response_curve(
            lam=scenario.activity_rate,
            prev_magnitudes=[1e-3 * scale, 10.0 * scale], grid=grid,
            **curve_kw),
        "threshold_curve": threshold_curve,
    })
    paths["metadata"] = os.path.join(out_dir, "metadata.json")
    with open(paths["metadata"], "w") as fh:
        json.dump(result.metadata, fh, indent=2)
    return paths
