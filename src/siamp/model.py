"""Synthetic massive-IoT scenario generation.

Produces Markov-correlated activity traces, i.i.d. Rayleigh channels,
complex Gaussian pilot sequences and the noisy received signal
Y = S X + Z for each coherence block, all driven by named RNG
substreams of a single master seed.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidConfig
from .streams import substream

# substream names used by scenario generation
STREAM_PILOTS = "pilots"
STREAM_ACTIVITY = "activity"
STREAM_CHANNELS = "channels"
STREAM_NOISE = "noise"

# smallest gain/noise_variance admitted: below about 1e-16 the gain rounds
# away in tau^2 + gamma, so delta = 1/tau^2 - 1/(tau^2 + gamma) is 0, the
# LLR loses its data term and the published energy threshold divides by 0;
# at 2^-40 delta keeps about 13 significant bits
MIN_GAIN_TO_NOISE = 2.0 ** -40
# largest gain/noise_variance admitted: the log-odds multiply delta (up to
# 1/noise_variance in state evolution) by energies of up to about 1e3 times
# the gain, and overflow near a ratio of 1e306
MAX_GAIN_TO_NOISE = 2.0 ** 900

# smallest gain or noise_variance admitted: above it, scaling every power
# by 4^k changes no output but by exact powers of 2; near 1e-307 the
# intermediates go subnormal and that is lost
MIN_POWER = 2.0 ** -1000

# most normal variates drawn per `standard_normal` call: a paper-scale pilot
# matrix is drawn 16 rows at a time in place of a full-size temporary, while
# every channel and noise draw stays one call
DRAW_CHUNK = 2 ** 16


def beta_from(lam: float, alpha: float) -> float:
    """Activation probability of a previously inactive device.

    Solves the stationarity constraint alpha*lam + beta*(1-lam) = lam for
    beta, so the marginal activity rate stays at ``lam`` in every block.

    Raises InvalidConfig if (lam, alpha) admit no valid probability.
    """
    if not 0.0 < lam < 1.0:
        raise InvalidConfig(f"activity rate must be in (0,1), got {lam}")
    if not 0.0 <= alpha <= 1.0:
        raise InvalidConfig(f"persistence must be in [0,1], got {alpha}")
    beta = lam * (1.0 - alpha) / (1.0 - lam)
    if not 0.0 <= beta <= 1.0:
        raise InvalidConfig(
            f"derived beta={beta:.6g} outside [0,1] for lam={lam}, alpha={alpha}"
        )
    return beta


def power_violation(name: str, values, bound: float) -> str | None:
    """Why a gain or noise variance (every entry of an array of them) is
    not finite, at least `MIN_POWER` and at most `bound`, or None."""
    values = np.asarray(values, dtype=float).ravel()
    bad = values[~((values > 0.0) & (values < np.inf))]
    if bad.size:
        return f"{name} must be finite and positive, got {bad[0]}"
    if values.min() < MIN_POWER:
        return (f"{name} must be at least 2^-1000 = {MIN_POWER:.6g}, "
                f"got {values.min()}")
    if values.max() > bound:
        return (f"{name} must be at most sqrt(largest double)/(N*L*M) = "
                f"{bound:.6g}, got {values.max()}")
    return None


def is_integer(value) -> bool:
    """A Python or numpy integer; not a bool, nor a float of integral value."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def count_violation(name: str, value, least: int, below: str) -> str | None:
    """Why a count or seed is not an integer of at least `least`, or None;
    `below` is the message for a smaller integer."""
    if not is_integer(value):
        return f"{name} must be an integer, got {value!r}"
    return below if value < least else None


def path_loss_linear(distance_km: float) -> float:
    """Linear power gain of the -128.1 - 36.7*log10(d_km) dB path loss law."""
    if not distance_km > 0.0:
        raise InvalidConfig(f"distance must be positive, got {distance_km}")
    loss_db = -128.1 - 36.7 * np.log10(distance_km)
    return float(10.0 ** (loss_db / 10.0))


@dataclass(frozen=True)
class ScenarioConfig:
    """All system, channel and activity parameters of one trial."""

    num_devices: int
    pilot_length: int
    num_antennas: int
    num_blocks: int
    activity_rate: float
    persistence: float
    noise_variance: float
    path_losses: np.ndarray  # shape (num_devices,), linear power gains
    rng_seed: int

    @property
    def beta(self) -> float:
        return beta_from(self.activity_rate, self.persistence)

    def power_bound(self) -> float:
        """Largest gain or noise variance the config may hold.

        ||y||^2 and tau^2 add up to about N*L*M such powers, and state
        evolution squares powers (the sample variance of its per-sample
        errors), so sqrt(largest double)/(N*L*M) keeps both finite.
        """
        return (math.sqrt(np.finfo(float).max)
                / (self.num_devices * self.pilot_length * self.num_antennas))

    def violations(self) -> list[str]:
        """All invariant violations (empty list when valid)."""
        count_bad = {name: count_violation(name, getattr(self, name), 1,
                                           f"{name} must be a positive count")
                     for name in ("num_devices", "pilot_length",
                                  "num_antennas", "num_blocks")}
        out = list(count_bad.values())
        # with a bad count the powers are only checked for sign and finiteness
        bound = np.inf if any(out) else self.power_bound()
        if not 0.0 < self.activity_rate < 1.0:
            out.append(f"activity_rate must be in (0,1), got {self.activity_rate}")
        if not 0.0 <= self.persistence <= 1.0:
            out.append(f"persistence must be in [0,1], got {self.persistence}")
        elif 0.0 < self.activity_rate < 1.0:
            try:
                beta_from(self.activity_rate, self.persistence)
            except InvalidConfig as exc:
                out.append(str(exc))
        noise_bad = power_violation("noise_variance", self.noise_variance, bound)
        out.append(noise_bad)
        out.append(count_violation(
            "rng_seed", self.rng_seed, 0,
            f"rng_seed must be nonnegative, got {self.rng_seed}"))
        gammas = np.asarray(self.path_losses, dtype=float)
        if not count_bad["num_devices"] and (
                gammas.ndim != 1 or gammas.shape[0] != self.num_devices):
            out.append(
                f"path_losses must have shape ({self.num_devices},), got {gammas.shape}"
            )
        elif gammas.size:
            gain_bad = power_violation("path_losses", gammas, bound)
            floor = MIN_GAIN_TO_NOISE * self.noise_variance
            # a float product: an overflow to inf raises no warning
            ceiling = MAX_GAIN_TO_NOISE * float(self.noise_variance)
            # both are ratios of two powers, so both must be valid first
            if not (gain_bad or noise_bad) and gammas.min() < floor:
                gain_bad = (f"path_losses must be at least 2^-40*noise_variance"
                            f" = {floor:.6g}, got {gammas.min()}")
            elif not (gain_bad or noise_bad) and gammas.max() > ceiling:
                gain_bad = (f"path_losses must be at most 2^900*noise_variance"
                            f" = {ceiling:.6g}, got {gammas.max()}")
            out.append(gain_bad)
        return [v for v in out if v is not None]

    def validate(self) -> "ScenarioConfig":
        bad = self.violations()
        if bad:
            raise InvalidConfig("; ".join(bad))
        return self


@dataclass(frozen=True)
class BlockTruth:
    """Ground truth of one coherence block."""

    activity: np.ndarray  # (N,) bool
    channels: np.ndarray  # (N, M) complex, drawn for every device
    effective_signal: np.ndarray  # (N, M) complex, row n = activity[n]*channels[n]


@dataclass(frozen=True)
class ScenarioRealization:
    """One full J-block realization of a scenario."""

    config: ScenarioConfig
    pilots: np.ndarray  # (L, N) complex, entries i.i.d. CN(0, 1/L)
    blocks: list[BlockTruth] = field(default_factory=list)
    received: list[np.ndarray] = field(default_factory=list)  # (L, M) per block


def _complex_gaussian(rng: np.random.Generator, shape, variance) -> np.ndarray:
    """I.i.d. CN(0, variance) entries; variance may broadcast over shape.

    All real parts are drawn before all imaginary parts, in row chunks of
    at most `DRAW_CHUNK` entries, so the stream is used up exactly as by
    one `standard_normal(shape)` call per part, without a temporary of
    the full shape.
    """
    scale = np.broadcast_to(np.sqrt(np.asarray(variance, dtype=float) / 2.0),
                            shape)
    out = np.empty(shape, dtype=complex)
    rows = max(1, DRAW_CHUNK // max(1, math.prod(shape[1:])))
    for part in (out.real, out.imag):
        for start in range(0, shape[0], rows):
            chunk = slice(start, start + rows)
            np.multiply(scale[chunk], rng.standard_normal(part[chunk].shape),
                        out=part[chunk])
    return out


def draw_pilot_matrix(pilot_length: int, num_devices: int,
                      rng: np.random.Generator) -> np.ndarray:
    """L x N pilot matrix, entries i.i.d. CN(0, 1/L), fixed for a trial."""
    return _complex_gaussian(rng, (pilot_length, num_devices), 1.0 / pilot_length)


def sample_activity_trace(lam: float, alpha: float, num_devices: int,
                          num_blocks: int, rng: np.random.Generator) -> np.ndarray:
    """(N, J) boolean activity matrix of the two-state chain with marginal
    rate ``lam`` and persistence ``alpha``.

    Block 1 is drawn from the stationary Bernoulli(lam) marginal; each
    later block follows the chain transitions, independently per device,
    with the activation probability from `beta_from`.
    """
    beta = beta_from(lam, alpha)
    u = rng.random((num_devices, num_blocks))
    trace = np.empty((num_devices, num_blocks), dtype=bool)
    trace[:, 0] = u[:, 0] < lam
    for j in range(1, num_blocks):
        prev = trace[:, j - 1]
        trace[:, j] = np.where(prev, u[:, j] < alpha, u[:, j] < beta)
    return trace


def draw_block_truth(activity: np.ndarray, path_losses: np.ndarray,
                     num_antennas: int, rng: np.random.Generator) -> BlockTruth:
    """Fresh Rayleigh channels h_n ~ CN(0, gamma_n I) and X rows delta_n*h_n."""
    n = activity.shape[0]
    gammas = np.asarray(path_losses, dtype=float)
    channels = _complex_gaussian(rng, (n, num_antennas), gammas[:, None])
    effective = np.where(activity[:, None], channels, 0.0 + 0.0j)
    return BlockTruth(activity=activity.astype(bool), channels=channels,
                      effective_signal=effective)


def synthesize_block(truth: BlockTruth, pilots: np.ndarray,
                     noise_variance: float,
                     rng: np.random.Generator) -> np.ndarray:
    """(L, M) received signal Y = S X + Z with Z i.i.d. CN(0, noise_variance)."""
    x = truth.effective_signal
    if pilots.shape[1] != x.shape[0]:
        raise DimensionMismatch(
            f"pilot matrix has {pilots.shape[1]} devices, truth has {x.shape[0]}"
        )
    z = _complex_gaussian(rng, (pilots.shape[0], x.shape[1]), noise_variance)
    return pilots @ x + z


def generate_scenario(config: ScenarioConfig) -> ScenarioRealization:
    """Draw pilots, activity, channels and noise for all J blocks.

    Each ingredient uses its own named substream of config.rng_seed, so
    regenerating with the same config is bit-identical and independent
    consumers cannot perturb one another.
    """
    config.validate()
    pilots = draw_pilot_matrix(
        config.pilot_length, config.num_devices,
        substream(config.rng_seed, STREAM_PILOTS))
    trace = sample_activity_trace(
        config.activity_rate, config.persistence,
        config.num_devices, config.num_blocks,
        substream(config.rng_seed, STREAM_ACTIVITY))
    rng_ch = substream(config.rng_seed, STREAM_CHANNELS)
    rng_z = substream(config.rng_seed, STREAM_NOISE)
    blocks, received = [], []
    for j in range(config.num_blocks):
        truth = draw_block_truth(trace[:, j], config.path_losses,
                                 config.num_antennas, rng_ch)
        blocks.append(truth)
        received.append(synthesize_block(truth, pilots, config.noise_variance, rng_z))
    return ScenarioRealization(config=config, pilots=pilots,
                               blocks=blocks, received=received)


def trace_table(realization: ScenarioRealization):
    """(header, rows) of the per-device truth: block, device, active,
    channel re/im per antenna."""
    m = realization.config.num_antennas
    header = (["block", "device", "active"]
              + [f"channel_re_{k + 1}" for k in range(m)]
              + [f"channel_im_{k + 1}" for k in range(m)])
    rows = [(j + 1, n, int(truth.activity[n]), *h.real, *h.imag)
            for j, truth in enumerate(realization.blocks)
            for n, h in enumerate(truth.channels)]
    return header, rows
