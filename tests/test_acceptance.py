"""End-to-end acceptance gate.

One test per criterion, each printing a PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s``).  Tolerances are fixed here,
not configurable.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from siamp import (DenoiserParams, ScenarioConfig, SeParams, beta_from,
                   block_detection, denoise_rows, detect_block,
                   draw_case_pair, emit_csv, generate_scenario,
                   llr_appendix_oracle, oracle_posterior_mean, run_block,
                   run_experiment, se_fixed_point, si_log_odds,
                   spec_from_options)
from siamp.experiment import (denoiser_response_curve,
                              detector_threshold_curve)
from siamp.streams import substream

pytestmark = pytest.mark.acceptance


def report(name: str, ok: bool, detail: str) -> None:
    print(f"\n{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name} failed: {detail}"


def si_term_of(si, params):
    """The side-information log-odds term of one device."""
    return si_log_odds(si, params.gamma, params.alpha, params.beta)


def denoise_one(x_t, si, params):
    """(estimate, derivative average) of one device, as a one-row call."""
    out, deriv = denoise_rows(x_t[None, :], params.gamma, params.tau,
                              params.lam, si_term_of(si, params))
    return out[0], float(deriv[0])


def detect_one(x_t, si, params):
    """Detection state of one device, as a one-row block."""
    return block_detection(x_t[None, :], params.tau, params.gamma,
                           np.zeros(1, dtype=bool), si_term_of(si, params))


def test_a1_denoiser_oracle_equivalence():
    start = time.time()
    rng = substream(101, "a1")
    lam, alpha = 0.1, 0.91
    beta = beta_from(lam, alpha)
    per_combo = 10_000 // 9 + 1
    worst = 0.0
    for m in (1, 2, 4):
        for ratio in (0.1, 1.0, 2500.0):
            for _ in range(per_combo):
                tau = float(10.0 ** rng.uniform(-6, 0))
                params = DenoiserParams(gamma=ratio * tau * tau, tau=tau,
                                        lam=lam, alpha=alpha, beta=beta,
                                        num_antennas=m)
                x_t, si = draw_case_pair(rng, params,
                                         tau_prev=tau * rng.uniform(0.5, 2.0))
                ours = denoise_one(x_t, si, params)[0]
                ref = oracle_posterior_mean(x_t, si, params)
                err = (np.linalg.norm(ours - ref)
                       / max(np.linalg.norm(ref), 1e-300))
                worst = max(worst, err)
    elapsed = time.time() - start
    report("A1 denoiser-oracle equivalence",
           worst < 1e-9 and elapsed < 10.0,
           f"max rel err {worst:.2e} (tol 1e-9), {9 * per_combo} instances, "
           f"{elapsed:.1f}s")


def test_a2_detector_oracle_equivalence():
    start = time.time()
    rng = substream(102, "a2")
    lam, alpha = 0.1, 0.91
    beta = beta_from(lam, alpha)
    disagreements = 0
    worst_llr = 0.0
    n_checked = 0
    for _ in range(10_000):
        m = int(rng.choice([1, 2, 4]))
        ratio = float(rng.choice([0.1, 1.0, 2500.0]))
        tau = float(10.0 ** rng.uniform(-4, 0))
        params = DenoiserParams(gamma=ratio * tau * tau, tau=tau, lam=lam,
                                alpha=alpha, beta=beta, num_antennas=m)
        x_t, si = draw_case_pair(rng, params, tau_prev=tau * rng.uniform(0.5, 2))
        det = detect_one(x_t, si, params)
        llr = float(det.llr[0])
        ref = llr_appendix_oracle(x_t, si, params)
        worst_llr = max(worst_llr, abs(llr - ref) / max(abs(ref), 1.0))
        level = float(rng.uniform(-10, 10))
        if abs(llr - level) < 1e-9:
            continue
        n_checked += 1
        if bool(detect_block(det, level).decisions[0]) != (llr > level):
            disagreements += 1
    elapsed = time.time() - start
    report("A2 detector-oracle equivalence",
           disagreements == 0 and worst_llr < 1e-10 and elapsed < 10.0,
           f"{disagreements} disagreements over {n_checked} instances, "
           f"max llr rel err {worst_llr:.2e} (tol 1e-10), {elapsed:.1f}s")


def _paired(a: np.ndarray, b: np.ndarray):
    d = a - b
    d = d[~np.isnan(d)]
    return float(d.mean()), float(d.std(ddof=1) / np.sqrt(len(d)))


def _pooled_p_md(curve, target_p_fa):
    """Pooled P_MD at the level where the pooled P_FA meets the target."""
    return float(np.interp(curve.l_at(target_p_fa), curve.l_grid, curve.p_md))


def _slot_and_variant_checks(result, targets):
    """(slot-gain stats per target, variant-gain stats at each target)."""
    slot_gains = []
    for pfa in targets:
        first = result.p_md_per_trial("si", 0, pfa)
        last = result.p_md_per_trial("si", result.spec.scenario.num_blocks - 1,
                                     pfa)
        mean, se = _paired(first, last)
        pooled_first = _pooled_p_md(result.curves["si"][0], pfa)
        pooled_last = _pooled_p_md(result.curves["si"][-1], pfa)
        slot_gains.append((pfa, mean, se, pooled_first, pooled_last))
    variant_gains = []
    for pfa in targets:
        nosi = result.p_md_per_trial("nosi", result.spec.scenario.num_blocks - 1,
                                     pfa)
        si = result.p_md_per_trial("si", result.spec.scenario.num_blocks - 1,
                                   pfa)
        mean, se = _paired(nosi, si)
        variant_gains.append((pfa, mean, se))
    return slot_gains, variant_gains


def test_a3_slot_and_variant_dominance_desk_scale():
    start = time.time()
    spec = spec_from_options({"preset": "fig3-desk"})
    spec = replace(spec, num_trials=400, parallelism=1, se_sample_count=2000)
    result = run_experiment(spec)
    targets = (0.01, 0.05, 0.1)
    slot_gains, variant_gains = _slot_and_variant_checks(result, targets)
    ok = True
    details = []
    for pfa, mean, se, pooled_first, pooled_last in slot_gains:
        good = pooled_last < pooled_first and mean > 2 * se
        ok = ok and good
        details.append(f"slot5<slot1@{pfa}: gain {mean:.4f} ({mean / se:.1f} se)")
    pfa, mean, se = variant_gains[0]
    good = mean > 2 * se
    ok = ok and good
    details.append(f"si<nosi@{pfa}: gain {mean:.4f} ({mean / se:.1f} se)")
    elapsed = time.time() - start
    ok = ok and elapsed < 600.0
    report("A3 detection gain over slots (M=1 desk scale)", ok,
           "; ".join(details) + f"; {elapsed:.0f}s")


def test_a4_multiantenna_desk_scale():
    start = time.time()
    spec = spec_from_options({"preset": "fig4-desk"})
    spec = replace(spec, num_trials=300, parallelism=1, se_sample_count=2000)
    result = run_experiment(spec)
    targets = (0.01, 0.05, 0.1)
    slot_gains, variant_gains = _slot_and_variant_checks(result, targets)
    ok = True
    details = []
    for pfa, mean, se, pooled_first, pooled_last in slot_gains:
        good = pooled_last < pooled_first and mean > 2 * se
        ok = ok and good
        details.append(f"slot5<slot1@{pfa}: gain {mean:.4f} ({mean / se:.1f} se)")
    for pfa, mean, se in variant_gains:
        good = mean > 2 * se
        ok = ok and good
        details.append(f"si<nosi@{pfa}: gain {mean:.4f} ({mean / se:.1f} se)")
    elapsed = time.time() - start
    ok = ok and elapsed < 600.0
    report("A4 detection gain over slots (M=2 desk scale)", ok,
           "; ".join(details) + f"; {elapsed:.0f}s")


def test_a5_state_evolution_consistency():
    start = time.time()
    n, l, m = 2000, 300, 4
    lam, gamma, noise = 0.02, 1.0, 0.1
    cfg = ScenarioConfig(num_devices=n, pilot_length=l, num_antennas=m,
                         num_blocks=1, activity_rate=lam, persistence=lam,
                         noise_variance=noise, path_losses=np.full(n, gamma),
                         rng_seed=314)
    scenario = generate_scenario(cfg)
    res = run_block(scenario.received[0], scenario.pilots, 0.0, cfg)
    params = SeParams.from_scenario(cfg, sample_count=100_000)
    trace = se_fixed_point(params, substream(105, "a5"))
    rel = abs(res.tau_final ** 2 - trace.fixed_point) / trace.fixed_point
    elapsed = time.time() - start
    report("A5 state-evolution consistency",
           rel < 0.05 and trace.converged and elapsed < 120.0,
           f"empirical tau^2 {res.tau_final ** 2:.5f} vs fixed point "
           f"{trace.fixed_point:.5f}, rel {rel:.3f} (tol 0.05), {elapsed:.0f}s")


def _ulp_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.atleast_1d(np.asarray(a))
    b = np.atleast_1d(np.asarray(b))
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        return (_ulp_equal(np.asarray(a).real, np.asarray(b).real)
                and _ulp_equal(np.asarray(a).imag, np.asarray(b).imag))
    tol = np.spacing(np.maximum(np.abs(a), np.abs(b)))
    return bool(np.all(np.abs(a - b) <= tol))


def test_a6_reduction_identities():
    # memoryless chain: the SI pipeline must collapse to the single-block
    # denoiser and detector written out independently below
    rng = substream(106, "a6")
    lam = 0.1
    params = DenoiserParams(gamma=1e-8, tau=2e-6, lam=lam, alpha=lam,
                            beta=lam, num_antennas=1)
    worst_case = True
    for _ in range(1000):
        x_t, si = draw_case_pair(rng, params, tau_prev=2e-6)
        ours = denoise_one(x_t, si, params)[0]

        g, t2 = params.gamma, params.tau * params.tau
        delta = 1.0 / t2 - 1.0 / (t2 + g)
        norm_sq = np.sum(np.abs(x_t) ** 2)
        log_mu = 1 * np.log((t2 + g) / t2) - delta * norm_sq
        q = np.log((1.0 - lam) / lam) + log_mu
        with np.errstate(over="ignore"):
            independent = (g / (g + t2)) / (1.0 + np.exp(q)) * x_t

        level = float(rng.uniform(-5, 5))
        det_report = detect_block(detect_one(x_t, si, params), level)
        (_, rows), _, _ = detector_threshold_curve(
            params.gamma, params.tau, si.tau_prev, params.alpha, params.beta,
            1, level, [np.linalg.norm(si.pseudo_obs)])
        t_ours = rows[0][1]
        t_ind = (level + 1 * np.log((t2 + g) / t2)) / delta
        energy = float(norm_sq)
        same = (_ulp_equal(ours, independent)
                and _ulp_equal(t_ours, np.array([t_ind]))
                and bool(det_report.decisions[0]) == (energy > t_ind))
        worst_case = worst_case and same
    report("A6 reduction identities (memoryless chain)", worst_case,
           "denoiser, threshold and decisions match the independent "
           "single-block pipeline to <= 1 ulp on 1000 instances")


def test_a7_derivative_against_finite_differences():
    rng = substream(107, "a7")
    params = DenoiserParams(gamma=1e-8, tau=2e-6, lam=0.1, alpha=0.91,
                            beta=0.01, num_antennas=1)
    h = 1e-6 * params.tau
    worst = 0.0
    checked = 0
    while checked < 1000:
        x_t, si = draw_case_pair(rng, params, tau_prev=2e-6)
        if np.linalg.norm(x_t) < 1e-3 * params.tau:
            continue
        checked += 1
        analytic = denoise_one(x_t, si, params)[1]
        total = 0.0
        for direction in (1.0, 1j):
            step = np.array([direction * h])
            fp = denoise_one(x_t + step, si, params)[0][0]
            fm = denoise_one(x_t - step, si, params)[0][0]
            d = (fp - fm) / (2 * h)
            total += 0.5 * (d if direction == 1.0 else -1j * d)
        numeric = total
        err = abs(analytic - numeric) / max(abs(numeric), 1e-300)
        worst = max(worst, float(err))
    report("A7 derivative vs finite differences", worst < 1e-6,
           f"max rel err {worst:.2e} over 1000 instances (tol 1e-6)")


def test_a8_response_and_threshold_shapes():
    grid = np.linspace(0.0, 2e-5, 2001)
    _, rows = denoiser_response_curve(
        gamma=1e-8, tau=2e-6, tau_prev=2e-6, lam=0.1, alpha=0.91, beta=0.01,
        num_antennas=1, prev_magnitudes=[1e-7, 1e-3], grid=grid)

    def first_alive(prev_mag, variant):
        for var, pm, x, y in rows:
            if var == variant and pm == prev_mag and x > 0 and y > 1e-3 * x:
                return x
        return np.inf

    strong = first_alive(1e-3, "si")
    weak = first_alive(1e-7, "si")
    shrinks = strong < weak

    prev_grid = np.linspace(0.0, 2e-5, 2001)
    (_, t_rows), lower, upper = detector_threshold_curve(
        gamma=1e-8, tau=2e-6, tau_prev=2e-6, alpha=0.91, beta=0.01,
        num_antennas=1, l=0.0, prev_grid=prev_grid)
    values = np.array([r[1] for r in t_rows])
    monotone = bool(np.all(np.diff(values) <= 1e-25))
    bracketed = bool(np.all(values >= lower - 1e-25)
                     and np.all(values <= upper + 1e-25))
    report("A8 response and threshold shape checks",
           shrinks and monotone and bracketed,
           f"zero-region edge {strong:.2e} (strong SI) < {weak:.2e} (weak SI); "
           f"threshold monotone and inside [{lower:.3e}, {upper:.3e}]")


def test_a9_parallel_determinism(tmp_path):
    start = time.time()
    spec = spec_from_options({"preset": "fig3-desk"})
    spec = replace(spec, se_sample_count=2000)
    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"
    paths_serial = emit_csv(run_experiment(replace(spec, parallelism=1)),
                            serial_dir)
    paths_parallel = emit_csv(run_experiment(replace(spec, parallelism=8)),
                              parallel_dir)
    same = True
    compared = []
    for name in ("roc", "nmse", "se_trace", "denoiser_curve",
                 "threshold_curve"):
        a = open(paths_serial[name], "rb").read()
        b = open(paths_parallel[name], "rb").read()
        same = same and a == b
        compared.append(f"{name}.csv {len(a)}B")
    elapsed = time.time() - start
    report("A9 parallel determinism", same,
           f"byte-identical outputs ({', '.join(compared)}); {elapsed:.0f}s")
