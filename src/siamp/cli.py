"""Command-line entry point.

Subcommands
-----------
simulate        full Monte Carlo experiment, all CSV outputs
roc             experiment, ROC CSV only
se-trace        state-evolution fixed-point traces as CSV
denoiser-curve  denoiser magnitude response grid as CSV
detector-curve  energy-threshold-vs-previous-magnitude grid as CSV
dump-traces     ground-truth activity/channel dump for one scenario
amp-trace       per-iteration tau/residual/change log for one trial
oracle-check    closed-form vs direct-posterior equivalence sweeps

Exit status is nonzero on any parse, validation or oracle failure.
"""

import argparse
import sys

import numpy as np

from .errors import InvalidConfig, SiAmpError
from .experiment import (chained_se_traces, denoiser_response_curve,
                         detector_threshold_curve, emit_csv,
                         read_config_file, roc_table, run_experiment,
                         se_trace_table, spec_from_options, write_tables)
from .model import generate_scenario, trace_table
from .streams import substream

# parameter family of the response/threshold curve examples
_CURVE_DEFAULTS = dict(gamma=1e-8, tau=2e-6, tau_prev=2e-6, alpha=0.91,
                       beta=0.01, num_antennas=1)


def _load_spec(args):
    # overrides are injected before materialization so that a --seed
    # change also re-draws seed-derived quantities (device placement)
    if args.config is not None:
        options = read_config_file(args.config)
        source = str(args.config)
    elif args.preset is not None:
        options, source = {}, "--preset"
    else:
        raise SiAmpError("either a config file or --preset is required")
    # command-line values are typed already and pass through unconverted
    flags = {"preset": args.preset, "rng_seed": args.seed,
             "num_trials": args.trials, "parallelism": args.parallelism,
             "out_dir": args.out_dir}
    options.update({k: v for k, v in flags.items() if v is not None})
    return spec_from_options(options, source=source)


def _add_common(parser):
    parser.add_argument("config", nargs="?", default=None,
                        help="key = value config file")
    parser.add_argument("--preset", default=None,
                        help="named preset instead of a config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--out-dir", default=None)
    parser.add_argument("--parallelism", type=int, default=None)


def _print_paths(paths):
    for name, path in sorted(paths.items()):
        print(f"{name}: {path}")


def _cmd_simulate(args) -> int:
    spec = _load_spec(args)
    result = run_experiment(spec)
    _print_paths(emit_csv(result, spec.out_dir or "."))
    print(f"completed {result.metadata['completed_trials']} trials "
          f"in {result.metadata['wall_time_s']:.1f}s")
    return 0


def _cmd_roc(args) -> int:
    spec = _load_spec(args)
    result = run_experiment(spec)
    _print_paths(write_tables(spec.out_dir or ".",
                              {"roc": roc_table(result.curves)}))
    return 0


def _cmd_se_trace(args) -> int:
    spec = _load_spec(args)
    _print_paths(write_tables(spec.out_dir or ".", {
        "se_trace": se_trace_table(chained_se_traces(spec))}))
    return 0


def _curve_grid(flag: str, max_value: float, points: int) -> np.ndarray:
    """`points` evenly spaced values from 0 to `max_value`, checked."""
    if not 0.0 < max_value < np.inf:
        raise InvalidConfig(f"{flag} must be positive and finite, "
                            f"got {max_value}")
    if points < 2:
        raise InvalidConfig(f"--points must be at least 2, got {points}")
    return np.linspace(0.0, max_value, points)


def _cmd_denoiser_curve(args) -> int:
    grid = _curve_grid("--max-input", args.max_input, args.points)
    try:
        prev = [float(v) for v in args.prev.split(",")]
    except ValueError:
        prev = [np.nan]
    if not all(0.0 <= v < np.inf for v in prev):
        raise InvalidConfig("--prev must be a comma list of finite "
                            f"nonnegative magnitudes, got {args.prev!r}")
    table = denoiser_response_curve(prev_magnitudes=prev, grid=grid, lam=0.1,
                                    **_CURVE_DEFAULTS)
    _print_paths(write_tables(args.out_dir, {"denoiser_curve": table}))
    return 0


def _cmd_detector_curve(args) -> int:
    prev_grid = _curve_grid("--max-prev", args.max_prev, args.points)
    if not np.isfinite(args.l):
        raise InvalidConfig(f"--l must be finite, got {args.l}")
    table, lower, upper = detector_threshold_curve(
        l=args.l, prev_grid=prev_grid, **_CURVE_DEFAULTS)
    _print_paths(write_tables(args.out_dir, {"threshold_curve": table}))
    print(f"limits: lower={lower:.17g} upper={upper:.17g}")
    return 0


def _cmd_dump_traces(args) -> int:
    spec = _load_spec(args)
    table = trace_table(generate_scenario(spec.scenario))
    _print_paths(write_tables(spec.out_dir or ".", {"traces": table}))
    return 0


def _cmd_amp_trace(args) -> int:
    from .amp import run_trial
    spec = _load_spec(args)
    trial = run_trial(spec.scenario, variant=args.variant)
    rows = [(j + 1, t + 1, block.tau_trace[t + 1], block.residual_fro_trace[t],
             block.delta_x_trace[t])
            for j, block in enumerate(trial.blocks)
            for t in range(len(block.delta_x_trace))]
    header = ["block", "iter", "tau", "residual_fro", "delta_X"]
    _print_paths(write_tables(spec.out_dir or ".",
                              {"amp_trace": (header, rows)}))
    return 0


def _cmd_oracle_check(args) -> int:
    from .denoiser import (DenoiserParams, denoise_rows, draw_case_pair,
                           oracle_posterior_mean, si_log_odds)
    from .detector import block_detection, llr_appendix_oracle
    from .model import beta_from

    seed = args.seed if args.seed is not None else 0
    if args.samples < 1 or seed < 0:
        raise InvalidConfig("--samples must be at least 1 and --seed "
                            f"nonnegative, got {args.samples} and {seed}")
    rng = substream(seed, "oracle-check")
    lam, alpha = 0.1, 0.91
    beta = beta_from(lam, alpha)
    max_denoise_err = 0.0
    max_llr_err = 0.0
    disagreements = 0
    for _ in range(args.samples):
        m = int(rng.choice([1, 2, 4]))
        ratio = float(rng.choice([0.1, 1.0, 2500.0]))
        tau = float(10.0 ** rng.uniform(-6, 0))
        gamma = ratio * tau * tau
        tau_prev = tau * float(rng.uniform(0.5, 2.0))
        params = DenoiserParams(gamma=gamma, tau=tau, lam=lam, alpha=alpha,
                                beta=beta, num_antennas=m)
        x_t, si = draw_case_pair(rng, params, tau_prev)
        si_term = si_log_odds(si, gamma, alpha, beta)
        ours = denoise_rows(x_t[None, :], gamma, tau, lam, si_term)[0][0]
        ref = oracle_posterior_mean(x_t, si, params)
        scale = max(float(np.linalg.norm(ref)), 1e-300)
        max_denoise_err = max(max_denoise_err,
                              float(np.linalg.norm(ours - ref)) / scale)
        det = block_detection(x_t[None, :], tau, gamma,
                              np.zeros(1, dtype=bool), si_term)
        llr = float(det.llr[0])
        llr_ref = llr_appendix_oracle(x_t, si, params)
        max_llr_err = max(max_llr_err, abs(llr - llr_ref) / max(abs(llr_ref), 1.0))
        l = float(rng.uniform(-10, 10))
        if abs(llr - l) > 1e-9:
            # the energy threshold the detector-curve table publishes
            (_, rows), _, _ = detector_threshold_curve(
                gamma, tau, tau_prev, alpha, beta, m, l,
                [np.linalg.norm(si.pseudo_obs)])
            energy = np.sum(np.abs(x_t) ** 2)
            if (energy > rows[0][1]) != (llr > l):
                disagreements += 1
    print(f"denoiser oracle: max relative error {max_denoise_err:.3e} "
          f"(tolerance 1e-9)")
    print(f"llr oracle:      max relative error {max_llr_err:.3e} "
          f"(tolerance 1e-10)")
    print(f"threshold test:  {disagreements} disagreements outside the "
          f"boundary band (tolerance 0)")
    ok = max_denoise_err < 1e-9 and max_llr_err < 1e-10 and disagreements == 0
    print("oracle-check: PASS" if ok else "oracle-check: FAIL")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="siamp",
        description="SI-aided MMV-AMP activity detection experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (("simulate", _cmd_simulate), ("roc", _cmd_roc),
                     ("se-trace", _cmd_se_trace),
                     ("dump-traces", _cmd_dump_traces)):
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("amp-trace")
    _add_common(p)
    p.add_argument("--variant", choices=("si", "nosi"), default="si")
    p.set_defaults(fn=_cmd_amp_trace)

    p = sub.add_parser("denoiser-curve")
    p.add_argument("--prev", default="1e-7,1e-3",
                   help="comma list of previous-block magnitudes")
    p.add_argument("--max-input", type=float, default=2e-5)
    p.add_argument("--points", type=int, default=501)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(fn=_cmd_denoiser_curve)

    p = sub.add_parser("detector-curve")
    p.add_argument("--l", type=float, default=0.0)
    p.add_argument("--max-prev", type=float, default=2e-5)
    p.add_argument("--points", type=int, default=501)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(fn=_cmd_detector_curve)

    p = sub.add_parser("oracle-check")
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=_cmd_oracle_check)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SiAmpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
