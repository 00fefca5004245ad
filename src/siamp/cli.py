"""Command-line entry point.

Subcommands
-----------
simulate        full Monte Carlo experiment, all CSV outputs
se-trace        state-evolution fixed-point traces as CSV
curves          denoiser response and energy-threshold grids as CSV
dump-traces     ground-truth activity/channel dump of simulate's trial 0
amp-trace       per-iteration tau/residual/change log of simulate's trial 0
oracle-check    closed-form vs direct-posterior equivalence sweeps

Exit status is nonzero on any parse, validation or oracle failure.
"""

import argparse
import os
import sys

import numpy as np

from .amp import run_trial_variants
from .denoiser import (DenoiserParams, denoise_rows, draw_case_pair,
                       oracle_posterior_mean, si_log_odds)
from .detector import block_detection, llr_appendix_oracle
from .errors import InvalidConfig, SiAmpError
from .experiment import (chained_se_traces, denoiser_response_curve,
                         detector_threshold_curve, emit_csv,
                         read_config_file, run_experiment, se_trace_table,
                         spec_from_options, trial_config, write_tables)
from .model import beta_from, generate_scenario, trace_table
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
    # the output directory is the command's, not the experiment's:
    # --out-dir, else the config file's out_dir line, else '.'
    file_out_dir = options.pop("out_dir", None)
    out_dir = (file_out_dir if args.out_dir is None else args.out_dir) or "."
    # command-line values are typed already and pass through unconverted
    # only simulate has --trials and --parallelism
    flags = {"preset": args.preset, "rng_seed": args.seed,
             "num_trials": getattr(args, "trials", None),
             "parallelism": getattr(args, "parallelism", None)}
    options.update({k: v for k, v in flags.items() if v is not None})
    spec = spec_from_options(options, source=source)
    # a file in the output path fails here, before any trial runs, and
    # nothing is created
    ancestor = os.path.abspath(out_dir)
    while not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not os.path.isdir(ancestor):
        raise InvalidConfig(f"out_dir {out_dir!r}: {ancestor} is not "
                            "a directory")
    return spec, out_dir


def _add_common(parser):
    parser.add_argument("config", nargs="?", default=None,
                        help="key = value config file")
    parser.add_argument("--preset", default=None,
                        help="named preset instead of a config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out-dir", default=None)


def _print_paths(paths):
    for name, path in sorted(paths.items()):
        print(f"{name}: {path}")


def _cmd_simulate(args) -> int:
    spec, out_dir = _load_spec(args)
    result = run_experiment(spec)
    _print_paths(emit_csv(result, out_dir))
    print(f"completed {result.metadata['completed_trials']} trials "
          f"in {result.metadata['wall_time_s']:.1f}s")
    stopped = ", ".join(f"{variant} {np.sum(~data['converged'])}/"
                        f"{data['converged'].size}"
                        for variant, data in result.per_trial.items())
    print(f"block runs stopped at {result.metadata['amp_max_iters']} "
          f"iterations: {stopped}")
    return 0


def _cmd_se_trace(args) -> int:
    spec, out_dir = _load_spec(args)
    _print_paths(write_tables(out_dir, {
        "se_trace": se_trace_table(chained_se_traces(spec))}))
    return 0


def _cmd_curves(args) -> int:
    grid = np.linspace(0.0, 2e-5, 501)
    threshold_curve, lower, upper = detector_threshold_curve(
        l=0.0, prev_grid=grid, **_CURVE_DEFAULTS)
    _print_paths(write_tables(args.out_dir, {
        "denoiser_curve": denoiser_response_curve(
            prev_magnitudes=[1e-7, 1e-3], grid=grid, lam=0.1,
            **_CURVE_DEFAULTS),
        "threshold_curve": threshold_curve}))
    print(f"limits: lower={lower:.17g} upper={upper:.17g}")
    return 0


def _cmd_dump_traces(args) -> int:
    spec, out_dir = _load_spec(args)
    table = trace_table(generate_scenario(trial_config(spec.scenario, 0)))
    _print_paths(write_tables(out_dir, {"traces": table}))
    return 0


def _cmd_amp_trace(args) -> int:
    spec, out_dir = _load_spec(args)
    rows = [(trial.variant, j + 1, t + 1, block.tau_trace[t + 1],
             block.residual_fro_trace[t], block.delta_x_trace[t],
             int(block.converged))
            for trial in run_trial_variants(trial_config(spec.scenario, 0))
            for j, block in enumerate(trial.blocks)
            for t in range(len(block.delta_x_trace))]
    header = ["variant", "block", "iter", "tau", "residual_fro", "delta_X",
              "converged"]
    _print_paths(write_tables(out_dir, {"amp_trace": (header, rows)}))
    return 0


def _cmd_oracle_check(args) -> int:
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
            # the energy threshold the threshold-curve table publishes
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

    p = sub.add_parser("simulate")
    _add_common(p)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--parallelism", type=int, default=None)
    p.set_defaults(fn=_cmd_simulate)

    for name, fn in (("se-trace", _cmd_se_trace),
                     ("dump-traces", _cmd_dump_traces),
                     ("amp-trace", _cmd_amp_trace)):
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("curves")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(fn=_cmd_curves)

    p = sub.add_parser("oracle-check")
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=_cmd_oracle_check)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SiAmpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
