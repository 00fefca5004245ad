"""Workloads, timed passes and output checks of the siamp benchmark.

A workload is a preset plus a trial budget.  The seed given on the command
line becomes the spec's ``rng_seed``; siamp receives only the spec built
from it.  A pass is what a user waits for:

- experiment workloads: ``run_experiment`` then ``emit_csv``, which is
  what ``siamp simulate`` does;
- AMP workloads: ``amp.run_trial`` under both variants on the first
  trials of the seed, plus the per-iteration trace CSV, which is what
  ``siamp amp-trace`` does for one trial.

Every pass is followed, outside its timed region, by a check of its
outputs.  Passes of one run repeat the same input, so their outputs must
also be byte-identical.
"""

import contextlib
import csv
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

import tracing
from siamp import amp, experiment

TARGET_P_FA = 1e-2
# A5's tolerance between the SE fixed point and the empirical tau_final^2
SE_REL_TOL = 0.05
# reference match at a recorded seed: pooled P_MD is a ratio of integer
# counts, so only a changed algorithm moves it by more than a few devices;
# NMSE is a mean over trials with heavy-tailed gains
PMD_ABS_TOL = 0.01
NMSE_REL_TOL = 0.05
SETUP_REPEATS = 5

_HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(_HERE, "reference.json")


@dataclass(frozen=True)
class Workload:
    options: dict  # spec options besides the seed
    run_pass: object  # (spec, out_dir) -> pass output dict
    quality: object  # (spec, pass output, failures) -> quality dict
    trials_per_pass: object  # spec -> trials one pass attempts


# -- experiment workloads ---------------------------------------------------

def _experiment_pass(spec, out_dir):
    result = experiment.run_experiment(spec)
    paths = experiment.emit_csv(result, out_dir)
    return {"paths": paths, "failed_trials": len(result.failures)}


def _experiment_quality(spec, out, failures):
    tables = {name: _read_csv(path, failures)
              for name, path in out["paths"].items() if path.endswith(".csv")}
    last = spec.scenario.num_blocks
    quality = {}
    for variant in spec.variants:
        rows = [r for r in tables["roc"]
                if int(r["slot_j"]) == last and r["variant"] == variant]
        quality[f"pmd_{variant}"] = _pmd_at(
            np.array([float(r["P_FA"]) for r in rows]),
            np.array([float(r["P_MD"]) for r in rows]), failures)
    nmse_row = next(r for r in tables["nmse"]
                    if int(r["slot_j"]) == last and r["variant"] == "si")
    quality["nmse_si"] = float(nmse_row["nmse"])
    se_rows = [r for r in tables["se_trace"]
               if int(r["slot_j"]) == last and r["variant"] == "si"]
    fixed_point = float(max(se_rows, key=lambda r: int(r["step"]))["tau_sq"])
    empirical = float(nmse_row["tau_final"]) ** 2
    quality["se_tau_sq_si"] = fixed_point
    quality["empirical_tau_sq_si"] = empirical
    rel = abs(empirical - fixed_point) / fixed_point
    if not rel <= SE_REL_TOL:
        failures.append(f"si slot {last}: SE fixed point {fixed_point:.6g} vs "
                        f"empirical tau_final^2 {empirical:.6g}, rel {rel:.3f} "
                        f"> {SE_REL_TOL}")
    return quality


# -- AMP workloads ----------------------------------------------------------

def _amp_pass(spec, out_dir):
    """``amp.run_trial`` under every variant on trials 0..num_trials-1 of
    the seed, writing the per-iteration trace of each block."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "amp_trace.csv")
    # per variant: (detections, last-slot NMSE) of each trial; the rest of
    # a trial is dropped once its trace is written
    kept = {v: [] for v in spec.variants}
    with open(path, "w", newline="") as fh:
        fh.write("trial,variant,block,iter,tau,residual_fro,delta_X\n")
        for k in range(spec.num_trials):
            config = replace(spec.scenario, rng_seed=experiment.trial_seed(
                spec.scenario.rng_seed, k))
            for variant in spec.variants:
                trial = amp.run_trial(config, variant=variant)
                for j, block in enumerate(trial.blocks):
                    for t in range(len(block.delta_x_trace)):
                        values = (block.tau_trace[t + 1],
                                  block.residual_fro_trace[t],
                                  block.delta_x_trace[t])
                        fh.write(f"{k},{variant},{j + 1},{t + 1},"
                                 + ",".join(f"{v:.17g}" for v in values) + "\n")
                kept[variant].append((trial.detections,
                                      float(trial.reports[-1].metrics.nmse)))
    return {"paths": {"amp_trace": path}, "failed_trials": 0, "trials": kept}


def _amp_quality(spec, out, failures):
    _read_csv(out["paths"]["amp_trace"], failures)
    quality = {}
    for variant, trials in out["trials"].items():
        # a trial's last slot alone has too few active devices for the
        # si/nosi order to be more than chance; pool the device-blocks of
        # every slot after the first (where the variants differ) over all
        # trials instead, sweeping the LLR over the experiment's threshold
        # grid
        fa = md = inactive = active = 0
        for detections, _ in trials:
            for det in detections[1:] or detections:
                act = np.asarray(det.activity, dtype=bool)
                above = det.llr[None, :] > spec.l_grid[:, None]
                fa = fa + above[:, ~act].sum(axis=1)
                md = md + (~above[:, act]).sum(axis=1)
                inactive += int((~act).sum())
                active += int(act.sum())
        quality[f"pmd_{variant}"] = _pmd_at(fa / inactive, md / active, failures)
    quality["nmse_si"] = float(np.mean([nmse for _, nmse in out["trials"]["si"]]))
    return quality


WORKLOADS = {
    # acceptance-gate scale, full pipeline; S (2.4 MB) is about the size of
    # L2, so AMP is bound by per-call overhead, and a pass splits between
    # trials and the serial SE chain, whose length varies with the seed
    "fig3-desk": Workload(
        options={"preset": "fig3-desk", "num_trials": 200},
        run_pass=_experiment_pass, quality=_experiment_quality,
        trials_per_pass=lambda spec: spec.num_trials),
    # the same scenario, AMP only: SE and the experiment layer do not run.
    # 32 trials average out the seed's AMP iteration count (its spread
    # across seeds is 9% at 8 trials, 2% at 32)
    "fig3-desk-amp": Workload(
        options={"preset": "fig3-desk", "num_trials": 32},
        run_pass=_amp_pass, quality=_amp_quality,
        trials_per_pass=lambda spec: spec.num_trials),
    # paper scale, AMP only: S is 38.4 MB and the matched filter is a
    # memory-bound GEMV.  Not listed in BENCHMARK.json: on a shared host
    # the memory bandwidth it gets drifts by up to 2x within minutes, which
    # spread its wall time by 15-40% across seeds
    "paper-fig3-amp": Workload(
        options={"preset": "paper-fig3", "num_trials": 1},
        run_pass=_amp_pass, quality=_amp_quality,
        trials_per_pass=lambda spec: spec.num_trials),
    # M=2 on the spawn process-pool path with as many workers as cores;
    # SE still runs serially in the parent.  Not listed in BENCHMARK.json:
    # its serial SE chain, whose length is a coin flip per trace, spreads
    # its wall time by 25% across seeds, beyond any allowed bound
    "fig4-desk-par2": Workload(
        options={"preset": "fig4-desk", "num_trials": 40, "parallelism": 2},
        run_pass=_experiment_pass, quality=_experiment_quality,
        trials_per_pass=lambda spec: spec.num_trials),
}


# -- checks -----------------------------------------------------------------

def _read_csv(path, failures):
    """Rows of an emitted CSV; every field but the variant must be finite."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        failures.append(f"{os.path.basename(path)}: no rows")
    for i, row in enumerate(rows):
        for key, value in row.items():
            if key == "variant":
                continue
            try:
                finite = np.isfinite(float(value))
            except (TypeError, ValueError):
                finite = False
            if not finite:
                failures.append(f"{os.path.basename(path)} row {i + 1}: "
                                f"{key}={value!r} is not a finite number")
                return rows
    return rows


def _pmd_at(p_fa, p_md, failures):
    """P_MD at TARGET_P_FA, linear between the bracketing sweep points."""
    order = np.argsort(p_fa, kind="stable")
    p_fa, p_md = p_fa[order], p_md[order]
    if not p_fa[0] <= TARGET_P_FA <= p_fa[-1]:
        failures.append(f"P_FA={TARGET_P_FA} outside swept range "
                        f"[{p_fa[0]:.3g}, {p_fa[-1]:.3g}]")
    return float(np.interp(TARGET_P_FA, p_fa, p_md))


def _compare_reference(quality, reference, failures):
    for key in ("pmd_si", "pmd_nosi"):
        if abs(quality[key] - reference[key]) > PMD_ABS_TOL:
            failures.append(f"{key}={quality[key]:.6g} differs from reference "
                            f"{reference[key]:.6g} by more than {PMD_ABS_TOL}")
    rel = abs(quality["nmse_si"] - reference["nmse_si"]) / reference["nmse_si"]
    if rel > NMSE_REL_TOL:
        failures.append(f"nmse_si={quality['nmse_si']:.6g} differs from reference "
                        f"{reference['nmse_si']:.6g} by {rel:.3f} relative")


def load_reference(name, seed):
    if not os.path.isfile(REFERENCE_PATH):
        return None
    with open(REFERENCE_PATH) as fh:
        return json.load(fh).get(name, {}).get(str(seed))


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# -- one pass ---------------------------------------------------------------

@dataclass
class PassRecord:
    wall_s: float
    attempted: int
    failed: int
    failures: list
    quality: dict | None
    sha256: dict


def run_one_pass(workload, spec, out_dir, reference, tracer=None):
    """Time one pass (traced when a tracer is given), then check it."""
    attempted = workload.trials_per_pass(spec)
    hooks = tracer.installed() if tracer else contextlib.nullcontext()
    root = tracer.span("pass") if tracer else contextlib.nullcontext()
    with hooks:
        start = time.perf_counter()
        try:
            with root:
                out = workload.run_pass(spec, out_dir)
        except Exception as exc:  # noqa: BLE001 - a failed pass is a result
            wall = time.perf_counter() - start
            return PassRecord(wall, attempted, attempted, [repr(exc)], None, {})
        wall = time.perf_counter() - start
    failures = []
    try:
        quality = workload.quality(spec, out, failures)
    except (KeyError, StopIteration, ValueError, OSError) as exc:
        failures.append(f"output check could not run: {exc!r}")
        quality = None
    if quality is not None:
        if not quality["pmd_si"] <= quality["pmd_nosi"]:
            failures.append(f"pmd_si={quality['pmd_si']:.6g} > "
                            f"pmd_nosi={quality['pmd_nosi']:.6g}")
        if reference is not None:
            _compare_reference(quality, reference, failures)
    sha = {name: _sha256(path) for name, path in sorted(out["paths"].items())
           if path.endswith(".csv")}
    failed = min(attempted, out["failed_trials"] + (1 if failures else 0))
    return PassRecord(wall, attempted, failed, failures, quality, sha)


# -- a whole run ------------------------------------------------------------

def spec_options(name, seed, overrides=None):
    return {**WORKLOADS[name].options, "rng_seed": seed, **(overrides or {})}


def setup_seconds(options, src_dir):
    """Wall time of a fresh interpreter that imports the CLI and builds the
    workload's spec."""
    code = ("import json, sys\n"
            "import siamp.cli\n"
            "from siamp.experiment import spec_from_options\n"
            "spec_from_options(json.loads(sys.argv[1]))\n")
    path = [src_dir] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    # no timeout: waiting with one polls the child at 50 ms steps
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, json.dumps(options)], env=env,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def _peak_rss_mb(parallelism):
    # parent peak, plus every pool worker at the largest child's peak
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (parallelism * child if parallelism > 1 else 0)) / 1024.0


def _high_percentile(values):
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None when there are too few samples."""
    n = len(values)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def _median_layer_metrics(per_pass):
    out = {}
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        out[key] = None if None in values else statistics.median(values)
    return out


def measure(name, seed, seconds, trace, out_dir, src_dir, overrides=None):
    """Run one workload for about `seconds` and return the result record.

    Untraced runs report the end-to-end metrics.  Traced runs time one
    untraced pass, then traced passes, and report per-layer metrics as
    medians over the traced passes.
    """
    workload = WORKLOADS[name]
    options = spec_options(name, seed, overrides)
    spec = experiment.spec_from_options(dict(options))
    reference = None if overrides else load_reference(name, seed)
    setup = [] if trace else [setup_seconds(options, src_dir)
                              for _ in range(SETUP_REPEATS)]

    records, traced, tracers = [], [], []
    start = time.perf_counter()
    while True:
        tracer = tracing.Tracer() if trace and records else None
        record = run_one_pass(workload, spec, out_dir, reference, tracer)
        records.append(record)
        if tracer is not None:
            traced.append(record)
            tracers.append(tracer)
        longest = max(r.wall_s for r in records)
        if (time.perf_counter() - start + longest > seconds
                and (traced or not trace)):
            break

    failures = [f for r in records for f in r.failures]
    digests = {json.dumps(r.sha256, sort_keys=True) for r in records if r.quality}
    if len(digests) > 1:
        failures.append("output CSV bytes differ between passes of one input")
    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records) + (1 if len(digests) > 1 else 0)
    quality = next((r.quality for r in records if r.quality), None)
    untraced_walls = [r.wall_s for r in records[:len(records) - len(traced)]]

    if trace:
        metrics = _median_layer_metrics(
            [tracing.layer_metrics(t) for t in tracers])
        traced_wall = statistics.median(r.wall_s for r in traced)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - statistics.median(untraced_walls)
        metrics["trace.harness_s"] = statistics.median(
            t.self_times()[1]["pass"] for t in tracers)
        _write_spans(tracers, os.path.join(out_dir, "spans.jsonl"))
    else:
        metrics = {
            "wall_s": statistics.median(untraced_walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": _peak_rss_mb(spec.parallelism),
        }
        for key in ("pmd_si", "pmd_nosi"):
            metrics[key] = quality[key] if quality else None

    info = {
        "workload": name, "seed": seed, "passes": len(records),
        "traced_passes": len(traced),
        "pass_wall_s": [r.wall_s for r in records],
        "wall_s_high_percentile": _high_percentile(untraced_walls),
        "setup_runs_s": setup,
        "failed_ratio": failed / attempted,
        "failures": failures[:20],
        "quality": quality,
        "reference": reference,
        "csv_sha256": records[-1].sha256,
    }
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": metrics, "info": info}


def _write_spans(tracers, path):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        for index, tracer in enumerate(tracers):
            for span in tracer.spans:
                fh.write(json.dumps({"pass": index, **span}) + "\n")
