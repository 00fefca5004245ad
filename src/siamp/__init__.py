"""Side-information-aided MMV-AMP for grant-free activity detection.

Joint device-activity detection and channel estimation across coherence
blocks with Markov-correlated activity: scenario generation, the SI-aided
iterative estimator, its state evolution, likelihood-ratio detection, and
a Monte Carlo experiment harness.
"""

__version__ = "0.1.0"

from .amp import (AmpBlockResult, AmpState, TrialResult, amp_iterate,
                  pseudo_observations, run_block, run_blocks, run_trial,
                  run_trial_variants)
from .denoiser import (DenoiserParams, SideInfo, case_log_likelihoods,
                       denoise_rows, draw_case_pair, log_odds_terms,
                       oracle_posterior_mean, si_log_odds)
from .detector import (BlockDetection, DetectionMetrics, DetectionReport,
                       RocCurve, aggregate_slot_counts, block_detection,
                       compute_metrics, detect_block, llr_appendix_oracle,
                       sweep_block_counts)
from .errors import (DimensionMismatch, InvalidConfig, NonFiniteState,
                     ParseError, SiAmpError, ValidationError)
from .experiment import (AggregateResult, ExperimentSpec, annulus_gains,
                         default_l_grid, emit_csv, parse_config,
                         run_experiment, spec_from_options, write_tables)
from .model import (BlockTruth, ScenarioConfig, ScenarioRealization,
                    beta_from, draw_pilot_matrix, generate_scenario,
                    path_loss_linear, sample_activity_trace,
                    synthesize_block, trace_table)
from .state_evolution import (SeParams, SeTrace, draw_samples, se_fixed_point,
                              se_step)
from .streams import seed_sequence, substream
