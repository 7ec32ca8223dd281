"""matsec: weighted matroids and continuous-arrival secretary simulation.

The library splits into matroid structure (matroid), ready-made instance
families (instances), online acceptance policies (policies), the arrival
harness (simulate), and oracles plus estimators (analysis). The command
line front end lives in cli.
"""

from .analysis import (EstimateReport, ForbiddenSetOracle, ImpossibilityCertificate,
                       OracleError, SuiteResult, alpha_p, brute_force_mwb,
                       certify_no_size1_strong_fs, check_claw_blocker,
                       check_first_live_accepted, check_forbidden_consistency,
                       check_matroid_axioms, check_modified_hat_trap, estimate,
                       estimate_grid, hat_forbidden_oracle, modified_hat_bounds,
                       reference_bound, run_suite, three_sigma, SUITE_NAMES)
from .instances import (InstanceBundle, double_triangle, fuzz_corpus, hat_graph,
                        modified_hat_graph, random_graphic, triangle,
                        uniform_instance)
from .matroid import (DomainError, GraphicMatroid, MatroidView, PreconditionError,
                      UniformMatroid, WeightedGroundSet, dump_instance,
                      parse_instance)
from .policies import (Decision, Policy, PolicyViolation, POLICY_NAMES, build_policy,
                       running_mwb)
from .simulate import (ArrivalSchedule, DecisionRecord, DecisionTrace,
                       HarnessViolation, draw_schedule, dump_schedule, dump_trace,
                       forced_schedule, load_records, parse_schedule, run_trial,
                       trace_from_records, trace_records, trial_rng, trial_stream)

__version__ = "0.1.0"

__all__ = [
    "ArrivalSchedule", "Decision", "DecisionRecord", "DecisionTrace",
    "DomainError", "EstimateReport", "ForbiddenSetOracle", "GraphicMatroid",
    "HarnessViolation", "ImpossibilityCertificate", "InstanceBundle",
    "MatroidView", "OracleError", "POLICY_NAMES", "Policy",
    "PolicyViolation", "PreconditionError", "SUITE_NAMES", "SuiteResult",
    "UniformMatroid", "WeightedGroundSet", "alpha_p", "brute_force_mwb",
    "build_policy", "certify_no_size1_strong_fs", "check_claw_blocker",
    "check_first_live_accepted", "check_forbidden_consistency",
    "check_matroid_axioms", "check_modified_hat_trap", "double_triangle",
    "draw_schedule", "dump_instance", "dump_schedule", "dump_trace", "estimate",
    "estimate_grid", "forced_schedule", "fuzz_corpus", "hat_forbidden_oracle",
    "hat_graph", "load_records", "modified_hat_bounds", "modified_hat_graph",
    "parse_instance", "parse_schedule", "random_graphic", "reference_bound", "run_suite",
    "run_trial", "running_mwb", "three_sigma", "trace_from_records", "trace_records",
    "trial_rng", "trial_stream", "triangle", "uniform_instance",
]
