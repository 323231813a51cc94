"""Sparsity thresholds, sub-dictionary conditioning, and l1 recovery experiments.

The package splits into small focused modules:

  dictionary     partitioned dictionaries, coherence and spectral statistics
  model          the hybrid-support draws: one instance, or a block's supports
  threshold      closed-form terms, sparsity conditions and the budget search
  concentration  the batched hollow Gram chain, sigma_min and moment runs
  recovery       basis pursuit, a brute-force l0 oracle, success-rate sweeps
  svg            deterministic plot emitters
  cli            the ``sparsethresh`` command-line driver
"""

from .dictionary import (
    DictionaryFormatError,
    DictionaryStats,
    PartitionedDictionary,
    analyze,
    build_mub,
    build_random_dictionary,
    build_two_onb,
    load_dictionary,
    save_dictionary,
    welch_bound,
)
from .model import (
    SUPPORT_A_STRATEGIES,
    choose_support_a,
    draw_instances,
    draw_supports,
    sample_instance,
    sample_support_b,
)
from .threshold import (
    GAMMA_GRID_DEFAULT,
    SPARSITY_CONSTANT,
    ConditionCheck,
    ConditionReport,
    ScalingReport,
    SparsitySearchResult,
    TheoremParams,
    classical_threshold,
    default_u,
    evaluate_conditions,
    max_sparsity_search,
    scaling_report,
)
from .concentration import (
    HollowGramRecord,
    MomentEstimate,
    SminExperimentResult,
    chain_batch,
    estimate_moment,
    run_smin_trials,
)
from .recovery import (
    BpSolverConfig,
    BruteForceResult,
    PhaseTransitionGrid,
    RecoveryOutcome,
    brute_force_l0,
    run_recovery_sweep,
    solve_bp,
    solve_bp_batch,
)
from .rng import derive_rng

__version__ = "0.1.0"
