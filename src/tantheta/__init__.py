"""Spectral subspace rotations of symmetric block operator matrices under
off-diagonal perturbation, with a priori tan-theta bounds verified against
exact eigendecomposition ground truth."""

from .bounds import (
    BoundEvaluation,
    apriori_bound,
    kappa,
    m1,
    m2,
    m_total,
    phi_maximizer,
    r_v,
    sin_arctan,
)
from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    DispositionViolated,
    DomainError,
    EigenvalueOnBoundary,
    GapEmptyOrRankMismatch,
    GraphExtractionFailed,
    NoConvergence,
    NotAProjector,
    ResidualTooLarge,
    TanThetaError,
)
from .families import (
    rank_one_build,
    rank_one_inner_expected,
    rank_one_outer_params,
    circulant_build,
    circulant_case_params,
    circulant_kappa_matrix,
    circulant_kappas,
)
from .harness import (
    FailureRecord,
    GenConfig,
    SweepSummary,
    TrialReport,
    Verification,
    generate_instance,
    run_sweep,
    run_trial,
    write_reports,
    splitmix64,
    trial_seed,
)
from .model import (
    BlockOperator,
    EigenSystem,
    Region,
    SpectralDisposition,
    SymMatrix,
    block_operator_from_dict,
    block_operator_to_dict,
    classify_region,
    load_instance,
    make_block_operator,
    save_instance,
)
from .riccati import (
    AngularOperator,
    IdentityResiduals,
    extract_angular_operator,
    lambda0,
    riccati_residual,
    solve_riccati_fixed_point,
    verify_lemma_identities,
)
from .spectral import (
    SpectrumPartition,
    find_disposition,
    perturbed_partition,
    projection_distance,
    unperturbed_projector,
)

__version__ = "0.1.0"
