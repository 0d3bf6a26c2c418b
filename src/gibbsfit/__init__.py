"""gibbsfit: Gibbs-manifold state estimation and level-of-description
selection for small classical and quantum systems.

The pipeline in one breath: choose a reference state and a set of
observables (a level of description), project measured sample means onto
the matching manifold of generalized Gibbs states, weigh the projection
against the prior with the evidence procedure, and decide between
competing levels with a chi-square-per-parameter rule anchored at ln N.
"""

from .errors import (
    DataFormatError,
    EvidenceNotApplicableError,
    GibbsFitError,
    InfeasibleTargetError,
    NotConvergedError,
    ValidationError,
)
from .gibbs import (
    BlochVector,
    GibbsModel,
    bloch_metric,
    gibbs_state,
    model_to_bloch,
    pauli_level,
    project,
    project_state,
    thermodynamic_entropy,
    volume_weight,
)
from .inference import (
    AlphaEstimate,
    ComparisonReport,
    EntropicPrior,
    ExperimentData,
    PosteriorEstimate,
    SignificanceReport,
    chi2_log_tail,
    chi2_logpdf,
    compare_levels,
    estimate_alpha,
    interpolate_states,
    level_significance,
    posterior_estimate,
    significance,
    verdict_from_rate,
)
from .levels import (
    LevelOfDescription,
    complement,
    full_classical_level,
    intersection,
    is_sublevel,
    make_level,
    trivial_level,
)
from .state_space import (
    DensityOperator,
    HermitianOperator,
    expectation,
    pauli_x,
    pauli_y,
    pauli_z,
    relative_entropy,
    uniform_state,
    von_neumann_entropy,
)

__version__ = "0.1.0"
