"""measure-lab: push-forward measures of Parry measures on sofic shifts
under Pisot digit maps.

Construct the maximal-entropy measure of a labelled automaton, push it to
the reals through (x_k) -> sum x_k beta^-k for a Pisot number beta, then
classify the result as purely atomic or continuous, compute exact atom
values and masses, evaluate the Fourier transform through truncated
infinite matrix products, and scan the limit coefficients along
beta-power sequences for singularity evidence.
"""

from .algebraic import (
    BetaInt,
    FracPart,
    PisotNumber,
    QBeta,
    bint_add,
    bint_embed,
    bint_from_int,
    bint_mul,
    bint_neg,
    bint_pow,
    bint_sub,
    frac_beta_power,
    frac_beta_powers,
    frac_beta_powers_float,
    frac_inverse_beta_powers,
    make_pisot,
    qbeta_div,
    qbeta_embed,
    qbeta_nearest_floats,
)
from .automaton import (
    LabeledAutomaton,
    TransitionMatrices,
    ambiguous_word_count,
    automaton_to_json,
    count_words,
    enumerate_paths,
    parse_automaton,
    primitivity_check,
    serialize_automaton,
    transition_matrices,
)
from .classify import Atom, FiniteImageResult, Verdict, atoms, classify, finite_image_test, verdict_to_dict
from .distribution import (
    CloudEntry,
    DepthCloud,
    cdf_bounds,
    cdf_bracket,
    depth_cloud,
    value_bounds,
)
from .errors import (
    CapExceeded,
    DeadState,
    DuplicateEdge,
    EmptyInitialSet,
    LabelOutsideAlphabet,
    MeasureLabError,
    NotMonic,
    NotPisot,
    NotPrimitive,
    NotStronglyConnected,
    PrecisionExhausted,
    Reducible,
    SchemaError,
    UnknownState,
    ValidationError,
)
from .fourier import (
    PsiValue,
    ScanEntry,
    ScanResult,
    WeightMatrixCache,
    build_weight_cache,
    nu_hat,
    nu_hat_grid,
    nu_hat_initial,
    psi_hat,
    rajchman_scan,
)
from .parry import (
    PerronData,
    cylinder_measure,
    cylinder_measure_initial,
    perron,
    sample_many,
    start_distribution,
)
from .zero_automaton import (
    beta_int_from_name,
    build_zero_automaton,
    state_within_bounds,
    verify_zero_language,
    zero_state_name,
)

__version__ = "0.1.0"
