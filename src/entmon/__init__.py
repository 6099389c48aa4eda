"""Entanglement measures, stochastic LOCC, and strict-monotonicity checks."""

from .channels import (
    ChannelClass,
    LocalKrausChannel,
    OutcomeEnsemble,
    apply_channel,
    apply_channel_to_pure,
    classify,
    random_channel,
    unitary_mixture_channel,
)
from .measures import (
    CONCURRENCE,
    ENTROPY,
    G_CONCURRENCE,
    HFunction,
    MeasureValue,
    NEGATIVITY_H,
    TANGLE,
    h_eval,
    log_negativity,
    negativity,
    pure_measure,
    renyi,
    tsallis,
    wootters_concurrence,
    wootters_eof,
)
from .ree import ReeResult, ree_data_processing_check, ree_minimize
from .registry import evaluate_measure
from .roof import Decomposition, RoofResult, decomposition_from_isometry, roof_minimize
from .sampling import (
    haar_unitary,
    random_mixed,
    random_mixed_stack,
    random_product_pure,
    random_product_pure_stack,
    random_pure,
    random_pure_stack,
    random_separable,
)
from .serialize import load_channel, load_state, save_channel, save_state
from .states import (
    DensityMatrix,
    Dims,
    PureState,
    SchmidtForm,
    bell_state,
    max_entangled,
    partial_trace,
    partial_transpose,
    product_pure,
    projector_stack,
    relative_entropy,
    schmidt_decompose,
    trace_norm,
    von_neumann_entropy,
    werner_state,
)
from .verify import (
    SweepConfig,
    VerificationReport,
    check_logneg_nonconvexity,
    check_monogamy_product,
    check_monotone,
    check_negativity_decomposition,
    check_reduced_state_condition,
    check_strict,
    check_strict_concavity,
    run_sweep,
    summarize,
    write_reports_jsonl,
    write_summary_csv,
)

__version__ = "0.1.0"
