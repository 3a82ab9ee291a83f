"""boxlab: replica box norms, cut norms, and pseudorandomness certificates
for weighted uniform hypergraphs over finite discrete probability spaces.

The package computes the norms exactly (recursive peeling with a direct
enumeration oracle), certifies the generalized-counting inequalities on
concrete instances, and runs Definition-style pseudorandomness checks with
three-valued verdicts (true / false / unknown) so heuristic searches are
never mistaken for proofs.
"""

__version__ = "0.1.0"

from .errors import (
    BadSpec,
    BoxlabError,
    DigitOutOfRange,
    EmptyHypergraph,
    EmptySpace,
    MalformedProblem,
    NonPositiveWeight,
    NotDoubleton,
    NotTwoUniform,
    NumericalInconsistency,
    OddEll,
    PairCapExceeded,
    POutOfRange,
    ShapeMismatch,
    SizeCapExceeded,
    SubsetCapExceeded,
    WorkerFailure,
    WrongHypergraph,
)
from .spaces import (
    EdgeFunction,
    Exponent,
    Grid,
    HypergraphSystem,
    INF,
    ProbSpace,
    as_edge,
    constant_function,
    edge_function,
    expectation,
    lp_norm,
    make_prob_space,
    make_system,
    max_degree,
)
from .boxnorm import (
    BoundCheck,
    BoxNormResult,
    bilinear_bound_report,
    box_norm,
    box_power_direct,
    gcs_certificate,
    gcs_form,
    lp_box_norm,
)
from .cutnorm import CutNormResult, CutSet, cut_norm, cut_value, faces_of
from .counting import (
    CountingCertificate,
    VonNeumannCertificate,
    counting_lemma_certificate,
    ell_von_neumann,
    lambda_form,
    least_even_at_least,
    von_neumann_certificate,
)
from .pseudo import (
    ConditionReport,
    DeviationReport,
    PseudoCertificate,
    PseudoParams,
    Slot,
    SupProblem,
    SupResult,
    TheoremCertificate,
    bounded_slot_mass_sup,
    centered_family_correlation_sup,
    certify_pseudorandom,
    ell_pseudorandom,
    linear_forms_deviation,
    majorant_gap_correlation_sup,
    shifted_majorant_gap_correlation_sup,
    sup_multilinear,
    sum_family_certificate,
    near_majorant_certificate,
)
from .generators import GenSpec, generate, predicted_product_box_norm
from .instances import (
    digest_text,
    emit_json,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    parse_json,
    save_instance,
)
from .suite import CheckResult, default_suite, exit_code, load_suite_file, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
