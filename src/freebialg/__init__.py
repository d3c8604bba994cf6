"""Exact symbolic computation in the graded bialgebra of free-group
algebras: reduced words, rank-splitting homomorphisms, the direct-sum
comultiplication, coset permutation representations, and claim probes."""

from .scalars import QI
from .words import (
    INFINITE,
    Rank,
    ReducedWord,
    Syllable,
    ball_size,
    cancellation_witness_left,
    cancellation_witness_right,
    cyclicity_witness,
    enumerate_ball,
    gen,
    inverse,
    kernel_witness,
    lift_first,
    lift_second,
    multiply,
    phi,
    phi_inf,
    reduce,
    unit,
)
from .algebra import (
    AlgebraElement,
    TensorElement,
    TripleTensorElement,
    apply_tensor_right,
    standard_delta,
    standard_delta_compat_check,
    tensor,
    varphi_alg,
    varphi_inf_alg,
)
from .bialgebra import (
    DirectSumElement,
    DirectSumTensor,
    DirectSumTriple,
    UnitizedElement,
    coaction,
    coassoc_check,
    comodule_check,
    counit,
    counit_axiom_check,
    counit_check,
    delta_phi,
    factor_pairs,
    unitized_counit,
    unitized_delta,
    verify_cancellation,
    wcs_check,
)
from .reps import (
    Coset,
    CosetBasis,
    CosetPairBasis,
    GroupBasis,
    PDFunction,
    PairGroupBasis,
    SuppVector,
    L_action,
    U_apply,
    U_map,
    claim_probe_pd,
    coset_normal_form,
    cyclicity_check,
    f_eval,
    f_pullback_eval,
    fixed_vector_dim,
    gns_coeff_check,
    gram_psd,
    intertwine_check,
    lambda_action,
    orbit_bfs,
    tensor_rep_action,
)
from .morphisms import (
    GradedEndo,
    alpha,
    alpha_endo,
    beta,
    beta_endo,
    bialgebra_morphism_check,
    group_law_checks,
    identity_endo,
)
from .text import ParseError, parse_element, parse_rank, parse_word

__version__ = "0.1.0"
