"""Exact computation in finite semi-abelian varieties.

Finite groups, rings, modules and internal groupoids with full
operation tables; torsion-theoretic reflectors; radical/coradical
factorisations; higher extensions as cubes; subvariety radicals and
exact homology in low degrees.  Everything is computed by enumeration
and certified, never approximated.
"""

from .algebra import (
    Algebra,
    AlgebraError,
    Morphism,
    Subobject,
    Variety,
    closure_under_ops,
    compose,
    full_subobject,
    generating_set,
    group_algebra,
    gpd_algebra,
    identity_morphism,
    is_injective,
    is_isomorphism_map,
    is_normal_subset,
    is_surjective,
    module_algebra,
    morphism,
    ring_algebra,
    sub_algebra,
    subobject,
    zero_morphism,
    zero_subobject,
)
from .birkhoff import (
    BirkhoffContext,
    Presentation,
    birkhoff_radical,
    build_presentation,
    centralize,
    composite_radical,
    hopf_homology,
    is_birkhoff_normal,
    object_cube,
    radical_n,
)
from .corpus import CORPUS_DIR_VAR, corpus_by_id, corpus_ids, named_algebra
from .cubes import (
    NCube,
    cube_between,
    cube_of_morphism,
    is_nfold_extension,
    is_pullback_square,
    is_pushout_square,
    rib_kernel_meet,
    square,
)
from .factorisation import (
    EMFactorisation,
    check_orthogonal,
    classify_em,
    condition_N_check,
    cube_torsion_meet,
    double_normal_by_galois,
    em_factorize,
    is_nfold_normal,
    is_normal_extension,
    is_trivial_extension,
    nfold_factorize,
    nfold_normal_by_criterion,
    torsion_of_kernel,
)
from .families import (
    cyclic_group,
    dihedral_group,
    gpd_discrete,
    gpd_indiscrete,
    gpd_one_object,
    quaternion_8,
    split_witness_ring,
    symmetric_3,
    trivial_of_variety,
    zero_multiplication_ring,
    zmod_cyclic,
    zmod_free,
    zring,
)
from .homs import enumerate_homs, sections, surjections
from .ops import (
    ExactSequence,
    direct_product,
    huq_commutator,
    image,
    induced_on_quotient,
    into_pullback,
    join_normal,
    kernel,
    kernel_pair,
    meet_subobjects,
    normal_closure,
    power_subobject,
    preimage_subobject,
    pullback,
    quotient,
)
from .reflectors import (
    Reflector,
    ReflectorError,
    is_free_member,
    is_torsion_member,
    known_protoadditive_on,
    map_reflect,
    radical,
    radical_algebra,
    reflect,
    reflector_by_id,
    short_exact_sequences,
    split_exact_sequences,
)
from .report import Report, merge_reports
from .serialize import (
    FormatError,
    algebra_from_doc,
    algebra_to_doc,
    corpus_from_doc,
    corpus_to_doc,
    cube_from_doc,
    cube_to_doc,
    morphism_from_doc,
    morphism_to_doc,
    subobject_to_doc,
    variety_from_doc,
    variety_to_doc,
)
from .verification import (
    SuiteCompatibilityError,
    SuiteError,
    protoadditive_by_definition,
    replay_witness,
    verify_all,
    verify_suite,
)

__version__ = "0.1.0"
