"""liesph: exact-arithmetic root systems, (affine) Weyl group commutativity,
Chevalley algebras, and sphericality of nilpotent subspaces."""

__version__ = "0.1.0"

from .affine import (
    AffineRoot,
    AffineRootSet,
    AffineWeylWord,
    affine_apply_simple,
    affine_from_word,
    affine_inversions,
    affine_pairing,
    affine_simple_root,
    element_from_biconvex_affine,
    is_biconvex_affine,
    is_commutative_affine,
    is_fc_affine,
)
from .chevalley import (
    ChevalleyAlgebra,
    NilpotentElement,
    ad_matrix,
    bracket,
    build_chevalley,
    exp_root_action,
    height,
    support,
)
from .errors import BudgetExceeded, LiesphError, MismatchedSystems, WordCapExceeded
from .ideals import (
    enumerate_ideals,
    ideal_from_generators,
    is_abelian,
    psi_hat,
    root_poset_leq,
    verify_theorem2,
    w_of_ideal,
)
from .roots import (
    CartanType,
    PosRootSet,
    Root,
    RootSystem,
    build_root_system,
    pairing,
    rank2_parabolic,
    root_string_p,
    root_sum,
)
from .spherical import (
    classify_nonspherical_orthogonal,
    generic_height,
    is_spherical_subspace,
    orbit_fingerprint,
    strongly_orthogonal,
    verify_lemma_quadruples,
    verify_subspace_theorem,
    verify_theorem1,
)
from .weyl import (
    WeylElement,
    apply_simple,
    braid_order,
    bruhat_leq,
    element_from_biconvex,
    enumerate_weyl,
    from_word,
    identity,
    inverse,
    is_commutative_def,
    is_commutative_inv,
    is_fc_def,
    is_fc_inv,
    longest_element,
    multiply,
    pairing_nonneg,
    reduced_words,
    simple_element,
    weak_leq,
)

__all__ = [name for name in dir() if not name.startswith("_")]
