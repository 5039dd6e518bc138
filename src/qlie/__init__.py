"""Exact-arithmetic toolkit for quasi-Lie bialgebras and friends.

The package computes with Lie algebras given by structure constants over
exact scalar fields (rationals or multivariate rational functions):
Chevalley-Eilenberg cohomology, quasi-Lie bialgebra axioms and twists,
Maurer-Cartan residuals and gauge paths on weight-graded dg Lie
algebras, classical and dynamical r-matrices, and Manin pairs, triples
and Drinfeld doubles.  All sign and normalization choices are recorded
in the convention ledger and stamped into CLI reports.
"""

from .errors import InputError, PreconditionError, QlieError, WindowOverflowError
from .lie import (
    ADJOINT,
    CECochain,
    LieAlgebra,
    SYM,
    SplitSubalgebra,
    TRIVIAL,
    WEDGE,
    abelian,
    casimir_from_pairing,
    ce_differential,
    check_lie,
    cohomology_dim,
    direct_sum,
    heisenberg,
    invariants,
    sl2,
    sl3,
    split_subalgebra,
    trace_pairing,
)
from .manin import (
    ManinPair,
    ManinTriple,
    QuadraticLieAlgebra,
    check_quadratic,
    drinfeld_double,
    dual_subalgebra_bplus_bminus,
    manin_pair_check,
    manin_triple_check,
    triple_to_bialgebra,
)
from .mc import GaugePath, MCElement, WeightGradedDGLA, gauge_verify, mc_residual, pol_bg
from .polyvectors import PolyVectorAlgebra, schouten
from .qlb import (
    BigBracketElement,
    QuasiLieBialgebra,
    Twist,
    big_bracket,
    casimir_to_phi,
    check_qlb,
    coisotropic_casimir_check,
    induce_from_coisotropic,
    twist,
    verify_coisotropic_morphism,
)
from .rmatrix import (
    DynamicalRMatrix,
    RMatrix,
    alt_ddr,
    cybe,
    d_dr,
    dynamical_check,
    quasitriangular_check,
    split_r,
)
from .scalars import Polynomial, RationalFunction, parse_scalar
from .tensors import (
    LEDGER,
    ConventionLedger,
    Multivector,
    SparseTensor,
    contract,
    embed_wedge,
    tensor_product,
    wedge,
)

__version__ = "0.1.0"
