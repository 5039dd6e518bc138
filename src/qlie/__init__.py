"""Exact-arithmetic toolkit for quasi-Lie bialgebras and friends.

The package computes with Lie algebras given by structure constants over
exact scalar fields (rationals or multivariate rational functions):
Chevalley-Eilenberg cohomology, quasi-Lie bialgebra axioms and twists,
the Maurer-Cartan residual d x + 1/2 [x, x] in the polyvector algebra
Pol(BG, n), classical and dynamical r-matrices, and Manin pairs, triples
and Drinfeld doubles.  All sign and normalization choices are recorded
in the convention ledger and stamped into CLI reports.
"""

from .errors import InputError, QlieError
from .lie import (
    LieAlgebra,
    SplitSubalgebra,
    abelian,
    casimir_from_pairing,
    direct_sum,
    heisenberg,
    sl,
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
from .mc import mc_residual
from .polyvectors import PolyVectorAlgebra, ce_differential, check_lie, cohomology_dim, invariants
from .qlb import (
    QuasiLieBialgebra,
    Twist,
    casimir_to_phi,
    check_qlb,
    coisotropic_casimir_check,
    induce_from_coisotropic,
    twist,
    verify_coisotropic_morphism,
)
from .rmatrix import DynamicalRMatrix, cybe, dynamical_check
from .scalars import Polynomial, RationalFunction, parse_scalar
from .tensors import (
    ADJOINT,
    LEDGER,
    SYM,
    TENSOR,
    TRIVIAL,
    WEDGE,
    CECochain,
    ConventionLedger,
    embed_wedge,
)

__version__ = "0.1.0"
