"""The integer columns of the Chevalley-Eilenberg blocks against the
cochain construction.

`polyvectors._unit_differentials` contracts each unit key against mu_g on
integers and returns its columns scaled by one positive integer s.  The
oracle is the construction it replaced: d of the unit orbit-basis cochain
on each key, built as a `CECochain`, embedded and differentiated in
Fractions.  Checked, for shifts 1 and 2 and CE degrees 0 to 2:

* each new column is s times the old one, entry for entry, with the same
  s for every column;
* over Q every entry of a new column is an int, so no Fraction is formed
  before `rref`;
* `invariants` and `cohomology_dim` give what the old columns give, and
  over Q(x) (sl2 with [e, f] = x h, in its basis and in a general one)
  the invariants print exactly as the old columns make them.
"""

import json
import random
from fractions import Fraction

import pytest

from conftest import FIXTURES, sparse_rows
from qlie import linalg
from qlie.formats import lie_from_dict
from qlie.lie import abelian, direct_sum, heisenberg, sl, sl2, sl3
from qlie.polyvectors import PolyVectorAlgebra, _unit_differentials, cohomology_dim, invariants
from qlie.scalars import scalar_text
from qlie.tensors import ADJOINT, SYM, TRIVIAL, WEDGE, CECochain
from test_ce_reference import sl2_no_diagonal_ad
from test_change_of_basis import columns, rebuilt, sparse_constants, unimodular, unimodular_sl


def sl2x():
    """sl2 with [e, f] = x h over Q(x)."""
    return lie_from_dict(json.loads((FIXTURES / "sl2x.json").read_text()))


def sl2x_rebased():
    """sl2x on the basis of a seeded scaled unimodular T: RationalFunction
    structure constants with no basis element acting diagonally."""
    g = sl2x()
    T, T_inv = unimodular(random.Random(5), g.dim, scaled=True)
    return rebuilt(g, linalg.change_basis(sparse_constants(g), "llu", columns(T), sparse_rows(T_inv), True))


ALGEBRAS = {
    "sl2": sl2,
    "sl3": sl3,
    "sl4": lambda: sl(4),
    "sl3+sl2": lambda: direct_sum(sl3(), sl2()),
    "heisenberg3": lambda: heisenberg(3),
    "heisenberg5": lambda: heisenberg(5),
    "abelian4": lambda: abelian(4),
    "sl2-rotated": sl2_no_diagonal_ad,
    "sl3-unimodular": lambda: unimodular_sl(3),
    "sl2x": sl2x,
    "sl2x-rebased": sl2x_rebased,
}
RATIONAL_FUNCTION = {"sl2x", "sl2x-rebased"}
# each module names its shift: TRIVIAL, ADJOINT and WEDGE(3) sit at shift 1, SYM(2) at shift 2
MODULES = {"trivial": TRIVIAL, "adjoint": ADJOINT, "wedge3": WEDGE(3), "sym2": SYM(2)}
SLICES = {"trivial": (1, 0), "adjoint": (1, 1), "wedge3": (1, 3), "sym2": (2, 2)}


def old_columns(P, module, k, keys):
    """d of the unit orbit-basis cochain on each key, one CECochain each."""
    return [P.d(P.from_cochain(CECochain(P.g, k, module, {key: Fraction(1)}))) for key in keys]


def old_invariants(g, name):
    (shift, w), module = SLICES[name], MODULES[name]
    P = PolyVectorAlgebra(g, shift)
    keys = P.weight_zero_basis(0, w)
    rows = {}
    for j, col in enumerate(old_columns(P, module, 0, keys)):
        for m, c in col.items():
            rows.setdefault(m, {})[j] = c
    return [
        CECochain(g, 0, module, {keys[i]: c for i, c in sorted(vec.items())})
        for vec in linalg.nullspace([rows[m] for m in sorted(rows)], n_cols=len(keys))
    ]


def old_cohomology_dim(g, name, degree):
    (shift, w), module = SLICES[name], MODULES[name]
    P = PolyVectorAlgebra(g, shift)

    def rank(k):
        if k < 0:
            return 0
        cols = old_columns(P, module, k, P.weight_zero_basis(k, w))
        number = {m: i for i, m in enumerate(sorted({m for col in cols for m in col}))}
        return linalg.rank({number[m]: c for m, c in col.items()} for col in cols)

    return len(P.weight_zero_basis(degree, w)) - rank(degree) - rank(degree - 1)


def printed(basis):
    return [sorted((key, scalar_text(c)) for key, c in x.items()) for x in basis]


@pytest.mark.parametrize("module", sorted(MODULES))
@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_columns_are_the_cochain_columns_times_one_positive_integer(name, module):
    g = ALGEBRAS[name]()
    shift, w = SLICES[module]
    P = PolyVectorAlgebra(g, shift)
    for k in range(3):
        keys = P.weight_zero_basis(k, w)
        scale, got = _unit_differentials(P, MODULES[module], k, keys)
        assert type(scale) is int and scale > 0
        want = old_columns(P, MODULES[module], k, keys)
        assert len(got) == len(want) == len(keys)
        for key, new, old in zip(keys, got, want):
            assert new == {m: scale * c for m, c in old.items()}, (k, key)
            if name not in RATIONAL_FUNCTION:
                assert all(type(c) is int for c in new.values()), (k, key)


def test_the_scale_is_the_lcm_of_the_multiplicity_factorials_times_the_denominator():
    # sym2 keys (i, i) encode over 2!, and sl2 on e/2, f, h has L_g = 2
    g = lie_from_dict(json.loads((FIXTURES / "sl2_half_e.json").read_text()))
    P = PolyVectorAlgebra(g, 2)
    keys = P.slice_basis(0, 2)
    assert _unit_differentials(P, SYM(2), 0, keys)[0] == 2 * 2
    assert _unit_differentials(P, SYM(2), 0, [key for key in keys if key[1][0] != key[1][1]])[0] == 2
    assert _unit_differentials(PolyVectorAlgebra(g, 1), WEDGE(3), 0, [((), (0, 1, 2))])[0] == 2


@pytest.mark.parametrize("module", ["sym2", "wedge3"])
@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_invariants_agree_with_the_cochain_columns(name, module):
    g = ALGEBRAS[name]()
    got, want = invariants(g, MODULES[module]), old_invariants(g, module)
    assert [x.data for x in got] == [x.data for x in want]
    assert printed(got) == printed(want)


# C^2 of sl3 in a general basis is the whole slice, dense: its adjoint and
# sym2 ranks take tens of seconds, so it is checked with trivial coefficients
COHOMOLOGY = [
    (name, module)
    for name in sorted(ALGEBRAS)
    for module in ("trivial", "adjoint", "sym2")
    if name != "sl3-unimodular" or module == "trivial"
]


@pytest.mark.parametrize("name, module", COHOMOLOGY)
def test_cohomology_agrees_with_the_cochain_columns(name, module):
    g = ALGEBRAS[name]()
    for degree in range(3):
        assert cohomology_dim(g, MODULES[module], degree) == old_cohomology_dim(g, module, degree)

