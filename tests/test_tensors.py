from fractions import Fraction

from conftest import multivector, permute_slots, rand_multivector, sym2, tensor
from qlie.lie import sl2, split_subalgebra
from qlie.polyvectors import PolyVectorAlgebra
from qlie.qlb import split_casimir
from qlie.tensors import CECochain, WEDGE, embed_wedge
from rmatrix_oracle import alt_tensor


def F(a, b=1):
    return Fraction(a, b)


def mv(*entries):
    p = len(entries[0][0])
    return multivector(sl2(), p, [(k, F(c)) for k, c in entries])


def basis(i):
    return multivector(sl2(), 1, [((i,), F(1))])


def wedge(a, b):
    """The exterior product of two multivectors: the product of Pol(BG, 1)."""
    P = PolyVectorAlgebra(a.g, 1)
    return P.to_cochain(P.mul(P.from_cochain(a), P.from_cochain(b)), 0, a.module[1] + b.module[1])


def test_wedge_repeated_index_vanishes():
    e = basis(0)
    assert wedge(e, e).is_zero()


def test_wedge_sign_rule():
    e = basis(0)
    f = basis(1)
    assert wedge(e, f) == -wedge(f, e)
    assert wedge(e, f).data == {((), (0, 1)): 1}


def test_wedge_top_form():
    e, f, h = (basis(i) for i in range(3))
    top = wedge(wedge(e, f), h)
    assert top.data == {((), (0, 1, 2)): 1}
    # graded commutativity and associativity on bivectors
    ef = wedge(e, f)
    assert wedge(ef, h) == wedge(h, ef)  # (-1)^{2*1} = +1
    assert wedge(e, wedge(f, h)) == top


def test_embed_wedge_definition():
    ef = mv(((0, 1), 1))
    t = embed_wedge(ef)
    assert t.data == {((), (0, 1)): 1, ((), (1, 0)): -1}
    efh = mv(((0, 1, 2), 1))
    t3 = embed_wedge(efh)
    assert t3.data[((), (0, 1, 2))] == 1
    assert t3.data[((), (1, 0, 2))] == -1
    assert len(t3.data) == 6
    assert embed_wedge(multivector(sl2(), 2)).is_zero()


def test_embed_wedge_linear_and_antisymmetric(rng):
    g = sl2()
    for _ in range(20):
        a = rand_multivector(g, 2, rng)
        b = rand_multivector(g, 2, rng)
        s = F(rng.randint(-4, 4), rng.randint(1, 3))
        lhs = embed_wedge(a.scale(s) + b)
        rhs = embed_wedge(a).scale(s) + embed_wedge(b)
        assert lhs == rhs
        t = embed_wedge(a)
        assert permute_slots(t, (1, 0)) == (-t).data


def test_sym_storage_reads_all_orders():
    # Sym^2 g stores one key per pair, i <= j; an entry given as (j, i) lands
    # there, and the split of a Casimir reads each key in both orders
    g = sl2()
    c = sym2(g, [((1, 0), F(1)), ((2, 2), F(1, 2))])
    assert c.data == {((), (0, 1)): 1, ((), (2, 2)): F(1, 2)}
    assert sym2(g, [((0, 1), F(1)), ((1, 0), F(1))]).data == {((), (0, 1)): 2}
    Prow, Qcol, mm = split_casimir(split_subalgebra(g, range(3)), c)
    assert Prow == {0: {1: 1}, 1: {0: 1}, 2: {2: F(1, 2)}} and not Qcol and not mm
    Prow, Qcol, mm = split_casimir(split_subalgebra(g, (1, 2)), c)
    assert Prow == {1: {1: F(1, 2)}} and Qcol == {0: {0: 1}} and not mm
    Prow, Qcol, mm = split_casimir(split_subalgebra(g, (2,)), c)
    assert Prow == {0: {0: F(1, 2)}} and not Qcol and mm == {(0, 1): 1, (1, 0): 1}


def test_anti_storage_signed_reads():
    # a multivector stores the increasing key; an entry on a permuted key
    # lands there with its sign, and one on a repeated index vanishes
    g = sl2()
    t = CECochain.build(g, 0, WEDGE(2), [(((), (0, 2)), F(3))])
    assert t.data == {((), (0, 2)): 3}
    assert CECochain.build(g, 0, WEDGE(2), [(((), (2, 0)), F(-3))]) == t
    assert CECochain.build(g, 0, WEDGE(2), [(((), (2, 0)), F(3))]) == -t
    assert CECochain.build(g, 0, WEDGE(2), [(((), (1, 1)), F(3))]).is_zero()


def test_alt_tensor_on_antisymmetric_input():
    # already antisymmetric input gains a factor p! under the unnormalized Alt
    a = embed_wedge(mv(((0, 1, 2), 1)))
    assert alt_tensor(a) == a.scale(F(6))
    assert alt_tensor(tensor(sl2(), 3)).is_zero()
