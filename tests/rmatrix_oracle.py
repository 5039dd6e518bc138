"""The slot-wise r-matrix formulas that `qlie.rmatrix` replaced, kept as oracles.

* `schouten` is the classical biderivation expansion of the Schouten
  bracket of multivectors.  The library takes the bracket as the derived
  bracket -[a, d b] of Pol(BG, 1) (the ledger's schouten_convention).
* `d_dr` differentiates a plain tensor into a new leading slot indexed by
  h, `alt_ddr` pushes that slot into g and applies `alt_tensor`, the full
  signed antisymmetrization, and `alt_mv_of_derivative` is the same
  derivative of the antisymmetric half lambda as a 3-vector.  The library
  differentiates r once, into the 3-vector D = sum_a h_a ^ d r / d x_a.
* `lambda_form_residual` and `cdybe_residual` are the library's two
  residuals on those formulas.
* `dense`, `equivariance_defect`, `symmetric_part` and `invariance_defect`
  recompute the other r-matrix checks on dense matrices, for the
  witnesses that the failing checks name.
"""

from fractions import Fraction
from itertools import permutations

from conftest import tensor
from qlie.qlb import casimir_to_phi
from qlie.rmatrix import cybe
from qlie.scalars import RationalFunction
from qlie.tensors import LAMBDA_FORM_PHI_COEFF, CECochain, WEDGE, _sort_with_sign


def schouten(g, a: CECochain, b: CECochain) -> CECochain:
    """Schouten bracket of polyvectors (degree-0 WEDGE(p) cochains) by the
    biderivation expansion; on vectors it is the Lie bracket."""
    p, q = a.module[1], b.module[1]
    entries = []
    for ((), ka), ca in a.data.items():
        for ((), kb), cb in b.data.items():
            for s in range(p):
                rest_a = ka[:s] + ka[s + 1 :]
                for t in range(q):
                    rest_b = kb[:t] + kb[t + 1 :]
                    sign = (-1) ** ((s + 1) + (t + 1))
                    for m, c in g.bracket(ka[s], kb[t]).items():
                        entries.append((((), (m,) + rest_a + rest_b), sign * ca * cb * c))
    return CECochain.build(g, 0, WEDGE(p + q - 1), entries)


def alt_tensor(t: CECochain) -> CECochain:
    """Full signed antisymmetrization over all slots of a plain tensor (a
    TENSOR(p) cochain), no normalization."""
    p = t.module[1]
    entries = []
    for ((), key), coef in t.data.items():
        for perm in permutations(range(p)):
            entries.append((tuple(key[i] for i in perm), _sort_with_sign(perm)[0] * coef))
    return tensor(t.g, p, entries)


def d_dr(t: CECochain, variables) -> CECochain:
    """Slot-wise exact derivative: a new leading slot indexed by h."""
    entries = []
    for ((), key), coef in t.data.items():
        if not isinstance(coef, RationalFunction):
            continue
        for a, name in enumerate(variables):
            dc = coef.derivative(name)
            if not dc.is_zero():
                entries.append(((a,) + key, dc))
    return tensor(t.g, t.module[1] + 1, entries)


def alt_ddr(split, t: CECochain) -> CECochain:
    """Push the leading h slot of an h (x) g (x) g tensor into g, then fully
    antisymmetrize (no 1/3!)."""
    assert t.module[1] == 3
    entries = [((split.h_indices[a], i, j), coef) for ((), (a, i, j)), coef in t.data.items()]
    return alt_tensor(tensor(split.g, 3, entries))


def alt_mv_of_derivative(split, r_entries) -> CECochain:
    """sum_k xi_k ^ (d lambda / d x_k) for lambda the antisymmetric half of r:
    each r entry contributes a quarter, lambda_ij = (r_ij - r_ji) / 4, and
    the wedge kills the symmetric part."""
    entries = []
    for ((), (i, j)), coef in r_entries:
        if not isinstance(coef, RationalFunction):
            continue
        for a in range(split.dim_h):
            dc = coef.derivative(coef.vars[a])
            if not dc.is_zero():
                entries.append((((), (split.h_indices[a], i, j)), dc * Fraction(1, 4)))
    return CECochain.build(split.g, 0, WEDGE(3), entries)


def lambda_form_residual(g, lam: CECochain, c, alt_mv=None) -> CECochain:
    """1/2 schouten(lambda, lambda) + alt_mv + 3/2 casimir_to_phi(c)."""
    res = schouten(g, lam, lam).scale(Fraction(1, 2))
    if alt_mv is not None:
        res = res + alt_mv
    return res + casimir_to_phi(g, c).scale(LAMBDA_FORM_PHI_COEFF)


def dense(g, r: CECochain):
    """The n x n matrix of a plain 2-tensor."""
    m = [[0] * g.dim for _ in range(g.dim)]
    for ((), (i, j)), coef in r.items():
        m[i][j] = coef
    return m


def ad(g, x: int):
    """The matrix of ad e_x: column i holds [e_x, e_i]."""
    m = [[0] * g.dim for _ in range(g.dim)]
    for i in range(g.dim):
        for k, s in g.bracket(x, i).items():
            m[k][i] = s
    return m


def _sandwich(g, a, m):
    """A M + M A^T: the action of ad e_a on both slots of a 2-tensor M."""
    A = ad(g, a)
    n = range(g.dim)
    return [[sum(A[i][k] * m[k][j] + m[i][k] * A[j][k] for k in n) for j in n] for i in n]


def equivariance_defect(g, h: int, r: CECochain):
    """(ad h (x) 1 + 1 (x) ad h) r as a matrix, for h in an abelian base,
    whose coadjoint flow on h* is zero."""
    return _sandwich(g, h, dense(g, r))


def symmetric_part(g, r: CECochain):
    """(r + r^T) / 2 as a matrix."""
    m = dense(g, r)
    return [[(m[i][j] + m[j][i]) * Fraction(1, 2) for j in range(g.dim)] for i in range(g.dim)]


def invariance_defect(g, a: int, sym):
    """ad e_a applied to both slots of a symmetric matrix: zero for every a
    exactly when it is invariant."""
    return _sandwich(g, a, sym)


def cdybe_residual(dr) -> CECochain:
    """cybe(r) + Alt(d_dR r), the derivative pushed from h into g."""
    return cybe(dr.split.g, dr.tensor) + alt_ddr(dr.split, d_dr(dr.tensor, dr.variables))
