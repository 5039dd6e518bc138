"""`lie.sl(n)` against the matrix-product construction of tests/sl_oracle.py.

For n = 2..9 the index-read factory must give the same labels, the same
bracket table in the same key order (component dicts included), and the
same `extra`: trace form, rank and the Cartan and Borel indices.
"""

from fractions import Fraction

import pytest

from conftest import sparse_rows
from qlie.lie import sl
from sl_oracle import sl_by_matrix_products


@pytest.mark.parametrize("n", range(2, 10))
def test_sl_reads_brackets_and_trace_form_off_the_indices(n):
    new, old = sl(n), sl_by_matrix_products(n)
    assert new.name == old.name and new.basis == old.basis
    assert [(k, list(v.items())) for k, v in new.pairs()] == [(k, list(v.items())) for k, v in old.pairs()]
    assert new.extra == {**old.extra, "pairing": sparse_rows(old.extra["pairing"])}
    assert all(type(x) is Fraction for row in new.extra["pairing"] for x in row.values())
    assert all(type(c) is Fraction for _, comps in new.pairs() for c in comps.values())
