"""The library's reports, the ledger and the Manin pairs and triples are
records: tuples with named fields, compared field by field, that refuse
attribute assignment."""

import pytest

from conftest import ev_rmatrix, multivector, zero_cobracket
from qlie.lie import casimir_from_pairing, sl, sl2, split_subalgebra
from qlie.manin import ManinPair, dual_subalgebra_bplus_bminus, manin_pair_check, manin_triple_check
from qlie.polyvectors import check_lie
from qlie.qlb import QuasiLieBialgebra, check_qlb, verify_coisotropic_morphism
from qlie.rmatrix import dynamical_check
from qlie.tensors import LEDGER


def records():
    g = sl2()
    t = dual_subalgebra_bplus_bminus(g)
    triple_report = manin_triple_check(t)
    pair = ManinPair(t.quad, t.g_indices)
    return {
        "LieCheckReport": check_lie(g),
        "QLBResiduals": check_qlb(QuasiLieBialgebra(g, zero_cobracket(g), multivector(g, 3))),
        "MorphismReport": verify_coisotropic_morphism(split_subalgebra(g, (0, 2)), casimir_from_pairing(g)),
        "DynamicalReport": dynamical_check(ev_rmatrix(sl(2))),
        "ManinTriple": t,
        "ManinTripleReport": triple_report,
        "QuadraticReport": triple_report.quadratic,
        "ManinPair": pair,
        "ManinPairReport": manin_pair_check(pair),
        "ConventionLedger": LEDGER,
    }


def test_records_refuse_assignment():
    recs = records()
    for name, rec in recs.items():
        assert type(rec).__name__ == name
        for field in (rec._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(rec, field, None)
    # a pass keeps an empty residual, a new one per report
    assert recs["LieCheckReport"] == (True, None, None, {})
    assert check_lie(sl2()).residual is not recs["LieCheckReport"].residual


def test_records_compare_by_fields():
    a, b = records(), records()
    assert a["LieCheckReport"] == b["LieCheckReport"]
    assert a["ManinTripleReport"] == b["ManinTripleReport"]
    assert a["QLBResiduals"] == b["QLBResiduals"] and a["QLBResiduals"].passed
