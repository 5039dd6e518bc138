from qlie.formats import lie_from_dict, lie_to_dict
from qlie.lie import sl2


def test_lie_round_trip_rational():
    g = sl2()
    doc = lie_to_dict(g)
    assert doc["field"] == {"type": "rational"}
    assert lie_from_dict(doc).same_structure(g)


def test_lie_round_trip_rational_functions():
    doc = {
        "name": "b3xy",
        "field": {"type": "ratfun", "vars": ["x", "y"]},
        "basis": ["a", "b", "c"],
        "brackets": [["a", "b", [["b", "x"]]], ["a", "c", [["c", "1/(x+y)"]]]],
    }
    g = lie_from_dict(doc)
    out = lie_to_dict(g)
    assert out["field"] == {"type": "ratfun", "vars": ["x", "y"]}
    back = lie_from_dict(out)
    assert back.same_structure(g)
    assert lie_to_dict(back) == out
