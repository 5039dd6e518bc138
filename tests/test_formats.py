import pytest

from qlie.errors import InputError
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


BRACKET_SHAPE = r"bracket entries are \[x, y, \[\[z, coef\], ...\]\]"
BASIS_SHAPE = "basis is a list of scalar labels"


@pytest.mark.parametrize(
    "basis, entry, message",
    [
        (["e", "f", "h"], entry, BRACKET_SHAPE)
        for entry in [
            7,
            ["e", "f"],
            ["e", "f", 7],
            ["e", "f", [7]],
            ["e", "f", [["h"]]],
            [["e"], "f", [["h", "1"]]],
            ["e", "f", [[{"h": 1}, "1"]]],
        ]
    ]
    + [
        (["e", ["f"], "h"], ["e", "h", [["h", "1"]]], BASIS_SHAPE),
        ("efh", ["e", "h", [["h", "1"]]], BASIS_SHAPE),
    ],
    ids=["7"] + [f"entry{i}" for i in range(1, 7)] + ["list-basis-label", "string-basis"],
)
def test_lie_from_dict_rejects_malformed_bracket_entries(basis, entry, message):
    doc = {"name": "g", "basis": basis, "brackets": [entry]}
    with pytest.raises(InputError, match=message):
        lie_from_dict(doc)


@pytest.mark.parametrize("name", [[[1]], ["sl2"], {"n": "sl2"}, 7, None, True], ids=repr)
def test_lie_from_dict_rejects_a_name_that_is_not_a_string(name):
    # a list name passed check-lie and was echoed into data.name and the dgla string
    doc = {**lie_to_dict(sl2()), "name": name}
    with pytest.raises(InputError, match="name is a string"):
        lie_from_dict(doc)
    assert lie_from_dict({**doc, "name": ""}).basis == sl2().basis
