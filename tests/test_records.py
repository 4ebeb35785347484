"""The seven records are immutable values: built by position or keyword,
read by field name, compared and hashed by value, never assigned to."""

from fractions import Fraction

import pytest

from autgeom.automorphisms import Endo, identity_endo
from autgeom.flats import AffineIsometry
from autgeom.latgeom import Lattice, Polytope, Vec3, lattice_from, vec3, voronoi_cell
from autgeom.reports import Check, Report

# The Voronoi cell of Z^3, the cube [-1/2, 1/2]^3, as a Polytope over den 2.
CUBE = {
    "vertices": tuple((x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)),
    "faces": ((0, 1, 3, 2), (4, 6, 7, 5), (0, 4, 5, 1), (2, 3, 7, 6),
              (0, 2, 6, 4), (1, 5, 7, 3)),
    "normals": ((-2, 0, 0), (2, 0, 0), (0, -2, 0), (0, 2, 0), (0, 0, -2), (0, 0, 2)),
    "den": 2,
}

# (class, fields in order, another value of the last field)
RECORDS = [
    (Check, {"name": "c", "claim": "x = x", "passed": True, "witness": (1, 2)}, None),
    (Report, {"command": "sanov", "args": {"power": 2},
              "checks": (Check("c", "x = x", True),), "payload": {"k": [1]}}, {}),
    (Endo, {"images": ((1, 2), (-1,))}, ((1,), (2,))),
    (Vec3, {"x": Fraction(1, 2), "y": Fraction(0), "z": Fraction(-3)}, Fraction(3)),
    (Lattice, {"rows": ((1, 0, 0), (0, 1, 0), (0, 0, 2)), "den": 3}, 5),
    (Polytope, CUBE, 3),
    (AffineIsometry, {"block_dim": 2, "source": (1, 0), "signs": (1, -1),
                      "translation": (1, 0, 0, 2), "den": 3}, 5),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, fields, other", RECORDS, ids=IDS)
def test_built_by_position_or_keyword_and_read_by_name(cls, fields, other):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    assert by_position == by_keyword
    for name, value in fields.items():
        assert getattr(by_keyword, name) == value
    assert repr(by_keyword).startswith(f"{cls.__name__}(")


@pytest.mark.parametrize("cls, fields, other", RECORDS, ids=IDS)
def test_equal_and_hashed_by_value(cls, fields, other):
    a, b = cls(**fields), cls(**fields)
    assert a == b and a is not b
    last = list(fields)[-1]
    assert a != cls(**{**fields, last: other})
    if cls is Report:
        with pytest.raises(TypeError):  # its args and payload are dicts
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("cls, fields, other", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(cls, fields, other):
    record = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, other)
    assert record == cls(**fields)


def test_check_witness_defaults_to_none():
    assert Check("c", "x = x", False).witness is None


def test_report_with_no_checks_does_not_pass():
    assert Report("x", {}, (), {}).passed is False
    assert Report("x", {}, (), {}).to_dict()["passed"] is False
    ok, bad = Check("a", "", True), Check("b", "", False)
    assert Report("x", {}, (ok,), {}).passed is True
    assert Report("x", {}, (ok, bad), {}).passed is False


def test_report_fields_have_no_shared_default():
    with pytest.raises(TypeError):
        Report("x")


def test_derived_values():
    assert Polytope(**CUBE).f_vector() == (8, 12, 6)
    fcc = lattice_from([vec3(1, 1, 0), vec3(1, -1, 0), vec3(1, 0, 1), vec3(1, 0, -1)])
    assert fcc.rank == 3
    assert voronoi_cell(fcc).f_vector() == (14, 24, 12)
    assert lattice_from([vec3(1, 2, 3), vec3(2, 4, 6)]).rank == 1
    assert vec3(1, "1/2", 0).coords() == (1, Fraction(1, 2), 0)
    iso = AffineIsometry(2, (2, 0, 1), (1, -1, 1), (0, 1, 0, 0, 1, 0), 2)
    assert (iso.blocks, iso.dim) == (3, 6)
    assert iso.power(0) == AffineIsometry(2, (0, 1, 2), (1, 1, 1), (0,) * 6, 1)
    # A 3-cycle of sign product -1: its cube is -I, with a translation.
    assert iso.power(3) == AffineIsometry(2, (0, 1, 2), (-1, -1, -1), (1, 1, -1, -1, 1, -1), 2)
    assert identity_endo(2) == Endo(((1,), (2,)))


@pytest.mark.parametrize("fields, message", [
    ({"source": (0, 0)}, "source is not a permutation of the blocks"),
    ({"signs": (1,)}, "signs must be"),
    ({"translation": (0, 0, 0)}, "translation has wrong dimension"),
    ({"translation": (2, 4), "den": 6}, "lowest terms"),
    ({"den": 0}, "lowest terms"),
])
def test_affine_isometry_refuses_by_keyword_too(fields, message):
    good = {"block_dim": 1, "source": (1, 0), "signs": (1, -1),
            "translation": (1, 0), "den": 1}
    AffineIsometry(**good)
    with pytest.raises(ValueError, match=message):
        AffineIsometry(**{**good, **fields})
