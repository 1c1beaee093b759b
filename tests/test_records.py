"""The records of the package are `Immutable` slots classes.

Each one refuses attribute writes, as the frozen dataclass it replaced
did.  Where something reads `==` (`GroupAlgebraElem`, `SkyscraperFamily`
and `Fiber`), it is the field-by-field equality of that dataclass, which
the reference dataclasses below still define.
"""

from dataclasses import dataclass
from fractions import Fraction

import pytest

from monofour import checks
from monofour.groupalg import GroupAlgebraElem, ga_elem
from monofour.mellin import (
    EquivariantModule,
    Fiber,
    SkyscraperFamily,
    WindowedLattice,
    pole_ladder,
    skyscraper_tower,
    tensor_equivariant,
)
from monofour.ore import CyclicPresentation, WeylOp
from monofour.scalars.poly import Poly
from monofour.scalars.ratfun import RatFun


@dataclass(frozen=True)
class RefGroupAlgebraElem:
    ell: int
    r: int
    n: int
    coeffs: tuple


@dataclass(frozen=True)
class RefSkyscraperFamily:
    chi: Fraction
    radius: int
    order: int
    labels: dict
    down_units: dict


@dataclass(frozen=True)
class RefFiber:
    point: Fraction
    order: int
    rank: int
    length: int
    generator: RatFun
    generator_label: str


def ref(record):
    """The reference dataclass with the record's fields."""
    if isinstance(record, GroupAlgebraElem):
        return RefGroupAlgebraElem(record.ell, record.r, record.n, record.coeffs)
    if isinstance(record, SkyscraperFamily):
        return RefSkyscraperFamily(record.chi, record.radius, record.order, record.labels,
                                   record.down_units)
    return RefFiber(record.point, record.order, record.rank, record.length, record.generator,
                    record.generator_label)


def records():
    """One of each record, with one slot each to write to."""
    return [
        (checks.CHECKS["keythm"], "engine"),
        (checks.run_check("appendix-tensor"), "verdict"),
        (ga_elem(2, 2, 3, [1, 2, 3]), "coeffs"),
        (CyclicPresentation("weyl", (WeylOp.x(),)), "relations"),
        (pole_ladder(2).fiber(1), "rank"),
        (skyscraper_tower(0, 1, 2), "order"),
        (EquivariantModule(1, ((Poly.x(),),)), "nrows"),
    ]


@pytest.mark.parametrize("record, slot", records(), ids=lambda v: type(v).__name__
                         if not isinstance(v, str) else v)
def test_attribute_writes_are_refused(record, slot):
    before = getattr(record, slot)
    with pytest.raises(AttributeError, match=f"^{type(record).__name__} is immutable$"):
        setattr(record, slot, None)
    assert getattr(record, slot) is before
    assert not hasattr(record, "__dict__")  # slots all the way down


def equality_pairs():
    """Pairs of records of one type, equal and unequal in each field."""
    a = ga_elem(3, 1, 2, [1, 2])
    tower = skyscraper_tower(0, 2, 3)
    line = WindowedLattice(0, 3, [RatFun(Poly.const(k + 5), Poly((-k, 1))) for k in range(-3, 4)])
    lattice = pole_ladder(3).as_lattice()
    return [
        (a, ga_elem(3, 1, 2, [4, -1])),  # equal once reduced mod 3
        (a, ga_elem(3, 1, 2, [2, 1])),
        (a, ga_elem(3, 2, 2, [1, 2])),
        (a, ga_elem(2, 1, 2, [1, 0])),
        (tensor_equivariant(tower, line), tensor_equivariant(line, tower)),
        (tower, skyscraper_tower(0, 2, 3)),
        (tower, skyscraper_tower(0, 1, 3)),
        (tower, skyscraper_tower(Fraction(1, 2), 2, 3)),
        (tower, tensor_equivariant(tower, pole_ladder(3))),
        (lattice.fiber(1, 2), lattice.fiber(1, 2)),
        (lattice.fiber(1), lattice.fiber(1, 2)),
        (lattice.fiber(1), lattice.fiber(2)),
        (lattice.fiber(Fraction(1, 2)), Fiber(Fraction(1, 2), 1, 1, 1, RatFun(1), "1")),
        (lattice.fiber(Fraction(1, 2)), Fiber(Fraction(1, 2), 1, 1, 1, RatFun(1), "one")),
    ]


@pytest.mark.parametrize("left, right", equality_pairs())
def test_equality_is_the_dataclass_equality(left, right):
    assert (left == right) == (ref(left) == ref(right))
    assert (left != right) == (ref(left) != ref(right))
    assert left == left and not left != left


def test_equal_records_are_found_equal():
    pairs = equality_pairs()
    assert sum(left == right for left, right in pairs) == 5
    assert ga_elem(2, 1, 3, [1, 0, 1]) != (1, 0, 1)
    assert skyscraper_tower(0, 1, 1) != "tower"


def test_skyscraper_family_fields():
    tower = skyscraper_tower(Fraction(1, 3), 2, 1)
    assert (tower.chi, tower.radius, tower.order) == (Fraction(1, 3), 1, 2)
    assert tower.labels == {i: f"1/(s-(1/3+{i}))^2" for i in (-1, 0, 1)}
    assert tower.down_units == {0: 1, 1: 1}

