"""The records of the package are `Immutable` slots classes.

Each one refuses attribute writes, as the frozen dataclass it replaced
did.  Where something reads `==` (`GroupAlgebraElem` and `Fiber`), it
is the field-by-field equality of that dataclass, which the reference
dataclasses below still define.
"""

from dataclasses import dataclass
from fractions import Fraction

import pytest

from monofour import checks
from monofour.groupalg import GroupAlgebraElem, ga_elem
from monofour.mellin import (
    EquivariantModule,
    Factored,
    Fiber,
    pole_ladder,
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
class RefFiber:
    point: Fraction
    order: int
    generator: RatFun
    generator_label: str


def ref(record):
    """The reference dataclass with the record's fields."""
    if isinstance(record, GroupAlgebraElem):
        return RefGroupAlgebraElem(record.ell, record.r, record.n, record.coeffs)
    return RefFiber(record.point, record.order, record.generator, record.generator_label)


def records():
    """One of each record, with one slot each to write to."""
    return [
        (checks.CHECKS["keythm"], "engine"),
        (checks.run_check("appendix-tensor"), "verdict"),
        (ga_elem(2, 2, 3, [1, 2, 3]), "coeffs"),
        (CyclicPresentation("weyl", (WeylOp.x(),)), "relations"),
        (pole_ladder(2).fiber(1), "order"),
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
    ladder = pole_ladder(3)
    lattice = ladder.as_lattice()
    return [
        (a, ga_elem(3, 1, 2, [4, -1])),  # equal once reduced mod 3
        (a, ga_elem(3, 1, 2, [2, 1])),
        (a, ga_elem(3, 2, 2, [1, 2])),
        (a, ga_elem(2, 1, 2, [1, 0])),
        (a, ga_elem(3, 1, 3, [1, 2, 0])),
        (ladder.fiber(1, 2), lattice.fiber(1, 2)),
        # a Factored generator and its RatFun are one generator
        (Fiber(Fraction(1), 1, Factored(2, {-2: -1}), "g"),
         Fiber(Fraction(1), 1, RatFun(Poly.const(2), Poly((2, 1))), "g")),
        (Fiber(Fraction(1), 1, Factored(2, {-2: -1}), "g"),
         Fiber(Fraction(1), 1, Factored(3, {-2: -1}), "g")),
        (lattice.fiber(1), Fiber(Fraction(1), 1, RatFun(Poly.const(1), Poly((-1, 1))), "b[-2]")),
        (lattice.fiber(1, 2), lattice.fiber(1, 2)),
        (lattice.fiber(1), lattice.fiber(1, 2)),
        (lattice.fiber(1), lattice.fiber(2)),
        (lattice.fiber(Fraction(1, 2)), Fiber(Fraction(1, 2), 1, RatFun(1), "1")),
        (lattice.fiber(Fraction(1, 2)), Fiber(Fraction(1, 2), 1, RatFun(1), "one")),
    ]


@pytest.mark.parametrize("left, right", equality_pairs())
def test_equality_is_the_dataclass_equality(left, right):
    assert (left == right) == (ref(left) == ref(right))
    assert (left != right) == (ref(left) != ref(right))
    assert left == left and not left != left


def test_equal_records_are_found_equal():
    pairs = equality_pairs()
    assert sum(left == right for left, right in pairs) == 6
    assert ga_elem(2, 1, 3, [1, 0, 1]) != (1, 0, 1)
    assert pole_ladder(1).fiber(0) != "fiber"

