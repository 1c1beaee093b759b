"""The records of the package are `Immutable` slots classes.

Each one refuses attribute writes, as the frozen dataclass it replaced
did.  Where something reads `==` (`GroupAlgebraElem`), it is the
field-by-field equality of that dataclass, which the reference
dataclass below still defines.
"""

from dataclasses import dataclass

import pytest

from monofour import checks
from monofour.groupalg import ga_elem
from monofour.mellin import EquivariantModule
from monofour.ore import CyclicPresentation, WeylOp
from monofour.scalars.poly import Poly


@dataclass(frozen=True)
class RefGroupAlgebraElem:
    ell: int
    r: int
    n: int
    coeffs: tuple


def ref(record):
    """The reference dataclass with the record's fields."""
    return RefGroupAlgebraElem(record.ell, record.r, record.n, record.coeffs)


def records():
    """One of each record, with one slot each to write to."""
    return [
        (checks.CHECKS["keythm"], "engine"),
        (checks.run_check("appendix-tensor"), "verdict"),
        (ga_elem(2, 2, 3, [1, 2, 3]), "coeffs"),
        (CyclicPresentation("weyl", (WeylOp.x(),)), "relations"),
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
    return [
        (a, ga_elem(3, 1, 2, [4, -1])),  # equal once reduced mod 3
        (a, ga_elem(3, 1, 2, [2, 1])),
        (a, ga_elem(3, 2, 2, [1, 2])),
        (a, ga_elem(2, 1, 2, [1, 0])),
        (a, ga_elem(3, 1, 3, [1, 2, 0])),
    ]


@pytest.mark.parametrize("left, right", equality_pairs())
def test_equality_is_the_dataclass_equality(left, right):
    assert (left == right) == (ref(left) == ref(right))
    assert (left != right) == (ref(left) != ref(right))
    assert left == left and not left != left


def test_equal_records_are_found_equal():
    pairs = equality_pairs()
    assert sum(left == right for left, right in pairs) == 1
    assert ga_elem(2, 1, 3, [1, 0, 1]) != (1, 0, 1)

