"""Random operator expressions and an independent evaluator for them.

An expression is a tree of tuples:

    ("num", Fraction) | ("atom", name) | ("neg", e) | ("add", a, b)
    | ("sub", a, b) | ("mul", a, b) | ("pow", e, n)

`render` prints it in the grammar of `monofour.parser`.  `apply_tree`
applies the tree, read as an operator, to a Laurent monomial x^k with
plain Fractions: in the Weyl grammar x multiplies and dx differentiates;
in the shift grammar s scales x^k by k and T, Ti move k by +1, -1
(the Mellin action T^j p(s) . x^k = p(k) x^(k+j)).  Nothing here uses
monofour, so it can judge monofour's normal forms.
"""

from __future__ import annotations

import random
from fractions import Fraction

ATOMS = {"weyl": ("x", "dx"), "shift": ("s", "T", "Ti")}
SHAPE_SEED = 20141402


def random_tree(shape: random.Random, leaves: random.Random, algebra: str, depth: int):
    """A random tree; `shape` draws its structure, `leaves` its atoms and numbers."""
    if depth == 0 or shape.random() < 0.25:
        if shape.random() < 0.3:
            return ("num", Fraction(leaves.randint(-4, 4), leaves.choice((1, 1, 1, 2, 3))))
        return ("atom", leaves.choice(ATOMS[algebra]))
    kind = shape.choice(("add", "add", "sub", "mul", "mul", "mul", "neg", "pow"))
    if kind == "neg":
        return ("neg", random_tree(shape, leaves, algebra, depth - 1))
    if kind == "pow":
        return ("pow", random_tree(shape, leaves, algebra, depth - 1), shape.randint(0, 3))
    return (kind, random_tree(shape, leaves, algebra, depth - 1),
            random_tree(shape, leaves, algebra, depth - 1))


def degree(tree) -> int:
    """Upper bound on the total degree of the operator the tree denotes."""
    kind = tree[0]
    if kind == "num":
        return 0
    if kind == "atom":
        return 1
    if kind == "neg":
        return degree(tree[1])
    if kind == "pow":
        return degree(tree[1]) * tree[2]
    if kind == "mul":
        return degree(tree[1]) + degree(tree[2])
    return max(degree(tree[1]), degree(tree[2]))


def random_expressions(seed: int, count: int, depth: int, max_degree: int):
    """`count` (algebra, tree) pairs, alternating Weyl and shift.

    Tree shapes come from one fixed stream and the seed draws only atoms
    and numbers, so every seed gets the same mix of sizes and a pass
    costs about the same whatever the seed.  The degree cap keeps the
    latency tail from being set by a few huge normal forms.
    """
    shape, leaves = random.Random(SHAPE_SEED), random.Random(seed)
    out = []
    for i in range(count):
        algebra = "weyl" if i % 2 == 0 else "shift"
        while True:
            tree = random_tree(shape, leaves, algebra, depth)
            if degree(tree) <= max_degree:
                break
        out.append((algebra, tree))
    return out


def render(tree) -> str:
    kind = tree[0]
    if kind == "num":
        return str(tree[1]) if tree[1] >= 0 else f"(-{-tree[1]})"
    if kind == "atom":
        return tree[1]
    if kind == "neg":
        return f"-({render(tree[1])})"
    if kind == "pow":
        return f"({render(tree[1])})^{tree[2]}"
    op = {"add": " + ", "sub": " - ", "mul": "*"}[kind]
    return f"({render(tree[1])}){op}({render(tree[2])})"


Vector = dict  # exponent -> Fraction, zero entries dropped


def _clean(v: Vector) -> Vector:
    return {k: c for k, c in v.items() if c}


def _combine(a: Vector, b: Vector, sign: int) -> Vector:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, Fraction(0)) + sign * c
    return _clean(out)


def _apply_atom(name: str, v: Vector) -> Vector:
    if name == "x" or name == "T":
        return {k + 1: c for k, c in v.items()}
    if name == "Ti":
        return {k - 1: c for k, c in v.items()}
    if name == "dx":
        return _clean({k - 1: k * c for k, c in v.items()})
    if name == "s":
        return _clean({k: k * c for k, c in v.items()})
    raise ValueError(f"unknown atom {name!r}")


def apply_tree(tree, v: Vector) -> Vector:
    kind = tree[0]
    if kind == "num":
        return _clean({k: tree[1] * c for k, c in v.items()})
    if kind == "atom":
        return _apply_atom(tree[1], v)
    if kind == "neg":
        return {k: -c for k, c in apply_tree(tree[1], v).items()}
    if kind == "add":
        return _combine(apply_tree(tree[1], v), apply_tree(tree[2], v), 1)
    if kind == "sub":
        return _combine(apply_tree(tree[1], v), apply_tree(tree[2], v), -1)
    if kind == "mul":
        return apply_tree(tree[1], apply_tree(tree[2], v))
    if kind == "pow":
        for _ in range(tree[2]):
            v = apply_tree(tree[1], v)
        return v
    raise ValueError(f"unknown node {kind!r}")


def _falling(k: int, b: int) -> int:
    out = 1
    for i in range(b):
        out *= k - i
    return out


def weyl_action(terms: dict, k: int) -> Vector:
    """x^a dx^b . x^k = k(k-1)...(k-b+1) x^(k-b+a), rank one."""
    out: Vector = {}
    for ((a,), (b,)), c in terms.items():
        e = k - b + a
        out[e] = out.get(e, Fraction(0)) + c * _falling(k, b)
    return _clean(out)


def shift_action(terms: dict, k: int) -> Vector:
    """T^j p(s) . x^k = p(k) x^(k+j); reads only the coefficient tuples."""
    out: Vector = {}
    for j, p in terms.items():
        value = Fraction(0)
        for c in reversed(p.coeffs):
            value = value * k + c
        out[k + j] = out.get(k + j, Fraction(0)) + value
    return _clean(out)
