"""Unit-group logarithms by brute force, used only by tests.

``unit_decompose`` writes a unit of Z/mZ as a product of the generators
of ``nt.unit_group_generators``: a table of every generator-power product,
built one generator at a time.  The character values of
``mazurtate.groupring``, which walk the same generator powers into one
value table per character, are checked against sum_i x_i t_i mod e.
``quadratic_character`` finds the primitive quadratic character mod d
that the twisted-value and interpolation tests use.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from mazurtate.groupring import DirichletCharacter, all_characters
from mazurtate.nt import unit_group_generators


def unit_decompose(a: int, m: int) -> tuple[int, ...]:
    """Exponents (x_i) with a = prod g_i^{x_i} mod m over unit_group_generators."""
    if gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit mod {m}")
    return _unit_log_table(m)[a % m]


@lru_cache(maxsize=None)
def _unit_log_table(m: int) -> dict[int, tuple[int, ...]]:
    gens = unit_group_generators(m)
    table = {1 % m: (0,) * len(gens)}
    for i, (g, order) in enumerate(gens):
        new = dict(table)
        acc = 1
        for e in range(1, order):
            acc = (acc * g) % m
            for u, exps in table.items():
                v = (u * acc) % m
                new[v] = exps[:i] + (e,) + exps[i + 1 :]
        table = new
    return table


def quadratic_character(d: int) -> DirichletCharacter:
    """The unique primitive quadratic character mod d, when it exists."""
    for chi in all_characters(d):
        if chi.order() == 2 and chi.is_primitive():
            return chi
    raise ValueError(f"no primitive quadratic character mod {d}")
