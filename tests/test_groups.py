import numpy as np
import pytest

from hopftwist import (
    cyclic_group,
    dihedral_group,
    direct_product,
    function_algebra,
    group_algebra,
    klein_four_group,
    symmetric_group_3,
    trivial_group,
    verify_hopf_axioms,
)
from hopftwist.errors import InputError
from hopftwist.groups import FiniteGroupData


def _groups():
    return [
        trivial_group(),
        cyclic_group(2),
        cyclic_group(3),
        cyclic_group(4),
        klein_four_group(),
        symmetric_group_3(),
        dihedral_group(4),
    ]


def test_group_tables_are_groups():
    for g in _groups():
        n = g.order
        table = g.table
        # identity at index 0, two-sided
        assert all(table[0, j] == j for j in range(n))
        assert all(table[i, 0] == i for i in range(n))
        # associativity
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    assert table[table[a, b], c] == table[a, table[b, c]]
        # inverses are two-sided
        for a in range(n):
            inv = g.inverse[a]
            assert table[a, inv] == 0
            assert table[inv, a] == 0


def _commutes(g):
    return np.array_equal(g.table, g.table.T)


def test_abelianness_flags():
    assert _commutes(cyclic_group(4))
    assert _commutes(klein_four_group())
    assert not _commutes(symmetric_group_3())
    assert not _commutes(dihedral_group(4))


def test_dihedral_relations():
    d4 = dihedral_group(4)
    # r^4 = e and s^2 = e and s r s = r^{-1}
    r = 1
    s = 4
    acc = 0
    for _ in range(4):
        acc = d4.multiply(acc, r)
    assert acc == 0
    assert d4.multiply(s, s) == 0
    srs = d4.multiply(d4.multiply(s, r), s)
    assert srs == d4.inverse[r]


def test_direct_product_structure():
    g = direct_product(cyclic_group(2), cyclic_group(3))
    assert g.order == 6
    assert _commutes(g)
    assert g.cyclic_factors == (2, 3)


def test_bad_table_is_rejected():
    table = np.zeros((2, 2), dtype=int)
    with pytest.raises(InputError):
        FiniteGroupData(order=2, table=table, labels=("e", "a"))


def test_function_and_group_algebras_pass_axioms(ctx):
    for g in _groups():
        for build in (function_algebra, group_algebra):
            host = build(g)
            assert host.dim == g.order
            report = verify_hopf_axioms(host, ctx)
            assert report.passed, (build.__name__, g.labels, report.failing())


def test_function_algebra_is_commutative():
    host = function_algebra(dihedral_group(4))
    assert np.abs(host.mul - host.mul.transpose(1, 0, 2)).max() < 1e-12


def test_group_algebra_of_nonabelian_group_is_noncommutative():
    host = group_algebra(symmetric_group_3())
    assert np.abs(host.mul - host.mul.transpose(1, 0, 2)).max() > 0.5
