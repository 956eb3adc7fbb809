import itertools
import pickle

import numpy as np
import pytest

import fourierdist as fd
from fourierdist.errors import GroupOrderError, GroupSpecError, SizeLimitError


def assert_group_axioms(g):
    n = g.order
    idx = np.arange(n)
    assert np.array_equal(g.table[0], idx)
    assert np.array_equal(g.table[:, 0], idx)
    for row in g.table:
        assert sorted(row.tolist()) == list(range(n))
    for col in g.table.T:
        assert sorted(col.tolist()) == list(range(n))
    assert np.array_equal(g.table[g.table, :], g.table[:, g.table])
    assert np.array_equal(g.table[idx, g.inverses], np.zeros(n, dtype=int))
    assert np.array_equal(g.table[g.inverses, idx], np.zeros(n, dtype=int))


def test_corpus_satisfies_axioms(corpus):
    for g in corpus:
        assert_group_axioms(g)


def test_cyclic_examples():
    z6 = fd.make_cyclic(6)
    assert z6.mult(2, 5) == 1
    z1 = fd.make_cyclic(1)
    assert z1.table.tolist() == [[0]]
    z4 = fd.make_cyclic(4)
    assert z4.inverses.tolist() == [0, 3, 2, 1]


def test_cyclic_invalid_order():
    with pytest.raises(GroupOrderError):
        fd.make_cyclic(0)


def test_symmetric_examples():
    s3 = fd.make_symmetric(3)
    assert s3.order == 6
    assert s3.mult(1, 2) != s3.mult(2, 1)
    assert fd.make_symmetric(1).order == 1
    ok, _ = fd.are_isomorphic(fd.make_symmetric(2), fd.make_cyclic(2))
    assert ok


def test_symmetric_canonical_s3_ordering():
    # with the ordering id, s, r, sr, r^2, sr^2 the products must line up
    s3 = fd.make_symmetric(3)
    s, r, sr, r2, sr2 = 1, 2, 3, 4, 5
    assert s3.mult(s, r) == sr
    assert s3.mult(r, r) == r2
    assert s3.mult(s, r2) == sr2
    assert s3.mult(r, s) == sr2        # rs = s r^{-1}
    assert s3.element_orders().tolist() == [1, 2, 3, 2, 3, 2]


def test_symmetric_degree_limit():
    with pytest.raises(SizeLimitError):
        fd.make_symmetric(6)
    with pytest.raises(GroupOrderError):
        fd.make_symmetric(0)


def test_direct_product_z2_z2():
    z2 = fd.make_cyclic(2)
    z22 = fd.make_direct_product(z2, z2)
    assert z22.order == 4
    assert all(z22.inv(i) == i for i in range(4))


def test_direct_product_identity_case():
    g = fd.make_symmetric(3)
    prod = fd.make_direct_product(fd.make_cyclic(1), g)
    ok, witness = fd.are_isomorphic(prod, g)
    assert ok
    assert np.array_equal(witness[prod.table],
                          g.table[witness[:, None], witness[None, :]])


def brute_force_isomorphic(a, b):
    """Oracle: scan all identity-fixing bijections for a homomorphism."""
    n = a.order
    for rest in itertools.permutations(range(1, n)):
        mp = np.array((0,) + rest)
        if np.array_equal(mp[a.table], b.table[mp[:, None], mp[None, :]]):
            return True
    return False


def test_direct_product_z2_z3_is_cyclic():
    prod = fd.make_direct_product(fd.make_cyclic(2), fd.make_cyclic(3))
    z6 = fd.make_cyclic(6)
    assert brute_force_isomorphic(prod, z6)
    ok, witness = fd.are_isomorphic(prod, z6)
    assert ok and witness is not None


def test_dihedral_and_quaternion():
    d2 = fd.make_dihedral(2)
    assert d2.is_abelian()
    z2 = fd.make_cyclic(2)
    ok, _ = fd.are_isomorphic(d2, fd.make_direct_product(z2, z2))
    assert ok

    q8 = fd.make_quaternion()
    orders = []
    for g in range(8):
        k, x = 1, g
        while x != 0:
            x = q8.mult(x, g)
            k += 1
        orders.append(k)
    assert orders.count(2) == 1
    assert sorted(orders) == [1, 2, 4, 4, 4, 4, 4, 4]

    d4 = fd.make_dihedral(4)
    assert (d4.element_orders() == 4).sum() == 2
    with pytest.raises(GroupOrderError):
        fd.make_dihedral(1)


def test_are_isomorphic_examples():
    z4 = fd.make_cyclic(4)
    z22 = fd.parse_group_spec("Z2xZ2")
    assert fd.are_isomorphic(z4, z22)[0] is False
    assert fd.are_isomorphic(fd.make_cyclic(6), fd.make_symmetric(3))[0] is False


def test_are_isomorphic_symmetric_reflexive(corpus):
    for g in corpus:
        ok, witness = fd.are_isomorphic(g, g)
        assert ok
        assert np.array_equal(witness[g.table],
                              g.table[witness[:, None], witness[None, :]])
    for a, b in itertools.combinations(corpus, 2):
        assert fd.are_isomorphic(a, b)[0] == fd.are_isomorphic(b, a)[0]


def test_isomorphic_groups_share_order_multisets(corpus):
    for a, b in itertools.combinations(corpus, 2):
        ok, _ = fd.are_isomorphic(a, b)
        if ok:
            assert sorted(a.element_orders()) == sorted(b.element_orders())


def test_are_isomorphic_size_limit():
    big = fd.make_cyclic(25)
    with pytest.raises(SizeLimitError):
        fd.are_isomorphic(big, big)


def test_automorphism_counts():
    assert len(fd.automorphisms(fd.make_cyclic(4))) == 2
    assert len(fd.automorphisms(fd.parse_group_spec("Z2xZ2"))) == 6
    assert len(fd.automorphisms(fd.make_symmetric(3))) == 6


def test_parse_group_spec():
    assert fd.parse_group_spec("Z6").order == 6
    assert fd.parse_group_spec("S3").label == "S3"
    assert fd.parse_group_spec("Z2xZ2xZ2").order == 8
    assert fd.parse_group_spec("D4").order == 8
    assert fd.parse_group_spec("Q8").order == 8
    with pytest.raises(GroupSpecError):
        fd.parse_group_spec("E8")
    with pytest.raises(GroupSpecError):
        fd.parse_group_spec("")


def test_group_json_round_trip():
    s3 = fd.make_symmetric(3)
    back = fd.group_from_json(s3.to_json())
    assert np.array_equal(back.table, s3.table)
    assert back.label == "S3"


def test_group_json_rejects_invalid():
    with pytest.raises(GroupSpecError):
        fd.group_from_json('{"order": 2, "table": [[0, 1], [1, 1]]}')
    with pytest.raises(GroupSpecError):
        fd.group_from_json('{"order": 3, "table": [[0, 1], [1, 0]]}')
    with pytest.raises(GroupSpecError):
        fd.group_from_json("not json")
    # non-associative magma with identity and involutions is rejected
    table = [[0, 1, 2, 3, 4],
             [1, 0, 3, 4, 2],
             [2, 4, 0, 1, 3],
             [3, 2, 4, 0, 1],
             [4, 3, 1, 2, 0]]
    with pytest.raises(GroupSpecError):
        fd.group_from_json('{"table": %s}' % table)


def test_bijection_validation_and_inverse():
    z4 = fd.make_cyclic(4)
    z22 = fd.parse_group_spec("Z2xZ2")
    with pytest.raises(GroupSpecError):
        fd.GroupBijection(source=z22, target=z4, map=np.array([0, 1, 1, 3]))
    with pytest.raises(GroupSpecError):
        fd.GroupBijection(source=fd.make_cyclic(3), target=z4, map=np.arange(3))
    bij = fd.GroupBijection(source=z22, target=z4, map=np.array([0, 2, 1, 3]))
    inv = bij.inverse()
    assert np.array_equal(inv.map[bij.map], np.arange(4))
    assert not bij.is_homomorphism()
    ok, witness = fd.are_isomorphic(z4, z4)
    assert fd.GroupBijection(source=z4, target=z4, map=witness).is_homomorphism()


def test_conjugacy_classes():
    s3 = fd.make_symmetric(3)
    classes = s3.conjugacy_classes()
    assert [len(c) for c in classes] == [1, 2, 3]
    assert classes[0] == [0]
    q8 = fd.make_quaternion()
    assert sorted(len(c) for c in q8.conjugacy_classes()) == [1, 1, 2, 2, 2]


def test_pickled_frozen_types_keep_read_only_arrays():
    # unpickling rebuilds through __init__, so __post_init__ freezes the copy
    s3 = fd.make_symmetric(3)
    objects = [
        (s3, ("table", "inverses")),
        (fd.GroupBijection(source=s3, target=s3, map=np.arange(6)), ("map",)),
        (fd.irrep_table_for(s3).irreps[2], ("matrices",)),
        (fd.AFunction(s3, np.arange(6)), ("values",)),
        (fd.GroupAlgebraElement(s3, np.ones(6)), ("coeffs",)),
    ]
    for obj, arrays in objects:
        copy = pickle.loads(pickle.dumps(obj))
        assert type(copy) is type(obj)
        for name in arrays:
            assert np.array_equal(getattr(copy, name), getattr(obj, name))
            assert not getattr(copy, name).flags.writeable
