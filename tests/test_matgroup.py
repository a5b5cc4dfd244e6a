from __future__ import annotations

import random

import pytest

from equibundle.cyclotomic import CycNum
from equibundle.errors import ClosureCapExceeded, MathRejection
from equibundle.extensions import pgl_group, sign_normalize
from equibundle.linalg import (
    identity_matrix,
    mat_eq,
    mat_inv,
    mat_is_zero,
    mat_mul,
    mat_trace,
)
from equibundle.matgroup import (
    Representation,
    SL2Elem,
    TabularGroup,
    catalog,
    character,
    generate_group,
    module_isomorphic,
    regular_representation,
    reynolds,
    standard_representation,
    trivial_representation,
)

from oracles import (
    binary_dihedral_constituents,
    cyclic_constituents,
    direct_closure_tables,
    unique_characters,
)


def quaternion_group():
    z4 = CycNum.zeta(4)
    gens = [SL2Elem.diag(z4), SL2Elem.from_ints(4, 0, 1, -1, 0)]
    return generate_group(gens)


def test_trivial_group():
    g = generate_group([SL2Elem.identity(3)])
    assert g.order == 1
    assert len(g.conjugacy_classes) == 1


def test_cyclic_six_from_diag():
    g = generate_group([SL2Elem.diag(CycNum.zeta(6))])
    assert g.order == 6
    assert len(g.conjugacy_classes) == 6  # abelian: one class per element


def test_quaternion_group_structure():
    g = quaternion_group()
    assert g.order == 8
    assert len(g.conjugacy_classes) == 5
    # multiplication table is closed and every element has an inverse
    for i in range(8):
        assert g.mul(i, g.inv(i)) == 0
    # -I is central
    minus = g.minus_identity_index()
    assert minus is not None
    for i in range(8):
        assert g.mul(minus, i) == g.mul(i, minus)


def test_mul_table_associative_exhaustive():
    g = quaternion_group()
    for i in range(g.order):
        for j in range(g.order):
            ij = g.mul(i, j)
            for k in range(g.order):
                assert g.mul(ij, k) == g.mul(i, g.mul(j, k))


@pytest.mark.parametrize(
    "family,param",
    [
        ("cyclic", 6),
        ("binary_dihedral", 2),
        ("binary_dihedral", 3),
        ("binary_dihedral", 5),
        ("binary_tetrahedral", None),
        ("binary_octahedral", None),
        ("binary_icosahedral", None),
    ],
)
def test_cayley_graph_tables_match_direct_products(family, param):
    # The SL(2) group, its PGL image and the image's preimage, each against
    # the table of all |G|^2 normalised products and the structure built on it.
    entry = catalog(family, param)
    image = pgl_group(entry.generators)
    minus = -SL2Elem.identity(entry.modulus)
    cases = (
        (entry.group(), entry.generators, lambda g: g),
        (image, entry.generators, sign_normalize),
        (image.preimage, list(image.generator_reps) + [minus], lambda g: g),
    )
    for group, gens, normalize in cases:
        elements, table, gen_indices, parent, last_gen = direct_closure_tables(gens, normalize)
        assert group.elements == tuple(elements)
        assert group.mul_table == tuple(tuple(row) for row in table)
        assert group.generator_indices == tuple(gen_indices)
        assert (group.parent, group.last_gen) == (tuple(parent), tuple(last_gen))
        reference = TabularGroup(elements, table, gen_indices, parent, last_gen)
        assert group.inverse_table == reference.inverse_table
        assert group.conjugacy_classes == reference.conjugacy_classes


def test_closure_cap_exceeded():
    # An infinite-order parabolic element overflows any cap.
    with pytest.raises(ClosureCapExceeded):
        generate_group([SL2Elem.from_ints(1, 1, 1, 0, 1)], cap=50)


def test_non_unit_determinant_rejected():
    with pytest.raises(MathRejection):
        SL2Elem.from_ints(4, 2, 0, 0, 1)


def test_catalog_orders():
    assert catalog("cyclic", 5).group().order == 5
    assert catalog("binary_dihedral", 3).group().order == 12
    assert catalog("binary_tetrahedral").group().order == 24
    assert catalog("binary_octahedral").group().order == 48


def test_catalog_icosahedral_order():
    g = catalog("binary_icosahedral").group()
    assert g.order == 120
    rng = random.Random(9)
    for _ in range(10000):
        i, j, k = (rng.randrange(120) for _ in range(3))
        assert g.mul(g.mul(i, j), k) == g.mul(i, g.mul(j, k))


def test_words_reconstruct_elements():
    g = quaternion_group()
    gens = [g.elements[i] for i in g.generator_indices]
    for i, elem in enumerate(g.elements):
        acc = SL2Elem.identity(g.n)
        for gi in g.word(i):
            acc = acc * gens[gi]
        assert acc == elem


def test_character_trivial_rep():
    g = quaternion_group()
    chi = character(trivial_representation(g))
    assert all(v.is_one() for v in chi.values)


def test_character_standard_at_minus_identity():
    g = quaternion_group()
    chi = character(standard_representation(g))
    minus = g.minus_identity_index()
    cls = g.class_of[minus]
    assert chi.values[cls] == CycNum.from_int(4, -2)


def test_character_regular_c3():
    g = generate_group([SL2Elem.diag(CycNum.zeta(3))])
    chi = character(regular_representation(g))
    values = list(chi.values)
    ident_class = g.class_of[0]
    assert values[ident_class] == CycNum.from_int(3, 3)
    for ci, v in enumerate(values):
        if ci != ident_class:
            assert v.is_zero()


def test_character_constant_on_classes():
    g = catalog("binary_dihedral", 3).group()
    rep = standard_representation(g)
    for members in g.conjugacy_classes:
        traces = {mat_trace(rep.image(m)).sort_key() for m in members}
        assert len(traces) == 1


def test_module_isomorphic_conjugation_invariant():
    g = quaternion_group()
    rep = standard_representation(g)
    s = [[CycNum.from_int(4, 1), CycNum.from_int(4, 2)], [CycNum.from_int(4, 1), CycNum.from_int(4, 3)]]
    conj = rep.conjugate(s, mat_inv(s))
    assert module_isomorphic(rep, conj)


def test_module_isomorphic_distinguishes_sign():
    g = generate_group([SL2Elem.diag(CycNum.zeta(2))])  # {I, -I}
    triv = trivial_representation(g)
    sign = Representation.from_generator_images(g, 1, [[[CycNum.from_int(2, -1)]]])
    assert not module_isomorphic(triv, sign)


def test_module_isomorphic_direct_sum_swap():
    g = quaternion_group()
    r, s = standard_representation(g), trivial_representation(g)
    assert module_isomorphic(r.direct_sum(s), s.direct_sum(r))


def test_representation_rejects_inconsistent_images():
    g = generate_group([SL2Elem.diag(CycNum.zeta(4))])  # C4
    bad = [[[CycNum.from_int(4, 2)]]]  # 2 has infinite multiplicative order
    with pytest.raises(MathRejection):
        Representation.from_generator_images(g, 1, bad)


def test_reynolds_trivial_rep_is_identity():
    g = quaternion_group()
    assert mat_eq(reynolds(trivial_representation(g)), identity_matrix(4, 1))


def test_reynolds_regular_c2():
    g = generate_group([SL2Elem.diag(CycNum.zeta(2))])
    p = reynolds(regular_representation(g))
    half = CycNum(2, [1], 2)
    assert mat_eq(p, [[half, half], [half, half]])
    assert mat_eq(mat_mul(p, p), p)
    assert mat_trace(p).is_one()


def test_reynolds_standard_quaternion_is_zero():
    g = quaternion_group()
    assert mat_is_zero(reynolds(standard_representation(g)))


def test_reynolds_idempotent_and_equivariant():
    g = catalog("binary_dihedral", 3).group()
    rep = standard_representation(g).tensor(standard_representation(g))
    p = reynolds(rep)
    assert mat_eq(mat_mul(p, p), p)
    for i in range(g.order):
        img = rep.image(i)
        assert mat_eq(mat_mul(img, p), mat_mul(p, img))


def test_orthogonality_cyclic():
    g = generate_group([SL2Elem.diag(CycNum.zeta(6))])
    rep = regular_representation(g)
    chars = unique_characters(cyclic_constituents(rep))
    assert len(chars) == 6
    one = CycNum.one(g.n)
    for i, c1 in enumerate(chars):
        for j, c2 in enumerate(chars):
            ip = c1.inner_product(c2)
            assert ip == (one if i == j else CycNum.zero(g.n))


@pytest.mark.parametrize("n_param", [2, 3])
def test_orthogonality_binary_dihedral(n_param):
    g = catalog("binary_dihedral", n_param).group()
    std = standard_representation(g)
    rep = std.tensor(std).direct_sum(std).direct_sum(trivial_representation(g))
    chars = unique_characters(binary_dihedral_constituents(rep))
    assert len(chars) >= 3
    one = CycNum.one(g.n)
    for i, c1 in enumerate(chars):
        for j, c2 in enumerate(chars):
            ip = c1.inner_product(c2)
            assert ip == (one if i == j else CycNum.zero(g.n))


def test_constituent_characters_sum_to_total():
    g = catalog("binary_dihedral", 2).group()
    rep = regular_representation(g)
    chars = binary_dihedral_constituents(rep)
    total = character(rep)
    acc = [CycNum.zero(g.n)] * len(total.values)
    for c in chars:
        acc = [x + y for x, y in zip(acc, c.values)]
    assert tuple(acc) == total.values
