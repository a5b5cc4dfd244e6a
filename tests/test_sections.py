from __future__ import annotations

import random

from equibundle.cyclotomic import CycNum
from equibundle.equivariant import (
    CanonicalEntry,
    CanonicalForm,
    build_from_canonical,
)
from equibundle.matgroup import (
    SL2Elem,
    catalog,
    character,
    generate_group,
    module_isomorphic,
    standard_representation,
    trivial_representation,
)
from equibundle.extensions import pgl_group
from equibundle.plant import random_canonical_form
from equibundle.sections import sections_module, transported_sections_module


def c3_group():
    return generate_group([SL2Elem.diag(CycNum.zeta(3))])


def test_degree_zero_gives_module_back():
    g = c3_group()
    m = standard_representation(g)
    cf = CanonicalForm([CanonicalEntry(0, m)])
    sec = sections_module(cf, g)
    assert sec.dim == 2
    assert module_isomorphic(sec, m)


def test_negative_degree_gives_zero_module():
    g = c3_group()
    cf = CanonicalForm([CanonicalEntry(-1, standard_representation(g))])
    sec = sections_module(cf, g)
    assert sec.dim == 0
    assert all(v.is_zero() for v in sec.character().values)


def test_degree_one_trivial_module_over_c3():
    # Sections of the degree-1 bundle carry the standard module: character
    # values (2, zeta + zeta^2-conjugate pattern) at the three classes.
    g = c3_group()
    cf = CanonicalForm([CanonicalEntry(1, trivial_representation(g))])
    sec = sections_module(cf, g)
    assert sec.dim == 2
    chi = character(sec)
    z = CycNum.zeta(3)
    values_by_class = {}
    for ci, members in enumerate(g.conjugacy_classes):
        values_by_class[members[0]] = chi.values[ci]
    # element 0 is the identity; the other two classes are the two rotations
    assert values_by_class[0] == CycNum.from_int(3, 2)
    expected = {z + z.inv(), z * z + (z * z).inv()}
    got = {v for k, v in values_by_class.items() if k != 0}
    assert got == expected


def test_dimension_formula():
    rng = random.Random(9)
    g = catalog("binary_dihedral", 2).group()
    for _ in range(6):
        cf = random_canonical_form(rng, g, min_deg=-2, max_deg=3, max_dim=2)
        sec = sections_module(cf, g)
        expected = sum(
            (e.degree + 1) * e.module.dim for e in cf.entries if e.degree >= 0
        )
        assert sec.dim == expected


def test_symbolic_matches_transported_sl2():
    rng = random.Random(21)
    for entry in [catalog("cyclic", 4), catalog("binary_dihedral", 2)]:
        g = entry.group()
        for _ in range(3):
            cf = random_canonical_form(rng, g, min_deg=-2, max_deg=2, max_dim=2)
            bundle = build_from_canonical(cf, g)
            symbolic = sections_module(cf, g)
            transported = transported_sections_module(bundle)
            assert symbolic.dim == transported.dim
            if symbolic.dim:
                assert symbolic.character() == transported.character()


def test_symbolic_matches_transported_nonsplit_pgl():
    rng = random.Random(33)
    h = pgl_group([SL2Elem.from_ints(4, 0, 1, -1, 0)])
    assert h.splitting() is None
    for _ in range(4):
        cf = random_canonical_form(rng, h, min_deg=-1, max_deg=2, max_dim=2)
        bundle = build_from_canonical(cf, h)
        symbolic = sections_module(cf, h)
        transported = transported_sections_module(bundle)
        assert symbolic.dim == transported.dim
        if symbolic.dim:
            assert symbolic.character() == transported.character()


def test_central_cancellation_well_defined_on_pgl():
    # For an odd entry over a non-split projective group both lifts give the
    # same section action; sections_module checks this exactly and the result
    # is a module of the projective group (not its preimage).
    h = pgl_group([SL2Elem.from_ints(4, 0, 1, -1, 0)])
    pre = h.preimage
    std = standard_representation(pre)
    cf = CanonicalForm([CanonicalEntry(1, std, "odd_twist")])
    sec = sections_module(cf, h)
    assert sec.group is h
    assert sec.dim == 4


def test_module_group_may_list_its_elements_in_another_order():
    # The catalog group is the preimage of its projective image, but its
    # breadth-first order differs; images are looked up by element.
    g = catalog("binary_dihedral", 2).group()
    h = pgl_group([g.elements[i] for i in g.generator_indices])
    assert g.elements != h.preimage.elements
    assert set(g.elements) == set(h.preimage.elements)
    forms = [
        CanonicalForm([CanonicalEntry(1, standard_representation(pre), "odd_twist")])
        for pre in (g, h.preimage)
    ]
    assert sections_module(forms[0], h).images == sections_module(forms[1], h).images
    bundles = [build_from_canonical(cf, h) for cf in forms]
    assert bundles[0].gen_action == bundles[1].gen_action
