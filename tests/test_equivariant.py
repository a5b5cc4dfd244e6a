from __future__ import annotations

import gc
import random
import weakref

import pytest

from equibundle import equivariant, ratfun
from equibundle.bundle import birkhoff_factor, splitting_type
from equibundle.cyclotomic import CycNum
from equibundle.equivariant import (
    CanonicalEntry,
    CanonicalForm,
    EquivariantBundle,
    build_from_canonical,
    check_hn_invariance,
    classify,
    classify_with_certificates,
    equiv_isomorphic,
    equivariant_splitting,
    extract_module,
    hn_invariance_failures,
    validate_equivariance,
)
from equibundle.errors import InvalidStructure, MathRejection
from equibundle.extensions import pgl_group
from equibundle.matgroup import (
    SL2Elem,
    catalog,
    generate_group,
    module_isomorphic,
    standard_representation,
    trivial_representation,
)
from equibundle.moebius import natural_structure
from equibundle.plant import (
    conjugated_modules,
    one_dim_reps,
    random_canonical_form,
    random_module,
    random_retrivialization,
)
from equibundle.ratfun import Poly, RatFun, RatMat
from oracles import brute_force_one_dim_reps


def c4_group():
    return generate_group([SL2Elem.diag(CycNum.zeta(4))])


def c3_group():
    return generate_group([SL2Elem.diag(CycNum.zeta(3))])


def test_natural_structure_validates():
    g = c4_group()
    for degree in (-2, 0, 1, 3):
        e = natural_structure(degree, g)
        report = validate_equivariance(e, level="all")
        assert report.ok, report.violations


def test_natural_structure_minus_identity_sign():
    # On the degree-1 bundle, -I acts on fibres by -1.
    g = c4_group()
    e = natural_structure(1, g)
    table = e.action_table()
    minus = g.minus_identity_index()
    assert table[minus] == RatMat([[RatFun.const(CycNum.from_int(4, -1))]])


def test_corrupted_cocycle_law_detected():
    # Scaling the generator action by 2 (infinite multiplicative order) breaks
    # the cocycle law on the relation s^4 = e.
    g = c4_group()
    e = natural_structure(1, g)
    bad_action = [a.scale(RatFun.const(CycNum.from_int(4, 2))) for a in e.gen_action]
    bad = EquivariantBundle(e.base, g, bad_action)
    report = validate_equivariance(bad, level="all")
    assert not report.ok
    assert any(v["kind"] == "cocycle_law" for v in report.violations)


def test_contradictory_action_of_generator_listed_twice_detected():
    # The spanning tree reaches the element through generator 0 only, so the
    # cocycle law and regularity never read generator 1's matrix.
    s = SL2Elem.diag(CycNum.zeta(4))
    g = generate_group([s, s])
    e = natural_structure(1, g)
    a = e.gen_action[0]
    bad = EquivariantBundle(e.base, g, [a, a.scale(RatFun.const(CycNum.from_int(4, 5)))])
    for level in ("all", "relations"):
        report = validate_equivariance(bad, level=level)
        assert report.violations == [{"kind": "generator_action_mismatch", "generator": 1}]
    with pytest.raises(InvalidStructure, match="generator_action_mismatch"):
        classify(bad)


def _cocycle_law(*pairs):
    return [{"kind": "cocycle_law", "pair": p} for p in pairs]


def _poles(*elements):
    kinds = ("chart0_pole_action", "chart0_pole_action_inverse", "pole_chart1", "pole_chart1_inverse")
    return [{"kind": k, "element": i} for i in elements for k in kinds]


def _singular(*elements):
    return [{"kind": "singular_action", "element": i} for i in elements]


def _invalid_bundles():
    g = catalog("binary_dihedral", 2).group()
    e = build_from_canonical(CanonicalForm([CanonicalEntry(1, standard_representation(g))]), g)
    n = g.n
    one, zero = RatFun.one(n), RatFun.zero(n)
    # Generator 0 scaled by 2: its (g^-1, g) pair fails.
    bad_pair = [e.gen_action[0].scale(RatFun.const(CycNum.from_int(n, 2))), e.gen_action[1]]
    # Chart 0 conjugated by diag(z - 2, 1) and the transition kept: the
    # cocycle law still holds, but the action and chart 1 gain poles.
    z_minus_2 = RatFun.from_poly(Poly(n, [CycNum.from_int(n, -2), CycNum.one(n)]))
    p = RatMat([[z_minus_2, zero], [zero, one]])
    p_inv = p.inv()
    pole = [p.compose_moebius(e.generator_moebius(t)) * a * p_inv for t, a in enumerate(e.gen_action)]
    singular = [RatMat([[one, zero], [zero, zero]]), e.gen_action[1]]
    return {
        name: EquivariantBundle(e.base, g, action)
        for name, action in (("bad_pair", bad_pair), ("pole", pole), ("singular", singular))
    }


INVALID_REPORTS = {
    ("bad_pair", "all"): (
        (64, 8),
        _cocycle_law(
            (2, 2), (2, 4), (2, 5), (2, 6), (4, 2), (4, 4), (4, 5), (4, 6),
            (5, 2), (5, 4), (5, 5), (5, 6), (6, 2), (6, 4), (6, 5), (6, 6),
        ),
    ),
    ("bad_pair", "relations"): ((16, 2), _cocycle_law((2, 2), (4, 2), (5, 2), (6, 2))),
    ("pole", "all"): ((64, 8), _poles(1, 2, 4, 5, 6, 7)),
    ("pole", "relations"): ((16, 2), _poles(2, 1)),
    ("singular", "all"): (
        (64, 8),
        _cocycle_law(
            (1, 5), (1, 6), (2, 2), (2, 4), (2, 5), (2, 6), (2, 7), (3, 4), (3, 5),
            (4, 1), (4, 2), (4, 3), (4, 4), (4, 5), (4, 6), (4, 7), (5, 2), (5, 3),
            (5, 4), (5, 5), (5, 6), (6, 1), (6, 2), (6, 4), (6, 5), (6, 6), (7, 2), (7, 5),
        )
        + _singular(2, 4, 5, 6),
    ),
    ("singular", "relations"): (
        (16, 2),
        _cocycle_law((2, 2), (4, 2), (4, 1), (5, 2), (6, 2), (6, 1), (7, 2)) + _singular(2),
    ),
}


def test_invalid_bundles_keep_their_violations():
    # Reports pinned from the Gauss-Jordan regularity check.  The pole bundle
    # passes every pair and so runs on certified inverses; the elements whose
    # (g^-1, g) pair fails take the fallback.
    bundles = _invalid_bundles()
    for (name, level), ((pairs, elements), violations) in INVALID_REPORTS.items():
        report = validate_equivariance(bundles[name], level=level)
        assert report.as_dict() == {
            "ok": False,
            "checked": {"cocycle_pairs": pairs, "regularity_elements": elements},
            "violations": violations,
        }, (name, level)


def test_valid_bundle_validation_inverts_only_the_transition(monkeypatch):
    g = catalog("binary_dihedral", 2).group()
    cf = CanonicalForm(
        [CanonicalEntry(1, standard_representation(g)), CanonicalEntry(0, trivial_representation(g))]
    )
    bundle = random_retrivialization(random.Random(3), build_from_canonical(cf, g))
    assert bundle.rank == 3
    calls = []
    original = RatMat.inv

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(RatMat, "inv", counting)
    for level in ("all", "relations"):
        calls.clear()
        assert validate_equivariance(bundle, level=level).ok
        assert calls == [bundle.base.transition], level


def test_validation_substitutes_once_per_element(monkeypatch):
    # Order 12, rank 3, action table prebuilt.  Level "all": one Moebius
    # kernel per element; the |G|^2 pair products plus C_g = T(g z)^-1 a_g T
    # (two products) per element; C_g^-1 is C_{g^-1} composed with g.
    g = catalog("binary_dihedral", 3).group()
    cf = CanonicalForm(
        [CanonicalEntry(1, standard_representation(g)), CanonicalEntry(0, trivial_representation(g))]
    )
    bundle = random_retrivialization(random.Random(3), build_from_canonical(cf, g))
    assert (g.order, bundle.rank) == (12, 3)
    bundle.action_table()
    counts = {"kernel": 0, "mul": 0, "inv": 0}

    def counting(name, original):
        def wrapper(*args):
            counts[name] += 1
            return original(*args)

        return wrapper

    monkeypatch.setattr(ratfun._MoebiusKernel, "__init__", counting("kernel", ratfun._MoebiusKernel.__init__))
    monkeypatch.setattr(RatMat, "__mul__", counting("mul", RatMat.__mul__))
    monkeypatch.setattr(RatMat, "inv", counting("inv", RatMat.inv))
    # Level "relations": 12 x 2 pairs, C for the two generators and their
    # inverses; kernels for the generators and their inverses.
    expected = {
        "all": {"kernel": 12, "mul": 144 + 2 * 12, "inv": 1},
        "relations": {"kernel": 4, "mul": 24 + 2 * 4, "inv": 1},
    }
    for level in ("all", "relations"):
        counts.update(kernel=0, mul=0, inv=0)
        assert validate_equivariance(bundle, level=level).ok
        assert counts == expected[level], level


def test_sign_rescaling_is_a_character_twist():
    # Scaling the C4 generator action by -1 is the twist by the order-2
    # character, hence still a valid structure with a different module.
    g = c4_group()
    e = natural_structure(1, g)
    twisted_action = [a.scale(RatFun.const(CycNum.from_int(4, -1))) for a in e.gen_action]
    twisted = EquivariantBundle(e.base, g, twisted_action)
    assert validate_equivariance(twisted, level="all").ok
    cf = classify(twisted)
    assert cf.degrees() == (1,)
    assert not module_isomorphic(cf.entries[0].module, trivial_representation(g))


def test_validation_survives_retrivialization():
    rng = random.Random(5)
    g = c3_group()
    cf = random_canonical_form(rng, g, max_entries=2)
    e = build_from_canonical(cf, g)
    twisted = random_retrivialization(rng, e)
    report = validate_equivariance(twisted, level="all")
    assert report.ok, report.violations


def test_hn_invariance_on_natural_sums():
    g = c4_group()
    cf = CanonicalForm(
        [
            CanonicalEntry(2, trivial_representation(g)),
            CanonicalEntry(0, standard_representation(g)),
        ]
    )
    e = build_from_canonical(cf, g)
    assert check_hn_invariance(e)


def test_hn_invariance_planted_twist():
    rng = random.Random(11)
    g = c3_group()
    cf = random_canonical_form(rng, g, max_entries=2)
    e = random_retrivialization(rng, build_from_canonical(cf, g))
    assert validate_equivariance(e, level="relations").ok
    assert check_hn_invariance(e)


def test_hn_invariance_detects_corruption():
    g = c4_group()
    cf = CanonicalForm(
        [
            CanonicalEntry(1, trivial_representation(g)),
            CanonicalEntry(-1, trivial_representation(g)),
        ]
    )
    e = build_from_canonical(cf, g)
    # Swap the two coordinates: the top filtration step is no longer preserved.
    zero, one = RatFun.zero(g.n), RatFun.one(g.n)
    swap = RatMat([[zero, one], [one, zero]])
    bad = EquivariantBundle(e.base, g, [swap * a for a in e.gen_action])
    failures = hn_invariance_failures(bad)
    assert failures
    assert failures[0]["step"] == 0


def test_equivariant_splitting_fixes_given_splitting():
    # If psi is already equivariant, averaging returns it unchanged.
    g = c4_group()
    total = build_from_canonical(
        CanonicalForm(
            [
                CanonicalEntry(1, trivial_representation(g)),
                CanonicalEntry(0, trivial_representation(g)),
            ]
        ),
        g,
    )
    quotient = natural_structure(0, g)
    zero, one = RatFun.zero(g.n), RatFun.one(g.n)
    q = RatMat([[zero, one]])
    psi = RatMat([[zero], [one]])
    averaged = equivariant_splitting(total, quotient, q, psi)
    assert averaged == psi


def test_equivariant_splitting_averages_perturbation():
    # C2 acting by z -> -z on the degree-(2,0) bundle; perturb the canonical
    # splitting by a non-invariant homomorphism and average it away.
    g = generate_group([SL2Elem.diag(CycNum.zeta(4))])  # contains z -> -z
    total = build_from_canonical(
        CanonicalForm(
            [
                CanonicalEntry(2, trivial_representation(g)),
                CanonicalEntry(0, trivial_representation(g)),
            ]
        ),
        g,
    )
    quotient = natural_structure(0, g)
    n = g.n
    zero, one = RatFun.zero(n), RatFun.one(n)
    q = RatMat([[zero, one]])
    # psi = (p(z), 1) with p of degree <= 2 is still a holomorphic splitting;
    # an even p is not invariant under z -> -z with the degree-2 factor.
    p = RatFun.from_poly(Poly.from_ints(n, [1]))
    psi = RatMat([[p], [one]])
    averaged = equivariant_splitting(total, quotient, q, psi)
    assert (q * averaged).is_identity()
    assert averaged != psi
    assert averaged.entries[0][0].is_zero()


def test_classify_natural_structure():
    g = c4_group()
    for d in (-2, 0, 3):
        cf = classify(natural_structure(d, g))
        assert cf.degrees() == (d,)
        assert cf.entries[0].module.dim == 1
        assert module_isomorphic(cf.entries[0].module, trivial_representation(g))


def test_classify_recovers_standard_module():
    g = c3_group()
    built = build_from_canonical(
        CanonicalForm([CanonicalEntry(0, standard_representation(g))]), g
    )
    cf = classify(built)
    assert cf.degrees() == (0,)
    assert module_isomorphic(cf.entries[0].module, standard_representation(g))


def test_extract_module_on_semistable_piece():
    g = c4_group()
    e = natural_structure(1, g)
    m = extract_module(e)
    assert m.dim == 1
    assert module_isomorphic(m, trivial_representation(g))


def test_extract_module_rejects_unstable():
    g = c4_group()
    cf = CanonicalForm(
        [
            CanonicalEntry(1, trivial_representation(g)),
            CanonicalEntry(0, trivial_representation(g)),
        ]
    )
    e = build_from_canonical(cf, g)
    with pytest.raises(MathRejection):
        extract_module(e)



def test_extract_module_factors_once(monkeypatch):
    calls = []

    def counting(cocycle):
        calls.append(cocycle)
        return birkhoff_factor(cocycle)

    monkeypatch.setattr(equivariant, "birkhoff_factor", counting)
    extract_module(natural_structure(1, c4_group()))
    assert len(calls) == 1

@pytest.mark.parametrize(
    "family,param",
    [("cyclic", 2), ("cyclic", 3), ("cyclic", 4), ("binary_dihedral", 2)],
)
def test_round_trip_small_groups(family, param):
    entry = catalog(family, param)
    g = entry.group()
    rng = random.Random(1000 + entry.order)
    for _ in range(4):
        cf = random_canonical_form(rng, g, min_deg=-3, max_deg=3, max_dim=2)
        planted = conjugated_modules(rng, cf)
        bundle = random_retrivialization(rng, build_from_canonical(planted, g))
        recovered = classify(bundle)
        assert recovered.equal_up_to_iso(cf), (family, param, cf.degrees())


def test_classify_certificates_contents():
    g = c3_group()
    rng = random.Random(77)
    cf = random_canonical_form(rng, g, max_entries=2)
    bundle = random_retrivialization(rng, build_from_canonical(cf, g))
    recovered, certs = classify_with_certificates(bundle)
    assert certs["factorization_residual_zero"]
    assert certs["validation"]["ok"]
    assert all(stage["right_inverse"] and stage["equivariant"] for stage in certs["averaging"])
    assert tuple(certs["underlying_type"]) == recovered.degree_multiset()


def test_underlying_type_matches_splitting_type():
    rng = random.Random(31)
    g = c4_group()
    cf = random_canonical_form(rng, g, max_entries=2)
    bundle = random_retrivialization(rng, build_from_canonical(cf, g))
    assert classify(bundle).degree_multiset() == splitting_type(bundle.base)


def test_equiv_isomorphic_positive_and_negative():
    g = c3_group()
    rng = random.Random(13)
    cf = random_canonical_form(rng, g, max_entries=1, max_dim=2)
    b1 = build_from_canonical(cf, g)
    b2 = random_retrivialization(rng, build_from_canonical(conjugated_modules(rng, cf), g))
    assert equiv_isomorphic(b1, b2)
    chars = one_dim_reps(g)
    nontrivial = next(r for r in chars if not module_isomorphic(r, trivial_representation(g)))
    other = build_from_canonical(
        CanonicalForm([CanonicalEntry(cf.entries[0].degree, nontrivial)]), g
    )
    if cf.entries[0].module.dim == 1 and module_isomorphic(cf.entries[0].module, nontrivial):
        assert equiv_isomorphic(b1, other)
    else:
        assert not equiv_isomorphic(b1, other)


_CHARACTER_GROUPS = (
    [("cyclic", m) for m in range(2, 7)]
    + [("binary_dihedral", m) for m in (2, 3, 4)]
    + [(family, None) for family in ("binary_tetrahedral", "binary_octahedral", "binary_icosahedral")]
)


@pytest.mark.parametrize("family, param", _CHARACTER_GROUPS)
def test_one_dim_reps_match_brute_force(family, param):
    # Exponent arithmetic finds the characters that trying every tuple of
    # generator images finds, in the same order and with the same images,
    # over the group, its image in PGL(2) and that image's preimage.
    g = catalog(family, param).group()
    h = pgl_group([g.elements[i] for i in g.generator_indices])
    for group in (g, h, h.preimage):
        got, want = one_dim_reps(group), brute_force_one_dim_reps(group)
        assert [r.images for r in got] == [r.images for r in want]


def test_one_dim_reps_with_redundant_generators():
    # A generator listed twice, and one that is a product of the others.
    a = SL2Elem.diag(CycNum.zeta(12))
    for gens in ([a, a], [a, a * a], [a * a, a, a * a * a]):
        group = generate_group(gens)
        got, want = one_dim_reps(group), brute_force_one_dim_reps(group)
        assert [r.images for r in got] == [r.images for r in want]


def test_classify_rejects_invalid_action():
    g = c4_group()
    e = natural_structure(2, g)
    bad_action = [a.scale(RatFun.const(CycNum.from_int(4, 2))) for a in e.gen_action]
    bad = EquivariantBundle(e.base, g, bad_action)
    with pytest.raises(InvalidStructure):
        classify(bad)


def test_extract_module_nonsplit_pgl_odd_piece():
    # Two copies of the degree-1 bundle over the order-2 projective group
    # whose preimage is Z/4: the extracted module is 2-dimensional over Z/4
    # with the central element acting by minus the identity.
    from equibundle.extensions import pgl_group
    from equibundle.matgroup import standard_representation

    h = pgl_group([SL2Elem.from_ints(4, 0, 1, -1, 0)])
    pre = h.preimage
    cf = CanonicalForm([CanonicalEntry(1, standard_representation(pre), "odd_twist")])
    bundle = build_from_canonical(cf, h)
    module = extract_module(bundle)
    assert module.dim == 2
    assert module.group.elements == pre.elements
    assert module.is_odd_twist()
    assert module_isomorphic(module, standard_representation(pre))



def test_odd_plain_entry_over_generator_listed_twice():
    # The sign search settles on gen_lifts (-r, r); both generators name the
    # same element, so both must act by the one lift its tree path assigns.
    from equibundle.extensions import pgl_group

    r = catalog("cyclic", 6).generators[0]
    h = pgl_group([r, r])
    cf = CanonicalForm([CanonicalEntry(1, trivial_representation(h))])
    bundle = build_from_canonical(cf, h)
    assert bundle.gen_action[0] == bundle.gen_action[1]
    assert classify(bundle).equal_up_to_iso(cf)

def test_intro_existence_every_type_admits_structure():
    # Natural structures assemble to an equivariant structure on any
    # splitting type: constructive existence over a catalog group.
    g = catalog("binary_dihedral", 2).group()
    triv = trivial_representation(g)
    for degrees in [(2,), (1, 0), (3, -1), (0, -2)]:
        entries = [CanonicalEntry(d, triv) for d in degrees]
        bundle = build_from_canonical(CanonicalForm(entries), g)
        assert validate_equivariance(bundle, level="all").ok
        assert splitting_type(bundle.base) == degrees


def test_module_pools_die_with_their_group():
    group = catalog("binary_dihedral", 2).group()
    random_module(random.Random(0), group, 2)
    ref = weakref.ref(group)
    del group
    gc.collect()
    assert ref() is None
