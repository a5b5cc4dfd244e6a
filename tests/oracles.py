"""Independent test oracles.

The constituent splitter here decomposes representations of cyclic and binary
dihedral groups into irreducible pieces by exact eigenspace splitting, without
using character orthogonality, so orthogonality can be *tested* against it.
"""

from __future__ import annotations

from equibundle.cyclotomic import CycNum
from equibundle.linalg import mat_vec, nullspace
from equibundle.matgroup import CharacterVector, Representation, SL2Elem


def _eigenspace(mat, lam: CycNum):
    size = len(mat)
    shifted = [
        [mat[i][j] - lam if i == j else mat[i][j] for j in range(size)]
        for i in range(size)
    ]
    return nullspace(shifted)


def _restrict(mat, basis):
    """Matrix of mat on the span of basis, solving exactly; basis must be stable."""
    from equibundle.linalg import rref

    n = basis[0][0].n
    images = [mat_vec(mat, v) for v in basis]
    # Solve basis-matrix * X = images columnwise via rref of [basis | images].
    rows = len(basis[0])
    cols = len(basis)
    aug = [[basis[j][i] for j in range(cols)] + [img[i] for img in images] for i in range(rows)]
    reduced, pivots = rref(aug)
    assert pivots[:cols] == list(range(cols)), "basis is not independent"
    for r in range(cols, len(reduced)):
        assert all(x.is_zero() for x in reduced[r]), "span is not stable"
    return [[reduced[i][cols + j] for j in range(cols)] for i in range(cols)]


def cyclic_constituents(rep: Representation, gen_pos: int = 0) -> list[CharacterVector]:
    """1-dimensional constituents of a cyclic-group representation, with multiplicity."""
    group = rep.group
    gi = group.generator_indices[gen_pos]
    m = group.element_order(gi)
    a_mat = rep.image(gi)
    out: list[CharacterVector] = []
    total = 0
    for j in range(m):
        lam = CycNum.root_of_unity(group.n, m, j)
        space = _eigenspace(a_mat, lam)
        if not space:
            continue
        model = Representation.from_generator_images(group, 1, [[[lam]]])
        out.extend([model.character()] * len(space))
        total += len(space)
    assert total == rep.dim, "eigenspaces do not fill the space"
    return out


def binary_dihedral_constituents(rep: Representation) -> list[CharacterVector]:
    """Constituents of a binary dihedral representation via eigenspace splitting.

    Generators are assumed in catalog order: a (rotation of order 2n), b (flip).
    The ambient modulus must contain i, which the catalog guarantees.
    """
    group = rep.group
    ai, bi = group.generator_indices[0], group.generator_indices[1]
    m = group.element_order(ai)  # 2n
    a_mat, b_mat = rep.image(ai), rep.image(bi)
    n_param = m // 2
    out: list[CharacterVector] = []
    total = 0
    zero = CycNum.zero(group.n)
    for j in range(n_param + 1):
        lam = CycNum.root_of_unity(group.n, m, j)
        space = _eigenspace(a_mat, lam)
        if not space:
            continue
        if j % n_param == 0:  # lam = +-1: split the b-action inside
            b_res = _restrict(b_mat, space)
            lam_n = CycNum.root_of_unity(group.n, m, (j * n_param) % m)
            for beta_k in range(4):
                beta = CycNum.root_of_unity(group.n, 4, beta_k)
                if not (beta * beta == lam_n):
                    continue
                sub = _eigenspace(b_res, beta)
                if not sub:
                    continue
                model = Representation.from_generator_images(
                    group, 1, [[[lam]], [[beta]]]
                )
                out.extend([model.character()] * len(sub))
                total += len(sub)
        else:  # generic eigenvalue: v and b.v span a 2-dimensional constituent
            lam_n = CycNum.root_of_unity(group.n, m, (j * n_param) % m)
            model_a = [[lam, zero], [zero, lam.inv()]]
            model_b = [[zero, lam_n], [CycNum.one(group.n), zero]]
            model = Representation.from_generator_images(group, 2, [model_a, model_b])
            out.extend([model.character()] * len(space))
            total += 2 * len(space)
    assert total == rep.dim, "eigenspaces do not fill the space"
    return out


def unique_characters(chars: list[CharacterVector]) -> list[CharacterVector]:
    seen = []
    for c in chars:
        if not any(c == s for s in seen):
            seen.append(c)
    return seen


def direct_closure_tables(gens: list[SL2Elem], normalize=lambda g: g):
    """Breadth-first closure with the multiplication table from all |G|^2 products.

    The same search and element order as matgroup.closure_tables, written
    out independently, with mul[x][y] the index of normalize(x * y) formed
    directly for every pair.  Returns (elements, mul_table, gen_indices,
    parent, last_gen).
    """
    gens = [normalize(g) for g in gens]
    elements = [normalize(SL2Elem.identity(gens[0].n))]
    index = {elements[0]: 0}
    parent, last_gen = [0], [-1]
    frontier = [0]
    while frontier:
        found = {}
        for xi in frontier:
            for gi, g in enumerate(gens):
                y = normalize(elements[xi] * g)
                if y not in index and y not in found:
                    found[y] = (xi, gi)
        frontier = []
        for y in sorted(found, key=SL2Elem.sort_key):
            index[y] = len(elements)
            frontier.append(len(elements))
            elements.append(y)
            parent.append(found[y][0])
            last_gen.append(found[y][1])
    table = [[index[normalize(x * y)] for y in elements] for x in elements]
    return elements, table, [index[g] for g in gens], parent, last_gen
