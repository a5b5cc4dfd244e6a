"""Global sections of canonical-form bundles as exact group modules.

The degree-d summand contributes its (d+1)-dimensional space of sections
tensored with the summand module; the section space carries the d-th
symmetric power of the standard 2-dimensional representation under the
normalization fixed in the moebius module.  In the non-split projective odd
case the two central signs cancel and the result is a module of the
projective group itself.
"""

from __future__ import annotations

from .cyclotomic import CycNum
from .equivariant import CanonicalForm, EquivariantBundle, _lift_for_entry, check_entries
from .errors import InvalidStructure, MalformedInput
from .extensions import PGLGroup, SplittingHom
from .linalg import kron, mat_eq, rref
from .matgroup import Representation
from .moebius import MoebiusMap, sym_power_matrix
from .ratfun import RatFun

__all__ = ["sections_module", "transported_sections_module"]


def sections_module(cf: CanonicalForm, group, gamma: SplittingHom | None = None) -> Representation:
    """Direct sum over nonnegative-degree entries of Sym^d tensored with the module."""
    if isinstance(group, PGLGroup) and gamma is None:
        gamma = group.splitting()
    check_entries(cf, group, gamma)
    total = Representation.zero_module(group)
    for entry in cf.entries:
        d = entry.degree
        if d < 0:
            continue
        module = entry.module
        gen_images = []
        for t in range(len(group.generator_indices)):
            lift = _lift_for_entry(group, t, d, gamma)
            mod_img = module.image(module.group.element_index(lift))
            block = kron(sym_power_matrix(lift, d), mod_img)
            if entry.parity == "odd_twist":
                # Central cancellation: the minus lift must give the same block.
                other = kron(
                    sym_power_matrix(-lift, d),
                    module.image(module.group.element_index(-lift)),
                )
                if not mat_eq(block, other):
                    raise InvalidStructure("central signs failed to cancel")
            gen_images.append(block)
        dim = (d + 1) * module.dim
        piece = Representation.from_generator_images(group, dim, gen_images)
        total = total.direct_sum(piece)
    return total


def transported_sections_module(bundle: EquivariantBundle) -> Representation:
    """Module structure on H^0 computed by transporting an explicit basis.

    Each basis section s is moved to g.s with chart-0 expression
    a_g(g^(-1) z) s0(g^(-1) z); the result is expanded in the basis again,
    exactly.  This is the independent cross-check for sections_module.
    """
    from .bundle import section_basis

    group = bundle.group
    n = bundle.n
    pairs = section_basis(bundle.base, 0)
    dim = len(pairs)
    if dim == 0:
        return Representation.zero_module(group)
    max_deg = 0
    for s0, _ in pairs:
        for p in s0:
            max_deg = max(max_deg, p.degree())
    rank = bundle.rank

    def flatten(vec_polys) -> list[CycNum]:
        out = []
        for p in vec_polys:
            if p.is_zero():
                out.extend([CycNum.zero(n)] * (max_deg + 1))
            else:
                out.extend(p.coeff(i) for i in range(max_deg + 1))
        return out

    basis_columns = [flatten(s0) for s0, _ in pairs]
    gen_images = []
    for t in range(len(group.generator_indices)):
        elem = group.elements[group.generator_indices[t]]
        inv_mob = MoebiusMap(elem.inv())
        a_mat = bundle.gen_action[t]
        a_at_inv = a_mat.compose_moebius(inv_mob)
        cols = []
        for s0, _ in pairs:
            vec = [RatFun.from_poly(p) for p in s0]
            vec_at_inv = [f.compose_moebius(inv_mob) for f in vec]
            moved = a_at_inv.mul_vector(vec_at_inv)
            polys = []
            for f in moved:
                if not f.is_polynomial():
                    raise InvalidStructure("transported section is not holomorphic")
                if f.num.degree() > max_deg:
                    raise InvalidStructure("transported section left the section space")
                polys.append(f.num)
            cols.append(flatten(polys))
        # Solve basis * X = moved columns, exactly.
        rows = len(basis_columns[0])
        aug = [
            [basis_columns[j][i] for j in range(dim)] + [cols[j][i] for j in range(dim)]
            for i in range(rows)
        ]
        reduced, pivots = rref(aug)
        if pivots[:dim] != list(range(dim)):
            raise MalformedInput("section basis is degenerate")
        for r in range(dim, len(reduced)):
            if any(not x.is_zero() for x in reduced[r]):
                raise InvalidStructure("transported sections do not span the basis")
        image = [[reduced[i][dim + j] for j in range(dim)] for i in range(dim)]
        gen_images.append(image)
    return Representation.from_generator_images(group, dim, gen_images)
