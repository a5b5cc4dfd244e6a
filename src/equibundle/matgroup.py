"""Finite matrix subgroups of SL(2, C): closure, structure and representations.

Groups are generated by breadth-first closure from generator matrices.  The
element order is deterministic: level by level, with each new level sorted by
coefficient order, and the identity always at index 0.  Every produced table
is immutable afterwards and safe for concurrent readers.
"""

from __future__ import annotations

from math import lcm
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from .cyclotomic import CycNum
from .errors import (
    ClosureCapExceeded,
    DimensionMismatch,
    MalformedInput,
    MathRejection,
    ModulusMismatch,
)
from .linalg import (
    Matrix,
    identity_matrix,
    kron,
    mat_eq,
    mat_is_identity,
    mat_mul,
    mat_scale,
    mat_trace,
    zero_matrix,
)

__all__ = [
    "SL2Elem",
    "TabularGroup",
    "FiniteMatrixGroup",
    "Representation",
    "CharacterVector",
    "CatalogEntry",
    "generate_group",
    "catalog",
    "conjugacy_classes",
    "character",
    "module_isomorphic",
    "reynolds",
    "regular_representation",
    "trivial_representation",
    "standard_representation",
]

DEFAULT_CLOSURE_CAP = 240

T = TypeVar("T")


class SL2Elem:
    """A 2x2 matrix over Q(zeta_N) with determinant one."""

    __slots__ = ("n", "a", "b", "c", "d")

    def __init__(self, a: CycNum, b: CycNum, c: CycNum, d: CycNum, check: bool = True):
        if not (a.n == b.n == c.n == d.n):
            raise ModulusMismatch("mixed moduli in matrix entries")
        self.n = a.n
        self.a, self.b, self.c, self.d = a, b, c, d
        if check:
            det = a * d - b * c
            if not det.is_one():
                raise MathRejection(f"determinant is {det!r}, expected 1")

    @staticmethod
    def identity(n: int) -> SL2Elem:
        one, zero = CycNum.one(n), CycNum.zero(n)
        return SL2Elem(one, zero, zero, one, check=False)

    @staticmethod
    def from_ints(n: int, a: int, b: int, c: int, d: int) -> SL2Elem:
        f = lambda v: CycNum.from_int(n, v)
        return SL2Elem(f(a), f(b), f(c), f(d))

    @staticmethod
    def diag(x: CycNum) -> SL2Elem:
        zero = CycNum.zero(x.n)
        return SL2Elem(x, zero, zero, x.inv())

    def __mul__(self, other: SL2Elem) -> SL2Elem:
        return SL2Elem(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            check=False,
        )

    def inv(self) -> SL2Elem:
        return SL2Elem(self.d, -self.b, -self.c, self.a, check=False)

    def __neg__(self) -> SL2Elem:
        return SL2Elem(-self.a, -self.b, -self.c, -self.d, check=False)

    def trace(self) -> CycNum:
        return self.a + self.d

    def is_identity(self) -> bool:
        return self.a.is_one() and self.d.is_one() and self.b.is_zero() and self.c.is_zero()

    def matrix(self) -> Matrix:
        return [[self.a, self.b], [self.c, self.d]]

    def promote(self, m: int) -> SL2Elem:
        return SL2Elem(
            self.a.promote(m), self.b.promote(m), self.c.promote(m), self.d.promote(m),
            check=False,
        )

    def key(self) -> tuple:
        return (self.a, self.b, self.c, self.d)

    def sort_key(self) -> tuple:
        return (
            self.a.sort_key(), self.b.sort_key(), self.c.sort_key(), self.d.sort_key()
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SL2Elem):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"SL2Elem([[{self.a!r}, {self.b!r}], [{self.c!r}, {self.d!r}]])"


class TabularGroup:
    """A finite group held as closure tables: products, inverses, classes.

    elements[0] is the identity; parent/last_gen record the breadth-first
    spanning tree used to extend generator-level data to the whole group.
    """

    def __init__(
        self,
        elements: Sequence[SL2Elem],
        mul_table: Sequence[Sequence[int]],
        generator_indices: Sequence[int],
        parent: Sequence[int],
        last_gen: Sequence[int],
    ):
        self.elements = tuple(elements)
        self.n = elements[0].n
        self.order = len(elements)
        self.mul_table = tuple(tuple(row) for row in mul_table)
        self.generator_indices = tuple(generator_indices)
        self.parent = tuple(parent)
        self.last_gen = tuple(last_gen)
        self.index = {e.key(): i for i, e in enumerate(self.elements)}
        self.inverse_table = self._build_inverses()
        self.conjugacy_classes = self._build_classes()
        self.class_of = [0] * self.order
        for ci, members in enumerate(self.conjugacy_classes):
            for m in members:
                self.class_of[m] = ci
        self.class_reps = tuple(members[0] for members in self.conjugacy_classes)
        # Random-module building blocks per parity, filled lazily by plant.
        self.module_pools: dict[str, list[Representation]] = {}

    def _build_inverses(self) -> tuple[int, ...]:
        inv = [-1] * self.order
        for i in range(self.order):
            for j in range(self.order):
                if self.mul_table[i][j] == 0:
                    inv[i] = j
                    break
            if inv[i] < 0:
                raise MathRejection("element without inverse; closure is broken")
        return tuple(inv)

    def _build_classes(self) -> tuple[tuple[int, ...], ...]:
        seen = [False] * self.order
        classes: list[tuple[int, ...]] = []
        for i in range(self.order):
            if seen[i]:
                continue
            orbit = set()
            for g in range(self.order):
                x = self.mul_table[g][self.mul_table[i][self.inverse_table[g]]]
                orbit.add(x)
            members = tuple(sorted(orbit))
            for m in members:
                seen[m] = True
            classes.append(members)
        classes.sort(
            key=lambda ms: (len(ms), self.elements[ms[0]].trace().sort_key(), ms[0])
        )
        return tuple(classes)

    # -- queries ------------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        return self.mul_table[i][j]

    def inv(self, i: int) -> int:
        return self.inverse_table[i]

    def element_index(self, g: SL2Elem) -> int:
        try:
            return self.index[g.key()]
        except KeyError:
            raise MalformedInput("element does not belong to the group") from None

    def word(self, i: int) -> tuple[int, ...]:
        """Generator-index word whose left-to-right product is element i."""
        out: list[int] = []
        while i != 0:
            out.append(self.last_gen[i])
            i = self.parent[i]
        return tuple(reversed(out))

    def extend(self, first: T, step: Callable[[T, int], T]) -> list[T]:
        """Extend generator-level data to every element along the spanning tree.

        Entry 0 is first and entry i is step(entry parent[i], last_gen[i]),
        so step(x, t) = x * (image of generator t) gives the image of word(i).
        Parents precede their children in element order.
        """
        out = [first]
        for i in range(1, self.order):
            out.append(step(out[self.parent[i]], self.last_gen[i]))
        return out

    def element_order(self, i: int) -> int:
        order = 1
        x = i
        while x != 0:
            x = self.mul(x, i)
            order += 1
        return order

    def __len__(self) -> int:
        return self.order

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.elements == other.elements

    def __repr__(self) -> str:
        return f"{type(self).__name__}(order={self.order}, modulus={self.n})"


class FiniteMatrixGroup(TabularGroup):
    """A finite subgroup of SL(2, C) with full multiplication tables."""

    def minus_identity_index(self) -> Optional[int]:
        key = (-SL2Elem.identity(self.n)).key()
        idx = self.index.get(key)
        return idx


def closure_tables(
    gens: list[SL2Elem],
    cap: int,
    normalize=lambda g: g,
):
    """Breadth-first closure with deterministic ordering.

    normalize maps each product to a canonical representative before
    indexing; the identity map gives a matrix group, sign normalization
    gives projective cosets.  Returns (elements, mul_table, gen_indices,
    parent, last_gen).

    The search forms x * g_t for every element x and generator t, and keeps
    the index of each product: the right Cayley graph.  When it ends, the
    set is closed under right multiplication by every generator, so by
    induction on word length it is closed under every product of
    generators; in a finite group g^-1 is a positive power of g, so the set
    is the group.  Element y is parent[y] * g_last_gen[y], hence
    x * y = (x * parent[y]) * g_last_gen[y], and each row of mul_table fills
    in element order by lookups alone (parents precede their children).
    Sign normalization commutes with products, (-x) y = -(x y), so the same
    holds for projective cosets.
    """
    if not gens:
        raise MalformedInput("at least one generator required")
    n = gens[0].n
    for g in gens:
        if g.n != n:
            raise ModulusMismatch("generators with mixed moduli")
        det = g.a * g.d - g.b * g.c
        if not det.is_one():
            raise MathRejection("generator determinant is not 1")
    gens = [normalize(g) for g in gens]
    identity = normalize(SL2Elem.identity(n))
    elements: list[SL2Elem] = [identity]
    index = {identity.key(): 0}
    parent = [0]
    last_gen = [-1]
    right_keys: list[list[tuple]] = []  # right_keys[x][t]: key of x * g_t
    frontier = [0]
    while frontier:
        discovered: dict[tuple, tuple[SL2Elem, int, int]] = {}
        for xi in frontier:
            x = elements[xi]
            keys = []
            for gi, g in enumerate(gens):
                y = normalize(x * g)
                k = y.key()
                keys.append(k)
                if k not in index and k not in discovered:
                    discovered[k] = (y, xi, gi)
            right_keys.append(keys)
        new_items = sorted(discovered.values(), key=lambda t: t[0].sort_key())
        frontier = []
        for y, xi, gi in new_items:
            if len(elements) >= cap:
                raise ClosureCapExceeded(
                    f"closure exceeds cap {cap}; group may be infinite"
                )
            index[y.key()] = len(elements)
            elements.append(y)
            parent.append(xi)
            last_gen.append(gi)
            frontier.append(len(elements) - 1)
    right = [[index[k] for k in keys] for keys in right_keys]
    mul_table = []
    for x in range(len(elements)):
        row = [x]
        for y in range(1, len(elements)):
            row.append(right[row[parent[y]]][last_gen[y]])
        mul_table.append(row)
    gen_indices = [index[g.key()] for g in gens]
    return elements, mul_table, gen_indices, parent, last_gen


def generate_group(gens: Iterable[SL2Elem], cap: int = DEFAULT_CLOSURE_CAP) -> FiniteMatrixGroup:
    """Breadth-first closure of the generators, with deterministic ordering."""
    elements, mul_table, gen_indices, parent, last_gen = closure_tables(list(gens), cap)
    return FiniteMatrixGroup(elements, mul_table, gen_indices, parent, last_gen)


def conjugacy_classes(group: FiniteMatrixGroup) -> tuple[tuple[int, ...], ...]:
    return group.conjugacy_classes


class CharacterVector:
    """One trace value per conjugacy class, taken at the class representative."""

    __slots__ = ("group", "values")

    def __init__(self, group: FiniteMatrixGroup, values: Sequence[CycNum]):
        if len(values) != len(group.conjugacy_classes):
            raise DimensionMismatch("one value per conjugacy class required")
        self.group = group
        self.values = tuple(values)

    def dim(self) -> CycNum:
        identity_class = self.group.class_of[0]
        return self.values[identity_class]

    def inner_product(self, other: CharacterVector) -> CycNum:
        if self.group.elements != other.group.elements:
            raise MalformedInput("characters over different groups")
        group = self.group
        acc = CycNum.zero(group.n)
        for ci, members in enumerate(group.conjugacy_classes):
            size = CycNum.from_int(group.n, len(members))
            acc = acc + size * self.values[ci] * other.values[ci].conj()
        return acc * CycNum.from_int(group.n, group.order).inv()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CharacterVector):
            return NotImplemented
        return self.group.elements == other.group.elements and self.values == other.values

    def __repr__(self) -> str:
        return f"CharacterVector({[v for v in self.values]!r})"


class Representation:
    """A matrix representation of a finite group, one image per element."""

    def __init__(self, group: FiniteMatrixGroup, dim: int, images: Sequence[Matrix], check: bool = True):
        if len(images) != group.order:
            raise DimensionMismatch("one image per group element required")
        self.group = group
        self.dim = dim
        self.images = tuple(tuple(tuple(row) for row in img) for img in images)
        if check:
            self._verify()

    def _verify(self) -> None:
        if self.dim == 0:
            return
        if not mat_is_identity(self._mat(0)):
            raise MathRejection("image of identity is not the identity matrix")
        group = self.group
        for x in range(group.order):
            img_x = self._mat(x)
            for gi in group.generator_indices:
                y = group.mul(x, gi)
                if not mat_eq(mat_mul(img_x, self._mat(gi)), self._mat(y)):
                    raise MathRejection(
                        f"images do not respect the multiplication table at ({x}, {gi})"
                    )

    def _mat(self, i: int) -> Matrix:
        return [list(row) for row in self.images[i]]

    def image(self, i: int) -> Matrix:
        return self._mat(i)

    @staticmethod
    def from_generator_images(
        group: FiniteMatrixGroup, dim: int, gen_images: Sequence[Matrix]
    ) -> Representation:
        """Extend generator images along the spanning tree; fails if inconsistent."""
        if len(gen_images) != len(group.generator_indices):
            raise DimensionMismatch("one image per generator required")
        by_gen = {gi: [list(r) for r in img] for gi, img in zip(group.generator_indices, gen_images)}
        images = group.extend(
            identity_matrix(group.n, dim),
            lambda prev, t: mat_mul(prev, by_gen[group.generator_indices[t]]),
        )
        # Generators already in the tree must agree with the supplied images.
        for gi, img in by_gen.items():
            if not mat_eq(images[gi], img):
                raise MathRejection("generator image inconsistent with tree extension")
        return Representation(group, dim, images)  # validation happens in __init__

    def character(self) -> CharacterVector:
        if self.dim == 0:
            zero = CycNum.zero(self.group.n)
            return CharacterVector(self.group, [zero] * len(self.group.class_reps))
        values = [mat_trace(self._mat(rep)) for rep in self.group.class_reps]
        return CharacterVector(self.group, values)

    @staticmethod
    def zero_module(group) -> Representation:
        return Representation(group, 0, [[] for _ in range(group.order)], check=False)

    def direct_sum(self, other: Representation) -> Representation:
        if self.group.elements != other.group.elements:
            raise MalformedInput("direct sum over different groups")
        if self.dim == 0:
            return other
        if other.dim == 0:
            return self
        n = self.group.n
        dim = self.dim + other.dim
        images = []
        for i in range(self.group.order):
            block = zero_matrix(n, dim, dim)
            a, b = self._mat(i), other._mat(i)
            for r in range(self.dim):
                for c in range(self.dim):
                    block[r][c] = a[r][c]
            for r in range(other.dim):
                for c in range(other.dim):
                    block[self.dim + r][self.dim + c] = b[r][c]
            images.append(block)
        return Representation(self.group, dim, images, check=False)

    def tensor(self, other: Representation) -> Representation:
        if self.group.elements != other.group.elements:
            raise MalformedInput("tensor product over different groups")
        images = [kron(self._mat(i), other._mat(i)) for i in range(self.group.order)]
        return Representation(self.group, self.dim * other.dim, images, check=False)

    def conjugate(self, s: Matrix, s_inv: Matrix) -> Representation:
        images = [mat_mul(mat_mul(s, self._mat(i)), s_inv) for i in range(self.group.order)]
        return Representation(self.group, self.dim, images, check=False)

    def is_odd_twist(self) -> bool:
        """True iff -I belongs to the group and acts as minus the identity."""
        idx = self.group.minus_identity_index()
        if idx is None:
            return False
        img = self._mat(idx)
        neg = mat_scale(identity_matrix(self.group.n, self.dim), CycNum.from_int(self.group.n, -1))
        return mat_eq(img, neg)

    def __repr__(self) -> str:
        return f"Representation(dim={self.dim}, group_order={self.group.order})"


def character(rep: Representation) -> CharacterVector:
    return rep.character()


def module_isomorphic(r1: Representation, r2: Representation) -> bool:
    """Complex representations of a finite group are isomorphic iff characters agree."""
    if r1.group.elements != r2.group.elements:
        raise MalformedInput("representations of different groups")
    return r1.character() == r2.character()


def reynolds(rep: Representation) -> Matrix:
    """The averaging projector (1/|G|) * sum of all images."""
    n = rep.group.n
    acc = zero_matrix(n, rep.dim, rep.dim)
    for i in range(rep.group.order):
        img = rep.image(i)
        acc = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(acc, img)]
    scale = CycNum.from_int(n, rep.group.order).inv()
    return mat_scale(acc, scale)


def regular_representation(group: FiniteMatrixGroup) -> Representation:
    n = group.n
    images = []
    for g in range(group.order):
        m = zero_matrix(n, group.order, group.order)
        one = CycNum.one(n)
        for x in range(group.order):
            m[group.mul(g, x)][x] = one
        images.append(m)
    return Representation(group, group.order, images, check=False)


def trivial_representation(group: FiniteMatrixGroup) -> Representation:
    one_mat = identity_matrix(group.n, 1)
    return Representation(group, 1, [one_mat] * group.order, check=False)


def standard_representation(group: FiniteMatrixGroup) -> Representation:
    images = [g.matrix() for g in group.elements]
    return Representation(group, 2, images, check=False)


class CatalogEntry:
    """Generators for one standard finite subgroup of SL(2, C)."""

    def __init__(self, name: str, generators: list[SL2Elem], modulus: int, order: int):
        self.name = name
        self.generators = generators
        self.modulus = modulus
        self.order = order

    def group(self, cap: int = DEFAULT_CLOSURE_CAP, modulus: Optional[int] = None) -> FiniteMatrixGroup:
        gens = self.generators
        if modulus is not None and modulus != self.modulus:
            if modulus % self.modulus != 0:
                raise ModulusMismatch(
                    f"override modulus {modulus} is not a multiple of {self.modulus}"
                )
            gens = [g.promote(modulus) for g in gens]
        g = generate_group(gens, cap=cap)
        if g.order != self.order:
            raise MathRejection(
                f"catalog closure produced order {g.order}, expected {self.order}"
            )
        return g

    def __repr__(self) -> str:
        return f"CatalogEntry({self.name!r}, order={self.order}, modulus={self.modulus})"


def _quaternion_matrix(n: int, a: CycNum, b: CycNum, c: CycNum, d: CycNum) -> SL2Elem:
    """Matrix of the unit quaternion a + b i + c j + d k."""
    i = CycNum.root_of_unity(n, 4)
    return SL2Elem(a + b * i, c + d * i, -c + d * i, a - b * i)


def catalog(family: str, n: Optional[int] = None) -> CatalogEntry:
    """Standard families of finite subgroups of SL(2, C).

    Orders: cyclic n; binary dihedral 4n; binary tetrahedral 24;
    binary octahedral 48; binary icosahedral 120.
    """
    if family == "cyclic":
        if n is None or n < 1:
            raise MalformedInput("cyclic family requires n >= 1")
        modulus = n
        z = CycNum.zeta(modulus, 1)
        return CatalogEntry("cyclic", [SL2Elem.diag(z)], modulus, n)
    if family == "binary_dihedral":
        if n is None or n < 1:
            raise MalformedInput("binary dihedral family requires n >= 1")
        # lcm with 4 keeps i in the field, where the reflection's eigenvalues live.
        modulus = lcm(2 * n, 4)
        z = CycNum.root_of_unity(modulus, 2 * n)
        rot = SL2Elem.diag(z)
        flip = SL2Elem.from_ints(modulus, 0, 1, -1, 0)
        return CatalogEntry("binary_dihedral", [rot, flip], modulus, 4 * n)
    if n is not None:
        raise MalformedInput(f"family {family!r} takes no parameter")
    if family == "binary_tetrahedral":
        modulus = 4
        half = CycNum(modulus, [1, 0], 2)
        omega = _quaternion_matrix(modulus, -half, half, half, half)
        i_mat = _quaternion_matrix(
            modulus, CycNum.zero(modulus), CycNum.one(modulus),
            CycNum.zero(modulus), CycNum.zero(modulus),
        )
        return CatalogEntry("binary_tetrahedral", [i_mat, omega], modulus, 24)
    if family == "binary_octahedral":
        modulus = 8
        half = CycNum(modulus, [1, 0, 0, 0], 2)
        omega = _quaternion_matrix(modulus, -half, half, half, half)
        sigma = SL2Elem.diag(CycNum.zeta(modulus, 1))
        return CatalogEntry("binary_octahedral", [omega, sigma], modulus, 48)
    if family == "binary_icosahedral":
        modulus = 20
        half = CycNum.from_int(modulus, 1) * CycNum.from_int(modulus, 2).inv()
        # sqrt(5) = 1 + 2*(zeta_5 + zeta_5^4); tau = (1+sqrt5)/2, sigma = tau - 1.
        sqrt5 = CycNum.from_int(modulus, 1) + (
            CycNum.root_of_unity(modulus, 5, 1) + CycNum.root_of_unity(modulus, 5, 4)
        ) * CycNum.from_int(modulus, 2)
        tau = (CycNum.from_int(modulus, 1) + sqrt5) * CycNum.from_int(modulus, 2).inv()
        sigma = tau - CycNum.from_int(modulus, 1)
        omega = _quaternion_matrix(modulus, -half, half, half, half)
        golden = _quaternion_matrix(
            modulus, tau * half, sigma * half, half, CycNum.zero(modulus)
        )
        return CatalogEntry("binary_icosahedral", [omega, golden], modulus, 120)
    raise MalformedInput(f"unknown family {family!r}")
