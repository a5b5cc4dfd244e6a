"""Finite subgroups of PGL(2, C) and the central-extension dichotomy.

A projective group is stored as sign-normalized coset representatives of its
preimage in SL(2, C).  The preimage is the central extension of the group by
{+-I}; whether that extension splits is decided by brute-force search over
sign assignments on generator lifts, which also produces the splitting
homomorphism when one exists.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import MalformedInput, MathRejection
from .matgroup import (
    DEFAULT_CLOSURE_CAP,
    FiniteMatrixGroup,
    Representation,
    SL2Elem,
    TabularGroup,
    closure_tables,
    generate_group,
)

__all__ = [
    "PGLGroup",
    "SplittingHom",
    "pgl_group",
    "preimage_group",
    "extension_splits",
    "odd_twist_valid",
]


def sign_normalize(g: SL2Elem) -> SL2Elem:
    """Canonical representative of {g, -g}: first nonzero numerator positive."""
    for c in (g.a, g.b, g.c, g.d):
        for v in c.num:
            if v > 0:
                return g
            if v < 0:
                return -g
    raise MalformedInput("zero matrix cannot represent a projective element")


class PGLGroup(TabularGroup):
    """A finite subgroup of PGL(2, C) with coset-representative tables.

    Shares the tabular interface of FiniteMatrixGroup (mul, inv, words,
    conjugacy classes), so representations and characters work over it
    unchanged, but is not a matrix group: isinstance checks on the two
    classes pick the parity case.  The preimage attribute is the index-2
    central extension inside SL(2, C), which always contains -I.
    """

    def __init__(self, generator_reps: Sequence[SL2Elem], cap: int = DEFAULT_CLOSURE_CAP):
        gens = [sign_normalize(g) for g in generator_reps]
        super().__init__(*closure_tables(gens, cap, normalize=sign_normalize))
        self.generator_reps = tuple(self.elements[i] for i in self.generator_indices)
        minus = -SL2Elem.identity(self.n)
        self.preimage = generate_group(list(self.generator_reps) + [minus], cap=cap)
        if self.preimage.order != 2 * self.order:
            raise MathRejection(
                f"preimage has order {self.preimage.order}, expected {2 * self.order}"
            )
        self._splitting_cache: tuple[bool, Optional[SplittingHom]] = (False, None)

    def element_index(self, g: SL2Elem) -> int:
        return super().element_index(sign_normalize(g))

    def minus_identity_index(self) -> Optional[int]:
        return None

    def splitting(self) -> Optional[SplittingHom]:
        cached, value = self._splitting_cache
        if not cached:
            value = extension_splits(self)
            self._splitting_cache = (True, value)
        return value


def pgl_group(generator_reps: Sequence[SL2Elem], cap: int = DEFAULT_CLOSURE_CAP) -> PGLGroup:
    return PGLGroup(generator_reps, cap=cap)


def preimage_group(h: PGLGroup) -> FiniteMatrixGroup:
    """The full preimage in SL(2, C): order 2|H|, containing -I."""
    return h.preimage


class SplittingHom:
    """A homomorphic system of lifts H -> SL(2, C) avoiding -I."""

    def __init__(self, group: PGLGroup, gen_lifts: Sequence[SL2Elem]):
        if len(gen_lifts) != len(group.generator_indices):
            raise MalformedInput("one lift per generator required")
        self.group = group
        self.gen_lifts = tuple(gen_lifts)
        self.lifts = tuple(
            group.extend(SL2Elem.identity(group.n), lambda prev, t: prev * self.gen_lifts[t])
        )

    def lift_of(self, group: PGLGroup, idx: int) -> SL2Elem:
        if group is not self.group and group.elements != self.group.elements:
            raise MalformedInput("splitting belongs to a different group")
        return self.lifts[idx]

    def is_homomorphism(self) -> bool:
        group = self.group
        for i in range(group.order):
            li = self.lifts[i]
            for j in range(group.order):
                if li * self.lifts[j] != self.lifts[group.mul(i, j)]:
                    return False
        return True

    def covers_identity(self) -> bool:
        group = self.group
        return all(
            sign_normalize(self.lifts[i]) == group.elements[i]
            for i in range(group.order)
        )

    def image_group(self, cap: int = DEFAULT_CLOSURE_CAP) -> FiniteMatrixGroup:
        """The subgroup gamma(H) of SL(2, C), isomorphic to H."""
        g = generate_group(list(self.gen_lifts), cap=cap)
        if g.order != self.group.order:
            raise MathRejection("splitting image has wrong order")
        return g

    def __repr__(self) -> str:
        return f"SplittingHom(order={self.group.order})"


def extension_splits(h: PGLGroup) -> Optional[SplittingHom]:
    """Search all sign assignments on generator lifts for a splitting.

    Any splitting restricts to such an assignment, and an assignment that
    extends multiplicatively over the whole element table is a splitting,
    so the search is sound and complete.  Deterministic order: plus signs
    first, so the returned witness is reproducible.
    """
    gens = h.generator_reps
    k = len(gens)
    for mask in range(1 << k):
        lifts = [
            gens[t] if not (mask >> t) & 1 else -gens[t] for t in range(k)
        ]
        candidate = SplittingHom(h, lifts)
        if candidate.is_homomorphism():
            return candidate
    return None


def odd_twist_valid(rep: Representation) -> bool:
    """True iff the central element -I acts as minus the identity."""
    return rep.is_odd_twist()
