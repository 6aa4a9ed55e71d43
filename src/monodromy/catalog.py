"""Generator primitives and randomized symplectic conjugation.

The 2 x 2 primitives realize every finite order available over the
integers (1, 2, 3, 4, 6, both rotation directions) plus unipotent
shears.  Direct sums interleave coordinates so that the standard
alternating form is preserved: plane i of the sum uses slots i and
d + i.  Conjugation data always carries the inverse along, so exact
transport of subgroups and verdicts never inverts anything afterwards.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from .matrices import IntMatrix, _apply_j

IDENTITY_2 = IntMatrix.identity(2)
MINUS_IDENTITY_2 = IntMatrix([[-1, 0], [0, -1]])
ORDER_3 = IntMatrix([[0, -1], [1, -1]])
ORDER_3_INVERSE = IntMatrix([[-1, 1], [-1, 0]])
ORDER_4 = IntMatrix([[0, -1], [1, 0]])
ORDER_4_INVERSE = IntMatrix([[0, 1], [-1, 0]])
ORDER_6 = IntMatrix([[0, 1], [-1, 1]])
ORDER_6_INVERSE = IntMatrix([[1, -1], [1, 0]])
SHEARS = tuple(IntMatrix([[1, m], [0, 1]]) for m in (1, 2, 3))

FINITE_ORDER_PRIMITIVES: Tuple[IntMatrix, ...] = (
    IDENTITY_2,
    MINUS_IDENTITY_2,
    ORDER_3,
    ORDER_3_INVERSE,
    ORDER_4,
    ORDER_4_INVERSE,
    ORDER_6,
    ORDER_6_INVERSE,
)

PRIMITIVES: Tuple[IntMatrix, ...] = FINITE_ORDER_PRIMITIVES + SHEARS


def block_sum(blocks: Sequence[IntMatrix]) -> IntMatrix:
    """Symplectic direct sum with interleaved coordinates.

    Block i of size 2e acts on x-slots [off, off + e) and the matching
    y-slots [d + off, d + off + e), so the standard form restricts to
    the standard form on every summand.
    """
    if not blocks:
        raise ValueError("need at least one block")
    halves = []
    for b in blocks:
        if not b.is_square or b.rows % 2:
            raise ValueError("blocks must be square of even size")
        halves.append(b.rows // 2)
    d = sum(halves)
    out = [[0] * (2 * d) for _ in range(2 * d)]
    offset = 0
    for b, e in zip(blocks, halves):
        slots = [offset + r for r in range(e)] + [d + offset + r for r in range(e)]
        for r in range(2 * e):
            for c in range(2 * e):
                out[slots[r]][slots[c]] = b.data[r][c]
        offset += e
    return IntMatrix(out)


def catalog_matrices(d: int, finite_only: bool = False) -> Tuple[IntMatrix, ...]:
    """All block sums of primitives of total dimension d, deduplicated,
    in a fixed deterministic order."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    pool = FINITE_ORDER_PRIMITIVES if finite_only else PRIMITIVES
    if d == 1:
        return pool
    seen = {}
    for tail in catalog_matrices(d - 1, finite_only):
        for head in pool:
            m = block_sum([head] + _split_blocks(tail))
            seen.setdefault(m.data, m)
    return tuple(seen.values())


def _split_blocks(m: IntMatrix) -> List[IntMatrix]:
    # inverse of block_sum for matrices built from 2 x 2 blocks
    d = m.rows // 2
    out = []
    for i in range(d):
        s = (i, d + i)
        out.append(IntMatrix([[m.data[r][c] for c in s] for r in s]))
    return out


def symplectic_transvection(d: int, v: Sequence[int], c: int) -> IntMatrix:
    """x maps to x + c<x, v>v; symplectic for every integer c."""
    n = 2 * d
    # <x, v> = x^T J v = (Jv) . x, so the update is the rank-one
    # matrix c v (Jv)^T added to the identity, J applied to v as a column
    (jv,) = zip(*_apply_j([(x,) for x in v[:n]]))
    return IntMatrix(
        [
            [(1 if i == k else 0) + c * v[i] * jv[k] for k in range(n)]
            for i in range(n)
        ]
    )


def _plane_permutation(d: int, perm: Sequence[int]) -> IntMatrix:
    n = 2 * d
    out = [[0] * n for _ in range(n)]
    for i, target in enumerate(perm):
        out[target][i] = 1
        out[d + target][d + i] = 1
    return IntMatrix(out)


def random_symplectic(rng: random.Random, d: int) -> Tuple[IntMatrix, IntMatrix]:
    """A random product of six transvections and plane permutations,
    returned with its exact inverse."""
    n = 2 * d
    u = IntMatrix.identity(n)
    u_inv = IntMatrix.identity(n)
    for _ in range(6):
        if d > 1 and rng.random() < 0.25:
            perm = list(range(d))
            rng.shuffle(perm)
            f = _plane_permutation(d, perm)
            inverse_perm = [0] * d
            for i, t in enumerate(perm):
                inverse_perm[t] = i
            f_inv = _plane_permutation(d, inverse_perm)
        else:
            v = [0] * n
            while all(x == 0 for x in v):
                v = [rng.randrange(-1, 2) for _ in range(n)]
            c = rng.choice((-1, 1))
            f = symplectic_transvection(d, v, c)
            f_inv = symplectic_transvection(d, v, -c)
        u = f @ u
        u_inv = u_inv @ f_inv
    return u, u_inv


def random_symplectic_conjugate(
    base: IntMatrix, rng: random.Random
) -> Tuple[IntMatrix, IntMatrix, IntMatrix]:
    """(U base U^-1, U, U^-1) for a random symplectic U."""
    u, u_inv = random_symplectic(rng, base.rows // 2)
    return u @ base @ u_inv, u, u_inv


_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, index: int) -> int:
    """Stable per-trial seed stream: trial i depends only on (seed, i),
    never on how many trials ran before it."""
    z = (seed + 0x9E3779B97F4A7C15 * (index + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64
