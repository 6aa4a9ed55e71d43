"""Seeded benchmark inputs, built without importing the package.

Every input is a block sum of 2 x 2 primitives conjugated by a product
of symplectic transvections.  The blocks travel with the input so that
the checker can work block by block; the program only ever sees the
scenario JSON.  The same seed always gives the same
inputs, and nothing here depends on the package's own catalog.
"""

import json
import math
import random

# name -> (matrix, multiplicative order; 0 for infinite order)
PRIMITIVES = {
    "I": (((1, 0), (0, 1)), 1),
    "-I": (((-1, 0), (0, -1)), 2),
    "R3": (((0, -1), (1, -1)), 3),
    "R3'": (((-1, 1), (-1, 0)), 3),
    "R4": (((0, -1), (1, 0)), 4),
    "R4'": (((0, 1), (-1, 0)), 4),
    "R6": (((0, 1), (-1, 1)), 6),
    "R6'": (((1, -1), (1, 0)), 6),
    "S1": (((1, 1), (0, 1)), 0),
    "S2": (((1, 2), (0, 1)), 0),
    "S3": (((1, 3), (0, 1)), 0),
}
UNIPOTENT = ("I", "S1", "S2", "S3")
TWISTED = ("-I", "R3", "R3'", "R4", "R4'", "R6", "R6'")
ALL = tuple(PRIMITIVES)
PRIMES = (0, 2, 3, 5, 7, 11, 13)

# the conjugator of the failing d = 3 inputs, which are fixed rather
# than seeded so that the same ones fail in every round of every run
FAILING_SEED = 6


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def block_sum(blocks):
    """Direct sum with interleaved coordinates: plane i uses slots i
    and d + i, so the standard form restricts to each plane."""
    d = len(blocks)
    out = [[0] * (2 * d) for _ in range(2 * d)]
    for i, name in enumerate(blocks):
        m = PRIMITIVES[name][0]
        slots = (i, d + i)
        for r in range(2):
            for c in range(2):
                out[slots[r]][slots[c]] = m[r][c]
    return out


def transvection(d, v, c):
    """x -> x + c <x, v> v with <x, y> = x^T J y, J[i][d+i] = 1."""
    jv = [v[d + i] for i in range(d)] + [-v[i] for i in range(d)]
    n = 2 * d
    return [[int(i == k) + c * v[i] * jv[k] for k in range(n)] for i in range(n)]


def conjugator(rng, d, factors=8):
    """A seeded symplectic U and its exact inverse."""
    n = 2 * d
    u, u_inv = identity(n), identity(n)
    for _ in range(factors):
        v = [0] * n
        while not any(v):
            v = [rng.randrange(-1, 2) for _ in range(n)]
        c = rng.choice((-1, 1))
        u = matmul(transvection(d, v, c), u)
        u_inv = matmul(u_inv, transvection(d, v, -c))
    return u, u_inv


def block_order(name):
    return PRIMITIVES[name][1]


def semisimple_order(blocks):
    return math.lcm(*(block_order(b) or 1 for b in blocks))


class Case:
    """One scenario with the data it was built from."""

    def __init__(self, label, blocks, p, u, u_inv, seed):
        self.label = label
        self.blocks = tuple(blocks)
        self.d = len(blocks)
        self.p = p
        self.tau = matmul(matmul(u, block_sum(blocks)), u_inv)
        self.seed = seed

    @property
    def expect_failure(self):
        return self.label.startswith("fail")

    def scenario(self):
        return {"d": self.d, "p": self.p, "tau": self.tau, "seed": self.seed}

    def to_json(self):
        return json.dumps(self.scenario(), sort_keys=True)


def _case(rng, label, blocks, p, seed):
    u, u_inv = conjugator(rng, len(blocks))
    return Case(label, blocks, p, u, u_inv, seed)


def failing_cases():
    """Semistable d = 3 inputs, which today's report path cannot analyze."""
    i6 = identity(6)
    return [Case("fail-d3-identity", ("I", "I", "I"), 0, i6, i6, 0),
            _case(random.Random(FAILING_SEED), "fail-d3-shears", ("S1", "S2", "S3"), 0, 0)]


def _tame_prime(rng, blocks):
    m = semisimple_order(blocks)
    return rng.choice([p for p in PRIMES if p == 0 or math.gcd(p, m) == 1])


def semistable_cases(seed, count=3):
    """d = 1: one block from I and the shears.  Every other case sits at
    p = 5, so its criterion level is 6; the rest are at the default
    level 5."""
    rng = random.Random(f"semistable:{seed}")
    return [_case(rng, f"ss-d1-{i}", [rng.choice(UNIPOTENT)],
                  5 if i % 2 == 0 else rng.choice((0, 2, 3, 7)), seed)
            for i in range(count)]


def nonsemistable_cases(seed, counts=(4, 10, 18)):
    """Block sums with at least one finite-order block other than I,
    conjugated, with p drawn among the primes tame for the block
    orders so that no input is refused."""
    rng = random.Random(f"nonsemistable:{seed}")
    out = []
    for d, count in enumerate(counts, start=1):
        for i in range(count):
            blocks = [rng.choice(TWISTED)] + [rng.choice(ALL) for _ in range(d - 1)]
            rng.shuffle(blocks)
            out.append(_case(rng, f"ns-d{d}-{i}", blocks, _tame_prime(rng, blocks), seed))
    return out


def suite_seed(seed):
    return random.Random(f"suites:{seed}").randrange(1, 10**6)
