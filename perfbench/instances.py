"""Seeded benchmark instances and the independent reference values they check.

Nothing here imports shiftpress: the references are computed from first
principles so they can catch a wrong answer from the program.

* ``seeded_sft(seed)`` draws a binary subshift of finite type from three
  forbidden words of length 4. Reducible, trimmed (some block cannot
  extend) or imprimitive draws are rejected and redrawn from the same
  random stream, and so are draws outside the bands for |L_8|
  (``SFT_COUNT_BAND``), the specification gap (``SFT_GAP_BAND``) and the
  number of admissibility tests its gap profile makes
  (``SFT_TESTS_BAND``), so every seed costs about the same.
* ``seeded_values(seed)`` draws the values of a radius-1 locally constant
  potential on the golden mean shift.
"""

from __future__ import annotations

import itertools
import math
import random

SFT_BLOCK = 4
SFT_FORBIDDEN = 3
SFT_COUNT_BAND = (85, 115)  # |L_8| of accepted instances
SFT_GAP_BAND = (3, 4)  # accepted specification gaps
SFT_PROFILE_N = (5, 6)  # gap profile lengths in glue_search
SFT_FILLER_SLACK = 4  # m_max = specification gap + this
SFT_TESTS_BAND = (75_000, 90_000)  # word_admissible calls of that profile
MAX_DRAWS = 10_000

GOLDEN_BLOCKS3 = ("000", "001", "010", "100", "101")


def _fmt(w) -> str:
    return "".join(str(s) for s in w)


class BlockGraph:
    """The m-block graph of a binary SFT: states are the allowed m-blocks."""

    def __init__(self, m: int, forbidden):
        forbidden = {tuple(f) for f in forbidden}
        self.m = m
        self.states = [
            w for w in itertools.product((0, 1), repeat=m)
            if not any(w[i:i + len(f)] == f for f in forbidden for i in range(m - len(f) + 1))
        ]
        self.index = {u: i for i, u in enumerate(self.states)}
        self.succ = [
            [self.index[u[1:] + (s,)] for s in (0, 1) if u[1:] + (s,) in self.index]
            for u in self.states
        ]

    def _reach(self, reachable: list[set[int]]) -> list[set[int]]:
        return [set().union(*(self.succ[k] for k in row)) if row else set() for row in reachable]

    def is_trimmed(self) -> bool:
        """Every block has a successor and a predecessor."""
        has_in = {j for outs in self.succ for j in outs}
        return all(self.succ) and len(has_in) == len(self.states)

    def primitive_exponent(self) -> int | None:
        """Least j with every entry of A^j positive, or None (reducible or periodic)."""
        n = len(self.states)
        rows = [set(outs) for outs in self.succ]
        for j in range(1, (n - 1) ** 2 + 2):
            if all(len(r) == n for r in rows):
                return j
            rows = self._reach(rows)
        return None

    def gaps(self) -> tuple[int, int]:
        """(transitivity gap, specification gap) for words of length >= m.

        v u w is admissible iff A^(|u|+m) has a positive entry from the last
        block of v to the first block of w. The transitivity gap is the
        worst pair's least such |u|; the specification gap is the least f
        with A^(k+m) > 0 for every k >= f (positivity persists once reached
        in a primitive graph).
        """
        n = len(self.states)
        rows = [{i} for i in range(n)]
        for _ in range(self.m):
            rows = self._reach(rows)
        first = [[None] * n for _ in range(n)]
        k = 0
        while any(v is None for r in first for v in r):
            for i, r in enumerate(rows):
                for j in r:
                    if first[i][j] is None:
                        first[i][j] = k
            rows = self._reach(rows)
            k += 1
        exp = self.primitive_exponent()
        return max(v for r in first for v in r), max(0, exp - self.m)

    def walk(self, state: int, word) -> int | None:
        """The block reached from `state` by appending `word`, or None."""
        block = self.states[state]
        for sym in word:
            block = block[1:] + (sym,)
            if block not in self.index:
                return None
        return self.index[block]

    def edge_counts(self, n: int) -> tuple[list[int], list[int]]:
        """Words of length n >= m per last block and per first block."""
        last = [1] * len(self.states)
        first = [1] * len(self.states)
        for _ in range(n - self.m):
            nxt = [0] * len(last)
            for i, outs in enumerate(self.succ):
                for j in outs:
                    nxt[j] += last[i]
            last = nxt
            first = [sum(first[j] for j in outs) for outs in self.succ]
        return last, first

    def profile_tests(self, n_range, f_spec: int, m_max: int) -> int:
        """word_admissible calls of a specification-mode gap profile.

        Mirrors the exhaustive search: per pair (v, w), fillers of length
        0, 1, ... in lexicographic order until one joins (the transitivity
        pass), then for every length f_spec..m_max until the first that
        joins. A filler's fate depends only on v's last and w's first
        block, so pairs are counted per block pair.
        """
        n_states = len(self.states)
        first_hit = [[[None] * n_states for _ in range(m_max + 1)] for _ in range(n_states)]
        for a in range(n_states):
            for k in range(m_max + 1):
                row = first_hit[a][k]
                for i, u in enumerate(itertools.product((0, 1), repeat=k)):
                    s = self.walk(a, u)
                    if s is None:
                        continue
                    for b in range(n_states):
                        if row[b] is None and self.walk(s, self.states[b]) is not None:
                            row[b] = i
        tests = 0
        for n in n_range:
            last, first = self.edge_counts(n)
            for a in range(n_states):
                for b in range(n_states):
                    per_pair = 0
                    for k in range(m_max + 1):
                        hit = first_hit[a][k][b]
                        if hit is not None:
                            per_pair += hit + 1
                            break
                        per_pair += 2 ** k
                    per_pair += sum(first_hit[a][k][b] + 1 for k in range(f_spec, m_max + 1))
                    tests += last[a] * first[b] * per_pair
        return tests

    def count(self, n: int) -> int:
        """|L_n|: distinct factors of blocks below m, path counting from m on."""
        if n < self.m:
            return len({u[i:i + n] for u in self.states for i in range(self.m - n + 1)})
        return sum(self.edge_counts(n)[0])


def seeded_sft(seed: int) -> dict:
    """A seeded SFT with its reference gaps and counts."""
    rng = random.Random(f"perfbench-sft-{seed}")
    blocks = list(itertools.product((0, 1), repeat=SFT_BLOCK))
    for draw in range(MAX_DRAWS):
        forbidden = sorted(rng.sample(blocks, SFT_FORBIDDEN))
        g = BlockGraph(SFT_BLOCK, forbidden)
        if not g.is_trimmed() or g.primitive_exponent() is None:
            continue
        f_trans, f_spec = g.gaps()
        if not SFT_COUNT_BAND[0] <= g.count(8) <= SFT_COUNT_BAND[1]:
            continue
        if not SFT_GAP_BAND[0] <= f_spec <= SFT_GAP_BAND[1]:
            continue
        tests = g.profile_tests(SFT_PROFILE_N, f_spec, f_spec + SFT_FILLER_SLACK)
        if not SFT_TESTS_BAND[0] <= tests <= SFT_TESTS_BAND[1]:
            continue
        return {
            "seed": seed,
            "draws": draw + 1,
            "forbidden": [_fmt(f) for f in forbidden],
            "declared_gap": f_spec,
            "transitivity_gap": f_trans,
            "profile_tests": tests,
            "graph": g,
        }
    raise RuntimeError(f"no admissible SFT instance for seed {seed}")


def seeded_values(seed: int) -> dict[str, float]:
    rng = random.Random(f"perfbench-potential-{seed}")
    return {b: round(rng.uniform(0.0, 1.0), 6) for b in GOLDEN_BLOCKS3}


# ---------------------------------------------------------------------------
# closed forms and references
# ---------------------------------------------------------------------------


def fibonacci_count(n: int) -> int:
    """|L_n| of the golden mean shift: F(n+2) with F(1) = F(2) = 1."""
    if n == 0:
        return 1
    a, b = 2, 3
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def golden_lc_pressure(values: dict[str, float], default: float = 0.0) -> float:
    """Pressure of a radius-1 locally constant potential on the golden mean.

    The potential at a site is values[abc] for the 3-block abc around it,
    so the pressure is the log spectral radius of the weighted 2-block
    graph (ab) -> (bc), found here by power iteration in plain floats.
    """
    states = ("00", "01", "10")
    weights = {
        (u, v): math.exp(values.get(u + v[1], default))
        for u in states for v in states if u[1] == v[0]
    }
    vec = [1.0] * len(states)
    lam = 0.0
    for _ in range(10_000):
        nxt = [sum(vec[i] * weights.get((u, v), 0.0) for i, u in enumerate(states)) for v in states]
        new = max(nxt)
        vec = [x / new for x in nxt]
        if abs(new - lam) <= 1e-15 * new:
            break
        lam = new
    return math.log(new)
