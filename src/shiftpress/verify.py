"""Empirical certificates for the package's bound claims.

Each verifier measures an inequality on concrete data and returns a
BoundReport: a verdict, per-length margins (bound side minus measured
side, so negative means violated), and witnesses for failures. Checks:

* density_glue - bounded density shifts glue any two admissible words
  with an all-zero filler at every gap >= the declared bound;
* sparse_glue - sparse Sturmian pairs admit some filler of length at
  most the declared transitivity bound;
* partition_upper_spec - lnZ(n) <= (n+f(n))P - f(n) inf(phi) + g(n);
* partition_upper_anchor - lnZ(i) <= iP + eps ln(n_k) for i up to each
  anchor length n_k, from some onset anchor on;
* partition_upper_trans - lnZ(n) <= ln D + nP + CE ln n with
  E = P + 2 + |inf(phi) - 1| and D = 9^(CE), under the precondition
  f(n) + g(n) <= min(C ln n, n) past the onset;
* measure_lower - the cylinder-restricted partition sum dominates
  (nP)/mu + ((mu-1)/mu) lnZ(n) - g(n) - ln(2)/mu for a cylinder of
  positive equilibrium measure mu.

Verdicts: pass, fail, precondition_fail, horizon_exhausted.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Sequence

from .errors import IdentityCheckError, InputError
from .gluing import glue_pairs, least_glue, sample_pairs, worst_glue
from .potentials import growth_class
from .pressure import PartitionTable, partition_function
from .subshifts import (
    DEFAULT_NODE_BUDGET,
    SubshiftSpec,
    enumerate_language,
    walk,
)
from .transfer import MarkovMeasure, cylinder_measure
from .words import Word, format_word

CHECK_DENSITY_GLUE = "density_glue"
CHECK_SPARSE_GLUE = "sparse_glue"
CHECK_PARTITION_SPEC = "partition_upper_spec"
CHECK_PARTITION_ANCHOR = "partition_upper_anchor"
CHECK_PARTITION_TRANS = "partition_upper_trans"
CHECK_MEASURE_LOWER = "measure_lower"

ALL_CHECKS = (
    CHECK_DENSITY_GLUE,
    CHECK_SPARSE_GLUE,
    CHECK_PARTITION_SPEC,
    CHECK_PARTITION_ANCHOR,
    CHECK_PARTITION_TRANS,
    CHECK_MEASURE_LOWER,
)

PASS = "pass"
FAIL = "fail"
PRECONDITION_FAIL = "precondition_fail"
HORIZON_EXHAUSTED = "horizon_exhausted"


@dataclass
class BoundReport:
    check: str
    verdict: str
    margins: tuple[tuple[int, float], ...]
    witnesses: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.verdict == PASS

    def min_margin(self) -> float:
        return min((m for _, m in self.margins), default=math.inf)


# ---------------------------------------------------------------------------
# bounded density gluing
# ---------------------------------------------------------------------------


def _pareto_maximal(profiles: list[tuple[tuple[int, ...], Word]]):
    """Maximal elements under pointwise <= of the profile vectors."""
    keep: list[tuple[tuple[int, ...], Word]] = []
    for prof, word in sorted(profiles, key=lambda pr: (-sum(pr[0]), pr[0])):
        if not any(all(a <= b for a, b in zip(prof, kept)) for kept, _ in keep):
            keep.append((prof, word))
    return keep


def verify_density_glue(
    spec: SubshiftSpec,
    n_range: Sequence[int],
    *,
    slack: int = 4,
    f: Callable[[int], int] | None = None,
    budget: int = DEFAULT_NODE_BUDGET,
    triple_sample: int = 200,
    seed: int = 0,
) -> BoundReport:
    """Certificate that v 0^m w stays admissible for all m >= f(n).

    Gaps m = f(n) .. f(n)+slack are checked for every pair of length-n
    words. Admissibility of v 0^m w is decided by its gap-crossing window
    sums (windows inside v, inside w, or ending in the zero run are
    covered by admissibility of v and w and monotonicity of h), and those
    sums depend monotonically on the suffix-sum profile of v and the
    prefix-sum profile of w; checking the Pareto-maximal profiles
    therefore decides every pair. On failure the lexicographically least
    violating pair is recovered by a direct scan. Since 0 is the minimal
    symbol, a failing all-zero filler rules out every other filler of the
    same length, so failures are genuine.

    Triples v 0^m1 w 0^m2 u are spot-checked on a deterministic sample at
    the corner gaps.
    """
    if spec.family != "bounded_density":
        raise InputError("density_glue runs on bounded density instances")
    params = spec.params["density"]
    h = params.h
    root = spec.root_walker()
    f_at = f if f is not None else spec.declared_gap
    margins = []
    witnesses: dict = {}
    verdict = PASS
    for n in n_range:
        if n < 1:
            raise InputError("lengths must be >= 1")
        fn = f_at(n)
        need = 2 * n + fn + slack
        if need > params.n_max:
            raise InputError(
                f"height table covers lengths <= {params.n_max}, need {need} "
                f"for n={n}"
            )
        words = enumerate_language(spec, n, budget)
        max_suf = _pareto_maximal([(tuple(accumulate(reversed(wd))), wd) for wd in words])
        max_pre = _pareto_maximal([(tuple(accumulate(wd)), wd) for wd in words])
        gaps = range(fn, fn + slack + 1)
        worst = math.inf
        worst_at = None
        for m in gaps:
            for sprof, svw in max_suf:
                for pprof, pw in max_pre:
                    for a in range(1, n + 1):
                        sa = sprof[a - 1]
                        for b in range(1, n + 1):
                            slk = h[a + m + b] - sa - pprof[b - 1]
                            if slk < worst:
                                worst = slk
                                worst_at = (svw, m, pw, a, b)
        margins.append((n, float(worst)))
        if worst < 0:
            verdict = FAIL
            # lexicographically least violating pair and least gap

            def miss(start, w):
                return next((m for m in gaps if walk(start, (0,) * m + w) is None), None)

            every = ((i, j) for i in range(len(words)) for j in range(len(words)))
            i, j, m = next(r for r in glue_pairs(spec, words, every, miss) if r[2] is not None)
            witnesses[n] = {"v": format_word(words[i]), "w": format_word(words[j]), "m": m}
            continue
        v0, m0, w0, _, _ = worst_at
        if walk(root, v0 + (0,) * m0 + w0) is None:
            raise IdentityCheckError(f"n={n}: profile check passed but {worst_at[:3]} is forbidden")
        # triple spot check at the corner gaps
        rng = random.Random(seed)
        base = words[: min(len(words), 6)] + [max(words, key=sum)]
        triples = [(a, b, c) for a in base for b in base for c in base]
        if len(triples) > triple_sample:
            triples = [triples[rng.randrange(len(triples))] for _ in range(triple_sample)]
        for m in (fn, fn + slack):
            if 3 * n + 2 * m > params.n_max:
                continue
            heads: dict = {}  # walker after va 0^m vb 0^m
            for va, vb, vc in triples:
                if (va, vb) not in heads:
                    heads[va, vb] = walk(root, va + (0,) * m + vb + (0,) * m)
                if heads[va, vb] is None or walk(heads[va, vb], vc) is None:
                    verdict = FAIL
                    witnesses[n] = {"triple": [format_word(x) for x in (va, vb, vc)], "m": m}
                    break
            if n in witnesses:
                break
    return BoundReport(
        check=CHECK_DENSITY_GLUE,
        verdict=verdict,
        margins=tuple(margins),
        witnesses=witnesses,
        extra={"slack": slack, "e_monotone": params.e_monotone},
    )


def density_gap_diagnostic(spec: SubshiftSpec) -> dict:
    """Growth classification of the excess envelope e(n) against ln n.

    The gluing gap bound stays o(ln n) exactly when the envelope does;
    'bounded' or 'sublog' growth satisfies that hypothesis.
    """
    if spec.family != "bounded_density":
        raise InputError("diagnostic runs on bounded density instances")
    params = spec.params["density"]
    env = [0.0] + [float(v) for v in params.e_envelope]
    horizon = len(env) - 1
    report = growth_class(env, horizon)
    return {
        "class": report.klass,
        "c": report.c,
        "sublog_hypothesis": report.klass in ("bounded", "sublog"),
        "ratios": report.ratios,
    }


# ---------------------------------------------------------------------------
# sparse transitivity gluing
# ---------------------------------------------------------------------------


def verify_sparse_glue(
    spec: SubshiftSpec,
    n_range: Sequence[int],
    *,
    strategy: str = "exhaustive",
    f: Callable[[int], int] | None = None,
    budget: int = DEFAULT_NODE_BUDGET,
    pair_budget: int = 150_000,
    seed: int = 0,
) -> BoundReport:
    """Certificate that some filler of length <= f(n) joins every pair.

    Above the pair budget a deterministic stratified sample is used (all
    pairs touching the lexicographic extremes and a maximal-density word,
    plus a seeded fill); the coverage fraction is reported. A pair with no
    filler at any length up to f(n) is a genuine counterexample when the
    exhaustive strategy (or the exhaustive retry) was used.
    """
    f_at = f if f is not None else spec.declared_gap
    if f_at is None:
        raise InputError("no gap bound declared or supplied")
    margins = []
    witnesses: dict = {}
    verdict = PASS
    coverages = {}
    for n in n_range:
        fn = f_at(n)
        words = enumerate_language(spec, n, budget)
        pairs, coverage = sample_pairs(words, pair_budget, seed)
        coverages[n] = coverage
        gaps, tries = range(fn + 1), (strategy, "exhaustive")
        worst, worst_pair, failed = worst_glue(
            spec, words, pairs, lambda start, w: least_glue(spec, start, w, gaps, tries)
        )
        if failed is not None:
            verdict = FAIL
            witnesses[n] = {"v": format_word(failed[0]), "w": format_word(failed[1]), "m_max": fn}
            margins.append((n, float(-1)))
            continue
        margins.append((n, float(fn - worst)))
        if worst_pair is not None:
            witnesses.setdefault("worst", {})[n] = dict(zip("vuw", map(format_word, worst_pair)))
    return BoundReport(
        check=CHECK_SPARSE_GLUE,
        verdict=verdict,
        margins=tuple(margins),
        witnesses=witnesses,
        extra={"coverage": coverages, "strategy": strategy},
    )


# ---------------------------------------------------------------------------
# partition upper bounds
# ---------------------------------------------------------------------------


def verify_partition_upper_spec(
    table: PartitionTable,
    pressure: float,
    f: Callable[[int], int],
    g: Callable[[int], float],
    inf_phi: float,
    n_range: Sequence[int] | None = None,
    tol: float = 1e-9,
) -> BoundReport:
    ns = list(n_range) if n_range is not None else list(range(1, table.horizon + 1))
    margins = []
    bad = []
    for n in ns:
        row = table.row(n)
        fn = f(n)
        rhs = (n + fn) * pressure - fn * inf_phi + g(n)
        margin = rhs - row.lnz_hi
        margins.append((n, margin))
        if margin < -tol:
            bad.append(n)
    return BoundReport(
        check=CHECK_PARTITION_SPEC,
        verdict=PASS if not bad else FAIL,
        margins=tuple(margins),
        witnesses={"violations": bad} if bad else {},
        extra={"pressure": pressure, "inf_phi": inf_phi},
    )


def verify_partition_upper_anchor(
    table: PartitionTable,
    pressure: float,
    anchor_lengths: Sequence[int],
    epsilon: float,
    tol: float = 1e-9,
) -> BoundReport:
    """Anchored bound lnZ(i) <= iP + eps ln(n_k); reports the onset anchor.

    The onset is the first anchor from which every later anchor clears all
    its margins; pass means an onset exists.
    """
    if epsilon < 0:
        raise InputError("epsilon must be >= 0")
    anchors = list(anchor_lengths)
    if not anchors:
        raise InputError("no anchor lengths supplied")
    clear = []
    margins = []
    for nk in anchors:
        worst = math.inf
        for i in range(1, min(nk, table.horizon) + 1):
            m = i * pressure + epsilon * math.log(nk) - table.row(i).lnz_hi
            worst = min(worst, m)
        margins.append((nk, worst))
        clear.append(worst >= -tol)
    onset = None
    for k in range(len(anchors)):
        if all(clear[k:]):
            onset = k + 1
            break
    return BoundReport(
        check=CHECK_PARTITION_ANCHOR,
        verdict=PASS if onset is not None else FAIL,
        margins=tuple(margins),
        witnesses={} if onset else {"uncleared": [a for a, c in zip(anchors, clear) if not c]},
        extra={"onset_index": onset, "epsilon": epsilon, "pressure": pressure},
    )


def verify_partition_upper_trans(
    table: PartitionTable,
    pressure: float,
    big_c: float,
    onset: int,
    f: Callable[[int], int],
    g: Callable[[int], float],
    inf_phi: float,
    n_range: Sequence[int] | None = None,
    tol: float = 1e-9,
) -> BoundReport:
    """Polynomial-factor bound for transitivity-mode gap bounds.

    Precondition: onset >= 3 and f(n) + g(n) <= min(C ln n, n) for every
    n from the onset to the horizon; the first violating n is reported as
    precondition_fail. The reported extra includes the least exponent
    multiplier E' that would make the bound tight on this horizon.
    """
    if big_c <= 0:
        raise InputError("C must be positive")
    if onset < 3:
        raise InputError("onset must be >= 3")
    ns = list(n_range) if n_range is not None else list(range(onset, table.horizon + 1))
    for n in range(onset, table.horizon + 1):
        if f(n) + g(n) > min(big_c * math.log(n), float(n)) + 1e-12:
            return BoundReport(
                check=CHECK_PARTITION_TRANS,
                verdict=PRECONDITION_FAIL,
                margins=(),
                witnesses={"n": n, "f_plus_g": f(n) + g(n),
                           "cap": min(big_c * math.log(n), float(n))},
                extra={"pressure": pressure, "C": big_c},
            )
    exponent = pressure + 2.0 + abs(inf_phi - 1.0)
    ln_d = big_c * exponent * math.log(9.0)
    margins = []
    bad = []
    least_ep = 0.0
    for n in ns:
        if n < onset:
            raise InputError(f"n={n} below onset {onset}")
        row = table.row(n)
        margin = ln_d + n * pressure + big_c * exponent * math.log(n) - row.lnz_hi
        margins.append((n, margin))
        if margin < -tol:
            bad.append(n)
        needed = (row.lnz_hi - n * pressure) / (big_c * (math.log(9.0) + math.log(n)))
        least_ep = max(least_ep, needed)
    return BoundReport(
        check=CHECK_PARTITION_TRANS,
        verdict=PASS if not bad else FAIL,
        margins=tuple(margins),
        witnesses={"violations": bad} if bad else {},
        extra={
            "pressure": pressure,
            "C": big_c,
            "exponent": exponent,
            "ln_prefactor": ln_d,
            "least_exponent_multiplier": least_ep,
        },
    )


# ---------------------------------------------------------------------------
# measure lower bound
# ---------------------------------------------------------------------------


def verify_measure_lower(
    mm: MarkovMeasure,
    cyl: Word,
    n_range: Sequence[int],
    table: PartitionTable,
    g: Callable[[int], float],
    tol: float = 1e-9,
    budget: int = DEFAULT_NODE_BUDGET,
) -> BoundReport:
    """Lower bound on the cylinder-restricted partition sum.

    LHS(n) is the log partition sum over length-n words extending the
    cylinder word (sup endpoints: the separated set may pick the best
    point in each cylinder). RHS(n) = nP/mu + ((mu-1)/mu) lnZ(n) - g(n)
    - ln(2)/mu, evaluated with the Z endpoint that minimizes it, so a
    negative margin is a genuine violation.
    """
    cyl = tuple(cyl)
    model = mm.model
    mu = cylinder_measure(mm, cyl)
    if mu <= 0.0:
        raise InputError(
            f"cylinder {format_word(cyl)} has measure {mu}; need a positive-measure cylinder"
        )
    pressure = math.log(mm.lam)
    margins = []
    bad = []
    for n in n_range:
        if n < 1:
            raise InputError("lengths must be >= 1")
        prefix = cyl[: min(n, len(cyl))]
        lhs_row = partition_function(model.spec, model.pot, n, budget, prefix)
        lhs = lhs_row.lnz_hi
        row = table.row(n)
        rhs = (
            n * pressure / mu
            + (mu - 1.0) / mu * row.lnz_hi
            - g(n)
            - math.log(2.0) / mu
        )
        margin = lhs - rhs
        margins.append((n, margin))
        if margin < -tol:
            bad.append(n)
    return BoundReport(
        check=CHECK_MEASURE_LOWER,
        verdict=PASS if not bad else FAIL,
        margins=tuple(margins),
        witnesses={"violations": bad} if bad else {},
        extra={
            "cylinder": format_word(cyl),
            "measure": mu,
            "pressure": pressure,
        },
    )
