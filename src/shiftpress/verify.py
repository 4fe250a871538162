"""Empirical certificates for the package's bound claims.

Each verifier measures an inequality on concrete data and returns a
BoundReport: a verdict, per-length margins (bound side minus measured
side, so negative means violated), and witnesses for failures. Checks:

* density_glue - bounded density shifts glue every finite list of
  admissible words with all-zero fillers at every gap >= the declared
  bound; the heaviest-word profile decides every list at once, so no
  word is listed and status.glue probes and memo_hits stay 0;
* sparse_glue - sparse Sturmian pairs admit some filler of length at
  most the declared transitivity bound, one gap-profile row per length;
* partition_upper_spec - lnZ(n) <= (n+f(n))P - f(n) inf(phi) + g(n);
* partition_upper_anchor - lnZ(i) <= iP + eps ln(n_k) for i up to each
  anchor length n_k, from some onset anchor on;
* partition_upper_trans - lnZ(n) <= ln D + nP + CE ln n with
  E = P + 2 + |inf(phi) - 1| and D = 9^(CE), under the precondition
  f(n) + g(n) <= min(C ln n, n) past the onset;
* measure_lower - the cylinder-restricted partition sum dominates
  (nP)/mu + ((mu-1)/mu) lnZ(n) - g(n) - ln(2)/mu for a cylinder of
  positive equilibrium measure mu.

Verdicts: pass, fail, precondition_fail (errors.py).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from . import gluing, pressure as pressure_mod, transfer  # run by the checks that use them
from .config import (
    CHECK_DENSITY_GLUE, CHECK_MEASURE_LOWER, CHECK_PARTITION_ANCHOR, CHECK_PARTITION_SPEC,
    CHECK_PARTITION_TRANS, CHECK_SPARSE_GLUE,
)
from .errors import FAIL, PASS, PRECONDITION_FAIL, IdentityCheckError, InputError
from .subshifts import (
    DEFAULT_NODE_BUDGET, MODE_TRANSITIVITY, PAIR_BUDGET, SubshiftSpec, Tally, forward,
    states_built, walk,
)
from .words import Word, format_word


class BoundReport:
    """A check's verdict, its (n, margin) pairs, and witnesses and extra data
    for the payload."""

    __slots__ = ("check", "verdict", "margins", "witnesses", "extra")

    def __init__(self, check: str, verdict: str, margins: tuple[tuple[int, float], ...],
                 witnesses: dict | None = None, extra: dict | None = None):
        self.check, self.verdict, self.margins = check, verdict, margins
        self.witnesses = {} if witnesses is None else witnesses
        self.extra = {} if extra is None else extra

    @property
    def ok(self) -> bool:
        return self.verdict == PASS

    def min_margin(self) -> float:
        return min((m for _, m in self.margins), default=math.inf)


def _report(check: str, margins: list[tuple[int, float]], tol: float,
            extra: dict) -> BoundReport:
    """The one verdict rule: a margin below -tol is a violation, and any
    violation fails the check."""
    bad = [n for n, m in margins if m < -tol]
    return BoundReport(check, FAIL if bad else PASS, tuple(margins),
                       {"violations": bad} if bad else {}, extra)


# ---------------------------------------------------------------------------
# bounded density gluing
# ---------------------------------------------------------------------------


def _heavier(state, value, sym):
    count, (light, word) = value
    return state, (count, (light - sym, word + (sym,)))


def _heaviest(root, a_size: int, n: int, budget: int) -> list[tuple[int, int, Word]]:
    """(|L_k|, M(k), the least word of L_k with symbol sum M(k)) for k = 0..n,
    where M(k) is the largest symbol sum over L_k.

    One forward pass whose lane carries each class's word count and the
    least (-sum, word) over the words reaching it, merged by (add, min).
    Those words have the same continuations, so a class's heaviest word
    extends a parent's by one symbol.
    """
    out = []
    lane = (None, (1, (0, ())), _heavier, lambda a, b: (a[0] + b[0], min(a[1], b[1])))
    for level in forward(root, a_size, (), n, budget, Tally(), lane):
        light, word = min(v[1] for _, _, v in level.values())
        out.append((sum(v[0] for _, _, v in level.values()), -light, word))
    return out


def verify_density_glue(
    spec: SubshiftSpec,
    n_range: Sequence[int],
    *,
    f: Callable[[int], int] | None = None,
    budget: int = DEFAULT_NODE_BUDGET,
    work: gluing.GlueWork | None = None,
) -> BoundReport:
    """Certificate that every list v 0^m w 0^m ... 0^m u of words of L_n
    stays admissible for all m >= f(n).

    The walker caps windows of length up to the height table's n_max, so a
    list glues iff every such window across a gap fits. Windows inside a
    word are covered by its admissibility, and a window that starts or
    ends in a zero run by a shorter one, as h is non-decreasing; the rest
    take the last a symbols of one word, whole entire words and the first
    b symbols of another, joined by m zeros. Such a window has slack
    h(a+b+m+whole(n+m)) - suf(a) - (the whole words' sums) - pre(b), whose
    parts are independent, so its least value over all lists is
    h(a+b+m+whole(n+m)) - M(a) - M(b) - whole M(n). Here M(a), the largest
    sum over L_a, is both the largest suffix and the largest prefix sum of
    L_n: 0^(n-a) u and u 0^(n-a) are in L_n for every u in L_a. Longer gaps
    only lengthen windows, so m = f(n) decides every gap >= f(n). A
    length's margin is the least slack over whole = 0 (pairs), 1
    (triples), ..., up to the most entire words a window within the table
    holds, and over the (a, b) whose window fits. One forward pass over
    walker keys (_heaviest) gives M, the heaviest words H(a) and |L_n|
    without listing L_n.

    Each whole's least slack is reached by the list 0^(n-a) H(a), H(n)
    whole times, H(b) 0^(n-b). Its window core H(a) 0^m [H(n) 0^m]^whole
    H(b), at most n_max long, is walked up to the least failing whole, and
    IdentityCheckError is raised if the walker disagrees with the profile.
    That list is the failing length's witness. Since 0 is the minimal
    symbol, a failing all-zero filler rules out every other filler of the
    same length, so failures are genuine. work, when given, gets the
    counters added: every pair counts as sampled, nothing is probed, and
    the pass's and walks' states count as built.
    """
    if spec.family != "bounded_density":
        raise InputError("density_glue runs on bounded density instances")
    params = spec.params["density"]
    h, n_max = params.h, params.n_max
    root = spec.root_walker()
    work = gluing.GlueWork() if work is None else work
    f_at = f if f is not None else spec.declared_gap
    fns = []  # each length's need is checked against the height table before the pass
    for n in n_range:
        if n < 1:
            raise InputError("lengths must be >= 1")
        fns.append(f_at(n))
        if 2 * n + fns[-1] > n_max:
            raise InputError(f"height table covers lengths <= {n_max}, "
                             f"need {2 * n + fns[-1]} for n={n}")
    n_top = max(n_range, default=0)
    counts, heavy, heaviest = zip(*_heaviest(root, spec.alphabet_size, n_top, budget))
    margins = []
    witnesses: dict = {}
    for n, m in zip(n_range, fns):
        work.words += counts[n]
        work.pairs += counts[n] ** 2
        least = math.inf
        for whole in range((n_max - 2 - m) // (n + m) + 1):
            span = m + whole * (n + m)  # the window's gaps and entire words
            worst, a, b = min(
                (h[a + b + span] - heavy[a] - heavy[b] - whole * heavy[n], a, b)
                for a in range(1, n + 1) for b in range(1, min(n, n_max - span - a) + 1)
            )
            least = min(least, worst)
            if n in witnesses:
                continue
            middle = [heaviest[n]] * whole
            core = sum(((0,) * m + w for w in [*middle, heaviest[b]]), heaviest[a])
            if (walk(root, core) is None) != (worst < 0):
                raise IdentityCheckError(f"n={n}: the profile's least slack is {worst} for "
                                         f"whole={whole}, but the walker disagrees on "
                                         f"{format_word(core)}")
            if worst < 0:
                words = [(0,) * (n - a) + heaviest[a], *middle, heaviest[b] + (0,) * (n - b)]
                witnesses[n] = {"words": [format_word(w) for w in words], "m": m}
        margins.append((n, float(least)))
    work.states += states_built(root)
    return BoundReport(
        check=CHECK_DENSITY_GLUE,
        verdict=FAIL if witnesses else PASS,
        margins=tuple(margins),
        witnesses=witnesses,
        extra={"e_monotone": params.e_monotone},
    )


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
    pair_budget: int = PAIR_BUDGET,
    seed: int = 0,
    work: gluing.GlueWork | None = None,
) -> BoundReport:
    """Certificate that some filler of length <= f(n) joins every pair.

    Each length is a transitivity row of gluing.min_gap_profile at m_max =
    f(n), its pairs scanned or sampled as there, with its coverage. A
    pair's gap is the least at which any filler glues, so a pair with none
    up to f(n) is a genuine counterexample whatever the strategy, which
    picks only the witness filler. work, when given, gets the search's
    counters added.
    """
    f_at = f if f is not None else spec.declared_gap
    if f_at is None:
        raise InputError("no gap bound declared or supplied")
    work = gluing.GlueWork() if work is None else work
    margins = []
    witnesses: dict = {}
    verdict = PASS
    coverages = {}
    for n in n_range:
        fn = f_at(n)
        row = gluing.min_gap_profile(
            spec, n, MODE_TRANSITIVITY, fn, strategy,
            budget=budget, pair_budget=pair_budget, seed=seed, work=work,
        )
        coverages[n] = row.coverage
        if row.counterexample is not None:
            verdict = FAIL
            v, w, _ = row.counterexample
            witnesses[n] = {"v": format_word(v), "w": format_word(w), "m_max": fn}
            margins.append((n, float(-1)))
            continue
        margins.append((n, float(fn - row.f_empirical)))
        witnesses.setdefault("worst", {})[n] = dict(zip("vuw", map(format_word, row.witness)))
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
    table: pressure_mod.PartitionTable,
    pressure: float,
    f: Callable[[int], int],
    g: Callable[[int], float],
    inf_phi: float,
    n_range: Sequence[int] | None = None,
    tol: float = 1e-9,
) -> BoundReport:
    ns = list(n_range) if n_range is not None else list(range(1, table.horizon + 1))
    margins = []
    for n in ns:
        row = table.row(n)
        fn = f(n)
        rhs = (n + fn) * pressure - fn * inf_phi + g(n)
        margins.append((n, rhs - row.lnz_hi))
    return _report(CHECK_PARTITION_SPEC, margins, tol, {"pressure": pressure, "inf_phi": inf_phi})


def verify_partition_upper_anchor(
    table: pressure_mod.PartitionTable,
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
    table: pressure_mod.PartitionTable,
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
    least_ep = 0.0
    for n in ns:
        if n < onset:
            raise InputError(f"n={n} below onset {onset}")
        row = table.row(n)
        margins.append((n, ln_d + n * pressure + big_c * exponent * math.log(n) - row.lnz_hi))
        needed = (row.lnz_hi - n * pressure) / (big_c * (math.log(9.0) + math.log(n)))
        least_ep = max(least_ep, needed)
    return _report(CHECK_PARTITION_TRANS, margins, tol, {
        "pressure": pressure,
        "C": big_c,
        "exponent": exponent,
        "ln_prefactor": ln_d,
        "least_exponent_multiplier": least_ep,
    })


# ---------------------------------------------------------------------------
# measure lower bound
# ---------------------------------------------------------------------------


def verify_measure_lower(
    mm: transfer.MarkovMeasure,
    cyl: Word,
    n_range: Sequence[int],
    table: pressure_mod.PartitionTable,
    g: Callable[[int], float],
    tol: float = 1e-9,
    budget: int = DEFAULT_NODE_BUDGET,
) -> BoundReport:
    """Lower bound on the cylinder-restricted partition sum.

    LHS(n) is the log partition sum over length-n words extending the
    cylinder word (sup endpoints: the separated set may pick the best
    point in each cylinder). RHS(n) = nP/mu + ((mu-1)/mu) lnZ(n) - g(n)
    - ln(2)/mu, with the Z endpoint that minimizes it. LHS(n), lnZ(n) and
    g(n) are enclosures, but P = ln(lambda) and mu are float points and
    RHS(n) rounds to nearest: a negative margin is not a certified violation.
    """
    cyl = tuple(cyl)
    model = mm.model
    mu = transfer.cylinder_measure(mm, cyl)
    if mu <= 0.0:
        raise InputError(
            f"cylinder {format_word(cyl)} has measure {mu}; need a positive-measure cylinder"
        )
    pressure = math.log(mm.lam)
    ns = list(n_range)
    if any(n < 1 for n in ns):
        raise InputError("lengths must be >= 1")
    # one sweep per prefix, to the longest length that restricts to it: a
    # sweep's row at n does not depend on where the sweep stops
    tops: dict[Word, int] = {}
    for n in ns:
        prefix = cyl[: min(n, len(cyl))]
        tops[prefix] = max(n, tops.get(prefix, 0))
    lhs_of = {}  # prefixes shorter than cyl are swept to their own length only
    for prefix, top in tops.items():
        rows, _nodes, _states = pressure_mod._sweep(model.spec, model.pot, top, budget, prefix)
        lhs_of.update((r.n, r.lnz_hi) for r in rows)
    margins = []
    for n in ns:
        lhs = lhs_of[n]
        row = table.row(n)
        rhs = (
            n * pressure / mu
            + (mu - 1.0) / mu * row.lnz_hi
            - g(n)
            - math.log(2.0) / mu
        )
        margins.append((n, lhs - rhs))
    return _report(CHECK_MEASURE_LOWER, margins, tol,
                   {"cylinder": format_word(cyl), "measure": mu, "pressure": pressure})
