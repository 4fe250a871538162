"""Transfer models, Perron data, and Markov equilibria, in plain Python.

A transfer model is a finite weighted graph that presents the subshift:
reading symbol s in state i leads to at most one state, and a path
multiplies e^phi over the sites its symbols decide. Its nodes are the
classes (walker key, scanner state) that the partition sweep merges words
on (`pressure._sweep`): equal keys admit the same continuations and equal
scanner states emit the same site values from there on (Lind & Marcus, An
Introduction to Symbolic Dynamics and Coding, section 3.2). One closure
pass of `subshifts.forward` finds them, from the root in symbol order
until a length brings no new class; an edge's phi sums the site values
the potential, as a scanner, emits on that step, so any radius works at
any n_state. The model keeps its edges as one list (TransferModel.edges).

The root walker is asked for the window K = n_state + 1. The full shift,
SFTs and their products ignore it, and their model is exact: the golden
mean has 3 recurrent classes whatever n_state is. A bounded density shift
is cut to its windows of length <= K, the shift of finite type that the
block graph at block length n_state presents, so its keys close; for a
constraint longer than K the model overestimates.

The model keeps the one strongly connected component that carries a
cycle, the recurrent classes, and refuses a graph with more than one.
Each class is labelled by the least word (shortest, then
lexicographically least) leading to it from the root.

Perron data comes from plain power iteration with uniform start and
max-norm normalization, on the right and on the left; the eigenvalue is
then read off both vectors. The iteration is deterministic, so repeated
runs give bitwise-identical eigenvalues.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, IdentityCheckError, InputError, ReducibleGraphError
from .potentials import LocallyConstantPotential, Potential, ZeroPotential
from .subshifts import DEFAULT_NODE_BUDGET, SubshiftSpec, Tally, forward
from .words import Word

# markov_equilibrium's bounds on |h + integral - ln lambda| and on the l1 gap of pi P - pi
IDENTITY_TOL, STATIONARITY_TOL = 1e-8, 1e-10


class TransferModel:
    """Recurrent classes of the class graph.

    The edge reading symbol s from state i goes to succ[i][s] (-1: no
    edge). edges lists every edge as (i, s, succ[i][s], phi(edge)), row by
    row in symbol order; its weight is e^phi. labels[i] is the least word
    from the root to state i. explored counts the classes visited before
    the transient ones were dropped, nodes what was charged to the budget.
    """

    __slots__ = ("spec", "pot", "n_state", "labels", "succ", "edges", "explored", "nodes")

    def __init__(self, spec: SubshiftSpec, pot: Potential, n_state: int,
                 labels: tuple[Word, ...], succ: list[list[int]],
                 edges: list[tuple[int, int, int, float]], explored: int, nodes: int):
        self.spec, self.pot, self.n_state = spec, pot, n_state
        self.labels, self.succ, self.edges = labels, succ, edges
        self.explored, self.nodes = explored, nodes

    @property
    def state_count(self) -> int:
        return len(self.labels)


def _class_graph(spec: SubshiftSpec, pot: Potential, window: int, budget: int):
    """Labels, successors and emitted site values of the classes reached
    from the root walker at window, from one closure pass whose lane is
    the potential's scanner state with the least word reaching the class;
    plus the nodes charged. The classes are numbered breadth first in
    symbol order, so each class is first reached by its least word."""
    a_size, tally = spec.alphabet_size, Tally()
    moves: dict = {}  # (scanner state, symbol) -> (next state, emitted values)

    def step(state, word, sym):
        got = moves[state, sym] = pot.step(state, sym)
        return got[0], word + (sym,)

    lane = (pot.start, (), step, min)
    classes: dict = {}
    root = spec.root_walker(window)
    for level in forward(root, a_size, (), math.inf, budget, tally, lane, True):
        classes.update(level)
    index = {c: i for i, c in enumerate(classes)}
    labels, succ, emitted = [], [], []
    for walker, state, label in classes.values():
        row, vals = [-1] * a_size, [()] * a_size
        for s in range(a_size):
            child = walker.child(s)
            if child is not None:
                nxt, vals[s] = moves[state, s]
                row[s] = index[(child.key(), nxt)]
        labels.append(label)
        succ.append(row)
        emitted.append(vals)
    return labels, succ, emitted, tally.nodes


def _cyclic_component(succ: list[list[int]]) -> list[int]:
    """The states of the one strongly connected component that carries a
    cycle, ascending (Tarjan's algorithm with an explicit stack)."""
    n = len(succ)
    order, low, on_stack = [-1] * n, [0] * n, [False] * n
    stack: list[int] = []
    cyclic = []
    count = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = count
        count += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, kids = work[-1]
            for w in kids:
                if w < 0:
                    continue
                if order[w] < 0:
                    order[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w]:
                    low[v] = min(low[v], order[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == order[v]:
                    comp = [stack.pop()]
                    while comp[-1] != v:
                        comp.append(stack.pop())
                    for w in comp:
                        on_stack[w] = False
                    if len(comp) > 1 or v in succ[v]:
                        cyclic.append(sorted(comp))
    if len(cyclic) != 1:
        raise ReducibleGraphError(
            f"the graph has {len(cyclic)} cyclic components, not one; "
            "Perron data is not well defined"
        )
    return cyclic[0]


def _edge_phi(ivs) -> float:
    """phi of an edge: the sum of the site values it emits, all points."""
    if any(iv.width != 0.0 for iv in ivs):
        raise InputError("edge weight not determined by the class")
    return math.fsum(iv.lo for iv in ivs)


def build_transfer(
    spec: SubshiftSpec,
    pot: Potential,
    n_state: int,
    budget: int = DEFAULT_NODE_BUDGET,
) -> TransferModel:
    """The recurrent part of the class graph at window n_state + 1.

    Requires an exact-language oracle, a zero or locally constant
    potential, and exactly one cyclic component. The closure pass is
    charged a_size nodes per class.
    """
    if not spec.exact:
        raise InputError("transfer models need an exact language oracle")
    if not isinstance(pot, (ZeroPotential, LocallyConstantPotential)):
        raise InputError(
            "transfer models need a locally constant (or zero) potential; "
            "use pressure brackets for run-based potentials"
        )
    labels, succ, emitted, nodes = _class_graph(spec, pot, n_state + 1, budget)
    keep = _cyclic_component(succ)
    new = {old: i for i, old in enumerate(keep)}
    # an edge out of the component leads to no cycle, and is dropped
    rows = [[new.get(j, -1) for j in succ[old]] for old in keep]
    edges = [(i, s, j, _edge_phi(emitted[old][s]))
             for i, (old, row) in enumerate(zip(keep, rows)) for s, j in enumerate(row) if j >= 0]
    return TransferModel(
        spec, pot, n_state,
        labels=tuple(labels[old] for old in keep),
        succ=rows, edges=edges, explored=len(labels), nodes=nodes,
    )


class PerronData:
    """lam with its right and left vectors, left normalized so that <left, right> = 1."""

    __slots__ = ("lam", "right", "left", "residual", "iterations")

    def __init__(self, lam: float, right: list[float], left: list[float], residual: float,
                 iterations: int):
        self.lam, self.right, self.left = lam, right, left
        self.residual, self.iterations = residual, iterations


def _power_iterate(product, n: int, tol: float, max_iter: int):
    v = [1.0] * n
    lam = residual = 0.0
    for it in range(1, max_iter + 1):
        w = product(v)
        lam = max(w)
        if lam <= 0.0:
            raise ConvergenceError("iterate collapsed to zero", 0.0, it)
        residual = max(abs(x - lam * y) for x, y in zip(w, v))
        v = [x / lam for x in w]
        if residual <= tol * lam:
            return lam, v, residual, it
    raise ConvergenceError(
        f"power iteration did not converge in {max_iter} steps (residual {residual:.3e})",
        residual, max_iter,
    )


def perron(
    model: TransferModel,
    tol: float = 1e-12,
    max_iter: int = 200_000,
) -> PerronData:
    """Dominant eigenvalue and eigenvectors by power iteration, the
    eigenvalue read off both vectors at the end.

    Both products are one pass over the model's edge list: (M v)[i] adds
    the edges of row i in symbol order, and (v M)[j] adds the edges into j
    in row order, each from 0.0 left to right.
    """
    if tol <= 0:
        raise InputError("tol must be positive")
    n = model.state_count
    edges = [(i, j, math.exp(phi)) for i, _s, j, phi in model.edges]

    def right_product(v):
        got = [0.0] * n
        for i, j, w in edges:
            got[i] += w * v[j]
        return got

    def left_product(v):
        got = [0.0] * n
        for i, j, w in edges:
            got[j] += w * v[i]
        return got

    lam, right, res_r, it_r = _power_iterate(right_product, n, tol, max_iter)
    lam_l, left, res_l, it_l = _power_iterate(left_product, n, tol, max_iter)
    if abs(lam - lam_l) > 10 * tol * max(lam, lam_l):
        raise ConvergenceError(
            f"left/right eigenvalue mismatch: {lam} vs {lam_l}",
            abs(lam - lam_l),
            it_r + it_l,
        )
    dot = math.fsum(x * y for x, y in zip(left, right))
    left = [x / dot for x in left]
    # <l, M r> / <l, r>: its error is the product of the two vectors' errors,
    # where lam's own is of the order of the residual over the spectral gap
    lam = math.fsum(x * y for x, y in zip(left, right_product(right)))
    return PerronData(lam, right, left, residual=max(res_r, res_l), iterations=max(it_r, it_l))


class MarkovMeasure:
    """Stationary Markov chain on the model's states built from Perron data.

    p(u, v) = M[u, v] r(v) / (lam r(u)), kept like the successors as
    p[u][s] for the edge reading s (0 where there is none);
    pi(u) = l(u) r(u). entropy and phi_integral satisfy
    entropy + phi_integral = ln(lam) up to rounding, which is checked at
    construction.
    """

    __slots__ = ("model", "lam", "pi", "p", "entropy", "phi_integral", "stationarity_gap",
                 "identity_gap")

    def __init__(self, model: TransferModel, lam: float, pi: list[float], p: list[list[float]],
                 entropy: float, phi_integral: float, stationarity_gap: float,
                 identity_gap: float):
        self.model, self.lam, self.pi, self.p = model, lam, pi, p
        self.entropy, self.phi_integral = entropy, phi_integral
        self.stationarity_gap, self.identity_gap = stationarity_gap, identity_gap


def markov_equilibrium(
    model: TransferModel,
    perron_data: PerronData | None = None,
) -> MarkovMeasure:
    pd = perron_data if perron_data is not None else perron(model)
    lam, r = pd.lam, pd.right
    pi = [x * y for x, y in zip(pd.left, r)]
    total = math.fsum(pi)
    pi = [x / total for x in pi]
    n = model.state_count
    p = [[0.0] * len(row) for row in model.succ]
    row_sums, flow = [0.0] * n, [0.0] * n
    plogp, phi_terms = [], []
    for i, s, j, phi in model.edges:
        q = p[i][s] = math.exp(phi) * r[j] / (lam * r[i])
        row_sums[i] += q
        flow[j] += q * pi[i]
        if q > 0.0:
            plogp.append(pi[i] * q * math.log(q))
        phi_terms.append(pi[i] * q * phi)
    if max(abs(x - 1.0) for x in row_sums) > 1e-9:
        raise IdentityCheckError("transition rows do not sum to 1")
    stat_gap = math.fsum(abs(x - y) for x, y in zip(flow, pi))
    if stat_gap > STATIONARITY_TOL:
        raise IdentityCheckError(f"pi is not stationary: l1 gap {stat_gap:.3e}")
    entropy = -math.fsum(plogp)
    phi_integral = math.fsum(phi_terms)
    identity_gap = abs(entropy + phi_integral - math.log(lam))
    if identity_gap > IDENTITY_TOL:
        raise IdentityCheckError(
            f"entropy {entropy} + integral {phi_integral} != ln lam "
            f"{math.log(lam)} (gap {identity_gap:.3e})"
        )
    return MarkovMeasure(model, lam, pi, p, entropy, phi_integral, stat_gap, identity_gap)


def cylinder_measure(mm: MarkovMeasure, word: Word) -> float:
    """Measure of the cylinder fixing `word`: the word walked from every
    state i, sum_i pi(i) prod p(edge), which telescopes to
    sum_i l(i) W(i, word) r(end) / lam^|word|."""
    word = tuple(word)
    if not word:
        return 1.0
    succ, a_size = mm.model.succ, mm.model.spec.alphabet_size
    if not all(0 <= s < a_size for s in word):
        return 0.0
    total = 0.0
    for start, prob in enumerate(mm.pi):
        i = start
        for s in word:
            prob *= mm.p[i][s]
            i = succ[i][s]
            if i < 0:
                break
        else:
            total += prob
    return total
