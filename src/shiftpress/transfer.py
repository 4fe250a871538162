"""Block-graph transfer operators, Perron data, and Markov equilibria.

The transfer model at block length n has one state per admissible n-word
and an edge u -> v whenever u and v overlap in n-1 symbols and the joined
(n+1)-word is admissible. Edge weights are e^phi evaluated at the first
fully visible site of the joined word, so a path of length l multiplies
weights over l consecutive sites. For a subshift of finite type whose
forbidden words fit inside the blocks, ln(Perron eigenvalue) is the
pressure of the weighted shift; for longer-range constraints the model is
the finite-type approximation and overestimates.

Perron data comes from plain power iteration with uniform start and
infinity-norm normalization; the iteration is deterministic, so repeated
runs give bitwise-identical eigenvalues.

The model is kept in numpy arrays, and numpy is imported by the functions
that build or read them, on first call: importing this module (which the
command line does) costs nothing for commands that build no model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ConvergenceError, IdentityCheckError, InputError, ReducibleGraphError
from .potentials import LocallyConstantPotential, Potential, ZeroPotential
from .subshifts import DEFAULT_NODE_BUDGET, Exactness, SubshiftSpec, Tally, iter_language
from .words import Word

if TYPE_CHECKING:
    import numpy as np


@dataclass
class TransferModel:
    """Block graph as (states, |A|) arrays: the edge reading symbol s from
    state i goes to succ[i, s] (-1: no edge) with weight e^phi(edge) in
    weights[i, s] and phi(edge) in log_weights[i, s]."""

    spec: SubshiftSpec
    pot: Potential
    n_state: int
    states: tuple[Word, ...]
    index: dict[Word, int]
    succ: np.ndarray
    weights: np.ndarray
    log_weights: np.ndarray
    nodes: int  # walker nodes charged to enumerate the states

    @property
    def state_count(self) -> int:
        return len(self.states)

    def edges(self):
        """(flat positions, rows, cols) of the edges, row by row in column order."""
        import numpy as np

        flat = np.flatnonzero(self.succ >= 0)
        return flat, flat // self.succ.shape[1], self.succ.ravel()[flat]


def _edge_site(pot: Potential) -> int:
    if isinstance(pot, ZeroPotential):
        return 0
    if isinstance(pot, LocallyConstantPotential):
        return pot.radius
    raise InputError(
        "transfer models need a locally constant (or zero) potential; "
        "use pressure brackets for run-based potentials"
    )


def _reaches_all(adj: np.ndarray) -> bool:
    """Whether breadth-first search along adj (-1: no edge) from state 0 reaches all."""
    import numpy as np

    seen = np.zeros(len(adj), dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.intp)
    while frontier.size:
        nxt = adj[frontier].ravel()
        nxt = nxt[nxt >= 0]
        frontier = np.unique(nxt[~seen[nxt]])
        seen[frontier] = True
    return bool(seen.all())


def build_transfer(
    spec: SubshiftSpec,
    pot: Potential,
    n_state: int,
    budget: int = DEFAULT_NODE_BUDGET,
) -> TransferModel:
    """Assemble the weighted block graph at block length n_state.

    Requires an exact-language oracle and n_state >= 2r+1 so every edge
    weight is a determined value, and a strongly connected graph. The
    states come from one walk, charged to budget like iter_language;
    each edge is one step of a state's end walker.
    """
    import numpy as np

    if spec.exactness is not Exactness.EXACT_LANGUAGE:
        raise InputError("transfer models need an exact language oracle")
    r = _edge_site(pot)
    if n_state < 2 * r + 1:
        raise InputError(
            f"n_state={n_state} too small for potential radius {r}; need >= {2 * r + 1}"
        )
    tally = Tally()
    leaves = list(iter_language(spec, n_state, budget, tally=tally, ends=True))
    if not leaves:
        raise InputError("no admissible states at this block length")
    states = tuple(u for u, _ in leaves)
    index = {u: i for i, u in enumerate(states)}
    a_size, n = spec.alphabet_size, len(states)
    succ, vals, logs = [-1] * (n * a_size), [0.0] * (n * a_size), [0.0] * (n * a_size)
    for i, (u, end) in enumerate(leaves):
        for s in range(a_size):
            if end.child(s) is None:
                continue
            joined = u + (s,)
            iv = pot.eval(joined, r)
            if iv.width != 0.0:
                raise InputError("edge weight not determined by the joined block")
            # exact languages are factorial, so the suffix is a state
            e = i * a_size + s
            succ[e], vals[e], logs[e] = index[joined[1:]], math.exp(iv.lo), iv.lo
    shape = (n, a_size)
    model = TransferModel(
        spec, pot, n_state, states, index,
        succ=np.array(succ, dtype=np.intp).reshape(shape),
        weights=np.array(vals).reshape(shape),
        log_weights=np.array(logs).reshape(shape),
        nodes=tally.nodes,
    )
    # in a block graph the predecessors of a state differ in their first symbol
    _flat, rows, cols = model.edges()
    pred = np.full((n, a_size), -1, dtype=np.intp)
    pred[cols, np.array([u[0] for u in states])[rows]] = rows
    if not (_reaches_all(model.succ) and _reaches_all(pred)):
        raise ReducibleGraphError(
            f"block graph at n_state={n_state} is not strongly connected; "
            "Perron data is not well defined"
        )
    return model


@dataclass
class PerronData:
    lam: float
    right: np.ndarray
    left: np.ndarray  # normalized so that <left, right> = 1
    residual: float
    iterations: int


def _power_iterate(product, n: int, tol: float, max_iter: int):
    import numpy as np

    v = np.ones(n)
    lam = 1.0
    for it in range(1, max_iter + 1):
        w = product(v)
        lam = float(w.max())
        if lam <= 0.0:
            raise ConvergenceError("iterate collapsed to zero", 0.0, it)
        residual = float(np.abs(w - lam * v).max())
        v = w / lam
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
    """Dominant eigenvalue and eigenvectors by power iteration.

    (M v)[i] adds the edges of row i in column order, and (v M)[j] adds
    the edges into j in row order, each from 0.0 left to right.
    """
    import numpy as np

    if tol <= 0:
        raise InputError("tol must be positive")
    succ, weights, n = model.succ, model.weights, model.state_count
    flat, rows, cols = model.edges()
    w_edge = weights.ravel()[flat]

    def right_product(v):
        # an absent edge adds 0.0 * v[-1] = 0.0, which changes no sum
        w = weights[:, 0] * v[succ[:, 0]]
        for s in range(1, succ.shape[1]):
            w += weights[:, s] * v[succ[:, s]]
        return w

    def left_product(v):
        return np.bincount(cols, weights=w_edge * v[rows], minlength=n)

    lam, right, res_r, it_r = _power_iterate(right_product, n, tol, max_iter)
    lam_l, left, res_l, it_l = _power_iterate(left_product, n, tol, max_iter)
    if abs(lam - lam_l) > 10 * tol * max(lam, lam_l):
        raise ConvergenceError(
            f"left/right eigenvalue mismatch: {lam} vs {lam_l}",
            abs(lam - lam_l),
            it_r + it_l,
        )
    left = left / float(left @ right)
    return PerronData(lam, right, left, residual=max(res_r, res_l), iterations=max(it_r, it_l))


@dataclass
class MarkovMeasure:
    """Stationary Markov chain on block states built from Perron data.

    p(u, v) = M[u, v] r(v) / (lam r(u)), kept like the weights as
    p[u, s] for the edge reading s (0 where there is none);
    pi(u) = l(u) r(u). entropy and phi_integral satisfy
    entropy + phi_integral = ln(lam) up to rounding, which is checked at
    construction.
    """

    model: TransferModel
    lam: float
    pi: np.ndarray
    p: np.ndarray
    entropy: float
    phi_integral: float
    stationarity_gap: float
    identity_gap: float


def markov_equilibrium(
    model: TransferModel,
    perron_data: PerronData | None = None,
    *,
    identity_tol: float = 1e-8,
    stationarity_tol: float = 1e-10,
) -> MarkovMeasure:
    import numpy as np

    pd = perron_data if perron_data is not None else perron(model)
    lam = pd.lam
    r = pd.right
    pi = pd.left * pd.right
    pi = pi / pi.sum()
    n = model.state_count
    flat, rows, cols = model.edges()
    data = model.weights.ravel()[flat] * r[cols] / (lam * r[rows])
    row_sums = np.bincount(rows, weights=data, minlength=n)
    if np.abs(row_sums - 1.0).max() > 1e-9:
        raise IdentityCheckError("transition rows do not sum to 1")
    stat_gap = float(np.abs(np.bincount(cols, weights=data * pi[rows], minlength=n) - pi).sum())
    if stat_gap > stationarity_tol:
        raise IdentityCheckError(f"pi is not stationary: l1 gap {stat_gap:.3e}")
    with np.errstate(divide="ignore"):
        plogp = data * np.log(data)
    entropy = -float(np.sum(pi[rows] * plogp))
    phi_integral = float(np.sum(pi[rows] * data * model.log_weights.ravel()[flat]))
    identity_gap = abs(entropy + phi_integral - math.log(lam))
    if identity_gap > identity_tol:
        raise IdentityCheckError(
            f"entropy {entropy} + integral {phi_integral} != ln lam "
            f"{math.log(lam)} (gap {identity_gap:.3e})"
        )
    p = np.zeros(model.succ.shape)
    p.ravel()[flat] = data
    return MarkovMeasure(model, lam, pi, p, entropy, phi_integral, stat_gap, identity_gap)


def cylinder_measure(mm: MarkovMeasure, word: Word) -> float:
    """Measure of the cylinder fixing `word` at the word's own positions."""
    word = tuple(word)
    model = mm.model
    ns = model.n_state
    if not word:
        return 1.0
    if len(word) <= ns:
        total = 0.0
        for u, i in model.index.items():
            if u[: len(word)] == word:
                total += float(mm.pi[i])
        return total
    i = model.index.get(word[:ns])
    if i is None:
        return 0.0
    prob = float(mm.pi[i])
    for s in word[ns:]:
        step = mm.p[i, s] if 0 <= s < model.spec.alphabet_size else 0.0
        if step == 0.0:
            return 0.0
        prob *= float(step)
        i = model.succ[i, s]
    return prob
