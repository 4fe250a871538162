"""Batch command line front end.

Subcommands: enumerate, pressure, gap-profile, verify <tag>, equilibrium,
anchors. Every run reads one YAML experiment configuration, writes its
outputs plus a manifest (content hashes, status, wall clock) into the
output directory, and reports through the exit code:

0 success / Pass, 2 input error, 3 budget or horizon exhausted,
4 internal inconsistency, 5 verification Fail, 6 precondition Fail.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from contextlib import contextmanager
from functools import cached_property
from pathlib import Path
from typing import Callable

from . import __version__, gluing, pressure, reports, transfer, verify
from .config import (
    ALL_CHECKS,
    CHECK_DENSITY_GLUE,
    CHECK_PARTITION_ANCHOR,
    CHECK_PARTITION_SPEC,
    CHECK_PARTITION_TRANS,
    CHECK_SPARSE_GLUE,
    ExperimentConfig,
    build_potential,
    build_subshift,
    load_config,
)
from .errors import (
    FAIL,
    HORIZON_EXHAUSTED,
    PASS,
    PRECONDITION_FAIL,
    BudgetExceededError,
    ConvergenceError,
    IdentityCheckError,
    InconsistentBracketError,
    InputError,
    ReducibleGraphError,
)
from .potentials import Potential, VarProfile, variation_profile
from .subshifts import DEFAULT_NODE_BUDGET, SubshiftSpec, Tally, iter_language
from .words import check_symbols, format_word, parse_word

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INCONSISTENT = 4
EXIT_FAIL = 5
EXIT_PRECONDITION = 6

VERDICT_EXIT = {
    PASS: EXIT_OK,
    FAIL: EXIT_FAIL,
    PRECONDITION_FAIL: EXIT_PRECONDITION,
    HORIZON_EXHAUSTED: EXIT_BUDGET,
}


@contextmanager
def _blaming(key: str):
    """An InputError raised inside becomes one that names config key."""
    try:
        yield
    except InputError as exc:
        raise InputError(f"{key}: {exc}") from None


class _Run:
    """Shared per-invocation state: config, output dir, manifest, and the
    partition table, variation profile, pressure bracket and transfer model,
    each computed on first read."""

    def __init__(self, args):
        self.cfg: ExperimentConfig = load_config(args.config)
        self.digest = self.cfg.digest
        self.budget = DEFAULT_NODE_BUDGET if args.budget is None else args.budget
        if self.budget < 1:
            raise InputError("--budget must be a positive node count")
        self.spec: SubshiftSpec = build_subshift(self.cfg.subshift)
        self.pot: Potential = build_potential(self.cfg.potential, self.spec)
        n_state = self.cfg.horizons.n_state
        if n_state is not None:
            with _blaming("horizons.n_state"):  # a density table must reach the model's window
                self.spec.root_walker(n_state + 1)
        self.out = Path(args.out) if args.out else Path(self.cfg.output_dir)
        self.manifest = reports.RunManifest(config_digest=self.digest, command=args.command)
        self.glue: gluing.GlueWork | None = None
        self.started = time.monotonic()

    def write(self, name: str, writer, *args, **kwargs) -> None:
        """Write payload name with a reports writer and record its hash. The
        output directory is made with the first payload, so a run that fails
        before it writes nothing."""
        self.out.mkdir(parents=True, exist_ok=True)
        self.manifest.record(writer(self.out / name, *args, **kwargs))

    @cached_property
    def table(self) -> pressure.PartitionTable:
        return pressure.partition_table(self.spec, self.pot, self.cfg.horizons.n_max, self.budget)

    @cached_property
    def g(self) -> VarProfile:
        """The variation profile to horizons.var_horizon, which must bound
        g(n) at every length up to n_max, the lengths commands read."""
        horizon = self.cfg.horizons.var_horizon
        n_max = self.cfg.horizons.n_max
        if horizon is None:
            horizon = (n_max + 1) // 2
        profile = variation_profile(self.pot, self.spec, horizon, self.budget)
        if len(profile.g) <= n_max:
            raise InputError(
                f"horizons.var_horizon: {horizon} bounds g(n) only for n <= "
                f"{len(profile.g) - 1}, short of horizons.n_max = {n_max}; "
                f"set it to at least {n_max // 2}"
            )
        return profile

    @cached_property
    def bracket(self) -> pressure.PressureBracket:
        return pressure.pressure_bracket(
            self.spec, self.pot, self.table, g=self.g, tol=self.cfg.tolerances.margin
        )

    def transfer(self, needed_by: str):
        """The transfer model at horizons.n_state, which needed_by requires,
        and its Perron data; the work goes to status.transfer in the manifest."""
        if self.cfg.horizons.n_state is None:
            raise InputError(f"{needed_by} needs horizons.n_state")
        return self._transfer

    @cached_property
    def _transfer(self):
        n_state = self.cfg.horizons.n_state
        model = transfer.build_transfer(self.spec, self.pot, n_state, self.budget)
        pd = transfer.perron(model, tol=self.cfg.tolerances.perron)
        self.manifest.status["transfer"] = {
            "n_state": n_state, "explored": model.explored,
            "states": model.state_count, "edges": len(model.edges),
            "nodes": model.nodes, "budget": self.budget,
            "iterations": pd.iterations, "residual": pd.residual,
            "ln_lambda": math.log(pd.lam),
        }
        return model, pd

    def glue_work(self) -> gluing.GlueWork:
        """Counters for this run's glue search; they go to status.glue."""
        self.glue = gluing.GlueWork()
        return self.glue

    def lengths(self, key: str, ns, lo: int = 1, hi: int | None = None) -> list[int]:
        """ns, the lengths a check reads, once they are non-empty and within
        lo..hi (hi = horizons.n_max where the check reads the partition
        table). Every check calls it before any sweep, so a range that would
        check nothing, or only part of what it names, fails naming key."""
        if not ns:  # only a default range can be empty: the config's n_ranges are not
            raise InputError(f"{key}: no length to check in {ns.start}..{ns.stop - 1}")
        ns, span = list(ns), f"{lo}..{'' if hi is None else hi}"
        for n in ns:
            if n < lo or hi is not None and n > hi:
                raise InputError(f"{key}: n={n} is outside {span}, the lengths this check reads")
        return ns

    def gap(self, params: dict, *reads) -> Callable[[int], int]:
        """The gap bound a check reads: its f_const, or the declared bound
        once every (lengths, key) in reads lies within the bound's reach;
        the error names the key of the first that does not."""
        if params.get("f_const") is not None:
            return lambda n, c=params["f_const"]: c
        if self.spec.declared_gap is None:
            raise InputError(f"{self.spec.family} declares no gap bound; set one in the config")
        reach = self.spec.gap_reach
        for ns, key in reads:
            if reach is not None and max(ns) > reach:
                raise InputError(f"{key}: n={max(ns)} is beyond n={reach}, the reach of the "
                                 "declared gap bound")
        return self.spec.declared_gap

    def anchor_sequence(self, epsilons) -> pressure.AnchorSequence:
        """The anchors for the epsilons from the declared gap bound and the
        variation, searched over 3..horizons.n_max cut to the bound's reach."""
        n_max, reach = self.cfg.horizons.n_max, self.spec.gap_reach
        ns = self.lengths("horizons.n_max", range(3, min(n_max, reach or n_max) + 1), 3, n_max)
        return pressure.anchor_sequence(self.gap({}), self.g.g_at, ns[-1], epsilons)

    def pressure_value(self, params: dict) -> float:
        n_state = self.cfg.horizons.n_state
        source = params.get("pressure", "transfer" if n_state is not None else "bracket")
        if isinstance(source, float):
            return source
        if source == "transfer":
            return math.log(self.transfer("pressure source 'transfer'")[1].lam)
        return self.bracket.best_hi

    def finish(self, extra_status: dict | None = None) -> None:
        if extra_status:
            self.manifest.status.update(extra_status)
        if self.glue is not None:
            self.manifest.status["glue"] = {k: getattr(self.glue, k) for k in self.glue.__slots__}
        self.manifest.wall_clock_s = time.monotonic() - self.started
        reports.write_manifest(self.manifest, self.out)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_enumerate(run: _Run) -> int:
    # one count over walker states fills the tally, then the words stream out
    n = run.cfg.horizons.n_max
    tally = Tally()
    run.write(f"language_n{n}.txt", reports.write_words,
              iter_language(run.spec, n, run.budget, text=True, tally=tally))
    counts = list(enumerate(tally.counts))[1:]
    run.write("counts.csv", reports.write_csv, ("n", "count"), counts, run.digest)
    status = {"n_max": n, "count": tally.counts[n], "nodes": tally.nodes,
              "budget": run.budget, "states": tally.states}
    run.finish({"enumerate": status})
    print(f"{run.spec.label}: |L_{n}| = {tally.counts[n]}")
    return EXIT_OK


def cmd_pressure(run: _Run) -> int:
    table, bracket = run.table, run.bracket
    # the transfer model is built before the first write: a failed one writes nothing
    transfer_data = run.transfer("pressure") if run.cfg.horizons.n_state is not None else None
    # every model presents the subshift or a superset, so ln lambda >= P >= best_lo
    if transfer_data is not None:
        ln_lam = math.log(transfer_data[1].lam)
        if ln_lam < bracket.best_lo - run.cfg.tolerances.margin:
            raise InconsistentBracketError(
                f"transfer ln lambda {ln_lam} lies below the lower bound; the declared gap "
                "bounds are unsound for this instance", bracket.best_lo, bracket.best_hi)
    run.write(
        "partition.csv", reports.write_csv, reports.PARTITION_HEADER,
        reports.partition_rows(table), run.digest,
        flags={"upper_bound_only": table.upper_bound_only},
    )
    bounds = {"best_lo": bracket.best_lo, "best_hi": bracket.best_hi,
              "upper_bound_only": bracket.upper_bound_only}
    run.write("bracket.csv", reports.write_csv, reports.BRACKET_HEADER,
              reports.bracket_rows(bracket), run.digest, flags=bounds)
    status = {
        "bracket": {**bounds, "width": bracket.width},
        "partition": {"nodes": table.nodes, "budget": run.budget,
                      "max_states": table.max_states},
    }
    if transfer_data is not None:
        run.write("transfer.json", reports.write_json, reports.transfer_payload(*transfer_data),
                  run.digest)
    run.finish(status)
    if bracket.upper_bound_only:
        print(f"{run.spec.label}: pressure <= {bracket.best_hi:.9f} (upper bound only)")
    else:
        print(
            f"{run.spec.label}: pressure in [{bracket.best_lo:.9f}, "
            f"{bracket.best_hi:.9f}] (width {bracket.width:.3g})"
        )
    return EXIT_OK


def cmd_gap_profile(run: _Run) -> int:
    cfg = run.cfg
    params = cfg.checks.get("gap_profile", {})
    ns = params.get("n_range", list(range(1, min(cfg.horizons.n_max, 8) + 1)))
    with _blaming("strategy"):  # factor_glue only on a sparse Sturmian shift
        gluing.lists_candidates(run.spec, cfg.strategy)
    work = run.glue_work()
    rows = [
        gluing.min_gap_profile(
            run.spec, n, cfg.mode, m_max=cfg.horizons.m_max, strategy=cfg.strategy,
            budget=run.budget, pair_budget=cfg.pair_budget, seed=cfg.seed, work=work,
        )
        for n in ns
    ]
    run.write(
        "gap_profile.csv", reports.write_csv, reports.GAP_HEADER, reports.gap_profile_rows(rows),
        run.digest, flags={"mode": cfg.mode, "strategy": cfg.strategy},
    )
    exhausted = [r.n for r in rows if r.status == HORIZON_EXHAUSTED]
    counterexamples = {}
    for r in rows:
        if r.counterexample is not None:
            v, w, m = r.counterexample
            counterexamples[r.n] = {"v": format_word(v), "w": format_word(w), "m": m}
    run.finish(
        {
            "gap_profile": {
                "f_empirical": {r.n: r.f_empirical for r in rows},
                "horizon_exhausted": exhausted,
                "counterexamples": counterexamples,
            }
        }
    )
    worst = max((r.f_empirical for r in rows if r.f_empirical is not None), default=None)
    print(f"{run.spec.label}: worst empirical gap {worst} over n={ns}")
    if exhausted:
        print(f"horizon exhausted at n={exhausted}", file=sys.stderr)
        return EXIT_BUDGET
    if counterexamples:
        n, first = next(iter(counterexamples.items()))
        print(f"declared bound violated at n={list(counterexamples)}; at n={n} no filler of "
              f"length {first['m']} joins v={first['v']} and w={first['w']}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def _run_check(run: _Run, tag: str):
    """The check's report; its lengths and gap bound are read through run
    before any sweep."""
    cfg = run.cfg
    params = cfg.checks.get(tag, {})  # read by config.CHECK_TABLES
    tol, n_max = cfg.tolerances.margin, cfg.horizons.n_max
    key = f"checks.{tag}.n_range" if "n_range" in params else "horizons.n_max"
    if tag in (CHECK_DENSITY_GLUE, CHECK_SPARSE_GLUE):
        if tag == CHECK_DENSITY_GLUE and run.spec.family != "bounded_density":
            raise InputError("subshift.family: density_glue runs on bounded density instances")
        strategy = params.get("strategy", cfg.strategy)
        if tag == CHECK_SPARSE_GLUE:
            with _blaming(f"checks.{tag}.strategy" if "strategy" in params else "strategy"):
                gluing.lists_candidates(run.spec, strategy)
        ns = run.lengths(key, params.get("n_range", range(2, min(n_max, 8) + 1)))
        glue = {"f": run.gap(params, (ns, key)), "budget": run.budget, "work": run.glue_work()}
        if tag == CHECK_DENSITY_GLUE:
            with _blaming(key):  # lengths past the height table
                return verify.verify_density_glue(run.spec, ns, **glue)
        return verify.verify_sparse_glue(run.spec, ns, pair_budget=cfg.pair_budget, seed=cfg.seed,
                                         strategy=strategy, **glue)
    if tag == CHECK_PARTITION_SPEC:
        ns = run.lengths(key, params.get("n_range", range(1, n_max + 1)), 1, n_max)
        f = run.gap(params, (ns, key))
        return verify.verify_partition_upper_spec(
            run.table, run.pressure_value(params), f, run.g.g_at, run.pot.bounds.lo, ns, tol
        )
    if tag == CHECK_PARTITION_ANCHOR:
        epsilon = params.get("epsilon", 0.5)
        if "anchors" in params:
            anchors = run.lengths(f"checks.{tag}.anchors", params["anchors"], 1, n_max)
        else:
            seq = run.anchor_sequence(params.get("epsilons", [epsilon]))
            if not seq.indices:
                reach = run.spec.gap_reach
                raise InputError("no anchor lengths found " + (
                    f"up to n={reach}, the reach of the declared gap bound; raise the epsilons"
                    if reach is not None and reach < n_max
                    else "below the horizon; raise horizons.n_max or the epsilons"))
            anchors = list(seq.indices)
        return verify.verify_partition_upper_anchor(
            run.table, run.pressure_value(params), anchors, epsilon, tol
        )
    if tag == CHECK_PARTITION_TRANS:
        if "C" not in params:
            raise InputError("partition_upper_trans needs checks.partition_upper_trans.C")
        onset = params.get("onset", 3)
        # the precondition reads f from the onset to the horizon
        pre = run.lengths(f"checks.{tag}.onset", range(onset, n_max + 1))
        ns = run.lengths(key, params.get("n_range", pre), onset, n_max)
        f = run.gap(params, (ns, key), (pre, "horizons.n_max"))
        return verify.verify_partition_upper_trans(
            run.table, run.pressure_value(params), params["C"], onset, f, run.g.g_at,
            run.pot.bounds.lo, ns, tol,
        )
    # CHECK_MEASURE_LOWER, the last of ALL_CHECKS (the verify command's choices)
    if "cylinder" not in params:
        raise InputError("measure_lower needs checks.measure_lower.cylinder")
    cyl_key, cyl = f"checks.{tag}.cylinder", parse_word(params["cylinder"])
    with _blaming(cyl_key):
        check_symbols(cyl, run.spec.alphabet_size)
    ns = run.lengths(key, params.get("n_range", range(1, n_max + 1)), 1, n_max)
    mm = transfer.markov_equilibrium(*run.transfer("measure_lower"))
    table, g = run.table, run.g  # read first, so only a measure-0 cylinder is blamed
    with _blaming(cyl_key):
        return verify.verify_measure_lower(mm, cyl, ns, table, g.g_at, tol, run.budget)


def cmd_verify(run: _Run, tag: str) -> int:
    rep = _run_check(run, tag)
    payload = reports.bound_report_payload(rep)
    run.write(f"report_{tag}.json", reports.write_json, payload, run.digest)
    run.finish({"verify": {"check": tag, "verdict": rep.verdict}})
    worst = rep.min_margin()
    print(f"{tag}: {rep.verdict}" + ("" if math.isinf(worst) else f" (min margin {worst:.3g})"))
    return VERDICT_EXIT[rep.verdict]


def cmd_equilibrium(run: _Run) -> int:
    model, pd = run.transfer("equilibrium")
    mm = transfer.markov_equilibrium(model, pd)
    run.write("equilibrium.json", reports.write_json, reports.equilibrium_payload(mm, pd),
              run.digest)
    run.finish(
        {
            "equilibrium": {
                "ln_lambda": math.log(mm.lam),
                "entropy": mm.entropy,
                "phi_integral": mm.phi_integral,
                "identity_gap": mm.identity_gap,
            }
        }
    )
    print(
        f"{run.spec.label}: ln(lambda) = {math.log(mm.lam):.9f}, "
        f"entropy {mm.entropy:.9f}, integral {mm.phi_integral:.9f}"
    )
    return EXIT_OK


def cmd_anchors(run: _Run) -> int:
    params = run.cfg.checks.get("anchors", {})
    seq = run.anchor_sequence(params.get("epsilons", [0.5, 0.4, 0.3]))
    rows = [
        (k + 1, eps, n, score)
        for k, (eps, n, score) in enumerate(zip(seq.epsilons, seq.indices, seq.scores))
    ]
    run.write("anchors.csv", reports.write_csv, reports.ANCHOR_HEADER, rows, run.digest,
              flags={"complete": seq.complete})
    run.finish({"anchors": {"complete": seq.complete, "found": len(seq.indices)}})
    print(f"{run.spec.label}: anchors {list(seq.indices)} (complete: {seq.complete})")
    if not seq.complete:
        print("anchor search hit the horizon before satisfying every epsilon",
              file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


COMMANDS = {"enumerate": cmd_enumerate, "pressure": cmd_pressure,
            "gap-profile": cmd_gap_profile, "equilibrium": cmd_equilibrium,
            "anchors": cmd_anchors}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftpress",
        description="Language enumeration, pressure brackets, equilibrium "
        "measures, and bound certificates for subshifts.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="YAML experiment configuration")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--budget", type=int, default=None, help="search node budget")

    common(sub.add_parser("enumerate", help="write language counts and words"))
    common(sub.add_parser("pressure", help="write partition and bracket tables"))
    common(sub.add_parser("gap-profile", help="measure gluing gaps"))
    p = sub.add_parser("verify", help="check one bound certificate")
    p.add_argument("tag", choices=ALL_CHECKS)
    common(p)
    common(sub.add_parser("equilibrium", help="write the transfer equilibrium measure"))
    common(sub.add_parser("anchors", help="write the anchor length sequence"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = _Run(args)
        if args.command == "verify":
            return cmd_verify(run, args.tag)
        return COMMANDS[args.command](run)
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InconsistentBracketError as exc:
        print(
            f"inconsistent bracket: {exc} "
            f"(best_lo={exc.best_lo!r}, best_hi={exc.best_hi!r})",
            file=sys.stderr,
        )
        return EXIT_INCONSISTENT
    except (IdentityCheckError, ReducibleGraphError, ConvergenceError) as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
