"""Command-line front end: model runs, simulation, comparison and planning.

Exit codes: 0 success, 1 usage or input error, 2 result carries a deficit
above epsilon (model truncation), a mass-conservation error above
``MASS_ERROR_MAX`` or a failed comparison, 3 unsatisfiable quantile target.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import __version__
from .chains import run_chains
from .distribution import (
    TimeDistribution,
    UnsatisfiableQuantileError,
    align,
    kolmogorov_distance,
    load_distribution,
    write_distribution,
    write_json,
    write_rows,
)
from .manifest import SOURCES, check_comparable, load_manifest, write_manifests
from .params import (
    AH_CW_MAX,
    AH_CW_MIN,
    AH_RETRY_LIMIT,
    AH_SLOT_DURATIONS,
    ConfigurationError,
    ModelParams,
    SlotDurations,
)
from .planner import (
    MAX_RAW_SLOT_US,
    Conditioning,
    DistributionCache,
    MixtureSpec,
    mixture_pa,
    optimize_groups,
)
from .simulate import SimConfig, simulate

_QUANTILE_LEVELS = (0.5, 0.95, 0.99, 0.999)

#: Largest |absorbed + failed + unresolved - 1| a model run may report.
MASS_ERROR_MAX = 1e-9

#: What ``--paper-params`` fills into each unset option: the 802.11ah reference setup.
_PAPER_PARAMS = {
    "cw_min": AH_CW_MIN,
    "cw_max": AH_CW_MAX,
    "retry_limit": AH_RETRY_LIMIT,
    "te_us": AH_SLOT_DURATIONS.t_empty,
    "ts_us": AH_SLOT_DURATIONS.t_success,
    "tc_us": AH_SLOT_DURATIONS.t_collision,
}


class _Parser(argparse.ArgumentParser):
    """Takes options spelled in full only, and raises bad input as
    ``ConfigurationError``, which ``main`` reports."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigurationError(message)


def _quantile_level(value: str) -> float:
    q = float(value)
    if not 0.0 < q < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {q}")
    return q


def _ks_tolerance(value: str) -> float:
    tolerance = float(value)
    if not 0.0 <= tolerance <= 1.0:  # also refuses nan
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {tolerance}")
    return tolerance


def _k_stride(value: str) -> int | str:
    if value == "auto":
        return value
    try:
        stride = int(value)
    except ValueError:
        stride = 0
    if stride < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer or 'auto', got {value!r}")
    return stride


def _model_inputs(args) -> tuple[ModelParams, SlotDurations]:
    """The model and slot timing the options name; creates the directory
    ``args.out`` writes into."""
    if args.paper_params:
        for name, value in _PAPER_PARAMS.items():
            if getattr(args, name) is None:
                setattr(args, name, value)
    missing = ["--" + name.replace("_", "-") for name in _PAPER_PARAMS if getattr(args, name) is None]
    if missing:
        raise ConfigurationError(
            f"missing {', '.join(missing)} (set them explicitly or pass --paper-params)"
        )
    params = ModelParams(
        n_stations=args.n_stations, cw_min=args.cw_min, cw_max=args.cw_max,
        retry_limit=args.retry_limit, epsilon=args.epsilon, t_max_cap=args.t_max_cap,
        prune_floor=args.prune_floor,
    )
    durations = SlotDurations(t_empty=args.te_us, t_success=args.ts_us, t_collision=args.tc_us)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    return params, durations


def _read(load, path: str):
    """``load(path)``, with a file this package did not write reported as bad input."""
    try:
        return load(path)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc


def _write_quantiles(named: dict[str, TimeDistribution], path: Path) -> None:
    rows = []
    for name, dist in named.items():
        for q in _QUANTILE_LEVELS:
            try:
                duration = dist.quantile(q)
            except UnsatisfiableQuantileError:
                duration = None
            rows.append((name, q, duration))
    write_rows(path, ("distribution", "q", "duration_us"), rows)


def cmd_model(args) -> int:
    """Compute the delivery-time distributions for one and for all stations."""
    params, durations = _model_inputs(args)
    out, fmt = args.out, args.fmt
    started = time.perf_counter()
    result = run_chains(params, durations)
    elapsed = time.perf_counter() - started
    diag = result.diagnostics

    paths = {kind: Path(f"{out}.{kind}.{fmt}") for kind in ("pa", "pb", "quantiles")}
    write_distribution(result.p_a, paths["pa"], extra={"p_fail": result.p_fail_a})
    write_distribution(result.p_b, paths["pb"])
    _write_quantiles({"pa": result.p_a, "pb": result.p_b}, paths["quantiles"])
    extra = {
        "p_fail_a": result.p_fail_a,
        "deficit_a": result.p_a.deficit,
        "deficit_b": result.p_b.deficit,
        "truncated": diag.truncated,
        "t_stop": diag.t_stop,
        "mass_error_a": diag.mass_error_a,
        "mass_error_b": diag.mass_error_b,
    }
    write_manifests("model", paths, dict.fromkeys(paths, extra), params, durations, elapsed)

    print(
        f"model: N={params.n_stations} t_stop={diag.t_stop} "
        f"mass_a={result.p_a.total_mass:.9f} p_fail_a={result.p_fail_a:.3e} "
        f"mass_b={result.p_b.total_mass:.9f} -> {out}.{{pa,pb,quantiles}}.{fmt}"
    )
    mass_error = max(diag.mass_error_a, diag.mass_error_b)
    if not mass_error <= MASS_ERROR_MAX:
        print(
            f"error: probability mass not conserved: mass_error_a={diag.mass_error_a:.3e}, "
            f"mass_error_b={diag.mass_error_b:.3e} > {MASS_ERROR_MAX}", file=sys.stderr,
        )
        return 2
    unresolved = diag.unresolved_a + diag.unresolved_b
    if diag.truncated and unresolved > params.epsilon:
        print(
            f"warning: stopped at t_max_cap={params.t_max_cap} with unresolved "
            f"mass {unresolved:.3e} > epsilon", file=sys.stderr,
        )
        return 2
    return 0


def cmd_simulate(args) -> int:
    """Monte-Carlo the slotted backoff protocol and write empirical distributions."""
    params, durations = _model_inputs(args)
    out, fmt, runs, seed = args.out, args.fmt, args.runs, args.seed
    config = SimConfig(params=params, durations=durations, runs=runs, seed=seed)
    started = time.perf_counter()
    emp_a, emp_b = simulate(config)
    elapsed = time.perf_counter() - started

    empirical = {"pa": emp_a, "pb": emp_b}
    paths = {kind: Path(f"{out}.{kind}.{fmt}") for kind in empirical}
    for kind, emp in empirical.items():
        write_distribution(emp.to_time_distribution(), paths[kind],
                           extra={"runs": emp.runs, "failure_count": emp.failure_count})
    extras = {kind: {"failure_count": emp.failure_count, "batches": emp.batches,
                     "slots": emp.slots, "batch_s": emp.batch_s}
              for kind, emp in empirical.items()}
    write_manifests("simulate", paths, extras, params, durations, elapsed, seed=seed, runs=runs)
    print(
        f"simulate: N={params.n_stations} runs={runs} seed={seed} "
        f"fail_a={emp_a.failure_count} fail_b={emp_b.failure_count} -> {out}.{{pa,pb}}.{fmt}"
    )
    return 0


def cmd_compare(args) -> int:
    """Compare a model distribution against a simulated one (manifest-checked)."""
    paths = (args.model_file, args.sim_file)
    manifests = [_read(load_manifest, path) for path in paths]
    for path, manifest, command in zip(paths, manifests, ("model", "simulate")):
        if manifest.get("source") != SOURCES[command]:
            raise ConfigurationError(f"{path} is not a {SOURCES[command]} output (source="
                                     f"{manifest.get('source')!r})")
    problems = check_comparable(*manifests)
    if problems:
        raise ConfigurationError(f"manifests do not match; refusing to compare: "
                                 f"{'; '.join(problems)}")

    model_dist, sim_dist = (_read(load_distribution, path) for path in paths)
    distance = kolmogorov_distance(model_dist, sim_dist)
    support, mass_m, mass_s = align(model_dist, sim_dist)
    diffs = (mass_m - mass_s).tolist()
    max_atom_diff = max(map(abs, diffs), default=0.0)
    passed = distance <= args.tolerance

    print(f"kolmogorov_distance: {distance:.6f}")
    print(f"max_atom_abs_difference: {max_atom_diff:.6f}")
    print(f"tolerance: {args.tolerance} -> {'PASS' if passed else 'FAIL'}")
    if args.report:
        write_json(args.report, {
            "kolmogorov_distance": distance,
            "max_atom_abs_difference": max_atom_diff,
            "tolerance": args.tolerance,
            "passed": passed,
            "atom_differences": dict(zip(map(str, support.tolist()), diffs)),
        })
    return 0 if passed else 2


def cmd_plan(args) -> int:
    """Minimal RAW slot duration for a population with a random active count."""
    params, durations = _model_inputs(args)
    out, fmt, quantile = args.out, args.fmt, args.quantile
    spec = MixtureSpec(n_total=params.n_stations, p_active=args.p_active,
                       conditioning=args.conditioning)
    cache = DistributionCache(params, durations)
    started = time.perf_counter()
    mixture = mixture_pa(spec, cache, k_stride=args.k_stride)
    elapsed = time.perf_counter() - started

    paths = {"pa_mixture": Path(f"{out}.mixture.{fmt}"), "pa_mixture_cdf": Path(f"{out}.cdf.csv")}
    write_distribution(mixture, paths["pa_mixture"])
    write_rows(paths["pa_mixture_cdf"], ("duration_us", "cumulative_probability"),
               zip(mixture.durations.tolist(), mixture.cumulative().tolist()))

    try:
        slot = mixture.quantile(quantile)
    except UnsatisfiableQuantileError as exc:
        print(
            f"error: q={quantile} unsatisfiable; achievable delivery probability "
            f"is {exc.total_mass:.9f}", file=sys.stderr,
        )
        slot = None
    else:
        paths["plan"] = Path(f"{out}.plan.json")
        write_json(paths["plan"], {
            "q": quantile,
            "slot_duration_us": slot,
            "standard_compliant": slot <= MAX_RAW_SLOT_US,
            "max_raw_slot_us": MAX_RAW_SLOT_US,
            "total_mass": mixture.total_mass,
            "deficit": mixture.deficit,
        })
    extra = {"p_active": args.p_active, "q": quantile, "conditioning": args.conditioning,
             "k_stride": str(args.k_stride), "total_mass": mixture.total_mass,
             **cache.counters()}
    write_manifests("plan", paths, dict.fromkeys(paths, extra), params, durations, elapsed)
    if slot is None:
        return 3
    print(
        f"plan: N={params.n_stations} p={args.p_active} q={quantile} -> slot {slot} us "
        f"({slot / 1000:.2f} ms), standard_compliant={slot <= MAX_RAW_SLOT_US}"
    )
    return 0


def cmd_groups(args) -> int:
    """Sweep group counts and report the one minimizing total reserved time."""
    params, durations = _model_inputs(args)
    out, quantile, problem = args.out, args.quantile, args.problem
    spec = MixtureSpec(n_total=params.n_stations, p_active=args.p_active,
                       conditioning=args.conditioning)
    cache = DistributionCache(params, durations)
    started = time.perf_counter()
    try:
        plans, best = optimize_groups(spec, cache, quantile, (args.g_min, args.g_max),
                                      problem, k_stride=args.k_stride)
    except UnsatisfiableQuantileError as exc:
        print(
            f"error: q={quantile} unsatisfiable for every group count; best "
            f"achievable delivery probability is {exc.total_mass:.9f}", file=sys.stderr,
        )
        return 3
    elapsed = time.perf_counter() - started

    paths = {"groups": Path(f"{out}.groups.csv"), "groups_best": Path(f"{out}.best.json")}
    feasible = {plan.group_count for plan in plans}
    infeasible = [g for g in range(args.g_min, args.g_max + 1) if g not in feasible]
    write_rows(paths["groups"], ("g", "group_size", "slot_us", "total_us", "compliant"), [
        (plan.group_count, max(plan.group_sizes), plan.per_group_slot, plan.total_reserved,
         plan.standard_compliant)
        for plan in plans
    ])
    write_json(paths["groups_best"], {
        "g": best.group_count,
        "group_sizes": list(best.group_sizes),
        "per_group_slot_us": best.per_group_slot,
        "total_reserved_us": best.total_reserved,
        "standard_compliant": best.standard_compliant,
        "q": quantile,
        "problem": problem,
        "infeasible_group_counts": infeasible,
    })
    extra = {"p_active": args.p_active, "q": quantile, "conditioning": args.conditioning,
             "problem": problem, "g_min": args.g_min, "g_max": args.g_max,
             "k_stride": str(args.k_stride), "infeasible_group_counts": infeasible,
             **cache.counters()}
    write_manifests("groups", paths, dict.fromkeys(paths, extra), params, durations, elapsed)
    print(
        f"groups: N={params.n_stations} p={args.p_active} q={quantile} problem={problem} -> "
        f"best g={best.group_count} total {best.total_reserved} us "
        f"({best.total_reserved / 1000:.2f} ms)"
    )
    return 0


def _parser() -> argparse.ArgumentParser:
    model = _Parser(add_help=False)
    model.add_argument("--n", dest="n_stations", type=int, required=True,
                       help="Number of contending stations.")
    model.add_argument("--cw-min", type=int, help="Initial contention window.")
    model.add_argument("--cw-max", type=int, help="Contention window cap.")
    model.add_argument("--retry-limit", type=int, help="Transmission attempts before giving up.")
    model.add_argument("--epsilon", type=float, default=1e-6,
                       help="Absorbed-mass threshold that stops the chain run "
                            "(default: %(default)s).")
    model.add_argument("--t-max-cap", type=int, help="Safety cap on model time (virtual slots).")
    model.add_argument("--prune-floor", type=float, default=1e-12,
                       help="Carried states below this mass are dropped into the deficit "
                            "(default: %(default)s).")
    model.add_argument("--te-us", type=int, help="Empty virtual slot duration (us).")
    model.add_argument("--ts-us", type=int, help="Successful slot duration (us).")
    model.add_argument("--tc-us", type=int, help="Collision slot duration (us).")
    model.add_argument("--paper-params", action="store_true",
                       help="Fill unset options with the 802.11ah reference setup "
                            "(CWmin 16, CWmax 1024, RL 7, Te 52 us, Ts = Tc = 2184 us).")
    model.add_argument("--out", type=Path, required=True, help="Output path prefix.")
    model.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv",
                       help="Distribution file format (default: %(default)s).")

    mixture = _Parser(add_help=False)
    mixture.add_argument("--p", dest="p_active", type=float, required=True,
                         help="Probability a station holds a frame at the slot start.")
    mixture.add_argument("--q", dest="quantile", type=_quantile_level, required=True,
                         help="Required delivery probability.")
    mixture.add_argument("--conditioning", choices=[c.value for c in Conditioning],
                         default=Conditioning.TAGGED_HAS_PACKET.value,
                         help="Mixture conditioning over the random active count "
                              "(default: %(default)s).")

    parser = _Parser(prog="rawtime", description="Delivery-time distributions and RAW slot "
                                                 "planning for 802.11ah groups.")
    parser.add_argument("--version", action="version", version=f"rawtime {__version__}")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def add(name, run, parents):
        sub = commands.add_parser(name, parents=parents, help=run.__doc__,
                                  description=run.__doc__)
        sub.set_defaults(run=run)
        return sub

    add("model", cmd_model, [model])
    simulation = add("simulate", cmd_simulate, [model])
    simulation.add_argument("--runs", type=int, required=True,
                            help="Number of Monte-Carlo runs.")
    simulation.add_argument("--seed", type=int, required=True, help="RNG seed in [0, 2**64).")
    compare = add("compare", cmd_compare, [])
    compare.add_argument("model_file", metavar="MODEL_FILE")
    compare.add_argument("sim_file", metavar="SIM_FILE")
    compare.add_argument("--tolerance", type=_ks_tolerance, default=0.03,
                         help="Maximum acceptable Kolmogorov distance (default: %(default)s).")
    compare.add_argument("--report", type=Path, help="Optional JSON report path.")
    plan = add("plan", cmd_plan, [model, mixture])
    groups = add("groups", cmd_groups, [model, mixture])
    groups.add_argument("--g-min", type=int, required=True, help="Smallest group count to try.")
    groups.add_argument("--g-max", type=int, required=True, help="Largest group count to try.")
    groups.add_argument("--problem", choices=("A", "B"), default="A",
                        help="A: one station delivers; B: all active stations deliver "
                             "(default: %(default)s).")
    # added per command: a parent's option is one object shared by every
    # command, so a per-command default set on it would apply to all of them
    for sub, k_stride in ((plan, 1), (groups, "auto")):
        sub.add_argument("--k-stride", type=_k_stride, default=k_stride,
                         help="Mixture subsampling stride (positive integer or 'auto'; "
                              "default: %(default)s).")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the CLI; returns the exit code instead of raising SystemExit."""
    try:
        args = _parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # --help or --version has printed its text
        return exc.code
    except (ConfigurationError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
