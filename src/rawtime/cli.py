"""Command-line front end: model runs, simulation, comparison and planning.

Exit codes: 0 success, 1 usage or input error, 2 result carries a deficit
above epsilon (model truncation), a mass-conservation error above
``MASS_ERROR_MAX`` or a failed comparison, 3 unsatisfiable quantile target.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

import click

from . import __version__
from .chains import run_chains
from .distribution import (
    TimeDistribution,
    UnsatisfiableQuantileError,
    kolmogorov_distance,
    load_distribution,
    write_distribution,
)
from .manifest import check_comparable, load_manifest, write_manifests
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


def _check_q(ctx, param, value: float) -> float:
    if not 0.0 < value < 1.0:
        raise ConfigurationError(f"--q must lie in (0, 1), got {value}")
    return value


def _check_k_stride(ctx, param, value: str) -> int | str:
    if value == "auto":
        return value
    try:
        stride = int(value)
    except ValueError:
        stride = 0
    if stride < 1:
        raise ConfigurationError(f"--k-stride must be a positive integer or 'auto', got {value!r}")
    return stride


def _with_options(f, options):
    for option in reversed(options):
        f = option(f)
    return f


def _param_options(command):
    """Add the options every command shares.  The command is called as
    ``command(params, durations, out, fmt, **own_options)``, with ``out`` the
    output prefix as a ``Path`` whose parent directory exists."""

    @functools.wraps(command)
    def resolved(*, n_stations, cw_min, cw_max, retry_limit, epsilon, t_max_cap, prune_floor,
                 te_us, ts_us, tc_us, paper_params, out, fmt, **own_options):
        if paper_params:
            cw_min = AH_CW_MIN if cw_min is None else cw_min
            cw_max = AH_CW_MAX if cw_max is None else cw_max
            retry_limit = AH_RETRY_LIMIT if retry_limit is None else retry_limit
            te_us = AH_SLOT_DURATIONS.t_empty if te_us is None else te_us
            ts_us = AH_SLOT_DURATIONS.t_success if ts_us is None else ts_us
            tc_us = AH_SLOT_DURATIONS.t_collision if tc_us is None else tc_us
        missing = [name for name, value in (
            ("--cw-min", cw_min), ("--cw-max", cw_max), ("--retry-limit", retry_limit),
            ("--te-us", te_us), ("--ts-us", ts_us), ("--tc-us", tc_us),
        ) if value is None]
        if missing:
            raise click.UsageError(
                f"missing {', '.join(missing)} (set them explicitly or pass --paper-params)"
            )
        try:
            params = ModelParams(
                n_stations=n_stations, cw_min=cw_min, cw_max=cw_max, retry_limit=retry_limit,
                epsilon=epsilon, t_max_cap=t_max_cap, prune_floor=prune_floor,
            )
            durations = SlotDurations(t_empty=te_us, t_success=ts_us, t_collision=tc_us)
        except ConfigurationError as exc:
            raise click.UsageError(str(exc)) from exc
        out.parent.mkdir(parents=True, exist_ok=True)
        return command(params, durations, out, fmt, **own_options)

    return _with_options(resolved, [
        click.option("--n", "n_stations", type=int, required=True, help="Number of contending stations."),
        click.option("--cw-min", type=int, default=None, help="Initial contention window."),
        click.option("--cw-max", type=int, default=None, help="Contention window cap."),
        click.option("--retry-limit", type=int, default=None, help="Transmission attempts before giving up."),
        click.option("--epsilon", type=float, default=1e-6, show_default=True,
                      help="Absorbed-mass threshold that stops the chain run."),
        click.option("--t-max-cap", type=int, default=None, help="Safety cap on model time (virtual slots)."),
        click.option("--prune-floor", type=float, default=1e-12, show_default=True,
                      help="Carried states below this mass are dropped into the deficit."),
        click.option("--te-us", type=int, default=None, help="Empty virtual slot duration (us)."),
        click.option("--ts-us", type=int, default=None, help="Successful slot duration (us)."),
        click.option("--tc-us", type=int, default=None, help="Collision slot duration (us)."),
        click.option("--paper-params", is_flag=True,
                      help="Fill unset options with the 802.11ah reference setup "
                           "(CWmin 16, CWmax 1024, RL 7, Te 52 us, Ts = Tc = 2184 us)."),
        click.option("--out", type=click.Path(path_type=Path), required=True, help="Output path prefix."),
        click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
                      show_default=True, help="Distribution file format."),
    ])


def _mixture_options(k_stride_default: str):
    """The random-active-count options of ``plan`` and ``groups``."""
    options = [
        click.option("--p", "p_active", type=float, required=True,
                     help="Probability a station holds a frame at the slot start."),
        click.option("--q", "quantile", type=float, required=True, callback=_check_q,
                     help="Required delivery probability."),
        click.option("--conditioning", type=click.Choice([c.value for c in Conditioning]),
                     default=Conditioning.TAGGED_HAS_PACKET.value, show_default=True,
                     help="Mixture conditioning over the random active count."),
        click.option("--k-stride", default=k_stride_default, show_default=True,
                     callback=_check_k_stride,
                     help="Mixture subsampling stride (positive integer or 'auto')."),
    ]
    return lambda command: _with_options(command, options)


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _write_quantiles(named: dict[str, TimeDistribution], path: Path) -> None:
    rows = []
    for name, dist in named.items():
        for q in _QUANTILE_LEVELS:
            try:
                rows.append((name, q, dist.quantile(q)))
            except UnsatisfiableQuantileError:
                rows.append((name, q, None))
    if path.suffix == ".json":
        _write_json(path, [{"distribution": n, "q": q, "duration_us": d} for n, q, d in rows])
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("distribution,q,duration_us\n")
        for name, q, dur in rows:
            fh.write(f"{name},{q},{'' if dur is None else dur}\n")


@click.group()
@click.version_option(version=__version__, prog_name="rawtime")
def cli() -> None:
    """Delivery-time distributions and RAW slot planning for 802.11ah groups."""


@cli.command("model")
@_param_options
def cmd_model(params, durations, out, fmt) -> int:
    """Compute the delivery-time distributions for one and for all stations."""
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
    write_manifests("model", "model", paths, dict.fromkeys(paths, extra),
                    params, durations, elapsed)

    click.echo(
        f"model: N={params.n_stations} t_stop={diag.t_stop} "
        f"mass_a={result.p_a.total_mass:.9f} p_fail_a={result.p_fail_a:.3e} "
        f"mass_b={result.p_b.total_mass:.9f} -> {out}.{{pa,pb,quantiles}}.{fmt}"
    )
    mass_error = max(diag.mass_error_a, diag.mass_error_b)
    if not mass_error <= MASS_ERROR_MAX:
        click.echo(
            f"error: probability mass not conserved: mass_error_a={diag.mass_error_a:.3e}, "
            f"mass_error_b={diag.mass_error_b:.3e} > {MASS_ERROR_MAX}", err=True,
        )
        return 2
    unresolved = diag.unresolved_a + diag.unresolved_b
    if diag.truncated and unresolved > params.epsilon:
        click.echo(
            f"warning: stopped at t_max_cap={params.t_max_cap} with unresolved "
            f"mass {unresolved:.3e} > epsilon", err=True,
        )
        return 2
    return 0


@cli.command("simulate")
@_param_options
@click.option("--runs", type=int, required=True, help="Number of Monte-Carlo runs.")
@click.option("--seed", type=int, required=True, help="RNG seed in [0, 2**64).")
def cmd_simulate(params, durations, out, fmt, runs, seed) -> int:
    """Monte-Carlo the slotted backoff protocol and write empirical distributions."""
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
    write_manifests("simulate", "simulation", paths, extras, params, durations, elapsed,
                    seed=seed, runs=runs)
    click.echo(
        f"simulate: N={params.n_stations} runs={runs} seed={seed} "
        f"fail_a={emp_a.failure_count} fail_b={emp_b.failure_count} -> {out}.{{pa,pb}}.{fmt}"
    )
    return 0


@cli.command("compare")
@click.argument("model_file", type=click.Path(exists=True))
@click.argument("sim_file", type=click.Path(exists=True))
@click.option("--tolerance", type=float, default=0.03, show_default=True,
              help="Maximum acceptable Kolmogorov distance.")
@click.option("--report", type=click.Path(), default=None,
              help="Optional JSON report path.")
def cmd_compare(model_file, sim_file, tolerance, report) -> int:
    """Compare a model distribution against a simulated one (manifest-checked)."""
    try:
        model_manifest = load_manifest(model_file)
        sim_manifest = load_manifest(sim_file)
    except (FileNotFoundError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    for path, manifest, source in ((model_file, model_manifest, "model"),
                                   (sim_file, sim_manifest, "simulation")):
        if manifest.get("source") != source:
            raise click.UsageError(f"{path} is not a {source} output (source="
                                   f"{manifest.get('source')!r})")
    problems = check_comparable(model_manifest, sim_manifest)
    if problems:
        for problem in problems:
            click.echo(f"error: {problem}", err=True)
        raise click.UsageError("manifests do not match; refusing to compare")

    try:
        model_dist = load_distribution(model_file)
        sim_dist = load_distribution(sim_file)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    distance = kolmogorov_distance(model_dist, sim_dist)
    atoms_m, atoms_s = model_dist.atoms, sim_dist.atoms
    support = sorted(set(atoms_m) | set(atoms_s))
    diffs = {d: atoms_m.get(d, 0.0) - atoms_s.get(d, 0.0) for d in support}
    max_atom_diff = max((abs(v) for v in diffs.values()), default=0.0)
    passed = distance <= tolerance

    click.echo(f"kolmogorov_distance: {distance:.6f}")
    click.echo(f"max_atom_abs_difference: {max_atom_diff:.6f}")
    click.echo(f"tolerance: {tolerance} -> {'PASS' if passed else 'FAIL'}")
    if report:
        _write_json(Path(report), {
            "kolmogorov_distance": distance,
            "max_atom_abs_difference": max_atom_diff,
            "tolerance": tolerance,
            "passed": passed,
            "atom_differences": {str(d): v for d, v in diffs.items()},
        })
    return 0 if passed else 2


@cli.command("plan")
@_param_options
@_mixture_options(k_stride_default="1")
def cmd_plan(params, durations, out, fmt, p_active, quantile, conditioning, k_stride) -> int:
    """Minimal RAW slot duration for a population with a random active count."""
    spec = MixtureSpec(n_total=params.n_stations, p_active=p_active,
                       conditioning=Conditioning(conditioning))
    cache = DistributionCache(params, durations)
    started = time.perf_counter()
    mixture = mixture_pa(spec, params, durations, cache=cache, k_stride=k_stride)
    elapsed = time.perf_counter() - started

    paths = {"pa_mixture": Path(f"{out}.mixture.{fmt}"), "pa_mixture_cdf": Path(f"{out}.cdf.csv")}
    write_distribution(mixture, paths["pa_mixture"])
    with open(paths["pa_mixture_cdf"], "w", encoding="utf-8") as fh:
        fh.write("duration_us,cumulative_probability\n")
        for d, c in zip(mixture.durations, mixture.cumulative()):
            fh.write(f"{int(d)},{float(c)!r}\n")

    try:
        slot = mixture.quantile(quantile)
    except UnsatisfiableQuantileError as exc:
        click.echo(
            f"error: q={quantile} unsatisfiable; achievable delivery probability "
            f"is {exc.total_mass:.9f}", err=True,
        )
        slot = None
    else:
        paths["plan"] = Path(f"{out}.plan.json")
        _write_json(paths["plan"], {
            "q": quantile,
            "slot_duration_us": slot,
            "standard_compliant": slot <= MAX_RAW_SLOT_US,
            "max_raw_slot_us": MAX_RAW_SLOT_US,
            "total_mass": mixture.total_mass,
            "deficit": mixture.deficit,
        })
    extra = {"p_active": p_active, "q": quantile, "conditioning": conditioning,
             "k_stride": str(k_stride), "total_mass": mixture.total_mass, **cache.counters()}
    write_manifests("plan", "planner", paths, dict.fromkeys(paths, extra),
                    params, durations, elapsed)
    if slot is None:
        return 3
    click.echo(
        f"plan: N={params.n_stations} p={p_active} q={quantile} -> slot {slot} us "
        f"({slot / 1000:.2f} ms), standard_compliant={slot <= MAX_RAW_SLOT_US}"
    )
    return 0


@cli.command("groups")
@_param_options
@_mixture_options(k_stride_default="auto")
@click.option("--g-min", type=int, required=True, help="Smallest group count to try.")
@click.option("--g-max", type=int, required=True, help="Largest group count to try.")
@click.option("--problem", type=click.Choice(["A", "B"]), default="A", show_default=True,
              help="A: one station delivers; B: all active stations deliver.")
def cmd_groups(params, durations, out, fmt, p_active, quantile, conditioning, k_stride,
               g_min, g_max, problem) -> int:
    """Sweep group counts and report the one minimizing total reserved time."""
    spec = MixtureSpec(n_total=params.n_stations, p_active=p_active,
                       conditioning=Conditioning(conditioning))
    cache = DistributionCache(params, durations)
    started = time.perf_counter()
    try:
        plans, best = optimize_groups(spec, params, durations, quantile, (g_min, g_max),
                                      problem, cache=cache, k_stride=k_stride)
    except UnsatisfiableQuantileError as exc:
        click.echo(
            f"error: q={quantile} unsatisfiable for every group count; best "
            f"achievable delivery probability is {exc.total_mass:.9f}", err=True,
        )
        return 3
    elapsed = time.perf_counter() - started

    paths = {"groups": Path(f"{out}.groups.csv"), "groups_best": Path(f"{out}.best.json")}
    infeasible = [plan.group_count for plan in plans if not plan.feasible]
    with open(paths["groups"], "w", encoding="utf-8") as fh:
        fh.write("g,group_size,slot_us,total_us,compliant\n")
        for plan in plans:
            if not plan.feasible:
                continue
            fh.write(
                f"{plan.group_count},{max(plan.group_sizes)},{plan.per_group_slot},"
                f"{plan.total_reserved},{str(plan.standard_compliant).lower()}\n"
            )
    _write_json(paths["groups_best"], {
        "g": best.group_count,
        "group_sizes": list(best.group_sizes),
        "per_group_slot_us": best.per_group_slot,
        "total_reserved_us": best.total_reserved,
        "standard_compliant": best.standard_compliant,
        "q": quantile,
        "problem": problem,
        "infeasible_group_counts": infeasible,
    })
    extra = {"p_active": p_active, "q": quantile, "conditioning": conditioning,
             "problem": problem, "g_min": g_min, "g_max": g_max, "k_stride": str(k_stride),
             "infeasible_group_counts": infeasible, **cache.counters()}
    write_manifests("groups", "planner", paths, dict.fromkeys(paths, extra),
                    params, durations, elapsed)
    click.echo(
        f"groups: N={params.n_stations} p={p_active} q={quantile} problem={problem} -> "
        f"best g={best.group_count} total {best.total_reserved} us "
        f"({best.total_reserved / 1000:.2f} ms)"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run the CLI; returns the exit code instead of raising SystemExit."""
    try:
        result = cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        exc.show()
        return 1
    except click.ClickException as exc:
        exc.show()
        return max(exc.exit_code, 1)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except ConfigurationError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    if result is None:
        return 0
    return int(result)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
