import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rawtime
from rawtime.cli import main
from rawtime.distribution import load_distribution
from rawtime.manifest import load_manifest


def run(tmp_path, *args):
    return main([str(a) for a in args])


def test_model_single_station_uniform(tmp_path, capsys):
    out = tmp_path / "m1"
    assert main(["model", "--n", "1", "--paper-params", "--out", str(out)]) == 0
    dist = load_distribution(f"{out}.pa.csv")
    assert dist.atoms == pytest.approx({k * 52 + 2184: 1 / 16 for k in range(16)})
    manifest = load_manifest(f"{out}.pa.csv")
    assert manifest["params"]["cw_min"] == 16
    assert manifest["source"] == "model"
    quantiles = (tmp_path / "m1.quantiles.csv").read_text().splitlines()
    assert quantiles[0] == "distribution,q,duration_us"
    assert f"pa,0.5,{7 * 52 + 2184}" in quantiles


def test_model_rerun_is_byte_identical(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    for out in (first, second):
        assert main(["model", "--n", "7", "--paper-params", "--format", "json",
                     "--out", str(out)]) == 0
    assert (tmp_path / "a.pa.json").read_bytes() == (tmp_path / "b.pa.json").read_bytes()
    assert (tmp_path / "a.pb.json").read_bytes() == (tmp_path / "b.pb.json").read_bytes()


def test_model_missing_flags_is_usage_error(tmp_path, capsys):
    assert main(["model", "--n", "1", "--out", str(tmp_path / "x")]) == 1
    assert "--paper-params" in capsys.readouterr().err


def test_model_truncation_exit_code(tmp_path, capsys):
    out = tmp_path / "trunc"
    code = main(["model", "--n", "2", "--cw-min", "16", "--cw-max", "16",
                 "--retry-limit", "2", "--te-us", "52", "--ts-us", "2184",
                 "--tc-us", "2184", "--t-max-cap", "4", "--out", str(out)])
    assert code == 2
    assert "t_max_cap" in capsys.readouterr().err


def test_simulate_deterministic_files(tmp_path):
    args = ["simulate", "--n", "3", "--paper-params", "--runs", "5000", "--seed", "21"]
    assert main(args + ["--out", str(tmp_path / "s1")]) == 0
    assert main(args + ["--out", str(tmp_path / "s2")]) == 0
    assert (tmp_path / "s1.pa.csv").read_bytes() == (tmp_path / "s2.pa.csv").read_bytes()
    assert (tmp_path / "s1.pb.csv").read_bytes() == (tmp_path / "s2.pb.csv").read_bytes()


def test_compare_model_vs_simulation_single_station(tmp_path, capsys):
    model_out = tmp_path / "model"
    sim_out = tmp_path / "sim"
    assert main(["model", "--n", "1", "--paper-params", "--out", str(model_out)]) == 0
    assert main(["simulate", "--n", "1", "--paper-params", "--runs", "1000000",
                 "--seed", "5", "--out", str(sim_out)]) == 0
    report = tmp_path / "report.json"
    code = main(["compare", f"{model_out}.pa.csv", f"{sim_out}.pa.csv",
                 "--report", str(report)])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["passed"]
    assert payload["kolmogorov_distance"] < 0.005
    assert set(payload) == {"kolmogorov_distance", "max_atom_abs_difference", "tolerance",
                            "passed", "atom_differences"}


def test_compare_rejects_mismatched_population(tmp_path, capsys):
    assert main(["model", "--n", "2", "--paper-params", "--out", str(tmp_path / "m2")]) == 0
    assert main(["simulate", "--n", "3", "--paper-params", "--runs", "1000",
                 "--seed", "1", "--out", str(tmp_path / "s3")]) == 0
    code = main(["compare", f"{tmp_path}/m2.pa.csv", f"{tmp_path}/s3.pa.csv"])
    assert code == 1
    assert "n_stations" in capsys.readouterr().err


def test_compare_requires_model_then_simulation(tmp_path, capsys):
    assert main(["model", "--n", "2", "--paper-params", "--out", str(tmp_path / "mm")]) == 0
    code = main(["compare", f"{tmp_path}/mm.pa.csv", f"{tmp_path}/mm.pb.csv"])
    assert code == 1


def test_compare_tolerance_failure_exit_code(tmp_path, capsys):
    assert main(["model", "--n", "7", "--paper-params", "--out", str(tmp_path / "m7")]) == 0
    assert main(["simulate", "--n", "7", "--paper-params", "--runs", "2000",
                 "--seed", "9", "--out", str(tmp_path / "s7")]) == 0
    code = main(["compare", f"{tmp_path}/m7.pa.csv", f"{tmp_path}/s7.pa.csv",
                 "--tolerance", "0.0001"])
    assert code == 2
    assert "FAIL" in capsys.readouterr().out


def test_plan_writes_mixture_and_decision(tmp_path):
    out = tmp_path / "plan"
    assert main(["plan", "--n", "4", "--p", "0.5", "--q", "0.9", "--paper-params",
                 "--out", str(out)]) == 0
    decision = json.loads((tmp_path / "plan.plan.json").read_text())
    assert decision["standard_compliant"] is True
    assert decision["slot_duration_us"] > 0
    cdf = (tmp_path / "plan.cdf.csv").read_text().splitlines()
    assert cdf[0] == "duration_us,cumulative_probability"
    mixture = load_distribution(f"{out}.mixture.csv")
    assert 0.99 < mixture.total_mass <= 1.0


def test_plan_unsatisfiable_exit_code(tmp_path, capsys):
    # retry limit 1 with tiny windows: delivery probability far below the target
    code = main(["plan", "--n", "8", "--p", "1.0", "--q", "0.999",
                 "--cw-min", "2", "--cw-max", "2", "--retry-limit", "1",
                 "--te-us", "52", "--ts-us", "2184", "--tc-us", "2184",
                 "--out", str(tmp_path / "bad")])
    assert code == 3
    assert "achievable" in capsys.readouterr().err


def test_groups_sweep_csv_schema(tmp_path):
    out = tmp_path / "grp"
    assert main(["groups", "--n", "12", "--p", "0.5", "--q", "0.9", "--g-min", "1",
                 "--g-max", "4", "--paper-params", "--out", str(out)]) == 0
    lines = (tmp_path / "grp.groups.csv").read_text().splitlines()
    assert lines[0] == "g,group_size,slot_us,total_us,compliant"
    assert len(lines) == 5
    best = json.loads((tmp_path / "grp.best.json").read_text())
    assert best["g"] >= 1
    totals = [int(line.split(",")[3]) for line in lines[1:]]
    assert best["total_reserved_us"] == min(totals)
    extra = load_manifest(f"{out}.groups.csv")["extra"]
    assert extra["conditioning"] == "tagged-has-packet"


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def _fail_if_called(*args, **kwargs):
    raise AssertionError("a chain run started before the input was validated")


@pytest.mark.parametrize("command, flag, value, named", [
    ("plan", "--k-stride", "abc", "--k-stride"),
    ("plan", "--k-stride", "0", "--k-stride"),
    ("groups", "--k-stride", "-2", "--k-stride"),
    ("groups", "--k-stride", "1.5", "--k-stride"),
    ("plan", "--q", "1.5", "--q"),
    ("plan", "--q", "0", "--q"),
    ("groups", "--q", "1", "--q"),
    ("groups", "--q", "nan", "--q"),
    ("plan", "--p", "1.5", "p_active"),
    ("groups", "--p", "-0.1", "p_active"),
    ("groups", "--p", "nan", "p_active"),
])
def test_planner_input_rejected_before_chain_runs(
    tmp_path, capsys, monkeypatch, command, flag, value, named
):
    monkeypatch.setattr("rawtime.planner.run_chains", _fail_if_called)
    # pool workers of a batch may not see the patch above; the batch entry does
    monkeypatch.setattr("rawtime.planner.DistributionCache.fill", _fail_if_called)
    args = {"--n": "4", "--p": "0.5", "--q": "0.9", flag: value}
    argv = [command, "--paper-params", "--out", str(tmp_path / "x")]
    if command == "groups":
        argv += ["--g-min", "1", "--g-max", "2"]
    for key, val in args.items():
        argv += [key, val]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: ") and named in err


def test_model_conservation_error_exit_code(tmp_path, capsys, monkeypatch):
    import dataclasses

    import rawtime.cli

    real = rawtime.cli.run_chains

    def leaky(*args, **kwargs):
        result = real(*args, **kwargs)
        diag = dataclasses.replace(result.diagnostics, mass_error_b=2e-9)
        return result._replace(diagnostics=diag)

    out = tmp_path / "leak"
    assert main(["model", "--n", "2", "--paper-params", "--out", str(out)]) == 0
    extra = load_manifest(f"{out}.pa.csv")["extra"]
    assert 0.0 <= extra["mass_error_a"] <= 1e-9
    assert 0.0 <= extra["mass_error_b"] <= 1e-9

    monkeypatch.setattr(rawtime.cli, "run_chains", leaky)
    assert main(["model", "--n", "2", "--paper-params", "--out", str(out)]) == 2
    assert "mass_error_b=2.000e-09" in capsys.readouterr().err
    assert load_manifest(f"{out}.pb.csv")["extra"]["mass_error_b"] == 2e-9


@pytest.mark.parametrize("body", [
    "duration_us,probability\n10,0.5\n10,0.2\n",
    "duration_us,probability\n10,0.5\n20,nan\n",
    "duration_us,probability\n10,0.5\n20,inf\n",
    "duration_us,probability\n10,0.5\n20,0.0\n",
    "duration_us,probability\n10,0.5\n30,-0.1\n",
    "duration_us,probability\n10,0.9\n20,0.5\n",
    '{"total_mass": 0.5}',
    '{"atoms": 0.5}',
    '{"atoms": [["10", 0.5]]}',
    '{"atoms": {"10": null}}',
    '[{"atoms": {"10": 0.5}}]',
    '{"atoms": {"10": 0.5}',
])
def test_compare_rejects_corrupt_distribution(tmp_path, capsys, body):
    fmt = "json" if body[0] in "{[" else "csv"
    assert main(["model", "--n", "1", "--paper-params", "--out", str(tmp_path / "m")]) == 0
    assert main(["simulate", "--n", "1", "--paper-params", "--runs", "100", "--seed", "1",
                 "--format", fmt, "--out", str(tmp_path / "s")]) == 0
    (tmp_path / f"s.pa.{fmt}").write_text(body)
    assert main(["compare", f"{tmp_path}/m.pa.csv", f"{tmp_path}/s.pa.{fmt}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("body", [
    '{"source": "simulation"',
    '["simulation"]',
    '{"source": "simulation", "params": 5}',
])
def test_compare_rejects_corrupt_manifest(tmp_path, capsys, body):
    assert main(["model", "--n", "1", "--paper-params", "--out", str(tmp_path / "m")]) == 0
    assert main(["simulate", "--n", "1", "--paper-params", "--runs", "100", "--seed", "1",
                 "--out", str(tmp_path / "s")]) == 0
    (tmp_path / "s.pa.csv.manifest.json").write_text(body)
    assert main(["compare", f"{tmp_path}/m.pa.csv", f"{tmp_path}/s.pa.csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_cli_import_loads_no_scipy():
    # neither scipy nor the planner's process pool may load at import time
    code = ("import sys, rawtime.cli; print(sorted(m for m in sys.modules if m.split('.')[0] "
            "in ('scipy', 'multiprocessing') or m == 'concurrent.futures.process'))")
    env = dict(os.environ, PYTHONPATH=str(Path(rawtime.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


_MANIFEST_KEYS = {"artifact", "command", "created_utc", "durations", "extra", "outputs",
                  "params", "runs", "seed", "source", "version", "wall_clock_s"}
_DIST_KEYS = {"atoms", "total_mass", "deficit"}
_PLANNER_EXTRA = {"p_active", "q", "conditioning", "k_stride", "chain_runs", "cache_hits",
                  "chain_run_s"}

# command -> (argv, {output suffix: CSV header or top-level JSON keys},
#             manifest extra keys); "{fmt}" is the --format value
_SCHEMAS = {
    "model": (
        ["model", "--n", "2"],
        {".pa.{fmt}": ("duration_us,probability", _DIST_KEYS | {"p_fail"}),
         ".pb.{fmt}": ("duration_us,probability", _DIST_KEYS),
         ".quantiles.{fmt}": ("distribution,q,duration_us", {"distribution", "q", "duration_us"})},
        {"p_fail_a", "deficit_a", "deficit_b", "truncated", "t_stop",
         "mass_error_a", "mass_error_b"},
    ),
    "simulate": (
        ["simulate", "--n", "2", "--runs", "200", "--seed", "3"],
        {".pa.{fmt}": ("duration_us,probability", _DIST_KEYS | {"runs", "failure_count"}),
         ".pb.{fmt}": ("duration_us,probability", _DIST_KEYS | {"runs", "failure_count"})},
        {"failure_count"},
    ),
    "plan": (
        ["plan", "--n", "4", "--p", "0.5", "--q", "0.9"],
        {".mixture.{fmt}": ("duration_us,probability", _DIST_KEYS),
         ".cdf.csv": ("duration_us,cumulative_probability", None),
         ".plan.json": (None, {"q", "slot_duration_us", "standard_compliant",
                               "max_raw_slot_us", "total_mass", "deficit"})},
        _PLANNER_EXTRA | {"total_mass"},
    ),
    "groups": (
        ["groups", "--n", "6", "--p", "0.5", "--q", "0.9", "--g-min", "1", "--g-max", "2"],
        {".groups.csv": ("g,group_size,slot_us,total_us,compliant", None),
         ".best.json": (None, {"g", "group_sizes", "per_group_slot_us", "total_reserved_us",
                               "standard_compliant", "q", "problem",
                               "infeasible_group_counts"})},
        _PLANNER_EXTRA | {"problem", "g_min", "g_max", "infeasible_group_counts"},
    ),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", sorted(_SCHEMAS))
def test_output_schema(tmp_path, command, fmt):
    argv, outputs, extra_keys = _SCHEMAS[command]
    out = tmp_path / "o"
    assert main([*argv, "--paper-params", "--format", fmt, "--out", str(out)]) == 0
    names = {"o" + suffix.format(fmt=fmt) for suffix in outputs}
    assert {p.name for p in tmp_path.iterdir()} == names | {n + ".manifest.json" for n in names}
    for suffix, (header, keys) in outputs.items():
        path = tmp_path / ("o" + suffix.format(fmt=fmt))
        if path.suffix == ".csv":
            assert path.read_text().splitlines()[0] == header
        else:  # the quantile table is a list of rows
            payload = json.loads(path.read_text())
            assert set(payload[0] if isinstance(payload, list) else payload) == keys
        manifest = load_manifest(path)
        assert set(manifest) == _MANIFEST_KEYS
        assert set(manifest["extra"]) == extra_keys
        assert manifest["command"] == command
        assert set(manifest["outputs"]) == {str(tmp_path / n) for n in names}
