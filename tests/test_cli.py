import hashlib
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

from reference import atoms


def run(tmp_path, *args):
    return main([str(a) for a in args])


def test_model_single_station_uniform(tmp_path, capsys):
    out = tmp_path / "m1"
    assert main(["model", "--n", "1", "--paper-params", "--out", str(out)]) == 0
    dist = load_distribution(f"{out}.pa.csv")
    assert atoms(dist) == pytest.approx({k * 52 + 2184: 1 / 16 for k in range(16)})
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


@pytest.mark.parametrize("seed, code", [("-1", 1), ("0", 0), (str(2**64 - 1), 0), (str(2**64), 1)])
def test_simulate_seed_must_fit_64_bits(tmp_path, capsys, seed, code):
    assert main(["simulate", "--n", "2", "--paper-params", "--runs", "10", "--seed", seed,
                 "--out", str(tmp_path / "s")]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error: ") and "seed" in err
        assert len(err.strip().splitlines()) == 1
        assert not list(tmp_path.iterdir())
    else:
        assert load_manifest(f"{tmp_path}/s.pa.csv")["seed"] == int(seed)


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
    capsys.readouterr()
    assert main(["compare", f"{model_out}.pa.csv", f"{sim_out}.pa.csv",
                 "--report", f"{report}/r.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_written_bytes_pinned(tmp_path):
    # the simulator's count / runs and compare's atom differences, to the bit
    sim, model, report = tmp_path / "s", tmp_path / "m", tmp_path / "r.json"
    assert main(["simulate", "--n", "7", "--paper-params", "--runs", "2000", "--seed", "1",
                 "--out", str(sim)]) == 0
    assert main(["model", "--n", "7", "--paper-params", "--out", str(model)]) == 0
    assert main(["compare", f"{model}.pa.csv", f"{sim}.pa.csv", "--report", str(report)]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (tmp_path / "s.pa.csv", tmp_path / "s.pb.csv", report)}
    assert digests == {
        "s.pa.csv": "b00c8e1e6ab4558688a3f1c76fe36d5f5523887ea22b0ccc145cb5de93128f20",
        "s.pb.csv": "369768e41f42c191f82ce5c78409b327d6980e01935e0a17164ac82e4d8e3f9f",
        "r.json": "2d2f5a5c5e6443a874cc8f76f3f3b7d2ec186c7903cc4f98fd95a8f854242d30",
    }


def test_planner_bytes_pinned(tmp_path):
    # a sweep in which g 1-3 are infeasible and g 4-6 feasible, and a plan
    # mixture on a stride-3 lattice
    small = ["--cw-min", "4", "--cw-max", "8", "--retry-limit", "3",
             "--te-us", "1", "--ts-us", "5", "--tc-us", "4"]
    assert main(["groups", "--n", "12", "--p", "0.5", "--q", "0.99", "--g-min", "1",
                 "--g-max", "6", *small, "--out", str(tmp_path / "g")]) == 0
    assert main(["plan", "--n", "24", "--p", "0.3", "--q", "0.5", "--k-stride", "3",
                 *small, "--out", str(tmp_path / "p")]) == 0
    best = json.loads((tmp_path / "g.best.json").read_text())
    assert best["infeasible_group_counts"] == [1, 2, 3]
    assert (best["g"], best["total_reserved_us"]) == (4, 128)
    names = ("g.groups.csv", "g.best.json", "p.mixture.csv")
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in names}
    assert digests == {
        "g.groups.csv": "966a0db497f585d2f57317e099f979ba34c670a0b68282586dbd1e3afd8a40c6",
        "g.best.json": "1974736daf5542d948b2b61813150166357e42981487f784b8c1a16a27129d90",
        "p.mixture.csv": "51e46075ab4da488534fb54a4e891c006e0ffaac009a81e05c76c90fc9b89735",
    }


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


@pytest.mark.parametrize("argv", [
    pytest.param("model --paper-params --n 0 --out {dir}/x", id="n-zero"),
    pytest.param("model --paper-params --n 3 --cw-min 8 --cw-max 4 --out {dir}/x",
                 id="cw-max-below-cw-min"),
    pytest.param("model --paper-params --n 3 --epsilon 2 --out {dir}/x", id="epsilon-above-one"),
    pytest.param("model --paper-params --out {dir}/x", id="missing-n"),
    pytest.param("model --paper-params --n 3 --bogus --out {dir}/x", id="unknown-option"),
    pytest.param("frobnicate", id="unknown-command"),
    pytest.param("model --paper-params --n 1 --out {file}/x", id="out-under-a-file"),
    pytest.param("compare {dir}/m.pa.csv {dir}/s.pa.csv --tolerance nan", id="tolerance-nan"),
    pytest.param("compare {dir}/m.pa.csv {dir}/s.pa.csv --tolerance -1",
                 id="tolerance-negative"),
    pytest.param("compare {dir}/m.pa.csv {dir}/s.pa.csv --tolerance 1.5",
                 id="tolerance-above-one"),
])
def test_bad_input_is_one_error_line(tmp_path, capsys, argv):
    # {dir} does not exist: a run that got as far as writing would create it
    regular_file = tmp_path / "file"
    regular_file.write_text("")
    assert main(argv.format(dir=tmp_path / "dir", file=regular_file).split()) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    if "--tolerance" in argv:  # refused as an option, before the missing files are read
        assert "--tolerance" in err
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
    assert regular_file.read_text() == ""


def test_help_and_version_exit_zero(capsys):
    assert main(["model", "--help"]) == 0
    assert "--paper-params" in capsys.readouterr().out
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == f"rawtime {rawtime.__version__}\n"


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


@pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 56.0 GiB")])
def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch, exc):
    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(rawtime.cli, "run_chains", exhausted)
    assert main(["model", "--n", "2", "--paper-params", "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert str(exc) in err and "Traceback" not in err


@pytest.mark.parametrize("body", [
    "duration_us,probability\n10,0.5\n10,0.2\n",
    "duration_us,probability\n10,0.5\n20,nan\n",
    "duration_us,probability\n10,0.5\n20,inf\n",
    "duration_us,probability\n10,0.5\n20,0.0\n",
    "duration_us,probability\n10,0.5\n30,-0.1\n",
    "duration_us,probability\n10,0.9\n20,0.5\n",
    "duration_us,probability\n-10,0.5\n20,0.2\n",
    "duration_us,probability\n20,0.5\n10,0.2\n",
    '{"atoms": {"20": 0.5, "10": 0.2}}',
    '{"total_mass": 0.5}',
    '{"atoms": 0.5}',
    '{"atoms": [["10", 0.5]]}',
    '{"atoms": {"10": null}}',
    '[{"atoms": {"10": 0.5}}]',
    '{"atoms": {"10": 0.5}',
    "duration_us,probability\n10,0.5\n20,0.2,junk\n",
    "duration_us,probability,extra\n10,0.5\n",
    '{"atoms": {"10": true}}',
    '{"atoms": {"10": "0.5"}}',
    '{"atoms": {"99999999999999999999": 0.5}}',
    "duration_us,probability\n1_0,0.5\n",
    "duration_us,probability\n10,0.2_5\n",
    '{"atoms": {"1_0": 0.5}}',
    "duration_us,probability\n+10,0.5\n",
    "duration_us,probability\n 10 ,0.5\n",
    "duration_us,probability\n\u0661\u0660,0.5\n",  # Arabic-Indic digits
    '{"atoms": {"+10": 0.5}}',
    '{"atoms": {" 20": 0.5}}',
    # parsed leniently, but not spelled as rawtime writes it
    "duration_us,probability\n10, 0.5\n",
    "duration_us,probability\n10,+0.5\n",
    "duration_us,probability\n10,\u0660.\u0665\n",  # Arabic-Indic digits
    "duration_us,probability\n010,0.5\n",
    "duration_us,probability\n10,0.50\n",
    '{"atoms": {"10": 0.5}, "total_mass": 0.9, "deficit": 0.1}',
    '{"atoms": {"10": 0.5}}',
    pytest.param("[" * 200000, id="deeply-nested"),
])
def test_compare_rejects_corrupt_distribution(tmp_path, capsys, body):
    fmt = "json" if body[0] in "{[" else "csv"
    assert main(["model", "--n", "1", "--paper-params", "--out", str(tmp_path / "m")]) == 0
    assert main(["simulate", "--n", "1", "--paper-params", "--runs", "100", "--seed", "1",
                 "--format", fmt, "--out", str(tmp_path / "s")]) == 0
    (tmp_path / f"s.pa.{fmt}").write_text(body, encoding="utf-8")
    assert main(["compare", f"{tmp_path}/m.pa.csv", f"{tmp_path}/s.pa.{fmt}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("body", [
    '{"source": "simulation"',
    '["simulation"]',
    '{"source": "simulation", "params": 5}',
    # (model side, simulation side): no artifact, params or durations on either
    pytest.param(('{"source": "model"}', '{"source": "simulation"}'), id="both-sides-bare"),
    pytest.param("[" * 200000, id="deeply-nested"),
])
def test_compare_rejects_corrupt_manifest(tmp_path, capsys, body):
    model_body, sim_body = body if isinstance(body, tuple) else (None, body)
    assert main(["model", "--n", "1", "--paper-params", "--out", str(tmp_path / "m")]) == 0
    assert main(["simulate", "--n", "1", "--paper-params", "--runs", "100", "--seed", "1",
                 "--out", str(tmp_path / "s")]) == 0
    if model_body is not None:
        (tmp_path / "m.pa.csv.manifest.json").write_text(model_body)
    (tmp_path / "s.pa.csv.manifest.json").write_text(sim_body)
    assert main(["compare", f"{tmp_path}/m.pa.csv", f"{tmp_path}/s.pa.csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_cli_import_loads_no_scipy_or_click():
    # neither scipy, click nor the worker pool may load at import time
    code = ("import sys, rawtime.cli; print(sorted(m for m in sys.modules if m.split('.')[0] "
            "in ('scipy', 'click', 'multiprocessing') or m == 'concurrent.futures.process'))")
    env = dict(os.environ, PYTHONPATH=str(Path(rawtime.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


_MANIFEST_KEYS = {"artifact", "command", "created_utc", "durations", "extra", "outputs",
                  "params", "runs", "seed", "source", "version", "wall_clock_s"}
_DIST_KEYS = {"atoms", "total_mass", "deficit"}
_PLANNER_EXTRA = {"p_active", "q", "conditioning", "k_stride", "chain_runs", "chain_steps",
                  "cache_hits", "chain_run_s"}

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
        {"failure_count", "batches", "slots", "batch_s"},
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
