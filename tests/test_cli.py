"""End-to-end command line behaviour: exit codes, schemas, bundles."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import pytest

from condgreedy import cli
from condgreedy.cli import main


def _csv_lines(text: str) -> list:
    return [line for line in text.strip().split("\n")]


# ---------------------------------------------------------------------------
# parser-level behaviour
# ---------------------------------------------------------------------------


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    lines = _csv_lines(out)
    assert len(lines) == 8
    assert all("\t" in line for line in lines)
    assert lines[0].split("\t")[0] == "blocksum-L1"


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def test_construct_stdout_json(capsys):
    assert main(["construct", "--basis", "difference:4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["label"] == "difference:4"
    assert doc["d"] == 4 and doc["ambient_dim"] == 4
    assert doc["space"] == "lp:1"
    assert doc["columns"][1] == [-1.0, 1.0, 0.0, 0.0]


def test_construct_to_file(tmp_path, capsys):
    out = tmp_path / "basis.json"
    assert main(["construct", "--basis", "lindenstrauss:3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["ambient_dim"] == 7
    capsys.readouterr()


def test_construct_bad_spec(capsys):
    assert main(["construct", "--basis", "nope:4"]) == 2
    err = capsys.readouterr().err
    assert "error" in err and "nope" in err


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def test_constants_oracle_csv_schema(capsys):
    rc = main(["constants", "--basis", "difference:10", "--kind", "L",
               "--m", "2..10", "--oracle"])
    assert rc == 0
    lines = _csv_lines(capsys.readouterr().out)
    assert lines[0] == "m,lb,method,delta_m"
    assert len(lines) == 10
    for line in lines[1:]:
        m_txt, lb_txt, method, delta_txt = line.split(",")
        m, lb = int(m_txt), float(lb_txt)
        assert lb >= m - 1 - 1e-9
        assert lb == pytest.approx(float(m), rel=1e-12)
        assert method == "exact"
        assert float(delta_txt) == pytest.approx(math.log2(m), rel=1e-9)


def test_constants_hex_seed_and_linear_target(capsys):
    rc = main(["constants", "--basis", "difference:6", "--m", "2..6",
               "--seed", "0x2A", "--target", "linear"])
    assert rc == 0
    lines = _csv_lines(capsys.readouterr().out)
    last = lines[-1].split(",")
    assert float(last[3]) == 6.0  # linear delta column


@pytest.mark.parametrize("budget", [None, 24, 64, 625])
def test_constants_estimate_takes_the_oracle_where_the_budget_covers_the_grid(budget, capsys):
    # --estimate forces the search route only where the budget is below 5^m;
    # with no budget, or one covering the full grid, an L rung inside the
    # guard takes the full-grid route: the exact one on a recipe basis
    args = [] if budget is None else ["--budget", str(budget)]
    rc = main(["constants", "--basis", "difference:8", "--m", "2..4", "--estimate", *args])
    assert rc == 0
    for line in _csv_lines(capsys.readouterr().out)[1:]:
        m, _, method, _ = line.split(",")
        assert (method == "exact") == (budget is None or budget >= 5 ** int(m))


def test_constants_json_includes_fit(capsys):
    rc = main(["constants", "--basis", "difference:8", "--m", "2..8",
               "--format", "json", "--target", "linear"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["basis"] == "difference:8"
    assert [row["m"] for row in doc["ladder"]] == list(range(2, 9))
    assert doc["fit"]["verdict"] == "PASS"
    assert doc["fit"]["slope"] == pytest.approx(1.0, rel=1e-9)


def test_constants_svg(capsys):
    rc = main(["constants", "--basis", "difference:6", "--m", "2..6",
               "--format", "svg"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("<svg")


def test_constants_k_kind(capsys):
    rc = main(["constants", "--basis", "difference:8", "--kind", "k",
               "--m", "2,4", "--budget", "256"])
    assert rc == 0
    lines = _csv_lines(capsys.readouterr().out)
    rows = [line.split(",") for line in lines[1:]]
    assert float(rows[0][1]) >= 3.0 - 1e-9  # k_2 >= 2*2-1
    assert float(rows[1][1]) >= 7.0 - 1e-9  # k_4 >= 2*4-1


def test_constants_k_oracle_takes_the_exact_route_or_exits_2(capsys):
    rc = main(["constants", "--basis", "difference:8", "--kind", "k",
               "--m", "2,4", "--oracle"])
    assert rc == 0
    rows = [line.split(",") for line in _csv_lines(capsys.readouterr().out)[1:]]
    assert [(float(lb), method) for _, lb, method, _ in rows] == [(4.0, "exact"), (8.0, "exact")]
    # the p,q half-split sum has no exact route: its first rung is refused, and nothing printed
    rc = main(["constants", "--basis", "pqhalf(lindenstrauss,dims=2^1..2^2,p=1,q=1)",
               "--kind", "k", "--m", "2,3", "--oracle"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the k rung m=2 has no exact route" in captured.err


def test_constants_k_ladder_of_the_block_sum_is_exact(capsys):
    # the block of length 64 holds every maximum, and k_64 = L_64 there
    rc = main(["constants", "--basis", "blocksum(lindenstrauss,dims=2^1..2^6,p=1)",
               "--kind", "k", "--m", "2,4,8,16,32,64"])
    assert rc == 0
    rows = [line.split(",") for line in _csv_lines(capsys.readouterr().out)[1:]]
    assert [(float(lb), method) for _, lb, method, _ in rows] == [
        (v, "exact") for v in (5 / 4, 7 / 4, 35 / 16, 43 / 16, 193 / 64, 193 / 64)]


def test_constants_flag_conflicts(capsys):
    rc = main(["constants", "--basis", "difference:6", "--m", "2..6",
               "--oracle", "--estimate"])
    assert rc == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_constants_bad_ladder(capsys):
    assert main(["constants", "--basis", "difference:6", "--m", "six"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("basis,args,message", [
    ("difference:8", ["--m", "5..2", "--oracle"], "descending ladder range"),
    ("difference:8", ["--m", "5..2"], "descending ladder range"),
    ("difference:8", ["--m", "2..20"], "m must lie in 1..8, got 9"),
    ("difference:8", ["--m", "0..3"], "m must lie in 1..8, got 0"),
    ("difference:8", ["--m", "4,2"], "strictly increasing"),
    ("pqhalf(lindenstrauss,dims=2^1..2^3,p=1,q=1)", ["--m", "12,13", "--oracle"],
     "exceeds guard 12"),
    ("lindenstrauss:16", ["--m", "2,20", "--kind", "k"], "got 20"),
], ids=["empty oracle", "empty", "beyond d", "zero", "descending list", "beyond guard", "k beyond d"])
def test_constants_bad_ladder_is_usage_error(basis, args, message, capsys):
    # every rung is checked before the first is computed: no partial output
    rc = main(["constants", "--basis", basis, *args])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_constants_bad_target(capsys):
    assert main(["constants", "--basis", "difference:6", "--m", "2..6",
                 "--target", "cubic"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_constants_rejects_nonpositive_budget(budget, capsys):
    rc = main(["constants", "--basis", "difference:6", "--kind", "k", "--m", "2..3",
               "--budget", budget])
    assert rc == 2
    assert "--budget" in capsys.readouterr().err


@pytest.mark.parametrize("guard", ["0", "-1"])
def test_constants_rejects_nonpositive_guard(guard, capsys):
    rc = main(["constants", "--basis", "difference:6", "--m", "2..3", "--guard", guard])
    assert rc == 2
    assert "--guard" in capsys.readouterr().err


@pytest.mark.parametrize("args,flag", [
    (["--oracle", "--budget", "7"], "--budget"),
], ids=["oracle budget"])
def test_constants_ignored_flag_is_usage_error(args, flag, capsys):
    rc = main(["constants", "--basis", "difference:8", "--m", "2,3", *args])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag} has no effect" in captured.err


def test_constants_guard_reaches_the_k_rung_m_equal_d(capsys):
    # k_9 = L_9 on this d = 9 basis, which has no exact route: inside the
    # guard the rung takes the oracle, past it the search
    spec = "pqhalf(summing,dims=2..4,p=1,q=1)"
    methods = {}
    for guard in ([], ["--guard", "8"]):
        assert main(["constants", "--basis", spec, "--kind", "k", "--m", "9", *guard]) == 0
        methods[len(guard)] = _csv_lines(capsys.readouterr().out)[1].split(",")[2]
    assert methods[0] == "oracle" and methods[2] in ("template", "random")


def test_constants_oracle_takes_the_exact_route_past_the_guard(capsys):
    assert main(["constants", "--basis", "difference:20", "--m", "2..20", "--oracle"]) == 0
    rows = [line.split(",")[:3] for line in _csv_lines(capsys.readouterr().out)[1:]]
    assert rows == [[str(m), str(m), "exact"] for m in range(2, 21)]


def test_readme_constants_example_is_the_cli_output(capsys):
    # the rows README shows for its constants example, before and after its "..."
    command = "condgreedy constants --basis difference:8 --m 2..8 --oracle"
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    shown = readme.split(f"{command}\n```\n\n```\n", 1)[1].split("\n```", 1)[0].split("\n")
    cut = shown.index("...")
    assert shown[:2] == ["m,lb,method,delta_m", "2,2,exact,1"] and shown[-1] == "8,8,exact,3"
    assert main(command.split()[1:]) == 0
    lines = _csv_lines(capsys.readouterr().out)
    assert lines[:cut] == shown[:cut]
    assert lines[len(lines) - len(shown) + cut + 1:] == shown[cut + 1:]


def test_constants_target_forms_match_config_parser(capsys):
    for target in ("log", " Linear ", "power:0.5"):
        assert main(["constants", "--basis", "difference:6", "--m", "2..3",
                     "--target", target]) == 0
    for target in ("power:", "power:2", "power:x"):
        assert main(["constants", "--basis", "difference:6", "--m", "2..3",
                     "--target", target]) == 2
        assert "bad growth target" in capsys.readouterr().err
    capsys.readouterr()


# ---------------------------------------------------------------------------
# greedy-check
# ---------------------------------------------------------------------------


def test_greedy_check_unit_passes(capsys):
    rc = main(["greedy-check", "--basis", "unit:8@lp:2"])
    assert rc == 0
    lines = _csv_lines(capsys.readouterr().out)
    assert lines[0] == "check,verdict,detail"
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == ["quasi-greedy-lb", "almost-greedy-lb",
                     "phi-nondecreasing", "democracy-ratio"]
    assert all(line.split(",")[1] == "PASS" for line in lines[1:])


def test_greedy_check_summing_json(capsys):
    rc = main(["greedy-check", "--basis", "summing:8", "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    by_name = {c["check"]: c for c in doc["checks"]}
    assert by_name["quasi-greedy-lb"]["verdict"] == "PASS"
    assert "value 4" in by_name["quasi-greedy-lb"]["detail"]


def test_greedy_check_phi_max_validation(capsys, monkeypatch):
    assert main(["greedy-check", "--basis", "difference:8", "--phi-max", "12"]) == 2
    capsys.readouterr()

    # the flag is checked before any estimate is spent
    def unreachable(*args, **kwargs):
        raise AssertionError("estimator ran before --phi-max was checked")

    for name in ("quasi_greedy_constant_lb", "almost_greedy_constant_lb",
                 "fundamental_function", "democracy_ratio"):
        monkeypatch.setattr(cli, name, unreachable)
    for phi_max in ("100", "0"):
        assert main(["greedy-check", "--basis", "lindenstrauss:64", "--phi-max", phi_max]) == 2
        assert "--phi-max" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_greedy_check_rejects_nonpositive_budget(budget, capsys):
    assert main(["greedy-check", "--basis", "unit:4@lp:2", "--budget", budget]) == 2
    assert "--budget" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


def test_experiment_bundle_and_determinism(tmp_path, capsys):
    args = ["experiment", "unit-control", "lorentz-embed",
            "--seed", "42", "--no-timestamp"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--out", str(out1)]) == 0
    text = capsys.readouterr().out
    assert "unit-control: PASS" in text
    assert "lorentz-embed: PASS" in text

    manifest = json.loads((out1 / "manifest.json").read_text())
    assert "created_utc" not in manifest
    assert manifest["meta"]["scenarios"] == {
        "unit-control": "PASS", "lorentz-embed": "PASS"
    }
    assert set(manifest["files"]) == {
        "unit-control-checks.csv", "unit-control-ladder.csv",
        "unit-control-plot.svg", "unit-control-report.json",
        "lorentz-embed-checks.csv", "lorentz-embed-report.json",
    }

    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    for name in manifest["files"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()


def test_experiment_timestamp_present_by_default(tmp_path, capsys):
    out = tmp_path / "r"
    assert main(["experiment", "unit-control", "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert "created_utc" in manifest


def test_experiment_unknown_scenario(tmp_path, capsys):
    rc = main(["experiment", "no-such-thing", "--out", str(tmp_path / "r")])
    assert rc == 2
    assert "unknown scenario" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_experiment_rejects_nonpositive_budget(budget, tmp_path, capsys):
    out = tmp_path / "r"
    assert main(["experiment", "unit-control", "--budget", budget, "--out", str(out)]) == 2
    assert "--budget" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_requires_names_or_config(tmp_path, capsys):
    assert main(["experiment", "--out", str(tmp_path / "r")]) == 2
    capsys.readouterr()


def test_experiment_names_and_config_conflict(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[scenario:x]\nrecipe = difference:8\n", encoding="utf-8")
    rc = main(["experiment", "unit-control", "--config", str(cfg),
               "--out", str(tmp_path / "r")])
    assert rc == 2
    capsys.readouterr()


def test_experiment_config_with_budget_is_usage_error(tmp_path, capsys):
    # each section's own budget is used, so a --budget would only reach the manifest
    cfg = tmp_path / "c.ini"
    cfg.write_text("[scenario:x]\nrecipe = difference:8\nladder = 2..8\n", encoding="utf-8")
    out = tmp_path / "r"
    rc = main(["experiment", "--config", str(cfg), "--budget", "64", "--out", str(out)])
    assert rc == 2
    assert "--budget has no effect with --config" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_config_pass(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text(
        "[scenario:diffcheck]\nrecipe = difference:8\nladder = 2..8\n"
        "target = linear\n",
        encoding="utf-8",
    )
    out = tmp_path / "r"
    rc = main(["experiment", "--config", str(cfg), "--seed", "7", "--out", str(out),
               "--no-timestamp"])  # --seed is accepted beside --config, unlike --budget
    assert rc == 0
    assert "diffcheck: PASS" in capsys.readouterr().out
    assert (out / "diffcheck-ladder.csv").exists()


def test_experiment_config_manifest_records_each_section_seed(tmp_path, capsys):
    # the manifest once read the --seed, which no section ran at
    cfg = tmp_path / "c.ini"
    cfg.write_text("[scenario:a]\nrecipe = difference:8\nladder = 2..8\nseed = 11\n"
                   "[scenario:b]\nrecipe = summing:8\nladder = 2..8\n", encoding="utf-8")
    out = tmp_path / "r"
    assert main(["experiment", "--config", str(cfg), "--seed", "7", "--out", str(out),
                 "--no-timestamp"]) == 0
    capsys.readouterr()
    meta = json.loads((out / "manifest.json").read_text())["meta"]
    assert meta["seed"] == {"a": 11, "b": 0xC0FFEE}
    for name in meta["seed"]:
        report = json.loads((out / f"{name}-report.json").read_text())
        assert report["meta"]["seed"] == meta["seed"][name]


def test_experiment_config_failing_fit_exits_one(tmp_path, capsys):
    # a flat unit ladder cannot satisfy any growth fit: honest FAIL, exit 1
    cfg = tmp_path / "c.ini"
    cfg.write_text(
        "[scenario:flat]\nrecipe = unit:8@lp:2\nladder = 2..8\ntarget = log\n",
        encoding="utf-8",
    )
    rc = main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert rc == 1
    assert "flat: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("line,message", [
    ("budjet = 5", "unknown key(s): budjet"),
    ("kind = q", "kind must be 'L' or 'k'"),
    ("ladder = 8..2", "descending ladder range"),
    ("ladder = 2..20", "section scenario:x: ladder rung 9 outside 1..8"),
    ("ladder = 0..3", "section scenario:x: ladder rung 0 outside 1..8"),
    # a NaN r2_min passed every fit, and r2 < r2_min is False for any r2 at -1
    ("r2_min = nan", "section scenario:x: r2_min must be a number in [0, 1], got nan"),
    ("r2_min = -1", "section scenario:x: r2_min must be a number in [0, 1], got -1.0"),
    ("r2_min = 2", "section scenario:x: r2_min must be a number in [0, 1], got 2.0"),
])
def test_experiment_config_bad_section_is_usage_error(line, message, tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[scenario:x]\nrecipe = difference:8\n{line}\n", encoding="utf-8")
    out = tmp_path / "r"
    rc = main(["experiment", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_experiment_config_bad_recipe_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[scenario:x]\nrecipe = nope:4\nladder = 2..4\n", encoding="utf-8")
    out = tmp_path / "r"
    rc = main(["experiment", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "section scenario:x: bad recipe 'nope:4'" in captured.err
    assert not out.exists()


def test_experiment_config_empty_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[other]\nx = 1\n", encoding="utf-8")
    rc = main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert rc == 2
    capsys.readouterr()


# sha256 prefixes of every data file of ``experiment all --seed 42
# --no-timestamp``; any change to a value, witness, check or format shows here
SEED42_BUNDLE = {
    "blocksum-L1-checks.csv": "aaa7ac8036058f0e",
    "blocksum-L1-ladder.csv": "9d66c2fb48f152cf",
    "blocksum-L1-plot.svg": "5ba9f4fa9382ef37",
    "blocksum-L1-report.json": "9f4976b44ccb7db9",
    "difference-linear-checks.csv": "a9471a74d9d25c27",
    "difference-linear-ladder.csv": "e49830634c9c67d0",
    "difference-linear-plot.svg": "acd195a6d5b21f9d",
    "difference-linear-report.json": "43db6dbeca01ddd6",
    "interleave-transfer-checks.csv": "80890151a408148d",
    "interleave-transfer-ladder.csv": "5fd3dc3f107e7938",
    "interleave-transfer-plot.svg": "3a922470fdc98181",
    "interleave-transfer-report.json": "3a5a991ae5feaed1",
    "lindenstrauss-log-checks.csv": "8b627f6a5a4fba33",
    "lindenstrauss-log-ladder.csv": "6c4ee6f9debfea01",
    "lindenstrauss-log-plot.svg": "52b51b65b42b2a9c",
    "lindenstrauss-log-report.json": "86e0276a50bfae9a",
    "lorentz-embed-checks.csv": "7f401858622b52f0",
    "lorentz-embed-report.json": "5b350735f6a2f725",
    "pq-split-checks.csv": "f2c17427aab7a2a8",
    "pq-split-report.json": "4865d3d76adff902",
    "summing-linear-checks.csv": "14a5f67b0cdbe448",
    "summing-linear-ladder.csv": "e49830634c9c67d0",
    "summing-linear-plot.svg": "b29963b8e53b99b8",
    "summing-linear-report.json": "47a8e9707f70e39d",
    "unit-control-checks.csv": "a48f13578436c036",
    "unit-control-ladder.csv": "a695a9689e0f0e03",
    "unit-control-plot.svg": "85c9f0c53f14c638",
    "unit-control-report.json": "d11be965d2fd6e0d",
}


def test_experiment_all_seed42_bundle_is_pinned(tmp_path, capsys):
    out = tmp_path / "r"
    assert main(["experiment", "all", "--seed", "42", "--no-timestamp", "--out", str(out)]) == 1
    capsys.readouterr()
    assert sorted(p.name for p in out.iterdir()) == sorted([*SEED42_BUNDLE, "manifest.json"])
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()[:16] for name in SEED42_BUNDLE}
    assert got == SEED42_BUNDLE
