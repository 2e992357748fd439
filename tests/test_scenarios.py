"""Scenario registry, verdicts, config pipeline, and result rendering."""

from __future__ import annotations

import numpy as np
import pytest

from condgreedy import (
    ScenarioResult,
    constant_chain,
    json_bytes,
    list_scenarios,
    load_scenarios_config,
    result_files,
    run_config_scenario,
    run_scenario,
)
from condgreedy import conditionality
from condgreedy import scenarios as scenarios_mod

EXPECTED_NAMES = {
    "blocksum-L1",
    "difference-linear",
    "interleave-transfer",
    "lindenstrauss-log",
    "lorentz-embed",
    "pq-split",
    "summing-linear",
    "unit-control",
}


def _verdicts(result: ScenarioResult) -> dict:
    return {name: verdict for name, verdict, _ in result.checks}


def test_registry_names_and_descriptions():
    listed = list_scenarios()
    assert {name for name, _ in listed} == EXPECTED_NAMES
    assert [name for name, _ in listed] == sorted(n for n, _ in listed)
    assert all(desc for _, desc in listed)


def test_unit_control_passes():
    res = run_scenario("unit-control")
    assert res.verdict == "PASS"
    v = _verdicts(res)
    assert v["constant-one"] == "PASS"
    assert v["witness-reverify"] == "PASS"
    assert res.ladder and all(lb == pytest.approx(1.0) for _, lb, _ in res.ladder)


def test_unit_control_is_deterministic():
    a = run_scenario("unit-control").to_doc()
    b = run_scenario("unit-control").to_doc()
    assert a == b


def test_difference_linear_passes():
    res = run_scenario("difference-linear")
    assert res.verdict == "PASS"
    v = _verdicts(res)
    assert v == {
        "lb-floor": "PASS",
        "closed-form": "PASS",
        "witness-reverify": "PASS",
        "growth-fit": "PASS",
    }
    assert res.fit is not None and res.fit.verdict == "PASS"
    assert res.fit.slope == pytest.approx(1.0, rel=1e-9)


def test_difference_linear_closed_form_catches_a_planted_chain_error(monkeypatch):
    # the exact route's 0/1 strings one place low, with their own change
    # counts: every witness still scores its value and LB_m >= m - 1 holds,
    # so only the closed form L_m = m sees that the values are wrong
    real = conditionality._chain_string

    def planted(n, c):
        bits = real(n, c)[1][1:] + (0,)
        return sum(abs(x - y) for x, y in zip(bits, bits[1:] + (0,))), bits

    monkeypatch.setattr(conditionality, "_chain_string", planted)
    res = run_scenario("difference-linear")
    v = _verdicts(res)
    assert v["closed-form"] == "FAIL" and v["lb-floor"] == "PASS"
    assert v["witness-reverify"] == "PASS" and res.verdict == "FAIL"
    assert [lb for _, lb, _ in res.ladder] != list(range(2, 11))


def test_summing_linear_passes():
    res = run_scenario("summing-linear")
    assert res.verdict == "PASS"
    v = _verdicts(res)
    assert v["lb-floor"] == "PASS"
    assert v["monotone"] == "PASS"
    assert v["growth-fit"] == "PASS"


def test_interleave_transfer_passes():
    res = run_scenario("interleave-transfer", budget=512)
    assert res.verdict == "PASS"
    v = _verdicts(res)
    assert v["transfer-exact"] == "PASS"
    assert v["ladder-dominates"] == "PASS"
    assert v["witness-reverify"] == "PASS"


def test_lorentz_embed_passes():
    res = run_scenario("lorentz-embed")
    assert res.verdict == "PASS"
    v = _verdicts(res)
    assert v["retract-lift-identity"] == "PASS"
    assert v["lift-bv-le-2l1"] == "PASS"
    assert v["retract-l1-le-bv"] == "PASS"
    assert res.ladder == () and res.fit is None


def test_lindenstrauss_log_fails_only_on_the_fit():
    # the measured staircase is honestly sublinear but too flat for the
    # uniform R^2 gate; every substantive property check still passes
    res = run_scenario("lindenstrauss-log")
    assert res.verdict == "FAIL"
    v = _verdicts(res)
    assert v["growth-fit"] == "FAIL"
    passing = {k: s for k, s in v.items() if k != "growth-fit"}
    assert passing == {
        "sublinear-ratio": "PASS",
        "log-band": "PASS",
        "phi-linear": "PASS",
        "qg-stable": "PASS",
        "witness-reverify": "PASS",
    }
    assert res.fit is not None and "R^2" in res.fit.note


def test_run_scenario_unknown_name():
    with pytest.raises(KeyError):
        run_scenario("nope")


def test_run_scenario_wraps_exceptions(monkeypatch):
    def boom(budget, seed):
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(scenarios_mod._SCENARIOS, "boom", (boom, "explodes"))
    res = run_scenario("boom")
    assert res.verdict == "FAIL"
    assert res.checks[0][0] == "scenario-run"
    assert "RuntimeError" in res.checks[0][2]


def test_constant_chain():
    assert constant_chain(1.0, 1.0, 2.0) == 4.0
    assert constant_chain(2.0, 3.0, 2.0) == 24.0
    with pytest.raises(ValueError):
        constant_chain(1.0, 1.0, 1.0)


def test_scenario_result_doc_shape():
    res = run_scenario("unit-control")
    doc = res.to_doc()
    assert doc["name"] == "unit-control"
    assert doc["verdict"] == "PASS"
    assert {c["check"] for c in doc["checks"]} == set(_verdicts(res))
    assert [row["m"] for row in doc["ladder"]] == [2, 4, 8, 16]
    assert "fit" not in doc  # unit control fits nothing


def test_result_files_with_ladder():
    res = run_scenario("difference-linear")
    files = result_files(res)
    assert set(files) == {
        "difference-linear-checks.csv",
        "difference-linear-ladder.csv",
        "difference-linear-plot.svg",
        "difference-linear-report.json",
    }
    header = files["difference-linear-checks.csv"].split(b"\n", 1)[0]
    assert header == b"check,verdict,detail"
    ladder_header = files["difference-linear-ladder.csv"].split(b"\n", 1)[0]
    assert ladder_header == b"m,lb,method,delta_m"
    assert files["difference-linear-plot.svg"].startswith(b"<svg")


def test_result_files_checks_only():
    res = run_scenario("lorentz-embed")
    files = result_files(res)
    assert set(files) == {"lorentz-embed-checks.csv", "lorentz-embed-report.json"}


@pytest.mark.parametrize("value", [np.int64(3), np.float32(0.5), np.bool_(True)])
def test_json_bytes_rejects_values_json_does_not_know(value):
    # np.int64(3) was once written as 3.0 and any other object as its str()
    with pytest.raises(TypeError):
        json_bytes({"m": value})


# ---------------------------------------------------------------------------
# config-driven scenarios
# ---------------------------------------------------------------------------

CONFIG = """
[scenario:diffcheck]
recipe = difference:8
ladder = 2..8
target = linear

[other]
ignored = yes
"""


def test_config_scenario_roundtrip(tmp_path):
    path = tmp_path / "scen.ini"
    path.write_text(CONFIG, encoding="utf-8")
    specs = load_scenarios_config(str(path))
    assert len(specs) == 1
    spec = specs[0]
    assert spec["name"] == "diffcheck"
    assert spec["ladder"] == (2, 3, 4, 5, 6, 7, 8)
    assert spec["target"].kind == "linear"
    res = run_config_scenario(spec)
    assert res.verdict == "PASS"
    assert res.fit is not None and res.fit.slope == pytest.approx(1.0, rel=1e-9)


def test_config_requires_recipe(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[scenario:x]\nladder = 2..8\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_scenarios_config(str(path))


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_config_rejects_budget_below_one(budget, tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(f"[scenario:tiny]\nrecipe = difference:8\nbudget = {budget}\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match="scenario:tiny"):
        load_scenarios_config(str(path))


def test_config_scenario_bad_recipe_becomes_fail():
    res = run_config_scenario({"name": "broken", "recipe": "nope:4", "ladder": (2, 3, 4, 5)})
    assert res.verdict == "FAIL"
    assert res.checks[0][0] == "scenario-run"


def test_parse_ladder_forms():
    assert scenarios_mod.parse_ladder("2..6") == (2, 3, 4, 5, 6)
    assert scenarios_mod.parse_ladder("4,8,16") == (4, 8, 16)
    assert scenarios_mod.parse_ladder("3..3") == (3,)
    with pytest.raises(ValueError, match="descending"):
        scenarios_mod.parse_ladder("5..2")
