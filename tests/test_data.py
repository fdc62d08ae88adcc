"""Instance/scenario ingestion and validation."""

import json

import pytest

from sucbenders.data import (InstanceError, ReferentialError, ValidationError,
                             load_instance, load_scenarios)
from conftest import fixture_path


def _toy_doc():
    with open(fixture_path("toy-a.json")) as fh:
        return json.load(fh)


def _write(tmp_path, doc, name="inst.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def test_toy_a_counts(toy_a):
    inst, scen = toy_a
    assert inst.n_gens == 2
    assert inst.n_farms == 1
    assert inst.n_lines == 1
    assert inst.horizon == 4
    assert scen.n_scenarios == 3


def test_equiprobable_default(toy_a):
    _, scen = toy_a
    assert scen.probabilities == (1 / 3, 1 / 3, 1 / 3)


def test_unknown_node_is_referential_error(tmp_path):
    doc = _toy_doc()
    doc["generators"][0]["node"] = "n9"
    with pytest.raises(ReferentialError):
        load_instance(_write(tmp_path, doc))


def test_pmin_above_pmax_names_generator(tmp_path):
    doc = _toy_doc()
    doc["generators"][1]["p_min"] = 60.0
    with pytest.raises(ValidationError, match="g2"):
        load_instance(_write(tmp_path, doc))


def test_disconnected_network_rejected(tmp_path):
    doc = _toy_doc()
    doc["nodes"].append("n3")
    with pytest.raises(ValidationError, match="connected"):
        load_instance(_write(tmp_path, doc))


def test_merit_order_violation_is_warning_not_error(tmp_path):
    doc = _toy_doc()
    doc["generators"][0]["deploy_up_price"] = 5.0  # below energy_cost
    inst = load_instance(_write(tmp_path, doc))
    assert any("merit-order" in w for w in inst.warnings)


def test_probability_sum_enforced(toy_a, tmp_path):
    inst, _ = toy_a
    rows = ["scenario,farm,period,value_mw,probability"]
    for sc, p in (("s1", 0.5), ("s2", 0.3), ("s3", 0.1)):
        for t in range(1, 5):
            prob = p if t == 1 else ""
            rows.append(f"{sc},w1,{t},10.0,{prob}")
    path = tmp_path / "scen.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValidationError, match="sum"):
        load_scenarios(path, inst)


def test_capacity_exceedance_rejected(toy_a, tmp_path):
    inst, _ = toy_a
    rows = ["scenario,farm,period,value_mw"]
    for t in range(1, 5):
        rows.append(f"s1,w1,{t},55.0")  # w1 capacity is 40
    path = tmp_path / "scen.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValidationError, match="capacity"):
        load_scenarios(path, inst)


def test_missing_period_rejected(toy_a, tmp_path):
    inst, _ = toy_a
    rows = ["scenario,farm,period,value_mw"]
    for t in range(1, 4):  # period 4 missing
        rows.append(f"s1,w1,{t},10.0")
    path = tmp_path / "scen.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(InstanceError):
        load_scenarios(path, inst)


def test_restrict_renormalizes(toy_a):
    _, scen = toy_a
    sub = scen.restrict(["s1", "s3"])
    assert sub.scenario_ids == ("s1", "s3")
    assert abs(sum(sub.probabilities) - 1.0) < 1e-12
    assert sub.probabilities == (0.5, 0.5)


def test_wind_matrix_shape(toy_a):
    inst, scen = toy_a
    mat = scen.wind_matrix(inst)
    assert mat.shape == (3, inst.n_farms * inst.horizon)
    assert mat[0, 0] == scen.value("s1", "w1", 1)
