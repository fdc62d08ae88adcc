"""Instance/scenario ingestion and validation."""

import dataclasses
import json

import pytest
from click.testing import CliRunner

from sucbenders.cli import main
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


@pytest.mark.parametrize("records, kind", [("generators", "generator"), ("lines", "line"),
                                           ("wind_farms", "wind farm")])
def test_duplicate_id_is_rejected_naming_it(tmp_path, records, kind):
    # a second record under the first's id, otherwise a copy of the last:
    # model layouts and scenario rows are keyed by id
    doc = _toy_doc()
    doc[records].append({**doc[records][-1], "id": doc[records][0]["id"]})
    with pytest.raises(ValidationError, match=f"duplicate {kind} id '{doc[records][0]['id']}'"):
        load_instance(_write(tmp_path, doc))


@pytest.mark.parametrize("records, at, blank", [
    ("nodes", 1, None), ("nodes", 1, ""), ("generators", 0, None),
    ("generators", 0, " "), ("lines", 0, ""), ("wind_farms", 0, ""),
])
def test_null_or_empty_id_is_rejected_naming_its_record(tmp_path, records, at, blank):
    # a null node would load as a node named "None" that a line can connect
    # to; an empty id names nothing
    doc = _toy_doc()
    if records == "nodes":
        doc["nodes"][at] = blank
    else:
        doc[records][at]["id"] = blank
    path = _write(tmp_path, doc)
    with pytest.raises(InstanceError, match=rf"{records}\[{at}\]"):
        load_instance(path)
    res = CliRunner().invoke(main, ["solve", "--instance", str(path), "--scenarios",
                                    str(fixture_path("toy-a.csv")), "--method", "extensive"])
    assert res.exit_code == 1 and f"{records}[{at}]" in res.output


@pytest.mark.parametrize("column, at, blank", [("scenario", 0, ""), ("scenario", 0, "  "),
                                              ("farm", 1, "")])
def test_empty_scenario_id_is_rejected_naming_its_line(tmp_path, column, at, blank):
    lines = fixture_path("toy-a.csv").read_text().splitlines()
    cells = lines[3].split(",")
    cells[at] = blank
    lines[3] = ",".join(cells)
    path = tmp_path / "scen.csv"
    path.write_text("\n".join(lines) + "\n")
    message = f"line 4: empty {column} id"
    with pytest.raises(InstanceError, match=message):
        load_scenarios(path, load_instance(fixture_path("toy-a.json")))
    res = CliRunner().invoke(main, ["solve", "--instance", str(fixture_path("toy-a.json")),
                                    "--scenarios", str(path), "--method", "extensive"])
    assert res.exit_code == 1 and message in res.output


def test_duplicate_load_entry_is_rejected_naming_it(tmp_path):
    # a second entry for a (node, period) would silently replace the first
    doc = _toy_doc()
    doc["load"].append({"node": "n1", "period": 1, "mw": 999.0})
    path = _write(tmp_path, doc)
    with pytest.raises(InstanceError, match=r"duplicate load entry \('n1', 1\)"):
        load_instance(path)
    res = CliRunner().invoke(main, ["solve", "--instance", str(path), "--scenarios",
                                    str(fixture_path("toy-a.csv")), "--method", "extensive"])
    assert res.exit_code == 1 and "duplicate load entry" in res.output


@pytest.mark.parametrize("gen, status, up, down", [(0, 1, 0, 2), (1, 0, 2, 0)])
def test_enforced_initial_periods_must_agree_with_the_initial_status(tmp_path, gen, status,
                                                                    up, down):
    # a unit that starts on cannot be held off, nor one that starts off on:
    # the first stage pins u to init_status over all enforced periods
    doc = _toy_doc()
    g = doc["generators"][gen]
    g.update(init_status=status, init_up_periods=up, init_down_periods=down)
    with pytest.raises(ValidationError, match=f"generator {g['id']}: enforced initial"):
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
    # only the subset's realizations remain, with their values
    assert sub.realizations == {k: v for k, v in scen.realizations.items()
                                if k[0] in ("s1", "s3")}
    assert {k[0] for k in sub.realizations} == {"s1", "s3"}


def test_wind_matrix_shape(toy_a):
    inst, scen = toy_a
    mat = scen.wind_matrix(inst)
    assert mat.shape == (3, inst.n_farms * inst.horizon)
    assert mat[0, 0] == scen.value("s1", "w1", 1)


def test_validators_reject_nan_values(toy_a):
    # NaN fails every comparison, so a check written as "x < 0 raises"
    # passes it; objects built in code, not read from a file, meet these
    inst, scen = toy_a
    key = next(iter(scen.realizations))
    nan_value = dataclasses.replace(scen, realizations={**scen.realizations,
                                                        key: float("nan")})
    with pytest.raises(ValidationError, match="W\\*=nan"):
        nan_value.validate(inst)
    nan_probs = dataclasses.replace(scen, probabilities=(float("nan"),) * scen.n_scenarios)
    with pytest.raises(ValidationError, match="sum"):
        nan_probs.validate(inst)
    for field in ("capacity", "susceptance"):
        line = dataclasses.replace(inst.lines[0], **{field: float("nan")})
        with pytest.raises(ValidationError, match=field):
            line.validate()
