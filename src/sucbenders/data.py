"""Power-system instance and wind-scenario data model with file ingestion.

Instances are JSON documents (see ``load_instance``); scenario sets are
long-format CSV with one row per (scenario, farm, period) triple.  All types
are frozen dataclasses: once validated they are safe to share read-only
across worker threads.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass, field, fields
from itertools import product
from pathlib import Path

import numpy as np

PROB_TOL = 1e-9


class InstanceError(ValueError):
    """Malformed or inconsistent instance/scenario data."""


class ValidationError(InstanceError):
    """An invariant on a loaded object is violated."""


class ReferentialError(InstanceError):
    """A record references an unknown node/farm id."""


@dataclass(frozen=True)
class Generator:
    id: str
    node: str
    energy_cost: float          # $/MWh
    startup_cost: float         # $
    res_up_cost: float          # $/MW
    res_down_cost: float        # $/MW
    deploy_up_price: float      # $/MWh
    deploy_down_price: float    # $/MWh
    p_min: float                # MW
    p_max: float                # MW
    ramp_up: float              # MW/h
    ramp_down: float            # MW/h
    res_up_cap: float           # MW
    res_down_cap: float         # MW
    min_up: int                 # h
    min_down: int               # h
    init_status: int            # 0/1
    init_up_periods: int        # enforced initial on-periods
    init_down_periods: int      # enforced initial off-periods

    def validate(self) -> list[str]:
        """Raise on hard invariant violations; return soft warnings."""
        if not (0 <= self.p_min <= self.p_max):
            raise ValidationError(
                f"generator {self.id}: requires 0 <= p_min <= p_max, "
                f"got p_min={self.p_min}, p_max={self.p_max}"
            )
        for name in ("ramp_up", "ramp_down", "res_up_cap", "res_down_cap"):
            if not getattr(self, name) >= 0:
                raise ValidationError(f"generator {self.id}: {name} must be >= 0")
        if self.min_up < 1 or self.min_down < 1:
            raise ValidationError(f"generator {self.id}: min up/down times must be >= 1")
        if self.init_status not in (0, 1):
            raise ValidationError(f"generator {self.id}: init_status must be 0 or 1")
        if self.init_up_periods < 0 or self.init_down_periods < 0:
            raise ValidationError(f"generator {self.id}: initial enforced periods must be >= 0")
        # the first stage pins u to init_status over all enforced periods
        contradicting = self.init_down_periods if self.init_status else self.init_up_periods
        if contradicting > 0:
            raise ValidationError(
                f"generator {self.id}: enforced initial "
                f"{'off' if self.init_status else 'on'}-periods contradict "
                f"init_status={self.init_status}")
        warnings = []
        if not (self.deploy_down_price <= self.energy_cost <= self.deploy_up_price):
            warnings.append(
                f"generator {self.id}: merit-order sanity C- <= C <= C+ violated"
            )
        return warnings


@dataclass(frozen=True)
class Line:
    id: str
    from_node: str
    to_node: str
    susceptance: float  # p.u.
    capacity: float     # MW

    def validate(self) -> None:
        if not self.capacity > 0:
            raise ValidationError(f"line {self.id}: capacity must be > 0")
        if not self.susceptance > 0:
            raise ValidationError(f"line {self.id}: susceptance must be > 0")
        if self.from_node == self.to_node:
            raise ValidationError(f"line {self.id}: from and to nodes coincide")


@dataclass(frozen=True)
class WindFarm:
    id: str
    node: str
    capacity: float  # MW

    def validate(self) -> None:
        if not self.capacity >= 0:
            raise ValidationError(f"wind farm {self.id}: capacity must be >= 0")


@dataclass(frozen=True)
class SystemInstance:
    name: str
    horizon: int                       # periods, 1..T
    ref_node: str
    nodes: tuple[str, ...]
    lines: tuple[Line, ...]
    generators: tuple[Generator, ...]
    wind_farms: tuple[WindFarm, ...]
    load: dict                         # (node, t) -> MW
    shed_cost: float                   # $/MWh
    warnings: tuple[str, ...] = field(default=(), compare=False)

    @property
    def n_gens(self) -> int:
        return len(self.generators)

    @property
    def n_farms(self) -> int:
        return len(self.wind_farms)

    @property
    def n_lines(self) -> int:
        return len(self.lines)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def load_at(self, node: str, t: int) -> float:
        return self.load.get((node, t), 0.0)

    def validate(self) -> None:
        if self.horizon < 1:
            raise ValidationError("horizon must be >= 1")
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise ValidationError("duplicate node ids")
        for kind, records in (("generator", self.generators), ("line", self.lines),
                              ("wind farm", self.wind_farms)):
            repeated = [i for i, n in Counter(r.id for r in records).items() if n > 1]
            if repeated:
                raise ValidationError(f"duplicate {kind} id {repeated[0]!r}")
        if self.ref_node not in node_set:
            raise ReferentialError(f"reference node {self.ref_node!r} not in node list")
        for g in self.generators:
            if g.node not in node_set:
                raise ReferentialError(f"generator {g.id} references unknown node {g.node!r}")
        for w in self.wind_farms:
            if w.node not in node_set:
                raise ReferentialError(f"wind farm {w.id} references unknown node {w.node!r}")
        for ln in self.lines:
            ln.validate()
            if ln.from_node not in node_set or ln.to_node not in node_set:
                raise ReferentialError(f"line {ln.id} references an unknown node")
        for (node, t), mw in self.load.items():
            if node not in node_set:
                raise ReferentialError(f"load entry references unknown node {node!r}")
            if not (1 <= t <= self.horizon):
                raise ValidationError(f"load entry at period {t} outside horizon 1..{self.horizon}")
            if not mw >= 0:
                raise ValidationError(f"load at ({node}, {t}) must be >= 0")
        if not self.shed_cost >= 0:
            raise ValidationError("shed_cost must be >= 0")
        self._check_connected()

    def _check_connected(self) -> None:
        if len(self.nodes) <= 1:
            return
        adj: dict[str, set[str]] = {n: set() for n in self.nodes}
        for ln in self.lines:
            adj[ln.from_node].add(ln.to_node)
            adj[ln.to_node].add(ln.from_node)
        seen = {self.nodes[0]}
        stack = [self.nodes[0]]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if seen != set(self.nodes):
            missing = sorted(set(self.nodes) - seen)
            raise ValidationError(f"network graph is not connected; unreachable nodes: {missing}")


@dataclass(frozen=True)
class ScenarioSet:
    scenario_ids: tuple[str, ...]
    probabilities: tuple[float, ...]           # pi_omega, sums to 1
    realizations: dict                         # (scenario, farm, t) -> MW

    @property
    def n_scenarios(self) -> int:
        return len(self.scenario_ids)

    def probability(self, scenario: str) -> float:
        return self.probabilities[self.scenario_ids.index(scenario)]

    def value(self, scenario: str, farm: str, t: int) -> float:
        return self.realizations[(scenario, farm, t)]

    def wind_matrix(self, instance: SystemInstance) -> np.ndarray:
        """Realizations as an |Omega| x (|J|*T) matrix, farm-major flattening."""
        keys = product(self.scenario_ids, [w.id for w in instance.wind_farms],
                       range(1, instance.horizon + 1))
        size = instance.n_farms * instance.horizon
        return np.fromiter(map(self.realizations.__getitem__, keys), float,
                           self.n_scenarios * size).reshape(self.n_scenarios, size)

    def restrict(self, scenario_ids: list[str]) -> "ScenarioSet":
        """Subset with probabilities renormalized to sum 1."""
        probs = [self.probability(sc) for sc in scenario_ids]
        total = sum(probs)
        keep = set(scenario_ids)
        reals = {k: v for k, v in self.realizations.items() if k[0] in keep}
        return ScenarioSet(tuple(scenario_ids), tuple(p / total for p in probs), reals)

    def validate(self, instance: SystemInstance) -> None:
        if not self.scenario_ids:
            raise ValidationError("scenario set is empty")
        total = sum(self.probabilities)
        if not abs(total - 1.0) <= PROB_TOL:
            raise ValidationError(f"scenario probabilities sum to {total!r}, expected 1")
        if not all(p > 0 for p in self.probabilities):
            raise ValidationError("scenario probabilities must be > 0")
        caps = {w.id: w.capacity for w in instance.wind_farms}
        farm_ids = set(caps)
        for sc in self.scenario_ids:
            for w in instance.wind_farms:
                for t in range(1, instance.horizon + 1):
                    key = (sc, w.id, t)
                    if key not in self.realizations:
                        raise ValidationError(
                            f"missing realization for scenario {sc}, farm {w.id}, period {t}"
                        )
        for (sc, farm, t), val in self.realizations.items():
            if farm not in farm_ids:
                raise ReferentialError(f"scenario {sc} references unknown farm {farm!r}")
            if not (1 <= t <= instance.horizon):
                raise ValidationError(f"scenario {sc}: period {t} outside horizon")
            if not 0 <= val <= caps[farm] + 1e-9:
                raise ValidationError(
                    f"scenario {sc}: W*={val} for farm {farm} exceeds capacity {caps[farm]}"
                )


def _field(record, key: str, ctx: str, cast=None, default=None):
    """``record[key]`` through ``cast``, or ``default`` if missing or null;
    InstanceError names the record ``ctx`` and the field otherwise, and for
    a record that is not an object, a value that ``cast`` rejects or a
    non-finite number (JSON's NaN and Infinity)."""
    if not isinstance(record, dict):
        raise InstanceError(f"{ctx}: expected an object, got {type(record).__name__}")
    value = default if record.get(key) is None else record[key]
    if value is None:
        raise InstanceError(f"{ctx}: missing field {key!r}")
    try:
        return value if cast is None else _finite(cast(value))
    except (TypeError, ValueError, OverflowError) as exc:
        raise InstanceError(f"{ctx}: bad field {key!r}: {exc}") from exc


def _finite(value):
    """``value``, unless it is a non-finite float."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{value} is not a finite number")
    return value


def _records(doc, key: str) -> list:
    recs = _field(doc, key, "instance")
    if not isinstance(recs, list):
        raise InstanceError(f"instance: field {key!r} must be a list")
    return recs


def _integer(value) -> int:
    """``value`` as an int: an integer, an integral float or a string of an
    integer; a bool or a fractional number raises ValueError (``int`` would
    truncate 2.7 to 2)."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _ident(value) -> str:
    """``value`` as an id; an empty or blank one raises ValueError."""
    text = str(value)
    if not text.strip():
        raise ValueError("an id must not be empty")
    return text


# the casts of Generator's field annotations, which are strings here; an
# id is a non-empty string
_CASTS = {"str": str, "float": float, "int": _integer}


def load_instance(path: str | Path) -> SystemInstance:
    """Load and validate a JSON system instance."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"malformed instance file {path}: {exc}") from exc

    meta = _field(doc, "meta", "instance")
    gens = []
    warnings: list[str] = []
    for i, rec in enumerate(_records(doc, "generators")):
        g = Generator(**{f.name: _field(rec, f.name, f"generators[{i}]",
                                        _ident if f.name == "id" else _CASTS[f.type])
                         for f in fields(Generator)})
        warnings.extend(g.validate())
        gens.append(g)

    lines = []
    for i, rec in enumerate(_records(doc, "lines")):
        ctx = f"lines[{i}]"
        lines.append(Line(
            id=_field(rec, "id", ctx, _ident),
            # "from"/"to", or their long forms
            from_node=_field(rec, "from" if "from" in rec else "from_node", ctx, str),
            to_node=_field(rec, "to" if "to" in rec else "to_node", ctx, str),
            susceptance=_field(rec, "susceptance", ctx, float),
            capacity=_field(rec, "capacity", ctx, float),
        ))
    farms = []
    for i, rec in enumerate(_records(doc, "wind_farms")):
        ctx = f"wind_farms[{i}]"
        farms.append(WindFarm(id=_field(rec, "id", ctx, _ident), node=_field(rec, "node", ctx, str),
                              capacity=_field(rec, "capacity", ctx, float)))
        farms[-1].validate()
    load = {}
    for i, rec in enumerate(_records(doc, "load")):
        ctx = f"load[{i}]"
        key = (_field(rec, "node", ctx, str), _field(rec, "period", ctx, _integer))
        if key in load:
            raise InstanceError(f"{ctx}: duplicate load entry {key}")
        load[key] = _field(rec, "mw", ctx, float)
    inst = SystemInstance(
        name=_field(meta, "name", "meta", str, Path(path).stem),
        horizon=_field(meta, "horizon", "meta", _integer),
        ref_node=_field(meta, "ref_node", "meta", str),
        nodes=tuple(_field({"id": n}, "id", f"nodes[{i}]", _ident)
                    for i, n in enumerate(_records(doc, "nodes"))),
        lines=tuple(lines),
        generators=tuple(gens),
        wind_farms=tuple(farms),
        load=load,
        shed_cost=_field(doc, "shed_cost", "instance", float),
        warnings=tuple(warnings),
    )
    inst.validate()
    return inst


def load_scenarios(path: str | Path, instance: SystemInstance) -> ScenarioSet:
    """Load a long-format scenario CSV and validate it against ``instance``.

    Columns: scenario, farm, period, value_mw and an optional probability
    column (read from the first row of each scenario that has one).  Only an
    empty cell is a missing probability; if every one is missing, the
    scenarios are equiprobable, 1/|Omega|.  A number that is not finite
    raises InstanceError naming its line and column.
    """
    realizations: dict = {}
    probs: dict[str, float] = {}
    order: list[str] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise InstanceError(f"scenario file {path} is empty")
        required = {"scenario", "farm", "period", "value_mw"}
        if not required.issubset(set(reader.fieldnames)):
            raise InstanceError(
                f"scenario file {path}: header must contain {sorted(required)}"
            )
        has_prob = "probability" in reader.fieldnames
        for row in reader:
            where = f"scenario file {path}, line {reader.line_num}"
            if any(row[c] is None for c in required):    # a short row
                raise InstanceError(f"{where}: missing cells")
            sc, farm = row["scenario"].strip(), row["farm"].strip()
            for column, cell in (("scenario", sc), ("farm", farm)):
                if not cell:
                    raise InstanceError(f"{where}: empty {column} id")
            if sc not in probs:
                order.append(sc)
                probs[sc] = None
            if has_prob and row["probability"] not in (None, ""):
                p = _field(row, "probability", where, float)
                if probs[sc] is not None and probs[sc] != p:
                    raise InstanceError(f"scenario {sc}: conflicting probabilities")
                probs[sc] = p
            key = (sc, farm, _field(row, "period", where, _integer))
            if key in realizations:
                raise InstanceError(f"duplicate scenario row {key}")
            realizations[key] = _field(row, "value_mw", where, float)

    if not order:
        raise InstanceError(f"scenario file {path} contains no rows")

    given = [p for p in probs.values() if p is not None]
    if not given:
        prob_list = [1.0 / len(order)] * len(order)
    elif len(given) == len(order):
        prob_list = [probs[sc] for sc in order]
    else:
        raise InstanceError("probability column must cover all scenarios or none")

    farms_seen = {k[1] for k in realizations}
    expected = {w.id for w in instance.wind_farms}
    if farms_seen != expected:
        raise InstanceError(
            f"scenario farms {sorted(farms_seen)} do not match instance farms {sorted(expected)}"
        )

    scen = ScenarioSet(tuple(order), tuple(prob_list), realizations)
    scen.validate(instance)
    return scen
