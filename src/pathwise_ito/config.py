"""Experiment configuration files.

One JSON document describes one run: where the driving path comes from,
which bounded-variation components ride along, the functionals involved,
and the numerical settings.  Everything is validated up front, so a typo
in a key or an expression fails before any computation starts.

Top-level schema::

    {
      "path": {"file": "x.csv"}                  # or a generator:
      "path": {"generator": {"kind": "brownian", "base_points": 1024,
                             "horizon": 1.0, "d": 1, "seed": 42},
               "positive": true},                # open-orthant domain
      "components": [                            # BV components, in order
        {"kind": "time-average", "component": 0},
        {"kind": "running-max",  "component": 0},
        {"kind": "qv", "component": 0, "level": 8},
        {"kind": "expression", "expression": "t**2"}
      ],
      "functional": {...},                       # integrate / ito-check
      "outer": {...},                            # assoc-check: the eta
      "integrands": [{...}, ...],                # assoc-check: the xi vector
      "levels": [6, 8, 10],                      # default: every level
      "tolerance": 1e-3,
      "qv_gate_tol": 0.05,
      "output": "results.csv"
    }

Functional vocabulary (exactly one key per object)::

    {"coordinate": 0}
    {"cylinder": {"f": "x1**2", "grad": ["2*x1"], "hess": [["2"]],
                  "dt": "0", "da": ["0"], "positive": true, "name": "sq"}}
    {"product": [SPEC, SPEC]}
    {"compose": {"outer": SPEC, "inners": [SPEC, ...]}}

Cylinder formulas use the variables ``t, x1..xd, a1..am``.  Partial
derivatives are taken literally as supplied; when ``grad``/``hess``/``dt``
are omitted the functional falls back to finite differences instead of
differentiating the formula for you.

Each key takes one JSON type (the ``_FIELDS`` table).  ``base_points``,
``d``, ``seed``, ``depth``, ``component``, ``level``, ``coordinate`` and the
entries of ``levels`` are integers (``2.0`` and ``true`` are not);
``horizon``, ``drift``, ``scale``, ``value``, ``tolerance`` and
``qv_gate_tol`` are finite numbers; ``positive`` is a boolean; formulas
(``f``, ``dt``, ``expression``, ``slope`` and the entries of ``grad``,
``hess`` and ``da``) are strings (``2`` is not), as are ``kind``, ``file``,
``name`` and ``output``.  A ``null`` string, formula, list or object counts
as an absent key; an integer, number or boolean takes no ``null``.
"""
from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from .expressions import compile_expression, state_variables
from .functionals import (
    Functional,
    _formula_cylinder,
    compose,
    coordinate,
    product,
    quadratic_variation_path,
    running_max_path,
    time_average_path,
)
from .paths import (
    BVPath,
    PartitionSequence,
    SampledPath,
    concat_components,
    default_num_levels,
    load_sampled_path,
    positive_orthant,
)

if TYPE_CHECKING:
    from .pathgen import GeneratorSpec

_COMPONENT_KINDS = ("time-average", "running-max", "qv", "expression")


@dataclass(frozen=True)
class PathSource:
    """Where the driving path comes from: a CSV file or a generator."""

    file: str | None = None
    generator: GeneratorSpec | None = None
    positive: bool = False

    def __post_init__(self) -> None:
        if (self.file is None) == (self.generator is None):
            raise ValueError("path source needs exactly one of 'file' or 'generator'")


@dataclass(frozen=True)
class ComponentSpec:
    """One bounded-variation component derived from the path or from time."""

    kind: str
    component: int = 0
    level: int | None = None
    expression: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in _COMPONENT_KINDS:
            raise ValueError(
                f"unknown component kind {self.kind!r}; pick one of {_COMPONENT_KINDS}"
            )
        if self.kind == "expression" and not self.expression:
            raise ValueError("expression components need an 'expression' formula in t")
        if self.kind != "expression" and self.expression is not None:
            raise ValueError(f"{self.kind} components take no expression")
        if self.level is not None and self.kind != "qv":
            raise ValueError("only qv components take a 'level'")
        if self.component < 0:
            raise ValueError("component index must be nonnegative")


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment file; functional specs stay as raw dictionaries."""

    source: PathSource
    components: tuple[ComponentSpec, ...] = ()
    functional: dict | None = None
    outer: dict | None = None
    integrands: tuple[dict, ...] = ()
    levels: tuple[int, ...] | None = None
    tolerance: float = 1e-3
    qv_gate_tol: float = 5e-2
    output: str | None = None


# Each JSON type's description in an error, and its test.  A number is an
# int or a float in float range (not NaN or infinite), stored as a float.
_TYPES = {
    "integer": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "number": ("a finite number", lambda v: isinstance(v, (int, float))
               and not isinstance(v, bool) and abs(v) <= sys.float_info.max),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "formula": ("a formula string", lambda v: isinstance(v, str)),
    "string": ("a string", lambda v: isinstance(v, str)),
    "list": ("a list", lambda v: isinstance(v, list)),
    "object": ("an object", lambda v: isinstance(v, dict)),
}
# A null of these types counts as an absent key; the others take no null.
_NULLABLE = ("formula", "string", "list", "object")
# The JSON type of every key each kind of object takes, and the keys it needs.
_FIELDS = {
    "config": {
        "path": "object", "components": "list", "functional": "object", "outer": "object",
        "integrands": "list", "levels": "list", "tolerance": "number",
        "qv_gate_tol": "number", "output": "string",
    },
    "path": {"file": "string", "generator": "object", "positive": "bool"},
    "generator": {
        "kind": "string", "base_points": "integer", "horizon": "number", "d": "integer",
        "seed": "integer", "drift": "number", "scale": "number", "expression": "formula",
        "slope": "formula", "value": "number", "depth": "integer",
    },
    "component": {
        "kind": "string", "component": "integer", "level": "integer", "expression": "formula",
    },
    "functional": {
        "coordinate": "integer", "cylinder": "object", "product": "list", "compose": "object",
    },
    "cylinder": {
        "f": "formula", "grad": "list", "hess": "list", "dt": "formula", "da": "list",
        "positive": "bool", "name": "string",
    },
    "compose": {"outer": "object", "inners": "list"},
}
_REQUIRED = {
    "config": ("path",), "generator": ("kind", "base_points"), "component": ("kind",),
    "cylinder": ("f",), "compose": ("outer", "inners"),
}


def _value(value: Any, type_: str, what: str) -> Any:
    description, test = _TYPES[type_]
    if not test(value):
        raise ValueError(f"{what} must be {description}, got {value!r}")
    return float(value) if type_ == "number" else value


def _fields(doc: Any, kind: str) -> dict:
    """``doc`` checked against ``_FIELDS[kind]``, without its null keys."""
    _value(doc, "object", kind)
    table = _FIELDS[kind]
    unknown = sorted(set(doc) - set(table))
    if unknown:
        raise ValueError(f"unknown keys {unknown} in {kind}; allowed: {sorted(table)}")
    out = {
        key: _value(value, table[key], f"{kind} '{key}'")
        for key, value in doc.items()
        if value is not None or table[key] not in _NULLABLE
    }
    for key in _REQUIRED.get(kind, ()):
        if key not in out:
            raise ValueError(f"{kind} needs a '{key}'")
    return out


def _entries(values: list, type_: str, what: str) -> list:
    return [_value(v, type_, f"each entry of {what}") for v in values]


def parse_config(doc: Any) -> ExperimentConfig:
    """Validate a decoded JSON document into an :class:`ExperimentConfig`."""
    doc = _fields(doc, "config")
    src = _fields(doc["path"], "path")
    if "generator" in src:
        from .pathgen import GeneratorSpec

        src["generator"] = GeneratorSpec(**_fields(src["generator"], "generator"))
    levels = doc.get("levels")
    if levels is not None:
        levels = tuple(_entries(levels, "integer", "config 'levels'"))
        if not levels or levels[0] < 1 or any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError("'levels' must be a nonempty list rising strictly from 1 or above")
    components = doc.get("components", [])
    plain = ("functional", "outer", "tolerance", "qv_gate_tol", "output")
    return ExperimentConfig(
        source=PathSource(**src),
        components=tuple(ComponentSpec(**_fields(c, "component")) for c in components),
        integrands=tuple(_entries(doc.get("integrands", []), "object", "config 'integrands'")),
        levels=levels,
        **{key: doc[key] for key in plain if key in doc},
    )


def load_config(src) -> ExperimentConfig:
    """Read and validate an experiment file (path, file object, or dict)."""
    if isinstance(src, dict):
        return parse_config(src)
    if hasattr(src, "read"):
        return parse_config(json.load(src))
    with open(os.fspath(src), "r", encoding="utf-8") as fh:
        return parse_config(json.load(fh))


# ---------------------------------------------------------------------------
# Turning a config into live objects


def resolve_path(config: ExperimentConfig) -> SampledPath:
    """Load or generate the driving path described by the config."""
    src = config.source
    if src.file is not None:
        x = load_sampled_path(src.file)
    else:
        from .pathgen import generate

        x = generate(src.generator)
    if src.positive:
        x = SampledPath(x.times, x.values, x.interpolation, positive_orthant(x.d))
    return x


def partition_for(config: ExperimentConfig, x: SampledPath) -> PartitionSequence:
    deepest = config.levels[-1] if config.levels else default_num_levels(x.n_points)
    return PartitionSequence(x.times, num_levels=deepest)


def build_components(
    config: ExperimentConfig, x: SampledPath, partition: PartitionSequence
) -> BVPath | None:
    """Assemble the configured BV components, in order, on the path's grid."""
    out: BVPath | None = None
    for spec in config.components:
        if spec.component >= x.d:
            raise ValueError(
                f"component index {spec.component} out of range for a {x.d}-dim path"
            )
        if spec.kind == "time-average":
            piece = time_average_path(x, spec.component)
        elif spec.kind == "running-max":
            piece = running_max_path(x, spec.component)
        elif spec.kind == "qv":
            level = spec.level if spec.level is not None else partition.num_levels
            piece = quadratic_variation_path(x, partition, level, spec.component)
        else:
            fn = compile_expression(spec.expression, ("t",))
            col = np.asarray(fn(x.times), dtype=np.float64).reshape(-1, 1)
            piece = BVPath(x.times, col)
        out = concat_components(out, piece)
    return out


def _build_cylinder(doc: dict, d: int, m: int) -> Functional:
    doc = _fields(doc, "cylinder")
    variables = state_variables(d, m)

    def formulas(key: str, values: list, n: int) -> list:
        if len(values) != n:
            raise ValueError(f"'{key}' needs {n} formulas")
        values = _entries(values, "formula", f"cylinder '{key}'")
        return [compile_expression(v, variables) for v in values]

    hess = None
    if "hess" in doc:
        rows = _entries(doc["hess"], "list", "cylinder 'hess'")
        if len(rows) != d or any(len(row) != d for row in rows):
            raise ValueError(f"'hess' needs a {d}x{d} table of formulas")
        hess = [formulas("hess", row, d) for row in rows]
    return _formula_cylinder(
        compile_expression(doc["f"], variables),
        d=d,
        m=m,
        grad=formulas("grad", doc["grad"], d) if "grad" in doc else None,
        hess=hess,
        dt=compile_expression(doc["dt"], variables) if "dt" in doc else None,
        da=formulas("da", doc["da"], m) if "da" in doc else None,
        x_domain=positive_orthant(d) if doc.get("positive", False) else None,
        name=doc.get("name", doc["f"]),
    )


def build_functional(spec: Any, d: int, m: int) -> Functional:
    """Build one functional from its config form for a d-dim path, m components."""
    fields = _fields(spec, "functional")
    if len(fields) != 1:
        kinds = ", ".join(f"'{kind}'" for kind in _FIELDS["functional"])
        raise ValueError(f"a functional spec is an object with exactly one of {kinds}")
    (key, body), = fields.items()
    if key == "coordinate":
        if not 0 <= body < d:
            raise ValueError(f"coordinate index {body} out of range for dimension {d}")
        return coordinate(body, d=d, m=m)
    if key == "cylinder":
        return _build_cylinder(body, d, m)
    if key == "product":
        if len(body) != 2:
            raise ValueError("'product' takes a list of exactly two functional specs")
        return product(build_functional(body[0], d, m), build_functional(body[1], d, m))
    body = _fields(body, "compose")
    if not body["inners"]:
        raise ValueError("'compose' needs a nonempty 'inners' list")
    inners = [build_functional(s, d, m) for s in body["inners"]]
    return compose(build_functional(body["outer"], len(inners), 0), inners)


__all__ = [
    "ComponentSpec",
    "ExperimentConfig",
    "PathSource",
    "build_components",
    "build_functional",
    "default_num_levels",
    "load_config",
    "parse_config",
    "partition_for",
    "resolve_path",
]
