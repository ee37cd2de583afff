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
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Any

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
from .pathgen import GeneratorSpec, generate
from .paths import (
    BVPath,
    PartitionSequence,
    SampledPath,
    concat_components,
    load_sampled_path,
    positive_orthant,
)

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


def _check_keys(doc: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ValueError(f"unknown keys {unknown} in {where}; allowed: {sorted(allowed)}")


def _parse_generator(doc: dict) -> GeneratorSpec:
    if not isinstance(doc, dict):
        raise ValueError("'generator' must be an object")
    fields = {
        "kind",
        "base_points",
        "horizon",
        "d",
        "seed",
        "drift",
        "scale",
        "expression",
        "slope",
        "value",
        "depth",
    }
    _check_keys(doc, fields, "generator spec")
    if "kind" not in doc or "base_points" not in doc:
        raise ValueError("generator spec needs 'kind' and 'base_points'")
    return GeneratorSpec(**doc)


def _parse_source(doc: Any) -> PathSource:
    if not isinstance(doc, dict):
        raise ValueError("'path' must be an object")
    _check_keys(doc, {"file", "generator", "positive"}, "path source")
    gen = _parse_generator(doc["generator"]) if "generator" in doc else None
    return PathSource(
        file=doc.get("file"), generator=gen, positive=bool(doc.get("positive", False))
    )


def _parse_component(doc: Any) -> ComponentSpec:
    if not isinstance(doc, dict):
        raise ValueError("each component must be an object")
    _check_keys(doc, {"kind", "component", "level", "expression"}, "component spec")
    if "kind" not in doc:
        raise ValueError("component spec needs a 'kind'")
    return ComponentSpec(
        kind=doc["kind"],
        component=int(doc.get("component", 0)),
        level=None if doc.get("level") is None else int(doc["level"]),
        expression=doc.get("expression"),
    )


def _parse_levels(doc: Any) -> tuple[int, ...] | None:
    if doc is None:
        return None
    if not isinstance(doc, list) or not doc:
        raise ValueError("'levels' must be a nonempty list of integers")
    levels = tuple(int(v) for v in doc)
    if any(b <= a for a, b in zip(levels, levels[1:])) or levels[0] < 1:
        raise ValueError("'levels' must be strictly increasing and start at 1 or above")
    return levels


def parse_config(doc: Any) -> ExperimentConfig:
    """Validate a decoded JSON document into an :class:`ExperimentConfig`."""
    if not isinstance(doc, dict):
        raise ValueError("the experiment config must be a JSON object")
    _check_keys(
        doc,
        {
            "path",
            "components",
            "functional",
            "outer",
            "integrands",
            "levels",
            "tolerance",
            "qv_gate_tol",
            "output",
        },
        "experiment config",
    )
    if "path" not in doc:
        raise ValueError("the experiment config needs a 'path' entry")
    components = tuple(_parse_component(c) for c in doc.get("components", []))
    integrands = doc.get("integrands", [])
    if not isinstance(integrands, list):
        raise ValueError("'integrands' must be a list of functional specs")
    return ExperimentConfig(
        source=_parse_source(doc["path"]),
        components=components,
        functional=doc.get("functional"),
        outer=doc.get("outer"),
        integrands=tuple(integrands),
        levels=_parse_levels(doc.get("levels")),
        tolerance=float(doc.get("tolerance", 1e-3)),
        qv_gate_tol=float(doc.get("qv_gate_tol", 5e-2)),
        output=doc.get("output"),
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
        x = generate(src.generator)
    if src.positive:
        x = SampledPath(x.times, x.values, x.interpolation, positive_orthant(x.d))
    return x


def default_num_levels(n_points: int) -> int:
    """Deepest dyadic thinning that still halves: floor(log2(#cells))."""
    return max(1, int(math.floor(math.log2(max(n_points - 1, 2)))))


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
        out = piece if out is None else concat_components(out, piece)
    return out


def _build_cylinder(doc: dict, d: int, m: int) -> Functional:
    _check_keys(
        doc, {"f", "grad", "hess", "dt", "da", "positive", "name"}, "cylinder spec"
    )
    if "f" not in doc:
        raise ValueError("cylinder spec needs an 'f' formula")
    variables = state_variables(d, m)

    def comp(text):
        return compile_expression(str(text), variables)

    grad = hess = dt = da = None
    if doc.get("grad") is not None:
        grad = [comp(g) for g in doc["grad"]]
        if len(grad) != d:
            raise ValueError(f"'grad' needs {d} formulas")
    if doc.get("hess") is not None:
        hess = [[comp(h) for h in row] for row in doc["hess"]]
        if len(hess) != d or any(len(r) != d for r in hess):
            raise ValueError(f"'hess' needs a {d}x{d} table of formulas")
    if doc.get("dt") is not None:
        dt = comp(doc["dt"])
    if doc.get("da") is not None:
        da = [comp(g) for g in doc["da"]]
        if len(da) != m:
            raise ValueError(f"'da' needs {m} formulas")
    domain = positive_orthant(d) if doc.get("positive") else None
    return _formula_cylinder(
        comp(doc["f"]),
        d=d,
        m=m,
        grad=grad,
        hess=hess,
        dt=dt,
        da=da,
        x_domain=domain,
        name=str(doc.get("name", doc["f"])),
    )


def build_functional(spec: Any, d: int, m: int) -> Functional:
    """Build one functional from its config form for a d-dim path, m components."""
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ValueError(
            "a functional spec is an object with exactly one of "
            "'coordinate', 'cylinder', 'product', 'compose'"
        )
    (key, body), = spec.items()
    if key == "coordinate":
        i = int(body)
        if not 0 <= i < d:
            raise ValueError(f"coordinate index {i} out of range for dimension {d}")
        return coordinate(i, d=d, m=m)
    if key == "cylinder":
        if not isinstance(body, dict):
            raise ValueError("'cylinder' must be an object")
        return _build_cylinder(body, d, m)
    if key == "product":
        if not isinstance(body, list) or len(body) != 2:
            raise ValueError("'product' takes a list of exactly two functional specs")
        return product(build_functional(body[0], d, m), build_functional(body[1], d, m))
    if key == "compose":
        if not isinstance(body, dict):
            raise ValueError("'compose' must be an object")
        _check_keys(body, {"outer", "inners"}, "compose spec")
        inners_doc = body.get("inners")
        if not isinstance(inners_doc, list) or not inners_doc:
            raise ValueError("'compose' needs a nonempty 'inners' list")
        inners = [build_functional(s, d, m) for s in inners_doc]
        outer = build_functional(body.get("outer"), len(inners), 0)
        return compose(outer, inners)
    raise ValueError(f"unknown functional kind {key!r}")


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
