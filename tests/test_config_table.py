"""The config's table of JSON types: it matches the spec dataclasses, and no
mutation of a golden config gets past it as anything but a clean exit."""
import argparse
import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from pathwise_ito.cli import _build_parser, cli_main
from pathwise_ito.config import _FIELDS, ComponentSpec
from pathwise_ito.pathgen import GeneratorSpec

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = {
    name: json.loads((GOLDEN / name).read_text())
    for name in ("cylinder_d1.json", "cylinder_d3.json")
}

# The kind of object that sits under a key of an object of another kind.
CHILDREN = {
    ("config", "path"): "path",
    ("config", "components"): "component",
    ("config", "functional"): "functional",
    ("path", "generator"): "generator",
    ("functional", "cylinder"): "cylinder",
}

# Sample values of each JSON shape.  Integers stay small: a swapped value
# must never ask for a big grid or many levels.
SHAPES = {
    "integer": st.integers(-2, 16),
    "float": st.sampled_from([-1.5, 0.0, 0.5, 2.0, 7.25]),
    "nonfinite": st.sampled_from([math.nan, math.inf, -math.inf]),
    "bool": st.booleans(),
    "string": st.sampled_from(["", "x1", "2", "1.0", "true"]),
    "list": st.sampled_from([[], [1], ["x1"], [["2"]]]),
    "object": st.sampled_from([{}, {"x1": 1}]),
    "null": st.none(),
}
# The shapes each table type takes; a null string, formula, list or object
# is an absent key, so it is no wrong type either.
TAKES = {
    "integer": {"integer"},
    "number": {"integer", "float"},
    "bool": {"bool"},
    "formula": {"string", "null"},
    "string": {"string", "null"},
    "list": {"list", "null"},
    "object": {"object", "null"},
}


def test_table_entries_match_the_spec_dataclasses():
    assert set(_FIELDS["generator"]) == {f.name for f in dataclasses.fields(GeneratorSpec)}
    assert set(_FIELDS["component"]) == {f.name for f in dataclasses.fields(ComponentSpec)}
    # gen's options are GeneratorSpec's fields, and the spec alone holds their defaults
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = [a for a in sub.choices["gen"]._actions if a.dest not in ("help", "output")]
    assert {a.dest for a in options} == {f.name for f in dataclasses.fields(GeneratorSpec)}
    assert [a.dest for a in options if a.default is not argparse.SUPPRESS] == []


def _objects(doc, kind, prefix=()):
    """(keys, kind) of doc and of every object under it."""
    yield prefix, kind
    for key, value in doc.items():
        child = CHILDREN.get((kind, key))
        if child is not None:
            items = enumerate(value) if isinstance(value, list) else [(None, value)]
            for i, item in items:
                yield from _objects(item, child, prefix + ((key,) if i is None else (key, i)))


def _at(doc, keys):
    for key in keys:
        doc = doc[key]
    return doc


@st.composite
def _mutations(draw):
    """Swap any key of a reachable object to a value of a type it does not
    take, drop a key, or add an unknown one."""
    doc = copy.deepcopy(CONFIGS[draw(st.sampled_from(sorted(CONFIGS)))])
    keys, kind = draw(st.sampled_from(list(_objects(doc, "config"))))
    target = _at(doc, keys)
    how = draw(st.sampled_from(["swap", "drop", "add"]))
    if how == "swap":
        key = draw(st.sampled_from(sorted(_FIELDS[kind])))
        shape = draw(st.sampled_from(sorted(set(SHAPES) - TAKES[_FIELDS[kind][key]])))
        target[key] = draw(SHAPES[shape])
    elif how == "drop":
        key = draw(st.sampled_from(sorted(target)))
        del target[key]
    else:
        key = "unknown_key"
        target[key] = draw(SHAPES["integer"])
    return how, key, doc


@settings(max_examples=500, deadline=None)
@given(_mutations())
def test_a_mutated_config_exits_cleanly(mutation):
    how, key, doc = mutation
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as workdir:
        cfg = os.path.join(workdir, "exp.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stderr(err):
            code = cli_main(["integrate", "-c", cfg, "-o", os.path.join(workdir, "out.csv")])
    err = err.getvalue()
    assert code in (0, 1, 2), err
    if code != 0:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    if how != "drop":
        assert code == 2 and f"'{key}'" in err, (doc, err)
