"""Property tests of the JSON boundary: helper and system files.

Any JSON value in any field must either load or raise ValueError, which the
CLI prints as `error: ...`. Numbers are bounded to |x| <= 4096, which already
crosses the bounds the PUF constructors put on what a file can make them
allocate at load (1024 arbiter stages, 64 XOR chains), so larger numbers
would exercise nothing more. One field changes per example, which keeps
every PUF a fuzzed file can describe small.
"""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risecure.cli import _load_system
from risecure.extractor import HelperData, enroll, get_code
from risecure.puf import SramPuf, new_puf, puf_to_config

_SCALARS = (st.none() | st.booleans() | st.integers(-4096, 4096)
            | st.floats(-4096, 4096) | st.sampled_from([math.inf, -math.inf, math.nan])
            | st.text("0123456789abcdef-rsh x\u00e9", max_size=6))
_KEYS = st.text("abcdeknps_", max_size=6)
_JSON = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(_KEYS, inner, max_size=3), max_leaves=6)
_DELETE = object()

_SYSTEMS = [
    {**puf_to_config(new_puf(kind, 9, params)), "code": code, "buffer_capacity": 16,
     "hash": "sha3-256"}
    for kind, params, code in (
        ("sram", {"num_blocks": 4, "block_bits": 127, "p": 0.05}, "bch"),
        ("arbiter", {"stages": 64, "sigma": 0.1}, "rs"),
        ("xor", {"stages": 64, "chains": 4, "sigma": 0.1}, "bch"),
    )
]
_HELPER = enroll(SramPuf(9, p=0.0), 0, get_code("bch"), rng_seed=0)[0].to_json()

_FUZZ = settings(derandomize=True, database=None, max_examples=150, deadline=None)


@st.composite
def _mutated(draw, bases):
    """A valid document with one field, top-level or in params, replaced or deleted."""
    doc = json.loads(json.dumps(draw(st.sampled_from(bases))))
    paths = [(key,) for key in doc] + [("params", key) for key in doc.get("params", {})]
    *parents, key = draw(st.sampled_from(paths + [("extra",)]))
    target = doc
    for parent in parents:
        target = target[parent]
    value = draw(_JSON | st.just(_DELETE))
    if value is _DELETE:
        target.pop(key, None)
    else:
        target[key] = value
    return doc


def _loads_or_value_error(load, doc):
    try:
        load(doc)
    except ValueError:
        pass


@_FUZZ
@given(st.one_of(_mutated([_HELPER]), _JSON))
def test_helper_json_raises_only_value_error(doc):
    _loads_or_value_error(HelperData.from_json, json.loads(json.dumps(doc)))


@_FUZZ
@given(st.one_of(_mutated(_SYSTEMS), _JSON))
def test_system_json_raises_only_value_error(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "system.json"
        path.write_text(json.dumps(doc))
        _loads_or_value_error(_load_system, path)


# A system file's schema version is an integer: true and 1.0 used to pass as
# version 1 (test_extractor checks the helper file's version and n).
@pytest.mark.parametrize("value", [True, 1.0, "1"], ids=["true", "1.0", "str"])
def test_system_version_must_be_an_integer(value):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "system.json"
        path.write_text(json.dumps(dict(_SYSTEMS[0], version=value)))
        with pytest.raises(ValueError, match="version"):
            _load_system(path)
