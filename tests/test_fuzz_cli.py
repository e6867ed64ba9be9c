"""Fuzz the CLI with mutated input files.

Valid module, descriptor and complex files are mutated (a value replaced,
a key or list entry deleted, an entry inserted) and each verb is run in
process.  The exit-code contract must hold for any input: 0, 2, 3 or 4,
no escaping exception, and SystemExit(2) only from argparse, that is only
when an option value is not an integer.  For ``verify`` and ``trim`` the
mutated complex file is the whole input, so a failure there is the
input's and never an internal one: they exit 0, 2 or 3.
"""

import contextlib
import io as stdio
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import ref_densify
from permres.cli import main
from permres.complexes import direct_sum_complexes, single_term_complex, tag_complex
from permres.groups import Group, Subgroup
from permres.io import complex_to_obj, descriptor_to_obj, module_to_obj
from permres.modules import free_module, identity_map, trivial_module
from permres.permutation import PermutationDescriptor
from permres.random_modules import random_module
from permres.resolution import good_resolution

V4 = Group(2, 2)

# The first and last module files hold index vectors (kC_2 and kV_4), the
# other two dense generators.  The complex files hold index vectors, but
# for the last: the one before it written densely, as files were before
# index vectors.
MODULES = [
    module_to_obj(random_module(2, 1, 2, 7)),
    module_to_obj(random_module(3, 1, 2, 5)),
    module_to_obj(random_module(2, 2, 2, 3)),
    module_to_obj(free_module(V4, 1)),
]
DESCRIPTORS = [
    descriptor_to_obj(PermutationDescriptor(V4, (Subgroup.trivial(V4), Subgroup.full(V4)))),
    descriptor_to_obj(
        PermutationDescriptor(V4, (Subgroup.coordinate_hyperplane(V4, 1),))
    ),
]
C2 = Group(2, 1)
KE = free_module(C2, 1)
COMPLEXES = [
    complex_to_obj(good_resolution(trivial_module(C2, 1), 0).complex, m=0),
    complex_to_obj(good_resolution(random_module(2, 1, 2, 7), 1).complex, m=1),
    # a resolution of k (+) kE, so that trim --free-rank 1 reaches the cancellation
    complex_to_obj(
        direct_sum_complexes(
            good_resolution(trivial_module(C2, 1), 1).complex,
            tag_complex(single_term_complex(KE, identity_map(KE))),
        ),
        m=1,
    ),
]
COMPLEXES.append(ref_densify(COMPLEXES[-1]))

EXIT_CODES = {0, 2, 3, 4}
# an invalid complex is the input's fault, not an internal one
READ_EXIT_CODES = {"verify": {0, 2, 3}, "trim": {0, 2, 3}}

json_leaf = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 9),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
)
json_value = st.recursive(
    json_leaf,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# an option value: usually an integer, sometimes text argparse must refuse
option = st.one_of(st.integers(-2, 3).map(str), st.sampled_from(["x", "1.5", ""]))


def _paths(obj, prefix=()):
    """Every (path, container) position in a JSON value, the root included."""
    out = [prefix]
    if isinstance(obj, dict):
        for k, v in obj.items():
            out += _paths(v, prefix + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            out += _paths(v, prefix + (i,))
    return out


def _mutate(data, obj):
    """Apply one to three random edits to a deep copy of obj."""
    obj = json.loads(json.dumps(obj))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(_paths(obj)))
        if not path:
            if data.draw(st.booleans()):
                return data.draw(json_value)
            continue
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        action = data.draw(st.sampled_from(["replace", "nudge", "delete", "insert"]))
        if action == "replace":
            parent[key] = data.draw(json_value)
        elif action == "nudge" and type(parent[key]) is int:
            parent[key] += data.draw(st.sampled_from([-1, 1, 2, 1000]))
        elif action == "delete":
            del parent[key]
        elif action == "insert" and isinstance(parent, list):
            parent.insert(key, data.draw(json_value))
    return obj


def _run(argv):
    """main(argv) with its output captured; returns the exit code."""
    sink = stdio.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return main(argv)


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_files_keep_the_exit_code_contract(data):
    verb = data.draw(st.sampled_from(["info", "verify", "tensor", "trim", "build"]))
    with tempfile.TemporaryDirectory() as tmp:
        def write(name, obj):
            path = os.path.join(tmp, name)
            with open(path, "w") as fh:
                json.dump(obj, fh)
            return path

        out = os.path.join(tmp, "out.json")
        opt = None
        if verb == "info":
            pool = data.draw(st.sampled_from([MODULES, DESCRIPTORS, COMPLEXES]))
            argv = ["info", write("in.json", _mutate(data, data.draw(st.sampled_from(pool))))]
        elif verb == "verify":
            argv = ["verify", write("in.json", _mutate(data, data.draw(st.sampled_from(COMPLEXES))))]
        elif verb == "tensor":
            first = write("a.json", _mutate(data, data.draw(st.sampled_from(DESCRIPTORS))))
            second = write("b.json", data.draw(st.sampled_from(DESCRIPTORS)))
            argv = ["tensor", first, second, "--out", out]
        elif verb == "trim":
            opt = data.draw(option)
            path = write("in.json", _mutate(data, data.draw(st.sampled_from(COMPLEXES))))
            argv = ["trim", path, "--free-rank", opt, "--out", out]
        else:
            opt = data.draw(option)
            path = write("in.json", _mutate(data, data.draw(st.sampled_from(MODULES))))
            argv = ["--cap-dim", "64", "build", path, "--m", opt, "--out", out]
        try:
            code = _run(argv)
        except SystemExit as exc:
            # argparse refuses a non-integer option value, and nothing else exits
            assert exc.code == 2 and opt is not None and not opt.lstrip("-").isdigit(), argv
            return
        assert code in READ_EXIT_CODES.get(verb, EXIT_CODES), (argv, code)
