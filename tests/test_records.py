"""The ``Record`` base: immutable fields, value or identity equality, call binding, and no code built at import."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pairgraph.structure import ComponentCountBreakdown, ComponentDecomposition


def test_import_builds_no_code():
    # every compile while the CLI imports must be of a source file; a record class that exec'd
    # generated methods (as dataclasses do) would compile strings named "<string>"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys, numpy\n"
        "compiled = []\n"
        "sys.addaudithook(lambda event, args: compiled.append(str(args[1])) if event == 'compile' else None)\n"
        "import pairgraph.cli\n"
        "assert pairgraph.cli.__file__.startswith(sys.argv[1]), pairgraph.cli.__file__\n"
        "generated = [name for name in compiled if not name.endswith('.py')]\n"
        "assert not generated, f'{len(generated)} compiles of generated code: {sorted(set(generated))}'\n"
    )
    subprocess.run([sys.executable, "-c", code, src], env=env, check=True)


def test_records_are_immutable_values_bound_like_calls():
    value = ComponentCountBreakdown(2, 8, 4)
    shared = ComponentDecomposition(count=1, component_of=np.zeros(3, dtype=np.intp))
    for record, name in ((value, "outside_term"), (shared, "count")):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(record, name, 0)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(record, name)
        with pytest.raises(AttributeError, match="immutable"):
            record.unknown = 0
    assert value.outside_term == 8 and shared.count == 1

    # a value record compares and hashes by its fields, however they were passed
    by_keyword = ComponentCountBreakdown(covered_term=4, outside_term=8, subgroup_index_term=2)
    assert by_keyword == value and hash(by_keyword) == hash(value)
    assert list(vars(by_keyword)) == ["subgroup_index_term", "outside_term", "covered_term"]
    assert ComponentCountBreakdown(2, 8, 5) != value
    assert value != (2, 8, 4)
    # an eq=False record compares by identity, whatever its fields hold
    twin = ComponentDecomposition(shared.count, shared.component_of)
    assert shared == shared and twin != shared
    assert hash(shared) == object.__hash__(shared)

    for args, kwargs in [
        ((2, 8), {}),  # a field missing
        ((2, 8, 4), {"extra": 1}),  # an unknown field
        ((2, 8, 4), {"covered_term": 4}),  # a field given twice
        ((2, 8, 4, 1), {}),  # one value too many
    ]:
        with pytest.raises(TypeError, match="ComponentCountBreakdown"):
            ComponentCountBreakdown(*args, **kwargs)

    assert repr(value) == "ComponentCountBreakdown(subgroup_index_term=2, outside_term=8, covered_term=4)"
