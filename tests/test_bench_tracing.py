"""The benchmark's tracer wraps package functions by name and reads some of
their arguments by position; a rename or a reordered signature would break
every traced benchmark run, so both are pinned here."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(tracing):
    for _, modname, attr in tracing.TRACED:
        assert callable(getattr(importlib.import_module(modname), attr, None)), (modname, attr)
    for _, modname, cls_name, attr in tracing.METHODS:
        cls = getattr(importlib.import_module(modname), cls_name)
        assert attr in cls.__dict__, (modname, cls_name, attr)


@pytest.mark.parametrize(
    "modname, attr, first, names",
    [
        # tracing._grid_batch reads these four by position
        ("gouruin.estimate", "_gaussian_grid_batch", 1, ["z_list", "horizon", "step", "n"]),
        # tracing._hash_uniforms and tracing._piecewise read one each
        ("gouruin.estimate", "_hash_uniforms", 3, ["flat_cells"]),
        ("gouruin.regions", "drift_lhs_piecewise", 0, ["t"]),
    ],
)
def test_hook_arguments_keep_their_positions(modname, attr, first, names):
    fn = getattr(importlib.import_module(modname), attr)
    params = list(inspect.signature(fn).parameters)
    assert params[first:first + len(names)] == names
