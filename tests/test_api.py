"""The public surface: ``scce.__all__`` and the settings of the config types.

Each module's ``__all__`` declares its public names and the package
republishes them, so a name added, dropped or moved shows here; the field
lists are literal, so a setting added or removed shows in the diff too.
"""

import dataclasses
import inspect

import pytest

import scce
from scce import errors, estimators, inference, panel, sieve, simulate

MODULES = (errors, estimators, inference, panel, sieve, simulate)


def test_all_is_the_union_of_the_modules_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))
    assert sorted(scce.__all__) == sorted(names)
    assert len(scce.__all__) == 62


def test_the_package_binds_no_other_public_name():
    bound = {name for name, value in vars(scce).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert bound == set(scce.__all__)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_name_is_the_object_its_module_defines(module):
    for name in module.__all__:
        value = getattr(module, name)
        assert getattr(value, "__module__", None) == module.__name__, name
        assert getattr(scce, name) is value, name


@pytest.mark.parametrize("config, fields", [
    (scce.EstimatorConfig, ["method", "family", "knot_c", "knot_rate"]),
    (scce.BootstrapConfig, ["method", "family", "knot_c", "knot_rate",
                            "n_draws", "level", "seed", "max_workers"]),
    (scce.DgpConfig, ["dgp", "n", "t", "beta", "factor_mode", "error_mode", "seed"]),
    (scce.ErrorMode, ["pi", "l_band"]),
    (scce.BasisFamily, ["kind", "degree"]),
], ids=lambda x: x.__name__ if isinstance(x, type) else "")
def test_config_fields(config, fields):
    assert [f.name for f in dataclasses.fields(config)] == fields
