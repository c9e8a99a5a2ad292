"""The lazy package namespace and the shared names of ``relbc.base``."""

import importlib

import pytest

import relbc
from relbc import analysis, base, formulas, games, protocol, sim

# where each public name of the package lives
HOMES = {
    "Field": "relbc.field",
    "Geometry": "relbc.sim",
    "KIND_FQ": "relbc.base",
    "KIND_SINGLE": "relbc.base",
    "KIND_TREE": "relbc.base",
    "LossModel": "relbc.sim",
    "ResourceGuardError": "relbc.base",
    "Transcript": "relbc.protocol",
    "Verdict": "relbc.protocol",
    "derived_rng": "relbc.field",
    "is_prime": "relbc.field",
    "run_protocol": "relbc.sim",
    "verify_tree": "relbc.protocol",
}


def test_every_public_name_is_its_modules_object():
    assert sorted(relbc.__all__) == sorted(HOMES)
    for name, home in HOMES.items():
        assert getattr(relbc, name) is getattr(importlib.import_module(home), name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from relbc import *", namespace)
    for name in relbc.__all__:
        assert namespace[name] is getattr(relbc, name), name


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        relbc.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from relbc import no_such_name", {})


@pytest.mark.parametrize("module, names", [
    (sim, ("ResourceGuardError", "_real", "capped_product", "resolve", "KIND_FQ", "KIND_TREE")),
    (protocol, ("KIND_SINGLE", "KIND_FQ", "KIND_TREE", "KINDS", "resolve")),
    (formulas, ("ResourceGuardError", "_real", "resolve", "KIND_TREE")),
    (games, ("ResourceGuardError", "capped_product")),
    (analysis, ("ResourceGuardError",)),
], ids=lambda v: getattr(v, "__name__", None))
def test_shared_names_are_one_object_in_every_layer(module, names):
    for name in names:
        assert getattr(module, name) is getattr(base, name), (module.__name__, name)


def test_the_walk_budget_is_one_object_in_analysis_and_sim():
    for name in ("check_budget", "WALK_BUDGET", "WALK_ROUND_TRIALS", "WALK_STATE_BYTES"):
        assert getattr(analysis, name) is getattr(sim, name), name
