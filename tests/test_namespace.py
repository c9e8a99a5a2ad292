"""The lazy package namespace and the shared names of ``relbc.base``."""

import importlib
import json
from fractions import Fraction

import pytest

import relbc
from relbc import adversary, analysis, base, formulas, games, protocol, sim, tree
from relbc.field import Field

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
    (sim, ("ResourceGuardError", "Request", "capped_product", "KIND_FQ", "KIND_TREE")),
    (protocol, ("KIND_SINGLE", "KIND_FQ", "KIND_TREE", "KINDS")),
    (formulas, ("ResourceGuardError", "_real", "check_int", "KIND_TREE")),
    (games, ("ResourceGuardError", "capped_product")),
    (analysis, ("ResourceGuardError",)),
    (tree, ("MAX_STATIONS", "check_tree_stations")),
], ids=lambda v: getattr(v, "__name__", None))
def test_shared_names_are_one_object_in_every_layer(module, names):
    for name in names:
        assert getattr(module, name) is getattr(base, name), (module.__name__, name)


def test_the_walk_budget_is_one_object_in_analysis_and_sim():
    for name in ("check_budget", "WALK_BUDGET", "WALK_ROUND_TRIALS", "WALK_STATE_BYTES"):
        assert getattr(analysis, name) is getattr(sim, name), name


def test_a_request_holds_the_protocol_it_runs():
    # the canonical layout: single is the chain at k = 1, any chain
    # runs on two stations, a tree as asked
    assert (base.Request(kind="single", k=7, n_stations=5).k, base.Request(kind="single").n_stations) == (1, 2)
    assert base.Request(kind="fq", k=1).kind == "single"
    assert (base.Request(k=4, n_stations=5).kind, base.Request(k=4, n_stations=5).n_stations) == ("tree", 5)
    # p stays as given, so an exact Fraction stays exact
    assert base.Request(p=Fraction(1, 3)).p == Fraction(1, 3)
    with pytest.raises(AttributeError, match="frozen"):
        base.Request().k = 2


def test_a_request_lists_its_type_faults_alone_then_every_range_fault():
    # a type fault hides the range faults; each field is named as the
    # command's flag, the lag as prune_lag
    with pytest.raises(ValueError, match=r"^k: expected an integer, got 2\.0; engine: expected a string, got 1$"):
        base.Request(k=2.0, trials=0, engine=1)
    with pytest.raises(ValueError) as exc:
        base.Request(kind="ring", k=0, q=4, p=-0.5, m=0, n_stations=2, prune_lag=0, seed=-1, trials=0,
                     engine="exact")
    assert [fault.split(":")[0] for fault in str(exc.value).split("; ")] == [
        "protocol", "k", "q", "p", "m", "prune_lag", "seed", "trials", "engine"]
    # a tree's stations and an m past a float are range faults too
    with pytest.raises(ValueError, match="^m: too large for a float, got 1000.*; n_stations: a tree takes 3 to 11"):
        base.Request(n_stations=2, m=10**400)


def _transcript(kind, k):
    doc = json.loads(sim.run_protocol("tree", 2, Field(97), d=0, seed=1).transcript.to_json())
    doc.update(protocol=kind, k=k)
    return protocol.Transcript.from_json(json.dumps(doc))


# Each public entry that takes a request, called with its kind and depth
ENTRIES = {
    "Request": lambda kind, k: base.Request(kind=kind, k=k),
    # the closed forms take a checked request, which refuses
    "p_ok_formula": lambda kind, k: formulas.p_ok_formula(base.Request(kind=kind, k=k, p=0.1)),
    "half_life": lambda kind, k: formulas.half_life(base.Request(kind=kind, p=0.1)),
    "comm_bits_formula": lambda kind, k: formulas.comm_bits_formula(base.Request(kind=kind, k=k, q=97)),
    "monte_carlo_reliability": lambda kind, k: analysis.monte_carlo_reliability(kind, k, 0.1, 1, 10, 1),
    "run_protocol": lambda kind, k: sim.run_protocol(kind, k, Field(97), d=0, seed=1),
    "brute_force_binding": lambda kind, k: adversary.brute_force_binding(kind, k, Field(3)),
    "Transcript.from_json": _transcript,
}
REFUSALS = {
    "kind": ("ring", 2, "protocol: must be one of ('single', 'fq', 'tree'), got 'ring'"),
    "depth": ("tree", 0, "k: must be >= 1, got 0"),
}


@pytest.mark.parametrize("entry, refusal", [
    (entry, refusal) for refusal in REFUSALS for entry in ENTRIES
    if (entry, refusal) != ("half_life", "depth")  # the half-life takes no depth
])
def test_every_entry_refuses_a_request_with_the_one_text(entry, refusal):
    kind, k, message = REFUSALS[refusal]
    with pytest.raises(ValueError) as refused:
        ENTRIES[entry](kind, k)
    assert str(refused.value) == message
