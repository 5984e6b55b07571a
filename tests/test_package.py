"""The package's public names: __all__ and the star import agree, and the
state's public surface is what it stores."""

from dataclasses import fields

import distbandit
from distbandit import BernoulliArmModel, PolicySpec, RunConfig, WorldState, init_state
from distbandit import CommunicationSchedule as CS


def test_every_exported_name_resolves():
    missing = [name for name in distbandit.__all__ if not hasattr(distbandit, name)]
    assert missing == []
    assert len(set(distbandit.__all__)) == len(distbandit.__all__)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from distbandit import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(distbandit.__all__)


def test_world_state_presents_its_fields_and_streams():
    # the public API changes only together with the README, which lists these
    cfg = RunConfig(BernoulliArmModel((0.9, 0.8)), 2, 8, CS.full(), PolicySpec("ucb"), 0)
    state = init_state(cfg, [0])
    public = {name for name in dir(state) if not name.startswith("_")}
    stored = {f.name for f in fields(WorldState) if not f.name.startswith("_")}
    assert public == stored | {"streams"}
