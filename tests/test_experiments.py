import inspect
from dataclasses import fields, replace

import pytest

from wheelkit import experiments
from wheelkit.errors import InputDomainError
from wheelkit.experiments import EXPERIMENTS, Config, run_experiment
from wheelkit.gadgets import Lift, gadget_case

from tests.test_acceptance import GOLDEN, without_elapsed


def test_unknown_experiment_errors():
    with pytest.raises(InputDomainError):
        run_experiment("no-such-thing")


def test_registry_covers_the_cli_promises():
    assert set(GOLDEN) == set(EXPERIMENTS)


def test_reports_reproducible_under_fixed_seed():
    a = run_experiment("wheel-k5-construction", Config(seed=3)).as_dict()
    b = run_experiment("wheel-k5-construction", Config(seed=3)).as_dict()
    a.pop("elapsed_seconds")
    b.pop("elapsed_seconds")
    assert a == b


def test_seed_actually_steers_the_corpus():
    a = run_experiment("planar-no-k5", Config(seed=1, instances=20))
    b = run_experiment("planar-no-k5", Config(seed=2, instances=20))
    assert a.passed and b.passed
    assert a.config["seed"] != b.config["seed"]


def test_programming_error_is_not_a_counterexample(monkeypatch):
    def broken(*args):
        raise TypeError("bug")

    monkeypatch.setattr(experiments, "wheel_plus_paths_to_k5", broken)
    with pytest.raises(TypeError):
        run_experiment("wheel-k5-construction")


def test_generation_bound_steers_gen_catalog_members():
    full = run_experiment("gen-catalog-members")
    assert full.passed
    assert without_elapsed(full) == GOLDEN["gen-catalog-members"]
    short = run_experiment("gen-catalog-members", Config(generation_bound=5))
    assert not short.passed
    assert short.counterexamples == [
        "stream missed catalog member W1",
        "stream missed catalog member W2",
    ]


def test_search_bound_steers_planar_no_k5():
    # graphs are drawn with 5 to search_bound vertices, so a bound below
    # the default 12 still runs every instance inside the search cap
    report = run_experiment("planar-no-k5", Config(search_bound=11))
    assert report.passed and report.instances == Config().instances
    with pytest.raises(InputDomainError, match="search_bound"):
        run_experiment("planar-no-k5", Config(search_bound=4))


def test_run_experiment_validates_config():
    # the library entry point checks the ranges that `wheelkit verify` does
    with pytest.raises(InputDomainError, match="oracle_bound"):
        run_experiment("oracle-equivalence", Config(oracle_bound=4))


def test_each_experiment_takes_only_the_keys_it_reads():
    # a golden report echoes the keys its experiment reads, in Config
    # field order: exactly the experiment's parameters
    order = [f.name for f in fields(Config)]
    for name in EXPERIMENTS:
        keys = tuple(GOLDEN[name]["config"])
        assert keys == tuple(k for k in order if k in keys), name
        assert tuple(inspect.signature(EXPERIMENTS[name]).parameters) == keys, name
    report = run_experiment("planar-no-k5", Config(instances=20))
    assert list(report.config.items()) == list({**GOLDEN["planar-no-k5"]["config"], "instances": 20}.items())


@pytest.mark.parametrize("name", sorted(set(EXPERIMENTS) - {"disc-planar-oracle"}))
def test_keys_not_echoed_do_not_change_the_report(name):
    # disc-planar-oracle is left out for time; it reads no key at all
    base = Config(instances=20)
    other = Config(
        seed=base.seed + 1, oracle_bound=7, search_bound=13, generation_bound=8, instances=21
    )
    unread = {f.name: getattr(other, f.name) for f in fields(Config) if f.name not in GOLDEN[name]["config"]}
    a = run_experiment(name, base).as_dict()
    b = run_experiment(name, replace(base, **unread)).as_dict()
    a.pop("elapsed_seconds")
    b.pop("elapsed_seconds")
    assert a == b


def test_lift_all_gadgets_reports_an_unsound_rule(monkeypatch):
    case = gadget_case("pair_chord")
    # a second replacement path for the chord v2-v4 that runs through the
    # kept cut vertex v1
    leaky = replace(
        case.rule,
        name="pair_chord_leaky",
        lifts=(
            Lift(
                frozenset({("v2", "v4")}),
                ((("v2", "u", "v", "v4"),), (("v2", "u", "v1", "v", "v4"),)),
            ),
        ),
    )
    monkeypatch.setattr(experiments, "gadget_library", lambda: (replace(case, rule=leaky),))
    report = run_experiment("lift-all-gadgets")
    assert report.instances > 0
    assert report.counterexamples == ["pair_chord_leaky: replacement interior 'v1' not deleted"]
