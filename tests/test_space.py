"""Config-space construction, sampling, validation, and space files."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
import yaml

from textopt.space import (
    Categorical,
    Condition,
    ConfigSpace,
    Continuous,
    IntRange,
    ParamNode,
    SpaceError,
    active_nodes,
    define_space,
    enumerate_assignments,
    load_space,
    sample_prior,
    text_rep_space,
    validate_assignment,
)


def chain_space() -> ConfigSpace:
    return define_space(
        [
            ParamNode("a", Categorical(("x", "y"))),
            ParamNode("b", Categorical(("p", "q")), Condition("a", ("x",))),
            ParamNode("c", Categorical(("u", "v")), Condition("b", ("p",))),
        ]
    )


def describe(space: ConfigSpace) -> list[dict]:
    """The node descriptions that define_space and space files take, built by hand."""
    out = []
    for node in space.nodes:
        d = node.domain
        if isinstance(d, Categorical):
            item = {"name": node.name, "type": "categorical", "choices": list(d.choices)}
        elif isinstance(d, IntRange):
            item = {"name": node.name, "type": "int", "lo": d.lo, "hi": d.hi}
        else:
            item = {
                "name": node.name,
                "type": "continuous",
                "lo": d.lo,
                "hi": d.hi,
                "scale": d.scale,
            }
        if node.condition is not None:
            item["condition"] = {
                "parent": node.condition.parent,
                "values": list(node.condition.values),
            }
        out.append(item)
    return out


class TestDefineSpace:
    def test_conditional_child(self):
        space = define_space(
            [
                {"name": "a", "type": "categorical", "choices": ["x", "y"]},
                {
                    "name": "b",
                    "type": "int",
                    "lo": 1,
                    "hi": 3,
                    "condition": {"parent": "a", "values": ["x"]},
                },
            ]
        )
        assert len(space.nodes) == 2
        assert space.nodes[1] == ParamNode("b", IntRange(1, 3), Condition("a", ("x",)))

    def test_self_reference_is_cycle(self):
        with pytest.raises(SpaceError, match="cycle"):
            define_space(
                [
                    {"name": "a", "type": "categorical", "choices": ["x"]},
                    {
                        "name": "b",
                        "type": "categorical",
                        "choices": ["y"],
                        "condition": {"parent": "b", "values": ["y"]},
                    },
                ]
            )

    def test_duplicate_name(self):
        with pytest.raises(SpaceError, match="duplicate node name 'a'"):
            define_space(
                [
                    {"name": "a", "type": "categorical", "choices": ["x"]},
                    {"name": "a", "type": "categorical", "choices": ["y"]},
                ]
            )

    def test_missing_parent(self):
        with pytest.raises(SpaceError, match="missing parent 'z'"):
            define_space(
                [
                    {
                        "name": "b",
                        "type": "categorical",
                        "choices": ["y"],
                        "condition": {"parent": "z", "values": ["y"]},
                    }
                ]
            )

    def test_invalid_bounds_name_the_node(self):
        with pytest.raises(SpaceError, match="'b'"):
            define_space([{"name": "b", "type": "int", "lo": 3, "hi": 1}])
        with pytest.raises(SpaceError, match="lo > 0"):
            define_space(
                [{"name": "b", "type": "continuous", "lo": -1.0, "hi": 1.0, "scale": "log10"}]
            )

    @pytest.mark.parametrize("kind", ["int", "continuous"])
    def test_bool_bounds_in_descriptions_rejected(self, kind, tmp_path):
        # True == 1, but a bool is no bound, as it is no value of a numeric node.
        with pytest.raises(SpaceError, match="node 'b': .* bound lo must be .*, got True$"):
            define_space([{"name": "b", "type": kind, "lo": True, "hi": 3}])
        path = tmp_path / "bool_bound.space"
        path.write_text(f"- {{name: b, type: {kind}, lo: 0, hi: true}}\n")
        with pytest.raises(SpaceError, match="node 'b': .* bound hi must be .*, got True$"):
            load_space(path)

    @pytest.mark.parametrize("domain", [IntRange, Continuous])
    @pytest.mark.parametrize(
        "lo,hi,bound", [(True, 3, "lo"), (0, np.True_, "hi"), (np.False_, 3, "lo")]
    )
    def test_bool_bounds_rejected_by_domains(self, domain, lo, hi, bound):
        value = repr(lo if bound == "lo" else hi)
        with pytest.raises(SpaceError, match=rf"bound {bound} must be .*, got {re.escape(value)}$"):
            domain(lo, hi)

    def test_non_number_continuous_bound_rejected(self):
        message = "node 'x': continuous bound hi must be a number, got '1e-5'"
        with pytest.raises(SpaceError, match=message):
            define_space([{"name": "x", "type": "continuous", "lo": 0.0, "hi": "1e-5"}])

    def test_activating_value_outside_parent_domain(self):
        with pytest.raises(SpaceError, match="outside domain"):
            define_space(
                [
                    {"name": "a", "type": "categorical", "choices": ["x"]},
                    {
                        "name": "b",
                        "type": "categorical",
                        "choices": ["y"],
                        "condition": {"parent": "a", "values": ["nope"]},
                    },
                ]
            )

    def test_condition_on_continuous_parent_rejected(self, tmp_path):
        spec = [
            {"name": "x", "type": "continuous", "lo": 0.0, "hi": 1.0},
            {
                "name": "v",
                "type": "categorical",
                "choices": ["a", "b"],
                "condition": {"parent": "x", "values": [0.5]},
            },
        ]
        with pytest.raises(SpaceError, match="node 'v': condition on continuous parent 'x'"):
            define_space(spec)
        path = tmp_path / "continuous_parent.space"
        path.write_text(yaml.safe_dump(spec))
        with pytest.raises(SpaceError, match="node 'v': condition on continuous parent 'x'"):
            load_space(path)

    def test_topological_reordering(self):
        space = define_space(
            [
                {
                    "name": "child",
                    "type": "categorical",
                    "choices": [0],
                    "condition": {"parent": "root", "values": ["x"]},
                },
                {"name": "root", "type": "categorical", "choices": ["x"]},
            ]
        )
        assert space.names == ("root", "child")

    def test_default_space_is_valid(self):
        space = text_rep_space()
        assert len(space.nodes) == 9
        assert space.names[0] == "n_min"


class TestCategorical:
    def test_index_keeps_bools_apart_from_ints(self):
        domain = Categorical((1, True, 0, False, "a", 2.5))
        assert [domain.code(v) for v in (1, True, 0, False, "a", 2.5)] == [0, 1, 2, 3, 4, 5]
        assert domain.code(1.0) == 0
        assert domain.code(np.int64(0)) == 2
        assert domain.code(2) is None
        assert domain.code([1]) is None
        assert Categorical((True, 1)).code(True) == 0

    def test_numpy_bool_is_a_bool(self):
        assert Categorical((True, False)).code(np.True_) == 0
        assert Categorical((1, 2)).code(np.True_) is None
        bools = define_space([ParamNode("b", Categorical((True, False)))])
        ints = define_space([ParamNode("c", Categorical((1, 2)))])
        assert validate_assignment(bools, {"b": np.True_}) == []
        assert validate_assignment(ints, {"c": np.True_}) == [
            "value np.True_ of node 'c' out of domain"
        ]

    def test_duplicates_and_unhashable_choices_rejected(self):
        with pytest.raises(SpaceError, match="duplicate categorical choice 1.0"):
            Categorical((1, True, 1.0))
        with pytest.raises(SpaceError, match="not hashable"):
            Categorical(("a", ["b"]))

    def test_int_range_choices_built_once(self):
        domain = IntRange(2, 5)
        assert domain.choices == (2, 3, 4, 5)
        assert domain.choices is domain.choices


class TestTextRepSpace:
    def test_largest_n_min_forces_zero_span(self):
        space = text_rep_space()
        node = space.nodes[space.names.index("n_span|n_min=3")]
        assert node.domain.choices == (0,)
        assert node.condition == Condition("n_min", (3,))

    def test_smallest_n_min_admits_three_spans(self):
        space = text_rep_space()
        assert space.nodes[space.names.index("n_span|n_min=1")].domain.choices == (0, 1, 2)

    def test_assignments_have_seven_active_values(self):
        space = text_rep_space()
        for seed in range(50):
            assignment = sample_prior(space, np.random.default_rng(seed))
            assert len(assignment) == 7
            assert validate_assignment(space, assignment) == []

    def test_derived_n_max_within_table_bounds(self):
        space = text_rep_space()
        for seed in range(200):
            a = sample_prior(space, np.random.default_rng(seed))
            n_min = a["n_min"]
            span_key = next(k for k in a if k.startswith("n_span"))
            n_max = n_min + a[span_key]
            assert n_min <= n_max <= 3


class TestSamplePrior:
    def test_single_choice_is_deterministic(self):
        space = define_space([ParamNode("a", Categorical(("x",)))])
        for seed in range(10):
            assert sample_prior(space, np.random.default_rng(seed)) == {"a": "x"}

    def test_same_seed_same_assignment(self):
        space = text_rep_space()
        first = sample_prior(space, np.random.default_rng(123))
        second = sample_prior(space, np.random.default_rng(123))
        assert first == second

    def test_log_uniform_strength_median(self):
        # Uniform in log10 coordinates puts half the mass in [1e-5, 1e0].
        space = text_rep_space()
        rng = np.random.default_rng(7)
        draws = [sample_prior(space, rng)["strength"] for _ in range(10_000)]
        fraction = sum(1 for v in draws if v <= 1.0) / len(draws)
        assert abs(fraction - 0.5) <= 0.02

    def test_int_range_uniform(self):
        space = define_space([ParamNode("k", IntRange(1, 4))])
        rng = np.random.default_rng(3)
        draws = [sample_prior(space, rng)["k"] for _ in range(8000)]
        for value in (1, 2, 3, 4):
            assert abs(draws.count(value) / len(draws) - 0.25) < 0.02


class TestValidateAssignment:
    def test_out_of_domain_span(self):
        space = text_rep_space()
        a = sample_prior(space, np.random.default_rng(0))
        a["n_min"] = 2
        a.pop(next(k for k in list(a) if k.startswith("n_span")))
        a["n_span|n_min=2"] = 2
        violations = validate_assignment(space, a)
        assert any("n_span|n_min=2" in v and "out of domain" in v for v in violations)

    def test_missing_root(self):
        space = text_rep_space()
        a = sample_prior(space, np.random.default_rng(1))
        del a["tolerance"]
        assert any("missing active node 'tolerance'" in v for v in validate_assignment(space, a))

    def test_extraneous_inactive_node(self):
        space = text_rep_space()
        a = sample_prior(space, np.random.default_rng(2))
        a["n_min"] = 1
        for key in [k for k in a if k.startswith("n_span")]:
            del a[key]
        a["n_span|n_min=1"] = 0
        a["n_span|n_min=2"] = 0
        violations = validate_assignment(space, a)
        assert any("extraneous" in v and "n_span|n_min=2" in v for v in violations)

    def test_unknown_node(self):
        space = text_rep_space()
        a = sample_prior(space, np.random.default_rng(3))
        a["bogus"] = 1
        assert any("unknown node 'bogus'" in v for v in validate_assignment(space, a))

    def test_bool_is_not_int(self):
        space = define_space([ParamNode("a", Categorical((1, 2)))])
        assert validate_assignment(space, {"a": True}) != []
        assert validate_assignment(space, {"a": 1}) == []

    def test_numpy_integers_valid_in_int_range_as_in_categorical(self):
        space = define_space([ParamNode("k", IntRange(1, 6)), ParamNode("c", Categorical((1, 2)))])
        assignment = {"k": np.int64(2), "c": np.int64(2)}
        assert validate_assignment(space, assignment) == []
        codes = space.encode(assignment)
        assert codes == [1, 1] and all(type(code) is int for code in codes)
        for flag in (True, np.True_):
            assert validate_assignment(space, {"k": flag, "c": 1}) == [
                f"value {flag!r} of node 'k' out of domain"
            ]
        assert validate_assignment(space, {"k": np.int64(7), "c": 1}) != []

    def test_numpy_reals_valid_in_continuous(self):
        space = define_space(
            [ParamNode("x", Continuous(0, 10)), ParamNode("s", Continuous(1e-3, 1e3, "log10"))]
        )
        for value in (np.int64(5), np.int32(5), np.float32(5.5), np.float64(5.5), 5, 5.5):
            assert validate_assignment(space, {"x": value, "s": value}) == []
            assert space.encode({"x": value, "s": value}) == [float(value), math.log10(value)]
        for flag in (True, np.True_, np.False_):
            assert validate_assignment(space, {"x": flag, "s": 1.0}) == [
                f"value {flag!r} of node 'x' out of domain"
            ]
        for value in (np.float32(10.5), np.int64(-1), np.float64(np.nan), np.float32(np.inf)):
            assert validate_assignment(space, {"x": value, "s": 1.0}) != []


class TestActiveNodes:
    def test_relevant_span_child_only(self):
        space = text_rep_space()
        names = [n.name for n in active_nodes(space, {"n_min": 1})]
        assert "n_span|n_min=1" in names
        assert "n_span|n_min=2" not in names
        assert "n_span|n_min=3" not in names

    def test_unconditioned_space_is_all_nodes(self):
        space = define_space(
            [ParamNode("a", Categorical(("x",))), ParamNode("b", IntRange(0, 1))]
        )
        assert [n.name for n in active_nodes(space, {})] == ["a", "b"]

    def test_activation_is_transitive(self):
        names = [n.name for n in active_nodes(chain_space(), {"a": "y", "b": "p"})]
        assert names == ["a"]

    def test_matches_key_set_of_valid_assignments(self):
        space = chain_space()
        for seed in range(40):
            a = sample_prior(space, np.random.default_rng(seed))
            assert {n.name for n in active_nodes(space, a)} == set(a)


class TestEnumerateAssignments:
    def test_counts_and_validity(self):
        space = chain_space()
        assignments = enumerate_assignments(space)
        # a=y: 1; a=x,b=q: 1; a=x,b=p: 2 choices of c.
        assert len(assignments) == 4
        for a in assignments:
            assert validate_assignment(space, a) == []

    def test_rejects_continuous(self):
        space = define_space([ParamNode("s", Continuous(0.0, 1.0))])
        with pytest.raises(SpaceError, match="enumerate"):
            enumerate_assignments(space)


class TestSerialization:
    def test_round_trip_equality(self):
        for space in (text_rep_space(), chain_space()):
            assert define_space(describe(space)) == space

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "space.yaml"
        path.write_text(yaml.safe_dump(describe(text_rep_space())), encoding="utf-8")
        assert load_space(path) == text_rep_space()

    def test_load_space_reads_every_node_kind(self, tmp_path):
        path = tmp_path / "space.yaml"
        path.write_text(
            """
- name: model
  type: categorical
  choices: [tree, linear]
- name: depth
  type: int
  lo: 1
  hi: 4
  condition: {parent: model, values: [tree]}
- name: rate
  type: continuous
  lo: 1.0e-05
  hi: 100000.0
  scale: log10
- name: mix
  type: continuous
  lo: -0.5
  hi: 2
""",
            encoding="utf-8",
        )
        assert load_space(path) == ConfigSpace(
            (
                ParamNode("model", Categorical(("tree", "linear"))),
                ParamNode("depth", IntRange(1, 4), Condition("model", ("tree",))),
                ParamNode("rate", Continuous(1e-5, 1e5, "log10")),
                ParamNode("mix", Continuous(-0.5, 2.0, "linear")),
            )
        )

    def test_shipped_space_file_matches_builtin(self):
        from pathlib import Path

        shipped = Path(__file__).resolve().parents[1] / "spaces" / "table1.space"
        assert load_space(shipped) == text_rep_space()
