"""Tree-structured hyperparameter spaces with conditional activation.

A space is a forest of named parameter nodes.  Each node carries a value
domain and, optionally, a condition naming a discrete parent node together
with the parent values that activate it.  An assignment maps the names of
exactly the active nodes to in-domain values.

The space owns activation and encoding.  A domain gives each in-domain
value a code: its symbol index, or for a continuous domain its estimation
coordinate.  An assignment's code row holds one code per node in space
order, NaN where the node is inactive, and a child is active where its
parent's code is one of its activating codes.  Sampling, validation,
enumeration and the surrogate all walk the space by this one rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np
import yaml

Value = bool | int | float | str
Assignment = dict[str, Value]

_SCALES = ("linear", "log10")


class SpaceError(ValueError):
    """Malformed space description, domain, or node reference."""


def _is_bool(value: Value) -> bool:
    return isinstance(value, (bool, np.bool_))


@dataclass(frozen=True)
class Categorical:
    """Finite ordered set of symbolic choices."""

    choices: tuple[Value, ...]
    # Choice positions keyed by (is a bool, value): two keys collide exactly
    # when the values are equal and both or neither are bools (numpy bools
    # included; NaN aside), so True and 1 stay apart.
    _index: dict[tuple[bool, Value], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "choices", tuple(self.choices))
        if not self.choices:
            raise SpaceError("categorical domain needs at least one choice")
        index: dict[tuple[bool, Value], int] = {}
        for i, c in enumerate(self.choices):
            try:
                first = index.setdefault((_is_bool(c), c), i)
            except TypeError:
                raise SpaceError(f"categorical choice {c!r} is not hashable") from None
            if first != i:
                raise SpaceError(f"duplicate categorical choice {c!r}")
        object.__setattr__(self, "_index", index)

    def code(self, value: Value) -> int | None:
        """The symbol index of ``value``, None outside the domain."""
        try:
            return self._index.get((_is_bool(value), value))
        except TypeError:  # an unhashable value is no choice
            return None

    def contains(self, value: Value) -> bool:
        return self.code(value) is not None

    def sample(self, rng: np.random.Generator) -> Value:
        return self.choices[int(rng.integers(len(self.choices)))]


@dataclass(frozen=True)
class IntRange:
    """Inclusive integer interval; a value's code is its index in ``choices``.

    The surrogate fits and draws a range's density on the range itself.
    """

    lo: int
    hi: int

    def __post_init__(self) -> None:
        for name, bound in (("lo", self.lo), ("hi", self.hi)):
            if not isinstance(bound, int) or _is_bool(bound):
                raise SpaceError(f"integer bound {name} must be an int, got {bound!r}")
        if self.lo > self.hi:
            raise SpaceError(f"integer range has lo {self.lo} > hi {self.hi}")

    @cached_property
    def choices(self) -> tuple[int, ...]:
        """The range's integers in order, built once per range."""
        return tuple(range(self.lo, self.hi + 1))

    def contains(self, value: Value) -> bool:
        # Numpy integers count, as they do in a Categorical of ints; bools do not.
        return (
            isinstance(value, (int, np.integer))
            and not isinstance(value, bool)
            and self.lo <= value <= self.hi
        )

    def code(self, value: Value) -> int | None:
        """The symbol index of ``value`` among the range's integers, None outside the domain."""
        return int(value) - self.lo if self.contains(value) else None  # type: ignore[arg-type]

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.lo, self.hi + 1))


@dataclass(frozen=True)
class Continuous:
    """Real interval, sampled and density-estimated in linear or log10 coordinates."""

    lo: float
    hi: float
    scale: str = "linear"

    def __post_init__(self) -> None:
        for name, bound in (("lo", self.lo), ("hi", self.hi)):
            if not isinstance(bound, (int, float, np.integer, np.floating)) or _is_bool(bound):
                raise SpaceError(f"continuous bound {name} must be a number, got {bound!r}")
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise SpaceError(f"continuous bounds must be finite, got [{self.lo}, {self.hi}]")
        if self.lo >= self.hi:
            raise SpaceError(f"continuous range has lo {self.lo} >= hi {self.hi}")
        if self.scale not in _SCALES:
            raise SpaceError(f"unknown scale {self.scale!r}, expected one of {_SCALES}")
        if self.scale == "log10" and self.lo <= 0:
            raise SpaceError(f"log10 scale requires lo > 0, got {self.lo}")

    @property
    def internal_bounds(self) -> tuple[float, float]:
        """Bounds in estimation coordinates (log10 domain for log-scaled nodes)."""
        if self.scale == "log10":
            return math.log10(self.lo), math.log10(self.hi)
        return self.lo, self.hi

    def to_internal(self, value: float) -> float:
        return math.log10(value) if self.scale == "log10" else float(value)

    def from_internal(self, x: float) -> float:
        value = 10.0**x if self.scale == "log10" else x
        return float(min(max(value, self.lo), self.hi))

    def contains(self, value: Value) -> bool:
        # Numpy integers and floats count, as in IntRange; bools (np.bool_ is neither) do not.
        return (
            isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool)
            and math.isfinite(value)
            and self.lo <= value <= self.hi
        )

    def code(self, value: Value) -> float | None:
        """The estimation coordinate of ``value``, None outside the domain."""
        return self.to_internal(value) if self.contains(value) else None  # type: ignore[arg-type]

    def sample(self, rng: np.random.Generator) -> float:
        lo, hi = self.internal_bounds
        return self.from_internal(float(rng.uniform(lo, hi)))


ParamDomain = Categorical | IntRange | Continuous


@dataclass(frozen=True)
class Condition:
    """Activation rule: the node is active when its parent takes one of ``values``."""

    parent: str
    values: tuple[Value, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise SpaceError(f"condition on {self.parent!r} has no activating values")


@dataclass(frozen=True)
class ParamNode:
    name: str
    domain: ParamDomain
    condition: Condition | None = None


@dataclass(frozen=True)
class ConfigSpace:
    """Validated forest of parameter nodes in topological order."""

    nodes: tuple[ParamNode, ...]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n.name for n in self.nodes)

    @cached_property
    def _links(self) -> tuple[tuple[int, frozenset[int]] | None, ...]:
        """Per node: None for a root, else its parent's position and activating parent codes."""
        position = {node.name: j for j, node in enumerate(self.nodes)}
        links: list[tuple[int, frozenset[int]] | None] = []
        for node in self.nodes:
            cond = node.condition
            if cond is None:
                links.append(None)
                continue
            parent = position[cond.parent]
            domain = self.nodes[parent].domain
            links.append((parent, frozenset(domain.code(v) for v in cond.values)))  # type: ignore[arg-type]
        return tuple(links)

    def active(self, j: int, codes: Sequence[float]) -> bool:
        """Whether node ``j`` is active, given the codes of the nodes before it."""
        link = self._links[j]
        return link is None or codes[link[0]] in link[1]

    def encode(self, assignment: Mapping[str, Value]) -> list[float]:
        """The code row of an assignment, which must give every active node an in-domain value."""
        codes = [math.nan] * len(self.nodes)
        for j, node in enumerate(self.nodes):
            if not self.active(j, codes):
                continue
            if node.name not in assignment:
                raise ValueError(f"missing value for active node '{node.name}'")
            value = assignment[node.name]
            code = node.domain.code(value)
            if code is None:
                raise ValueError(f"value {value!r} of node '{node.name}' outside domain")
            codes[j] = code
        return codes


def _node_from_mapping(item: Mapping[str, Any]) -> ParamNode:
    name = item.get("name")
    if not isinstance(name, str) or not name:
        raise SpaceError(f"node description needs a 'name' string, got {item!r}")
    kind = item.get("type")
    try:
        if kind == "categorical":
            domain: ParamDomain = Categorical(tuple(item["choices"]))
        elif kind == "int":
            domain = IntRange(item["lo"], item["hi"])
        elif kind == "continuous":
            domain = Continuous(item["lo"], item["hi"], item.get("scale", "linear"))
        else:
            raise SpaceError(f"unknown node type {kind!r}")
        condition = None
        if "condition" in item and item["condition"] is not None:
            cond = item["condition"]
            condition = Condition(cond["parent"], tuple(cond["values"]))
    except KeyError as exc:
        raise SpaceError(f"node '{name}': missing field {exc}") from exc
    except SpaceError as exc:
        raise SpaceError(f"node '{name}': {exc}") from exc
    return ParamNode(name, domain, condition)


def define_space(spec: Iterable[Mapping[str, Any] | ParamNode]) -> ConfigSpace:
    """Build a validated ConfigSpace from node descriptions or ParamNode objects.

    Nodes are reordered into a stable topological order of the condition
    forest.  Raises SpaceError naming the offending node on duplicate names,
    cycles, missing or continuous parents, invalid bounds, or activating
    values outside the parent domain.
    """
    nodes = [n if isinstance(n, ParamNode) else _node_from_mapping(n) for n in spec]
    by_name: dict[str, ParamNode] = {}
    for node in nodes:
        if node.name in by_name:
            raise SpaceError(f"duplicate node name '{node.name}'")
        by_name[node.name] = node
    for node in nodes:
        if node.condition is None:
            continue
        parent = by_name.get(node.condition.parent)
        if parent is None:
            raise SpaceError(
                f"node '{node.name}': condition on missing parent '{node.condition.parent}'"
            )
        if isinstance(parent.domain, Continuous):
            raise SpaceError(
                f"node '{node.name}': condition on continuous parent '{parent.name}'"
            )
        for v in node.condition.values:
            if not parent.domain.contains(v):
                raise SpaceError(
                    f"node '{node.name}': activating value {v!r} outside domain of "
                    f"parent '{parent.name}'"
                )

    ordered: list[ParamNode] = []
    placed: set[str] = set()
    pending = list(nodes)
    while pending:
        progressed = False
        remaining = []
        for node in pending:
            if node.condition is None or node.condition.parent in placed:
                ordered.append(node)
                placed.add(node.name)
                progressed = True
            else:
                remaining.append(node)
        if not progressed:
            names = ", ".join(f"'{n.name}'" for n in remaining)
            raise SpaceError(f"cycle in conditions involving {names}")
        pending = remaining
    return ConfigSpace(tuple(ordered))


def text_rep_space() -> ConfigSpace:
    """The default space over text representation and classifier hyperparameters.

    The n-gram upper bound is encoded as an offset child per lower-bound
    value, so the derived n_max = n_min + n_span always lies in
    {n_min, ..., 3} and every assignment activates exactly seven nodes.
    """
    return define_space(
        [
            ParamNode("n_min", Categorical((1, 2, 3))),
            ParamNode("n_span|n_min=1", Categorical((0, 1, 2)), Condition("n_min", (1,))),
            ParamNode("n_span|n_min=2", Categorical((0, 1)), Condition("n_min", (2,))),
            ParamNode("n_span|n_min=3", Categorical((0,)), Condition("n_min", (3,))),
            ParamNode("weighting", Categorical(("tf", "tf-idf", "binary"))),
            ParamNode("remove_stopwords", Categorical((True, False))),
            ParamNode("regularizer", Categorical(("l1", "l2"))),
            ParamNode("strength", Continuous(1e-5, 1e5, "log10")),
            ParamNode("tolerance", Continuous(1e-5, 1e-3, "log10")),
        ]
    )


def sample_prior(space: ConfigSpace, rng: np.random.Generator) -> Assignment:
    """Draw each active node uniformly (in estimation coordinates for continuous)."""
    assignment: Assignment = {}
    codes = [math.nan] * len(space.nodes)
    for j, node in enumerate(space.nodes):
        if space.active(j, codes):
            value = assignment[node.name] = node.domain.sample(rng)
            codes[j] = node.domain.code(value)  # type: ignore[assignment]
    return assignment


def active_nodes(space: ConfigSpace, assignment: Mapping[str, Value]) -> list[ParamNode]:
    """The relevant slice of the forest: roots plus transitively activated children.

    Only an in-domain value of an active node activates its children.
    """
    active: list[ParamNode] = []
    codes = [math.nan] * len(space.nodes)
    for j, node in enumerate(space.nodes):
        if space.active(j, codes):
            active.append(node)
            code = node.domain.code(assignment[node.name]) if node.name in assignment else None
            codes[j] = math.nan if code is None else code
    return active


def validate_assignment(space: ConfigSpace, assignment: Mapping[str, Value]) -> list[str]:
    """Return violation messages (empty list means the assignment is valid)."""
    violations: list[str] = []
    actives = active_nodes(space, assignment)
    active_names = {n.name for n in actives}
    for node in actives:
        if node.name not in assignment:
            violations.append(f"missing active node '{node.name}'")
        elif not node.domain.contains(assignment[node.name]):
            violations.append(
                f"value {assignment[node.name]!r} of node '{node.name}' out of domain"
            )
    all_names = set(space.names)
    for name in assignment:
        if name not in all_names:
            violations.append(f"unknown node '{name}'")
        elif name not in active_names:
            violations.append(f"extraneous inactive node '{name}'")
    return violations


def enumerate_assignments(space: ConfigSpace) -> list[Assignment]:
    """All assignments of a fully discrete space, in deterministic order."""
    for node in space.nodes:
        if isinstance(node.domain, Continuous):
            raise SpaceError(f"cannot enumerate continuous node '{node.name}'")
    out: list[Assignment] = []
    codes = [math.nan] * len(space.nodes)

    def rec(i: int, acc: Assignment) -> None:
        if i == len(space.nodes):
            out.append(dict(acc))
            return
        node = space.nodes[i]
        if not space.active(i, codes):
            rec(i + 1, acc)
            return
        for v in node.domain.choices:  # type: ignore[union-attr]
            acc[node.name] = v
            codes[i] = node.domain.code(v)  # type: ignore[assignment]
            rec(i + 1, acc)
            del acc[node.name]
        codes[i] = math.nan

    rec(0, {})
    return out


def load_space(path: str | Path) -> ConfigSpace:
    """Parse a space description file (YAML list, one object per node)."""
    raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, list):
        raise SpaceError(f"space file {path} must contain a list of node objects")
    return define_space(raw)
