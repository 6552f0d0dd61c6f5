"""A miniature trip-planning task with machine-checkable rules.

One activity per day, a total budget, and a whitelist of allowed city
transitions between consecutive days. Small enough (at most three days,
a handful of options per day) that every combination can be enumerated,
which gives the test suite an independent oracle for the rule checker.
"""
from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass

import yaml

from .actor import TaskSample
from .errors import UnparseableAnswerError
from .prompt_model import PromptDocument, fill_slots
from .yamlio import load_yaml

PLAN_MARKER = "PLAN:"

MAX_DAYS = 3

RULE_BUDGET = "Budget"
RULE_ROUTE = "Route"
RULE_INVALID = "Invalid"


@dataclass(frozen=True)
class ToyOption:
    id: str
    cost: int
    city: str


@dataclass(frozen=True)
class ToySample:
    id: str
    days: int
    budget: int
    options: tuple[tuple[ToyOption, ...], ...]
    route_rule: frozenset[tuple[str, str]]

    def __post_init__(self):
        if not 1 <= self.days <= MAX_DAYS:
            raise ValueError(f"days must be between 1 and {MAX_DAYS}")
        if len(self.options) != self.days:
            raise ValueError("one option list per day is required")

    def option_by_id(self, option_id: str) -> ToyOption | None:
        for day_options in self.options:
            for option in day_options:
                if option.id == option_id:
                    return option
        return None


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    violated: tuple[str, ...] = ()
    messages: tuple[str, ...] = ()


def toy_check(answer: tuple[str, ...], sample: ToySample) -> CheckResult:
    """Check one plan against the sample's budget and route rules.

    Budget is checked before routes, so the first message names the budget
    overrun when both rules fail. Unknown activity ids or a wrong number of
    days fail as invalid.
    """
    if len(answer) != sample.days:
        return CheckResult(
            False,
            (RULE_INVALID,),
            (f"expected {sample.days} day(s), got {len(answer)}",),
        )
    chosen: list[ToyOption] = []
    for day, option_id in enumerate(answer, start=1):
        day_options = {o.id: o for o in sample.options[day - 1]}
        if option_id not in day_options:
            return CheckResult(
                False,
                (RULE_INVALID,),
                (f"unknown activity id {option_id!r} for day {day}",),
            )
        chosen.append(day_options[option_id])
    violated: list[str] = []
    messages: list[str] = []
    total = sum(o.cost for o in chosen)
    if total > sample.budget:
        violated.append(RULE_BUDGET)
        messages.append(f"budget exceeded by {total - sample.budget}")
    for day in range(1, sample.days):
        move = (chosen[day - 1].city, chosen[day].city)
        if move not in sample.route_rule:
            violated.append(RULE_ROUTE)
            messages.append(f"route not allowed: {move[0]} -> {move[1]}")
            break
    if violated:
        return CheckResult(False, tuple(violated), tuple(messages))
    return CheckResult(True)


# --- brute-force oracle -------------------------------------------------------


def enumerate_plans(sample: ToySample) -> list[tuple[str, ...]]:
    """All plans, one option per day, in deterministic product order."""
    return [
        tuple(o.id for o in combo)
        for combo in itertools.product(*sample.options)
    ]


def oracle_feasible_set(sample: ToySample) -> set[tuple[str, ...]]:
    """Feasible plans found by exhaustive enumeration.

    Written against the raw rule definitions, not via toy_check, so the
    two implementations can disagree and the tests would catch it.
    """
    feasible: set[tuple[str, ...]] = set()
    for combo in itertools.product(*sample.options):
        cost = 0
        for option in combo:
            cost += option.cost
        if cost > sample.budget:
            continue
        legal = True
        for i in range(len(combo) - 1):
            if (combo[i].city, combo[i + 1].city) not in sample.route_rule:
                legal = False
                break
        if legal:
            feasible.add(tuple(o.id for o in combo))
    return feasible


def oracle_check(answer: tuple[str, ...], sample: ToySample) -> bool:
    return answer in oracle_feasible_set(sample)


def blind_answer(sample: ToySample) -> tuple[str, ...]:
    """The most expensive plan, first in product order on ties.

    Stands in for an agent that never looks at the budget.
    """
    best: tuple[str, ...] | None = None
    best_cost = -1
    for combo in itertools.product(*sample.options):
        cost = sum(o.cost for o in combo)
        if cost > best_cost:
            best_cost = cost
            best = tuple(o.id for o in combo)
    assert best is not None
    return best


def best_answer(sample: ToySample) -> tuple[str, ...]:
    """The cheapest feasible plan, first in product order on ties."""
    feasible = oracle_feasible_set(sample)
    best: tuple[str, ...] | None = None
    best_cost = None
    for combo in itertools.product(*sample.options):
        ids = tuple(o.id for o in combo)
        if ids not in feasible:
            continue
        cost = sum(o.cost for o in combo)
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best = ids
    if best is None:
        raise ValueError(f"sample {sample.id} has no feasible plan")
    return best


# --- generation ----------------------------------------------------------------

_CITIES = ("A", "B", "C", "D")


def generate_sample(seed: int) -> ToySample:
    """Deterministic sample for a seed, feasible by construction.

    A designated combination is drawn first; its transitions are forced
    into the route rule and the budget is set at or above its cost, so at
    least one plan always passes.
    """
    rng = random.Random(seed)
    days = rng.randint(1, MAX_DAYS)
    options = []
    for day in range(1, days + 1):
        count = rng.randint(2, 4)
        day_options = tuple(
            ToyOption(
                id=f"a{day}{j}",
                cost=rng.randint(10, 80),
                city=rng.choice(_CITIES),
            )
            for j in range(1, count + 1)
        )
        options.append(day_options)
    designated = [rng.randrange(len(day_options)) for day_options in options]
    rule = {
        (options[i][designated[i]].city, options[i + 1][designated[i + 1]].city)
        for i in range(days - 1)
    }
    for a in _CITIES:
        for b in _CITIES:
            if rng.random() < 0.25:
                rule.add((a, b))
    cost = sum(options[i][designated[i]].cost for i in range(days))
    budget = cost + rng.randint(0, 15)
    return ToySample(
        id=f"toy-{seed}",
        days=days,
        budget=budget,
        options=tuple(options),
        route_rule=frozenset(rule),
    )


def generate_samples(
    count: int, base_seed: int = 0, require_blind_fail: bool = False
) -> list[ToySample]:
    """First ``count`` seeds from ``base_seed`` whose samples qualify."""
    samples: list[ToySample] = []
    seed = base_seed
    while len(samples) < count:
        sample = generate_sample(seed)
        seed += 1
        if require_blind_fail and oracle_check(blind_answer(sample), sample):
            continue
        samples.append(sample)
    return samples


# --- serialization ---------------------------------------------------------------


def toy_sample_to_dict(sample: ToySample) -> dict:
    return {
        "id": sample.id,
        "days": sample.days,
        "budget": sample.budget,
        "options": [
            [{"id": o.id, "cost": o.cost, "city": o.city} for o in day]
            for day in sample.options
        ],
        "routes": [[a, b] for a, b in sorted(sample.route_rule)],
    }


def toy_sample_from_dict(data: dict) -> ToySample:
    try:
        options = tuple(
            tuple(
                ToyOption(id=str(o["id"]), cost=int(o["cost"]), city=str(o["city"]))
                for o in day
            )
            for day in data["options"]
        )
        return ToySample(
            id=str(data["id"]),
            days=int(data["days"]),
            budget=int(data["budget"]),
            options=options,
            route_rule=frozenset((str(a), str(b)) for a, b in data["routes"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed toy sample record: {exc}") from None


def load_toy_samples(path) -> list[ToySample]:
    with open(path, encoding="utf-8") as fh:
        data = load_yaml(fh)
    if not isinstance(data, list) or not data:
        raise ValueError(f"{path}: expected a non-empty list of toy samples")
    samples = [toy_sample_from_dict(row) for row in data]
    ids = [s.id for s in samples]
    if len(set(ids)) != len(ids):
        raise ValueError(f"{path}: sample ids must be unique")
    return samples


def save_toy_samples(samples, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(
            [toy_sample_to_dict(s) for s in samples], fh, sort_keys=False
        )


# --- prompt-facing surface -------------------------------------------------------


def sample_slots(sample: ToySample) -> dict[str, str]:
    option_lines = []
    for day in range(1, sample.days + 1):
        rendered = "; ".join(
            f"{o.id} (cost {o.cost}, city {o.city})"
            for o in sample.options[day - 1]
        )
        option_lines.append(f"Day {day}: {rendered}")
    routes = ", ".join(f"{a}->{b}" for a, b in sorted(sample.route_rule))
    return {
        "task_id": sample.id,
        "days": str(sample.days),
        "budget": str(sample.budget),
        "options": "\n".join(option_lines),
        "routes": routes,
    }


def to_task_sample(sample: ToySample) -> TaskSample:
    return TaskSample(id=sample.id, slot_values=sample_slots(sample))


def format_plan(answer: tuple[str, ...]) -> str:
    lines = [PLAN_MARKER]
    lines.extend(f"Day {day}: {oid}" for day, oid in enumerate(answer, start=1))
    return "\n".join(lines)


_DAY_LINE_RE = re.compile(r"^\s*Day\s+(\d+)\s*:\s*(\S+)\s*$")


def parse_plan_answer(text: str) -> tuple[str, ...]:
    """Read a plan from assistant text: a PLAN: line, then Day lines.

    The last PLAN: block wins. Day numbers must run 1, 2, ... and the
    block ends at the first line that is neither blank nor a Day line.
    """
    idx = text.rfind(PLAN_MARKER)
    if idx < 0:
        raise UnparseableAnswerError(
            f'no "{PLAN_MARKER}" line found in the answer'
        )
    tail = text[idx + len(PLAN_MARKER):]
    ids: list[str] = []
    for line in tail.splitlines():
        if not line.strip():
            continue
        m = _DAY_LINE_RE.match(line)
        if not m:
            break
        day = int(m.group(1))
        if day != len(ids) + 1:
            raise UnparseableAnswerError(
                f"day lines must run 1, 2, ...; got day {day} in position {len(ids) + 1}"
            )
        ids.append(m.group(2))
    if not ids:
        raise UnparseableAnswerError(
            f'no "Day k: <activity id>" lines after "{PLAN_MARKER}"'
        )
    return tuple(ids)


class ToyAdapter:
    """Task adapter wiring the toy task into the evaluation harness."""

    def __init__(self, checker=toy_check):
        self._checker = checker

    def fill(self, prompt: PromptDocument, sample: ToySample) -> str:
        return fill_slots(prompt, sample_slots(sample))

    def parse_answer(self, text: str) -> tuple[str, ...]:
        return parse_plan_answer(text)

    def check(self, answer: tuple[str, ...], sample: ToySample) -> CheckResult:
        return self._checker(answer, sample)
