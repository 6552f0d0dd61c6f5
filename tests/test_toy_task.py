import json
import re

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import enumerate_plans
from reprompt.errors import UnparseableAnswerError
from reprompt.prompt_model import fill_slots, parse_prompt
from reprompt.toy_task import (
    MAX_DAYS,
    RULE_BUDGET,
    RULE_INVALID,
    RULE_ROUTE,
    ToyOption,
    ToySample,
    best_answer,
    blind_answer,
    format_plan,
    generate_sample,
    generate_samples,
    load_toy_samples,
    oracle_check,
    oracle_feasible_set,
    parse_plan_answer,
    sample_slots,
    save_toy_samples,
    to_task_sample,
    toy_check,
    toy_sample_from_dict,
    toy_sample_to_dict,
)


def mk(days, budget, options, routes):
    return ToySample(
        id="t",
        days=days,
        budget=budget,
        options=tuple(tuple(day) for day in options),
        route_rule=frozenset(routes),
    )


TWO_DAY = mk(
    2,
    50,
    [
        [ToyOption("a11", 20, "A"), ToyOption("a12", 40, "B")],
        [ToyOption("a21", 25, "A"), ToyOption("a22", 10, "C")],
    ],
    [("A", "A"), ("B", "C")],
)


# --- rule checker ------------------------------------------------------------


def test_feasible_plan_passes():
    result = toy_check(("a11", "a21"), TWO_DAY)
    assert result.passed
    assert result.violated == ()
    assert result.messages == ()


def test_wrong_day_count_is_invalid():
    result = toy_check(("a11",), TWO_DAY)
    assert not result.passed
    assert result.violated == (RULE_INVALID,)
    assert "expected 2 day(s), got 1" in result.messages[0]


def test_unknown_id_is_invalid():
    result = toy_check(("a11", "zzz"), TWO_DAY)
    assert result.violated == (RULE_INVALID,)
    assert "unknown activity id 'zzz' for day 2" in result.messages[0]


def test_option_id_is_checked_per_day():
    # a21 exists, but not on day one.
    result = toy_check(("a21", "a21"), TWO_DAY)
    assert result.violated == (RULE_INVALID,)
    assert "day 1" in result.messages[0]


def test_budget_violation_message():
    result = toy_check(("a12", "a22"), mk(
        2,
        45,
        [
            [ToyOption("a11", 20, "A"), ToyOption("a12", 40, "B")],
            [ToyOption("a21", 25, "A"), ToyOption("a22", 10, "C")],
        ],
        [("B", "C")],
    ))
    assert not result.passed
    assert result.violated == (RULE_BUDGET,)
    assert result.messages == ("budget exceeded by 5",)


def test_route_violation_message():
    # Within budget (30 of 50) but A -> C is not an allowed move.
    result = toy_check(("a11", "a22"), TWO_DAY)
    assert result.violated == (RULE_ROUTE,)
    assert result.messages == ("route not allowed: A -> C",)


def test_budget_reported_before_route():
    sample = mk(
        2,
        10,
        [[ToyOption("x", 30, "A")], [ToyOption("y", 30, "D")]],
        [("A", "A")],
    )
    result = toy_check(("x", "y"), sample)
    assert result.violated == (RULE_BUDGET, RULE_ROUTE)
    assert result.messages[0].startswith("budget exceeded by")
    assert result.messages[1].startswith("route not allowed")


def test_route_check_stops_at_first_bad_transition():
    sample = mk(
        3,
        500,
        [
            [ToyOption("x", 1, "A")],
            [ToyOption("y", 1, "B")],
            [ToyOption("z", 1, "C")],
        ],
        [("C", "C")],
    )
    result = toy_check(("x", "y", "z"), sample)
    assert result.violated == (RULE_ROUTE,)
    assert result.messages == ("route not allowed: A -> B",)


def test_single_day_plan_has_no_route_constraint():
    sample = mk(1, 100, [[ToyOption("x", 10, "A")]], [])
    assert toy_check(("x",), sample).passed


# --- sample validation ------------------------------------------------------------


def day_record(days, option_lists):
    """A dataset row with ``days`` days and ``option_lists`` option lists."""
    option = {"id": "a", "cost": 1, "city": "A"}
    return {"id": "t", "days": days, "budget": 10, "options": [[option]] * option_lists,
            "routes": []}


def test_days_bounds():
    message = f"^malformed toy sample record: days must be between 1 and {MAX_DAYS}$"
    for days in (0, MAX_DAYS + 1):
        with pytest.raises(ValueError, match=message):
            toy_sample_from_dict(day_record(days, days))


def test_options_must_match_days():
    with pytest.raises(
        ValueError, match="^malformed toy sample record: one option list per day is required$"
    ):
        toy_sample_from_dict(day_record(2, 1))


# --- checker agrees with the enumeration oracle ---------------------------------------


@pytest.mark.parametrize("seed", range(0, 60))
def test_checker_matches_oracle_on_generated_samples(seed):
    sample = generate_sample(seed)
    for plan in enumerate_plans(sample):
        assert toy_check(plan, sample).passed == oracle_check(plan, sample)


def test_frozen_sample_seven():
    # [DERIVED] from the enumeration oracle for seed 7.
    sample = generate_sample(7)
    assert sample.days == 2
    assert sample.budget == 82
    assert blind_answer(sample) == ("a11", "a23")
    blind = toy_check(blind_answer(sample), sample)
    assert blind.violated == (RULE_BUDGET,)
    assert blind.messages == ("budget exceeded by 43",)
    assert best_answer(sample) == ("a12", "a22")
    assert oracle_feasible_set(sample) == {
        ("a11", "a21"),
        ("a11", "a22"),
        ("a12", "a21"),
        ("a12", "a22"),
    }


# --- generation -------------------------------------------------------------------


def test_generation_is_deterministic():
    assert generate_sample(11) == generate_sample(11)


@pytest.mark.parametrize("seed", range(0, 40))
def test_generated_samples_are_feasible(seed):
    sample = generate_sample(seed)
    assert oracle_feasible_set(sample), f"seed {seed} has no feasible plan"


def test_generate_samples_counts_and_ids():
    samples = generate_samples(5, base_seed=100)
    assert len(samples) == 5
    assert len({s.id for s in samples}) == 5


def test_generate_samples_blind_fail_filter():
    samples = generate_samples(8, base_seed=0, require_blind_fail=True)
    for sample in samples:
        assert not oracle_check(blind_answer(sample), sample)


def test_blind_answer_takes_most_expensive():
    assert blind_answer(TWO_DAY) == ("a12", "a21")


def test_blind_answer_tie_takes_product_order():
    sample = mk(
        1,
        100,
        [[ToyOption("p", 30, "A"), ToyOption("q", 30, "A")]],
        [],
    )
    assert blind_answer(sample) == ("p",)


def test_best_answer_is_cheapest_feasible():
    assert best_answer(TWO_DAY) == ("a11", "a21")


def test_best_answer_raises_when_nothing_is_feasible():
    sample = mk(1, 5, [[ToyOption("x", 10, "A")]], [])
    with pytest.raises(ValueError):
        best_answer(sample)


# --- serialization -----------------------------------------------------------------


def test_dict_round_trip():
    sample = generate_sample(3)
    assert toy_sample_from_dict(toy_sample_to_dict(sample)) == sample


def test_file_round_trip(tmp_path):
    samples = generate_samples(4, base_seed=20)
    path = tmp_path / "toys.yaml"
    save_toy_samples(samples, path)
    assert load_toy_samples(path) == samples
    # One JSON record per line between the brackets.
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "[" and lines[-1] == "]"
    assert [json.loads(line.rstrip(",")) for line in lines[1:-1]] == [
        toy_sample_to_dict(s) for s in samples
    ]


# Printable text, characters outside the BMP included: ensure_ascii would
# write those as surrogate-pair escapes, which libyaml rejects.
_PRINTABLE = st.text(
    st.characters(blacklist_categories=("Cc", "Cf", "Cs", "Co", "Cn", "Zl", "Zp")),
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(ids=st.lists(_PRINTABLE, min_size=1, max_size=4, unique=True), city=_PRINTABLE)
def test_saved_file_stays_yaml(tmp_path_factory, ids, city):
    samples = [
        ToySample(
            id=sample_id,
            days=1,
            budget=50,
            options=((ToyOption(sample_id, 10, city), ToyOption("a12", 20, "B")),),
            route_rule=frozenset({(city, "B")}),
        )
        for sample_id in ids
    ]
    path = tmp_path_factory.mktemp("toys") / "toys.yaml"
    save_toy_samples(samples, path)
    text = path.read_text(encoding="utf-8")
    assert yaml.safe_load(text) == json.loads(text)
    assert load_toy_samples(path) == samples


def test_saved_dataset_loads_without_libyaml(tmp_path, monkeypatch):
    samples = generate_samples(30, base_seed=5)
    path = tmp_path / "toys.yaml"
    save_toy_samples(samples, path)

    def no_yaml(*args, **kwargs):
        raise AssertionError("a saved dataset must not reach the YAML parser")

    monkeypatch.setattr(yaml, "load", no_yaml)
    assert load_toy_samples(path) == samples


def _record(cost: str) -> str:
    return (
        '[{"id": "x", "days": 1, "budget": 50, "options": '
        f'[[{{"id": "a11", "cost": {cost}, "city": "A"}}]], "routes": []}}]'
    )


@pytest.mark.parametrize("text", [
    yaml.safe_dump([toy_sample_to_dict(generate_sample(2))], sort_keys=False),
    _record("12"),
    _record("12.5"),
    _record("1e3"),
    _record("NaN"),
    _record("Infinity"),
    _record("-Infinity"),
], ids=["block-yaml", "int", "float", "exponent", "nan", "infinity", "minus-infinity"])
def test_load_matches_libyaml(tmp_path, text):
    """Whatever the format, loading gives libyaml's samples or its error."""
    path = tmp_path / "toys.yaml"
    path.write_text(text, encoding="utf-8")

    def outcome(read):
        try:
            return read()
        except ValueError as exc:
            return ("ValueError", str(exc))

    expected = outcome(lambda: [
        toy_sample_from_dict(row) for row in yaml.load(text, Loader=yaml.SafeLoader)
    ])
    assert outcome(lambda: load_toy_samples(path)) == expected


def test_malformed_record_rejected():
    with pytest.raises(ValueError, match="malformed"):
        toy_sample_from_dict({"id": "x", "days": 1})


@pytest.mark.parametrize("field", ["cost", "budget", "days"])
def test_infinite_number_is_malformed(field):
    record = toy_sample_to_dict(generate_sample(0))
    if field == "cost":
        record["options"][0][0]["cost"] = float("inf")
    else:
        record[field] = float("inf")
    with pytest.raises(ValueError, match="malformed toy sample record"):
        toy_sample_from_dict(record)


@pytest.mark.parametrize("field, value", [
    ("days", 1.9), ("budget", 31.9), ("cost", 12.7), ("cost", True),
    ("days", True), ("budget", "31"), ("cost", "12"), ("budget", None),
], ids=["float-days", "float-budget", "float-cost", "bool-cost", "bool-days",
        "str-budget", "str-cost", "null-budget"])
def test_number_that_is_no_int_is_malformed(field, value):
    # The checker grades against the file's numbers, so none is coerced.
    record = toy_sample_to_dict(generate_sample(0))
    (record["options"][0][0] if field == "cost" else record)[field] = value
    with pytest.raises(
        ValueError,
        match=re.escape(f"malformed toy sample record: {field} must be an integer, "
                        f"not {value!r}"),
    ):
        toy_sample_from_dict(record)


@pytest.mark.parametrize("key, value", [
    ("id", None), ("id", 7), ("option id", 1.5), ("option id", None),
    ("city", ["A"]), ("city", True),
], ids=["null-id", "int-id", "float-option-id", "null-option-id", "list-city",
        "bool-city"])
def test_name_that_is_no_string_is_malformed(key, value):
    # An id names a transcript file and a city is matched against the
    # routes, so none is coerced: null would load as the id 'None'.
    record = toy_sample_to_dict(generate_sample(0))
    target = record if key == "id" else record["options"][0][0]
    target[key.removeprefix("option ")] = value
    with pytest.raises(
        ValueError,
        match=re.escape(f"malformed toy sample record: {key.removeprefix('option ')} "
                        f"must be a string, not {value!r}"),
    ):
        toy_sample_from_dict(record)


@pytest.mark.parametrize("route", [
    ["A", 1], [None, "B"], ["A"], ["A", "B", "C"], "AB", {"A": "B"},
], ids=["int-end", "null-end", "one-end", "three-ends", "string", "mapping"])
def test_route_that_is_no_pair_of_strings_is_malformed(route):
    record = toy_sample_to_dict(generate_sample(0))
    record["routes"].append(route)
    with pytest.raises(
        ValueError,
        match=re.escape("malformed toy sample record: a route must be a list of two "
                        f"strings, not {route!r}"),
    ):
        toy_sample_from_dict(record)


def test_duplicate_ids_rejected(tmp_path):
    sample = generate_sample(0)
    path = tmp_path / "toys.yaml"
    save_toy_samples([sample, sample], path)
    with pytest.raises(ValueError, match="unique"):
        load_toy_samples(path)


# --- prompt-facing surface ------------------------------------------------------------


def test_sample_slots_layout():
    slots = sample_slots(TWO_DAY)
    assert slots["task_id"] == "t"
    assert slots["days"] == "2"
    assert slots["budget"] == "50"
    assert slots["options"] == (
        "Day 1: a11 (cost 20, city A); a12 (cost 40, city B)\n"
        "Day 2: a21 (cost 25, city A); a22 (cost 10, city C)"
    )
    assert slots["routes"] == "A->A, B->C"


def test_to_task_sample_carries_slots():
    task = to_task_sample(TWO_DAY)
    assert task.id == "t"
    assert task.slot_values == sample_slots(TWO_DAY)


def test_sample_render_uses_prompt_slots():
    prompt = parse_prompt("Here is the task:\nTask id: {task_id}\nBudget: {budget}\n")
    text = fill_slots(prompt, TWO_DAY.slot_values)
    assert "Task id: t" in text
    assert "Budget: 50" in text


@pytest.mark.parametrize("seed", range(0, 10))
def test_toy_and_task_samples_render_the_same_message(seed):
    # Train may run on either form of a sample and eval on the toy form;
    # both must send the same round-1 bytes.
    prompt = parse_prompt(
        "You plan trips.\n\nHere is the task:\nTask id: {task_id}\nDays: {days}\n"
        "Budget: {budget}\nOptions:\n{options}\nRoutes: {routes}\n"
    )
    sample = generate_sample(seed)
    assert fill_slots(prompt, sample.slot_values) == fill_slots(
        prompt, to_task_sample(sample).slot_values
    )


# --- plan formatting and parsing --------------------------------------------------------


def test_format_plan_layout():
    assert format_plan(("a11", "a21")) == "PLAN:\nDay 1: a11\nDay 2: a21"


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60)
def test_format_parse_round_trip_on_generated_plans(seed):
    sample = generate_sample(seed)
    for plan in enumerate_plans(sample):
        assert parse_plan_answer(format_plan(plan)) == plan


def test_parse_takes_last_plan_block():
    text = "PLAN:\nDay 1: wrong\n\nreconsidering...\n\nPLAN:\nDay 1: right\n"
    assert parse_plan_answer(text) == ("right",)


def test_parse_skips_blank_lines_and_stops_at_prose():
    text = "PLAN:\n\nDay 1: a11\n\nDay 2: a21\nThat is my plan.\nDay 3: zzz\n"
    assert parse_plan_answer(text) == ("a11", "a21")


def test_parse_accepts_surrounding_chatter():
    text = "Let me think.\nPLAN:\nDay 1: a11\nDay 2: a22\n\nDone."
    assert parse_plan_answer(text) == ("a11", "a22")


def test_parse_rejects_missing_marker():
    with pytest.raises(UnparseableAnswerError, match="PLAN"):
        parse_plan_answer("Day 1: a11")


def test_parse_rejects_bad_day_numbering():
    with pytest.raises(UnparseableAnswerError, match="day lines must run"):
        parse_plan_answer("PLAN:\nDay 2: a11\n")


def test_parse_rejects_empty_block():
    with pytest.raises(UnparseableAnswerError, match="Day k"):
        parse_plan_answer("PLAN:\nnothing structured\n")
