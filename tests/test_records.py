"""Records are immutable NamedTuples, and five of them check their values.

A validating record checks in ``__new__``. ``_replace`` and ``_make`` build
through ``__new__`` too, so no way of making one skips the checks.
"""
import re
from pathlib import Path

import pytest

import reprompt
from reprompt.gateway import ChatRequest, Message, Role
from reprompt.prompt_model import PromptDocument, PromptSegment, SegmentKind
from reprompt.summarizer import FocusCase, FocusPoint
from reprompt.toy_task import MAX_DAYS, ToyOption, ToySample

USER = Message(Role.USER, "hi")
PREAMBLE = PromptSegment(SegmentKind.PREAMBLE, "Plan a trip.\n")
STEPS = PromptSegment(SegmentKind.STEP_INSTRUCTIONS, "1. Check the budget.\n")
OPTION = ToyOption("a1", 10, "Oslo")

REQUEST = {"messages": (USER,), "model": "m", "temperature": 0.0, "seed": 1}
DOCUMENT = {"segments": (PREAMBLE, STEPS), "version": 1}
FAILURE = {"case": FocusCase.FAILURE_REASON, "text": "the budget is ignored"}
NO_REASON = {"case": FocusCase.NO_GENERAL_REASON, "text": ""}
SAMPLE = {
    "id": "toy-1", "days": 1, "budget": 10, "options": ((OPTION,),),
    "route_rule": frozenset(),
}

# (record, valid values, field, invalid value, message)
INVALID = [
    (ChatRequest, REQUEST, "messages", (), "a request needs at least one message"),
    (ChatRequest, REQUEST, "messages", (Message(Role.ASSISTANT, "hi"),),
     "the first message must come from system or user"),
    (ChatRequest, REQUEST, "temperature", -0.5, "temperature must be non-negative"),
    (PromptSegment, {"kind": SegmentKind.PREAMBLE, "text": "x"}, "text", "",
     "segment text must be non-empty"),
    (PromptDocument, DOCUMENT, "segments", (),
     "a prompt document needs at least one segment"),
    (PromptDocument, DOCUMENT, "segments", (STEPS, PREAMBLE, STEPS),
     "at most one step instruction segment is allowed"),
    (PromptDocument, DOCUMENT, "version", -1, "version must be non-negative"),
    (FocusPoint, FAILURE, "text", "", "focus text must be non-empty"),
    (FocusPoint, NO_REASON, "text", "x", "the no-general-reason case carries empty text"),
    (ToySample, SAMPLE, "days", 0, f"days must be between 1 and {MAX_DAYS}"),
    (ToySample, SAMPLE, "days", MAX_DAYS + 1, f"days must be between 1 and {MAX_DAYS}"),
    (ToySample, SAMPLE, "options", (), "one option list per day is required"),
]


@pytest.mark.parametrize("case", INVALID, ids=[f"{c[0].__name__}-{c[2]}" for c in INVALID])
def test_invalid_value_raises_however_the_record_is_built(case):
    record, valid, field, value, message = case
    values = {**valid, field: value}
    exact = f"^{re.escape(message)}$"
    with pytest.raises(ValueError, match=exact):
        record(**values)
    with pytest.raises(ValueError, match=exact):
        record(*(values[name] for name in record._fields))
    with pytest.raises(ValueError, match=exact):
        record(**valid)._replace(**{field: value})
    with pytest.raises(ValueError, match=exact):
        record._make(values[name] for name in record._fields)


@pytest.mark.parametrize(
    "record, valid",
    [(ChatRequest, REQUEST), (PromptDocument, DOCUMENT), (FocusPoint, FAILURE),
     (FocusPoint, NO_REASON), (ToySample, SAMPLE)],
    ids=["ChatRequest", "PromptDocument", "FocusPoint-failure", "FocusPoint-no-reason",
         "ToySample"],
)
def test_valid_values_build_the_same_record_every_way(record, valid):
    built = record(**valid)
    assert type(built) is record
    assert built._asdict() == valid
    assert record(*built) == built
    assert type(built._replace()) is record
    assert built._replace() == built
    assert record._make(built) == built


def _records() -> list[type]:
    """Every NamedTuple class defined in a ``reprompt`` module."""
    found = []
    for path in sorted(Path(reprompt.__file__).parent.glob("*.py")):
        module = __import__(f"reprompt.{path.stem}", fromlist=["_"])
        found += [
            obj for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, tuple)
            and hasattr(obj, "_fields") and obj.__module__ == module.__name__
        ]
    return found


RECORDS = _records()


def test_records_are_found():
    names = {r.__name__ for r in RECORDS}
    assert {"ChatRequest", "Caller", "EngineConfig", "StepEdit", "Transcript"} <= names


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_a_record_cannot_be_assigned_to(record):
    # tuple.__new__ skips the checks, so every record is built the same way.
    instance = tuple.__new__(record, (None,) * len(record._fields))
    with pytest.raises(AttributeError):
        setattr(instance, record._fields[0], "changed")
    with pytest.raises(AttributeError):
        instance.not_a_field = "added"
    assert instance == (None,) * len(record._fields)
