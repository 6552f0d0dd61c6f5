"""Records are plain, immutable NamedTuples that check nothing themselves.

Outside data is checked where it enters, before a record is built from it:
a dataset row in ``toy_task.toy_sample_from_dict``, a summarizer reply in
``summarizer.parse_conclusion``, a run directory's version records in
``rundir.advance`` and a config file in ``config.parse_config``.
Every other record is built by the engine from values that passed them.
"""
from pathlib import Path

import pytest

import reprompt
from reprompt.gateway import ChatRequest, Message, Role
from reprompt.prompt_model import PromptDocument, PromptSegment, SegmentKind
from reprompt.summarizer import FocusCase, FocusPoint
from reprompt.toy_task import ToyOption, ToySample

USER = Message(Role.USER, "hi")
PREAMBLE = PromptSegment(SegmentKind.PREAMBLE, "Plan a trip.\n")
STEPS = PromptSegment(SegmentKind.STEP_INSTRUCTIONS, "1. Check the budget.\n")
OPTION = ToyOption("a1", 10, "Oslo")

REQUEST = {"messages": (USER,), "model": "m", "temperature": 0.0, "seed": 1}
DOCUMENT = {"segments": (PREAMBLE, STEPS)}
FAILURE = {"case": FocusCase.FAILURE_REASON, "text": "the budget is ignored"}
NO_REASON = {"case": FocusCase.NO_GENERAL_REASON, "text": ""}
SAMPLE = {
    "id": "toy-1", "days": 1, "budget": 10, "options": ((OPTION,),),
    "route_rule": frozenset(),
}


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
    instance = record._make((None,) * len(record._fields))
    with pytest.raises(AttributeError):
        setattr(instance, record._fields[0], "changed")
    with pytest.raises(AttributeError):
        instance.not_a_field = "added"
    assert instance == (None,) * len(record._fields)
