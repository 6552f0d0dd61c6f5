"""The names the offline benchmark (``perfbench/``) calls still exist.

The benchmark imports the program's functions by name, reads attributes
of the results they return, and its traced run wraps module attributes by
name, so a rename would otherwise show up only as a failed benchmark run.
"""
import importlib
import inspect
import sys
from pathlib import Path

import pytest

from reprompt.actor import NoFeedback

BENCH = Path(__file__).resolve().parent.parent / "perfbench"

# (module, names) as perfbench/child.py and perfbench/inputs.py import them.
IMPORTED = [
    ("reprompt.cli", ()),
    ("reprompt.actor", ("feedback_generator",)),
    ("reprompt.config", ("load_config",)),
    ("reprompt.gateway", ("ScriptedGateway", "HttpGateway", "load_script")),
    ("reprompt.evaluator", ("evaluate",)),
    ("reprompt.prompt_model", ("parse_prompt",)),
    ("reprompt.trainer", ("train", "verify_chain", "replay_lineage")),
    ("reprompt.toy_task", (
        "ToyAdapter", "load_toy_samples", "to_task_sample", "best_answer",
        "blind_answer", "generate_samples", "save_toy_samples",
        "toy_sample_to_dict",
    )),
]

# (module, record, attributes) that perfbench/child.py and perfbench/tracing.py
# read off the program's results and requests.
READ = [
    ("reprompt.trainer", "TrainResult", ("versions", "episodes_run", "calls_used")),
    ("reprompt.evaluator", "EvalReport", ("records",)),
    ("reprompt.evaluator", "EvalRecord", ("sample_id", "delivered", "passed", "rounds_used")),
    ("reprompt.actor", "Transcript", ("rounds_used",)),
    ("reprompt.optimizer", "PromptUpdate", ("changed",)),
    ("reprompt.gateway", "ChatRequest", ("messages",)),
    ("reprompt.gateway", "Message", ("role", "content")),
]


@pytest.fixture
def bench_path():
    sys.path.insert(0, str(BENCH))
    try:
        yield
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("module, names", IMPORTED, ids=[m for m, _ in IMPORTED])
def test_imported_names_resolve(module, names):
    loaded = importlib.import_module(module)
    for name in names:
        assert hasattr(loaded, name), f"{module}.{name}"


@pytest.mark.parametrize("module, record, names", READ, ids=[r for _, r, _ in READ])
def test_read_attributes_resolve(module, record, names):
    loaded = getattr(importlib.import_module(module), record)
    for name in names:
        assert hasattr(loaded, name), f"{record}.{name}"


def test_call_shapes():
    from reprompt.actor import feedback_generator
    from reprompt.evaluator import evaluate
    from reprompt.trainer import replay_lineage, train

    assert {"gateway", "model", "adapter", "samples_by_id", "temperature", "seed"} <= set(
        inspect.signature(feedback_generator).parameters
    )
    assert {"gateway", "model", "feedback", "max_rounds", "temperature", "seed"} <= set(
        inspect.signature(evaluate).parameters
    )
    assert {"config", "gateway", "feedback", "run_dir", "dataset_src", "script_src"} <= set(
        inspect.signature(train).parameters
    )
    inspect.signature(replay_lineage).bind("run_dir")


def test_traced_names_resolve(bench_path):
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    counts = {"episodes": 0, "rounds": 0, "accepted": 0}
    tracing.install(tracer, NoFeedback(), counts)
    try:
        assert tracer.missing == []
    finally:
        tracer.restore()
