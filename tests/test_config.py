import configparser
import re
from pathlib import Path

import pytest

from reprompt.config import (
    ConfigError,
    EngineConfig,
    load_config,
    parse_config,
)
from reprompt.prompt_model import DEFAULT_SEGMENTATION

README = Path(__file__).resolve().parent.parent / "README.md"


def test_empty_text_gives_defaults():
    cfg = parse_config("")
    assert cfg == EngineConfig()
    assert cfg.train.epochs == 1
    assert cfg.train.convergence_patience is None
    assert cfg.train.call_budget is None
    assert cfg.gateway.backend == "scripted"
    assert cfg.task.kind == "toy"
    assert cfg.guards.repair_attempts == 3


def test_full_config():
    cfg = parse_config(
        """
        [train]
        epochs = 2
        batch_size = 3
        max_rounds = 2
        parallelism = 4
        convergence_patience = 1
        call_budget = 50
        feedback = rulecheck
        seed = 7

        [gateway]
        backend = scripted
        model = planner
        summarizer_model = critic
        temperature = 0.5

        [task]
        kind = toy
        required_tokens = ["PLAN:"]
        format_open = ["Your final answer"]

        [guards]
        extra_placeholder_patterns = ["\\\\[\\\\[.*?\\\\]\\\\]"]
        repair_attempts = 2
        optimizer_attempts = 4
        """
    )
    assert cfg.train.epochs == 2
    assert cfg.train.batch_size == 3
    assert cfg.train.convergence_patience == 1
    assert cfg.train.call_budget == 50
    assert cfg.train.feedback == "rulecheck"
    assert cfg.train.seed == 7
    assert cfg.gateway.model == "planner"
    assert cfg.gateway.temperature == 0.5
    assert cfg.task.required_tokens == ("PLAN:",)
    assert cfg.task.format_open == ("Your final answer",)
    assert cfg.guards.repair_attempts == 2
    assert cfg.guards.optimizer_attempts == 4


def test_model_cascade():
    cfg = parse_config("[gateway]\nmodel = planner\n")
    assert cfg.gateway.summarizer_model == "planner"
    assert cfg.gateway.optimizer_model == "planner"
    assert cfg.gateway.repair_model == "planner"

    cfg = parse_config("[gateway]\nmodel = planner\nsummarizer_model = critic\n")
    assert cfg.gateway.summarizer_model == "critic"
    # Downstream roles inherit from the nearest override.
    assert cfg.gateway.optimizer_model == "critic"
    assert cfg.gateway.repair_model == "critic"

    cfg = parse_config(
        "[gateway]\nmodel = planner\noptimizer_model = rewriter\n"
    )
    assert cfg.gateway.summarizer_model == "planner"
    assert cfg.gateway.optimizer_model == "rewriter"
    assert cfg.gateway.repair_model == "rewriter"


def test_segmentation_merges_overrides_onto_defaults():
    cfg = parse_config('[task]\nformat_open = ["Your final answer"]\n')
    seg = cfg.task.segmentation()
    assert seg.format_open == ("Your final answer",)
    assert seg.examples_open == DEFAULT_SEGMENTATION.examples_open
    assert seg.task_open == DEFAULT_SEGMENTATION.task_open


def test_empty_values_fall_back_to_defaults():
    cfg = parse_config("[train]\nepochs =\nfeedback =\n")
    assert cfg.train.epochs == 1
    assert cfg.train.feedback == "none"


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[metrics]\nx = 1\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[train]\nepoch = 2\n")


def test_bad_integer_rejected():
    with pytest.raises(ConfigError, match="integer"):
        parse_config("[train]\nepochs = three\n")


def test_out_of_range_integer_rejected():
    with pytest.raises(ConfigError, match=">= 1"):
        parse_config("[train]\nbatch_size = 0\n")


def test_seed_zero_is_allowed():
    assert parse_config("[train]\nseed = 0\n").train.seed == 0


def test_bad_feedback_tag_rejected():
    with pytest.raises(ConfigError, match="feedback"):
        parse_config("[train]\nfeedback = psychic\n")


def test_bad_backend_rejected():
    with pytest.raises(ConfigError, match="backend"):
        parse_config("[gateway]\nbackend = carrier-pigeon\n")


def test_unknown_task_kind_rejected():
    with pytest.raises(ConfigError, match=r"\[task\] kind must be one of"):
        parse_config("[task]\nkind = tyo\n")


def test_negative_temperature_rejected():
    with pytest.raises(ConfigError, match="temperature"):
        parse_config("[gateway]\ntemperature = -1\n")


def test_non_numeric_temperature_rejected():
    with pytest.raises(ConfigError, match="temperature must be a number, got 'abc'"):
        parse_config("[gateway]\ntemperature = abc\n")


@pytest.mark.parametrize("raw", ["nan", "NaN", "inf", "-inf", "1e999"])
def test_non_finite_temperature_rejected(raw):
    with pytest.raises(ConfigError, match="temperature must be finite"):
        parse_config(f"[gateway]\ntemperature = {raw}\n")


def test_list_values_must_be_json_arrays():
    with pytest.raises(ConfigError, match="JSON array"):
        parse_config("[task]\nrequired_tokens = PLAN:\n")
    with pytest.raises(ConfigError, match="JSON array"):
        parse_config('[task]\nrequired_tokens = [1, 2]\n')


def test_malformed_ini_rejected():
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config("not an ini file at all [")


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[train]\nepochs = 5\n")
    assert load_config(path).train.epochs == 5


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.cfg")


def readme_config() -> str:
    """The INI block of README's configuration section."""
    section = README.read_text(encoding="utf-8").split("## Configuration", 1)[1]
    return re.search(r"```ini\n(.*?)```", section, re.S).group(1)


def test_readme_example_parses():
    cfg = parse_config(readme_config())
    assert cfg.train.epochs == 2
    assert cfg.train.convergence_patience == 2
    assert cfg.train.call_budget == 100
    assert cfg.train.feedback == "rulecheck"
    # The empty model keys cascade from the summarizer's.
    assert cfg.gateway.optimizer_model == cfg.gateway.repair_model == "critic"
    assert cfg.gateway.base_url is None
    assert cfg.task.required_tokens == ("PLAN:",)
    assert cfg.task.segmentation() == DEFAULT_SEGMENTATION._replace(
        format_open=("Your final answer",)
    )
    assert cfg.guards == EngineConfig().guards


def test_readme_example_lists_every_key():
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(readme_config())
    for name, settings in EngineConfig()._asdict().items():
        assert set(parser[name]) == set(settings._fields), name
