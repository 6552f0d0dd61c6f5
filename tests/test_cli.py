"""Command line entry points, driven through main(argv)."""
import hashlib
import http.server
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import yaml

import pytest

from conftest import GOLDEN, TOY_SEG, LoopbackServer, clear_proxies, entry, serving, write_script
from reprompt import cli, gateway, prompts
from reprompt.cli import main
from reprompt.config import parse_config
from reprompt.evaluator import EvalReport
from reprompt.gateway import (
    API_KEY_ENV,
    BASE_URL_ENV,
    ChatRequest,
    Message,
    Role,
    ScriptedGateway,
    load_script,
)
from reprompt.prompt_model import inject_default_steps, parse_prompt, render_prompt
from reprompt.toy_task import best_answer, format_plan, load_toy_samples, save_toy_samples

CFG = str(GOLDEN / "run.cfg")
CFG_TEXT = (GOLDEN / "run.cfg").read_text(encoding="utf-8")

# A prompt whose examples hold a numbered list ahead of the real step
# block. Only the marker overrides in MARKER_CFG keep that list inside the
# examples; under the default markers it would be taken for the steps.
MARKER_PROMPT = """\
You are a day-planner. Pick one activity per day within the budget.

EXAMPLE START
Task id: toy-demo
1. List each day's options.
2. Keep the total cost within the budget.
PLAN:
Day 1: x11
EXAMPLE END

Let's solve it step by step:
1. Read the task carefully.
2. Then, produce the solution to the task.

Your final answer must end with a block starting with "PLAN:".

TASK:
Task id: {task_id}
Days: {days}
Budget: {budget}
Options:
{options}
Routes: {routes}
"""

MARKER_CFG = """\
[train]
epochs = 1
batch_size = 3
feedback = none
seed = 7

[gateway]
backend = scripted
model = planner

[task]
kind = toy
required_tokens = ["PLAN:"]
examples_open = ["EXAMPLE START"]
examples_close = ["EXAMPLE END"]
task_open = ["TASK:"]
format_open = ["Your final answer"]
"""


def golden_manifest():
    return yaml.safe_load((GOLDEN / "manifest.yaml").read_text())


def tree_hashes(run_dir):
    return {
        p.relative_to(run_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(run_dir.rglob("*"))
        if p.is_file()
    }


def golden_train_argv(out_dir):
    return [
        "train",
        "--config", CFG,
        "--prompt", str(GOLDEN / "initial_prompt.txt"),
        "--dataset", str(GOLDEN / "dataset.yaml"),
        "--script", str(GOLDEN / "script.yaml"),
        "--out", str(out_dir),
    ]


def generic_train_argv(tmp_path, ids, train_cfg=""):
    """A generic-task run whose samples carry ``ids``: one answer per
    sample and a summarizer that finds no general reason."""
    cfg = tmp_path / "generic.cfg"
    cfg.write_text(
        f"[train]\nepochs = 2\nbatch_size = 2\n{train_cfg}\n[task]\nkind = generic\n",
        encoding="utf-8",
    )
    (tmp_path / "prompt.txt").write_text("Do the task.\n\nTask id: {task_id}\n")
    dataset = tmp_path / "dataset.json"
    dataset.write_text(
        json.dumps([{"id": i, "slot_values": {"task_id": i}} for i in ids]),
        encoding="utf-8",
    )
    script = write_script(tmp_path / "script.yaml", [
        entry(["Task id: "], "done", roles=["user"]),
        entry(["You are a summarizer"], f"{prompts.CONCLUSION_MARKER}no general reason"),
    ])
    return [
        "train", "--config", str(cfg), "--prompt", str(tmp_path / "prompt.txt"),
        "--dataset", str(dataset), "--script", script, "--out", str(tmp_path / "run"),
    ]


# Ids that cannot name a transcript file (transcripts/eE/bB/<id>.txt).
BAD_SAMPLE_IDS = ["../../../escaped", "", ".", "..", "a/b", "a\\b", "a\0b"]


class TestTrain:
    def test_golden_run(self, tmp_path, capsys):
        assert main(golden_train_argv(tmp_path / "run")) == 0
        out = capsys.readouterr().out
        assert "final prompt: v2" in out
        assert "versions written: v0, v1, v2" in out
        assert "episodes: 6, gateway calls: 14, epochs: 2, converged: no" in out
        assert (tmp_path / "run" / "prompts" / "v2.txt").exists()

    def test_missing_prompt_file(self, tmp_path, capsys):
        argv = golden_train_argv(tmp_path / "run")
        argv[argv.index("--prompt") + 1] = str(tmp_path / "absent.txt")
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        argv = golden_train_argv(tmp_path / "run")
        argv[argv.index("--config") + 1] = str(tmp_path / "absent.cfg")
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        (
            "- id: x\n  days: 1\n  budget: 50\n  routes: []\n"
            "  options: [[{id: a11, cost: .inf, city: A}]]\n",
            "error: malformed toy sample record: cost must be an integer, not inf\n",
        ),
        ("[unclosed\n", "error: invalid YAML: "),
        (
            "- id: x\n  days: 4\n  budget: 50\n  routes: []\n"
            "  options: [[{id: a11, cost: 5, city: A}]]\n",
            "error: malformed toy sample record: days must be between 1 and 3\n",
        ),
        ("[]\n", "error: {dataset}: expected a non-empty list of toy samples\n"),
        (
            "- id: x\n  days: 1\n  budget: 31.9\n  routes: []\n"
            "  options: [[{id: a11, cost: 5, city: A}]]\n",
            "error: malformed toy sample record: budget must be an integer, not 31.9\n",
        ),
        (
            "- id: null\n  days: 1\n  budget: 50\n  routes: []\n"
            "  options: [[{id: a11, cost: 5, city: A}]]\n",
            "error: malformed toy sample record: id must be a string, not None\n",
        ),
    ], ids=["infinite-cost", "not-yaml", "days-out-of-range", "empty", "float-budget",
            "null-id"])
    def test_unreadable_dataset_is_an_error(self, tmp_path, capsys, text, message):
        dataset = tmp_path / "dataset.yaml"
        dataset.write_text(text, encoding="utf-8")
        argv = golden_train_argv(tmp_path / "run")
        argv[argv.index("--dataset") + 1] = str(dataset)
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(message.format(dataset=dataset))

    def generic_argv(self, tmp_path, feedback, dataset):
        cfg = tmp_path / "generic.cfg"
        cfg.write_text(
            f"[train]\nfeedback = {feedback}\n\n[task]\nkind = generic\n",
            encoding="utf-8",
        )
        (tmp_path / "dataset.yaml").write_text(dataset, encoding="utf-8")
        argv = golden_train_argv(tmp_path / "run")
        argv[argv.index("--config") + 1] = str(cfg)
        argv[argv.index("--dataset") + 1] = str(tmp_path / "dataset.yaml")
        return argv

    @pytest.mark.parametrize("slots", ["[x]", "x", "[]", "false"],
                             ids=["list", "string", "empty-list", "false"])
    def test_generic_slot_values_must_be_a_mapping(self, tmp_path, capsys, slots):
        argv = self.generic_argv(tmp_path, "none", f"- id: a\n  slot_values: {slots}\n")
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'dataset.yaml'}: sample a: "
            "slot_values must be a mapping\n"
        )

    @pytest.mark.parametrize("dataset, message", [
        ("- id: null\n", "sample id must be a string, not None"),
        (
            "- id: a\n  slot_values: {task_id: [A, B]}\n",
            "sample a: slot value task_id must be a string or a number, not ['A', 'B']",
        ),
    ], ids=["null-id", "list-slot"])
    def test_generic_malformed_record_is_an_error(self, tmp_path, capsys, dataset, message):
        argv = self.generic_argv(tmp_path, "none", dataset)
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'dataset.yaml'}: {message}\n"
        )
        assert not (tmp_path / "run").exists()

    def test_rulecheck_needs_the_toy_task(self, tmp_path, capsys):
        argv = self.generic_argv(
            tmp_path, "rulecheck", "- id: a\n  slot_values: {task_id: a}\n"
        )
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: [train] feedback = rulecheck needs [task] kind = toy, "
            "the task with a rule checker\n"
        )
        assert not (tmp_path / "run").exists()

    def test_unknown_task_kind_writes_nothing(self, tmp_path, capsys):
        # Without rulecheck, which itself needs the toy task, only the
        # config reader stands between a misspelt kind and a run directory.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            CFG_TEXT.replace("feedback = rulecheck", "feedback = none")
            .replace("kind = toy", "kind = tyo"),
            encoding="utf-8",
        )
        argv = golden_train_argv(tmp_path / "run")
        argv[argv.index("--config") + 1] = str(cfg)
        assert main(argv) == 1
        assert "[task] kind must be one of ['generic', 'toy'], got 'tyo'" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "run").exists()

    def test_toy_dataset_is_no_generic_dataset(self, tmp_path, capsys):
        # Under kind = generic a toy row's keys are not slot values: the
        # loader refuses the row before the run directory is made.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            CFG_TEXT.replace("feedback = rulecheck", "feedback = none")
            .replace("kind = toy", "kind = generic"),
            encoding="utf-8",
        )
        argv = golden_train_argv(tmp_path / "run")
        argv[argv.index("--config") + 1] = str(cfg)
        assert main(argv) == 1
        assert "sample toy-1: unknown key(s): budget, days, options, routes" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "run").exists()

    def test_scripted_backend_needs_script(self, tmp_path, capsys):
        argv = golden_train_argv(tmp_path / "run")
        i = argv.index("--script")
        del argv[i:i + 2]
        assert main(argv) == 1
        assert "needs --script" in capsys.readouterr().err

    def test_budget_exhaustion_is_engine_error(self, tmp_path, capsys):
        cfg = (GOLDEN / "run.cfg").read_text(encoding="utf-8")
        budget_cfg = tmp_path / "budget.cfg"
        budget_cfg.write_text(
            cfg.replace("seed = 42", "seed = 42\ncall_budget = 8"),
            encoding="utf-8",
        )
        argv = golden_train_argv(tmp_path / "run")
        argv[argv.index("--config") + 1] = str(budget_cfg)
        assert main(argv) == 2
        assert "engine error:" in capsys.readouterr().err

    def test_bare_step_item_is_recorded_as_insert(self, tmp_path, capsys):
        initial = (GOLDEN / "initial_prompt.txt").read_text(encoding="utf-8")
        v0 = render_prompt(inject_default_steps(parse_prompt(initial, TOY_SEG)))
        candidate = v0.replace("2. Then,", "2.\n3. Then,")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[train]\nepochs = 1\nbatch_size = 3\nfeedback = none\n\n"
            "[gateway]\nbackend = scripted\nmodel = planner\n\n"
            '[task]\nkind = toy\nformat_open = ["Your final answer"]\n',
            encoding="utf-8",
        )
        script = write_script(tmp_path / "script.yaml", [
            entry(["Task id: "], "PLAN:\nDay 1: a11\n", roles=["user"]),
            entry(
                ["You are a summarizer"],
                f"Budgets are ignored.\n{prompts.CONCLUSION_MARKER}check the budget.",
            ),
            entry(
                ["You are a prompt optimizer"],
                f"{prompts.FINAL_PROMPT_MARKER}\n{candidate}",
            ),
        ])
        argv = golden_train_argv(tmp_path / "run")
        argv[argv.index("--config") + 1] = str(cfg)
        argv[argv.index("--script") + 1] = script
        assert main(argv) == 0
        assert "final prompt: v1" in capsys.readouterr().out
        assert main(["inspect", "--out", str(tmp_path / "run")]) == 0
        v1_line = capsys.readouterr().out.splitlines()[1]
        assert v1_line.split()[::2] == ["v1", "InsertBefore(2)"]

    @pytest.mark.parametrize("stage", ["summarizer", "optimizer", "repair"])
    def test_failed_stage_call_is_named(self, tmp_path, capsys, stage):
        initial = (GOLDEN / "initial_prompt.txt").read_text(encoding="utf-8")
        v0 = render_prompt(inject_default_steps(parse_prompt(initial, TOY_SEG)))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[train]\nepochs = 1\nbatch_size = 1\nfeedback = none\n\n"
            "[gateway]\nbackend = scripted\nmodel = planner\n\n"
            '[task]\nkind = toy\nformat_open = ["Your final answer"]\n',
            encoding="utf-8",
        )
        # The summarizer answers two batches; the optimizer returns v0, or
        # a candidate with a placeholder that sends it to repair.
        candidate = v0 if stage != "repair" else v0.replace(
            "2. Then,", "2. Reuse <the original prompt>.\n3. Then,"
        )
        entries = [
            entry(["Task id: "], "PLAN:\nDay 1: a11\n", roles=["user"]),
            entry(
                ["You are a summarizer"],
                f"Budgets are ignored.\n{prompts.CONCLUSION_MARKER}check the budget.",
                max_uses=2 if stage == "summarizer" else None,
            ),
        ]
        if stage != "optimizer":
            entries.append(entry(
                ["You are a prompt optimizer"],
                f"{prompts.FINAL_PROMPT_MARKER}\n{candidate}",
            ))
        argv = golden_train_argv(tmp_path / "run")
        argv[argv.index("--config") + 1] = str(cfg)
        argv[argv.index("--script") + 1] = write_script(tmp_path / "script.yaml", entries)
        assert main(argv) == 2
        batch = 3 if stage == "summarizer" else 1
        assert capsys.readouterr().err == (
            f"engine error: {stage} call failed (epoch 1, batch {batch}): "
            "unscripted request\n"
        )
        assert main(["inspect", "--out", str(tmp_path / "run")]) == 0

    def test_empty_conclusion_line_is_a_failed_summary(self, tmp_path, capsys):
        # The epoch-1 summary and its retry are both the bare marker, so the
        # batch is recorded as a failed summary and the prompt stays v0.
        entries = yaml.safe_load((GOLDEN / "script.yaml").read_text(encoding="utf-8"))
        summary = next(
            e for e in entries
            if "You are a summarizer" in e["match"]["contains"] and e["match"].get("excludes")
        )
        summary["response"] = prompts.CONCLUSION_MARKER
        entries.append(entry(
            ["You are a summarizer", "previous reply did not contain"],
            prompts.CONCLUSION_MARKER,
            roles=["system", "user", "user"],
        ))
        argv = golden_train_argv(tmp_path / "run")
        argv[argv.index("--script") + 1] = write_script(tmp_path / "script.yaml", entries)
        assert main(argv) == 0, capsys.readouterr().err
        cursor = (tmp_path / "run" / "state.cursor").read_text(encoding="utf-8")
        batch = json.loads(cursor.splitlines()[0])
        assert batch["note"].startswith("summarizer failed:")
        assert "version" not in batch

    def test_failed_v0_write_is_trained_again(self, tmp_path, capsys, monkeypatch):
        run_dir = tmp_path / "run"
        write_text = Path.write_text

        def torn_v0(path, text, *args, **kwargs):
            if path.parent.name == "prompts" and path.name.startswith("v0"):
                write_text(path, text[:len(text) // 2], *args, **kwargs)
                raise OSError("disk full")
            return write_text(path, text, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", torn_v0)
        assert main(golden_train_argv(run_dir)) == 1
        monkeypatch.undo()
        assert main(golden_train_argv(run_dir)) == 0, capsys.readouterr().err
        assert tree_hashes(run_dir) == golden_manifest()["files"]
        assert main(["inspect", "--out", str(run_dir)]) == 0

    def test_reflexion_trains_without_the_checker(self, tmp_path, capsys, monkeypatch):
        # Reflexion feedback replaces the rule checker inside the loop: a
        # reflection holding the finish marker ends toy-1's episode after one
        # answer, and toy-3's reflection is fed back for a second answer.
        initial = (GOLDEN / "initial_prompt.txt").read_text(encoding="utf-8")
        v0 = render_prompt(inject_default_steps(parse_prompt(initial, TOY_SEG)))
        candidate = v0.replace("2. Then,", "2. Check the budget.\n3. Then,")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[train]\nepochs = 1\nbatch_size = 2\nmax_rounds = 2\n"
            "feedback = reflexion\nparallelism = 2\n\n"
            "[gateway]\nbackend = scripted\nmodel = planner\nsummarizer_model = critic\n\n"
            '[task]\nkind = toy\nrequired_tokens = ["PLAN:"]\n'
            'format_open = ["Your final answer"]\n',
            encoding="utf-8",
        )
        save_toy_samples(load_toy_samples(GOLDEN / "dataset.yaml")[:2], tmp_path / "toy.json")
        reflection = "You are a reflection assistant"
        script = write_script(tmp_path / "script.yaml", [
            entry(["Task id: toy-"], "PLAN:\nDay 1: a11\n", roles=["user"]),
            entry([reflection, "Task id: toy-1\n"], f"Fine. {prompts.DEFAULT_FINISH_MARKER}"),
            entry([reflection, "Task id: toy-3\n"], "Check the budget."),
            entry(
                ["Task id: toy-3\n", "Check the budget."], "PLAN:\nDay 1: a12\n",
                roles=["user", "assistant", "user"],
            ),
            entry(
                ["You are a summarizer"],
                f"Budgets are ignored.\n{prompts.CONCLUSION_MARKER}check the budget.",
            ),
            entry(
                ["You are a prompt optimizer"],
                f"{prompts.FINAL_PROMPT_MARKER}\n{candidate}",
            ),
        ])
        requests = []
        complete = ScriptedGateway.complete

        def recording(gateway, request):
            requests.append(request)
            return complete(gateway, request)

        monkeypatch.setattr(ScriptedGateway, "complete", recording)
        argv = golden_train_argv(tmp_path / "run")
        argv[argv.index("--config") + 1] = str(cfg)
        argv[argv.index("--dataset") + 1] = str(tmp_path / "toy.json")
        argv[argv.index("--script") + 1] = script
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "final prompt: v1" in out
        assert "episodes: 2, gateway calls: 7, epochs: 1" in out
        assert (tmp_path / "run" / "prompts" / "v1.txt").exists()
        reflections = [
            r for r in requests if r.messages[0].content == prompts.REFLECTION_SYSTEM_PROMPT
        ]
        assert len(reflections) == 2
        assert {r.model for r in reflections} == {"critic"}
        batch = tmp_path / "run" / "transcripts" / "e1" / "b1"
        toy1 = (batch / "toy-1.txt").read_text(encoding="utf-8")
        assert "terminal: finished_by_agent\nrounds: 1\n" in toy1
        toy3 = (batch / "toy-3.txt").read_text(encoding="utf-8")
        assert "terminal: max_rounds_exhausted\nrounds: 2\n" in toy3
        assert "[feedback / round 2]\nCheck the budget." in toy3
        assert main(["inspect", "--out", str(tmp_path / "run")]) == 0

    @pytest.mark.parametrize("bad", BAD_SAMPLE_IDS)
    def test_sample_id_that_is_no_file_name_is_rejected(self, tmp_path, capsys, bad):
        assert main(generic_train_argv(tmp_path, ["a", bad])) == 1
        assert f"error: sample id {bad!r} cannot name a transcript file" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "run").exists()

    def test_http_gateway_is_built_from_base_url_alone(self, tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "HttpGateway", lambda **kwargs: built.append(kwargs))
        config = parse_config(
            CFG_TEXT.replace("seed = 42", "seed = 42\nparallelism = 16").replace(
                "backend = scripted", "backend = scripted\nbase_url = http://127.0.0.1:1/v1"
            )
        )
        cli._build_gateway("http", None, config)
        assert built == [{"base_url": "http://127.0.0.1:1/v1"}]


class TestResume:
    def test_resume_completed_run_uses_copies(self, tmp_path, capsys):
        assert main(golden_train_argv(tmp_path / "run")) == 0
        capsys.readouterr()
        # No --dataset/--script: the copies inside the run dir are used.
        assert main(["resume", "--config", CFG, "--out", str(tmp_path / "run")]) == 0
        out = capsys.readouterr().out
        assert "final prompt: v2" in out
        assert "converged: no" in out

    @pytest.mark.parametrize("name", ["v07.txt", "v01.txt", "v00.txt", "v\u0663.txt"],
                             ids=["v07", "v01", "v00", "arabic-indic-3"])
    def test_other_spelling_of_a_version_name_is_a_stray_file(self, tmp_path, capsys, name):
        # The writer names version n "v{n}.txt" in ASCII digits without a
        # leading zero; any other spelling of a number is a stray file
        # that neither inspect nor resume reads or removes.
        run = tmp_path / "run"
        assert main(golden_train_argv(run)) == 0
        (run / "prompts" / name).write_text("stray\n", encoding="utf-8")
        before = tree_hashes(run)
        capsys.readouterr()
        assert main(["inspect", "--out", str(run)]) == 0
        assert "3 version(s); hash chain and replay both check out" in capsys.readouterr().out
        assert main(["resume", "--config", CFG, "--out", str(run)]) == 0
        assert "final prompt: v2" in capsys.readouterr().out
        assert tree_hashes(run) == before

    def edit_run_meta(self, run, **changes):
        meta = json.loads((run / "run.meta").read_text(encoding="utf-8"))
        meta.update(changes)
        (run / "run.meta").write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")

    @pytest.mark.parametrize("key, flag", [
        ("dataset", None), ("dataset", "--dataset"), ("script", None), ("script", "--script"),
    ], ids=["dataset", "dataset-given", "script", "script-given"])
    def test_input_copy_named_elsewhere_is_corrupt(self, tmp_path, capsys, key, flag):
        run = tmp_path / "run"
        assert main(golden_train_argv(run)) == 0
        self.edit_run_meta(run, **{key: "elsewhere.yaml"})
        before = tree_hashes(run)
        capsys.readouterr()
        assert main(["inspect", "--out", str(run)]) == 2
        argv = ["resume", "--config", CFG, "--out", str(run)]
        if flag:
            argv += [flag, str(GOLDEN / f"{key}.yaml")]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"engine error: {run / 'run.meta'} records {key} 'elsewhere.yaml'; "
            f"only '{key}.yaml' or null is written"
        ] * 2
        assert tree_hashes(run) == before

    def test_null_script_leaves_a_scripted_resume_without_one(self, tmp_path, capsys):
        # script.yaml is still in the directory, but run.meta says train
        # copied no script, so resume does not take it.
        run = tmp_path / "run"
        assert main(golden_train_argv(run)) == 0
        self.edit_run_meta(run, script=None, script_sha256=None)
        before = tree_hashes(run)
        capsys.readouterr()
        assert main(["resume", "--config", CFG, "--out", str(run)]) == 1
        assert capsys.readouterr().err == "error: the scripted backend needs --script\n"
        assert tree_hashes(run) == before
        assert main(["inspect", "--out", str(run)]) == 0

    def test_null_dataset_needs_the_dataset_flag(self, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(golden_train_argv(run)) == 0
        self.edit_run_meta(run, dataset=None, dataset_sha256=None)
        capsys.readouterr()
        assert main(["resume", "--config", CFG, "--out", str(run)]) == 1
        assert capsys.readouterr().err == (
            f"error: {run} holds no dataset copy; resume needs --dataset\n"
        )
        argv = ["resume", "--config", CFG, "--out", str(run),
                "--dataset", str(GOLDEN / "dataset.yaml")]
        assert main(argv) == 0
        assert "final prompt: v2" in capsys.readouterr().out

    def test_resume_after_budget_cut(self, tmp_path, capsys):
        cfg = (GOLDEN / "run.cfg").read_text(encoding="utf-8")
        budget_cfg = tmp_path / "budget.cfg"
        budget_cfg.write_text(
            cfg.replace("seed = 42", "seed = 42\ncall_budget = 8"),
            encoding="utf-8",
        )
        argv = golden_train_argv(tmp_path / "run")
        argv[argv.index("--config") + 1] = str(budget_cfg)
        assert main(argv) == 2
        capsys.readouterr()
        assert main(["resume", "--config", CFG, "--out", str(tmp_path / "run")]) == 0
        out = capsys.readouterr().out
        assert "final prompt: v2" in out
        assert "gateway calls: 14" in out

    def test_epoch_that_changed_the_prompt_is_not_taken_for_convergence(
        self, tmp_path, capsys
    ):
        # The budget cuts the run after epoch 1, which wrote v1. The resumed
        # run compares the epoch's version hashes, so a patience of 1 does
        # not end it there.
        budget_cfg = tmp_path / "budget.cfg"
        budget_cfg.write_text(
            CFG_TEXT.replace("seed = 42", "seed = 42\ncall_budget = 8"), encoding="utf-8"
        )
        patience_cfg = tmp_path / "patience.cfg"
        patience_cfg.write_text(
            CFG_TEXT.replace("seed = 42", "seed = 42\nconvergence_patience = 1"),
            encoding="utf-8",
        )
        run = tmp_path / "run"
        argv = golden_train_argv(run)
        argv[argv.index("--config") + 1] = str(budget_cfg)
        assert main(argv) == 2
        lines = (run / "state.cursor").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["prompt_version"] for line in lines] == [1]
        capsys.readouterr()
        assert main(["resume", "--config", str(patience_cfg), "--out", str(run)]) == 0
        out = capsys.readouterr().out
        assert "converged: no" in out
        assert "final prompt: v2" in out
        assert tree_hashes(run) == golden_manifest()["files"]

    def test_other_run_shape_is_rejected(self, tmp_path, capsys):
        assert main(golden_train_argv(tmp_path / "run")) == 0
        capsys.readouterr()
        other_cfg = tmp_path / "other.cfg"
        other_cfg.write_text(CFG_TEXT.replace("epochs = 2", "epochs = 3"), encoding="utf-8")
        code = main(["resume", "--config", str(other_cfg), "--out", str(tmp_path / "run")])
        assert code == 1
        assert "this run's epochs 3 differs from 2 in" in capsys.readouterr().err

    @pytest.mark.parametrize("key, old, new", [
        ("max_rounds", "max_rounds = 2", "max_rounds = 1"),
        ("feedback", "feedback = rulecheck", "feedback = none"),
        ("model", "model = planner", "model = other"),
        ("summarizer_model", "summarizer_model = critic", "summarizer_model = other"),
        ("optimizer_model", "model = planner", "model = planner\noptimizer_model = other"),
        ("repair_model", "model = planner", "model = planner\nrepair_model = other"),
    ], ids=["max_rounds", "feedback", "model", "summarizer_model",
            "optimizer_model", "repair_model"])
    def test_other_run_settings_are_rejected_untouched(
        self, tmp_path, capsys, key, old, new
    ):
        cfg = (GOLDEN / "run.cfg").read_text(encoding="utf-8")
        budget_cfg = tmp_path / "budget.cfg"
        budget_cfg.write_text(
            cfg.replace("seed = 42", "seed = 42\ncall_budget = 8"), encoding="utf-8"
        )
        argv = golden_train_argv(tmp_path / "run")
        argv[argv.index("--config") + 1] = str(budget_cfg)
        assert main(argv) == 2  # cut after epoch 1
        before = tree_hashes(tmp_path / "run")
        capsys.readouterr()
        other_cfg = tmp_path / "other.cfg"
        other_cfg.write_text(cfg.replace(f"\n{old}\n", f"\n{new}\n"), encoding="utf-8")
        assert other_cfg.read_text(encoding="utf-8") != cfg
        code = main(["resume", "--config", str(other_cfg), "--out", str(tmp_path / "run")])
        assert code == 1
        assert f"error: this run's {key} " in capsys.readouterr().err
        assert tree_hashes(tmp_path / "run") == before

    @pytest.mark.parametrize("key, old, new", [
        ("seed", "seed = 42", "seed = 7"),
        ("temperature", "model = planner", "model = planner\ntemperature = 0.9"),
        ("guards", "[train]", "[guards]\nrepair_attempts = 2\n\n[train]"),
    ], ids=["seed", "temperature", "repair_attempts"])
    def test_other_request_settings_are_rejected_untouched(
        self, tmp_path, capsys, key, old, new
    ):
        # A one-epoch run whose run.meta is then given a second epoch, so
        # only the request setting stands between resume and epoch 2.
        one_epoch = tmp_path / "one.cfg"
        one_epoch.write_text(CFG_TEXT.replace("epochs = 2", "epochs = 1"), encoding="utf-8")
        run = tmp_path / "run"
        argv = golden_train_argv(run)
        argv[argv.index("--config") + 1] = str(one_epoch)
        assert main(argv) == 0
        self.edit_run_meta(run, epochs=2)
        before = tree_hashes(run)
        other_cfg = tmp_path / "other.cfg"
        other_cfg.write_text(CFG_TEXT.replace(old, new, 1), encoding="utf-8")
        assert parse_config(other_cfg.read_text()) != parse_config(CFG_TEXT)
        capsys.readouterr()
        assert main(["resume", "--config", str(other_cfg), "--out", str(run)]) == 1
        assert capsys.readouterr().err.startswith(f"error: this run's {key} ")
        assert tree_hashes(run) == before
        assert main(["inspect", "--out", str(run)]) == 0

    def budget_cut_run(self, tmp_path):
        """The golden run cut by its call budget after epoch 1."""
        budget_cfg = tmp_path / "budget.cfg"
        budget_cfg.write_text(
            CFG_TEXT.replace("seed = 42", "seed = 42\ncall_budget = 8"), encoding="utf-8"
        )
        run = tmp_path / "run"
        argv = golden_train_argv(run)
        argv[argv.index("--config") + 1] = str(budget_cfg)
        assert main(argv) == 2
        return run

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace("budget: 31", "budget: 32"),
        lambda text: text.replace("toy-1", "zzz-9"),
    ], ids=["budget", "renamed-sample"])
    def test_other_toy_samples_are_rejected_untouched(self, tmp_path, capsys, edit):
        run = self.budget_cut_run(tmp_path)
        text = (GOLDEN / "dataset.yaml").read_text(encoding="utf-8")
        other = tmp_path / "other.yaml"
        other.write_text(edit(text), encoding="utf-8")
        assert other.read_text(encoding="utf-8") != text
        before = tree_hashes(run)
        capsys.readouterr()
        argv = ["resume", "--config", CFG, "--out", str(run), "--dataset", str(other)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: this run's samples_sha256 ")
        assert tree_hashes(run) == before
        assert main(["inspect", "--out", str(run)]) == 0

    def test_reserialised_toy_samples_resume(self, tmp_path, capsys):
        # The same samples as flow-style YAML, keys sorted and routes reversed.
        run = self.budget_cut_run(tmp_path)
        rows = yaml.safe_load((GOLDEN / "dataset.yaml").read_text(encoding="utf-8"))
        for row in rows:
            row["routes"].reverse()
        other = tmp_path / "other.yaml"
        other.write_text(yaml.safe_dump(rows, default_flow_style=True), encoding="utf-8")
        assert load_toy_samples(other) == load_toy_samples(GOLDEN / "dataset.yaml")
        argv = ["resume", "--config", CFG, "--out", str(run), "--dataset", str(other)]
        assert main(argv) == 0
        assert tree_hashes(run) == golden_manifest()["files"]

    @pytest.mark.parametrize("task_id, code", [("b", 0), ("c", 1)], ids=["same", "other"])
    def test_generic_samples_are_compared_as_loaded(self, tmp_path, capsys, task_id, code):
        argv = generic_train_argv(tmp_path, ["a", "b"], "call_budget = 3\n")
        assert main(argv) == 2  # cut after epoch 1
        config = Path(argv[argv.index("--config") + 1])
        config.write_text(config.read_text().replace("call_budget = 3\n", ""))
        other = tmp_path / "other.yaml"
        other.write_text(yaml.safe_dump([
            {"slot_values": {"task_id": "a"}, "id": "a"},
            {"slot_values": {"task_id": task_id}, "id": "b"},
        ]), encoding="utf-8")
        before = tree_hashes(tmp_path / "run")
        capsys.readouterr()
        assert main([
            "resume", "--config", str(config), "--dataset", str(other),
            "--out", str(tmp_path / "run"),
        ]) == code
        if code:
            assert capsys.readouterr().err.startswith("error: this run's samples_sha256 ")
            assert tree_hashes(tmp_path / "run") == before
        assert main(["inspect", "--out", str(tmp_path / "run")]) == 0

    @pytest.mark.parametrize("name, edit, message", [
        ("dataset.yaml", lambda text: text.replace("budget: 31", "budget: 32"),
         "dataset.yaml does not match the dataset_sha256 in "),
        ("dataset.yaml", lambda text: text.replace("toy-1", "zzz-9"),
         "dataset.yaml does not match the dataset_sha256 in "),
        ("script.yaml", lambda text: text + "# a comment\n",
         "script.yaml does not match the script_sha256 in "),
        ("script.yaml", None, "script.yaml, which is missing"),
    ], ids=["dataset-budget", "dataset-renamed-sample", "script-comment", "script-missing"])
    def test_damaged_input_copy_is_corrupt(self, tmp_path, capsys, name, edit, message):
        run = self.budget_cut_run(tmp_path)
        if edit is None:
            (run / name).unlink()
        else:
            (run / name).write_text(edit((run / name).read_text(encoding="utf-8")))
        before = tree_hashes(run)
        capsys.readouterr()
        assert main(["inspect", "--out", str(run)]) == 2
        assert main(["resume", "--config", CFG, "--out", str(run)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert all(line.startswith("engine error: ") and message in line for line in err)
        assert tree_hashes(run) == before

    @pytest.mark.parametrize("bad", BAD_SAMPLE_IDS)
    def test_sample_id_that_is_no_file_name_is_rejected_untouched(
        self, tmp_path, capsys, bad
    ):
        argv = generic_train_argv(tmp_path, ["a", "b"], "call_budget = 3\n")
        assert main(argv) == 2  # cut after epoch 1
        before = tree_hashes(tmp_path / "run")
        capsys.readouterr()
        dataset = tmp_path / "bad.json"
        dataset.write_text(json.dumps([
            {"id": i, "slot_values": {"task_id": i}} for i in ("a", bad)
        ]))
        config = Path(argv[argv.index("--config") + 1])
        config.write_text(config.read_text().replace("call_budget = 3\n", ""))
        code = main([
            "resume", "--config", str(config), "--dataset", str(dataset),
            "--out", str(tmp_path / "run"),
        ])
        assert code == 1
        assert f"sample id {bad!r} cannot name a transcript file" in (
            capsys.readouterr().err
        )
        assert tree_hashes(tmp_path / "run") == before

    def test_other_markers_are_rejected(self, tmp_path, capsys):
        assert main(golden_train_argv(tmp_path / "run")) == 0
        capsys.readouterr()
        other_cfg = tmp_path / "other.cfg"
        other_cfg.write_text(
            CFG_TEXT + 'task_open = ["TASK:"]\n', encoding="utf-8"
        )
        code = main(["resume", "--config", str(other_cfg), "--out", str(tmp_path / "run")])
        assert code == 1
        assert "error: this run's segmentation " in capsys.readouterr().err

    def test_out_naming_no_directory_is_bad_input(self, tmp_path, capsys):
        code = main(["resume", "--config", CFG, "--out", str(tmp_path / "nowhere")])
        assert code == 1
        assert "error: no run directory at " in capsys.readouterr().err
        assert not (tmp_path / "nowhere").exists()

    def test_run_without_prompts_is_corrupt(self, tmp_path, capsys):
        assert main(golden_train_argv(tmp_path / "run")) == 0
        capsys.readouterr()
        shutil.rmtree(tmp_path / "run" / "prompts")
        assert main(["resume", "--config", CFG, "--out", str(tmp_path / "run")]) == 2
        assert "has no prompts directory" in capsys.readouterr().err

    @pytest.mark.parametrize("name", [
        "state.cursor", "run.meta", "dataset.yaml", "script.yaml", "prompts/v1.txt",
        "prompts/v3.txt",
    ])
    def test_directory_in_place_of_a_run_file_is_corrupt(self, tmp_path, capsys, name):
        # Each run file, or the next version's name, as an empty directory:
        # both commands name it and exit 2, and resume changes nothing.
        run = tmp_path / "run"
        assert main(golden_train_argv(run)) == 0
        if (run / name).exists():
            (run / name).unlink()
        (run / name).mkdir()
        before = tree_hashes(run), sorted(run.rglob("*"))
        capsys.readouterr()
        assert main(["inspect", "--out", str(run)]) == 2
        assert main(["resume", "--config", CFG, "--out", str(run)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert all(line.startswith("engine error: ") and str(run / name) in line
                   for line in err)
        assert (tree_hashes(run), sorted(run.rglob("*"))) == before

    def test_reads_run_meta_and_each_copy_once(self, tmp_path, capsys, file_reads):
        # One open_run serves the copies and resume; the dataset copy is
        # read once more to load it, and the script copy is loaded through
        # open(), which file_reads does not count.
        assert main(golden_train_argv(tmp_path / "run")) == 0
        file_reads.clear()
        assert main(["resume", "--config", CFG, "--out", str(tmp_path / "run")]) == 0
        assert file_reads == {
            "run.cfg": 1, "run.meta": 1, "dataset.yaml": 2, "script.yaml": 1,
            "state.cursor": 1, "v0.txt": 1, "v1.txt": 1, "v2.txt": 1,
        }

    def test_invalid_utf8_cursor_line_is_corrupt(self, tmp_path, capsys):
        assert main(golden_train_argv(tmp_path / "run")) == 0
        capsys.readouterr()
        with open(tmp_path / "run" / "state.cursor", "ab") as fh:
            fh.write(b"\xff\xfe\n")
        assert main(["resume", "--config", CFG, "--out", str(tmp_path / "run")]) == 2
        assert "bad cursor line 3:" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        '[3, 1, 2, 6, 14]',
        '{"epoch": 3, "batch": "x", "prompt_version": 2, '
        '"episodes_total": 6, "calls_total": 14}',
        '{"epoch": 3, "batch": 1, "prompt_version": "two", '
        '"episodes_total": 6, "calls_total": 14}',
    ], ids=["list-kind", "str-batch", "str-version"])
    def test_malformed_cursor_field_is_corrupt(self, tmp_path, capsys, line):
        assert main(golden_train_argv(tmp_path / "run")) == 0
        capsys.readouterr()
        with open(tmp_path / "run" / "state.cursor", "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        assert main(["resume", "--config", CFG, "--out", str(tmp_path / "run")]) == 2
        assert "bad cursor line 3:" in capsys.readouterr().err


class TestEval:
    def eval_script(self, tmp_path, samples, answer_fn):
        entries = [
            entry(
                [f"Task id: {s.id}\n"],
                f"My plan:\n\n{format_plan(answer_fn(s))}\n",
                roles=["user"],
            )
            for s in samples
        ]
        return write_script(tmp_path / "eval_script.yaml", entries)

    def test_all_pass(self, tmp_path, capsys):
        samples = load_toy_samples(GOLDEN / "dataset.yaml")
        script = self.eval_script(tmp_path, samples, best_answer)
        code = main([
            "eval", "--config", CFG, "--script", script,
            "--prompt", str(GOLDEN / "initial_prompt.txt"),
            "--test-set", str(GOLDEN / "dataset.yaml"),
            "--no-feedback",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "pass  toy-1 (rounds 1)" in out
        assert "passed 3/3 (100.0%), delivered 3/3 (100.0%)" in out

    def test_failing_sample_prints_detail(self, tmp_path, capsys):
        samples = load_toy_samples(GOLDEN / "dataset.yaml")

        def overspend(sample):
            # Pick the priciest option every day; these samples all bust.
            return tuple(
                max(day, key=lambda o: o.cost).id for day in sample.options
            )

        script = self.eval_script(tmp_path, samples, overspend)
        code = main([
            "eval", "--config", CFG, "--script", script,
            "--prompt", str(GOLDEN / "initial_prompt.txt"),
            "--test-set", str(GOLDEN / "dataset.yaml"),
            "--no-feedback",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "FAIL  toy-1 (rounds 1): budget exceeded by" in out
        assert "passed 0/3" in out

    def test_report_files(self, tmp_path, capsys):
        samples = load_toy_samples(GOLDEN / "dataset.yaml")
        script = self.eval_script(tmp_path, samples, best_answer)
        tsv = tmp_path / "report.tsv"
        code = main([
            "eval", "--config", CFG, "--script", script,
            "--prompt", str(GOLDEN / "initial_prompt.txt"),
            "--test-set", str(GOLDEN / "dataset.yaml"),
            "--no-feedback", "--out", str(tsv),
        ])
        assert code == 0
        assert "report written to" in capsys.readouterr().out
        header = tsv.read_text(encoding="utf-8").splitlines()[0]
        assert header.split("\t")[0] == "sample_id"

        yml = tmp_path / "report.yaml"
        script2 = write_script(
            tmp_path / "eval_script2.yaml",
            [
                entry(
                    [f"Task id: {s.id}\n"],
                    f"My plan:\n\n{format_plan(best_answer(s))}\n",
                    roles=["user"],
                )
                for s in samples
            ],
        )
        code = main([
            "eval", "--config", CFG, "--script", script2,
            "--prompt", str(GOLDEN / "initial_prompt.txt"),
            "--test-set", str(GOLDEN / "dataset.yaml"),
            "--no-feedback", "--out", str(yml),
        ])
        assert code == 0
        data = yaml.safe_load(yml.read_text(encoding="utf-8"))
        assert data["total"] == 3 and data["pass_rate"] == 1.0

    def test_trials_generate_samples(self, tmp_path, capsys):
        # Seed 42 in the config makes the trial ids deterministic.
        script = write_script(
            tmp_path / "eval_script.yaml",
            [entry(["Task id: "], "PLAN:\nDay 1: a11\n", roles=["user"])],
        )
        code = main([
            "eval", "--config", CFG, "--script", script,
            "--prompt", str(GOLDEN / "initial_prompt.txt"),
            "--trials", "2", "--no-feedback",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "toy-42" in out and "toy-43" in out

    def test_forwards_configured_parallelism(self, tmp_path, capsys, monkeypatch):
        seen = []

        def fake_evaluate(prompt, samples, adapter, **kwargs):
            seen.append(kwargs["parallelism"])
            return EvalReport(records=())

        monkeypatch.setattr(cli, "evaluate", fake_evaluate)
        cfg = tmp_path / "parallel.cfg"
        cfg.write_text(
            CFG_TEXT.replace("seed = 42", "seed = 42\nparallelism = 4"), encoding="utf-8"
        )
        script = write_script(tmp_path / "s.yaml", [entry(["x"], "y")])
        assert main([
            "eval", "--config", str(cfg), "--script", script,
            "--prompt", str(GOLDEN / "initial_prompt.txt"),
            "--test-set", str(GOLDEN / "dataset.yaml"),
        ]) == 0
        assert seen == [4]

    def test_needs_test_set_or_trials(self, tmp_path, capsys):
        script = write_script(tmp_path / "s.yaml", [entry(["x"], "y")])
        code = main([
            "eval", "--config", CFG, "--script", script,
            "--prompt", str(GOLDEN / "initial_prompt.txt"),
        ])
        assert code == 1
        assert "--test-set or --trials" in capsys.readouterr().err


    def test_needs_the_toy_task(self, tmp_path, capsys):
        cfg = tmp_path / "generic.cfg"
        cfg.write_text("[task]\nkind = generic\n", encoding="utf-8")
        script = write_script(tmp_path / "s.yaml", [entry(["x"], "y")])
        code = main([
            "eval", "--config", str(cfg), "--script", script,
            "--prompt", str(GOLDEN / "initial_prompt.txt"), "--trials", "2",
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: eval currently supports only task kind 'toy'\n"
        )

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_must_be_positive(self, tmp_path, capsys, trials):
        script = write_script(tmp_path / "s.yaml", [entry(["x"], "y")])
        code = main([
            "eval", "--config", CFG, "--script", script,
            "--prompt", str(GOLDEN / "initial_prompt.txt"),
            "--trials", trials,
        ])
        assert code == 1
        assert "--trials must be at least 1" in capsys.readouterr().err

    def test_trials_and_test_set_exclude_each_other(self, tmp_path, capsys):
        script = write_script(tmp_path / "s.yaml", [entry(["x"], "y")])
        code = main([
            "eval", "--config", CFG, "--script", script,
            "--prompt", str(GOLDEN / "initial_prompt.txt"),
            "--trials", "2", "--test-set", str(GOLDEN / "dataset.yaml"),
        ])
        assert code == 1
        assert "either --test-set or --trials, not both" in capsys.readouterr().err


class TestInspect:
    def test_clean_run(self, tmp_path, capsys):
        assert main(golden_train_argv(tmp_path / "run")) == 0
        capsys.readouterr()
        assert main(["inspect", "--out", str(tmp_path / "run")]) == 0
        out = capsys.readouterr().out
        assert "InsertBefore(2)" in out
        assert "AppendStep" in out
        assert "failure_reason" in out and "helpful_thought" in out
        assert "3 version(s); hash chain and replay both check out" in out

    def test_out_naming_no_directory_is_bad_input(self, tmp_path, capsys):
        assert main(["inspect", "--out", str(tmp_path / "nowhere")]) == 1
        assert "error: no run directory at " in capsys.readouterr().err

    def test_reads_each_version_once(self, tmp_path, capsys, file_reads):
        assert main(golden_train_argv(tmp_path / "run")) == 0
        file_reads.clear()
        assert main(["inspect", "--out", str(tmp_path / "run")]) == 0
        assert file_reads == {
            "run.meta": 1, "state.cursor": 1, "v0.txt": 1, "v1.txt": 1, "v2.txt": 1,
            "dataset.yaml": 1, "script.yaml": 1,
        }

    def test_replays_with_the_runs_own_markers(self, tmp_path, capsys):
        v1 = MARKER_PROMPT.replace(
            "2. Then, produce the solution to the task.\n",
            "2. Then, produce the solution to the task.\n"
            "3. Check the total cost against the budget.\n",
        )
        script = write_script(tmp_path / "script.yaml", [
            entry(["Task id: "], "PLAN:\nDay 1: a11\n", roles=["user"]),
            entry(
                ["You are a summarizer"],
                "Every plan overspends.\n"
                "In conclusion, the main focus point should be: "
                "the answers skip the budget check.",
            ),
            entry(
                ["You are a prompt optimizer"],
                f"A budget check goes last.\n{prompts.FINAL_PROMPT_MARKER}\n{v1}",
            ),
        ])
        (tmp_path / "run.cfg").write_text(MARKER_CFG, encoding="utf-8")
        (tmp_path / "prompt.txt").write_text(MARKER_PROMPT, encoding="utf-8")
        assert main([
            "train", "--config", str(tmp_path / "run.cfg"), "--script", script,
            "--prompt", str(tmp_path / "prompt.txt"),
            "--dataset", str(GOLDEN / "dataset.yaml"),
            "--out", str(tmp_path / "run"),
        ]) == 0
        assert "versions written: v0, v1" in capsys.readouterr().out
        assert main(["inspect", "--out", str(tmp_path / "run")]) == 0
        assert "2 version(s); hash chain and replay both check out" in capsys.readouterr().out

    def test_torn_cursor_tail_is_left_alone(self, tmp_path, capsys):
        assert main(golden_train_argv(tmp_path / "run")) == 0
        capsys.readouterr()
        cursor = tmp_path / "run" / "state.cursor"
        data = cursor.read_bytes()
        last = data.rstrip(b"\n").rfind(b"\n") + 1
        # A third line cut by a crash mid-append.
        torn = data + data[last: last + (len(data) - last) // 2]
        cursor.write_bytes(torn)
        # Only resume may truncate the cursor; inspect only reads it.
        assert main(["inspect", "--out", str(tmp_path / "run")]) == 0
        assert "3 version(s)" in capsys.readouterr().out
        assert cursor.read_bytes() == torn

    def test_invalid_utf8_cursor_line_is_corrupt(self, tmp_path, capsys):
        assert main(golden_train_argv(tmp_path / "run")) == 0
        capsys.readouterr()
        with open(tmp_path / "run" / "state.cursor", "ab") as fh:
            fh.write(b"\xff\xfe\n")
        assert main(["inspect", "--out", str(tmp_path / "run")]) == 2
        assert "bad cursor line 3:" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        '[3, 1, 2, 6, 14]',
        '{"epoch": 3, "batch": "x", "prompt_version": 2, '
        '"episodes_total": 6, "calls_total": 14}',
        "",
    ], ids=["list-kind", "str-batch", "blank"])
    def test_malformed_cursor_field_is_corrupt(self, tmp_path, capsys, line):
        assert main(golden_train_argv(tmp_path / "run")) == 0
        capsys.readouterr()
        with open(tmp_path / "run" / "state.cursor", "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        assert main(["inspect", "--out", str(tmp_path / "run")]) == 2
        assert "bad cursor line 3:" in capsys.readouterr().err

    def test_cursor_with_an_epoch_line_is_refused_untouched(self, tmp_path, capsys):
        # A cursor written before every line was a batch line holds an epoch
        # line after each epoch's last batch line.
        run = tmp_path / "run"
        assert main(golden_train_argv(run)) == 0
        cursor = run / "state.cursor"
        lines = cursor.read_text(encoding="utf-8").splitlines(keepends=True)
        lines.insert(1, '{"kind": "epoch", "epoch": 1, "changed": true, "prompt_version": 1}\n')
        cursor.write_text("".join(lines), encoding="utf-8")
        before = tree_hashes(run)
        capsys.readouterr()
        assert main(["inspect", "--out", str(run)]) == 2
        assert main(["resume", "--config", CFG, "--out", str(run)]) == 2
        captured = capsys.readouterr()
        assert "check out" not in captured.out
        assert captured.err.splitlines() == [
            f"engine error: {cursor}: bad cursor line 2: not a complete batch record"
        ] * 2
        assert tree_hashes(run) == before

    def test_a_stored_placement_is_ignored(self, tmp_path, capsys):
        # Older runs recorded each version's placement. inspect derives it
        # from the replayed versions, so a stored one, even a wrong one,
        # changes nothing it prints.
        run = tmp_path / "run"
        assert main(golden_train_argv(run)) == 0
        capsys.readouterr()
        assert main(["inspect", "--out", str(run)]) == 0
        clean = capsys.readouterr().out
        cursor = run / "state.cursor"
        entries = [json.loads(line) for line in cursor.read_text(encoding="utf-8").splitlines()]
        entries[0]["version"]["placement"] = "AppendStep"
        cursor.write_text("".join(json.dumps(e) + "\n" for e in entries), encoding="utf-8")
        assert main(["inspect", "--out", str(run)]) == 0
        out = capsys.readouterr().out
        assert out == clean
        assert out.splitlines()[1].split()[::2] == ["v1", "InsertBefore(2)"]

    @pytest.mark.parametrize("edit", [
        lambda e: e.update(focus={"case": ["x"], "text": 3}),
        lambda e: e.update(focus={"case": "no_general_reason", "text": "a reason"}),
    ], ids=["list-focus-case", "no-reason-focus-case"])
    def test_malformed_version_record_is_corrupt(self, tmp_path, capsys, edit):
        assert main(golden_train_argv(tmp_path / "run")) == 0
        capsys.readouterr()
        cursor = tmp_path / "run" / "state.cursor"
        entries = [json.loads(line) for line in cursor.read_text(encoding="utf-8").splitlines()]
        edit(entries[0])
        cursor.write_text(
            "".join(json.dumps(e) + "\n" for e in entries), encoding="utf-8"
        )
        assert main(["inspect", "--out", str(tmp_path / "run")]) == 2
        captured = capsys.readouterr()
        assert "record of prompt v1 has a malformed" in captured.err
        assert "check out" not in captured.out

    @pytest.mark.parametrize("data, message", [
        (b"a: [\n", "run.meta is unreadable: "),
        (b"\xff\xfe\n", "run.meta is unreadable: "),
        (None, "run has no run.meta"),
        (b'["a"]\n', "run.meta is not a mapping"),
        (b"samples: 3\nepochs: 2\n", "run.meta is unreadable: "),
    ], ids=["not-yaml", "not-utf8", "missing", "not-a-mapping", "yaml"])
    def test_unreadable_run_meta_is_corrupt(self, tmp_path, capsys, data, message):
        run = tmp_path / "run"
        assert main(golden_train_argv(run)) == 0
        capsys.readouterr()
        if data is None:
            (run / "run.meta").unlink()
        else:
            (run / "run.meta").write_bytes(data)
        assert main(["inspect", "--out", str(run)]) == 2
        assert main(["resume", "--config", CFG, "--out", str(run)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert all(line.startswith("engine error: ") for line in err)
        assert all(message in line for line in err)

    def test_tampered_run(self, tmp_path, capsys):
        assert main(golden_train_argv(tmp_path / "run")) == 0
        capsys.readouterr()
        v1 = tmp_path / "run" / "prompts" / "v1.txt"
        v1.write_text(v1.read_text(encoding="utf-8") + "x", encoding="utf-8")
        assert main(["inspect", "--out", str(tmp_path / "run")]) == 2
        assert "engine error:" in capsys.readouterr().err


class TestDiff:
    def test_step_block_addition(self, capsys):
        code = main([
            "diff",
            str(GOLDEN / "initial_prompt.txt"),
            str(GOLDEN / "final_prompt.txt"),
            "--config", CFG,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "step_instructions" in out
        assert "added" in out
        assert "examples" in out

    def test_identical_files(self, capsys):
        code = main([
            "diff",
            str(GOLDEN / "final_prompt.txt"),
            str(GOLDEN / "final_prompt.txt"),
            "--config", CFG,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "identical" in out
        assert "modified" not in out and "added" not in out

    @pytest.mark.parametrize("old, new, lines", [
        (
            "***** Example *****\nx\n***** Example Ends *****\n\n",
            "1. a\n2. b\n\n",
            ["examples             removed", "step_instructions    added"],
        ),
        (
            "1. a\n2. b\n\n",
            "1. a\n2. c\n\nMore text.\n\n",
            ["step_instructions    modified: ReplaceStep(2)", "preamble             added"],
        ),
        (
            "1. a\n2. c\n\nMore text.\n\n",
            "1. a\n2. b\n\n",
            ["step_instructions    modified: ReplaceStep(2)", "preamble             removed"],
        ),
    ], ids=["kind-changed", "one-to-two", "two-to-one"])
    def test_replaced_segments_pair_up_by_kind(self, tmp_path, capsys, old, new, lines):
        for name, middle in (("old.txt", old), ("new.txt", new)):
            (tmp_path / name).write_text(
                f"Intro.\n\n{middle}Here is the task:\n{{t}}\n", encoding="utf-8"
            )
        assert main(["diff", str(tmp_path / "old.txt"), str(tmp_path / "new.txt")]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "preamble             identical", *lines, "task_slot            identical",
        ]

    def test_missing_file(self, tmp_path, capsys):
        code = main([
            "diff", str(tmp_path / "a.txt"), str(tmp_path / "b.txt"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class _ScriptedCompletions(http.server.BaseHTTPRequestHandler):
    """Answers each POST from the server's ScriptedGateway, as a
    chat-completions body. A request whose number (from 1) the server's
    ``faults`` maps to a fault kind gets that fault instead: "503" or "429"
    with an empty body, "drop" (the connection closed with no reply),
    "cut" (a Content-Length that promises more bytes than are sent, then
    close) or "not-json" (a 200 whose body is not JSON). HttpGateway tries
    all but the last again. Each answer goes out in one write: a head and
    a body sent apart stall on delayed ACK."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = 5  # an idle pooled connection must not hold the thread for long

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        server = self.server
        with server.lock:
            server.requests.append(body)
            fault = server.faults.get(len(server.requests))
        if fault == "drop":
            self.close_connection = True
            return
        promised = None  # the Content-Length, when it is not the payload's
        if fault in ("503", "429"):
            status, payload = int(fault), b""
        elif fault == "not-json":
            status, payload = 200, b"<html>not a completion</html>"
        elif fault == "cut":
            status, payload = 200, b'{"choices": [{"message": {"content": "'
            promised = len(payload) + 64
            self.close_connection = True
        else:
            request = ChatRequest(
                tuple(Message(Role(m["role"]), m["content"]) for m in body["messages"]),
                body["model"], body["temperature"], body["seed"],
            )
            content = server.gateway.complete(request).content
            status, payload = 200, json.dumps(
                {"choices": [{"message": {"content": content}, "finish_reason": "stop"}]}
            ).encode()
        self.wfile.write(
            f"HTTP/1.1 {status} Canned\r\nContent-Type: application/json\r\n"
            f"Content-Length: {promised or len(payload)}\r\n\r\n".encode() + payload
        )

    def log_message(self, *args):
        pass


class _ScriptedServer(LoopbackServer):
    def __init__(self, script):
        super().__init__(_ScriptedCompletions)
        self.gateway = ScriptedGateway(load_script(script))
        self.faults = {}


@pytest.fixture
def wire(monkeypatch):
    """The golden script served over HTTP, named by REPROMPT_BASE_URL."""
    clear_proxies(monkeypatch)
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    with serving(_ScriptedServer(str(GOLDEN / "script.yaml"))) as server:
        monkeypatch.setenv(BASE_URL_ENV, server.url)
        yield server


def http_train_argv(tmp_path, train_cfg=""):
    """The golden train over --backend http, with ``train_cfg`` added to
    its [train] section; no --script, so train copies none."""
    cfg = tmp_path / "http.cfg"
    cfg.write_text(CFG_TEXT.replace("[train]\n", f"[train]\n{train_cfg}"), encoding="utf-8")
    return [
        "train", "--config", str(cfg), "--backend", "http",
        "--prompt", str(GOLDEN / "initial_prompt.txt"),
        "--dataset", str(GOLDEN / "dataset.yaml"),
        "--out", str(tmp_path / "run"),
    ]


def assert_golden_without_script(run_dir):
    """The run's tree is the golden manifest's, less script.yaml, with
    run.meta's script and script_sha256 null."""
    files = dict(golden_manifest()["files"])
    del files["script.yaml"]
    tree = tree_hashes(run_dir)
    meta = json.loads((run_dir / "run.meta").read_text(encoding="utf-8"))
    assert (meta["script"], meta["script_sha256"]) == (None, None)
    meta["script"] = "script.yaml"
    meta["script_sha256"] = hashlib.sha256((GOLDEN / "script.yaml").read_bytes()).hexdigest()
    tree["run.meta"] = hashlib.sha256((json.dumps(meta, indent=2) + "\n").encode()).hexdigest()
    assert tree == files


class TestOverHttp:
    @pytest.mark.parametrize("parallelism", [1, 3])
    def test_train_reaches_the_golden_tree(self, tmp_path, wire, parallelism):
        argv = http_train_argv(tmp_path, f"parallelism = {parallelism}\n")
        assert main(argv) == 0
        assert len(wire.requests) == 14
        assert_golden_without_script(tmp_path / "run")

    def test_cut_run_resumes_to_the_golden_tree(self, tmp_path, wire, capsys):
        assert main(http_train_argv(tmp_path, "call_budget = 8\n")) == 2
        assert "call budget 8 reached" in capsys.readouterr().err
        assert len(wire.requests) == 8
        argv = ["resume", "--config", CFG, "--out", str(tmp_path / "run"), "--backend", "http"]
        assert main(argv) == 0
        assert len(wire.requests) == 14
        assert_golden_without_script(tmp_path / "run")

    # Each fault HttpGateway tries again, at each request k; a 503's id is
    # "[k]" and every other kind's "[kind-k]".
    @pytest.mark.parametrize("k, kind", [
        pytest.param(k, kind, id=str(k) if kind == "503" else f"{kind}-{k}")
        for kind in ("503", "429", "drop", "cut") for k in range(1, 15)
    ])
    def test_one_503_is_retried_to_the_golden_tree(self, tmp_path, wire, monkeypatch, k,
                                                   kind):
        monkeypatch.setattr(gateway, "_BACKOFF", (0.0, 0.0))
        wire.faults[k] = kind
        assert main(http_train_argv(tmp_path)) == 0
        assert len(wire.requests) == 15
        assert_golden_without_script(tmp_path / "run")

    @pytest.mark.parametrize("kind", ["503", "429", "drop", "cut"])
    def test_three_faults_in_a_row_end_the_call(self, tmp_path, wire, capsys, monkeypatch,
                                                kind):
        # Requests 7-9 are the first summarizer call and both of its retries;
        # the batch stays uncommitted, and resume redoes it.
        monkeypatch.setattr(gateway, "_BACKOFF", (0.0, 0.0))
        wire.faults.update(dict.fromkeys((7, 8, 9), kind))
        assert main(http_train_argv(tmp_path)) == 2
        assert "summarizer call failed (epoch 1, batch 1)" in capsys.readouterr().err
        assert len(wire.requests) == 9
        argv = ["resume", "--config", CFG, "--out", str(tmp_path / "run"), "--backend", "http"]
        assert main(argv) == 0
        assert len(wire.requests) == 9 + 14
        assert_golden_without_script(tmp_path / "run")

    def test_non_json_body_is_not_retried(self, tmp_path, wire, capsys):
        # Request 7 is the golden run's first summarizer call; a 200 whose
        # body is not JSON fails it at once, with its batch uncommitted.
        wire.faults[7] = "not-json"
        assert main(http_train_argv(tmp_path)) == 2
        assert "summarizer call failed" in capsys.readouterr().err
        assert len(wire.requests) == 7
        assert wire.requests[6]["messages"][0]["content"].startswith("You are a summarizer")
        argv = ["resume", "--config", CFG, "--out", str(tmp_path / "run"), "--backend", "http"]
        assert main(argv) == 0
        assert len(wire.requests) == 7 + 14
        assert_golden_without_script(tmp_path / "run")


# A child train is killed once its run tree holds at least this many
# files: 0 kills it before it writes anything, and 13, the whole golden
# tree, before or after its last cursor lines.
KILL_AT_FILES = (0, 2, 4, 6, 9, 12, 13)
SRC = Path(cli.__file__).resolve().parent.parent


def count_files(root):
    return sum(len(files) for _, _, files in os.walk(root))


class TestProcessKill:
    @pytest.mark.parametrize("files", KILL_AT_FILES)
    def test_killed_train_resumes_to_golden(self, tmp_path, capsys, files):
        run_dir = tmp_path / "run"
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        child = subprocess.Popen(
            [sys.executable, "-m", "reprompt.cli", *golden_train_argv(run_dir)],
            env={**os.environ, "PYTHONPATH": path},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while count_files(run_dir) < files and child.poll() is None:
                assert time.monotonic() < deadline, "the child train stalled"
                time.sleep(0.001)
        finally:
            child.kill()
            child.wait()
        left = sorted(p.relative_to(run_dir).as_posix() for p in run_dir.rglob("*"))
        if (run_dir / "prompts" / "v0.txt").exists():
            argv = ["resume", "--config", CFG, "--out", str(run_dir)]
        else:
            argv = golden_train_argv(run_dir)
        assert main(argv) == 0, (child.returncode, left, capsys.readouterr().err)
        assert tree_hashes(run_dir) == golden_manifest()["files"], (child.returncode, left)
        assert main(["inspect", "--out", str(run_dir)]) == 0


def test_importing_the_cli_loads_only_what_every_command_shares():
    # The training stack, the run directory's reader, the HTTP client,
    # PyYAML, threads, logging and csv wait for the command that uses them,
    # so `eval` starts without them; no command needs dataclasses.
    deferred = (
        "yaml", "concurrent.futures", "logging", "csv", "reprompt.trainer",
        "reprompt.rundir", "reprompt.optimizer", "reprompt.summarizer",
        "reprompt.guardrails", "reprompt.http11", "dataclasses",
    )
    code = f"import sys, reprompt.cli; print([m for m in {deferred!r} if m in sys.modules])"
    assert _fresh_interpreter(code) == ["[]"]


def test_inspect_and_the_trainer_load_no_yaml(tmp_path):
    # run.meta is JSON, so reading a run needs no YAML parser at all.
    run = str(tmp_path / "run")
    assert main(golden_train_argv(tmp_path / "run")) == 0
    code = (
        "import sys\n"
        "import reprompt.trainer\n"
        "print([m for m in ('yaml', 'reprompt.yamlio') if m in sys.modules])\n"
        "from reprompt.cli import main\n"
        f"assert main(['inspect', '--out', {run!r}]) == 0\n"
        "print([m for m in ('yaml',) if m in sys.modules])\n"
    )
    lines = _fresh_interpreter(code)
    assert lines[0] == lines[-1] == "[]"


def test_no_module_loads_dataclasses_or_inspect():
    # Records are NamedTuples: `import dataclasses` would also load inspect,
    # ast, dis and tokenize, and each @dataclass generates code at import.
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "import reprompt\n"
        "for path in sorted(Path(reprompt.__file__).parent.glob('*.py')):\n"
        "    __import__('reprompt.' + path.stem)\n"
        "from reprompt.gateway import HttpGateway, ScriptedGateway\n"
        "ScriptedGateway([])\n"
        "HttpGateway(base_url='http://127.0.0.1:9/v1')\n"
        "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])\n"
    )
    assert _fresh_interpreter(code) == ["[]"]


def test_train_resume_and_inspect_load_no_openssl(tmp_path):
    # The run directory's hashes come from the interpreter's built-in
    # SHA-256; hashlib would load OpenSSL (_hashlib).
    if not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")):
        pytest.skip("this interpreter has no built-in SHA-256 module")
    run = str(tmp_path / "run")
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "import reprompt\n"
        "for path in sorted(Path(reprompt.__file__).parent.glob('*.py')):\n"
        "    __import__('reprompt.' + path.stem)\n"
        "from reprompt.cli import main\n"
        f"assert main({golden_train_argv(run)!r}) == 0\n"
        f"assert main(['resume', '--config', {CFG!r}, '--out', {run!r}]) == 0\n"
        f"assert main(['inspect', '--out', {run!r}]) == 0\n"
        "print([m for m in ('hashlib', '_hashlib') if m in sys.modules])\n"
    )
    assert _fresh_interpreter(code)[-1] == "[]"
    assert tree_hashes(tmp_path / "run") == golden_manifest()["files"]


def test_inspect_loads_no_training_stack(tmp_path):
    # The run directory's format is in rundir, which imports none of what
    # only training runs, so reading a run loads none of it.
    run = str(tmp_path / "run")
    assert main(golden_train_argv(tmp_path / "run")) == 0
    stack = ("reprompt.trainer", "reprompt.optimizer", "reprompt.guardrails")
    code = (
        "import sys\n"
        "from reprompt.cli import main\n"
        f"assert main(['inspect', '--out', {run!r}]) == 0\n"
        f"print([m for m in {stack!r} if m in sys.modules])\n"
    )
    assert _fresh_interpreter(code)[-1] == "[]"


def _fresh_interpreter(code: str) -> list[str]:
    """The lines ``code`` prints when run by a new interpreter on ``src``."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    return out.stdout.splitlines()
