"""Training loop end to end: run layout, budgets, resume, corruption checks."""
import hashlib
import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from conftest import GOLDEN, TOY_SEG, Recording, entry, make_gateway
from reprompt import prompts, rundir, trainer
from reprompt.actor import NoFeedback, RuleCheckFeedback
from reprompt.cli import main
from reprompt.config import parse_config
from reprompt.errors import BudgetExhaustedError, CorruptRunError
from reprompt.gateway import ScriptedGateway, load_script
from reprompt.prompt_model import (
    SegmentKind,
    classify_placement,
    inject_default_steps,
    parse_prompt,
    render_prompt,
)
from reprompt.summarizer import ELIDED_PROMPT_LINE
from reprompt.toy_task import ToyAdapter, load_toy_samples, to_task_sample
from reprompt.trainer import replay_lineage, train, verify_chain


def resume(run_dir, samples, **kwargs):
    """trainer.resume on the run that rundir.open_run opens at ``run_dir``."""
    return trainer.resume(rundir.open_run(run_dir), samples, **kwargs)


def golden_config(**train_overrides):
    config = parse_config((GOLDEN / "run.cfg").read_text(encoding="utf-8"))
    if train_overrides:
        config = config._replace(train=config.train._replace(**train_overrides))
    return config


def golden_inputs():
    toys = load_toy_samples(GOLDEN / "dataset.yaml")
    samples = [to_task_sample(s) for s in toys]
    feedback = RuleCheckFeedback(ToyAdapter(), {s.id: s for s in toys})
    gateway = ScriptedGateway(load_script(str(GOLDEN / "script.yaml")))
    return samples, feedback, gateway


def run_golden(run_dir, config=None, with_copies=False):
    samples, feedback, gateway = golden_inputs()
    kwargs = {"dataset_src": None, "script_src": None}
    if with_copies:
        kwargs = {
            "dataset_src": GOLDEN / "dataset.yaml",
            "script_src": GOLDEN / "script.yaml",
        }
    return train(
        (GOLDEN / "initial_prompt.txt").read_text(encoding="utf-8"),
        samples,
        config=config or golden_config(),
        gateway=gateway,
        feedback=feedback,
        run_dir=run_dir,
        **kwargs,
    )


@given(st.text())
def test_sha256_matches_hashlib(text):
    assert rundir._sha256(text) == hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_sha256_falls_back_to_hashlib(monkeypatch):
    # A build without the built-in SHA-256 modules: a fresh copy of the
    # rundir module hashes through hashlib, to the same digests.
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    spec = importlib.util.spec_from_file_location(
        "reprompt._rundir_without_builtin_sha256", rundir.__file__
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.sha256 is hashlib.sha256
    text = (GOLDEN / "initial_prompt.txt").read_text(encoding="utf-8")
    assert module._sha256(text) == rundir._sha256(text)


def tree_hashes(root):
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def version_texts(run_dir, count):
    """The texts of prompt files v0 to v{count - 1}: version n is file n."""
    return [
        (run_dir / "prompts" / f"v{n}.txt").read_text(encoding="utf-8") for n in range(count)
    ]


def edit_run_meta(run_dir, **changes):
    meta = json.loads((run_dir / "run.meta").read_text(encoding="utf-8"))
    meta.update(changes)
    (run_dir / "run.meta").write_text(json.dumps(meta), encoding="utf-8")


def cursor_entries(run_dir):
    lines = (run_dir / "state.cursor").read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def write_cursor(run_dir, entries):
    (run_dir / "state.cursor").write_text(
        "".join(json.dumps(e, sort_keys=True) + "\n" for e in entries),
        encoding="utf-8",
    )


def edit_cursor(run_dir, index, edit):
    """Apply ``edit`` to the ``index``-th cursor line and write it back."""
    entries = cursor_entries(run_dir)
    edit(entries[index])
    write_cursor(run_dir, entries)


# sha256 of each golden-run request's (model, temperature, seed, roles,
# contents), in call order.
REQUEST_DIGESTS = [
    "a6014a84439338df98eac0c2abacda4d78ee6c8ae780a9ac09021848b016b4a7",  # actor
    "a7a1bca622c47e1ab3fd0bbe6314ff92c04a99190982ed96ac3116a3a59685b8",  # actor
    "aa8e96ea7302ba0fe9d14a8db0a782770e3ccfb8f48499e848978112dee119e1",  # actor
    "7a4967a226eac482ef6d406f7df1e0c7dc775b8ff321d2fc20217ebcabedf83d",  # actor
    "ab1bba4600e0ad77fe991f59fc32cb3566292f8ea1da456411b5ba6072087db7",  # actor
    "71d5c51f34f1d15b81bf9bf8d0d9a69730a16419f3810f63dc75b8e5eee7a85f",  # actor
    "7f252e32222668f2d00d529b0e4bfd633886feebf8a11b023cedf610feed365d",  # summarizer
    "ff067d56120eab31872f8575cf7669a427eddbf26dba6393046fc8a57819c1dc",  # optimizer
    "9bb9343b12d80fea6d10fff1c105ccc88461510c39d4434dcbceb43fc4972677",  # actor
    "70c55df344282356951ac42b3feaf5acb3276a7a27276548bc80fefe4628bdcb",  # actor
    "e05030ffb55910594da5c3ec50e6a6d07c3361be408cc813eed77e7d988bdcc6",  # actor
    "b5d808c64810c315ee898d9abec8df30e87d79110562ab48a737f4be51dfd4eb",  # summarizer
    "652f914af5bb1e0353e95531cd7b8891688c62fd66673784085e0236627dd23f",  # optimizer
    "bae806e94aa100b9c137186aa29be164fd780ab51e88fb034ab76d45b42832b1",  # repair
]


class TestGoldenRun:
    def test_result_summary(self, tmp_path):
        result = run_golden(tmp_path / "run")
        assert result.versions == (0, 1, 2)
        assert result.episodes_run == 6
        assert result.calls_used == 14
        assert result.epochs_completed == 2
        assert not result.converged
        expected = (GOLDEN / "final_prompt.txt").read_text(encoding="utf-8")
        assert render_prompt(result.final_prompt) == expected

    def test_request_stream(self, tmp_path):
        # Scripted matching reads only message text, so the manifest alone
        # cannot catch a request sent with the wrong model, temperature or
        # seed. Each digest covers one call, in the order the calls were made.
        samples, feedback, gateway = golden_inputs()
        recording = Recording(gateway)
        train(
            (GOLDEN / "initial_prompt.txt").read_text(encoding="utf-8"),
            samples,
            config=golden_config(),
            gateway=recording,
            feedback=feedback,
            run_dir=tmp_path / "run",
            dataset_src=None, script_src=None,
        )
        requests = [request for request, _ in recording.history]
        digests = [
            hashlib.sha256(json.dumps([
                r.model, r.temperature, r.seed,
                [m.role.value for m in r.messages],
                [m.content for m in r.messages],
            ]).encode("utf-8")).hexdigest()
            for r in requests
        ]
        assert digests == REQUEST_DIGESTS
        stages = {
            prompts.SUMMARIZER_SYSTEM_PROMPT: "summarizer",
            prompts.OPTIMIZER_SYSTEM_PROMPT: "optimizer",
            prompts.TEMPLATE_REPLACER_SYSTEM_PROMPT: "repair",
        }
        models: dict[str, set[str]] = {}
        for r in requests:
            stage = stages.get(r.messages[0].content, "actor")
            models.setdefault(stage, set()).add(r.model)
        assert models == {
            "actor": {"planner"},
            "summarizer": {"critic"},
            "optimizer": {"critic"},
            "repair": {"critic"},
        }

    def test_summarizer_sees_the_prompt_once(self, tmp_path):
        # Each transcript's round-1 message repeats the prompt; the
        # summarizer request carries it only under CURRENT_PROMPT_HEADER.
        preamble = "You are a day-planner."
        samples, feedback, gateway = golden_inputs()
        recording = Recording(gateway)
        train(
            (GOLDEN / "initial_prompt.txt").read_text(encoding="utf-8"),
            samples,
            config=golden_config(),
            gateway=recording,
            feedback=feedback,
            run_dir=tmp_path / "run",
            dataset_src=None, script_src=None,
        )
        summarizer_requests = [
            r for r, _ in recording.history
            if r.messages[0].content == prompts.SUMMARIZER_SYSTEM_PROMPT
        ]
        assert len(summarizer_requests) == 2
        for r in summarizer_requests:
            user = r.messages[1].content
            assert user.count(preamble) == 1
            assert user.count(ELIDED_PROMPT_LINE) == 3
            assert all(f"Task id: {sid}\n" in user for sid in ("toy-1", "toy-3", "toy-4"))

    def test_tree_matches_manifest(self, tmp_path):
        manifest = yaml.safe_load((GOLDEN / "manifest.yaml").read_text())
        run_golden(tmp_path / "run", with_copies=True)
        assert tree_hashes(tmp_path / "run") == manifest["files"]

    def test_version_meta_chain(self, tmp_path):
        run_golden(tmp_path / "run")
        records = verify_chain(tmp_path / "run")
        metas = [record.meta for record in records]
        texts = [
            (tmp_path / "run" / "prompts" / f"v{n}.txt").read_text(encoding="utf-8")
            for n in range(3)
        ]
        # A version's number is its record's position.
        assert len(metas) == 3
        for n, meta in enumerate(metas):
            digest = hashlib.sha256(texts[n].encode()).hexdigest()
            assert meta["hash"] == digest
            assert set(meta) == {"hash", "focus_case"}
        assert metas[0]["focus_case"] is None
        run_meta = yaml.safe_load((tmp_path / "run" / "run.meta").read_text())
        assert run_meta["v0_hash"] == metas[0]["hash"]
        placements = [
            str(classify_placement(a.doc, b.doc)) for a, b in zip(records, records[1:])
        ]
        assert placements == ["InsertBefore(2)", "AppendStep"]
        assert metas[1]["focus_case"] == "failure_reason"
        assert metas[2]["focus_case"] == "helpful_thought"

    def test_cursor_entries(self, tmp_path):
        run_golden(tmp_path / "run")
        # One batch line per epoch, and no other line.
        first_batch, second_batch = cursor_entries(tmp_path / "run")
        outputs = {"focus", "optimizer_raw", "version"}
        assert {k: v for k, v in first_batch.items() if k not in outputs} == {
            "epoch": 1, "batch": 1, "prompt_version": 1,
            "episodes_total": 3, "calls_total": 8, "note": "",
        }
        assert outputs <= first_batch.keys() and outputs <= second_batch.keys()
        assert set(first_batch["version"]) == {"hash"}
        assert {k: v for k, v in second_batch.items() if k not in outputs} == {
            "epoch": 2, "batch": 1, "prompt_version": 2,
            "episodes_total": 6, "calls_total": 14, "note": "",
        }

    def test_transcript_files(self, tmp_path):
        result = run_golden(tmp_path / "run")
        first = (tmp_path / "run" / "transcripts" / "e1" / "b1" / "toy-1.txt").read_text()
        assert first.startswith("sample: toy-1\nterminal: max_rounds_exhausted\nrounds: 2\n\n")
        assert "[user / round 1]" in first
        assert "[assistant / round 1]" in first
        assert "budget exceeded by" in first
        second = (tmp_path / "run" / "transcripts" / "e2" / "b1" / "toy-1.txt").read_text()
        assert second.startswith("sample: toy-1\nterminal: finished_by_agent\nrounds: 1\n\n")

    def test_focus_and_raw_files(self, tmp_path):
        run_golden(tmp_path / "run")
        first, second = cursor_entries(tmp_path / "run")
        assert first["focus"]["case"] == "failure_reason"
        assert first["focus"]["text"].startswith("the plans repeatedly exceed")
        assert second["focus"]["case"] == "helpful_thought"
        # The raw optimizer output keeps the placeholder the repair removed.
        assert "<Examples from the original prompt>" in second["optimizer_raw"]
        assert not (tmp_path / "run" / "focus").exists()
        assert not (tmp_path / "run" / "optimizer_raw").exists()

    def test_run_meta(self, tmp_path):
        run_golden(tmp_path / "run", with_copies=True)
        text = (tmp_path / "run" / "run.meta").read_text()
        meta = json.loads(text)
        assert text == json.dumps(meta, indent=2) + "\n"
        assert meta["samples"] == 3
        assert meta["epochs"] == 2
        assert meta["model"] == "planner"
        assert meta["summarizer_model"] == "critic"
        assert meta["optimizer_model"] == "critic"
        assert meta["repair_model"] == "critic"
        assert meta["dataset"] == "dataset.yaml"
        assert meta["script"] == "script.yaml"
        assert meta["segmentation"]["format_open"] == ["Your final answer"]
        assert meta["segmentation"]["task_open"] == ["Here is the task", "Given information:"]
        assert meta["required_tokens"] == ["PLAN:"]
        assert (meta["seed"], meta["temperature"]) == (42, 0.0)
        assert meta["guards"] == {
            "extra_placeholder_patterns": [], "repair_attempts": 3, "optimizer_attempts": 3,
        }
        for name in ("dataset", "script"):
            digest = hashlib.sha256((GOLDEN / f"{name}.yaml").read_bytes()).hexdigest()
            assert meta[f"{name}_sha256"] == digest

    def test_samples_hash_like_their_task_samples(self):
        # The CLI trains on toy samples, the golden fixtures on their
        # TaskSamples; both must write the same run.meta.
        toys = load_toy_samples(GOLDEN / "dataset.yaml")
        rows = [[s.id, s.slot_values] for s in map(to_task_sample, toys)]
        digest = hashlib.sha256(
            json.dumps(rows, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        assert rundir._samples_sha256(toys) == digest
        assert rundir._samples_sha256(list(map(to_task_sample, toys))) == digest
        assert rundir._samples_sha256(toys[::-1]) != digest

    def test_refuses_existing_run_dir(self, tmp_path):
        run_golden(tmp_path / "run")
        samples, feedback, gateway = golden_inputs()
        with pytest.raises(ValueError, match="already holds a run"):
            train(
                (GOLDEN / "initial_prompt.txt").read_text(encoding="utf-8"),
                samples,
                config=golden_config(),
                gateway=gateway,
                feedback=feedback,
                run_dir=tmp_path / "run",
                dataset_src=None, script_src=None,
            )

    def test_refuses_empty_sample_list(self, tmp_path):
        _, feedback, gateway = golden_inputs()
        with pytest.raises(ValueError, match="at least one sample"):
            train(
                "Solve.\n\nHere is the task:\n{x}\n",
                [],
                config=golden_config(),
                gateway=gateway,
                feedback=feedback,
                run_dir=tmp_path / "run",
                dataset_src=None, script_src=None,
            )

    def test_refuses_duplicate_sample_ids(self, tmp_path):
        # Two equal ids would write one transcript file over the other.
        samples, feedback, gateway = golden_inputs()
        with pytest.raises(ValueError, match="sample id 'toy-1' is not unique"):
            train(
                (GOLDEN / "initial_prompt.txt").read_text(encoding="utf-8"),
                [samples[0], samples[1], samples[0]],
                config=golden_config(),
                gateway=gateway,
                feedback=feedback,
                run_dir=tmp_path / "run",
                dataset_src=None, script_src=None,
            )
        assert not (tmp_path / "run").exists()

    def test_verify_chain_and_replay(self, tmp_path):
        run_golden(tmp_path / "run")
        records = verify_chain(tmp_path / "run")
        docs = replay_lineage(tmp_path / "run")
        assert docs == [r.doc for r in records]
        assert [render_prompt(d) for d in docs] == version_texts(tmp_path / "run", 3)

    def test_resume_of_complete_run_returns_final_state(self, tmp_path):
        # Resuming a finished run, converged or not, reads the writer's end
        # state off the cursor and calls the gateway no more.
        golden = run_golden(tmp_path / "golden")
        idle, _ = run_idle(tmp_path / "idle")
        assert idle.converged and idle.epochs_completed == 2
        samples, feedback, _ = golden_inputs()
        toys = load_toy_samples(GOLDEN / "dataset.yaml")[:2]
        for first, samples, config, feedback in (
            (golden, samples, golden_config(), feedback),
            (idle, [to_task_sample(s) for s in toys], parse_config(IDLE_CFG), NoFeedback()),
        ):
            gateway = make_gateway()
            again = resume(
                first.run_dir,
                samples,
                config=config,
                gateway=gateway,
                feedback=feedback,
            )
            assert gateway.calls == 0
            # versions, episodes_run, calls_used, epochs_completed, converged
            # and run_dir.
            assert again._replace(final_prompt=None) == first._replace(final_prompt=None)
            assert render_prompt(again.final_prompt) == render_prompt(first.final_prompt)


# --- convergence ---------------------------------------------------------------

IDLE_CFG = """\
[train]
epochs = 5
batch_size = 2
max_rounds = 2
feedback = none
seed = 7
convergence_patience = 2

[gateway]
backend = scripted
model = planner

[task]
kind = toy
format_open = ["Your final answer"]
"""

IDLE_ENTRIES = [
    entry(["Task id: "], "PLAN:\nDay 1: a11\n", roles=["user"]),
    entry(
        ["You are a summarizer"],
        "Nothing recurs across the transcripts.\n"
        "In conclusion, the main focus point should be: "
        "there is no general reason for the failures.",
    ),
]


def run_idle(run_dir, **train_overrides):
    config = parse_config(IDLE_CFG)
    if train_overrides:
        config = config._replace(train=config.train._replace(**train_overrides))
    toys = load_toy_samples(GOLDEN / "dataset.yaml")[:2]
    samples = [to_task_sample(s) for s in toys]
    gateway = make_gateway(*IDLE_ENTRIES)
    result = train(
        (GOLDEN / "initial_prompt.txt").read_text(encoding="utf-8"),
        samples,
        config=config,
        gateway=gateway,
        feedback=NoFeedback(),
        run_dir=run_dir,
        dataset_src=None, script_src=None,
    )
    return result, gateway


class TestConvergence:
    def test_halts_after_exact_patience(self, tmp_path):
        result, gateway = run_idle(tmp_path / "run")
        assert result.converged
        assert result.epochs_completed == 2
        assert result.versions == (0,)
        # 2 episodes + 1 summary per epoch, no optimizer calls at all.
        assert result.calls_used == 6
        assert gateway.calls == 6

    def test_patience_one(self, tmp_path):
        result, _ = run_idle(tmp_path / "run", convergence_patience=1)
        assert result.converged and result.epochs_completed == 1

    def test_no_patience_runs_all_epochs(self, tmp_path):
        result, _ = run_idle(tmp_path / "run", convergence_patience=None, epochs=3)
        assert not result.converged
        assert result.epochs_completed == 3
        assert result.episodes_run == 6

    def test_epoch_entries_record_no_change(self, tmp_path):
        # Neither epoch writes a version, so each counts towards patience 2.
        result, _ = run_idle(tmp_path / "run")
        assert result.converged and result.epochs_completed == 2
        assert [e["prompt_version"] for e in cursor_entries(tmp_path / "run")] == [0, 0]


# --- budgets and resume --------------------------------------------------------

def run_cut_and_resumed(run_dir):
    """The golden run stopped by a call budget of 8, then resumed to its end."""
    with pytest.raises(BudgetExhaustedError):
        run_golden(run_dir, config=golden_config(call_budget=8))
    return resume_golden(run_dir)


class TestBudgetAndResume:
    def test_budget_stops_between_batches(self, tmp_path):
        with pytest.raises(BudgetExhaustedError, match="can be resumed"):
            run_golden(tmp_path / "run", config=golden_config(call_budget=8))
        # Epoch 1 is fully persisted: v1 exists, cursor holds its entries.
        assert (tmp_path / "run" / "prompts" / "v1.txt").exists()
        assert not (tmp_path / "run" / "prompts" / "v2.txt").exists()
        lines = [(e["epoch"], e["batch"]) for e in cursor_entries(tmp_path / "run")]
        assert lines == [(1, 1)]

    def test_budget_overshoot_is_at_most_one_batch(self, tmp_path):
        # The budget is checked before each batch, so the batch that
        # starts under it runs to the end: 8 calls against a budget of 1.
        with pytest.raises(BudgetExhaustedError, match="after 8 gateway calls"):
            run_golden(tmp_path / "run", config=golden_config(call_budget=1))
        assert [e["calls_total"] for e in cursor_entries(tmp_path / "run")] == [8]

    def test_resume_with_same_budget_raises_again(self, tmp_path):
        with pytest.raises(BudgetExhaustedError):
            run_golden(tmp_path / "run", config=golden_config(call_budget=8))
        samples, feedback, gateway = golden_inputs()
        with pytest.raises(BudgetExhaustedError):
            resume(
                tmp_path / "run",
                samples,
                config=golden_config(call_budget=8),
                gateway=gateway,
                feedback=feedback,
            )

    @pytest.mark.parametrize("samples, overrides", [
        (2, {"batch_size": 1}),
        (2, {}),
        (3, {"batch_size": 1}),
        (3, {"epochs": 3}),
    ])
    def test_resume_rejects_another_run_shape(self, tmp_path, samples, overrides):
        # resume names the first run.meta key that differs; the sample count
        # comes first.
        key = "samples" if samples != 3 else next(iter(overrides))
        with pytest.raises(BudgetExhaustedError):
            run_golden(tmp_path / "run", config=golden_config(call_budget=8))
        before = tree_hashes(tmp_path / "run")
        all_samples, feedback, gateway = golden_inputs()
        with pytest.raises(ValueError, match=f"^this run's {key} .* differs from "):
            resume(
                tmp_path / "run",
                all_samples[:samples],
                config=golden_config(**overrides),
                gateway=gateway,
                feedback=feedback,
            )
        assert tree_hashes(tmp_path / "run") == before

    def test_input_copies_are_the_ones_run_meta_names(self, tmp_path):
        run_golden(tmp_path / "bare")
        assert rundir.open_run(tmp_path / "bare")[1].copies == (None, None)
        run_golden(tmp_path / "copies", with_copies=True)
        assert rundir.open_run(tmp_path / "copies")[1].copies == (
            tmp_path / "copies" / "dataset.yaml", tmp_path / "copies" / "script.yaml",
        )

    def test_resume_reads_run_meta_and_cursor_once(self, golden_dir, file_reads):
        samples, feedback, gateway = golden_inputs()
        file_reads.clear()
        result = resume(
            golden_dir, samples, config=golden_config(),
            gateway=gateway, feedback=feedback,
        )
        assert result.versions == (0, 1, 2)
        assert file_reads["run.meta"] == 1
        assert file_reads["state.cursor"] == 1
        assert [file_reads[f"v{n}.txt"] for n in range(3)] == [1, 1, 1]

    def test_resumed_run_matches_uninterrupted_tree(self, tmp_path):
        with pytest.raises(BudgetExhaustedError):
            samples, feedback, gateway = golden_inputs()
            train(
                (GOLDEN / "initial_prompt.txt").read_text(encoding="utf-8"),
                samples,
                config=golden_config(call_budget=8),
                gateway=gateway,
                feedback=feedback,
                run_dir=tmp_path / "run",
                dataset_src=GOLDEN / "dataset.yaml",
                script_src=GOLDEN / "script.yaml",
            )
        samples, feedback, gateway = golden_inputs()
        result = resume(
            tmp_path / "run",
            samples,
            config=golden_config(),
            gateway=gateway,
            feedback=feedback,
        )
        assert result.versions == (0, 1, 2)
        assert result.episodes_run == 6
        assert result.calls_used == 14
        assert result.epochs_completed == 2
        manifest = yaml.safe_load((GOLDEN / "manifest.yaml").read_text())
        assert tree_hashes(tmp_path / "run") == manifest["files"]

    @pytest.mark.parametrize("run", [
        run_golden,
        run_cut_and_resumed,
        lambda run_dir: run_idle(run_dir)[0],
    ], ids=["golden", "cut-and-resumed", "converged"])
    def test_result_is_the_fold_of_the_cursor_as_written(self, tmp_path, run):
        result = run(tmp_path / "run")
        paths, meta = rundir.open_run(tmp_path / "run")
        cursor = rundir.fold(meta, rundir.read_cursor(paths)[0])
        assert tuple(range(len(cursor.versions))) == result.versions
        assert cursor.episodes_total == result.episodes_run
        assert cursor.calls_total == result.calls_used
        assert cursor.epoch - 1 == result.epochs_completed

    def test_older_version_records_are_read(self, tmp_path, capsys):
        # Older runs also recorded each version's parent hash and step block.
        # The readers ignore both keys, so such a run, cut after epoch 1,
        # resumes to the golden run and inspects clean.
        run_dir = tmp_path / "run"
        with pytest.raises(BudgetExhaustedError):
            run_golden(run_dir, config=golden_config(call_budget=8), with_copies=True)
        v0, v1 = (
            (run_dir / "prompts" / f"v{n}.txt").read_text(encoding="utf-8") for n in (0, 1)
        )
        step = next(
            s.text for s in parse_prompt(v1, TOY_SEG).segments
            if s.kind is SegmentKind.STEP_INSTRUCTIONS
        )
        edit_cursor(run_dir, 0, lambda e: e["version"].update(
            parent_hash=hashlib.sha256(v0.encode("utf-8")).hexdigest(), segment_text=step,
        ))
        older = (run_dir / "state.cursor").read_bytes()
        result = resume_golden(run_dir)
        assert main(["inspect", "--out", str(run_dir)]) == 0
        assert (run_dir / "state.cursor").read_bytes().startswith(older)
        edit_cursor(run_dir, 0, lambda e: [
            e["version"].pop(key) for key in ("parent_hash", "segment_text")
        ])
        assert_golden(result, run_dir)

    def test_resume_mid_epoch_matches_uninterrupted(self, tmp_path):
        # Two single-sample batches per epoch; cut between them.
        def run(dir_name, budget):
            config = parse_config(IDLE_CFG)
            config = config._replace(
                train=config.train._replace(
                    batch_size=1, epochs=1,
                    convergence_patience=None, call_budget=budget,
                ),
            )
            toys = load_toy_samples(GOLDEN / "dataset.yaml")[:2]
            samples = [to_task_sample(s) for s in toys]
            return (
                config,
                samples,
                (GOLDEN / "initial_prompt.txt").read_text(encoding="utf-8"),
                tmp_path / dir_name,
            )

        config, samples, prompt, whole_dir = run("whole", None)
        whole = train(
            prompt, samples, config=config, gateway=make_gateway(*IDLE_ENTRIES),
            feedback=NoFeedback(), run_dir=whole_dir,
            dataset_src=None, script_src=None,
        )

        config, samples, prompt, cut_dir = run("cut", 2)
        with pytest.raises(BudgetExhaustedError):
            train(
                prompt, samples, config=config, gateway=make_gateway(*IDLE_ENTRIES),
                feedback=NoFeedback(), run_dir=cut_dir,
                dataset_src=None, script_src=None,
            )
        # Only batch 1 ran.
        assert [e["batch"] for e in cursor_entries(cut_dir)] == [1]

        config = config._replace(train=config.train._replace(call_budget=None))
        resumed = resume(
            cut_dir, samples, config=config, gateway=make_gateway(*IDLE_ENTRIES),
            feedback=NoFeedback(),
        )
        assert resumed.episodes_run == whole.episodes_run == 2
        assert resumed.calls_used == whole.calls_used == 4
        assert resumed.epochs_completed == whole.epochs_completed == 1
        assert tree_hashes(cut_dir) == tree_hashes(whole_dir)


    def test_resume_keeps_the_unchanged_epoch_streak(self, tmp_path):
        # Epoch 1 leaves the prompt unchanged; the cut comes after it. The
        # resumed run must count that epoch towards convergence.
        whole, _ = run_idle(tmp_path / "whole", epochs=3)
        with pytest.raises(BudgetExhaustedError):
            run_idle(tmp_path / "cut", epochs=3, call_budget=3)
        config = parse_config(IDLE_CFG)
        config = config._replace(train=config.train._replace(epochs=3))
        toys = load_toy_samples(GOLDEN / "dataset.yaml")[:2]
        resumed = resume(
            tmp_path / "cut", [to_task_sample(s) for s in toys], config=config,
            gateway=make_gateway(*IDLE_ENTRIES), feedback=NoFeedback(),
        )
        assert resumed.converged and whole.converged
        assert resumed.epochs_completed == whole.epochs_completed == 2
        assert resumed.calls_used == whole.calls_used == 6
        cursor = (tmp_path / "cut" / "state.cursor").read_bytes()
        assert cursor == (tmp_path / "whole" / "state.cursor").read_bytes()

    def test_resume_compares_with_the_epoch_start_version(self, tmp_path):
        # Epoch 1 writes v1; epoch 2, whose summary finds no general reason
        # once v1's step is in the prompt, writes nothing. So epoch 2
        # starts from v1 and leaves the prompt unchanged, and a patience of
        # 1 ends the run before epoch 3.
        v0 = render_prompt(inject_default_steps(parse_prompt(
            (GOLDEN / "initial_prompt.txt").read_text(encoding="utf-8"), TOY_SEG
        )))
        v1 = v0.replace("2. Then,", "2. Check the budget.\n3. Then,")
        entries = [
            IDLE_ENTRIES[0],
            entry(
                ["You are a summarizer"],
                "Same failure everywhere.\n"
                "In conclusion, the main focus point should be: "
                "the answers skip the budget check.",
                excludes=["Check the budget."],
            ),
            entry(
                ["You are a summarizer", "Check the budget."], IDLE_ENTRIES[1]["response"]
            ),
            entry(["You are a prompt optimizer"], f"{prompts.FINAL_PROMPT_MARKER}\n{v1}"),
        ]
        config = parse_config(IDLE_CFG)
        config = config._replace(train=config.train._replace(
            epochs=3, batch_size=1, convergence_patience=1,
        ))
        samples = [to_task_sample(load_toy_samples(GOLDEN / "dataset.yaml")[0])]

        def run(run_dir, config):
            return train(
                (GOLDEN / "initial_prompt.txt").read_text(encoding="utf-8"), samples,
                config=config, gateway=make_gateway(*entries), feedback=NoFeedback(),
                run_dir=run_dir, dataset_src=None, script_src=None,
            )

        whole = run(tmp_path / "whole", config)
        assert whole.versions == (0, 1)
        assert whole.converged and whole.epochs_completed == 2
        # Epoch 1 is an episode, a summary and an optimizer call.
        with pytest.raises(BudgetExhaustedError):
            run(tmp_path / "cut", config._replace(
                train=config.train._replace(call_budget=3),
            ))
        resumed = resume(
            tmp_path / "cut", samples, config=config,
            gateway=make_gateway(*entries), feedback=NoFeedback(),
        )
        assert resumed.converged and resumed.epochs_completed == 2
        assert [e["prompt_version"] for e in cursor_entries(tmp_path / "cut")] == [1, 1]
        cursor = (tmp_path / "cut" / "state.cursor").read_bytes()
        assert cursor == (tmp_path / "whole" / "state.cursor").read_bytes()


# --- crash recovery ------------------------------------------------------------

class Crash(Exception):
    """Stands in for the process dying in the middle of a run."""


class CursorLog:
    """Stands in for the cursor file resume opens: each line it appends goes
    to ``append(fh, line)``, which may write it to the real file ``fh``."""

    def __init__(self, fh, append):
        self.fh, self.append = fh, append

    def write(self, line):
        self.append(self.fh, line)

    def flush(self):
        self.fh.flush()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def route_cursor_appends(monkeypatch, append):
    """Make resume's cursor file a CursorLog that calls ``append``; returns
    the list of the files resume opens."""
    opened = []

    def fake_open(path, mode, *args, **kwargs):
        assert Path(path).name == "state.cursor" and mode == "ab"
        opened.append(path)
        return CursorLog(open(path, mode, *args, **kwargs), append)

    monkeypatch.setattr(trainer, "open", fake_open, raising=False)
    return opened


def crash_at_write(monkeypatch, run_dir, n, torn):
    """Kill the run at the n-th write after v0 exists (0-based).

    Counts file writes under ``run_dir`` and cursor appends. With ``torn``
    the fatal write leaves the first half of its bytes behind, with no
    trailing newline for a cursor line. Returns the list of writes seen.
    """
    seen = []
    write_text = Path.write_text

    def fatal(what):
        if not (run_dir / "prompts" / "v0.txt").exists():
            return False
        seen.append(what)
        return len(seen) == n + 1

    def fake_write_text(self, data, *args, **kwargs):
        if self.is_relative_to(run_dir) and fatal(self.relative_to(run_dir).as_posix()):
            if torn:
                write_text(self, data[: len(data) // 2], *args, **kwargs)
            raise Crash(self)
        return write_text(self, data, *args, **kwargs)

    def append(fh, line):
        entry = json.loads(line)
        if fatal(f"cursor e{entry['epoch']} b{entry['batch']}"):
            if torn:
                fh.write(line[: (len(line) - 1) // 2])
            raise Crash(entry)
        fh.write(line)

    monkeypatch.setattr(Path, "write_text", fake_write_text)
    route_cursor_appends(monkeypatch, append)
    return seen


def resume_golden(run_dir):
    samples, feedback, gateway = golden_inputs()
    return resume(
        run_dir, samples, config=golden_config(), gateway=gateway, feedback=feedback
    )


def assert_golden(result, run_dir):
    manifest = yaml.safe_load((GOLDEN / "manifest.yaml").read_text())
    assert tree_hashes(run_dir) == manifest["files"]
    assert result.versions == (0, 1, 2)
    assert result.episodes_run == 6
    assert result.calls_used == 14
    assert result.epochs_completed == 2
    assert not result.converged
    expected = (GOLDEN / "final_prompt.txt").read_text(encoding="utf-8")
    assert render_prompt(result.final_prompt) == expected


class TestCrashRecovery:
    def test_uncommitted_version_is_discarded(self, tmp_path, monkeypatch):
        run_dir = tmp_path / "run"

        def crash(fh, line):
            raise Crash(line)

        with monkeypatch.context() as m:
            route_cursor_appends(m, crash)
            with pytest.raises(Crash):
                run_golden(run_dir, with_copies=True)
        # v1 was written, but no cursor line commits it.
        assert (run_dir / "prompts" / "v1.txt").exists()
        assert (run_dir / "state.cursor").read_bytes() == b""
        assert_golden(resume_golden(run_dir), run_dir)

    def test_torn_cursor_tail_is_dropped(self, tmp_path):
        run_dir = tmp_path / "run"
        run_golden(run_dir, with_copies=True)
        cursor = run_dir / "state.cursor"
        lines = cursor.read_text(encoding="utf-8").splitlines(keepends=True)
        cursor.write_text(
            "".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2], encoding="utf-8"
        )
        assert_golden(resume_golden(run_dir), run_dir)

    def test_crash_at_every_write_resumes_to_golden(self, tmp_path, monkeypatch):
        with monkeypatch.context() as m:
            writes = crash_at_write(m, tmp_path / "whole", -1, torn=False)
            run_golden(tmp_path / "whole", with_copies=True)
        # Per epoch: 3 transcripts, the version text and the batch line.
        assert len(writes) == 10
        for n, what in enumerate(writes):
            for torn in (False, True):
                run_dir = tmp_path / f"crash{n}{'t' if torn else ''}"
                with monkeypatch.context() as m:
                    crash_at_write(m, run_dir, n, torn)
                    with pytest.raises(Crash):
                        run_golden(run_dir, with_copies=True)
                try:
                    assert_golden(resume_golden(run_dir), run_dir)
                except AssertionError as exc:
                    raise AssertionError(f"crash at {what} (torn={torn}): {exc}") from exc

    def test_writer_refuses_a_line_the_reader_would(self, tmp_path, monkeypatch):
        # An update that empties the step block gives a version the readers
        # cannot replay, so resume raises before the line reaches the cursor.
        run_dir = tmp_path / "run"
        optimize = trainer.optimize

        def emptying(prompt, focus, **kwargs):
            update = optimize(prompt, focus, **kwargs)
            segments = tuple(
                s._replace(text="") if s.kind is SegmentKind.STEP_INSTRUCTIONS else s
                for s in update.new_prompt.segments
            )
            return update._replace(new_prompt=update.new_prompt._replace(segments=segments))

        with monkeypatch.context() as m:
            m.setattr(trainer, "optimize", emptying)
            with pytest.raises(
                CorruptRunError,
                match="replaying v1 from v0 does not reproduce the stored prompt",
            ):
                run_golden(run_dir, with_copies=True)
        assert (run_dir / "state.cursor").read_bytes() == b""
        assert not (run_dir / "prompts" / "v1.txt").exists()
        assert_golden(resume_golden(run_dir), run_dir)

    def test_one_cursor_handle_flushes_each_line_before_the_next_call(
        self, tmp_path, monkeypatch
    ):
        run_dir = tmp_path / "run"
        written, on_disk = [], []

        def append(fh, line):
            fh.write(line)
            written.append(line)

        class Checking(Recording):
            def complete(self, request):
                cursor = run_dir / "state.cursor"
                on_disk.append(cursor.read_bytes() == b"".join(written))
                return super().complete(request)

        opened = route_cursor_appends(monkeypatch, append)
        samples, feedback, gateway = golden_inputs()
        result = train(
            (GOLDEN / "initial_prompt.txt").read_text(encoding="utf-8"), samples,
            config=golden_config(), gateway=Checking(gateway), feedback=feedback,
            run_dir=run_dir, dataset_src=GOLDEN / "dataset.yaml",
            script_src=GOLDEN / "script.yaml",
        )
        assert opened == [run_dir / "state.cursor"]
        assert len(written) == 2
        # Every line written so far is on disk when the gateway is called.
        assert on_disk == [True] * 14
        assert_golden(result, run_dir)


# --- failure paths -------------------------------------------------------------

class TestFailurePaths:
    def prompt(self):
        return (GOLDEN / "initial_prompt.txt").read_text(encoding="utf-8")

    def samples(self, count=1):
        toys = load_toy_samples(GOLDEN / "dataset.yaml")[:count]
        return [to_task_sample(s) for s in toys]

    def config(self, **train_overrides):
        config = parse_config(IDLE_CFG)
        overrides = {"epochs": 1, "batch_size": 1, "convergence_patience": None}
        overrides.update(train_overrides)
        return config._replace(train=config.train._replace(**overrides))

    def test_unscripted_batch_is_skipped(self, tmp_path):
        result = train(
            self.prompt(), self.samples(), config=self.config(),
            gateway=make_gateway(), feedback=NoFeedback(),
            run_dir=tmp_path / "run",
            dataset_src=None, script_src=None,
        )
        assert result.versions == (0,)
        assert result.episodes_run == 0
        batch = cursor_entries(tmp_path / "run")[0]
        assert batch["note"].startswith("batch skipped:")
        assert not (tmp_path / "run" / "transcripts" / "e1").exists()

    def test_redone_batch_leaves_no_stale_outputs(self, tmp_path, monkeypatch):
        run_dir = tmp_path / "run"
        # Writes after v0: the transcript, then the batch line, torn here.
        with monkeypatch.context() as m:
            crash_at_write(m, run_dir, 1, torn=True)
            with pytest.raises(Crash):
                train(
                    self.prompt(), self.samples(), config=self.config(),
                    gateway=make_gateway(*IDLE_ENTRIES), feedback=NoFeedback(),
                    run_dir=run_dir,
                    dataset_src=None, script_src=None,
                )
        assert (run_dir / "transcripts" / "e1" / "b1").is_dir()
        assert not (run_dir / "state.cursor").read_bytes().endswith(b"\n")
        # A live backend may answer differently the second time: here
        # every episode fails, so the redone batch writes nothing.
        resume(
            run_dir, self.samples(), config=self.config(),
            gateway=make_gateway(), feedback=NoFeedback(),
        )
        assert cursor_entries(run_dir)[0]["note"].startswith("batch skipped:")
        assert not (run_dir / "transcripts" / "e1" / "b1").exists()
        assert len(cursor_entries(run_dir)) == 1

    def test_summarizer_failure_keeps_transcripts(self, tmp_path):
        bad_summary = entry(["You are a summarizer"], "no conclusion line here")
        result = train(
            self.prompt(), self.samples(), config=self.config(),
            gateway=make_gateway(IDLE_ENTRIES[0], bad_summary),
            feedback=NoFeedback(), run_dir=tmp_path / "run",
            dataset_src=None, script_src=None,
        )
        assert result.versions == (0,)
        assert result.episodes_run == 1
        batch = cursor_entries(tmp_path / "run")[0]
        assert batch["note"].startswith("summarizer failed:")
        # 1 episode + 2 summarizer attempts.
        assert batch["calls_total"] == 3
        assert (tmp_path / "run" / "transcripts" / "e1" / "b1").is_dir()
        assert "focus" not in batch

    def test_optimizer_rejection_keeps_prompt(self, tmp_path):
        focus_summary = entry(
            ["You are a summarizer"],
            "Same failure everywhere.\n"
            "In conclusion, the main focus point should be: "
            "the answers skip the budget check.",
        )
        no_marker = entry(["You are a prompt optimizer"], "no final prompt given")
        result = train(
            self.prompt(), self.samples(), config=self.config(),
            gateway=make_gateway(IDLE_ENTRIES[0], focus_summary, no_marker),
            feedback=NoFeedback(), run_dir=tmp_path / "run",
            dataset_src=None, script_src=None,
        )
        assert result.versions == (0,)
        assert render_prompt(result.final_prompt).startswith("You are a day-planner.")
        batch = cursor_entries(tmp_path / "run")[0]
        assert batch["note"].startswith("optimizer rejected:")
        assert batch["prompt_version"] == 0
        # 1 episode + 1 summary + 3 optimizer attempts.
        assert batch["calls_total"] == 5
        assert "focus" in batch
        assert "optimizer_raw" not in batch and "version" not in batch

    def test_guardrail_rejection_noted(self, tmp_path):
        focus_summary = entry(
            ["You are a summarizer"],
            "Same failure everywhere.\n"
            "In conclusion, the main focus point should be: "
            "the answers skip the budget check.",
        )
        # Marker present, but the candidate rewrites the preamble.
        mangled = self.prompt().replace("You are a day-planner.", "You are a poet.")
        bad_candidate = entry(
            ["You are a prompt optimizer"],
            "Analysis.\nBased on the above analysis, the improved prompt is: \n"
            + mangled,
        )
        result = train(
            self.prompt(), self.samples(), config=self.config(),
            gateway=make_gateway(IDLE_ENTRIES[0], focus_summary, bad_candidate),
            feedback=NoFeedback(), run_dir=tmp_path / "run",
            dataset_src=None, script_src=None,
        )
        assert result.versions == (0,)
        note = cursor_entries(tmp_path / "run")[0]["note"]
        assert note.startswith("optimizer rejected:")


class TestGuardSettings:
    """The run's [guards] section governs its optimizer and repair calls."""

    FOCUS = entry(
        ["You are a summarizer"],
        "Same failure everywhere.\n"
        "In conclusion, the main focus point should be: "
        "the answers skip the budget check.",
    )

    def train(self, run_dir, guards, *optimizer_entries):
        config = parse_config(
            IDLE_CFG.replace("epochs = 5", "epochs = 1").replace(
                "batch_size = 2", "batch_size = 1"
            ) + guards
        )
        toys = load_toy_samples(GOLDEN / "dataset.yaml")[:1]
        gateway = Recording(make_gateway(IDLE_ENTRIES[0], self.FOCUS, *optimizer_entries))
        result = train(
            (GOLDEN / "initial_prompt.txt").read_text(encoding="utf-8"),
            [to_task_sample(s) for s in toys], config=config, gateway=gateway,
            feedback=NoFeedback(), run_dir=run_dir, dataset_src=None, script_src=None,
        )
        return result, gateway

    def candidate(self, step):
        v0 = render_prompt(inject_default_steps(parse_prompt(
            (GOLDEN / "initial_prompt.txt").read_text(encoding="utf-8"), TOY_SEG
        )))
        return v0.replace("2. Then,", f"2. {step}\n3. Then,")

    def test_optimizer_attempts_caps_the_retries(self, tmp_path):
        mangled = self.candidate("Check the budget.").replace(
            "You are a day-planner.", "You are a poet."
        )
        answers = [
            # The first attempt rewrites the preamble; the retry is clean.
            entry(
                ["You are a prompt optimizer"],
                f"{prompts.FINAL_PROMPT_MARKER}\n{mangled}",
                excludes=["Your previous attempt was rejected"],
            ),
            entry(
                ["You are a prompt optimizer", "Your previous attempt was rejected"],
                f"{prompts.FINAL_PROMPT_MARKER}\n{self.candidate('Check the budget.')}",
            ),
        ]
        result, _ = self.train(tmp_path / "default", "", *answers)
        assert result.versions == (0, 1)
        result, _ = self.train(
            tmp_path / "once", "\n[guards]\noptimizer_attempts = 1\n", *answers
        )
        assert result.versions == (0,)
        assert not (tmp_path / "once" / "prompts" / "v1.txt").exists()
        batch = cursor_entries(tmp_path / "once")[0]
        assert batch["note"].startswith("optimizer rejected:")
        assert "version" not in batch

    def test_extra_placeholder_patterns_send_a_repair_call(self, tmp_path):
        stubbed = self.candidate("Check the rest SAME AS BEFORE.")
        clean = self.candidate("Check the budget.")
        answers = [
            entry(
                ["You are a prompt optimizer"], f"{prompts.FINAL_PROMPT_MARKER}\n{stubbed}"
            ),
            entry(["You are a template replacer"], clean),
        ]
        result, _ = self.train(tmp_path / "default", "", *answers)
        assert render_prompt(result.final_prompt) == stubbed
        result, gateway = self.train(
            tmp_path / "extra",
            '\n[guards]\nextra_placeholder_patterns = ["same as before"]\n',
            *answers,
        )
        repairs = [
            r for r, _ in gateway.history
            if r.messages[0].content == prompts.TEMPLATE_REPLACER_SYSTEM_PROMPT
        ]
        assert len(repairs) == 1
        assert render_prompt(result.final_prompt) == clean


# --- corruption detection ------------------------------------------------------

@pytest.fixture
def golden_dir(tmp_path):
    run_golden(tmp_path / "run")
    return tmp_path / "run"


# A batch line with every field resume needs, each of the right type.
COMPLETE_BATCH = {
    "epoch": 3, "batch": 1, "prompt_version": 2,
    "episodes_total": 6, "calls_total": 14,
}


class TestCorruptRuns:
    def test_tampered_text_fails_hash(self, golden_dir):
        v1 = golden_dir / "prompts" / "v1.txt"
        v1.write_text(v1.read_text(encoding="utf-8") + "x", encoding="utf-8")
        with pytest.raises(CorruptRunError, match="does not match its recorded hash"):
            verify_chain(golden_dir)

    def test_uncommitted_version_file(self, golden_dir, capsys):
        (golden_dir / "prompts" / "v3.txt").write_text("stray\n", encoding="utf-8")
        with pytest.raises(CorruptRunError, match="v3 is not committed"):
            verify_chain(golden_dir)
        assert main(["inspect", "--out", str(golden_dir)]) == 2
        assert "v3 is not committed" in capsys.readouterr().err
        samples, feedback, _ = golden_inputs()
        result = resume(
            golden_dir, samples, config=golden_config(),
            gateway=make_gateway(), feedback=feedback,
        )
        assert result.versions == (0, 1, 2)
        assert not (golden_dir / "prompts" / "v3.txt").exists()
        rendered = [render_prompt(r.doc) for r in verify_chain(golden_dir)]
        assert rendered == version_texts(golden_dir, 3)

    def test_gap_in_versions(self, golden_dir):
        (golden_dir / "prompts" / "v1.txt").unlink()
        edit_cursor(golden_dir, 0, lambda e: e.pop("version"))
        with pytest.raises(
            CorruptRunError, match="batch line of epoch 1, batch 1 records v1 where v0 is due"
        ):
            verify_chain(golden_dir)

    def test_no_versions_at_all(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no run directory at "):
            verify_chain(tmp_path / "nowhere")

    def test_resume_without_prompts_directory(self, golden_dir):
        shutil.rmtree(golden_dir / "prompts")
        samples, feedback, _ = golden_inputs()
        with pytest.raises(CorruptRunError, match="has no prompts directory"):
            resume(
                golden_dir, samples, config=golden_config(),
                gateway=make_gateway(), feedback=feedback,
            )

    def test_invalid_utf8_cursor_line(self, golden_dir):
        cursor = golden_dir / "state.cursor"
        line_no = len(cursor.read_bytes().splitlines()) + 1
        with open(cursor, "ab") as fh:
            fh.write(b"\xff\xfe\n")
        with pytest.raises(CorruptRunError, match=f"bad cursor line {line_no}:"):
            verify_chain(golden_dir)
        samples, feedback, _ = golden_inputs()
        with pytest.raises(CorruptRunError, match=f"bad cursor line {line_no}:"):
            resume(
                golden_dir, samples, config=golden_config(),
                gateway=make_gateway(), feedback=feedback,
            )

    def test_torn_invalid_utf8_tail_is_skipped(self, golden_dir):
        cursor = golden_dir / "state.cursor"
        complete = cursor.read_bytes()
        cursor.write_bytes(complete + b"\xff\xfe")
        rendered = [render_prompt(r.doc) for r in verify_chain(golden_dir)]
        assert rendered == version_texts(golden_dir, 3)
        assert cursor.read_bytes() == complete + b"\xff\xfe"
        samples, feedback, _ = golden_inputs()
        resume(
            golden_dir, samples, config=golden_config(),
            gateway=make_gateway(), feedback=feedback,
        )
        assert cursor.read_bytes() == complete

    def test_v0_with_parent(self, golden_dir):
        # A batch line that records writing v0 gives v0 a parent.
        edit_cursor(golden_dir, 0, lambda e: e.update(prompt_version=0))
        with pytest.raises(
            CorruptRunError, match="batch line of epoch 1, batch 1 records v0 where v1 is due"
        ):
            verify_chain(golden_dir)

    @pytest.mark.parametrize("edit", [
        lambda e: e["version"].update(hash=5),
        lambda e: e.update(focus={"case": ["x"], "text": 3}),
        lambda e: e.update(focus={"case": "bogus", "text": "a reason"}),
        lambda e: e.update(focus={"case": "no_general_reason", "text": "a reason"}),
        lambda e: e["focus"].update(text=3),
        lambda e: e.pop("focus"),
    ], ids=[
        "int-hash", "list-focus-case", "unknown-focus-case", "no-reason-focus-case",
        "int-focus-text", "no-focus",
    ])
    def test_malformed_version_record(self, golden_dir, edit):
        edit_cursor(golden_dir, 0, edit)
        before = tree_hashes(golden_dir)
        with pytest.raises(CorruptRunError, match="record of prompt v1 has a malformed"):
            verify_chain(golden_dir)
        samples, feedback, _ = golden_inputs()
        with pytest.raises(CorruptRunError, match="record of prompt v1 has a malformed"):
            resume(
                golden_dir, samples, config=golden_config(),
                gateway=make_gateway(), feedback=feedback,
            )
        assert tree_hashes(golden_dir) == before

    def test_replay_rejects_foreign_segment_text(self, golden_dir, capsys):
        # v2 differs from v1 outside the step block; its recorded hash is
        # made to match, so only the replay can tell.
        v2 = golden_dir / "prompts" / "v2.txt"
        text = v2.read_text(encoding="utf-8")
        examples = next(
            s.text for s in parse_prompt(text, TOY_SEG).segments
            if s.kind is SegmentKind.EXAMPLES
        )
        text = text.replace(examples, examples.replace("\n", "\nOne more example line.\n", 1))
        v2.write_text(text, encoding="utf-8")
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        edit_cursor(golden_dir, 1, lambda e: e["version"].update(hash=digest))
        assert main(["inspect", "--out", str(golden_dir)]) == 2
        assert "replaying v2 from v1 does not reproduce the stored prompt" in (
            capsys.readouterr().err
        )

    def test_replay_rejects_a_version_equal_to_its_parent(self, golden_dir, capsys):
        # No update leaves the steps as they were, so v2 may not repeat v1,
        # even with its recorded hash made to match.
        v1 = (golden_dir / "prompts" / "v1.txt").read_bytes()
        (golden_dir / "prompts" / "v2.txt").write_bytes(v1)
        digest = hashlib.sha256(v1).hexdigest()
        edit_cursor(golden_dir, 1, lambda e: e["version"].update(hash=digest))
        assert main(["inspect", "--out", str(golden_dir)]) == 2
        assert "replaying v2 from v1 does not reproduce the stored prompt" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("field", ["segmentation", "required_tokens"])
    def test_run_meta_without_markers(self, golden_dir, field):
        meta_path = golden_dir / "run.meta"
        meta = json.loads(meta_path.read_text())
        del meta[field]
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(CorruptRunError, match="does not record the segmentation markers"):
            replay_lineage(golden_dir)

    def test_cursor_commits_a_missing_version(self, golden_dir):
        (golden_dir / "prompts" / "v2.txt").unlink()
        samples, feedback, _ = golden_inputs()
        with pytest.raises(CorruptRunError, match="commits prompt v2"):
            resume(
                golden_dir, samples, config=golden_config(),
                gateway=make_gateway(), feedback=feedback,
            )

    def test_incomplete_cursor_record(self, golden_dir):
        with open(golden_dir / "state.cursor", "a", encoding="utf-8") as fh:
            fh.write('{"epoch": 3, "batch": 1}\n')
        samples, feedback, _ = golden_inputs()
        with pytest.raises(CorruptRunError, match="not a complete batch record"):
            resume(
                golden_dir, samples, config=golden_config(),
                gateway=make_gateway(), feedback=feedback,
            )

    @pytest.mark.parametrize("line", [
        list(COMPLETE_BATCH.values()),
        {**COMPLETE_BATCH, "batch": "x"},
        {**COMPLETE_BATCH, "prompt_version": "two"},
        {**COMPLETE_BATCH, "epoch": 3.0},
        {**COMPLETE_BATCH, "calls_total": None},
        {**COMPLETE_BATCH, "episodes_total": True},
    ], ids=[
        "list-kind", "str-batch", "str-version", "float-epoch", "null-calls",
        "bool-episodes",
    ])
    def test_malformed_cursor_field(self, golden_dir, line):
        cursor = golden_dir / "state.cursor"
        line_no = len(cursor.read_bytes().splitlines()) + 1
        with open(cursor, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(line) + "\n")
        with pytest.raises(CorruptRunError, match=f"bad cursor line {line_no}:"):
            verify_chain(golden_dir)
        samples, feedback, _ = golden_inputs()
        with pytest.raises(CorruptRunError, match=f"bad cursor line {line_no}:"):
            resume(
                golden_dir, samples, config=golden_config(),
                gateway=make_gateway(), feedback=feedback,
            )

    # The golden cursor: batch e1/b1 (writes v1), then batch e2/b1 (writes
    # v2); one batch per epoch, so each line closes its epoch.
    @pytest.mark.parametrize("damage, message", [
        (lambda lines: lines[1].update(prompt_version=-1),
         "the batch line of epoch 2, batch 1 records v-1 where v2 is due"),
        (lambda lines: lines.pop(0), "batch line of epoch 2, batch 1 is out of order"),
        (lambda lines: lines[1].update(prompt_version=10**30),
         "batch line of epoch 2, batch 1 records v10{30} where v2 is due"),
        (lambda lines: lines[0].update(prompt_version=-1),
         "batch line of epoch 1, batch 1 records v-1 where v1 is due"),
        (lambda lines: lines.insert(1, lines[0]), "batch line of epoch 1, batch 1 is out"),
        (lambda lines: lines.append({**lines[1], "epoch": 3}),
         "end of the cursor after the run's 2 epoch"),
        (lambda lines: lines[1].update(calls_total=7), "fewer episodes or calls"),
        (lambda lines: lines[0].update(episodes_total=-1), "fewer episodes or calls"),
        # A stripped version record leaves v1.txt uncommitted; the line's
        # prompt_version, not the file, tells that the record is missing.
        (lambda lines: lines[0].pop("version"),
         "batch line of epoch 1, batch 1 records v1 where v0 is due"),
        (lambda lines: lines[0].update(version="x"), "record of prompt v1 is not a mapping"),
    ], ids=[
        "negative-batch-version", "missing-batch-line", "huge-epoch-version",
        "negative-epoch-version", "duplicate-batch-line",
        "epoch-past-run-shape", "falling-calls", "negative-episodes",
        "stripped-version-record", "string-version-record",
    ])
    def test_resume_refuses_a_bad_cursor_untouched(self, golden_dir, damage, message):
        lines = cursor_entries(golden_dir)
        damage(lines)
        write_cursor(golden_dir, lines)
        before = tree_hashes(golden_dir)
        with pytest.raises(CorruptRunError, match=message):
            verify_chain(golden_dir)
        samples, feedback, _ = golden_inputs()
        with pytest.raises(CorruptRunError, match=message):
            resume(
                golden_dir, samples, config=golden_config(),
                gateway=make_gateway(), feedback=feedback,
            )
        assert tree_hashes(golden_dir) == before

    @pytest.mark.parametrize("key, value", [
        ("samples", "3"), ("batch_size", 0), ("epochs", None), ("epochs", True),
    ])
    def test_run_meta_without_a_run_shape(self, golden_dir, key, value):
        meta_path = golden_dir / "run.meta"
        meta = json.loads(meta_path.read_text())
        meta[key] = value
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(CorruptRunError, match="does not record the sample count"):
            verify_chain(golden_dir)

    @pytest.mark.parametrize("key, value", [
        ("dataset", "elsewhere.yaml"), ("script", "dataset.yaml"), ("dataset", 1),
    ])
    def test_run_meta_naming_another_input_copy(self, golden_dir, key, value):
        meta_path = golden_dir / "run.meta"
        meta = json.loads(meta_path.read_text())
        meta[key] = value
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        before = tree_hashes(golden_dir)
        message = f"records {key} {value!r}; only '{key}.yaml' or null is written"
        with pytest.raises(CorruptRunError, match=message):
            verify_chain(golden_dir)
        with pytest.raises(CorruptRunError, match=message):
            rundir.open_run(golden_dir)[1].copies
        samples, feedback, _ = golden_inputs()
        with pytest.raises(CorruptRunError, match=message):
            resume(
                golden_dir, samples, config=golden_config(),
                gateway=make_gateway(), feedback=feedback,
            )
        assert tree_hashes(golden_dir) == before

    @pytest.mark.parametrize("damage, message", [
        (lambda run: (run / "dataset.yaml").write_text("[]\n"),
         "dataset.yaml does not match the dataset_sha256 in "),
        (lambda run: (run / "script.yaml").unlink(), "script.yaml, which is missing"),
        (lambda run: edit_run_meta(run, script_sha256="0" * 64),
         "script.yaml does not match the script_sha256 in "),
        (lambda run: edit_run_meta(run, dataset=None),
         "records a dataset_sha256 but no dataset copy"),
    ], ids=["dataset-changed", "script-missing", "other-script-hash", "hash-without-copy"])
    def test_input_copy_that_does_not_match_its_hash(self, tmp_path, damage, message):
        run = tmp_path / "run"
        with pytest.raises(BudgetExhaustedError):
            run_golden(run, config=golden_config(call_budget=8), with_copies=True)
        damage(run)
        before = tree_hashes(run)
        with pytest.raises(CorruptRunError, match=message):
            verify_chain(run)
        with pytest.raises(CorruptRunError, match=message):
            rundir.open_run(run)[1].copies
        samples, feedback, gateway = golden_inputs()
        with pytest.raises(CorruptRunError, match=message):
            resume(run, samples, config=golden_config(), gateway=gateway, feedback=feedback)
        assert tree_hashes(run) == before

    @pytest.mark.parametrize("index", [1, 2], ids=["between-lines", "at-the-end"])
    def test_blank_cursor_line_is_corrupt(self, golden_dir, index):
        # No writer appends a blank line, so a complete blank line is damage.
        cursor = golden_dir / "state.cursor"
        lines = cursor.read_bytes().splitlines(keepends=True)
        lines.insert(index, b"\n")
        cursor.write_bytes(b"".join(lines))
        before = tree_hashes(golden_dir)
        message = f"bad cursor line {index + 1}: "
        with pytest.raises(CorruptRunError, match=message):
            verify_chain(golden_dir)
        samples, feedback, _ = golden_inputs()
        with pytest.raises(CorruptRunError, match=message):
            resume(
                golden_dir, samples, config=golden_config(),
                gateway=make_gateway(), feedback=feedback,
            )
        assert tree_hashes(golden_dir) == before

    def test_bad_cursor_line(self, golden_dir):
        with open(golden_dir / "state.cursor", "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        samples, feedback, _ = golden_inputs()
        with pytest.raises(CorruptRunError, match="bad cursor line"):
            resume(
                golden_dir, samples, config=golden_config(),
                gateway=make_gateway(), feedback=feedback,
            )
