"""Acceptance gate: one test and one printed verdict line per criterion.

Each test prints a single [PASS]/[FAIL] line straight to the terminal
(bypassing capture) so the verdicts are visible in any pytest run.
"""
import hashlib
import time

import yaml

from conftest import GOLDEN, TOY_SEG, entry, enumerate_plans, make_caller, make_gateway
from reprompt.actor import NoFeedback, RuleCheckFeedback
from reprompt.config import parse_config
from reprompt.evaluator import evaluate
from reprompt.gateway import ScriptedGateway, load_script
from reprompt.guardrails import GuardConfig, Verdict, review_candidate
from reprompt.optimizer import optimize
from reprompt.prompt_model import (
    DEFAULT_SEGMENTATION,
    has_step_instructions,
    inject_default_steps,
    parse_prompt,
    render_prompt,
)
from reprompt.summarizer import FocusCase, FocusPoint
from reprompt.toy_task import (
    CheckResult,
    ToyAdapter,
    best_answer,
    blind_answer,
    format_plan,
    generate_sample,
    generate_samples,
    load_toy_samples,
    oracle_check,
    oracle_feasible_set,
    to_task_sample,
    toy_check,
)
from reprompt.trainer import replay_lineage, train, verify_chain

ANCHOR = "costs of the chosen activities"


def report(capsys, name, ok, detail=""):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def golden_config(**train_overrides):
    config = parse_config((GOLDEN / "run.cfg").read_text(encoding="utf-8"))
    if train_overrides:
        config = config._replace(train=config.train._replace(**train_overrides))
    return config


def golden_train(run_dir, config=None):
    toys = load_toy_samples(GOLDEN / "dataset.yaml")
    return train(
        (GOLDEN / "initial_prompt.txt").read_text(encoding="utf-8"),
        [to_task_sample(s) for s in toys],
        config=config or golden_config(),
        gateway=ScriptedGateway(load_script(str(GOLDEN / "script.yaml"))),
        feedback=RuleCheckFeedback(ToyAdapter(), {s.id: s for s in toys}),
        run_dir=run_dir,
        dataset_src=GOLDEN / "dataset.yaml",
        script_src=GOLDEN / "script.yaml",
    )


def test_golden_run_reproduction(tmp_path, capsys):
    """A frozen scripted run reproduces every output byte, quickly."""
    manifest = yaml.safe_load((GOLDEN / "manifest.yaml").read_text())
    started = time.perf_counter()
    result = golden_train(tmp_path / "run")
    elapsed = time.perf_counter() - started

    actual = {
        p.relative_to(tmp_path / "run").as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted((tmp_path / "run").rglob("*"))
        if p.is_file()
    }
    final_ok = render_prompt(result.final_prompt) == (
        GOLDEN / "final_prompt.txt"
    ).read_text(encoding="utf-8")
    ok = (
        actual == manifest["files"]
        and final_ok
        and result.calls_used == manifest["calls_used"]
        and result.episodes_run == manifest["episodes_run"]
        and list(result.versions) == manifest["versions"]
        and elapsed < 5.0
    )
    report(
        capsys, "golden-run-reproduction", ok,
        f"{len(actual)} files byte-identical, final prompt exact, "
        f"{result.calls_used} calls, {elapsed:.2f}s",
    )


# --- protected sections ----------------------------------------------------------

GUARD_BASE = """\
Plan the outing.

1. Read the task.
2. Answer with a plan.

***** Example *****
Task: small
PLAN:
Day 1: x1
***** Example Ends *****

***** Example *****
Task: big
PLAN:
Day 1: y1
***** Example Ends *****

Your final answer must contain "PLAN:".

Here is the task:
Task id: {task_id}
"""

EX_SMALL = (
    "***** Example *****\nTask: small\nPLAN:\nDay 1: x1\n"
    "***** Example Ends *****\n\n"
)
EX_BIG = (
    "***** Example *****\nTask: big\nPLAN:\nDay 1: y1\n"
    "***** Example Ends *****\n\n"
)


def _tampered_candidates():
    """Twenty candidates that tamper with protected or required content.

    Yields (name, candidate_text, repair_caller).
    """
    base = GUARD_BASE
    both = EX_SMALL + EX_BIG
    repair_ok = make_caller(
        make_gateway(entry(["You are a template replacer"], base)), "fixer"
    )
    repair_bad = make_caller(make_gateway(
        entry(["You are a template replacer"], base.replace(both, "⟨examples⟩\n\n"))
    ), "fixer")
    repair_drop = make_caller(make_gateway(
        entry(["You are a template replacer"], base.replace(both, EX_SMALL))
    ), "fixer")
    cases = [
        ("examples deleted", base.replace(both, ""), repair_bad),
        ("examples stubbed, repair drops an example",
         base.replace(both, "<Examples from the original prompt>\n\n"), repair_drop),
        ("examples stubbed, repairable",
         base.replace(both, "<Examples from the original prompt>\n\n"), repair_ok),
        ("examples stubbed, repair keeps stub",
         base.replace(both, "<Examples from the original prompt>\n\n"), repair_bad),
        ("word changed in example",
         base.replace("Task: small", "Task: tiny"), repair_bad),
        ("example truncated", base.replace("PLAN:\nDay 1: x1\n", ""), repair_bad),
        ("format reworded",
         base.replace('must contain "PLAN:"', 'should include "PLAN:"'), repair_bad),
        ("format deleted",
         base.replace('Your final answer must contain "PLAN:".\n\n', ""), repair_bad),
        ("examples swapped", base.replace(both, EX_BIG + EX_SMALL), repair_bad),
        ("angle-bracket stub",
         base.replace(both, "⟨insert the examples⟩\n\n"), repair_bad),
        ("brace stub", base.replace(both, "{Example block goes here}\n\n"), repair_bad),
        ("original-prompt stub",
         base.replace(both, "<same as the original prompt>\n\n"), repair_bad),
        ("example lowercased", base.replace("Task: big", "task: big"), repair_bad),
        ("whitespace changed in example",
         base.replace("Day 1: x1", "Day 1:  x1"), repair_bad),
        ("close marker dropped",
         base.replace("***** Example Ends *****\n\n***** Example *****\n", ""),
         repair_bad),
        ("required token stripped", base.replace("PLAN:", "ANSWER:"), repair_bad),
        ("sentence appended inside example",
         base.replace("Day 1: y1\n*****", "Day 1: y1\nAlso pack a map.\n*****"),
         repair_bad),
        ("line prepended inside example",
         base.replace("Task: small", "Note the budget.\nTask: small"), repair_bad),
        ("stub plus format edit",
         base.replace(both, "<Examples from the original prompt>\n\n")
             .replace('must contain "PLAN:"', "may contain anything"), repair_ok),
        ("singular example stub", base.replace(both, "<Example>\n\n"), repair_bad),
    ]
    assert len(cases) == 20
    return cases


def test_protected_section_enforcement(capsys):
    """No tampered candidate gets through as accepted."""
    old = parse_prompt(GUARD_BASE, TOY_SEG)
    verdicts = {}
    for name, candidate, repair in _tampered_candidates():
        reviewed, _ = review_candidate(
            old,
            candidate,
            seg_config=TOY_SEG,
            required_tokens=("PLAN:",),
            guard_config=GuardConfig(),
            repair=repair,
        )
        verdicts[name] = reviewed.verdict
    caught = sum(
        v in (Verdict.REPAIRED, Verdict.REJECTED) for v in verdicts.values()
    )
    repaired = sum(v is Verdict.REPAIRED for v in verdicts.values())
    ok = caught == 20 and repaired >= 1
    leaks = [n for n, v in verdicts.items() if v is Verdict.ACCEPTED]
    report(
        capsys, "protected-section-enforcement", ok,
        f"{caught}/20 tampered candidates repaired or rejected "
        f"({repaired} repaired){', leaked: ' + str(leaks) if leaks else ''}",
    )


def test_identity_on_no_signal(capsys):
    """A no-general-reason focus changes nothing and costs no calls."""
    fixtures = sorted((GOLDEN.parent / "prompts").glob("*.txt"))
    texts = [p.read_text(encoding="utf-8") for p in fixtures]
    texts.append((GOLDEN / "initial_prompt.txt").read_text(encoding="utf-8"))
    texts.append((GOLDEN / "final_prompt.txt").read_text(encoding="utf-8"))
    gateway = make_gateway()
    focus = FocusPoint(case=FocusCase.NO_GENERAL_REASON, text="")
    caller = make_caller(gateway, "opt")
    exact = 0
    for i in range(50):
        base = texts[i % len(texts)]
        doc = parse_prompt(f"Variant {i}: keep the notes tidy.\n\n{base}")
        if not has_step_instructions(doc):
            doc = inject_default_steps(doc)
        update = optimize(
            doc, focus, caller=caller, repair=caller, seg_config=DEFAULT_SEGMENTATION,
            required_tokens=(), guard_config=GuardConfig(),
        )
        if (
            not update.changed
            and render_prompt(update.new_prompt) == render_prompt(doc)
        ):
            exact += 1
    ok = exact == 50 and gateway.calls == 0
    report(
        capsys, "identity-on-no-signal", ok,
        f"{exact}/50 prompts byte-identical, {gateway.calls} optimizer calls",
    )


# --- counting ------------------------------------------------------------------

IDLE_CFG = """\
[train]
epochs = 1
batch_size = 1
max_rounds = 2
feedback = none
seed = 11

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


def idle_train(run_dir, sample_count, epochs, **train_overrides):
    config = parse_config(IDLE_CFG)
    config = config._replace(
        train=config.train._replace(
            epochs=epochs, batch_size=sample_count,
            **train_overrides,
        ),
    )
    samples = [
        to_task_sample(s) for s in generate_samples(sample_count, base_seed=0)
    ]
    return train(
        (GOLDEN / "initial_prompt.txt").read_text(encoding="utf-8"),
        samples,
        config=config,
        gateway=make_gateway(*IDLE_ENTRIES),
        feedback=NoFeedback(),
        run_dir=run_dir,
        dataset_src=None, script_src=None,
    )


def test_episode_budget_exactness(tmp_path, capsys):
    """n samples for 50/n epochs always total exactly 50 episodes."""
    outcomes = {}
    for n in (1, 2, 5, 10, 25):
        result = idle_train(tmp_path / f"run{n}", n, epochs=50 // n)
        outcomes[n] = result.episodes_run
    ok = all(count == 50 for count in outcomes.values())
    report(
        capsys, "episode-budget-exactness", ok,
        "episodes at batch sizes {1, 2, 5, 10, 25}: "
        + ", ".join(str(outcomes[n]) for n in sorted(outcomes)),
    )


def test_convergence_halt(tmp_path, capsys):
    """An unchanged prompt stops the run after exactly `patience` epochs."""
    outcomes = {}
    for patience in (1, 2, 3):
        result = idle_train(
            tmp_path / f"run{patience}", 2, epochs=50,
            convergence_patience=patience,
        )
        outcomes[patience] = (
            result.converged,
            result.epochs_completed,
            len(result.versions),
        )
    ok = all(
        outcomes[p] == (True, p, 1) for p in outcomes
    )
    report(
        capsys, "convergence-halt", ok,
        "epochs at patience 1/2/3: "
        + ", ".join(str(outcomes[p][1]) for p in sorted(outcomes))
        + "; single prompt version each",
    )


class OracleAdapter(ToyAdapter):
    """Scores toy answers by the enumeration oracle, not the training-time checker."""

    def check(self, answer, sample):
        return CheckResult(oracle_check(answer, sample))


def test_toy_task_improvement(tmp_path, capsys):
    """One optimization epoch lifts the toy pass rate from 0 to 1."""
    result = golden_train(tmp_path / "run", config=golden_config(epochs=1))
    assert ANCHOR in render_prompt(result.final_prompt)

    holdout = generate_samples(20, base_seed=200, require_blind_fail=True)
    entries = []
    for sample in holdout:
        sid_line = f"Task id: {sample.id}\n"
        entries.append(entry(
            [sid_line], format_plan(blind_answer(sample)) + "\n",
            roles=["user"], excludes=[ANCHOR],
        ))
        entries.append(entry(
            [ANCHOR, sid_line], format_plan(best_answer(sample)) + "\n",
            roles=["user"],
        ))
    gateway = make_gateway(*entries)
    adapter = OracleAdapter()
    seg = golden_config().task.segmentation()
    initial = parse_prompt(
        (GOLDEN / "initial_prompt.txt").read_text(encoding="utf-8"), seg
    )

    def score(prompt_doc):
        report_ = evaluate(
            prompt_doc, holdout, adapter,
            gateway=gateway, model="planner", temperature=0.0, seed=42,
            feedback=NoFeedback(), max_rounds=1,
        )
        return report_.pass_rate

    before = score(initial)
    after = score(result.final_prompt)
    ok = before <= 0.40 and after >= 0.90
    report(
        capsys, "toy-task-improvement", ok,
        f"pass rate {before:.2f} before, {after:.2f} after one epoch "
        f"(thresholds 0.40 / 0.90, n=20)",
    )


def test_checker_oracle_agreement(capsys):
    """The incremental checker and the enumeration oracle never disagree."""
    disagreements = 0
    plans_checked = 0
    for seed in range(1000):
        sample = generate_sample(seed)
        feasible = oracle_feasible_set(sample)
        for plan in enumerate_plans(sample):
            plans_checked += 1
            if toy_check(plan, sample).passed != (plan in feasible):
                disagreements += 1
    ok = disagreements == 0
    report(
        capsys, "checker-oracle-agreement", ok,
        f"{disagreements} disagreements over 1000 samples "
        f"({plans_checked} plans)",
    )


def test_round_trip_and_replay(tmp_path, capsys):
    """Parsing is byte-lossless and a run's lineage rebuilds its own hashes."""
    fixtures = sorted((GOLDEN.parent / "prompts").glob("*.txt"))
    texts = [p.read_text(encoding="utf-8") for p in fixtures]
    texts.append((GOLDEN / "initial_prompt.txt").read_text(encoding="utf-8"))
    texts.append((GOLDEN / "final_prompt.txt").read_text(encoding="utf-8"))
    round_tripped = 0
    for text in texts:
        if all(
            render_prompt(parse_prompt(text, seg)) == text
            for seg in (DEFAULT_SEGMENTATION, TOY_SEG)
        ):
            round_tripped += 1

    golden_train(tmp_path / "run")
    docs = replay_lineage(tmp_path / "run")
    metas = [record.meta for record in verify_chain(tmp_path / "run")]
    replay_ok = all(
        hashlib.sha256(render_prompt(doc).encode()).hexdigest() == meta["hash"]
        for doc, meta in zip(docs, metas)
    )
    ok = round_tripped == len(texts) and len(docs) == 3 and replay_ok
    report(
        capsys, "round-trip-and-replay", ok,
        f"{round_tripped}/{len(texts)} prompts byte-lossless under two marker "
        f"configs; lineage replay rebuilt {len(docs)} version hashes",
    )
