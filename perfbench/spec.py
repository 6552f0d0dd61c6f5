"""What each workload is made of: sizes, prompt texts, configs, versions.

Standard library only, so the child process can import it before it
starts timing ``import reprompt``. The prompt texts here are the
benchmark's own; every prompt version the program should write is built
here too, so the checks compare the program's output with a
construction made apart from it.
"""
from __future__ import annotations

WORKLOADS = ("train_wide", "train_deep", "eval_http")

# Sizes. train_wide and eval_http are large enough that one round takes
# over a second; train_deep gets its length from many small batches.
TRAIN_WIDE = {"samples": 300, "batch_size": 30, "epochs": 2}
TRAIN_DEEP = {"samples": 4, "batch_size": 1, "epochs": 30}
EVAL_HTTP = {"samples": 200}

# Every seed owns a disjoint block of toy-sample seeds; the offsets keep
# the training and held-out sets of one seed apart.
SEED_STRIDE = 10_000
WIDE_OFFSET = 0
DEEP_OFFSET = 4_000
HOLDOUT_OFFSET = 6_000


def base_seed(seed: int, offset: int) -> int:
    return seed * SEED_STRIDE + offset


# Present only in the budget step that training adds; scripts and the
# loopback stub answer with the best plan when a request carries it.
ANCHOR = "costs of the chosen activities"

SUMMARIZER_PREFIX = "You are a summarizer"
OPTIMIZER_PREFIX = "You are a prompt optimizer"
REPAIR_PREFIX = "You are a template replacer"

PREAMBLE = (
    "You are a day-planner. For each day of the trip choose exactly one "
    "activity from that day's options. The total cost of all chosen "
    "activities must stay within the budget, and every pair of consecutive "
    "days must follow one of the allowed city routes.\n\n"
)
STEP_INTRO = "Please solve the task step by step"
EXAMPLES_OPEN = "***** Example *****"
EXAMPLES = (
    "***** Example *****\n"
    "Task id: toy-demo\n"
    "Days: 2\n"
    "Budget: 40\n"
    "Options:\n"
    "Day 1: x11 (cost 15, city A); x12 (cost 30, city B)\n"
    "Day 2: x21 (cost 20, city A); x22 (cost 35, city C)\n"
    "Routes: A->A, B->C\n"
    "\n"
    "A valid answer:\n"
    "PLAN:\n"
    "Day 1: x11\n"
    "Day 2: x21\n"
    "***** Example Ends *****\n\n"
)
FORMAT_OPEN = "Your final answer"
FORMAT = (
    'Your final answer must end with a block starting with "PLAN:", followed '
    'by one line per day in the form "Day k: <activity id>".\n\n'
)
TASK_OPEN = "Here is the task:"
TASK = (
    "Here is the task:\n"
    "Task id: {task_id}\n"
    "Days: {days}\n"
    "Budget: {budget}\n"
    "Options:\n"
    "{options}\n"
    "Routes: {routes}\n"
)

# A planted bad candidate: the examples block with one figure changed.
MUTATED_EXAMPLES = EXAMPLES.replace("Budget: 40", "Budget: 45")
PLACEHOLDER = "<Examples from the original prompt>\n\n"

BASE_STEPS = (
    "First, read the options for every day and note each cost and city.",
    "Then, choose one activity for each day.",
    "Finally, write the plan in the required format.",
)
BUDGET_STEP = (
    "Add up the costs of the chosen activities and make sure the total stays "
    "within the stated budget before you commit to a plan."
)


def step_block(steps, revision: int | None = None) -> str:
    intro = STEP_INTRO + (f" (revision r{revision:04d})" if revision is not None else "")
    lines = "".join(f"{i}. {text}\n" for i, text in enumerate(steps, start=1))
    return f"{intro}:\n{lines}\n"


def prompt_text(steps, revision: int | None = None, examples: str = EXAMPLES) -> str:
    return PREAMBLE + step_block(steps, revision) + examples + FORMAT + TASK


def revision_tag(k: int) -> str:
    return f"(revision r{k:04d})"


# --- train_wide ---------------------------------------------------------------


def wide_v0() -> str:
    return prompt_text(BASE_STEPS)


def wide_v1() -> str:
    steps = (BASE_STEPS[0], BUDGET_STEP) + BASE_STEPS[1:]
    return prompt_text(steps)


def wide_expected_calls(samples: int, batch_size: int) -> int:
    """Actor calls for both epochs, one summarizer call per batch, one
    optimizer call at the last batch of epoch 1."""
    batches = -(-samples // batch_size)
    return 2 * samples + 2 * batches + 1


# --- train_deep ---------------------------------------------------------------
#
# Every batch yields a new version. The edit to the numbered steps runs
# through a cycle of four: insert a step, replace it, append one, and go
# back to the base steps, so the prompt stays within a few lines of v0
# however many versions a run makes. Each version also carries its own
# revision tag in the step introducer, which the script keys on.


def deep_steps(k: int) -> tuple[str, ...]:
    b1, b2, b3 = BASE_STEPS
    phase = (k - 1) % 4 if k > 0 else 3
    if phase == 0:
        return (b1, _deep_insert(k), b2, b3)
    if phase == 1:
        return (b1, _deep_replace(k), b2, b3)
    if phase == 2:
        return (b1, _deep_replace(k - 1), b2, b3, _deep_append(k))
    return BASE_STEPS


def _deep_insert(k: int) -> str:
    return f"Before choosing, list the cost of every option and the money left (note {k})."


def _deep_replace(k: int) -> str:
    return f"Keep a running total and drop any option that would pass the budget (note {k})."


def _deep_append(k: int) -> str:
    return f"Check each move between consecutive days against the allowed routes (note {k})."


def deep_version(k: int) -> str:
    return prompt_text(deep_steps(k), revision=k)


def deep_kind(k: int) -> str:
    """How the optimizer's first candidate for version k is planted:
    clean, with a placeholder stub to repair, or rejected once."""
    return ("repair", "reject", "plain")[k % 3]


def deep_batches() -> int:
    per_epoch = -(-TRAIN_DEEP["samples"] // TRAIN_DEEP["batch_size"])
    return per_epoch * TRAIN_DEEP["epochs"]


def deep_first_answer_passes(index: int) -> bool:
    """Planted actor behaviour: every third sample is right at once, the
    rest answer the blind plan first and the best plan after feedback."""
    return index % 3 == 0


def deep_expected(samples: int) -> dict:
    """Counts worked out from the sizes and the planted shares."""
    batches = deep_batches()
    kinds = [deep_kind(k) for k in range(1, batches + 1)]
    rounds_per_epoch = sum(1 if deep_first_answer_passes(i) else 2 for i in range(samples))
    rounds = rounds_per_epoch * TRAIN_DEEP["epochs"]
    repairs = kinds.count("repair")
    rejections = kinds.count("reject")
    return {
        "repairs": repairs,
        "rejections": rejections,
        "episodes": samples * TRAIN_DEEP["epochs"],
        "rounds": rounds,
        "calls": rounds + batches + batches + rejections + repairs,
    }


# --- configs ------------------------------------------------------------------


def config_text(*, epochs: int, batch_size: int, max_rounds: int, feedback: str,
                base_url: str | None = None) -> str:
    text = (
        "[train]\n"
        f"epochs = {epochs}\n"
        f"batch_size = {batch_size}\n"
        f"max_rounds = {max_rounds}\n"
        f"feedback = {feedback}\n"
        "seed = 42\n"
        "\n"
        "[gateway]\n"
        f"backend = {'http' if base_url else 'scripted'}\n"
        "model = planner\n"
        "summarizer_model = critic\n"
    )
    if base_url:
        text += f"base_url = {base_url}\n"
    text += (
        "\n"
        "[task]\n"
        "kind = toy\n"
        'required_tokens = ["PLAN:"]\n'
        f'format_open = ["{FORMAT_OPEN}"]\n'
    )
    return text


def wide_config() -> str:
    return config_text(epochs=TRAIN_WIDE["epochs"], batch_size=TRAIN_WIDE["batch_size"],
                       max_rounds=1, feedback="none")


def deep_config() -> str:
    return config_text(epochs=TRAIN_DEEP["epochs"], batch_size=TRAIN_DEEP["batch_size"],
                       max_rounds=2, feedback="rulecheck")


def eval_config(base_url: str) -> str:
    # The same config a training run would use; eval runs it with
    # --no-feedback, so episodes stop after the first answer.
    return config_text(epochs=1, batch_size=1, max_rounds=2, feedback="rulecheck",
                       base_url=base_url)


def plan_text(plan) -> str:
    return "PLAN:\n" + "".join(f"Day {d}: {oid}\n" for d, oid in enumerate(plan, start=1))


# File names inside a run's input directory.
CONFIG = "run.cfg"
PROMPT = "prompt.txt"
PROMPT_V1 = "prompt_v1.txt"
DATASET = "dataset.yaml"
SCRIPT = "script.yaml"
EXPECT = "expect.json"
