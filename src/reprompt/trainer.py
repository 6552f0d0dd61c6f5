"""Training loop: act on a batch, summarize it, optimize the prompt.

``train`` creates a run directory and ``resume`` runs the loop over it
(see its docstring). The directory's format, its writers and its readers
are in ``rundir``.
"""
from __future__ import annotations

from pathlib import Path
from typing import NamedTuple, Sequence

from . import rundir
from .actor import FeedbackGenerator, Sample, Terminal, collect_batch
from .config import EngineConfig
from .errors import (
    BudgetExhaustedError,
    GuardrailRejectionError,
    MissingConclusionMarkerError,
    MissingFinalMarkerError,
    ScrubRejectedError,
    StageCallError,
)
from .gateway import Caller, Gateway
from .optimizer import optimize
from .prompt_model import PromptDocument, inject_default_steps, parse_prompt, render_prompt
from .summarizer import summarize_batch

# The offline benchmark imports the run readers from here.
verify_chain, replay_lineage = rundir.verify_chain, rundir.replay_lineage


class TrainResult(NamedTuple):
    final_prompt: PromptDocument
    versions: tuple[int, ...]
    episodes_run: int
    calls_used: int
    epochs_completed: int
    converged: bool
    run_dir: Path


def _check_samples(samples: Sequence[Sample]) -> None:
    """Each sample id names its transcript file, ``<id>.txt``, in a batch
    directory, so it must be one plain file name, unique in the run."""
    if not samples:
        raise ValueError("training needs at least one sample")
    seen: set[str] = set()
    for sample in samples:
        sid = sample.id
        if sid in ("", ".", "..") or any(c in sid for c in "/\\\0"):
            raise ValueError(f"sample id {sid!r} cannot name a transcript file")
        if sid in seen:
            raise ValueError(f"sample id {sid!r} is not unique")
        seen.add(sid)


def train(
    initial_prompt: str,
    samples: Sequence[Sample],
    *,
    config: EngineConfig,
    gateway: Gateway,
    feedback: FeedbackGenerator,
    run_dir: str | Path,
    dataset_src: str | Path | None,
    script_src: str | Path | None,
) -> TrainResult:
    """Create a fresh run directory, then run the loop over it with resume().

    The initial prompt gets the default step block injected when it has no
    step instructions of its own; the structured text is what version 0
    records. run.meta (see rundir.create) records the markers and required
    tokens the directory replays with, and what resume must match.
    ``dataset_src`` and ``script_src``, when not None, are copied in.
    """
    _check_samples(samples)
    paths = rundir.new_run(run_dir)
    doc = inject_default_steps(parse_prompt(initial_prompt, config.task.segmentation()))
    rundir.create(paths, render_prompt(doc), config, samples, dataset_src, script_src)
    return resume(run_dir, samples, config=config, gateway=gateway, feedback=feedback)


def resume(
    run_dir: str | Path,
    samples: Sequence[Sample],
    *,
    config: EngineConfig,
    gateway: Gateway,
    feedback: FeedbackGenerator,
) -> TrainResult:
    """Run the act/summarize/optimize loop from the last cursor line on.

    The cursor's last batch line is the one commit record: its
    ``prompt_version`` is the committed prompt (v0 before any batch line).
    A corrupt cursor (rundir.fold) raises CorruptRunError, and a run.meta
    other than this config and sample list would write ValueError, both
    with the directory untouched. Then whatever a crash left behind is
    discarded, to be redone, before the versions are checked and replayed.
    run.meta and the cursor are each read once.

    The loop runs the batch due next and writes its line until the run's
    epochs are done or the unchanged-epoch streak reaches
    ``convergence_patience``. Each line passes through rundir.advance, whose
    result is the loop's one record of where the run stands (an epoch ends
    at its last batch line), before it is appended. The cursor stays open
    for appending, and each line is flushed before the next gateway call.

    Batch-level failures (all episodes down, summarizer or optimizer
    giving up) skip that batch and leave the prompt unchanged. A gateway
    error in a summarizer, optimizer or repair call raises StageCallError
    naming the stage, epoch and batch, with the batch uncommitted. The call
    budget is checked before each batch, so a run can pass it by up to one
    batch's calls; reaching it raises BudgetExhaustedError with all
    completed work committed, so the run can be resumed again.
    """
    _check_samples(samples)
    paths, meta = rundir.open_run(run_dir)
    entries, complete = rundir.read_cursor(paths)
    cursor = rundir.fold(meta, entries)
    rundir.compare_run_meta(paths, meta, config, samples)
    rundir.discard_uncommitted(paths, cursor, complete)
    prompt = rundir.check_run(paths, meta.seg, cursor.versions)[-1].doc

    train_cfg = config.train
    gw_cfg = config.gateway

    def caller(model: str, stage: str | None = None) -> Caller:
        return Caller(gateway, model, gw_cfg.temperature, train_cfg.seed, stage)

    # A failed episode is dropped from its batch; a failed call of a later
    # stage ends the run, naming the stage and the batch (it stays resumable).
    actor = caller(gw_cfg.model)
    summarizer = caller(gw_cfg.summarizer_model, "summarizer")
    optimizer = caller(gw_cfg.optimizer_model, "optimizer")
    repair = caller(gw_cfg.repair_model, "repair")
    patience = train_cfg.convergence_patience
    size = train_cfg.batch_size
    batches = [list(samples[i:i + size]) for i in range(0, len(samples), size)]
    # run.meta, which gave the cursor its shape, matches this config.
    shape = (len(batches), train_cfg.epochs)
    # The one count kept outside the cursor: calls_total is gateway.calls less it.
    calls_before = gateway.calls - cursor.calls_total

    def run_batch(epoch: int, b: int) -> tuple[PromptDocument, int, dict]:
        """Act, summarize and optimize on batch ``b`` of ``epoch``; return
        the prompt after it, the episodes it counts, and its cursor line's
        note and outputs."""
        transcripts = collect_batch(
            prompt,
            batches[b - 1],
            feedback,
            train_cfg.max_rounds,
            caller=actor,
            parallelism=train_cfg.parallelism,
        )
        if all(t.terminal is Terminal.ERROR for t in transcripts):
            return prompt, 0, {"note": "batch skipped: every episode in the batch failed"}
        rundir.write_transcripts(paths, epoch, b, transcripts)
        episodes = len(transcripts)
        try:
            focus = summarize_batch(transcripts, prompt, caller=summarizer)
        except (MissingConclusionMarkerError, ScrubRejectedError) as exc:
            return prompt, episodes, {"note": f"summarizer failed: {exc}"}
        outputs = {"note": "", "focus": {"case": focus.case.value, "text": focus.text}}
        try:
            update = optimize(
                prompt,
                focus,
                caller=optimizer,
                repair=repair,
                seg_config=meta.seg,
                required_tokens=meta.required_tokens,
                guard_config=config.guards,
            )
        except (MissingFinalMarkerError, GuardrailRejectionError) as exc:
            return prompt, episodes, {**outputs, "note": f"optimizer rejected: {exc}"}
        outputs["optimizer_raw"] = update.raw_output
        if not update.changed:
            return prompt, episodes, outputs
        new, outputs["version"] = rundir.write_version(
            paths, prompt, render_prompt(update.new_prompt)
        )
        return new, episodes, outputs

    def converged() -> bool:
        return patience is not None and cursor.streak >= patience

    with open(paths.cursor, "ab") as log:
        while cursor.epoch <= train_cfg.epochs and not converged():
            budget = train_cfg.call_budget
            if budget is not None and cursor.calls_total >= budget:
                raise BudgetExhaustedError(
                    f"call budget {budget} reached after "
                    f"{cursor.calls_total} gateway calls; run can be resumed"
                )
            try:
                prompt, episodes, outputs = run_batch(cursor.epoch, cursor.batch + 1)
            except StageCallError as exc:
                exc.where = f"epoch {cursor.epoch}, batch {cursor.batch + 1}"
                raise
            entry = {
                "epoch": cursor.epoch,
                "batch": cursor.batch + 1,
                "prompt_version": prompt.version,
                "episodes_total": cursor.episodes_total + episodes,
                "calls_total": gateway.calls - calls_before,
                **outputs,
            }
            cursor = rundir.advance(cursor, entry, shape)
            # One line per write, flushed before the next gateway call.
            log.write(rundir.cursor_line(entry))
            log.flush()
    return TrainResult(
        final_prompt=prompt,
        versions=tuple(range(len(cursor.versions))),
        episodes_run=cursor.episodes_total,
        calls_used=cursor.calls_total,
        epochs_completed=cursor.epoch - 1,
        converged=converged(),
        run_dir=paths.root,
    )
