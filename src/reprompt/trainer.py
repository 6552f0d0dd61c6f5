"""Training loop: act on a batch, summarize it, optimize the prompt.

Every run writes a self-describing directory so it can be resumed,
inspected, and replayed:

    run_dir/
      run.meta                  static run description (no timestamps)
      dataset.yaml              copy of the sample file, when given
      script.yaml               copy of the gateway script, when given
      prompts/v{N}.txt          rendered prompt version N
      prompts/v{N}.meta         hash, parent hash, placement, focus, step text
      transcripts/e{E}/b{B}/    one file per episode
      focus/e{E}_b{B}.txt       the focus point distilled from the batch
      optimizer_raw/e{E}_b{B}.txt raw optimizer output
      state.cursor              append-only JSONL progress log

Nothing in the directory depends on wall-clock time, so two runs from the
same inputs produce byte-identical trees.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import re
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import yaml

from .actor import FeedbackGenerator, TaskSample, Transcript, collect_batch, format_transcript
from .config import EngineConfig
from .errors import (
    BatchFailedError,
    BudgetExhaustedError,
    CorruptRunError,
    GuardrailRejectionError,
    MissingConclusionMarkerError,
    MissingFinalMarkerError,
    RepairFailedError,
    ScrubRejectedError,
)
from .gateway import Gateway
from .optimizer import optimize
from .prompt_model import (
    PromptDocument,
    SegmentKind,
    has_step_instructions,
    inject_default_steps,
    parse_prompt,
    render_prompt,
)
from .summarizer import summarize_batch
from .yamlio import load_yaml

CURSOR_NAME = "state.cursor"
RUN_META_NAME = "run.meta"
DATASET_COPY = "dataset.yaml"
SCRIPT_COPY = "script.yaml"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class TrainResult:
    final_prompt: PromptDocument
    versions: tuple[int, ...]
    episodes_run: int
    calls_used: int
    epochs_completed: int
    converged: bool
    run_dir: Path


@dataclass(frozen=True)
class VersionRecord:
    version: int
    text: str
    meta: dict


class _RunPaths:
    def __init__(self, run_dir: str | Path):
        self.root = Path(run_dir)
        self.prompts = self.root / "prompts"
        self.transcripts = self.root / "transcripts"
        self.focus = self.root / "focus"
        self.optimizer_raw = self.root / "optimizer_raw"
        self.cursor = self.root / CURSOR_NAME
        self.run_meta = self.root / RUN_META_NAME

    def make_dirs(self) -> None:
        for d in (self.root, self.prompts, self.transcripts, self.focus, self.optimizer_raw):
            d.mkdir(parents=True, exist_ok=True)

    def version_txt(self, n: int) -> Path:
        return self.prompts / f"v{n}.txt"

    def version_meta(self, n: int) -> Path:
        return self.prompts / f"v{n}.meta"

    def batch_dir(self, epoch: int, batch: int) -> Path:
        return self.transcripts / f"e{epoch}" / f"b{batch}"

    def focus_file(self, epoch: int, batch: int) -> Path:
        return self.focus / f"e{epoch}_b{batch}.txt"

    def raw_file(self, epoch: int, batch: int) -> Path:
        return self.optimizer_raw / f"e{epoch}_b{batch}.txt"


def _step_segment_text(doc: PromptDocument) -> str | None:
    for segment in doc.segments:
        if segment.kind is SegmentKind.STEP_INSTRUCTIONS:
            return segment.text
    return None


def _write_version(
    paths: _RunPaths,
    doc: PromptDocument,
    version_hashes: dict[int, str],
    placement: str | None,
    focus_case: str | None,
    focus_text: str | None,
) -> None:
    text = render_prompt(doc)
    digest = _sha256(text)
    version_hashes[doc.version] = digest
    parent_hash = None
    if doc.parent_version is not None:
        parent_hash = version_hashes[doc.parent_version]
    meta = {
        "version": doc.version,
        "parent": doc.parent_version,
        "hash": digest,
        "parent_hash": parent_hash,
        "placement": placement,
        "focus_case": focus_case,
        "focus_text": focus_text,
        "segment_text": _step_segment_text(doc),
    }
    paths.version_txt(doc.version).write_text(text, encoding="utf-8")
    paths.version_meta(doc.version).write_text(
        yaml.safe_dump(meta, sort_keys=False, allow_unicode=True), encoding="utf-8"
    )


def _write_transcripts(
    paths: _RunPaths, epoch: int, batch: int, transcripts: Sequence[Transcript]
) -> None:
    out = paths.batch_dir(epoch, batch)
    out.mkdir(parents=True, exist_ok=True)
    for t in transcripts:
        body = (
            f"sample: {t.sample_id}\n"
            f"terminal: {t.terminal.value}\n"
            f"rounds: {t.rounds_used}\n\n"
            f"{format_transcript(t)}\n"
        )
        (out / f"{t.sample_id}.txt").write_text(body, encoding="utf-8")


def _append_cursor(paths: _RunPaths, entry: dict) -> None:
    with open(paths.cursor, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


def _read_cursor(paths: _RunPaths) -> list[dict]:
    if not paths.cursor.exists():
        return []
    entries = []
    for line_no, line in enumerate(
        paths.cursor.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            entries.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise CorruptRunError(
                f"{paths.cursor}: bad cursor line {line_no}: {exc}"
            ) from None
    return entries


def _batches(samples: Sequence[TaskSample], batch_size: int) -> list[list[TaskSample]]:
    return [list(samples[i:i + batch_size]) for i in range(0, len(samples), batch_size)]


@dataclass
class _LoopState:
    prompt: PromptDocument
    version_hashes: dict[int, str]
    version_texts: dict[int, str]
    episodes_run: int
    calls_base: int
    epochs_done: int
    streak: int
    start_epoch: int
    start_batch: int
    epoch_start_render: str


def _run_loop(
    state: _LoopState,
    samples: Sequence[TaskSample],
    config: EngineConfig,
    gateway: Gateway,
    feedback: FeedbackGenerator,
    paths: _RunPaths,
) -> TrainResult:
    train_cfg = config.train
    gw_cfg = config.gateway
    seg = config.task.segmentation()
    batches = _batches(samples, train_cfg.batch_size)
    calls_at_entry = gateway.calls

    def calls_total() -> int:
        return state.calls_base + (gateway.calls - calls_at_entry)

    converged = False
    epoch = state.start_epoch
    while epoch <= train_cfg.epochs:
        if epoch == state.start_epoch:
            first_batch = state.start_batch
            epoch_start_render = state.epoch_start_render
        else:
            first_batch = 1
            epoch_start_render = render_prompt(state.prompt)
        for b in range(first_batch, len(batches) + 1):
            if train_cfg.call_budget is not None and calls_total() >= train_cfg.call_budget:
                raise BudgetExhaustedError(
                    f"call budget {train_cfg.call_budget} reached after "
                    f"{calls_total()} gateway calls; run can be resumed"
                )
            note = ""
            try:
                transcripts = collect_batch(
                    state.prompt,
                    batches[b - 1],
                    feedback,
                    train_cfg.max_rounds,
                    gateway=gateway,
                    model=gw_cfg.model,
                    temperature=gw_cfg.temperature,
                    seed=train_cfg.seed,
                    parallelism=train_cfg.parallelism,
                )
            except BatchFailedError as exc:
                _append_cursor(paths, {
                    "kind": "batch",
                    "epoch": epoch,
                    "batch": b,
                    "prompt_version": state.prompt.version,
                    "episodes_total": state.episodes_run,
                    "calls_total": calls_total(),
                    "note": f"batch skipped: {exc}",
                })
                continue
            _write_transcripts(paths, epoch, b, transcripts)
            state.episodes_run += len(transcripts)
            try:
                focus = summarize_batch(
                    transcripts,
                    state.prompt,
                    gateway=gateway,
                    model=gw_cfg.summarizer_model,
                    temperature=gw_cfg.temperature,
                    seed=train_cfg.seed,
                    epoch=epoch,
                    batch_index=b,
                )
            except (MissingConclusionMarkerError, ScrubRejectedError) as exc:
                _append_cursor(paths, {
                    "kind": "batch",
                    "epoch": epoch,
                    "batch": b,
                    "prompt_version": state.prompt.version,
                    "episodes_total": state.episodes_run,
                    "calls_total": calls_total(),
                    "note": f"summarizer failed: {exc}",
                })
                continue
            paths.focus_file(epoch, b).write_text(
                f"{focus.case.value}\n{focus.text}", encoding="utf-8"
            )
            try:
                update = optimize(
                    state.prompt,
                    focus,
                    gateway=gateway,
                    model=gw_cfg.optimizer_model,
                    repair_model=gw_cfg.repair_model,
                    temperature=gw_cfg.temperature,
                    seed=train_cfg.seed,
                    seg_config=seg,
                    required_tokens=config.task.required_tokens,
                    guard_config=config.guards,
                )
            except (MissingFinalMarkerError, GuardrailRejectionError, RepairFailedError) as exc:
                note = f"optimizer rejected: {exc}"
                update = None
            if update is not None:
                paths.raw_file(epoch, b).write_text(update.raw_output, encoding="utf-8")
                if update.changed:
                    state.prompt = update.new_prompt
                    text = render_prompt(update.new_prompt)
                    state.version_texts[update.new_prompt.version] = text
                    _write_version(
                        paths,
                        update.new_prompt,
                        state.version_hashes,
                        placement=str(update.placement) if update.placement else None,
                        focus_case=focus.case.value,
                        focus_text=focus.text,
                    )
            _append_cursor(paths, {
                "kind": "batch",
                "epoch": epoch,
                "batch": b,
                "prompt_version": state.prompt.version,
                "episodes_total": state.episodes_run,
                "calls_total": calls_total(),
                "note": note,
            })
        changed = render_prompt(state.prompt) != epoch_start_render
        state.epochs_done += 1
        _append_cursor(paths, {
            "kind": "epoch",
            "epoch": epoch,
            "changed": changed,
            "prompt_version": state.prompt.version,
        })
        state.streak = 0 if changed else state.streak + 1
        if train_cfg.convergence_patience is not None and state.streak >= train_cfg.convergence_patience:
            converged = True
            break
        epoch += 1
    return TrainResult(
        final_prompt=state.prompt,
        versions=tuple(sorted(state.version_hashes)),
        episodes_run=state.episodes_run,
        calls_used=calls_total(),
        epochs_completed=state.epochs_done,
        converged=converged,
        run_dir=paths.root,
    )


def train(
    initial_prompt: str,
    samples: Sequence[TaskSample],
    *,
    config: EngineConfig,
    gateway: Gateway,
    feedback: FeedbackGenerator,
    run_dir: str | Path,
    dataset_src: str | Path | None = None,
    script_src: str | Path | None = None,
) -> TrainResult:
    """Run the full act/summarize/optimize loop over a fresh run directory.

    The initial prompt gets the default step block injected when it has no
    step instructions of its own; the structured text is what version 0
    records. Batch-level failures (all episodes down, summarizer or
    optimizer giving up) skip that batch and leave the prompt unchanged.
    Hitting the call budget raises BudgetExhaustedError after persisting
    all completed work, so the run can be resumed.
    """
    if not samples:
        raise ValueError("training needs at least one sample")
    paths = _RunPaths(run_dir)
    if paths.cursor.exists() or paths.version_txt(0).exists():
        raise ValueError(
            f"{paths.root} already holds a run; use resume() to continue it"
        )
    seg = config.task.segmentation()
    doc = parse_prompt(initial_prompt, seg)
    if not has_step_instructions(doc):
        doc = inject_default_steps(doc)
    paths.make_dirs()
    if dataset_src is not None:
        shutil.copyfile(dataset_src, paths.root / DATASET_COPY)
    if script_src is not None:
        shutil.copyfile(script_src, paths.root / SCRIPT_COPY)
    meta = {
        "samples": len(samples),
        "epochs": config.train.epochs,
        "batch_size": config.train.batch_size,
        "max_rounds": config.train.max_rounds,
        "feedback": config.train.feedback,
        "model": config.gateway.model,
        "summarizer_model": config.gateway.summarizer_model,
        "optimizer_model": config.gateway.optimizer_model,
        "repair_model": config.gateway.repair_model,
        "dataset": DATASET_COPY if dataset_src is not None else None,
        "script": SCRIPT_COPY if script_src is not None else None,
    }
    paths.run_meta.write_text(
        yaml.safe_dump(meta, sort_keys=False), encoding="utf-8"
    )
    version_hashes: dict[int, str] = {}
    version_texts = {0: render_prompt(doc)}
    _write_version(paths, doc, version_hashes, placement=None, focus_case=None, focus_text=None)
    state = _LoopState(
        prompt=doc,
        version_hashes=version_hashes,
        version_texts=version_texts,
        episodes_run=0,
        calls_base=0,
        epochs_done=0,
        streak=0,
        start_epoch=1,
        start_batch=1,
        epoch_start_render=render_prompt(doc),
    )
    return _run_loop(state, samples, config, gateway, feedback, paths)


# --- run directory readers ----------------------------------------------------

_VERSION_FILE_RE = re.compile(r"^v(\d+)\.txt$")


def load_versions(run_dir: str | Path) -> list[VersionRecord]:
    """Read every prompt version in a run directory, in version order."""
    paths = _RunPaths(run_dir)
    if not paths.prompts.is_dir():
        raise CorruptRunError(f"{paths.root} has no prompts directory")
    found: dict[int, VersionRecord] = {}
    for entry in paths.prompts.iterdir():
        m = _VERSION_FILE_RE.match(entry.name)
        if not m:
            continue
        n = int(m.group(1))
        meta_path = paths.version_meta(n)
        if not meta_path.exists():
            raise CorruptRunError(f"prompt version {n} has no meta file")
        meta = load_yaml(meta_path.read_text(encoding="utf-8"))
        if not isinstance(meta, dict):
            raise CorruptRunError(f"prompt version {n} meta is not a mapping")
        found[n] = VersionRecord(
            version=n, text=entry.read_text(encoding="utf-8"), meta=meta
        )
    if not found:
        raise CorruptRunError(f"{paths.root} holds no prompt versions")
    numbers = sorted(found)
    if numbers != list(range(numbers[-1] + 1)):
        raise CorruptRunError(
            f"prompt versions are not contiguous from 0: {numbers}"
        )
    return [found[n] for n in numbers]


def verify_chain(run_dir: str | Path) -> list[VersionRecord]:
    """Check the hash chain over all persisted prompt versions.

    Every version text must match its recorded hash, and every parent hash
    must match the parent's recorded hash. Raises CorruptRunError on the
    first mismatch.
    """
    records = load_versions(run_dir)
    for record in records:
        digest = _sha256(record.text)
        if digest != record.meta.get("hash"):
            raise CorruptRunError(
                f"prompt v{record.version} text does not match its recorded hash"
            )
        parent = record.meta.get("parent")
        if record.version == 0:
            if parent is not None:
                raise CorruptRunError("prompt v0 must have no parent")
            continue
        if parent != record.version - 1:
            raise CorruptRunError(
                f"prompt v{record.version} names parent {parent}, expected {record.version - 1}"
            )
        expected = records[record.version - 1].meta.get("hash")
        if record.meta.get("parent_hash") != expected:
            raise CorruptRunError(
                f"prompt v{record.version} parent hash does not match v{record.version - 1}"
            )
    return records


def replay_lineage(run_dir: str | Path, config: EngineConfig | None = None) -> list[PromptDocument]:
    """Rebuild every prompt version from v0 plus the recorded step texts.

    Each accepted optimizer update changes only the step-instruction
    segment, so swapping the recorded segment text into the previous
    version must reproduce the stored file byte for byte. A mismatch means
    the run directory does not describe its own history and raises
    CorruptRunError.
    """
    records = verify_chain(run_dir)
    seg = (config.task.segmentation() if config is not None
           else None)
    doc = parse_prompt(records[0].text, seg)
    docs = [doc]
    for record in records[1:]:
        new_step_text = record.meta.get("segment_text")
        if not isinstance(new_step_text, str):
            raise CorruptRunError(
                f"prompt v{record.version} meta has no step segment text"
            )
        segments = tuple(
            dataclasses.replace(s, text=new_step_text)
            if s.kind is SegmentKind.STEP_INSTRUCTIONS
            else s
            for s in docs[-1].segments
        )
        doc = PromptDocument(
            segments=segments,
            version=record.version,
            parent_version=record.version - 1,
        )
        rebuilt = render_prompt(doc)
        if rebuilt != record.text or _sha256(rebuilt) != record.meta.get("hash"):
            raise CorruptRunError(
                f"replaying v{record.version} from v{record.version - 1} "
                "does not reproduce the stored prompt"
            )
        docs.append(doc)
    return docs


def resume(
    run_dir: str | Path,
    samples: Sequence[TaskSample],
    *,
    config: EngineConfig,
    gateway: Gateway,
    feedback: FeedbackGenerator,
) -> TrainResult:
    """Continue an interrupted run from its persisted cursor.

    The prompt-version hash chain is verified first; any mismatch raises
    CorruptRunError. Work already recorded in the cursor is not redone.
    When the run is already complete, returns immediately with its final
    state.
    """
    if not samples:
        raise ValueError("training needs at least one sample")
    paths = _RunPaths(run_dir)
    records = verify_chain(run_dir)
    entries = _read_cursor(paths)
    version_hashes = {r.version: r.meta["hash"] for r in records}
    version_texts = {r.version: r.text for r in records}

    current_version = records[-1].version
    episodes_run = 0
    calls_base = 0
    for entry in entries:
        if entry.get("kind") == "batch":
            episodes_run = int(entry.get("episodes_total", episodes_run))
            calls_base = int(entry.get("calls_total", calls_base))
            current_version = int(entry.get("prompt_version", current_version))

    epoch_entries = [e for e in entries if e.get("kind") == "epoch"]
    epochs_done = len(epoch_entries)
    streak = 0
    for entry in epoch_entries:
        streak = 0 if entry.get("changed") else streak + 1

    # Version at the boundary of the epoch in progress; batch completion
    # within it tells us where to pick up.
    boundary_version = int(epoch_entries[-1]["prompt_version"]) if epoch_entries else 0
    start_epoch = epochs_done + 1
    in_progress = [
        e for e in entries
        if e.get("kind") == "batch" and int(e.get("epoch", 0)) == start_epoch
    ]
    start_batch = max((int(e["batch"]) for e in in_progress), default=0) + 1

    doc = parse_prompt(version_texts[current_version], config.task.segmentation())
    meta_parent = records[current_version].meta.get("parent")
    doc = dataclasses.replace(
        doc, version=current_version, parent_version=meta_parent
    )

    state = _LoopState(
        prompt=doc,
        version_hashes=version_hashes,
        version_texts=version_texts,
        episodes_run=episodes_run,
        calls_base=calls_base,
        epochs_done=epochs_done,
        streak=streak,
        start_epoch=start_epoch,
        start_batch=start_batch,
        epoch_start_render=version_texts[boundary_version],
    )
    train_cfg = config.train
    already_converged = (
        train_cfg.convergence_patience is not None
        and streak >= train_cfg.convergence_patience
    )
    if start_epoch > train_cfg.epochs or already_converged:
        return TrainResult(
            final_prompt=doc,
            versions=tuple(sorted(version_hashes)),
            episodes_run=episodes_run,
            calls_used=calls_base,
            epochs_completed=epochs_done,
            converged=already_converged,
            run_dir=paths.root,
        )
    return _run_loop(state, samples, config, gateway, feedback, paths)
