"""Training loop: act on a batch, summarize it, optimize the prompt.

Every run writes a self-describing directory so it can be resumed,
inspected, and replayed:

    run_dir/
      run.meta                  static run description (no timestamps),
                                with v0's hash, the segmentation markers
                                and the required tokens the run parses with
      dataset.yaml              copy of the sample file, when given
      script.yaml               copy of the gateway script, when given
      prompts/v{N}.txt          rendered prompt version N
      transcripts/e{E}/b{B}/    one file per episode
      state.cursor              append-only JSONL progress log

A batch's one bookkeeping write is its cursor line. Besides the counters
it carries, when they exist, the batch's ``focus`` (case and text), the
optimizer's raw output (``optimizer_raw``) and the ``version`` it wrote
(hash, parent hash, placement and step segment text). One pass over
run.meta and these lines checks the cursor's structure and rebuilds each
version's meta (see _committed_versions); a second checks the hash chain
and replays every version (see _check_run). verify_chain, replay_lineage
and resume all read the directory through them.

Nothing in the directory depends on wall-clock time, so two runs from the
same inputs produce byte-identical trees. ``train`` creates the directory
and ``resume`` runs the loop over it (see its docstring).
"""
from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
from pathlib import Path
from typing import NamedTuple, Sequence

from .actor import (
    FeedbackGenerator,
    Sample,
    Terminal,
    Transcript,
    collect_batch,
    format_transcript,
)
from .config import EngineConfig
from .errors import (
    BudgetExhaustedError,
    CorruptRunError,
    GuardrailRejectionError,
    MissingConclusionMarkerError,
    MissingFinalMarkerError,
    ScrubRejectedError,
    StageCallError,
)
from .gateway import Caller, Gateway
from .optimizer import optimize
from .prompt_model import (
    PromptDocument,
    SegmentKind,
    SegmentationConfig,
    has_step_instructions,
    inject_default_steps,
    parse_prompt,
    render_prompt,
)
from .summarizer import FocusCase, summarize_batch
from .yamlio import load_yaml

CURSOR_NAME = "state.cursor"
RUN_META_NAME = "run.meta"
DATASET_COPY = "dataset.yaml"
SCRIPT_COPY = "script.yaml"
# train writes v0 under this name first; _VERSION_FILE_RE does not match it.
_V0_STAGING = "v0.txt.tmp"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TrainResult(NamedTuple):
    final_prompt: PromptDocument
    versions: tuple[int, ...]
    episodes_run: int
    calls_used: int
    epochs_completed: int
    converged: bool
    run_dir: Path


class VersionRecord(NamedTuple):
    version: int
    text: str
    meta: dict


class _RunPaths:
    def __init__(self, run_dir: str | Path):
        self.root = Path(run_dir)
        self.prompts = self.root / "prompts"
        self.transcripts = self.root / "transcripts"
        self.cursor = self.root / CURSOR_NAME
        self.run_meta = self.root / RUN_META_NAME

    def make_dirs(self) -> None:
        for d in (self.root, self.prompts, self.transcripts):
            d.mkdir(parents=True, exist_ok=True)

    def version_txt(self, n: int) -> Path:
        return self.prompts / f"v{n}.txt"

    def batch_dir(self, epoch: int, batch: int) -> Path:
        return self.transcripts / f"e{epoch}" / f"b{batch}"


def _step_segment_text(doc: PromptDocument) -> str | None:
    for segment in doc.segments:
        if segment.kind is SegmentKind.STEP_INSTRUCTIONS:
            return segment.text
    return None


def _write_version(paths: _RunPaths, doc: PromptDocument) -> str:
    """Write version ``doc`` and return its hash."""
    text = render_prompt(doc)
    paths.version_txt(doc.version).write_text(text, encoding="utf-8")
    return _sha256(text)


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


# The fields each kind of cursor line must carry, with their exact types
# (a bool is not taken for an int, nor an int for a bool).
_CURSOR_FIELDS = {
    "batch": {
        "epoch": int, "batch": int, "prompt_version": int,
        "episodes_total": int, "calls_total": int,
    },
    "epoch": {"epoch": int, "changed": bool, "prompt_version": int},
}

# A committed version's fields that readers format or replay as text; the
# focus case must also name a FocusCase that reaches the optimizer, and the
# segment text be non-empty.
_VERSION_STRINGS = (
    "hash", "parent_hash", "placement", "focus_case", "focus_text", "segment_text",
)
_FOCUS_CASES = frozenset(
    case.value for case in FocusCase if case is not FocusCase.NO_GENERAL_REASON
)


def _cursor_problem(entry) -> str | None:
    """Why a parsed cursor line is no batch or epoch record, or None."""
    kind = entry.get("kind") if isinstance(entry, dict) else None
    fields = _CURSOR_FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None or not fields.keys() <= entry.keys():
        return "not a complete batch or epoch record"
    for key, expected in fields.items():
        if type(entry[key]) is not expected:
            return f"{key} is not {'a boolean' if expected is bool else 'an integer'}"
    return None


def _read_cursor(paths: _RunPaths) -> tuple[list[dict], int]:
    """Parse the cursor's complete lines; also return their byte length.

    A final line without its newline was cut by a crash mid-append, so it
    commits nothing and is skipped; only resume truncates it, to the
    returned length. A complete line that is not UTF-8 JSON, or not a
    batch or epoch record whose fields have the types resume relies on,
    raises CorruptRunError.
    """
    if not paths.cursor.exists():
        return [], 0
    data = paths.cursor.read_bytes()
    complete = data[:data.rfind(b"\n") + 1]
    entries = []
    for line_no, line in enumerate(complete.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line.decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
            problem = str(exc)
        else:
            problem = _cursor_problem(entry)
        if problem is not None:
            raise CorruptRunError(
                f"{paths.cursor}: bad cursor line {line_no}: {problem}"
            )
        entries.append(entry)
    return entries, len(complete)


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


def _batches(samples: Sequence[Sample], batch_size: int) -> list[list[Sample]]:
    return [list(samples[i:i + batch_size]) for i in range(0, len(samples), batch_size)]


# Every field of SegmentationConfig is a marker list run.meta records.
_MARKER_FIELDS = SegmentationConfig._fields


def _run_settings(config: EngineConfig) -> dict:
    """The settings besides the run shape that run.meta records and that
    a resuming config must repeat."""
    gw = config.gateway
    return {
        "max_rounds": config.train.max_rounds,
        "feedback": config.train.feedback,
        "model": gw.model,
        "summarizer_model": gw.summarizer_model,
        "optimizer_model": gw.optimizer_model,
        "repair_model": gw.repair_model,
    }


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
    records. run.meta records v0's hash and the effective segmentation
    markers and required tokens, so the directory replays with its own
    settings. ``dataset_src`` and ``script_src``, when not None, are copied
    into the directory.
    """
    _check_samples(samples)
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
    text = render_prompt(doc)
    meta = {
        "samples": len(samples),
        "epochs": config.train.epochs,
        "batch_size": config.train.batch_size,
        **_run_settings(config),
        "dataset": DATASET_COPY if dataset_src is not None else None,
        "script": SCRIPT_COPY if script_src is not None else None,
        "segmentation": {name: list(getattr(seg, name)) for name in _MARKER_FIELDS},
        "required_tokens": list(config.task.required_tokens),
        "v0_hash": _sha256(text),
    }
    import yaml

    paths.run_meta.write_text(
        yaml.safe_dump(meta, sort_keys=False), encoding="utf-8"
    )
    # v0 appears whole or not at all: a run without it is trained again.
    staged = paths.prompts / _V0_STAGING
    staged.write_text(text, encoding="utf-8")
    os.replace(staged, paths.version_txt(0))
    return resume(run_dir, samples, config=config, gateway=gateway, feedback=feedback)


# --- run directory readers ----------------------------------------------------

_VERSION_FILE_RE = re.compile(r"^v(\d+)\.txt$")


def _read_run_meta(paths: _RunPaths) -> dict:
    if not paths.run_meta.exists():
        raise CorruptRunError(f"{paths.root} has no {RUN_META_NAME}")
    try:
        meta = load_yaml(paths.run_meta.read_text(encoding="utf-8"))
    except ValueError as exc:  # UnicodeDecodeError, or text that is not YAML
        raise CorruptRunError(f"{paths.run_meta} is unreadable: {exc}") from None
    if not isinstance(meta, dict):
        raise CorruptRunError(f"{paths.run_meta} is not a mapping")
    return meta


def _version_numbers(paths: _RunPaths) -> set[int]:
    return {
        int(m.group(1))
        for m in map(_VERSION_FILE_RE.match, os.listdir(paths.prompts))
        if m
    }


def _markers(
    paths: _RunPaths, meta: dict
) -> tuple[SegmentationConfig, tuple[str, ...]]:
    """The segmentation markers and required tokens recorded in run.meta."""
    try:
        markers = meta["segmentation"]
        lists = [markers[name] for name in _MARKER_FIELDS] + [meta["required_tokens"]]
    except (KeyError, TypeError):
        lists = None
    if lists is None or not all(
        isinstance(v, list) and all(isinstance(x, str) for x in v) for v in lists
    ):
        raise CorruptRunError(
            f"{paths.run_meta} does not record the segmentation markers "
            "and required tokens"
        )
    seg = SegmentationConfig(**{
        name: tuple(v) for name, v in zip(_MARKER_FIELDS, lists)
    })
    return seg, tuple(lists[-1])


def _run_shape(paths: _RunPaths, meta: dict) -> tuple[int, int]:
    """The batches per epoch and the epochs recorded in run.meta."""
    values = [meta.get(key) for key in ("samples", "batch_size", "epochs")]
    if not all(type(v) is int and v >= 1 for v in values):
        raise CorruptRunError(
            f"{paths.run_meta} does not record the sample count, batch size "
            "and epochs as positive integers"
        )
    samples, batch_size, epochs = values
    return -(-samples // batch_size), epochs


def _due(epoch: int, batch: int, per_epoch: int, epochs: int) -> str:
    """The cursor line that may follow batch ``batch`` of ``epoch``."""
    if epoch > epochs:
        return f"the end of the cursor after the run's {epochs} epoch(s)"
    if batch == per_epoch:
        return f"the epoch line of epoch {epoch}"
    return f"the batch line of epoch {epoch}, batch {batch + 1}"


def _committed_versions(
    paths: _RunPaths, meta: dict, entries: Sequence[dict]
) -> list[dict]:
    """Check the cursor's structure and return the meta of each committed
    version, v0 first. Reads no file, so resume runs it before it discards
    anything.

    ``meta`` is the parsed run.meta and ``entries`` the parsed cursor
    lines. Epoch 1 has batch lines 1, 2, ... up to run.meta's batches per
    epoch, then its epoch line; epoch 2 follows, and so on up to run.meta's
    epochs. The last epoch may stop after any of its lines. Batch lines'
    ``prompt_version`` starts at 0 and rises by one exactly on the lines
    that carry a ``version`` record, an epoch line's equals the batch
    line's before it, and ``episodes_total`` and ``calls_total`` never
    fall.

    v0's hash comes from run.meta; every later version is committed by the
    cursor line of the batch that wrote it. Each record's meta holds
    ``version``, ``parent``, ``hash``, ``parent_hash``, ``placement``,
    ``focus_case``, ``focus_text`` and ``segment_text``; a version's parent
    is the prompt its batch ran with. A committed version's hashes,
    placement, focus text and segment text must be strings, and its focus
    case a FocusCase value other than no_general_reason, which never reaches
    the optimizer. The first failure raises CorruptRunError.
    """
    per_epoch, epochs = _run_shape(paths, meta)
    v0_hash = meta.get("v0_hash")
    if not isinstance(v0_hash, str):
        raise CorruptRunError(f"{paths.run_meta} does not record v0's hash")
    metas = [{
        "version": 0, "parent": None, "hash": v0_hash, "parent_hash": None,
        "placement": None, "focus_case": None, "focus_text": None,
        "segment_text": None,
    }]
    epoch, batch = 1, 0  # the epoch in progress and its last batch line
    totals = (0, 0)
    for entry in entries:
        n = entry["prompt_version"]
        if entry["kind"] == "epoch":
            if entry["epoch"] != epoch or batch != per_epoch:
                raise CorruptRunError(
                    f"the cursor's epoch line of epoch {entry['epoch']} is out "
                    f"of order; expected {_due(epoch, batch, per_epoch, epochs)}"
                )
            if n != len(metas) - 1:
                raise CorruptRunError(
                    f"the epoch line of epoch {epoch} records prompt v{n}, but "
                    f"the batch line before it records v{len(metas) - 1}"
                )
            epoch, batch = epoch + 1, 0
            continue
        where = f"epoch {entry['epoch']}, batch {entry['batch']}"
        if (
            epoch > epochs
            or batch == per_epoch
            or (entry["epoch"], entry["batch"]) != (epoch, batch + 1)
        ):
            raise CorruptRunError(
                f"the cursor's batch line of {where} is out of order; "
                f"expected {_due(epoch, batch, per_epoch, epochs)}"
            )
        batch += 1
        now = (entry["episodes_total"], entry["calls_total"])
        if now[0] < totals[0] or now[1] < totals[1]:
            raise CorruptRunError(
                f"the batch line of {where} records fewer episodes or calls "
                "than the line before it"
            )
        totals = now
        record = entry.get("version")
        if record is not None:
            if n == 0:
                raise CorruptRunError(
                    f"prompt v0 must have no parent, but a batch of epoch "
                    f"{entry['epoch']} records writing it"
                )
            focus = entry.get("focus") or {}
            if not isinstance(record, dict) or not isinstance(focus, dict):
                raise CorruptRunError(
                    f"the cursor's record of prompt v{n} is not a mapping"
                )
            vmeta = {
                "version": n,
                "parent": len(metas) - 1,
                "hash": record.get("hash"),
                "parent_hash": record.get("parent_hash"),
                "placement": record.get("placement"),
                "focus_case": focus.get("case"),
                "focus_text": focus.get("text"),
                "segment_text": record.get("segment_text"),
            }
            bad = [k for k in _VERSION_STRINGS if not isinstance(vmeta[k], str)]
            if not bad and vmeta["focus_case"] not in _FOCUS_CASES:
                bad = ["focus_case"]
            if not bad and not vmeta["segment_text"]:
                bad = ["segment_text"]
            if bad:
                raise CorruptRunError(
                    f"the cursor's record of prompt v{n} has a malformed {bad[0]}"
                )
            metas.append(vmeta)
        if n != len(metas) - 1:
            raise CorruptRunError(
                f"prompt versions are not contiguous from 0: the batch line of "
                f"{where} records v{n} where v{len(metas) - 1} is due"
            )
    return metas


def _check_run(
    paths: _RunPaths, seg: SegmentationConfig, metas: Sequence[dict]
) -> tuple[list[VersionRecord], list[PromptDocument]]:
    """Check and replay every committed prompt version, in order.

    ``metas`` comes from _committed_versions and ``seg`` holds the run's
    own markers. Every committed file must exist and no file may be
    uncommitted. Each text must match its hash and each parent hash its
    parent's hash. Each accepted optimizer update changes only the
    step-instruction segment, so swapping the recorded segment text into
    the previous version, parsed with the run's own markers, must
    reproduce the stored file byte for byte. The first failure raises
    CorruptRunError.
    """
    numbers = [m["version"] for m in metas]
    on_disk = _version_numbers(paths)
    for n in numbers:
        if n not in on_disk:
            raise CorruptRunError(
                f"the cursor commits prompt v{n}, but {paths.version_txt(n)} is missing"
            )
    extra = sorted(on_disk - set(numbers))
    if extra:
        raise CorruptRunError(f"prompt v{extra[0]} is not committed by any cursor line")

    records: list[VersionRecord] = []
    docs: list[PromptDocument] = []
    for n, vmeta in enumerate(metas):
        text = paths.version_txt(n).read_text(encoding="utf-8")
        if _sha256(text) != vmeta["hash"]:
            raise CorruptRunError(
                f"prompt v{n} text does not match its recorded hash"
            )
        if n == 0:
            doc = parse_prompt(text, seg)
        else:
            if vmeta["parent_hash"] != metas[n - 1]["hash"]:
                raise CorruptRunError(
                    f"prompt v{n} parent hash does not match v{n - 1}"
                )
            doc = PromptDocument(
                segments=tuple(
                    s._replace(text=vmeta["segment_text"])
                    if s.kind is SegmentKind.STEP_INSTRUCTIONS
                    else s
                    for s in docs[-1].segments
                ),
                version=n,
            )
            if render_prompt(doc) != text:
                raise CorruptRunError(
                    f"replaying v{n} from v{n - 1} does not reproduce the stored prompt"
                )
        records.append(VersionRecord(version=n, text=text, meta=vmeta))
        docs.append(doc)
    return records, docs


def _run_paths(run_dir: str | Path) -> _RunPaths:
    """The paths of an existing run directory; it must hold prompts/."""
    paths = _RunPaths(run_dir)
    if not paths.prompts.is_dir():
        raise CorruptRunError(f"{paths.root} has no prompts directory")
    return paths


def _read_run(run_dir: str | Path) -> tuple[list[VersionRecord], list[PromptDocument]]:
    paths = _run_paths(run_dir)
    meta = _read_run_meta(paths)
    seg = _markers(paths, meta)[0]
    metas = _committed_versions(paths, meta, _read_cursor(paths)[0])
    return _check_run(paths, seg, metas)


def verify_chain(run_dir: str | Path) -> list[VersionRecord]:
    """Read a run directory once and check every committed version (see
    _check_run); returns the version records. The cursor is only read: a
    torn last line is skipped, not truncated."""
    return _read_run(run_dir)[0]


def replay_lineage(run_dir: str | Path) -> list[PromptDocument]:
    """Like verify_chain, but returns the replayed prompt documents."""
    return _read_run(run_dir)[1]


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
    The cursor's structure is checked first (see _committed_versions), so
    a corrupt cursor raises CorruptRunError with the directory untouched.
    Then a torn last cursor line, version files no cursor line commits and
    the transcripts of the first uncommitted batch are discarded before the
    versions are checked and replayed (see _check_run), so whatever a crash
    left behind is redone. run.meta and the cursor are each read once. The
    markers and required tokens come from run.meta, and so do the sample
    count, ``batch_size``, ``epochs``, ``max_rounds``, ``feedback`` and the
    four model names; a config or sample list whose values differ raises
    ValueError, before anything is truncated or deleted.

    Batch-level failures (all episodes down, summarizer or optimizer
    giving up) skip that batch and leave the prompt unchanged. A gateway
    error in a summarizer, optimizer or repair call raises StageCallError
    naming the stage, epoch and batch, with the batch uncommitted. The call
    budget is checked before each batch, so a run can pass it by up to one
    batch's calls; reaching it raises BudgetExhaustedError with all
    completed work committed, so the run can be resumed again.
    """
    _check_samples(samples)
    paths = _run_paths(run_dir)
    meta = _read_run_meta(paths)
    seg, required_tokens = _markers(paths, meta)
    entries, complete = _read_cursor(paths)
    metas = _committed_versions(paths, meta, entries)
    if (seg, required_tokens) != (config.task.segmentation(), config.task.required_tokens):
        raise ValueError(
            f"the config's segmentation markers or required tokens differ "
            f"from those in {paths.run_meta}"
        )
    shape = {
        "samples": len(samples),
        "batch_size": config.train.batch_size,
        "epochs": config.train.epochs,
    }
    recorded = {key: meta.get(key) for key in shape}
    if shape != recorded:
        raise ValueError(
            f"the run shape {shape} differs from {recorded} in {paths.run_meta}"
        )
    settings = _run_settings(config)
    recorded = {key: meta.get(key) for key in settings}
    if settings != recorded:
        raise ValueError(
            f"the run settings {settings} differ from {recorded} in {paths.run_meta}"
        )
    if paths.cursor.exists() and paths.cursor.stat().st_size > complete:
        os.truncate(paths.cursor, complete)
    batch_lines = [e for e in entries if e["kind"] == "batch"]
    epoch_lines = [e for e in entries if e["kind"] == "epoch"]
    last = batch_lines[-1] if batch_lines else {
        "prompt_version": 0, "episodes_total": 0, "calls_total": 0,
    }
    committed = last["prompt_version"]
    epoch = len(epoch_lines) + 1
    first_batch = 1 + max(
        (e["batch"] for e in batch_lines if e["epoch"] == epoch), default=0
    )

    for n in _version_numbers(paths):
        if n > committed:
            paths.version_txt(n).unlink()
    shutil.rmtree(paths.batch_dir(epoch, first_batch), ignore_errors=True)

    records, docs = _check_run(paths, seg, metas)
    prompt = docs[committed]
    head_hash = records[committed].meta["hash"]
    boundary = epoch_lines[-1]["prompt_version"] if epoch_lines else 0
    epoch_start_text = records[boundary].text
    streak = 0
    for entry in epoch_lines:
        streak = 0 if entry["changed"] else streak + 1

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
    batches = _batches(samples, train_cfg.batch_size)
    episodes_run = last["episodes_total"]
    calls_at_entry = gateway.calls

    def calls_total() -> int:
        return last["calls_total"] + (gateway.calls - calls_at_entry)

    def record_batch(batch: int, note: str, **outputs) -> None:
        _append_cursor(paths, {
            "kind": "batch",
            "epoch": epoch,
            "batch": batch,
            "prompt_version": prompt.version,
            "episodes_total": episodes_run,
            "calls_total": calls_total(),
            "note": note,
            **outputs,
        })

    converged = patience is not None and streak >= patience
    while epoch <= train_cfg.epochs and not converged:
        for b in range(first_batch, len(batches) + 1):
            if train_cfg.call_budget is not None and calls_total() >= train_cfg.call_budget:
                raise BudgetExhaustedError(
                    f"call budget {train_cfg.call_budget} reached after "
                    f"{calls_total()} gateway calls; run can be resumed"
                )
            note = ""
            transcripts = collect_batch(
                prompt,
                batches[b - 1],
                feedback,
                train_cfg.max_rounds,
                caller=actor,
                parallelism=train_cfg.parallelism,
            )
            if all(t.terminal is Terminal.ERROR for t in transcripts):
                record_batch(b, "batch skipped: every episode in the batch failed")
                continue
            _write_transcripts(paths, epoch, b, transcripts)
            episodes_run += len(transcripts)
            try:
                focus = summarize_batch(transcripts, prompt, caller=summarizer)
            except (MissingConclusionMarkerError, ScrubRejectedError) as exc:
                record_batch(b, f"summarizer failed: {exc}")
                continue
            except StageCallError as exc:
                exc.where = f"epoch {epoch}, batch {b}"
                raise
            outputs = {"focus": {"case": focus.case.value, "text": focus.text}}
            try:
                update = optimize(
                    prompt,
                    focus,
                    caller=optimizer,
                    repair=repair,
                    seg_config=seg,
                    required_tokens=required_tokens,
                    guard_config=config.guards,
                )
            except (MissingFinalMarkerError, GuardrailRejectionError) as exc:
                note = f"optimizer rejected: {exc}"
                update = None
            except StageCallError as exc:
                exc.where = f"epoch {epoch}, batch {b}"
                raise
            if update is not None:
                outputs["optimizer_raw"] = update.raw_output
                if update.changed:
                    prompt = update.new_prompt
                    digest = _write_version(paths, prompt)
                    outputs["version"] = {
                        "hash": digest,
                        "parent_hash": head_hash,
                        "placement": str(update.placement),
                        "segment_text": _step_segment_text(prompt),
                    }
                    head_hash = digest
            record_batch(b, note, **outputs)
        text = render_prompt(prompt)
        changed = text != epoch_start_text
        _append_cursor(paths, {
            "kind": "epoch",
            "epoch": epoch,
            "changed": changed,
            "prompt_version": prompt.version,
        })
        streak = 0 if changed else streak + 1
        converged = patience is not None and streak >= patience
        epoch += 1
        first_batch = 1
        epoch_start_text = text
    return TrainResult(
        final_prompt=prompt,
        versions=tuple(range(prompt.version + 1)),
        episodes_run=episodes_run,
        calls_used=calls_total(),
        epochs_completed=epoch - 1,
        converged=converged,
        run_dir=paths.root,
    )
