"""Training loop: act on a batch, summarize it, optimize the prompt.

Every run writes a self-describing directory so it can be resumed,
inspected, and replayed:

    run_dir/
      run.meta                  static run description as one JSON object
                                (no timestamps): the run shape, request
                                settings, guards, markers, required tokens,
                                the samples' hash, v0's hash and the copies
      dataset.yaml              copy of the sample file, when given; run.meta
                                names it and records its hash, or null
      script.yaml               copy of the gateway script, likewise
      prompts/v{N}.txt          rendered prompt version N
      transcripts/e{E}/b{B}/    one file per episode
      state.cursor              append-only JSONL progress log, one line
                                per batch

A batch's one bookkeeping write is its cursor line. Besides the counters
it carries, when they exist, the batch's ``focus`` (case and text), the
optimizer's raw output (``optimizer_raw``) and the ``version`` it wrote
(its hash and placement; the text is in the version's file). Every
cursor line is a batch line, and an epoch ends with its last one.
_advance is the cursor's one transition: it checks a line against where
the run stands and returns where the run stands next, closing the epoch
at its last batch line. The readers fold it over the recorded lines
(_committed_versions), and resume passes each line through it before
appending it. A second pass checks each version file against its hash
and replays it from its parent (see _check_run and _replay); resume
replays each new version the same way before writing it. _run_meta
states run.meta once: train writes it and resume compares it key by
key. _read_run_meta is its one reader, and checks it whole.

Nothing in the directory depends on wall-clock time, so two runs from the
same inputs produce byte-identical trees. ``train`` creates the directory
and ``resume`` runs the loop over it (see its docstring).
"""
from __future__ import annotations

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
    inject_default_steps,
    parse_prompt,
    render_prompt,
)
from .summarizer import FocusCase, summarize_batch

CURSOR_NAME = "state.cursor"
RUN_META_NAME = "run.meta"
DATASET_COPY = "dataset.yaml"
SCRIPT_COPY = "script.yaml"
# train writes v0 under this name first; _VERSION_FILE_RE does not match it.
_V0_STAGING = "v0.txt.tmp"


# The hashes cover a few KB per version, and hashlib loads OpenSSL, which adds
# about 3.5 MiB to every train, resume and inspect. The interpreter's built-in
# SHA-256 gives the same digests; hashlib is the fallback for a build without it.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256


def _sha256(text: str) -> str:
    return sha256(text.encode("utf-8")).hexdigest()


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


# The fields every cursor line must carry, each an int (a bool is not taken
# for one).
_CURSOR_FIELDS = ("epoch", "batch", "prompt_version", "episodes_total", "calls_total")

# A committed version's fields that readers format as text; the focus case
# must also name a FocusCase that reaches the optimizer.
_VERSION_STRINGS = ("hash", "placement", "focus_case", "focus_text")
_FOCUS_CASES = frozenset(
    case.value for case in FocusCase if case is not FocusCase.NO_GENERAL_REASON
)


def _cursor_problem(entry) -> str | None:
    """Why a parsed cursor line is no batch record, or None."""
    if not isinstance(entry, dict) or any(key not in entry for key in _CURSOR_FIELDS):
        return "not a complete batch record"
    for key in _CURSOR_FIELDS:
        if type(entry[key]) is not int:
            return f"{key} is not an integer"
    return None


def _read_cursor(paths: _RunPaths) -> tuple[list[dict], int]:
    """Parse the cursor's complete lines; also return their byte length.

    A final line without its newline was cut by a crash mid-append, so it
    commits nothing and is skipped; only resume truncates it, to the
    returned length. A complete line that is not UTF-8 JSON, or not a
    batch record whose fields have the types resume relies on, raises
    CorruptRunError; no writer appends a blank line, so one is corrupt too.
    """
    if not paths.cursor.exists():
        return [], 0
    data = paths.cursor.read_bytes()
    complete = data[:data.rfind(b"\n") + 1]
    entries = []
    for line_no, line in enumerate(complete.splitlines(), start=1):
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
# The input copies train may write, by their run.meta key.
_COPIES = (("dataset", DATASET_COPY), ("script", SCRIPT_COPY))
# The run.meta keys that describe the directory, not the config and samples.
_DIRECTORY_KEYS = ("dataset", "dataset_sha256", "script", "script_sha256", "v0_hash")


def _samples_sha256(samples: Sequence[Sample]) -> str:
    """The hash of the samples as loaded: each one's id and slot values as
    canonical JSON, so a dataset written another way that loads to the same
    samples matches, and a toy sample hashes like its TaskSample."""
    rows = [(sample.id, sample.slot_values) for sample in samples]
    return _sha256(json.dumps(rows, sort_keys=True, separators=(",", ":")))


def _run_meta(config: EngineConfig, samples: Sequence[Sample], directory: dict) -> dict:
    """run.meta as train writes it, in its key order. The _DIRECTORY_KEYS
    come from ``directory``: each input copy's name and the hash of its
    bytes (both None when there is no copy) and v0's hash. resume, which
    cannot know them, passes the recorded run.meta, which _read_run_meta
    has checked against the files, and requires every other key to match
    its own config and samples."""
    seg = config.task.segmentation()
    train, gw = config.train, config.gateway
    return {
        "samples": len(samples),
        "samples_sha256": _samples_sha256(samples),
        "epochs": train.epochs,
        "batch_size": train.batch_size,
        "max_rounds": train.max_rounds,
        "feedback": train.feedback,
        "seed": train.seed,
        "model": gw.model,
        "summarizer_model": gw.summarizer_model,
        "optimizer_model": gw.optimizer_model,
        "repair_model": gw.repair_model,
        "temperature": gw.temperature,
        "segmentation": {name: list(getattr(seg, name)) for name in _MARKER_FIELDS},
        "required_tokens": list(config.task.required_tokens),
        "guards": {
            name: list(value) if isinstance(value, tuple) else value
            for name, value in config.guards._asdict().items()
        },
        **{key: directory.get(key) for key in _DIRECTORY_KEYS},
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
    records. run.meta (see _run_meta) records v0's hash and the effective
    segmentation markers and required tokens, so the directory replays with
    its own settings, and the request settings, guards and samples' hash
    that resume must match. ``dataset_src`` and ``script_src``, when not
    None, are copied into the directory, and run.meta records each copy's
    hash.
    """
    _check_samples(samples)
    paths = _RunPaths(run_dir)
    if paths.cursor.exists() or paths.version_txt(0).exists():
        raise ValueError(
            f"{paths.root} already holds a run; use resume() to continue it"
        )
    doc = inject_default_steps(parse_prompt(initial_prompt, config.task.segmentation()))
    paths.make_dirs()
    text = render_prompt(doc)
    directory = {"v0_hash": _sha256(text)}
    for (key, name), src in zip(_COPIES, (dataset_src, script_src)):
        directory[key] = directory[f"{key}_sha256"] = None
        if src is not None:
            data = Path(src).read_bytes()
            (paths.root / name).write_bytes(data)
            directory[key], directory[f"{key}_sha256"] = name, sha256(data).hexdigest()
    meta = _run_meta(config, samples, directory)
    paths.run_meta.write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    # v0 appears whole or not at all: a run without it is trained again.
    staged = paths.prompts / _V0_STAGING
    staged.write_text(text, encoding="utf-8")
    os.replace(staged, paths.version_txt(0))
    return resume(run_dir, samples, config=config, gateway=gateway, feedback=feedback)


# --- run directory readers ----------------------------------------------------

_VERSION_FILE_RE = re.compile(r"^v(\d+)\.txt$")


class _RunMeta(NamedTuple):
    """run.meta as _read_run_meta checked it."""

    recorded: dict  # the parsed object, which resume compares with _run_meta
    shape: tuple[int, int]  # the batches per epoch and the epochs
    seg: SegmentationConfig
    required_tokens: tuple[str, ...]
    v0_hash: str
    copies: tuple[Path | None, Path | None]  # the dataset and script copies


def _read_run_meta(paths: _RunPaths) -> _RunMeta:
    """Read and check run.meta, which must be a JSON object, so a block-YAML
    run.meta is unreadable. It must record the sample count, batch size
    and epochs as positive integers, each segmentation marker list and the
    required tokens as lists of strings, and v0's hash as a string. train
    records each input copy as its fixed name and the hash of its bytes, or
    as null with a null hash; the copy must exist and match. The first
    failure raises CorruptRunError."""
    if not paths.run_meta.exists():
        raise CorruptRunError(f"{paths.root} has no {RUN_META_NAME}")
    try:
        meta = json.loads(paths.run_meta.read_text(encoding="utf-8"))
    except ValueError as exc:  # UnicodeDecodeError, or text that is not JSON
        raise CorruptRunError(f"{paths.run_meta} is unreadable: {exc}") from None
    if not isinstance(meta, dict):
        raise CorruptRunError(f"{paths.run_meta} is not a mapping")
    try:
        lists = [meta["segmentation"][name] for name in _MARKER_FIELDS]
        lists.append(meta["required_tokens"])
    except (KeyError, TypeError):
        lists = None
    if lists is None or not all(
        isinstance(v, list) and all(isinstance(x, str) for x in v) for v in lists
    ):
        raise CorruptRunError(
            f"{paths.run_meta} does not record the segmentation markers "
            "and required tokens"
        )
    counts = [meta.get(key) for key in ("samples", "batch_size", "epochs")]
    if not all(type(v) is int and v >= 1 for v in counts):
        raise CorruptRunError(
            f"{paths.run_meta} does not record the sample count, batch size "
            "and epochs as positive integers"
        )
    samples, batch_size, epochs = counts
    v0_hash = meta.get("v0_hash")
    if not isinstance(v0_hash, str):
        raise CorruptRunError(f"{paths.run_meta} does not record v0's hash")
    copies = []
    for key, name in _COPIES:
        value = meta.get(key)
        if value is not None and value != name:
            raise CorruptRunError(
                f"{paths.run_meta} records {key} {value!r}; only {name!r} "
                "or null is written"
            )
        copy = None if value is None else paths.root / name
        try:
            digest = None if copy is None else sha256(copy.read_bytes()).hexdigest()
        except FileNotFoundError:
            raise CorruptRunError(f"{paths.run_meta} names {copy}, which is missing") from None
        if meta.get(f"{key}_sha256") != digest:
            raise CorruptRunError(
                f"{copy} does not match the {key}_sha256 in {paths.run_meta}" if copy
                else f"{paths.run_meta} records a {key}_sha256 but no {key} copy"
            )
        copies.append(copy)
    return _RunMeta(
        recorded=meta,
        shape=(-(-samples // batch_size), epochs),
        seg=SegmentationConfig(*map(tuple, lists[:-1])),
        required_tokens=tuple(lists[-1]),
        v0_hash=v0_hash,
        copies=tuple(copies),
    )


def _version_numbers(paths: _RunPaths) -> set[int]:
    return {
        int(m.group(1))
        for m in map(_VERSION_FILE_RE.match, os.listdir(paths.prompts))
        if m
    }


def _line(epoch: int, batch: int) -> str:
    """A cursor line's name; the order check compares names."""
    return f"batch line of epoch {epoch}, batch {batch}"


class _Cursor(NamedTuple):
    """Where a run stands after its committed cursor lines."""

    versions: tuple[dict, ...]  # each committed version's meta, v0 first
    epoch: int  # the epoch in progress; the run's epochs + 1 once all ran
    batch: int  # its last batch line, 0 before the first
    episodes_total: int
    calls_total: int
    streak: int  # the epochs in a row, up to the last, that left the prompt unchanged
    epoch_start: int  # the version the epoch in progress started from


def _advance(cursor: _Cursor, entry: dict, shape: tuple[int, int]) -> _Cursor:
    """The cursor's one transition: check a parsed cursor line against
    ``cursor`` and return where the run stands after it. It reads no file.

    ``shape`` is the run's batches per epoch and epochs. The line must be
    the one due: each epoch's batch lines 1, 2, ... up to the batches per
    epoch, up to the run's last epoch. Its ``prompt_version`` must be the
    last committed version, or the next one on a line that carries a
    ``version`` record. ``episodes_total`` and ``calls_total`` never fall.
    A version record's hash, placement and focus text must be strings, and
    the focus case a FocusCase other than no_general_reason, which never
    reaches the optimizer; other keys are ignored, such as the
    ``parent_hash`` and ``segment_text`` that older runs recorded. A line
    that breaks a rule raises CorruptRunError.

    The epoch's last batch line also closes it: the next line is due in the
    next epoch, and the epoch counts towards the unchanged-epoch streak
    when its last version's hash is that of the version it started from.
    """
    per_epoch, epochs = shape
    n = entry["prompt_version"]
    line = _line(entry["epoch"], entry["batch"])
    if cursor.epoch > epochs:
        due = f"end of the cursor after the run's {epochs} epoch(s)"
    else:
        due = _line(cursor.epoch, cursor.batch + 1)
    if line != due:
        raise CorruptRunError(f"the cursor's {line} is out of order; expected the {due}")
    versions = cursor.versions
    record = entry.get("version")
    due_version = len(versions) if record is not None else len(versions) - 1
    if n != due_version:
        raise CorruptRunError(f"the {line} records v{n} where v{due_version} is due")
    episodes, calls = entry["episodes_total"], entry["calls_total"]
    if episodes < cursor.episodes_total or calls < cursor.calls_total:
        raise CorruptRunError(
            f"the {line} records fewer episodes or calls than the line before it"
        )
    if record is not None:
        focus = entry.get("focus") or {}
        if not isinstance(record, dict) or not isinstance(focus, dict):
            raise CorruptRunError(f"the cursor's record of prompt v{n} is not a mapping")
        vmeta = {
            "version": n,
            "hash": record.get("hash"),
            "placement": record.get("placement"),
            "focus_case": focus.get("case"),
            "focus_text": focus.get("text"),
        }
        bad = [k for k in _VERSION_STRINGS if not isinstance(vmeta[k], str)]
        if not bad and vmeta["focus_case"] not in _FOCUS_CASES:
            bad = ["focus_case"]
        if bad:
            raise CorruptRunError(
                f"the cursor's record of prompt v{n} has a malformed {bad[0]}"
            )
        versions += (vmeta,)
    cursor = cursor._replace(
        versions=versions, batch=cursor.batch + 1,
        episodes_total=episodes, calls_total=calls,
    )
    if cursor.batch < per_epoch:
        return cursor
    changed = versions[-1]["hash"] != versions[cursor.epoch_start]["hash"]
    return cursor._replace(
        epoch=cursor.epoch + 1, batch=0,
        streak=0 if changed else cursor.streak + 1, epoch_start=n,
    )


def _committed_versions(meta: _RunMeta, entries: Sequence[dict]) -> _Cursor:
    """Fold _advance over the parsed cursor lines ``entries``, from v0
    alone, and return where the run stands. ``meta`` gives the run shape
    and v0's hash. It reads no file, so resume runs it before it discards
    anything. The first failure raises CorruptRunError.
    """
    v0 = {"version": 0, "hash": meta.v0_hash, "placement": None,
          "focus_case": None, "focus_text": None}
    cursor = _Cursor((v0,), epoch=1, batch=0, episodes_total=0, calls_total=0,
                     streak=0, epoch_start=0)
    for entry in entries:
        cursor = _advance(cursor, entry, meta.shape)
    return cursor


def _replay(parent: PromptDocument, text: str) -> PromptDocument:
    """The version after ``parent`` whose file holds ``text``: ``parent``
    with only its step segment replaced. Each accepted optimizer update
    changes only that segment, so ``text`` must hold the text before and
    after the parent's step segment exactly, and a non-empty step block
    between them; otherwise CorruptRunError."""
    n = parent.version + 1
    for k, segment in enumerate(parent.segments):
        if segment.kind is SegmentKind.STEP_INSTRUCTIONS:
            head = "".join(s.text for s in parent.segments[:k])
            tail = "".join(s.text for s in parent.segments[k + 1:])
            step = text[len(head):len(text) - len(tail)]
            if step and text == head + step + tail:
                segments = list(parent.segments)
                segments[k] = segment._replace(text=step)
                return PromptDocument(tuple(segments), version=n)
    raise CorruptRunError(
        f"replaying v{n} from v{n - 1} does not reproduce the stored prompt"
    )


def _check_run(
    paths: _RunPaths, seg: SegmentationConfig, metas: Sequence[dict]
) -> tuple[list[VersionRecord], list[PromptDocument]]:
    """Check and replay every committed prompt version, in order.

    ``metas`` comes from _committed_versions and ``seg`` holds the run's
    own markers. Every committed file must exist and no file may be
    uncommitted, and each text must match its hash. v0 is parsed with the
    run's own markers, and every later version is replayed from the one
    before it (see _replay). The first failure raises CorruptRunError.
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
        records.append(VersionRecord(version=n, text=text, meta=vmeta))
        docs.append(_replay(docs[-1], text) if docs else parse_prompt(text, seg))
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
    cursor = _committed_versions(meta, _read_cursor(paths)[0])
    return _check_run(paths, meta.seg, cursor.versions)


def verify_chain(run_dir: str | Path) -> list[VersionRecord]:
    """Read a run directory once and check every committed version (see
    _check_run); returns the version records. The cursor is only read: a
    torn last line is skipped, not truncated."""
    return _read_run(run_dir)[0]


def replay_lineage(run_dir: str | Path) -> list[PromptDocument]:
    """Like verify_chain, but returns the replayed prompt documents."""
    return _read_run(run_dir)[1]


def input_copies(run_dir: str | Path) -> tuple[Path | None, Path | None]:
    """The dataset and script copies a run directory's run.meta names, each
    None when train copied no such file. run.meta is checked first (see
    _read_run_meta), so a copy that does not match its hash raises
    CorruptRunError. ``reprompt resume`` loads them unless it is given
    --dataset or --script."""
    return _read_run_meta(_run_paths(run_dir)).copies


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
    _committed_versions says where the run stands, so a corrupt cursor
    raises CorruptRunError with the directory untouched. run.meta must
    equal what train would write from this config and sample list (see
    _run_meta); the first key that differs raises ValueError, also before
    anything changes. Then a torn last cursor line, version files no cursor
    line commits and the transcripts of the first uncommitted batch are
    discarded before the versions are checked and replayed (see
    _check_run), so whatever a crash left behind is redone. run.meta and
    the cursor are each read once.

    The loop runs the batch due next and writes its line until the run's
    epochs are done or the unchanged-epoch streak reaches
    ``convergence_patience``. Each line passes through _advance, whose
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
    paths = _run_paths(run_dir)
    meta = _read_run_meta(paths)
    entries, complete = _read_cursor(paths)
    cursor = _committed_versions(meta, entries)
    recorded = meta.recorded
    for key, value in _run_meta(config, samples, recorded).items():
        if recorded.get(key) != value:
            raise ValueError(
                f"this run's {key} {value!r} differs from {recorded.get(key)!r} "
                f"in {paths.run_meta}"
            )
    if paths.cursor.exists() and paths.cursor.stat().st_size > complete:
        os.truncate(paths.cursor, complete)
    for n in _version_numbers(paths):
        if n >= len(cursor.versions):
            paths.version_txt(n).unlink()
    shutil.rmtree(paths.batch_dir(cursor.epoch, cursor.batch + 1), ignore_errors=True)
    prompt = _check_run(paths, meta.seg, cursor.versions)[1][-1]

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
        _write_transcripts(paths, epoch, b, transcripts)
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
        # Replayed as the readers replay it, so a version they would refuse
        # fails here, before its file is written.
        text = render_prompt(update.new_prompt)
        new = _replay(prompt, text)
        paths.version_txt(new.version).write_text(text, encoding="utf-8")
        outputs["version"] = {"hash": _sha256(text), "placement": str(update.placement)}
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
            cursor = _advance(cursor, entry, shape)
            # One line per write, flushed before the next gateway call.
            log.write(json.dumps(entry, sort_keys=True).encode("utf-8") + b"\n")
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
