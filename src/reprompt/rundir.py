"""The run directory's format: its names, its writers and its readers.

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

A batch's one bookkeeping write is its cursor line: the counters and,
when they exist, the batch's ``focus`` (case and text), the optimizer's
raw output (``optimizer_raw``) and the ``version`` it wrote (its hash).
advance is the cursor's one transition; the readers fold it over the
recorded lines, and the trainer passes each line through it before
appending it. check_run then checks each version file against its hash
and replays it from its parent, as write_version does before it writes
one. _run_meta states run.meta once: create writes it and
compare_run_meta compares it key by key; open_run is its one reader.

Nothing in the directory depends on wall-clock time, so two runs from the
same inputs produce byte-identical trees. This module imports no part of
the training stack, so ``reprompt inspect`` loads none of it.
"""
from __future__ import annotations

import json
import os
import re
import shutil
from pathlib import Path
from typing import NamedTuple, Sequence

from .actor import Sample, Transcript, format_transcript
from .config import EngineConfig
from .errors import CorruptRunError
from .prompt_model import PromptDocument, SegmentKind, SegmentationConfig, parse_prompt
from .summarizer import FocusCase

CURSOR_NAME = "state.cursor"
RUN_META_NAME = "run.meta"
DATASET_COPY = "dataset.yaml"
SCRIPT_COPY = "script.yaml"
# create writes v0 under this name first; _VERSION_FILE_RE does not match it.
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


class VersionRecord(NamedTuple):
    meta: dict  # the version's hash and focus case (None for v0); its number is its place
    doc: PromptDocument  # replayed from the version before it


class _RunPaths:
    def __init__(self, run_dir: str | Path):
        self.root = Path(run_dir)
        self.prompts = self.root / "prompts"
        self.transcripts = self.root / "transcripts"
        self.cursor = self.root / CURSOR_NAME
        self.run_meta = self.root / RUN_META_NAME

    def version_txt(self, n: int) -> Path:
        return self.prompts / f"v{n}.txt"

    def batch_dir(self, epoch: int, batch: int) -> Path:
        return self.transcripts / f"e{epoch}" / f"b{batch}"


def write_transcripts(paths: _RunPaths, epoch: int, batch: int,
                      transcripts: Sequence[Transcript]) -> None:
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

# The focus cases a committed version may record: each FocusCase that
# reaches the optimizer.
_FOCUS_CASES = frozenset(c.value for c in FocusCase if c is not FocusCase.NO_GENERAL_REASON)


def _cursor_problem(entry) -> str | None:
    """Why a parsed cursor line is no batch record, or None."""
    if not isinstance(entry, dict) or any(key not in entry for key in _CURSOR_FIELDS):
        return "not a complete batch record"
    for key in _CURSOR_FIELDS:
        if type(entry[key]) is not int:
            return f"{key} is not an integer"
    return None


def read_cursor(paths: _RunPaths) -> tuple[list[dict], int]:
    """Parse the cursor's complete lines; also return their byte length.

    A final line without its newline was cut by a crash mid-append, so it
    commits nothing and is skipped; only resume truncates it, to the
    returned length. A complete line that is not UTF-8 JSON, not a batch
    record whose fields have the types resume relies on, or blank (no
    writer appends one) raises CorruptRunError; so does a directory in the
    cursor's place.
    """
    if not paths.cursor.exists():
        return [], 0
    if paths.cursor.is_dir():
        raise CorruptRunError(f"{paths.cursor} is not a file")
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
            raise CorruptRunError(f"{paths.cursor}: bad cursor line {line_no}: {problem}")
        entries.append(entry)
    return entries, len(complete)


def cursor_line(entry: dict) -> bytes:
    return json.dumps(entry, sort_keys=True).encode("utf-8") + b"\n"


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
    """run.meta as create writes it, in its key order. The _DIRECTORY_KEYS
    come from ``directory``: each input copy's name and the hash of its
    bytes (both None when there is no copy) and v0's hash; compare_run_meta
    passes the recorded run.meta, which open_run checked."""
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


def new_run(run_dir: str | Path) -> _RunPaths:
    """The paths of a directory to create a run in; it must hold no run."""
    paths = _RunPaths(run_dir)
    if paths.cursor.exists() or paths.version_txt(0).exists():
        raise ValueError(f"{paths.root} already holds a run; use resume() to continue it")
    return paths


def create(paths: _RunPaths, v0_text: str, config: EngineConfig, samples: Sequence[Sample],
           dataset_src: str | Path | None, script_src: str | Path | None) -> None:
    """Write a run's directories, run.meta (see _run_meta) and v0, and copy
    ``dataset_src`` and ``script_src`` into it when they are not None."""
    for d in (paths.root, paths.prompts, paths.transcripts):
        d.mkdir(parents=True, exist_ok=True)
    directory = {"v0_hash": _sha256(v0_text)}
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
    staged.write_text(v0_text, encoding="utf-8")
    os.replace(staged, paths.version_txt(0))


# Only the names version_txt writes: no leading zero, so a stray "v07.txt"
# is no version file and is neither refused nor removed.
_VERSION_FILE_RE = re.compile(r"^v(0|[1-9][0-9]*)\.txt$")


class _RunMeta(NamedTuple):
    """run.meta as open_run checked it."""

    recorded: dict  # the parsed object, which compare_run_meta compares with _run_meta
    shape: tuple[int, int]  # the batches per epoch and the epochs
    seg: SegmentationConfig
    required_tokens: tuple[str, ...]
    v0_hash: str
    copies: tuple[Path | None, Path | None]  # the dataset and script copies


def open_run(run_dir: str | Path) -> tuple[_RunPaths, _RunMeta]:
    """The opened run trainer.resume takes: the paths of an existing run
    directory, which must hold prompts/, and its run.meta, read and checked.
    run.meta must be a JSON object (a block-YAML one is unreadable) that
    records the sample count, batch size and epochs as positive integers,
    each segmentation marker list and the required tokens as lists of
    strings, and v0's hash as a string; and each input copy as its fixed
    name and the hash of its bytes, or as null with a null hash. A copy must
    be a file that matches. The first failure raises CorruptRunError; a
    ``run_dir`` that is no directory raises FileNotFoundError, as bad input."""
    paths = _RunPaths(run_dir)
    if not paths.root.is_dir():
        raise FileNotFoundError(f"no run directory at {paths.root}")
    if not paths.prompts.is_dir():
        raise CorruptRunError(f"{paths.root} has no prompts directory")
    if not paths.run_meta.exists():
        raise CorruptRunError(f"{paths.root} has no {RUN_META_NAME}")
    try:
        meta = json.loads(paths.run_meta.read_text(encoding="utf-8"))
    except (ValueError, IsADirectoryError) as exc:  # not UTF-8, not JSON, or a directory
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
        if copy is not None and not copy.is_file():
            raise CorruptRunError(f"{paths.run_meta} names {copy}, which is missing or no file")
        digest = None if copy is None else sha256(copy.read_bytes()).hexdigest()
        if meta.get(f"{key}_sha256") != digest:
            raise CorruptRunError(
                f"{copy} does not match the {key}_sha256 in {paths.run_meta}" if copy
                else f"{paths.run_meta} records a {key}_sha256 but no {key} copy"
            )
        copies.append(copy)
    return paths, _RunMeta(
        recorded=meta,
        shape=(-(-samples // batch_size), epochs),
        seg=SegmentationConfig(*map(tuple, lists[:-1])),
        required_tokens=tuple(lists[-1]),
        v0_hash=v0_hash,
        copies=tuple(copies),
    )


def compare_run_meta(paths: _RunPaths, meta: _RunMeta, config: EngineConfig,
                     samples: Sequence[Sample]) -> None:
    """Require the recorded run.meta to equal what create would write from
    this config and sample list; the first key that differs raises
    ValueError."""
    recorded = meta.recorded
    for key, value in _run_meta(config, samples, recorded).items():
        if recorded.get(key) != value:
            raise ValueError(
                f"this run's {key} {value!r} differs from {recorded.get(key)!r} "
                f"in {paths.run_meta}"
            )


def _version_numbers(paths: _RunPaths) -> set[int]:
    with os.scandir(paths.prompts) as entries:
        found = [(entry, _VERSION_FILE_RE.match(entry.name)) for entry in entries]
    for entry, m in found:
        if m and not entry.is_file():
            raise CorruptRunError(f"{entry.path} is not a file")
    return {int(m.group(1)) for _, m in found if m}


def _line(epoch: int, batch: int) -> str:
    """A cursor line's name; the order check compares names."""
    return f"batch line of epoch {epoch}, batch {batch}"


class _Cursor(NamedTuple):
    """Where a run stands after its committed cursor lines."""

    versions: list[dict]  # each committed version's hash and focus case, v0 first
    epoch: int  # the epoch in progress; the run's epochs + 1 once all ran
    batch: int  # its last batch line, 0 before the first
    episodes_total: int
    calls_total: int
    streak: int  # the epochs in a row, up to the last, that left the prompt unchanged
    epoch_start: int  # the version the epoch in progress started from


def advance(cursor: _Cursor, entry: dict, shape: tuple[int, int]) -> _Cursor:
    """The cursor's one transition: check a parsed cursor line against
    ``cursor`` and return where the run stands after it. It reads no file.

    ``shape`` is run.meta's batches per epoch and epochs. The line must be
    the one due: each epoch's batch lines 1, 2, ... up to the batches per
    epoch, up to the run's last epoch. A version's number is its place in
    ``cursor.versions``, so ``prompt_version`` must be the last committed
    number, plus one on a line that carries a ``version`` record.
    ``episodes_total`` and ``calls_total`` never fall.
    A version record's hash and focus text must be strings, and the focus
    case a FocusCase other than no_general_reason, which never reaches the
    optimizer; other keys are ignored, such as the ``placement``,
    ``parent_hash`` and ``segment_text`` that older runs recorded. A line
    that breaks a rule raises CorruptRunError, and changes nothing.

    A new version's hash and focus case, ``{"hash", "focus_case"}``, are
    appended to ``cursor.versions`` in place, so a fold takes time linear
    in the versions; the returned cursor shares that list. The focus text
    is checked but not kept. The epoch's last batch line also closes it:
    the next line is due in the next epoch, and the epoch counts towards
    the unchanged-epoch streak when its last version's hash is that of the
    version it started from.
    """
    per_epoch, epochs = shape
    n = entry["prompt_version"]
    line = _line(entry["epoch"], entry["batch"])
    due = (_line(cursor.epoch, cursor.batch + 1) if cursor.epoch <= epochs
           else f"end of the cursor after the run's {epochs} epoch(s)")
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
        fields = {
            "hash": record.get("hash"),
            "focus_case": focus.get("case"),
            "focus_text": focus.get("text"),
        }
        bad = [k for k, v in fields.items() if not isinstance(v, str)]
        if not bad and fields["focus_case"] not in _FOCUS_CASES:
            bad = ["focus_case"]
        if bad:
            raise CorruptRunError(
                f"the cursor's record of prompt v{n} has a malformed {bad[0]}"
            )
        versions.append({"hash": fields["hash"], "focus_case": fields["focus_case"]})
    cursor = cursor._replace(
        batch=cursor.batch + 1, episodes_total=episodes, calls_total=calls,
    )
    if cursor.batch < per_epoch:
        return cursor
    changed = versions[-1]["hash"] != versions[cursor.epoch_start]["hash"]
    return cursor._replace(
        epoch=cursor.epoch + 1, batch=0,
        streak=0 if changed else cursor.streak + 1, epoch_start=n,
    )


def fold(meta: _RunMeta, entries: Sequence[dict]) -> _Cursor:
    """Fold advance over the parsed cursor lines ``entries``, from v0
    alone (``{"hash": v0_hash, "focus_case": None}``), and return where
    the run stands. ``meta`` gives the run shape and v0's hash. It reads
    no file, so resume runs it before it discards anything. The first
    failure raises CorruptRunError.
    """
    v0 = {"hash": meta.v0_hash, "focus_case": None}
    cursor = _Cursor([v0], epoch=1, batch=0, episodes_total=0, calls_total=0,
                    streak=0, epoch_start=0)
    for entry in entries:
        cursor = advance(cursor, entry, meta.shape)
    return cursor


def discard_uncommitted(paths: _RunPaths, cursor: _Cursor, complete: int) -> None:
    """Remove what a crash left past ``cursor``: version files no line
    commits, a torn last cursor line (the bytes past ``complete``) and the
    transcripts of the first uncommitted batch."""
    for n in _version_numbers(paths):  # checks every name before an unlink
        if n >= len(cursor.versions):
            paths.version_txt(n).unlink()
    if paths.cursor.exists() and paths.cursor.stat().st_size > complete:
        os.truncate(paths.cursor, complete)
    shutil.rmtree(paths.batch_dir(cursor.epoch, cursor.batch + 1), ignore_errors=True)


def _replay(n: int, parent: PromptDocument, text: str) -> PromptDocument:
    """Version ``n`` (the caller's number) whose file holds ``text``:
    ``parent`` with only its step segment replaced. Each accepted optimizer
    update changes only that segment, so ``text`` must hold the text before
    and after the parent's step segment exactly, and between them a
    non-empty step block other than the parent's; otherwise CorruptRunError."""
    for k, segment in enumerate(parent.segments):
        if segment.kind is SegmentKind.STEP_INSTRUCTIONS:
            head = "".join(s.text for s in parent.segments[:k])
            tail = "".join(s.text for s in parent.segments[k + 1:])
            step = text[len(head):len(text) - len(tail)]
            if step and step != segment.text and text == head + step + tail:
                segments = list(parent.segments)
                segments[k] = segment._replace(text=step)
                return PromptDocument(tuple(segments))
    raise CorruptRunError(
        f"replaying v{n} from v{n - 1} does not reproduce the stored prompt"
    )


def write_version(paths: _RunPaths, n: int, parent: PromptDocument,
                  text: str) -> tuple[PromptDocument, dict]:
    """Write version ``n`` (the caller's number), the child of ``parent``,
    whose rendered text is ``text``; return its document and the cursor's
    record of it. It is replayed as the readers replay it, so a version
    they would refuse raises CorruptRunError here, before its file is written."""
    new = _replay(n, parent, text)
    paths.version_txt(n).write_text(text, encoding="utf-8")
    return new, {"hash": _sha256(text)}


def check_run(paths: _RunPaths, seg: SegmentationConfig,
              metas: Sequence[dict]) -> list[VersionRecord]:
    """Check and replay every committed prompt version, in order, and
    return their records, each with its replayed document.

    ``metas`` comes from fold and ``seg`` holds the run's own markers.
    Every committed file must exist and no file may be uncommitted, and
    each text must match its hash. v0 is parsed with the run's own markers,
    and every later version is replayed from the one before it (see
    _replay). The first failure raises CorruptRunError.
    """
    numbers = range(len(metas))
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
    for n, vmeta in enumerate(metas):
        text = paths.version_txt(n).read_text(encoding="utf-8")
        if _sha256(text) != vmeta["hash"]:
            raise CorruptRunError(f"prompt v{n} text does not match its recorded hash")
        doc = _replay(n, records[-1].doc, text) if records else parse_prompt(text, seg)
        records.append(VersionRecord(meta=vmeta, doc=doc))
    return records


def verify_chain(run_dir: str | Path) -> list[VersionRecord]:
    """Read a run directory once and check every committed version (see
    check_run); returns the version records. The cursor is only read: a
    torn last line is skipped, not truncated."""
    paths, meta = open_run(run_dir)
    cursor = fold(meta, read_cursor(paths)[0])
    return check_run(paths, meta.seg, cursor.versions)


def replay_lineage(run_dir: str | Path) -> list[PromptDocument]:
    """Like verify_chain, but returns the replayed prompt documents."""
    return [record.doc for record in verify_chain(run_dir)]
