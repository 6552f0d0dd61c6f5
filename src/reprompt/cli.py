"""Command line interface.

Subcommands: train, eval, resume, inspect, diff. Exit code 0 on success,
1 for bad input (config, files, flag combinations), 2 for engine errors
raised while running.

Importing this module loads only what every command shares. The training
stack (``trainer`` with the summarizer, optimizer and guardrails) is
imported by the commands that run it, ``train`` and ``resume``, and the
run directory's reader (``rundir``) by the commands that read one,
``resume`` and ``inspect``; so ``eval`` and ``diff`` start without
either, and ``inspect`` without the training stack.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .actor import feedback_generator, load_dataset
from .config import ConfigError, EngineConfig, load_config
from .errors import EngineError
from .evaluator import evaluate, write_report_tsv, write_report_yaml
from .gateway import Gateway, HttpGateway, ScriptedGateway, load_script
from .prompt_model import classify_placement, diff_prompts, parse_prompt
from .toy_task import ToyAdapter, generate_samples, load_toy_samples

if TYPE_CHECKING:
    from .trainer import TrainResult


def _build_gateway(backend: str | None, script: str | None, config: EngineConfig) -> Gateway:
    # ``backend`` is --backend, which overrides the configured one; argparse
    # and the config reader both limit it to scripted or http.
    if (backend or config.gateway.backend) == "http":
        return HttpGateway(base_url=config.gateway.base_url)
    if not script:
        raise ConfigError("the scripted backend needs --script")
    return ScriptedGateway(load_script(script))


def _load_task(config: EngineConfig, dataset_path: str):
    """Returns (samples, adapter); the adapter is None for a task without a checker."""
    if config.task.kind == "toy":
        return load_toy_samples(dataset_path), ToyAdapter()
    return load_dataset(dataset_path), None


def _build_feedback(tag: str, config: EngineConfig, gateway: Gateway, adapter, samples):
    return feedback_generator(
        tag,
        gateway=gateway,
        model=config.gateway.summarizer_model,
        adapter=adapter,
        samples_by_id={s.id: s for s in samples},
        temperature=config.gateway.temperature,
        seed=config.train.seed,
    )


def _cmd_train(args) -> int:
    from . import trainer

    config = load_config(args.config)
    gateway = _build_gateway(args.backend, args.script, config)
    samples, adapter = _load_task(config, args.dataset)
    feedback = _build_feedback(config.train.feedback, config, gateway, adapter, samples)
    initial = Path(args.prompt).read_text(encoding="utf-8")
    result = trainer.train(
        initial,
        samples,
        config=config,
        gateway=gateway,
        feedback=feedback,
        run_dir=args.out,
        dataset_src=args.dataset,
        script_src=args.script,
    )
    _print_train_result(result)
    return 0


def _cmd_resume(args) -> int:
    from . import rundir, trainer

    config = load_config(args.config)
    run_dir = Path(args.out)
    copies = rundir.input_copies(run_dir)
    dataset = args.dataset or copies[0]
    script = args.script or copies[1]
    if dataset is None:
        raise ConfigError(f"{run_dir} holds no dataset copy; resume needs --dataset")
    gateway = _build_gateway(args.backend, script, config)
    samples, adapter = _load_task(config, dataset)
    feedback = _build_feedback(config.train.feedback, config, gateway, adapter, samples)
    result = trainer.resume(
        run_dir, samples, config=config, gateway=gateway, feedback=feedback
    )
    _print_train_result(result)
    return 0


def _print_train_result(result: TrainResult) -> None:
    doc = result.final_prompt
    print(f"final prompt: v{doc.version}")
    print(f"versions written: {', '.join(f'v{n}' for n in result.versions)}")
    print(
        f"episodes: {result.episodes_run}, gateway calls: {result.calls_used}, "
        f"epochs: {result.epochs_completed}, "
        f"converged: {'yes' if result.converged else 'no'}"
    )
    print(f"run dir: {result.run_dir}")


def _cmd_eval(args) -> int:
    config = load_config(args.config)
    if config.task.kind != "toy":
        raise ConfigError("eval currently supports only task kind 'toy'")
    if args.trials is not None:
        if args.test_set:
            raise ConfigError("eval takes either --test-set or --trials, not both")
        if args.trials < 1:
            raise ConfigError(f"--trials must be at least 1, got {args.trials}")
        samples = generate_samples(args.trials, base_seed=config.train.seed)
        adapter = ToyAdapter()
    elif args.test_set:
        samples, adapter = _load_task(config, args.test_set)
    else:
        raise ConfigError("eval needs --test-set or --trials")
    gateway = _build_gateway(args.backend, args.script, config)
    tag = "none" if args.no_feedback else config.train.feedback
    feedback = _build_feedback(tag, config, gateway, adapter, samples)
    text = Path(args.prompt).read_text(encoding="utf-8")
    prompt = parse_prompt(text, config.task.segmentation())
    report = evaluate(
        prompt,
        samples,
        adapter,
        gateway=gateway,
        model=config.gateway.model,
        feedback=feedback,
        max_rounds=config.train.max_rounds,
        temperature=config.gateway.temperature,
        seed=config.train.seed,
        parallelism=config.train.parallelism,
    )
    for record in report.records:
        mark = "pass" if record.passed else "FAIL"
        line = f"{mark}  {record.sample_id} (rounds {record.rounds_used})"
        if not record.passed and record.detail:
            line += f": {record.detail}"
        print(line)
    print(
        f"passed {sum(r.passed for r in report.records)}/{report.total} "
        f"({report.pass_rate:.1%}), delivered "
        f"{sum(r.delivered for r in report.records)}/{report.total} "
        f"({report.delivery_rate:.1%})"
    )
    if args.out:
        if args.out.endswith(".tsv"):
            write_report_tsv(report, args.out)
        else:
            write_report_yaml(report, args.out)
        print(f"report written to {args.out}")
    return 0


def _cmd_inspect(args) -> int:
    from . import rundir

    records = rundir.verify_chain(args.out)
    for n, record in enumerate(records):
        placement = str(classify_placement(records[n - 1].doc, record.doc)) if n else "-"
        focus_case = record.meta.get("focus_case") or "initial"
        print(
            f"v{n}  {record.meta['hash'][:12]}  "
            f"{placement:<16s} {focus_case}"
        )
    print(f"{len(records)} version(s); hash chain and replay both check out")
    return 0


def _cmd_diff(args) -> int:
    seg = None
    if args.config:
        seg = load_config(args.config).task.segmentation()
    a = parse_prompt(Path(args.old).read_text(encoding="utf-8"), seg)
    b = parse_prompt(Path(args.new).read_text(encoding="utf-8"), seg)
    print(diff_prompts(a, b))
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprompt",
        description="Optimize the step-instruction block of an agent prompt.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument(
            "--backend", choices=["scripted", "http"],
            help="override the configured gateway backend",
        )
        p.add_argument("--script", help="script file for the scripted backend")

    p_train = sub.add_parser("train", help="run the optimization loop")
    add_common(p_train)
    p_train.add_argument("--prompt", required=True, help="initial prompt text file")
    p_train.add_argument("--dataset", required=True, help="training samples (YAML)")
    p_train.add_argument("--out", required=True, help="run directory to create")
    p_train.set_defaults(handler=_cmd_train)

    p_resume = sub.add_parser("resume", help="continue an interrupted run")
    add_common(p_resume)
    p_resume.add_argument("--out", required=True, help="existing run directory")
    p_resume.add_argument(
        "--dataset", help="sample file (default: the copy inside the run dir)"
    )
    p_resume.set_defaults(handler=_cmd_resume)

    p_eval = sub.add_parser("eval", help="measure a prompt's pass rate")
    add_common(p_eval)
    p_eval.add_argument("--prompt", required=True, help="prompt text file")
    p_eval.add_argument("--test-set", help="evaluation samples (YAML)")
    p_eval.add_argument(
        "--trials", type=int, help="generate this many samples instead of --test-set"
    )
    p_eval.add_argument("--out", help="write the report here (.tsv for TSV, else YAML)")
    p_eval.add_argument(
        "--no-feedback", action="store_true",
        help="single-round evaluation regardless of the configured feedback",
    )
    p_eval.set_defaults(handler=_cmd_eval)

    p_inspect = sub.add_parser("inspect", help="verify and list a run's prompt versions")
    p_inspect.add_argument("--out", required=True, help="run directory")
    p_inspect.set_defaults(handler=_cmd_inspect)

    p_diff = sub.add_parser("diff", help="segment-level diff of two prompt files")
    p_diff.add_argument("old")
    p_diff.add_argument("new")
    p_diff.add_argument("--config", help="INI config file (for marker overrides)")
    p_diff.set_defaults(handler=_cmd_diff)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EngineError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
