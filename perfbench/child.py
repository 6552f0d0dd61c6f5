"""One round of one workload in a fresh interpreter.

    python3 child.py WORKLOAD INPUT_DIR WORK_DIR TRACE(0|1) OUT_JSON

The round goes through the public functions that the ``reprompt`` CLI
calls, in the CLI's order. Set-up (``setup_s``) runs from before
``import reprompt`` to the first gateway call: config, loaders, gateway
and feedback. ``wall_s`` runs from there to the program's checked
result: train plus inspect, or the evals of v0 and v1. The benchmark's
own checks run after the clock stops. Only standard-library modules are
imported before the set-up clock starts.
"""
from __future__ import annotations

import contextlib
import os
import sys
import time

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


class CountingGateway:
    """Passes calls through and counts them, with their message
    characters, per stage (told apart by the system prompt)."""

    def __init__(self, inner, prefixes: dict[str, str]):
        self._inner = inner
        self._prefixes = prefixes
        self.attempted = 0
        self.failed = 0
        self.chars = 0
        self.stages: dict[str, list[int]] = {}

    @property
    def calls(self) -> int:
        return self._inner.calls

    def _stage(self, messages) -> str:
        first = messages[0]
        if first.role.value == "system":
            for prefix, stage in self._prefixes.items():
                if first.content.startswith(prefix):
                    if stage == "optimizer" and len(messages) > 2:
                        return "optimizer_retry"
                    return stage
            return "other"
        return "actor"

    def complete(self, request):
        chars = sum(len(m.content) for m in request.messages)
        tally = self.stages.setdefault(self._stage(request.messages), [0, 0])
        tally[0] += 1
        tally[1] += chars
        self.attempted += 1
        self.chars += chars
        try:
            return self._inner.complete(request)
        except Exception:
            self.failed += 1
            raise


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _no_span(name):
    return contextlib.nullcontext()


def run_train(workload: str, inputs: str, work: str, traced: bool, out: dict) -> None:
    t0 = time.perf_counter()
    import reprompt.cli  # noqa: F401  -- the modules a CLI user imports
    out["import_s"] = time.perf_counter() - t0
    from reprompt.actor import feedback_generator
    from reprompt.config import load_config
    from reprompt.gateway import ScriptedGateway, load_script
    from reprompt.toy_task import ToyAdapter, load_toy_samples, to_task_sample
    from reprompt.trainer import replay_lineage, train, verify_chain

    config = load_config(os.path.join(inputs, spec.CONFIG))
    t = time.perf_counter()
    script_path = os.path.join(inputs, spec.SCRIPT)
    gateway = ScriptedGateway(load_script(script_path))
    out["load_script_s"] = time.perf_counter() - t
    t = time.perf_counter()
    dataset = os.path.join(inputs, spec.DATASET)
    toys = load_toy_samples(dataset)
    samples = [to_task_sample(s) for s in toys]
    out["load_samples_s"] = time.perf_counter() - t
    feedback = feedback_generator(
        config.train.feedback, gateway=gateway, model=config.gateway.summarizer_model,
        adapter=ToyAdapter(), samples_by_id={s.id: s for s in toys},
        temperature=config.gateway.temperature, seed=config.train.seed,
    )
    initial = _read(os.path.join(inputs, spec.PROMPT))
    out["setup_s"] = time.perf_counter() - t0

    counting = CountingGateway(gateway, _prefixes())
    tracer, span = _tracer(traced, feedback, out)
    run_dir = os.path.join(work, "run")
    t = time.perf_counter()
    try:
        with span("trainer.train"):
            result = train(initial, samples, config=config, gateway=counting, feedback=feedback,
                           run_dir=run_dir, dataset_src=dataset, script_src=script_path)
        with span("trainer.inspect"):
            verify_chain(run_dir)
            replay_lineage(run_dir)
    except Exception as exc:  # the program failed: report it as a wrong output
        out["problems"].append(f"{type(exc).__name__}: {exc}")
        return
    finally:
        out["wall_s"] = time.perf_counter() - t
        out["peak_rss_mb"] = _peak_rss_mb()
        _counts(out, counting)

    import checks
    summary = {
        "versions": list(result.versions),
        "episodes": result.episodes_run,
        "gateway_calls": counting.attempted,
        "repairs": counting.stages.get("repair", [0])[0],
        "rejections": counting.stages.get("optimizer_retry", [0])[0],
        "rounds": counting.stages.get("actor", [0])[0],
    }
    expect = _expect(inputs)
    check = checks.check_train_wide if workload == "train_wide" else checks.check_train_deep
    out["problems"] += check(run_dir, expect, summary)
    if result.calls_used != counting.attempted:
        out["problems"].append(f"the run counted {result.calls_used} calls, "
                               f"{counting.attempted} were made")
    out["digest"] = checks.tree_digest(run_dir)
    if tracer is not None:
        size, files = checks.tree_size(run_dir)
        history = getattr(gateway, "history", ())
        _layers(out, tracer, counting, {
            "gateway.history_kchars": sum(
                len(m.content) for item in history for m in item[0].messages) / 1000.0,
            "gateway.http_connections": 0,
            "trainer.run_dir_kib": size / 1024.0,
            "trainer.files": files,
        })


def run_eval(inputs: str, work: str, traced: bool, out: dict) -> None:
    import stub as stub_module
    listener = stub_module.listen()
    config_path = os.path.join(work, spec.CONFIG)
    host, port = listener.getsockname()
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(spec.eval_config(f"http://{host}:{port}/v1"))

    t0 = time.perf_counter()
    import reprompt.cli  # noqa: F401  -- the modules a CLI user imports
    out["import_s"] = time.perf_counter() - t0
    from reprompt.actor import feedback_generator
    from reprompt.config import load_config
    from reprompt.evaluator import evaluate
    from reprompt.gateway import HttpGateway
    from reprompt.prompt_model import parse_prompt
    from reprompt.toy_task import ToyAdapter, load_toy_samples

    config = load_config(config_path)
    t = time.perf_counter()
    toys = load_toy_samples(os.path.join(inputs, spec.DATASET))
    out["load_samples_s"] = time.perf_counter() - t
    gateway = HttpGateway(base_url=config.gateway.base_url)
    adapter = ToyAdapter()
    feedback = feedback_generator(
        "none", gateway=gateway, model=config.gateway.summarizer_model, adapter=adapter,
        samples_by_id={s.id: s for s in toys}, temperature=config.gateway.temperature,
        seed=config.train.seed,
    )
    texts = [("v0", _read(os.path.join(inputs, spec.PROMPT))),
             ("v1", _read(os.path.join(inputs, spec.PROMPT_V1)))]
    out["setup_s"] = time.perf_counter() - t0
    out["load_script_s"] = 0.0

    expect = _expect(inputs)
    server = stub_module.LoopbackStub(listener, expect["plans"], spec.ANCHOR, spec.plan_text)
    server.start()
    counting = CountingGateway(gateway, _prefixes())
    tracer, span = _tracer(traced, feedback, out)
    rounds = []
    t = time.perf_counter()
    try:
        for label, text in texts:
            before = len(server.sent)
            with span("prompt_model.parse"):
                prompt = parse_prompt(text, config.task.segmentation())
            with span("evaluator.evaluate"):
                report = evaluate(prompt, toys, adapter, gateway=counting,
                                  model=config.gateway.model, feedback=feedback,
                                  max_rounds=config.train.max_rounds,
                                  temperature=config.gateway.temperature,
                                  seed=config.train.seed)
            rounds.append((label, report, server.sent[before:]))
    except Exception as exc:  # the program failed: report it as a wrong output
        out["problems"].append(f"{type(exc).__name__}: {exc}")
        return
    finally:
        out["wall_s"] = time.perf_counter() - t
        out["peak_rss_mb"] = _peak_rss_mb()
        server.stop()
        _counts(out, counting)

    import checks
    out["problems"] += checks.check_eval(expect, [
        (label, [(r.sample_id, r.delivered, r.passed) for r in report.records], sent)
        for label, report, sent in rounds
    ])
    if tracer is not None:
        records = [r for _, report, _ in rounds for r in report.records]
        out["counts"]["episodes"] = len(records)
        out["counts"]["rounds"] = sum(r.rounds_used for r in records)
        _layers(out, tracer, counting, {
            "gateway.history_kchars": 0.0,
            "gateway.http_connections": server.connections,
            "trainer.run_dir_kib": 0.0,
            "trainer.files": 0,
        })


def _prefixes() -> dict[str, str]:
    return {
        spec.SUMMARIZER_PREFIX: "summarizer",
        spec.OPTIMIZER_PREFIX: "optimizer",
        spec.REPAIR_PREFIX: "repair",
    }


def _tracer(traced: bool, feedback, out: dict):
    if not traced:
        return None, _no_span
    import tracing
    tracer = tracing.Tracer()
    out["counts"] = {"episodes": 0, "rounds": 0, "accepted": 0}
    tracing.install(tracer, feedback, out["counts"])
    return tracer, tracer.span


def _layers(out: dict, tracer, counting: CountingGateway, extra: dict) -> None:
    import tracing
    tracer.restore()
    extra = dict(extra)
    extra["reprompt.import_s"] = out["import_s"]
    extra["gateway.load_script_s"] = out["load_script_s"]
    extra["toy_task.load_samples_s"] = out["load_samples_s"]
    out["layers"] = tracing.layer_values(tracer, out["counts"], counting.stages, extra)
    out["spans"] = tracer.dump()
    out["missing"] = tracer.missing


def _counts(out: dict, counting: CountingGateway) -> None:
    out["gateway_calls"] = counting.attempted
    out["request_kchars"] = counting.chars / 1000.0
    out["attempted"] = counting.attempted
    out["failed"] = counting.failed
    out["stages"] = counting.stages


def _expect(inputs: str) -> dict:
    import json
    return json.loads(_read(os.path.join(inputs, spec.EXPECT)))


def _peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pin_to_one_cpu() -> None:
    """Keep this process, and the threads it starts later, on one CPU.

    Every HTTP call hands control between the client and the stub thread
    several times (connect, request, response, close). Spread over two
    CPUs, each hand-off may wake an idle CPU, which costs what the host
    makes it cost at that moment: on a shared 2-vCPU VM the quartiles of
    ``wall_s`` over ten runs lay half the median or more apart. On one CPU a
    hand-off is a plain context switch. The stub serves one connection
    at a time, so the pin takes no parallelism away.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv: list[str]) -> int:
    workload, inputs, work, trace, out_path = argv
    sys.path.insert(0, SRC)
    out: dict = {"workload": workload, "traced": trace == "1", "problems": []}
    if workload == "eval_http":
        _pin_to_one_cpu()
        run_eval(inputs, work, trace == "1", out)
    else:
        run_train(workload, inputs, work, trace == "1", out)
    import json
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
