"""YAML reading: the stdlib JSON parser for JSON text, else libyaml.

JSON is a subset of YAML, and the engine writes its sample datasets as
JSON (see ``toy_task.save_toy_samples``), so ``load_yaml`` first tries
``json.loads``, whose C parser reads such a file about ten times faster
than libyaml builds the same data. YAML 1.1 reads floats and the NaN and
Infinity constants differently from JSON (``1e3`` is a string in YAML),
so JSON text holding one of them, and any text that is not JSON, goes to
libyaml's safe loader when PyYAML was built with it. Writing stays with
``yaml.safe_dump`` or ``json.dumps``, so the bytes of every file the
engine writes are unaffected.

PyYAML is imported only where it is used: here on the YAML fallback, and
by the functions that dump YAML or load a gateway script. A command that
reads only JSON datasets, such as ``reprompt eval --backend http``, never
loads it, and ``reprompt inspect`` never does: run.meta is JSON, read by
``json.loads`` in the trainer, which does not import this module.
"""
from __future__ import annotations

import json


def safe_loader():
    """PyYAML's safe loader class, libyaml's when PyYAML was built with it."""
    import yaml

    return yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def _not_plain_json(token: str):
    raise ValueError(f"{token!r} may read differently as YAML")


def load_yaml(text: str):
    """``yaml.safe_load`` of ``text``, through ``json.loads`` when that
    reads it to the same data. Text that is not YAML raises ValueError,
    with libyaml's message on one line."""
    try:
        return json.loads(
            text, parse_float=_not_plain_json, parse_constant=_not_plain_json
        )
    except ValueError:
        pass  # libyaml runs outside the handler, so its errors carry no JSON context
    import yaml

    try:
        return yaml.load(text, Loader=safe_loader())
    except yaml.YAMLError as exc:
        raise ValueError(f"invalid YAML: {' '.join(str(exc).split())}") from None
