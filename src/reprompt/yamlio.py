"""YAML reading with libyaml's safe loader when PyYAML was built with it.

The C loader builds the same data as ``yaml.SafeLoader`` about ten times
faster on scripts and datasets. Writing stays with ``yaml.safe_dump``, so
the bytes of every file the engine writes are unaffected.
"""
from __future__ import annotations

import yaml

SafeLoader = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def load_yaml(stream):
    """``yaml.safe_load`` with the fastest safe loader available."""
    return yaml.load(stream, Loader=SafeLoader)
