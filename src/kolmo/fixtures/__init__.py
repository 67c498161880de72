"""Hand-built machine fixtures in the textual transition format."""

from __future__ import annotations

from functools import cache
from importlib import resources

from ..prefix_vm import PrefixMachine, parse_machine_text

__all__ = ["fixture_names", "load_fixture"]


@cache
def fixture_names() -> tuple[str, ...]:
    root = resources.files(__name__)
    return tuple(sorted(p.name[:-3] for p in root.iterdir() if p.name.endswith(".tm")))


def load_fixture(name: str) -> PrefixMachine:
    text = (resources.files(__name__) / f"{name}.tm").read_text()
    return parse_machine_text(text, name=name)
