"""Fixture: KNOB002 — defaulted dataclass fields no call sets."""

from dataclasses import dataclass, field, replace
from typing import ClassVar, List


@dataclass
class Rule:
    src: int
    dst: int = 0
    delay: float = 1.0
    nth: int = 0
    window: float = field(default=0.0)
    extra: float = 0.0
    kind: ClassVar[str] = "rule"
    seen: List[int] = field(default_factory=list)
    matched: int = field(default=0, init=False)

    @classmethod
    def slow(cls):
        return cls(1, extra=2.0)


@dataclass
class LateRule(Rule):
    late: bool = False
    label: str = ""


@dataclass
class Plan:
    rules: tuple = ()
    name: str = ""


@dataclass(init=False)
class Manual:
    width: int = 1

    def __init__(self):
        self.width = 2


Rule(1, dst=2)
LateRule(1, 2, 3.0).label = "late"
replace(Rule(1), window=2.0)
Plan(**{"rules": ()})
Manual()
