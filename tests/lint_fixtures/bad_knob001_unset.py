"""Fixture: KNOB001 — defaulted parameters no call sets."""


def scale(value, factor=2, *, offset=0):
    return value * factor + offset


class Box:
    def __init__(self, width=1, height=1):
        self.width = width
        self.height = height


class Crate(Box):
    def __init__(self, label="", **sizes):
        super().__init__(width=sizes.get("width", 1))
        self.label = label


def strategy(seed=0):
    return seed


def splatted(a=1, b=2):
    return a + b


register_schedule_strategy("s", strategy)
scale(1, 3)
Box(width=2)
Crate(label="c")
splatted(*(1, 2))
