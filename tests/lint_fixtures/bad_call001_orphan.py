"""Fixture: CALL001 — definitions nothing in the system calls."""


def orphan():
    return helper()


def helper():
    return 1


class Widget:
    def size(self):
        return 0

    def unused(self):
        return 1

    def shadowed(self):
        return 2

    def __repr__(self):
        return "Widget"

    def visit_Name(self, node):
        return node


def kept():
    return 3


shadowed = Widget().size()
