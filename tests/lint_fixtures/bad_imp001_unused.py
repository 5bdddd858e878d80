"""Fixture: IMP001 — imports nothing reads."""

import json
import os.path
from typing import List, Tuple
import sys  # noqa: F401
from collections import OrderedDict

__all__ = ["OrderedDict"]


def f() -> List[int]:
    import re

    return [len(os.path.sep)]


def g():
    from itertools import chain

    return list(chain([1], [2]))
