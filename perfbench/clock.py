"""Wall time scaled to a reference machine speed.

On a shared machine the speed a process gets changes from second to
second and from one process to the next: other tenants' work on the same
cores slows every instruction, so the same operation list takes from 2.3
to 4 ms per operation depending on when it runs. Medians over a run do not
remove that, because a whole run can land in a slow phase.

So every timed interval is bracketed by a short fixed kernel of the
benchmark's own (recursive evaluation of a fixed expression tree: calls,
attribute reads, dict lookups and float math, the same kind of work as
geocard's) and the interval is scaled by ``REFERENCE_S`` over the mean of
the two kernel times around it. The result reads as the wall time the
interval would take at the reference speed, where the kernel takes
``REFERENCE_S``. The kernel allocates no container objects, so the
garbage collector never runs inside it and memory a change leaves behind
cannot slow the kernel instead of the operation.
"""

from __future__ import annotations

import math
import time

# Kernel time at the reference speed: its fastest time on an idle 2-CPU
# x86-64 virtual machine under CPython 3.11.
REFERENCE_S = 1.5e-4


class _Node:
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op, self.left, self.right = op, left, right


def _tree(depth: int):
    if depth == 1:
        return _Node("+", "x", 1.5)
    return _Node("+*-"[depth % 3], _tree(depth - 1), _tree(depth - 1))


_TREE = _tree(9)
_ENV = {"x": 1.25}


def _evaluate(node) -> float:
    if node.__class__ is not _Node:
        return _ENV[node] if node.__class__ is str else node
    a = _evaluate(node.left)
    b = _evaluate(node.right)
    if node.op == "+":
        return a + b
    if node.op == "*":
        return a * 0.5 + math.sqrt(abs(b))
    return math.atan(a) - b * 0.25


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    _evaluate(_TREE)
    return time.perf_counter() - t0


class Clock:
    """Times intervals in reference seconds; keeps the raw wall times too.

    ``start()`` runs the kernel and then opens an interval; ``stop()``
    closes it and runs the kernel again, so the two kernel times come from
    right next to the interval they scale.
    """

    def __init__(self):
        self.kernel = 0.0
        self.t0 = 0.0
        self.raw: list = []      # wall seconds per interval
        self.scales: list = []   # REFERENCE_S / kernel seconds per interval

    def start(self) -> None:
        self.kernel = kernel_seconds()
        self.t0 = time.perf_counter()

    def stop(self) -> float:
        """End the interval begun by ``start()``; return reference seconds."""
        elapsed = time.perf_counter() - self.t0
        scale = 2.0 * REFERENCE_S / (self.kernel + kernel_seconds())
        self.raw.append(elapsed)
        self.scales.append(scale)
        return elapsed * scale
