"""Correctness gates on one certificate, independent of cosetprog's code.

The containing set ``Q + H`` is rebuilt from the certificate text with
this module's own parser and enumeration (not ``cosetprog.materialize``),
and the input set must lie inside it.
"""

from __future__ import annotations

import math

import numpy as np


def _blocks(text: str) -> dict[str, list[list[str]]]:
    """Lines of each section, keyed by the path of nested section names."""
    out: dict[str, list[list[str]]] = {}
    stack: list[str] = []
    for raw in text.splitlines()[1:]:
        row = raw.split()
        if not row:
            continue
        if row[0] == "begin":
            stack.append(" ".join(row[1:]))
            out.setdefault("/".join(stack), [])
        elif row[0] == "end":
            stack.pop()
        elif stack:
            out["/".join(stack)].append(row)
    return out


def _codes(coords: np.ndarray, orders: np.ndarray) -> np.ndarray:
    weights = np.cumprod(np.concatenate([[1], orders[:-1]]))
    return (coords % orders) @ weights


def _add_multiples(points: np.ndarray, g: np.ndarray, lo: int, hi: int,
                   orders: np.ndarray) -> np.ndarray:
    steps = np.arange(lo, hi + 1, dtype=np.int64)[:, None] * g[None, :]
    sums = ((points[:, None, :] + steps[None, :, :]) % orders).reshape(-1, len(orders))
    _, first = np.unique(_codes(sums, orders), return_index=True)
    return sums[first]


def _orders(block: list[list[str]]) -> np.ndarray:
    return np.array(next(r[1:] for r in block if r[0] == "group"), dtype=np.int64)


def enumerate_q_plus_h(block: list[list[str]]) -> np.ndarray:
    """Sorted codes of every element of base + sum l_j g_j + H."""
    orders = _orders(block)
    k = len(orders)
    points = np.zeros((1, k), dtype=np.int64)
    base = np.zeros(k, dtype=np.int64)
    in_subgroup = False
    gens = []
    for row in block:
        if row[0] == "base":
            base = np.array([int(t) for t in row[1:]], dtype=np.int64)
        elif row[0] == "gen":
            gens.append((np.array([int(t) for t in row[1:1 + k]], dtype=np.int64),
                         int(row[1 + k]), int(row[2 + k])))
        elif row[0] == "subgroup":
            in_subgroup = True
        elif row[0] == "elem" and in_subgroup:
            h = np.array([int(t) for t in row[1:]], dtype=np.int64)
            order = math.lcm(*(int(n) // math.gcd(int(n), int(c)) for n, c in zip(orders, h)))
            points = _add_multiples(points, h, 0, order - 1, orders)
    points = (points + base) % orders
    for g, lo, hi in gens:
        points = _add_multiples(points, g, lo, hi, orders)
    return np.sort(_codes(points, orders))


def containment_gates(text: str) -> list[str]:
    """Names of the gates that fail: A inside Q + H, and q-size = |Q + H|."""
    blocks = _blocks(text)
    orders = _orders(blocks["input"])
    if not np.array_equal(orders, _orders(blocks["cover/q"])):
        return ["q_group"]
    q_codes = enumerate_q_plus_h(blocks["cover/q"])
    failed = []
    a_rows = [r for r in blocks["input"] if r[0] == "elem"]
    a = np.array([[int(t) for t in r[1:]] for r in a_rows], dtype=np.int64).reshape(-1, len(orders))
    a_codes = _codes(a, orders)
    pos = np.searchsorted(q_codes, a_codes)
    inside = (pos < len(q_codes)) & (q_codes[np.minimum(pos, len(q_codes) - 1)] == a_codes)
    if not inside.all():
        failed.append("a_in_q_plus_h")
    q_size = next(int(r[1]) for r in blocks["cover"] if r[0] == "q-size")
    if q_size != len(q_codes):
        failed.append("q_size")
    return failed
