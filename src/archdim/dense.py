"""Dense application of small gates to big operators, by tensor reshaping.

Qubit 1 is the most significant axis of every 2^n-dimensional index, matching
the text form of Pauli strings.  Gates are given as 2^k x 2^k matrices acting
on k wires (1-based, distinct, in the order the gate's local qubits map onto
them).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidQubit


def _check_wires(wires: tuple[int, ...], n: int) -> None:
    if len(set(wires)) != len(wires):
        raise InvalidQubit(f"wires must be distinct: {wires}")
    for w in wires:
        if not 1 <= w <= n:
            raise InvalidQubit(f"wire {w} outside [1, {n}]")


def apply_gate_left(target: np.ndarray, gate: np.ndarray,
                    wires: tuple[int, ...], n: int) -> np.ndarray:
    """G_embedded @ target for a matrix or state-vector target.

    A stack of gates, shape (B, 2^k, 2^k), gives the stack of B products.
    """
    _check_wires(wires, n)
    k = len(wires)
    batch = gate.shape[:-2]
    lead = len(batch)
    g = gate.reshape(batch + (2,) * (2 * k))
    tail = target.shape[1:]
    t = target.reshape((2,) * n + tail)
    in_axes = [w - 1 for w in wires]
    res = np.tensordot(g, t, axes=(list(range(lead + k, lead + 2 * k)), in_axes))
    res = np.moveaxis(res, range(lead, lead + k), [lead + a for a in in_axes])
    return res.reshape(batch + target.shape)


def apply_gate_right(target: np.ndarray, gate: np.ndarray,
                     wires: tuple[int, ...], n: int) -> np.ndarray:
    """target @ G_embedded for a target with 2^n columns.

    A stack of gates, shape (B, 2^k, 2^k), gives the stack of B products.
    """
    _check_wires(wires, n)
    k = len(wires)
    batch = gate.shape[:-2]
    lead = len(batch)
    g = gate.reshape(batch + (2,) * (2 * k))
    t = target.reshape((target.shape[0],) + (2,) * n)
    # column axis of wire w sits at 1 + (w - 1) = w behind the row axis
    col_axes = list(wires)
    res = np.tensordot(t, g, axes=(col_axes, list(range(lead, lead + k))))
    # tensordot leaves (row, untouched columns, batch, gate columns)
    res = np.moveaxis(res, range(-k - lead, 0),
                      list(range(lead)) + [lead + w for w in wires])
    return res.reshape(batch + target.shape)
