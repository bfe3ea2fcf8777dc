"""Shared test helpers.

``assert_bit_identical`` is the determinism-parity comparator: it walks
arbitrarily nested experiment outputs and requires *exact* value
equality — float bit patterns, numpy dtype/shape/bytes, dataclass
fields — without requiring pickle-byte equality (pickle's internal
memo structure differs between objects that crossed a process boundary
and objects that never left, even when every value is identical).
``value_digest`` hashes a value through the same walk, so a committed
sha256 can stand in for the second value; ``output_digests`` is the
pair of them that ``tests/golden/experiments.json`` pins per experiment.
"""

import dataclasses
import hashlib
import struct

import numpy as np


def assert_bit_identical(a, b, path="value"):
    """Require ``a`` and ``b`` to be exactly (bit-for-bit) equal values."""
    assert type(a) is type(b), f"{path}: {type(a)} != {type(b)}"
    if isinstance(a, dict):
        assert a.keys() == b.keys(), f"{path}: key sets differ"
        for k in a:
            assert_bit_identical(a[k], b[k], f"{path}[{k!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{path}: lengths differ"
        for i, (x, y) in enumerate(zip(a, b)):
            assert_bit_identical(x, y, f"{path}[{i}]")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape \
            and a.tobytes() == b.tobytes(), f"{path}: arrays differ"
    elif isinstance(a, float):
        assert struct.pack("<d", a) == struct.pack("<d", b), \
            f"{path}: {a!r} != {b!r} (bitwise)"
    elif dataclasses.is_dataclass(a) and not isinstance(a, type):
        for f in dataclasses.fields(a):
            assert_bit_identical(getattr(a, f.name), getattr(b, f.name),
                                 f"{path}.{f.name}")
    elif hasattr(a, "__dict__") and not isinstance(a, type):
        assert vars(a).keys() == vars(b).keys(), f"{path}: attrs differ"
        for k in vars(a):
            assert_bit_identical(vars(a)[k], vars(b)[k], f"{path}.{k}")
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


def value_digest(value):
    """sha256 of ``value`` walked as :func:`assert_bit_identical` compares
    it: type names, float bits, ndarray dtype/shape/bytes, dataclass
    fields and ``vars()`` of plain objects.  Sets hash order-free, so the
    digest does not depend on ``PYTHONHASHSEED``."""
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()


def output_digests(out):
    """The ``{"text", "data"}`` sha256 pair of one experiment output."""
    return {"text": hashlib.sha256(out.text.encode()).hexdigest(),
            "data": value_digest(out.data)}


def _feed(h, a):
    t = type(a)
    h.update(f"<{t.__module__}.{t.__qualname__}>".encode())
    if isinstance(a, dict):
        h.update(b"%d:" % len(a))
        for k, v in a.items():
            _feed(h, k)
            _feed(h, v)
    elif isinstance(a, (list, tuple)):
        h.update(b"%d:" % len(a))
        for x in a:
            _feed(h, x)
    elif isinstance(a, (set, frozenset)):
        h.update(" ".join(sorted(value_digest(x) for x in a)).encode())
    elif isinstance(a, np.ndarray):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    elif isinstance(a, float):
        h.update(struct.pack("<d", a))
    elif dataclasses.is_dataclass(a) and not isinstance(a, type):
        for f in dataclasses.fields(a):
            h.update(f.name.encode())
            _feed(h, getattr(a, f.name))
    elif hasattr(a, "__dict__") and not isinstance(a, type):
        for k, v in vars(a).items():
            h.update(k.encode())
            _feed(h, v)
    else:
        text = repr(a)
        if " at 0x" in text:
            raise TypeError(f"{text} has no stable digest (memory address)")
        h.update(text.encode())
