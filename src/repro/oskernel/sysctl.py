"""``/proc/sys`` emulation: the interface the paper tunes through.

The WAN section of the paper configures hosts with literal ``echo ... >
/proc/sys/net/ipv4/tcp_rmem`` commands.  :class:`SysctlTable` reproduces
that interface on top of :class:`~repro.config.TuningConfig`, so examples
can be written exactly like the paper's recipe:

    >>> t = SysctlTable()
    >>> t.write("net/ipv4/tcp_rmem", "4096 87380 33554432")
    >>> t.write("net/core/rmem_max", "33554432")
    >>> cfg = t.apply(TuningConfig.stock())
    >>> cfg.tcp_rmem
    33554432
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.config import TuningConfig
from repro.errors import SysctlError

__all__ = ["SysctlTable"]


def _parse_rmem(value: str) -> int:
    """tcp_rmem/tcp_wmem triplets: ``min default max`` — we adopt max,
    matching how the paper sizes buffers to the BDP."""
    parts = value.split()
    if not 1 <= len(parts) <= 3:
        raise SysctlError(f"expected 1-3 integers, got {value!r}")
    try:
        numbers = [int(p) for p in parts]
    except ValueError as exc:
        raise SysctlError(f"non-integer sysctl value {value!r}") from exc
    if any(n <= 0 for n in numbers):
        raise SysctlError(f"sysctl values must be positive: {value!r}")
    return numbers[-1]


def _parse_int(value: str) -> int:
    try:
        n = int(value.strip())
    except ValueError as exc:
        raise SysctlError(f"non-integer sysctl value {value!r}") from exc
    if n < 0:
        raise SysctlError(f"sysctl value must be non-negative: {value!r}")
    return n


def _parse_bool(value: str) -> bool:
    n = _parse_int(value)
    if n not in (0, 1):
        raise SysctlError(f"boolean sysctl takes 0 or 1, got {value!r}")
    return bool(n)


class SysctlTable:
    """A writable view of the networking sysctls the paper touches.

    Writes are validated immediately; :meth:`apply` folds the accumulated
    writes into a :class:`TuningConfig`.
    """

    #: key -> (parser, TuningConfig field)
    _KEYS: Dict[str, Tuple[Callable[[str], object], str]] = {
        "net/ipv4/tcp_rmem": (_parse_rmem, "tcp_rmem"),
        "net/ipv4/tcp_wmem": (_parse_rmem, "tcp_wmem"),
        "net/core/rmem_max": (_parse_int, "tcp_rmem"),
        "net/core/wmem_max": (_parse_int, "tcp_wmem"),
        "net/ipv4/tcp_timestamps": (_parse_bool, "tcp_timestamps"),
        "net/ipv4/tcp_window_scaling": (_parse_bool, "window_scaling"),
    }

    def __init__(self) -> None:
        self._values: Dict[str, object] = {}

    @staticmethod
    def _normalize(key: str) -> str:
        key = key.strip().lstrip("/")
        if key.startswith("proc/sys/"):
            key = key[len("proc/sys/"):]
        return key.replace(".", "/")

    def write(self, key: str, value: str) -> None:
        """``echo value > /proc/sys/<key>``."""
        norm = self._normalize(key)
        entry = self._KEYS.get(norm)
        if entry is None:
            raise SysctlError(f"unknown sysctl {key!r}")
        parser, attr = entry
        self._values[attr] = parser(value)

    def apply(self, config: TuningConfig) -> TuningConfig:
        """``config`` with every accumulated write applied."""
        if not self._values:
            return config
        return config.replace(**self._values)

    def run_script(self, script: str) -> None:
        """Execute a block of ``echo ... > /proc/sys/...`` lines.

        Lines that are empty, comments, or non-echo commands (the paper's
        recipe also contains ``/sbin/ifconfig`` lines, handled elsewhere)
        are skipped.
        """
        for line in script.splitlines():
            line = line.strip()
            if not line or line.startswith("#") or not line.startswith("echo"):
                continue
            try:
                rest = line[len("echo"):]
                value, _, target = rest.partition(">")
            except ValueError as exc:  # pragma: no cover - defensive
                raise SysctlError(f"cannot parse line {line!r}") from exc
            if not target.strip():
                raise SysctlError(f"echo without redirect target: {line!r}")
            self.write(target.strip(), value.strip().strip('"'))
