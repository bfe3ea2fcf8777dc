"""Linux-2.4-style kernel substrate: allocator, sk_buffs, sysctl, costs.

This package models the *software* half of the paper's data path: the
power-of-two sk_buff allocator whose block sizes explain the 8160-byte
MTU result, truesize-based socket-buffer accounting, the SMP/UP kernel
distinction, and syscall and copy costs.
"""

from repro.oskernel.allocator import BuddyAllocator, block_size_for, block_order
from repro.oskernel.skbuff import SkBuff
from repro.oskernel.sysctl import SysctlTable
from repro.oskernel.kernelcfg import KernelConfig
from repro.oskernel.copyengine import CopyEngine

__all__ = [
    "BuddyAllocator",
    "block_size_for",
    "block_order",
    "SkBuff",
    "SysctlTable",
    "KernelConfig",
    "CopyEngine",
]
