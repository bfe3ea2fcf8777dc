"""Linux-2.4-style kernel substrate: allocator, sk_buffs, sysctl, costs.

This package models the *software* half of the paper's data path: the
power-of-two sk_buff allocator whose block sizes explain the 8160-byte
MTU result, truesize-based socket-buffer accounting, the SMP/UP kernel
distinction, and syscall and copy costs.
"""
