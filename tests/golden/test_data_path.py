"""Golden digests of the segment-train data path at the transfer level.

Three tables of :func:`tests.support.value_digest` pins, each over a
short nttcp transfer on a back-to-back pair:

* ``TRANSFER``: ``(result, env.now)`` over MTU x segment count, the
  grid where a train's length, the last partial train and the window
  limit all vary.
* ``LOSS``: the transfer through a :class:`~repro.chaos.LossTap` that
  drops frames out of in-flight trains, so a train is split and the
  sender recovers by retransmission.
* ``CHAOS``: the transfer under a seeded loss-burst plus ACK-reorder
  plan, with the injector's per-fault summary rows.

Every value was recorded on the per-segment path and the train path
alike and agreed bit for bit, so the pins hold the per-frame semantics
the train path has to keep.  After an intended output change,
rerecord::

    PYTHONPATH=src python -m tests.golden.test_data_path
"""

import pytest

from repro.chaos import FaultPlan, FaultSpec, LossTap, chaos_session
from repro.config import TuningConfig
from repro.net.topology import BackToBack
from repro.sim import Environment
from repro.tcp.connection import TcpConnection
from repro.tools.nttcp import nttcp_run
from tests.support import value_digest


def _transfer(mtu, count, setup=None):
    env = Environment()
    bb = BackToBack.create(env, TuningConfig.oversized_windows(mtu))
    conn = TcpConnection(env, bb.a, bb.b)
    extra = setup(env, bb) if setup else None
    result = nttcp_run(env, conn, payload=conn.sender.mss, count=count)
    return env, result, extra


def transfer(mtu, count):
    env, result, _ = _transfer(mtu, count)
    return result, env.now


def lossy(drops):
    env, result, tap = _transfer(
        9000, 24, lambda env, bb: LossTap(env, bb.links[0], set(drops)))
    return result, env.now, sorted(tap.drops), len(tap.dropped)


def chaotic(seed, probability, start_s):
    plan = FaultPlan(name="prop", seed=seed, faults=(
        FaultSpec(kind="loss_burst", target="link:xover.fwd",
                  start_s=start_s, duration_s=1e-4,
                  probability=probability),
        FaultSpec(kind="reorder_window", target="link:xover.rev",
                  start_s=start_s, duration_s=5e-5, delay_s=4e-5,
                  probability=0.5, kinds=("ack",)),
    ))
    with chaos_session(plan) as session:
        env, result, _ = _transfer(9000, 16)
        rows = tuple(
            (row["kind"], tuple(row["matched"]), row["fired"],
             row["recovered"], row["frames"], row["drops"],
             row["holds"], row["dups"], row["corrupts"])
            for row in session.injector_for(env).summary())
    return result, env.now, rows


TRANSFER = {
    (1500, 4):
        "51b1f183ff1dc30f182c6d74db561ff50f4f9726bf98dd6f2c246de42723407b",
    (1500, 17):
        "ef6c299b7d17ebb9e77f19de4522bf3f9ce7df9c1e7cd67b9fbfca007359dfaa",
    (1500, 48):
        "6c3a93972bac497fc2adb71571327ce14011a12d63502b4ef767627c3acf4476",
    (8160, 4):
        "61b897e81232e027458ff3704d94e5160ba9b57d5a91d6bb524a308414cd06af",
    (8160, 17):
        "ce4e09747d4abb5ded38b91f2927b8c680d88f4802180c5b8f2bc656e9498ae0",
    (8160, 48):
        "c0b05dc1850dd50e3d48aa9498b2e312220471936990d477fb0ba1b34ec1550d",
    (9000, 4):
        "761b336f9330a55e1c818507a23776d6002cad0d43d8a546fea21e9147c708d0",
    (9000, 17):
        "17ff9d39af0eb1a70344493858c598aeab9a72ea40cbb8a9ce8460c1a95dbc18",
    (9000, 48):
        "d25cafda9405c591daac68a55d3b10f4f6e3ab0395a523b11764b0b2979424d5",
    (16000, 4):
        "5ba3150b21b548a2dc58891e215392ee9dc11fdb89fdae679e859c3561fee9d1",
    (16000, 17):
        "f7aa5573e8c1edda5154de655ad08cca3a9a052eb3bd695807fc0d5f6049e55a",
    (16000, 48):
        "beb1b4782e0db9e601acc16da44214efbc79a8f61e18a172682e259e7600fe56",
}

LOSS = {
    ():
        "51f021daf32259c8179346ccf768d297d9dda5e912e68b40c0e4a60a59f03388",
    (0,):
        "44ff21644956de2b5ebb97c6f1069e6617ccda8c1a7d1bb8e56f4729c0133b86",
    (2, 5):
        "2de74915142ef84c617d10969702c26e17ede0ca3388fa2cfff6643097a2227a",
    (1, 2, 3, 11):
        "476d02f1f9542d3114b9c0524d279147614757cfb7ca759b98699831e5b4e5d5",
}

CHAOS = {
    (0, 0.25, 0.0):
        "540d6824b42947c892a840a8eac800067de98c01c25510849649fc6367b4eedf",
    (1, 0.5, 2.5e-05):
        "908a0665cc6eed66b10584e68b2a6c420e0c52106b54f00f89ad2cfade2d3fcc",
    (7, 1.0, 5e-05):
        "47f8dd0b2f7b61967d9b321b39df2cc322516ab265b11f71b2e91cb78fb79bee",
    (12345, 0.5, 0.0001):
        "733ccfdbbd0ced33af3e2cb5aab1a66310f194f8ca7d180f7972c92e5c4a9c9f",
    (4294967295, 1.0, 0.00015):
        "bfcf0c242f85ac59590e53bbe9ec3809f9183728ef3cf166bddfeb2c85183ed6",
    (987654321, 0.25, 0.0002):
        "3030ef40433b1757ce212dd3019bf2cb4c86c0fec7ee4682ed98d0f79650c767",
}


@pytest.mark.parametrize("mtu,count", sorted(TRANSFER))
def test_transfer_matches_golden(mtu, count):
    assert value_digest(transfer(mtu, count)) == TRANSFER[mtu, count]


@pytest.mark.parametrize("drops", sorted(LOSS))
def test_loss_recovery_matches_golden(drops):
    assert value_digest(lossy(drops)) == LOSS[drops]


@pytest.mark.parametrize("plan", sorted(CHAOS))
def test_chaos_plan_matches_golden(plan):
    assert value_digest(chaotic(*plan)) == CHAOS[plan]


def _record():
    """Print the three tables afresh for their committed keys."""
    for name, table, run in (("TRANSFER", TRANSFER, lambda k: transfer(*k)),
                             ("LOSS", LOSS, lossy),
                             ("CHAOS", CHAOS, lambda k: chaotic(*k))):
        print(f"{name} = {{")
        for key in table:
            print(f'    {key!r}:\n        "{value_digest(run(key))}",')
        print("}\n")


if __name__ == "__main__":
    _record()
