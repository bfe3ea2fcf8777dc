"""Golden digests of the shortcut tiers' formulas, pinned to the float bit.

The model states some costs twice: once in the DES components (the
PCI-X bus, the memory-hub link) and once in the closed forms that
price a segment without running the engine
(:func:`~repro.tcp.analytic.predict_throughput_bps`,
:meth:`~repro.analysis.stackprofile.StackProfiler.profile`), and it
iterates one fluid loop under two window laws (Reno and FAST).  Each
scenario below hashes the exact ``repr`` of every float it reports, so
moving a formula to one shared definition must leave every digest
as it is:

* ``fluid_*``: single-bottleneck fluid runs, Reno and FAST, with a
  forced loss, a window cap, a warm-up, drop-tail losses and a warm-up
  longer than the run;
* ``predict``: the fluid throughput model over the ``validation``
  configurations at three payloads each;
* ``profile``: the per-stage breakdown of the ``stackprofile``
  configurations (all but the OS-bypass row, which
  ``tests/analysis/test_stackprofile.py`` checks by its sums) plus one
  CSA configuration, the profiler's memory-hub branch;
* ``pcix_hold`` / ``mch_hold``: the bus and hub transfer times over an
  ``(nbytes, MMRBC)`` grid.

After an intended output change, rerecord::

    PYTHONPATH=src python -m tests.golden.test_model_formulas
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.analysis.stackprofile import StackProfiler
from repro.config import VALID_MMRBC, TuningConfig
from repro.hw.csa import MchLink
from repro.hw.pcix import PciXBus
from repro.hw.presets import PE2650
from repro.sim import Environment
from repro.tcp.analytic import (bandwidth_delay_product,
                                predict_throughput_bps)
from repro.tcp.fluid import FluidParams, simulate_fluid
from repro.tcp.mss import mss_for_mtu
from repro.units import Gbps

try:
    from repro.tcp.fluid import FastParams

    def simulate_fast(params, duration_s, fast, **kw):
        return simulate_fluid(params, duration_s, fast=fast, **kw)
except ImportError:
    # the digests below were first recorded on a tree where FAST ran in
    # a function of its own; this lets the file run there unchanged
    from repro.tcp.fast import FastParams
    from repro.tcp.fast import simulate_fluid_fast as simulate_fast


def _canon(value):
    """JSON-ready copy with every float replaced by its exact repr."""
    if isinstance(value, np.ndarray):
        return _canon(value.tolist())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _canon(dataclasses.asdict(value))
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


def digest(value):
    """sha256 over the exact float reprs of ``value``."""
    blob = json.dumps(_canon(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# -- fluid loops -------------------------------------------------------------

def _wan(window_bdps=4.0, queue=1024, **kw):
    """The Sunnyvale-Geneva record path: 2.38 Gb/s, 180 ms."""
    bdp = bandwidth_delay_product(Gbps(2.38), 0.18)
    return FluidParams(bottleneck_bps=Gbps(2.38), base_rtt_s=0.18, mss=8948,
                       max_window_bytes=window_bdps * bdp,
                       queue_packets=queue, **kw)


def reno(params, duration_s, **kw):
    return simulate_fluid(params, duration_s, **kw)


def fast(params, duration_s, alpha=200.0, gamma=0.5, **kw):
    return simulate_fast(params, duration_s,
                         fast=FastParams(alpha_packets=alpha, gamma=gamma),
                         **kw)


# -- closed forms ------------------------------------------------------------

VALIDATION_CONFIGS = (
    TuningConfig.stock(1500),
    TuningConfig.stock(9000),
    TuningConfig.with_pcix_burst(9000),
    TuningConfig.oversized_windows(9000),
    TuningConfig.fully_tuned(8160),
)


def predict():
    out = []
    for config in VALIDATION_CONFIGS:
        mss = mss_for_mtu(config.mtu, config.tcp_timestamps)
        out.append([predict_throughput_bps(PE2650, config, payload)
                    for payload in (mss, 4096, 3 * mss + 100)])
    return out


PROFILE_CONFIGS = (
    TuningConfig.stock(1500),
    TuningConfig.stock(9000),
    TuningConfig.fully_tuned(9000),
    TuningConfig.fully_tuned(8160),
    TuningConfig.with_header_splitting(8160),
    TuningConfig.fully_tuned(8160).replace(csa=True),
)


def profile():
    profiler = StackProfiler()
    return [profiler.profile(config) for config in PROFILE_CONFIGS]


NBYTES = (1, 64, 511, 512, 513, 1518, 4096, 8192, 9018, 16018, 65536)


def pcix_hold():
    env = Environment()
    buses = [PciXBus(env, 133, PE2650.pcix_burst_overhead_s),
             PciXBus(env, 100, PE2650.pcix_burst_overhead_s),
             PciXBus(env, 66, burst_overhead_s=450e-9)]
    return [[bus.transfer_time(n, m) for n in NBYTES for m in VALID_MMRBC]
            for bus in buses]


def mch_hold():
    link = MchLink(Environment())
    return [link.transfer_time(n, m) for n in NBYTES for m in VALID_MMRBC]


SCENARIOS = {
    "fluid_reno_capped": lambda: reno(_wan(0.9), 120.0, warmup_s=30.0),
    "fluid_reno_forced_loss": lambda: reno(
        _wan(1.0), 150.0, warmup_s=20.0, force_loss_at_s=60.0),
    "fluid_reno_droptail": lambda: reno(_wan(4.0, queue=200), 200.0,
                                        warmup_s=40.0),
    "fluid_reno_ssthresh": lambda: reno(
        _wan(2.0, initial_window_segments=10.0, ssthresh_segments=300.0),
        90.0, warmup_s=500.0),
    "fluid_fast_droptail": lambda: fast(_wan(4.0, queue=150), 200.0,
                                        warmup_s=40.0),
    "fluid_fast_capped": lambda: fast(_wan(0.9), 120.0, alpha=50.0,
                                      gamma=0.2, warmup_s=30.0),
    "fluid_fast_forced_loss": lambda: fast(
        _wan(4.0), 150.0, alpha=100.0, warmup_s=20.0, force_loss_at_s=60.0),
    "predict": predict,
    "profile": profile,
    "pcix_hold": pcix_hold,
    "mch_hold": mch_hold,
}

GOLDEN = {
    'fluid_fast_capped':
        'e1e42706b43b083cf3d046d91c824397078892241139bd6eef1435dfee6e94af',
    'fluid_fast_droptail':
        'a8a4bf95e33d5f7c3d5ea6d4e37a6bfedf2c9af9d1664fce322e65b709ab080c',
    'fluid_fast_forced_loss':
        '61ccaa2d00875a57c4538275028e052574ba36645dd826d900bb5f233884fd4f',
    'fluid_reno_capped':
        '97372e84a7be5a5f3adcb58b5234cdee49894dc4f139fdd8f4e42572d7d22f23',
    'fluid_reno_droptail':
        '7d2288ba5b9d71c4e31a56ba6def42ee717d15ee4728b64170a3eeadf376a2da',
    'fluid_reno_forced_loss':
        'bfd31a8b9782b7b50d79f02c9cc9e94e87f0bc820d3722ce4f5d73ba93624635',
    'fluid_reno_ssthresh':
        '3cbeeb092bcfc2fd24e3f592ab58b56f1978e7dbc77037e79e793af57e477080',
    'mch_hold':
        'e55acace56ab2e90b06f7f117d356faec1e93d44e547f60e2c8cbc59c8718c13',
    'pcix_hold':
        '029f47948cbc7fb2c2432369cfd2d60233c610ef42801cd5c9ab1e9c8bb6ac30',
    'predict':
        '7ee9556a16aec85d30a68f9a1d2657c015b80870769ea4af83de757a72cf65b9',
    'profile':
        'e1f3f57c374924a135b056e28df29bec6f79a50d9569877ff6225e376d88ed85',
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_digest(name):
    assert digest(SCENARIOS[name]()) == GOLDEN[name]


def _record():
    for name in sorted(SCENARIOS):
        print(f"    {name!r}:\n        {digest(SCENARIOS[name]())!r},")


if __name__ == "__main__":
    _record()
