"""Golden digests of the shortcut tiers' formulas, pinned to the float bit.

The model states some costs twice: once in the DES components (the
PCI-X bus, the memory-hub link) and once in the closed forms that
price a segment without running the engine
(:func:`~repro.tcp.analytic.predict_throughput_bps`,
:meth:`~repro.analysis.stackprofile.StackProfiler.profile`), and it
iterates one fluid loop under two window laws (Reno and FAST) for one
flow or several.  Each
scenario below hashes the exact ``repr`` of every float it reports, so
moving a formula to one shared definition must leave every digest
as it is:

* ``fluid_*``: single-bottleneck fluid runs, Reno and FAST, with a
  forced loss, a window cap, a warm-up, drop-tail losses and a warm-up
  longer than the run;
* ``fluid_multi_*``: N flows sharing the bottleneck: the ``wan``
  experiment's 8-stream run, three flows inside the start stagger,
  16 flows (a second row of rate lanes in the aggregate sum), and
  eight flows whose drop-tail losses make the aggregate's summation
  order show in the mean;
* ``predict``: the closed-form throughput model over the ``validation``
  configurations at three payloads each;
* ``predict_wide``: the same model on the PE2650, PE4600 and E7505
  at payloads from one byte to a 64 KiB write, none of them bound by
  the sender CPU;
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
from repro.core.wanrecord import WanRecordRun
from repro.hw.csa import MchLink
from repro.hw.pcix import PciXBus
from repro.hw.presets import INTEL_E7505, PE2650, PE4600
from repro.sim import Environment
from repro.tcp.analytic import (bandwidth_delay_product,
                                predict_throughput_bps)
from repro.tcp.fluid import FluidParams, simulate_fluid
from repro.tcp.mss import mss_for_mtu
from repro.tcp.window import window_from_space
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

#: What a single-flow run reports (a projection, so a result type that
#: carries more keeps these digests).
SINGLE_FIELDS = ("time_s", "window_segments", "queue_packets",
                 "throughput_bps", "losses", "mean_throughput_bps")


def _multi_view(time_s, windows, aggregate_bps, losses, mean_bps, fairness):
    return {"time_s": time_s, "windows": windows,
            "aggregate_bps": aggregate_bps, "losses": losses,
            "mean_aggregate_bps": mean_bps, "fairness": fairness}


try:
    # the multi-flow digests were first recorded on a tree where N flows
    # ran in a function of their own; this lets the file run there
    from repro.tcp.fluid import simulate_fluid_multiflow

    def simulate_multi(params, n_flows, duration_s, **kw):
        r = simulate_fluid_multiflow(params, n_flows, duration_s, **kw)
        return _multi_view(r.time_s, r.windows_segments,
                           r.aggregate_throughput_bps, r.losses,
                           r.mean_aggregate_bps, r.fairness)
except ImportError:
    def simulate_multi(params, n_flows, duration_s, **kw):
        r = simulate_fluid(params, duration_s, n_flows=n_flows, **kw)
        return _multi_view(r.time_s, r.window_segments, r.throughput_bps,
                           r.losses, r.mean_throughput_bps, r.fairness)


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


def _single(result):
    return {name: getattr(result, name) for name in SINGLE_FIELDS}


def reno(params, duration_s, **kw):
    return _single(simulate_fluid(params, duration_s, **kw))


def fast(params, duration_s, alpha=200.0, gamma=0.5, **kw):
    return _single(simulate_fast(
        params, duration_s, fast=FastParams(alpha_packets=alpha, gamma=gamma),
        **kw))


def wan_streams():
    """The ``wan`` experiment's quick 8-stream run: an eighth of the
    tuned buffer per flow on the record path."""
    run = WanRecordRun()
    buf = max(4096, run.bdp_buffer_bytes() // 8)
    params = FluidParams(bottleneck_bps=run.bottleneck_goodput_bps,
                         base_rtt_s=run.rtt_s, mss=run.mss,
                         max_window_bytes=window_from_space(buf),
                         queue_packets=run.queue_frames)
    return simulate_multi(params, 8, 300.0, warmup_s=30.0)


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


def predict_wide():
    """The throughput model on three hosts at payloads from one byte to
    a multi-segment write; no input binds on the sender CPU."""
    out = []
    for spec in (PE2650, PE4600, INTEL_E7505):
        for config in VALIDATION_CONFIGS:
            mss = mss_for_mtu(config.mtu, config.tcp_timestamps)
            out.append([predict_throughput_bps(spec, config, payload)
                        for payload in (1, 1024, mss, 3 * mss + 100,
                                        65536)])
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
    "fluid_multi_wan_streams": wan_streams,
    "fluid_multi_stagger": lambda: simulate_multi(_wan(1.0), 3, 1.2),
    "fluid_multi_16": lambda: simulate_multi(_wan(0.25, queue=128), 16,
                                             120.0, warmup_s=20.0),
    "fluid_multi_droptail": lambda: simulate_multi(
        _wan(2.0, queue=32), 8, 200.0, warmup_s=30.0),
    "predict": predict,
    "predict_wide": predict_wide,
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
    'fluid_multi_16':
        '694b0af0811b3d5660e56d1c1667f07173a6715c3887f006e44e82887c2f3938',
    'fluid_multi_droptail':
        '7e30dc2bc6beb75c0aa7b68c7f67eacd1af08ad9abbfbcd7fafb9379f27e2114',
    'fluid_multi_stagger':
        'e318bf506c889e2c64f9b5d60e4185987c3a9982c3db3e3327ac1093a3632e83',
    'fluid_multi_wan_streams':
        'ad7cf9e40c4e9f864e6233cf5e4925b8acfbccd0f90ebe93bf9daaaf370e7f06',
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
    'predict_wide':
        '77cd5b0cacefc7209e90f6ffb2487ca2c37fecf6e164ec1455fabddfd171f841',
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
