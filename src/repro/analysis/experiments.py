"""The experiment registry: every table and figure, one callable each.

``run_experiment("fig3")`` regenerates the data behind Figure 3 and
returns an :class:`ExperimentOutput` whose ``text`` is a printable
report and whose ``data`` carries the raw values for assertions.
The golden run (``tests/golden``) and the CLI (``python -m repro``)
both drive this registry, so the mapping "paper artifact -> code"
lives in exactly one place (mirroring the per-experiment index in
DESIGN.md).

Runners accept a ``quick`` flag: True (default) uses scaled-down sweep
resolution suitable for CI; False approaches paper-scale averaging.

``run_experiment`` additionally threads two performance knobs through
every runner:

* ``jobs`` — worker processes for the independent simulation points
  inside an experiment (sweep payloads, MTUs, buffer factors, probes).
  Points dispatch through the persistent warm worker pool
  (:mod:`repro.sim.pool`), so consecutive experiments reuse the same
  worker processes instead of re-spawning a pool per sweep.  Results
  are bit-identical at any job count.
* ``cache`` — the on-disk result cache (see :mod:`repro.cache`): both
  individual points and whole experiment outputs are memoized keyed by
  configuration + code fingerprint, so warm reruns are near-instant —
  a fully-warm experiment never touches the worker pool at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.cache import active_cache, cache_context, code_fingerprint
from repro.config import TuningConfig
from repro.errors import MeasurementError
from repro.sim.pool import job_context, sweep
from repro.telemetry.session import active_session
from repro.units import Gbps

__all__ = ["ExperimentOutput", "EXPERIMENTS", "run_experiment",
           "experiment_ids"]


@dataclass
class ExperimentOutput:
    """Result of one experiment regeneration."""

    experiment: str
    text: str
    data: Dict[str, Any]


_RUNNERS: Dict[str, Callable[[bool], ExperimentOutput]] = {}
EXPERIMENTS = _RUNNERS  # public alias


def _register(name: str):
    def wrap(fn):
        _RUNNERS[name] = fn
        return fn
    return wrap


def experiment_ids() -> List[str]:
    """All registered experiment ids."""
    return sorted(_RUNNERS)


def run_experiment(name: str, quick: bool = True,
                   jobs: Optional[int] = None,
                   cache: Any = None) -> ExperimentOutput:
    """Regenerate one paper artifact by id (see DESIGN.md index).

    ``jobs`` fans the experiment's independent simulation points out
    over that many worker processes (None: ``REPRO_JOBS`` or serial);
    the returned ``data`` is bit-identical at any job count.  ``cache``
    activates the on-disk result cache for this call: True for the
    default ``.repro-cache/``, False to force recomputation, a
    :class:`repro.cache.ResultCache` to use a specific store, or None
    to inherit the ambient setting (``REPRO_CACHE`` / an enclosing
    :func:`repro.cache.cache_context`).
    """
    try:
        runner = _RUNNERS[name]
    except KeyError:
        raise MeasurementError(
            f"unknown experiment {name!r}; known: {experiment_ids()}"
        ) from None
    with job_context(jobs), cache_context(cache):
        store = active_cache()
        if active_session() is not None:
            # A telemetry session wants metrics/events from the actual
            # run; whole-output (and per-point) memoization would skip
            # the simulations that produce them.
            store = None
        if store is not None:
            # Whole-output memoization on top of per-point caching: a
            # warm rerun skips even the reporting/analysis layer.  The
            # job count is deliberately not part of the key — parallel
            # and serial runs produce identical outputs.
            key = store.key("experiment-output", name, bool(quick),
                            code_fingerprint())
            hit, value = store.get(key)
            if hit:
                return value
        output = runner(quick)
        if store is not None:
            store.put(key, output)
        return output


# ---------------------------------------------------------------------------
# Figures 3-5: the throughput ladder
# ---------------------------------------------------------------------------

def _sweep_settings(quick: bool):
    return {"write_count": 768 if quick else 4096,
            "points": 10 if quick else 24}


@_register("fig3")
def _fig3(quick: bool = True) -> ExperimentOutput:
    """Fig. 3: stock TCP, 1500 vs 9000 MTU (+ the §3.3 CPU loads)."""
    from repro.analysis.figures import Figure, Series
    from repro.analysis.tables import format_kv
    from repro.core.casestudy import CaseStudy

    study = CaseStudy(**_sweep_settings(quick))
    curves = {mtu: study.sweep(TuningConfig.stock(mtu))
              for mtu in (1500, 9000)}
    fig = Figure(title="Figure 3: Throughput of Stock TCP",
                 xlabel="payload (bytes)", ylabel="Gb/s")
    for mtu, curve in curves.items():
        fig.add(Series(label=f"{mtu}MTU,SMP,512PCI",
                       x=curve.payloads, y=curve.goodputs_gbps))
    summary = {
        "peak_1500_gbps (paper 1.8)": curves[1500].peak_gbps,
        "peak_9000_gbps (paper 2.7)": curves[9000].peak_gbps,
        "load_1500 (paper ~0.9)": curves[1500].mean_receiver_load,
        "load_9000 (paper ~0.4)": curves[9000].mean_receiver_load,
        "dip_9000 in [7436,8948] (paper: marked dip)":
            curves[9000].dip(7436, 8948),
    }
    return ExperimentOutput(
        experiment="fig3",
        text=fig.render() + "\n\n" + format_kv(summary, "Fig. 3 summary"),
        data={"curves": curves, "summary": summary})


@_register("opt_steps")
def _opt_steps(quick: bool = True) -> ExperimentOutput:
    """§3.3 ladder: per-step peaks vs the paper's."""
    from repro.analysis.tables import format_table
    from repro.core.casestudy import CaseStudy

    study = CaseStudy(**_sweep_settings(quick))
    results = study.run_ladder(mtus=(1500, 9000))
    rows = []
    for step_result in results:
        for mtu, curve in step_result.curves.items():
            rows.append({
                "step": step_result.step.name,
                "mtu": mtu,
                "peak_gbps": curve.peak_gbps,
                "avg_gbps": curve.average_gbps,
                "paper_peak_gbps": step_result.paper_peak(mtu) or "-",
            })
    return ExperimentOutput(
        experiment="opt_steps",
        text=format_table(rows, title="§3.3 cumulative optimization ladder"),
        data={"results": results, "rows": rows})


@_register("fig4")
def _fig4(quick: bool = True) -> ExperimentOutput:
    """Fig. 4: oversized windows remove the stock dip."""
    from repro.analysis.figures import Figure, Series
    from repro.analysis.tables import format_kv
    from repro.core.casestudy import CaseStudy

    study = CaseStudy(**_sweep_settings(quick))
    curves = {mtu: study.sweep(TuningConfig.oversized_windows(mtu))
              for mtu in (1500, 9000)}
    stock = study.sweep(TuningConfig.stock(9000))
    fig = Figure(title="Figure 4: Oversized Windows + PCI-X Burst + UP",
                 xlabel="payload (bytes)", ylabel="Gb/s")
    for mtu, curve in curves.items():
        fig.add(Series(label=f"{mtu}MTU,UP,4096PCI,256kbuf",
                       x=curve.payloads, y=curve.goodputs_gbps))
    summary = {
        "peak_1500_gbps (paper 2.47)": curves[1500].peak_gbps,
        "peak_9000_gbps (paper 3.9)": curves[9000].peak_gbps,
        "dip_9000_stock": stock.dip(7436, 8948),
        "dip_9000_bigwin (paper: eliminated)": curves[9000].dip(7436, 8948),
    }
    return ExperimentOutput(
        experiment="fig4",
        text=fig.render() + "\n\n" + format_kv(summary, "Fig. 4 summary"),
        data={"curves": curves, "stock": stock, "summary": summary})


@_register("fig5")
def _fig5(quick: bool = True) -> ExperimentOutput:
    """Fig. 5: non-standard MTUs 8160 and 16000 (+ peer theoretical
    maxima for context)."""
    from repro.analysis.figures import Figure, Series
    from repro.analysis.tables import format_kv
    from repro.core.casestudy import CaseStudy

    study = CaseStudy(**_sweep_settings(quick))
    curves = study.run_mtu_tuning(mtus=(8160, 16000))
    fig = Figure(title="Figure 5: Non-Standard MTUs (cumulative opts)",
                 xlabel="payload (bytes)", ylabel="Gb/s")
    for mtu, curve in curves.items():
        fig.add(Series(label=f"{mtu}MTU,UP,4096PCI,256kbuf",
                       x=curve.payloads, y=curve.goodputs_gbps))
    summary = {
        "peak_8160_gbps (paper 4.11)": curves[8160].peak_gbps,
        "peak_16000_gbps (paper 4.09)": curves[16000].peak_gbps,
        "avg_16000_minus_avg_8160 (paper: clearly higher)":
            curves[16000].average_gbps - curves[8160].average_gbps,
        "GbE theoretical (Gb/s)": 1.0,
        "Myrinet theoretical (Gb/s)": 2.0,
        "Quadrics theoretical (Gb/s)": 3.2,
    }
    return ExperimentOutput(
        experiment="fig5",
        text=fig.render() + "\n\n" + format_kv(summary, "Fig. 5 summary"),
        data={"curves": curves, "summary": summary})


# ---------------------------------------------------------------------------
# Figures 6-7: latency
# ---------------------------------------------------------------------------

@_register("fig6")
def _fig6(quick: bool = True) -> ExperimentOutput:
    """Fig. 6: latency vs payload with 5 µs interrupt coalescing."""
    from repro.analysis.figures import Figure, Series
    from repro.analysis.tables import format_kv
    from repro.core.latencyreport import DEFAULT_LATENCY_PAYLOADS, LatencyStudy

    payloads = DEFAULT_LATENCY_PAYLOADS[::4] if quick else DEFAULT_LATENCY_PAYLOADS
    study = LatencyStudy(iterations=4 if quick else 10)
    b2b = study.measure(5.0, False, payloads)
    sw = study.measure(5.0, True, payloads)
    fig = Figure(title="Figure 6: End-to-End Latency (coalescing on)",
                 xlabel="payload (bytes)", ylabel="latency (us)")
    fig.add(Series("back-to-back", b2b.payloads, b2b.latencies_us))
    fig.add(Series("through switch", sw.payloads, sw.latencies_us))
    summary = {
        "base_b2b_us (paper 19)": b2b.base_latency_us,
        "base_switch_us (paper 25)": sw.base_latency_us,
        "growth_b2b (paper ~0.2)": b2b.growth_fraction,
    }
    return ExperimentOutput(
        experiment="fig6",
        text=fig.render() + "\n\n" + format_kv(summary, "Fig. 6 summary"),
        data={"b2b": b2b, "switch": sw, "summary": summary})


@_register("fig7")
def _fig7(quick: bool = True) -> ExperimentOutput:
    """Fig. 7: latency without interrupt coalescing."""
    from repro.analysis.figures import Figure, Series
    from repro.analysis.tables import format_kv
    from repro.core.latencyreport import DEFAULT_LATENCY_PAYLOADS, LatencyStudy

    payloads = DEFAULT_LATENCY_PAYLOADS[::4] if quick else DEFAULT_LATENCY_PAYLOADS
    study = LatencyStudy(iterations=4 if quick else 10)
    off = study.measure(0.0, False, payloads)
    on = study.measure(5.0, False, payloads)
    fig = Figure(title="Figure 7: Latency without Interrupt Coalescing",
                 xlabel="payload (bytes)", ylabel="latency (us)")
    fig.add(Series("coalescing off", off.payloads, off.latencies_us))
    fig.add(Series("coalescing 5us", on.payloads, on.latencies_us))
    summary = {
        "base_off_us (paper 14)": off.base_latency_us,
        "saved_us (paper ~5)": on.base_latency_us - off.base_latency_us,
    }
    return ExperimentOutput(
        experiment="fig7",
        text=fig.render() + "\n\n" + format_kv(summary, "Fig. 7 summary"),
        data={"off": off, "on": on, "summary": summary})


# ---------------------------------------------------------------------------
# Fig. 8 + §3.5.1 window arithmetic
# ---------------------------------------------------------------------------

@_register("fig8")
def _fig8(quick: bool = True) -> ExperimentOutput:
    """Fig. 8 + the §3.5.1 worked example: MSS-aligned window losses."""
    from repro.analysis.tables import format_kv
    from repro.tcp.analytic import (mss_aligned_window,
                                    sender_receiver_mismatch,
                                    window_efficiency)

    ideal = 26 * 1024
    mss = 8960
    aligned = mss_aligned_window(ideal, mss)
    mismatch = sender_receiver_mismatch()
    summary = {
        "ideal_window_bytes": ideal,
        "mss": mss,
        "mss_allowed_window (paper ~18KB)": aligned,
        "efficiency (paper ~0.69)": window_efficiency(ideal, mss),
        "example_advertised (paper 26844)": mismatch.advertised_window,
        "example_usable (paper 17920)": mismatch.usable_window,
        "example_usable_loss (paper ~0.5)": mismatch.usable_loss,
    }
    return ExperimentOutput(
        experiment="fig8",
        text=format_kv(summary, "Figure 8 / §3.5.1 window arithmetic"),
        data={"summary": summary, "mismatch": mismatch})


# ---------------------------------------------------------------------------
# Table 1: AIMD recovery times
# ---------------------------------------------------------------------------

def _tab1_row(task: tuple) -> Dict[str, Any]:
    """One Table 1 case (module-level for the parallel runner)."""
    from repro.tcp.analytic import recovery_time_s

    path, bw, rtt, mss = task
    t = recovery_time_s(bw, rtt, mss)
    return {
        "path": path,
        "bandwidth_gbps": bw / 1e9,
        "rtt_ms": rtt * 1e3,
        "mss_bytes": mss,
        "recovery": _fmt_duration(t),
        "recovery_s": t,
    }


@_register("tab1")
def _tab1(quick: bool = True) -> ExperimentOutput:
    """Table 1: time to recover from a single packet loss."""
    from repro.analysis.tables import format_table

    cases = [
        ("LAN", Gbps(10), 0.0002, 1460),
        ("LAN", Gbps(10), 0.0002, 8960),
        ("Geneva-Chicago", Gbps(10), 0.120, 1460),
        ("Geneva-Chicago", Gbps(10), 0.120, 8960),
        ("Geneva-Sunnyvale", Gbps(10), 0.180, 1460),
        ("Geneva-Sunnyvale", Gbps(10), 0.180, 8960),
    ]
    rows = sweep(_tab1_row, cases, cache_ns="tab1-row")
    return ExperimentOutput(
        experiment="tab1",
        text=format_table(rows, title="Table 1: single-loss recovery time "
                          "(paper: Geneva-Chicago/1460 = 1 hr 42 min, "
                          "Geneva-Sunnyvale/1460 = 3 hr 51 min)"),
        data={"rows": rows})


def _fmt_duration(t: float) -> str:
    if t < 1.0:
        return f"{t * 1e3:.1f} ms"
    if t < 60.0:
        return f"{t:.1f} s"
    if t < 3600.0:
        return f"{int(t // 60)} min {int(t % 60)} s"
    return f"{int(t // 3600)} hr {int((t % 3600) // 60)} min"


# ---------------------------------------------------------------------------
# §3.5.2 bottleneck decomposition
# ---------------------------------------------------------------------------

def _multiflow_probe(task: tuple):
    """One §3.5.2 probe (module-level for the parallel runner)."""
    from repro.core.bottleneck import BottleneckStudy

    n_clients, duration_s, probe = task
    study = BottleneckStudy(n_clients=n_clients, duration_s=duration_s)
    return getattr(study, probe)()


@_register("multiflow")
def _multiflow(quick: bool = True) -> ExperimentOutput:
    """§3.5.2: RX/TX symmetry and the dual-adapter test."""
    from repro.analysis.tables import format_kv

    n_clients = 4 if quick else 8
    duration_s = 0.01 if quick else 0.04
    rx, tx, dual = sweep(
        _multiflow_probe,
        [(n_clients, duration_s, probe)
         for probe in ("receive_path", "transmit_path", "dual_adapters")],
        cache_ns="multiflow-probe")
    summary = {
        "rx_aggregate_gbps": rx.aggregate_gbps,
        "tx_aggregate_gbps": tx.aggregate_gbps,
        "asymmetry (paper: statistically equal)":
            abs(rx.aggregate_bps - tx.aggregate_bps) / rx.aggregate_bps,
        "dual_adapter_gbps (paper: identical to single)":
            dual.aggregate_gbps,
    }
    return ExperimentOutput(
        experiment="multiflow",
        text=format_kv(summary, "§3.5.2 multi-flow probes"),
        data={"rx": rx, "tx": tx, "dual": dual, "summary": summary})


@_register("pktgen")
def _pktgen(quick: bool = True) -> ExperimentOutput:
    """§3.5.2: the kernel packet generator ceiling."""
    from repro.analysis.tables import format_kv
    from repro.core.bottleneck import BottleneckStudy

    study = BottleneckStudy()
    result = study.pktgen_ceiling(packets=1024 if quick else 8192)
    single = study.single_flow()
    summary = {
        "pktgen_gbps (paper 5.5)": result.rate_gbps,
        "pktgen_pps (paper ~84k)": result.packets_per_sec,
        "tcp_single_flow_gbps (paper 4.11)": single / 1e9,
        "tcp_fraction_of_pktgen (paper ~0.75)": single / result.rate_bps,
    }
    return ExperimentOutput(
        experiment="pktgen",
        text=format_kv(summary, "§3.5.2 packet generator"),
        data={"pktgen": result, "single_flow_bps": single,
              "summary": summary})


@_register("stream")
def _stream(quick: bool = True) -> ExperimentOutput:
    """§3.5.2: STREAM memory bandwidth across platforms."""
    from repro.analysis.tables import format_table
    from repro.core.bottleneck import BottleneckStudy

    results = BottleneckStudy().stream_comparison()
    rows = [{"host": name, "stream_copy_gbps": r.copy_gbps,
             "theoretical_gbps": r.theoretical_bps / 1e9}
            for name, r in results.items()]
    return ExperimentOutput(
        experiment="stream",
        text=format_table(rows, title="STREAM copy bandwidth "
                          "(paper: PE4600 = 12.8 Gb/s, ~50% above PE2650; "
                          "E7505 within a few % of PE2650)"),
        data={"results": results, "rows": rows})


# ---------------------------------------------------------------------------
# §3.4 anecdotal systems
# ---------------------------------------------------------------------------

@_register("anecdotal")
def _anecdotal(quick: bool = True) -> ExperimentOutput:
    """§3.4: E7505 out-of-box; Itanium-II aggregated flows."""
    from repro.analysis.tables import format_kv
    from repro.core.casestudy import CaseStudy
    from repro.hw.presets import INTEL_E7505, ITANIUM2
    from repro.net.topology import MultiFlow
    from repro.sim.engine import Environment
    from repro.tcp.connection import TcpConnection, steady_goodput_bps

    # E7505: as shipped by Intel for evaluation — MMRBC already raised,
    # jumbo frames and generous socket buffers preconfigured; §3.4 notes
    # the 4.64 Gb/s additionally required timestamps off.
    from repro.units import KB
    e_cfg = TuningConfig(mtu=9000, mmrbc=4096, tcp_timestamps=False,
                         tcp_rmem=KB(256), tcp_wmem=KB(256))
    study = CaseStudy(spec=INTEL_E7505, write_count=768 if quick else 4096,
                      points=8 if quick else 16)
    e_curve = study.sweep(e_cfg, label="E7505 out-of-box")

    # Itanium-II: aggregate 10GbE clients through the switch.
    env = Environment()
    cfg = TuningConfig.oversized_windows(9000)
    topo = MultiFlow.create(env, cfg, n_clients=4 if quick else 8,
                            server_spec=ITANIUM2,
                            client_spec=INTEL_E7505,
                            client_rate_bps=Gbps(10))
    conns = [TcpConnection(env, c, topo.server) for c in topo.clients]
    horizon = 0.01 if quick else 0.04
    agg = sum(steady_goodput_bps(env, conns, 65536, warmup_s=horizon / 2,
                                 window_s=horizon))
    summary = {
        "e7505_peak_gbps (paper 4.64)": e_curve.peak_gbps,
        "itanium2_aggregate_gbps (paper 7.2)": agg / 1e9,
    }
    return ExperimentOutput(
        experiment="anecdotal",
        text=format_kv(summary, "§3.4 anecdotal systems"),
        data={"e7505": e_curve, "itanium_bps": agg, "summary": summary})


# ---------------------------------------------------------------------------
# §3.5.4 comparison and §4 WAN
# ---------------------------------------------------------------------------

def _mtu_scan_point(task: tuple) -> Dict[str, Any]:
    """One MTU point on a fresh tuned testbed (module-level for the
    parallel runner)."""
    from repro.net.topology import BackToBack
    from repro.oskernel.allocator import block_size_for
    from repro.sim.engine import Environment
    from repro.tcp.connection import TcpConnection
    from repro.tcp.mss import mss_for_mtu
    from repro.tools.nttcp import nttcp_run

    mtu, count = task
    cfg = TuningConfig.fully_tuned(mtu)
    payload = mss_for_mtu(mtu, cfg.tcp_timestamps)
    env = Environment()
    bb = BackToBack.create(env, cfg)
    conn = TcpConnection(env, bb.a, bb.b)
    result = nttcp_run(env, conn, payload, count)
    return {
        "mtu": mtu,
        "frame_block": block_size_for(mtu + 18),
        "goodput_gbps": round(result.goodput_gbps, 2),
        "rx_load": round(result.receiver_load, 2),
    }


@_register("mtu_scan")
def _mtu_scan(quick: bool = True) -> ExperimentOutput:
    """Peak goodput vs MTU across the adapter's range: the allocator's
    block boundaries carve the §3.3 sawtooth (8160 beats 9000; the next
    win sits just under the 16 KB + headers boundary)."""
    from repro.analysis.figures import Figure, Series
    from repro.analysis.tables import format_table

    mtus = (1500, 3000, 4050, 4500, 6000, 8160, 9000, 12000, 16000) \
        if quick else tuple(range(1500, 16001, 500)) + (8160, 16000)
    count = 512 if quick else 2048
    rows = sweep(
        _mtu_scan_point, [(mtu, count) for mtu in sorted(set(mtus))],
        cache_ns="mtu-scan")
    fig = Figure(title="Peak goodput vs MTU (fully tuned)",
                 xlabel="MTU (bytes)", ylabel="Gb/s")
    fig.add(Series("tuned", [r["mtu"] for r in rows],
                   [r["goodput_gbps"] for r in rows]))
    return ExperimentOutput(
        experiment="mtu_scan",
        text=fig.render() + "\n\n" + format_table(rows),
        data={"rows": rows})


@_register("fast_tcp")
def _fast_tcp(quick: bool = True) -> ExperimentOutput:
    """Beyond the paper: FAST TCP (the co-authors' follow-up) vs Reno
    on the record path — the fix for Table 1's recovery times."""
    from repro.analysis.tables import format_table
    from repro.tcp.analytic import bandwidth_delay_product
    from repro.tcp.fluid import FastParams, FluidParams, simulate_fluid

    bdp = bandwidth_delay_product(Gbps(2.38), 0.18)
    duration = 600.0 if quick else 1800.0
    rows = []
    for queue in (200, 400, 1024):
        p = FluidParams(bottleneck_bps=Gbps(2.38), base_rtt_s=0.18,
                        mss=8948, max_window_bytes=4 * bdp,
                        queue_packets=queue)
        reno = simulate_fluid(p, duration, warmup_s=duration / 5)
        # FAST's alpha (target standing queue) must fit the buffer
        fast = simulate_fluid(
            p, duration, warmup_s=duration / 5,
            fast=FastParams(alpha_packets=min(200.0, queue / 2.0)))
        rows.append({
            "bottleneck queue (pkts)": queue,
            "Reno Gb/s": round(reno.mean_throughput_bps / 1e9, 2),
            "Reno losses": reno.losses,
            "FAST Gb/s": round(fast.mean_throughput_bps / 1e9, 2),
            "FAST losses": fast.losses,
        })
    return ExperimentOutput(
        experiment="fast_tcp",
        text=format_table(rows, title="Reno vs FAST on the Sunnyvale-"
                          "Geneva path, uncapped 4xBDP windows"),
        data={"rows": rows})


@_register("validation")
def _validation(quick: bool = True) -> ExperimentOutput:
    """Cross-validation: analytic shortcuts vs the packet-level DES."""
    from repro.analysis.tables import format_kv, format_table
    from repro.analysis.validation import cross_validate

    report = cross_validate(count=256 if quick else 1024)
    text = (format_table(report.rows(),
                         title="Analytic model vs packet-level DES")
            + "\n\n"
            + format_kv({
                "mean relative error": report.mean_error(),
                "max relative error": report.max_error(),
                "rank agreement": report.rank_agreement(),
            }))
    return ExperimentOutput(experiment="validation", text=text,
                            data={"report": report})


@_register("stackprofile")
def _stackprofile(quick: bool = True) -> ExperimentOutput:
    """§5 follow-on: where the time goes, per segment, per config."""
    from repro.analysis.stackprofile import StackProfiler
    from repro.analysis.tables import format_table

    profiler = StackProfiler()
    configs = {
        "stock 1500": TuningConfig.stock(1500),
        "stock 9000": TuningConfig.stock(9000),
        "tuned 9000": TuningConfig.fully_tuned(9000),
        "tuned 8160": TuningConfig.fully_tuned(8160),
        "header split": TuningConfig.with_header_splitting(8160),
        "os bypass": TuningConfig.os_bypass_projection(9000),
    }
    summary = profiler.compare(configs)
    detail = profiler.profile(TuningConfig.fully_tuned(8160))
    text = (format_table(summary, title="Per-segment cost accounting "
                         "(the §5 'high-resolution picture')")
            + "\n\n"
            + format_table(detail.rows(),
                           title=f"Stage breakdown: {detail.config_label}"
                                 f" @ {detail.payload} B"))
    return ExperimentOutput(experiment="stackprofile", text=text,
                            data={"summary": summary, "detail": detail})


@_register("comparison")
def _comparison(quick: bool = True) -> ExperimentOutput:
    """§3.5.4: measured 10GbE vs published peers."""
    from repro.analysis.tables import format_table
    from repro.core.bottleneck import BottleneckStudy
    from repro.core.comparison import InterconnectComparison
    from repro.core.latencyreport import LatencyStudy

    single = BottleneckStudy().single_flow()
    latency = LatencyStudy(iterations=4).measure(
        5.0, False, payloads=(1,)).base_latency_us
    comp = InterconnectComparison(tengbe_bps=single,
                                  tengbe_latency_s=latency * 1e-6)
    rows = comp.rows()
    # measure our own GbE lane too (the published 0.99 Gb/s baseline)
    from repro.net.topology import BackToBack
    from repro.sim.engine import Environment
    from repro.tcp.connection import TcpConnection
    from repro.tools.nttcp import nttcp_run

    env = Environment()
    gbe = BackToBack.create(env, TuningConfig.oversized_windows(1500),
                            rate_bps=Gbps(1))
    gbe_conn = TcpConnection(env, gbe.a, gbe.b)
    gbe_bps = nttcp_run(env, gbe_conn, 1448,
                        512 if quick else 2048).goodput_bps
    header = (f"§3.5.4: 10GbE measured {single / 1e9:.2f} Gb/s,"
              f" {latency:.1f} us vs peers"
              f" (our simulated GbE lane: {gbe_bps / 1e9:.2f} Gb/s,"
              " published 0.99)")
    return ExperimentOutput(
        experiment="comparison",
        text=format_table(rows, title=header),
        data={"comparison": comp, "rows": rows, "gbe_bps": gbe_bps,
              "tengbe_bps": single, "latency_us": latency})


# ---------------------------------------------------------------------------
# Fabric-scale scenarios: incast / all-to-all / bisection sweeps
# ---------------------------------------------------------------------------

#: flow-count sweeps for the fabric experiments (quick vs paper-scale)
_FABRIC_QUICK_FLOWS = (16, 64, 256)
_FABRIC_FULL_FLOWS = (16, 64, 256, 1024, 4096)


def _fabric_point(task: tuple) -> Dict[str, Any]:
    """One fabric sweep point (module-level for the parallel runner)."""
    from repro.net.fabric import build_fat_tree, build_torus3d
    from repro.net.hybrid import (FabricSimulation, alltoall_pairs,
                                  bisection_pairs, incast_pairs)

    workload, n_flows, duration_s = task
    if workload == "bisection":
        topo = build_torus3d(4, 4, 4)
        pairs = bisection_pairs(topo, n_flows)
    else:
        topo = build_fat_tree(8)
        gen = incast_pairs if workload == "incast" else alltoall_pairs
        pairs = gen(topo, n_flows)
    sim = FabricSimulation(topo, pairs, n_foreground=8)
    r = sim.run(duration_s=duration_s)
    return {
        "flows": n_flows,
        "mode": r.mode,
        "aggregate_gbps": round(r.aggregate_goodput_gbps, 3),
        "foreground_gbps": round(r.foreground_goodput_bps / 1e9, 3),
        "background_gbps": round(r.background_goodput_bps / 1e9, 3),
        "drops": r.foreground_drops,
        "fluid_losses": r.fluid_losses,
        # deterministic proxy for cost (wall time would break the
        # bit-identical serial-vs-parallel parity contract)
        "des_events": r.events_scheduled,
    }


def _fabric_experiment(workload: str, quick: bool,
                       title: str) -> ExperimentOutput:
    from repro.analysis.tables import format_table

    flows = _FABRIC_QUICK_FLOWS if quick else _FABRIC_FULL_FLOWS
    duration_s = 0.02 if quick else 0.1
    rows = sweep(
        _fabric_point, [(workload, n, duration_s) for n in flows],
        cache_ns=f"fabric-{workload}")
    return ExperimentOutput(
        experiment=workload,
        text=format_table(rows, title=title),
        data={"rows": rows, "duration_s": duration_s})


@_register("incast")
def _incast(quick: bool = True) -> ExperimentOutput:
    """Fabric incast: N senders converge on one fat-tree host — the
    many-clients aggregation of Fig. 2(c) pushed to cluster scale via
    the hybrid fluid+DES fast path (see docs/FABRICS.md)."""
    return _fabric_experiment(
        "incast", quick,
        "Fabric incast (k=8 fat-tree, N senders -> 1 server)")


@_register("alltoall")
def _alltoall(quick: bool = True) -> ExperimentOutput:
    """Fabric all-to-all: flows cycling over every ordered host pair of
    a k=8 fat-tree (the MPI collective / shuffle pattern)."""
    return _fabric_experiment(
        "alltoall", quick,
        "Fabric all-to-all (k=8 fat-tree, ordered host pairs)")


@_register("bisection")
def _bisection(quick: bool = True) -> ExperimentOutput:
    """Fabric bisection: mirror-pair flows across a 4x4x4 torus cut
    (the APENet/PACS-CS LQCD fabric shape)."""
    return _fabric_experiment(
        "bisection", quick,
        "Fabric bisection (4x4x4 torus, mirror pairs across the cut)")


@_register("wan")
def _wan(quick: bool = True) -> ExperimentOutput:
    """§4: the Land Speed Record run + buffer sweep + DES cross-check."""
    from repro.analysis.tables import format_kv, format_table
    from repro.core.wanrecord import WanRecordRun

    run = WanRecordRun()
    tuned = run.run_fluid(duration_s=600.0 if quick else 3600.0)
    sweep = run.buffer_sweep(duration_s=120.0 if quick else 600.0)
    des = run.run_des_scaled(scale=0.02 if quick else 0.1,
                             duration_s=2.0 if quick else 6.0)
    multi = run.run_fluid(n_flows=8, duration_s=300.0 if quick else 600.0,
                          label="8 streams")
    summary = {
        "tuned_gbps (paper 2.38)": tuned.throughput_gbps,
        "payload_efficiency (paper ~0.99)": tuned.payload_efficiency,
        "terabyte_minutes (paper <60)": tuned.terabyte_time_s / 60.0,
        "lsr_metric (paper 2.3888e16)": tuned.lsr_metric,
        "x_previous_record (paper 2.5)": tuned.beats_previous_record,
        "des_crosscheck_gbps": des.throughput_gbps,
        "multistream_8_gbps (LSR multi-stream category)":
            multi.throughput_gbps,
    }
    rows = [{"buffer": o.label, "gbps": o.throughput_gbps,
             "losses": o.losses} for o in sweep]
    return ExperimentOutput(
        experiment="wan",
        text=(format_kv(summary, "§4 WAN record") + "\n\n"
              + format_table(rows, title="buffer sweep")),
        data={"tuned": tuned, "sweep": sweep, "des": des,
              "multi": multi, "summary": summary})
