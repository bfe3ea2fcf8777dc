"""The paper's claims as one table: quantity, paper value, bound.

Each row of :data:`CLAIMS` names one measured quantity, the value the
paper reports for it (``None`` for a shape-only check), the experiment
id whose quick-mode output holds it, an extractor on that output's
``data`` and the bound the measurement must meet.
``tests/golden/test_experiment_digests.py`` runs every experiment id
once and checks both its golden digests and its rows on that one
output, so the rows cost no simulation of their own.  Rows without an
experiment id (prefix ``point.``) are one-payload NTTCP points that
``tests/integration/test_paper_results.py`` measures and checks with
:meth:`Claim.check`.

A bound is ``approx`` (``pytest.approx`` semantics; the reference
defaults to the paper value), a comparison (``gt``, ``ge``, ``lt``,
``le``, ``eq``) or ``between(lo, hi)`` for ``lo < x < hi``.  "A beats
B" is written as the ratio ``A / B`` against a factor, or as the
difference ``A - B > 0`` where ``B`` may be zero or negative.  When an
extractor returns a list, the bound must hold for every element.
"""

import dataclasses
import operator
from functools import partial
from typing import Any, Callable, Dict, List, NamedTuple, Optional

import pytest

__all__ = ["Bound", "Claim", "CLAIMS", "claims_for"]

_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt,
        "<=": operator.le, "==": operator.eq}


class Bound(NamedTuple):
    """What a measured value must satisfy."""

    op: str            # "approx", "in", or a comparison in _OPS
    ref: Any = None    # approx: None means the row's paper value
    rel: Optional[float] = None
    abs: Optional[float] = None

    def holds(self, value: Any) -> bool:
        if self.op == "approx":
            return value == pytest.approx(self.ref, rel=self.rel,
                                          abs=self.abs)
        if self.op == "in":
            return self.ref[0] < value < self.ref[1]
        return _OPS[self.op](value, self.ref)

    def __str__(self) -> str:
        if self.op == "approx":
            tol = f"rel {self.rel}" if self.rel is not None else \
                f"abs {self.abs}"
            return f"≈ {self.ref} ({tol})"
        if self.op == "in":
            return f"in ({self.ref[0]}, {self.ref[1]})"
        return f"{self.op} {self.ref!r}"


def approx(ref=None, *, rel=None, abs=None) -> Bound:
    return Bound("approx", ref, rel, abs)


def between(lo, hi) -> Bound:
    return Bound("in", (lo, hi))


gt, ge, lt, le, eq = (partial(Bound, op) for op in (">", ">=", "<", "<=",
                                                    "=="))


@dataclasses.dataclass(frozen=True)
class Claim:
    """One row: a quantity the paper reports and the bound it meets."""

    quantity: str
    paper: Any
    experiment: Optional[str]
    extract: Optional[Callable[[Dict[str, Any]], Any]]
    bound: Bound

    def miss(self, value: Any) -> Optional[str]:
        """Why ``value`` breaks this claim, or None when it holds."""
        values = value if isinstance(value, list) else [value]
        if all(self.bound.holds(v) for v in values):
            return None
        return (f"{self.quantity} = {value!r}, needs {self.bound} "
                f"(paper: {self.paper!r})")

    def check(self, value: Any) -> None:
        """Raise AssertionError naming this row unless ``value`` holds."""
        problem = self.miss(value)
        assert problem is None, problem


CLAIMS: Dict[str, Claim] = {}


def _rows(experiment: Optional[str], *rows: tuple,
          prefix: Optional[str] = None) -> None:
    """Add ``(name, paper, extract, bound)`` rows as ``<prefix>.<name>``.

    A quantity name is registered once; a duplicate is a table error.
    """
    for name, paper, extract, bound in rows:
        quantity = f"{prefix or experiment}.{name}"
        if quantity in CLAIMS:
            raise ValueError(f"duplicate claim quantity {quantity!r}")
        if bound.ref is None:
            bound = bound._replace(ref=paper)
        CLAIMS[quantity] = Claim(quantity, paper, experiment, extract, bound)


def claims_for(experiment: str) -> List[Claim]:
    """The rows checked on ``experiment``'s output, in table order."""
    return [c for c in CLAIMS.values() if c.experiment == experiment]


def peak(mtu: int) -> Callable[[Dict[str, Any]], float]:
    return lambda d: d["curves"][mtu].peak_gbps


def summary(key: str) -> Callable[[Dict[str, Any]], Any]:
    return lambda d: d["summary"][key]


def _drops(values: List[float]) -> List[float]:
    """How far each value falls to the next one."""
    return [a - b for a, b in zip(values, values[1:])]


# --- §3.3 one-payload NTTCP points (tests/integration) --------------------
_rows(
    None,
    ("stock_1500_gbps", 1.8, None, approx(rel=0.15)),
    ("oversized_windows_9000_gbps", 3.9, None, approx(rel=0.08)),
    ("oversized_windows_1500_gbps", 2.47, None, approx(rel=0.08)),
    ("tuned_8160_gbps", 4.11, None, approx(rel=0.08)),
    # paper 4.09 vs 4.11, "virtually identical"
    ("tuned_16000_over_8160", 4.09 / 4.11, None, approx(1.0, rel=0.12)),
    prefix="point")

# --- Fig. 3: stock TCP, 1500 vs 9000 MTU ----------------------------------
_rows(
    "fig3",
    ("peak_1500_gbps", 1.8, peak(1500), approx(rel=0.15)),
    ("peak_9000_gbps", 2.7, peak(9000), between(1.9, 3.1)),
    # jumbo frames win at peak by a clear margin (paper 2.7 / 1.8)
    ("peak_9000_over_1500", 2.7 / 1.8,
     lambda d: peak(9000)(d) / peak(1500)(d), gt(1.1)),
    ("dip_9000", None,
     summary("dip_9000 in [7436,8948] (paper: marked dip)"), gt(0.05)),
    # 1500 saturates the CPU, 9000 does not (paper ~0.9 vs ~0.4)
    ("load_1500_minus_9000", 0.9 - 0.4,
     lambda d: (d["summary"]["load_1500 (paper ~0.9)"]
                - d["summary"]["load_9000 (paper ~0.4)"]), gt(0)),
)

# --- §3.3 ladder: stock -> PCI-X burst -> UP -> 256 KB windows --------------
def _ladder(mtu: int) -> Callable[[Dict[str, Any]], List[float]]:
    return lambda d: [r.curves[mtu].peak_gbps for r in d["results"]]


def _burst_gain(d: Dict[str, Any], mtu: int) -> float:
    p = _ladder(mtu)(d)
    return p[1] / p[0] - 1


_rows(
    "opt_steps",
    ("final_is_peak_9000", None,
     lambda d: _ladder(9000)(d)[-1] == max(_ladder(9000)(d)), eq(True)),
    ("final_over_stock_9000", 3.9 / 2.7,
     lambda d: _ladder(9000)(d)[-1] / _ladder(9000)(d)[0], gt(1.3)),
    ("burst_over_stock_9000", 3.6 / 2.7,
     lambda d: _ladder(9000)(d)[1] / _ladder(9000)(d)[0], gt(1.0)),
    # the burst step is marginal for 1500-byte MTUs
    ("burst_gain_9000_minus_1500", None,
     lambda d: _burst_gain(d, 9000) - _burst_gain(d, 1500), gt(0)),
    ("up_over_burst_1500", 2.15 / 1.85,
     lambda d: _ladder(1500)(d)[2] / _ladder(1500)(d)[1], gt(1.05)),
    ("final_peak_1500_gbps", 2.47,
     lambda d: _ladder(1500)(d)[-1], approx(rel=0.1)),
    ("final_peak_9000_gbps", 3.9,
     lambda d: _ladder(9000)(d)[-1], approx(rel=0.1)),
)

# --- Fig. 4: oversized windows ----------------------------------------------
_rows(
    "fig4",
    ("peak_1500_gbps", 2.47, peak(1500), approx(rel=0.1)),
    ("peak_9000_gbps", 3.9, peak(9000), approx(rel=0.1)),
    ("dip_stock_minus_bigwin", None,
     lambda d: (d["summary"]["dip_9000_stock"]
                - d["summary"]["dip_9000_bigwin (paper: eliminated)"]),
     gt(0)),
    ("dip_bigwin", None,
     summary("dip_9000_bigwin (paper: eliminated)"), lt(0.12)),
)

# --- Fig. 5: non-standard MTUs ----------------------------------------------
_rows(
    "fig5",
    ("peak_8160_gbps", 4.11, peak(8160), approx(rel=0.08)),
    ("peak_16000_over_8160", 4.09 / 4.11,
     lambda d: peak(16000)(d) / peak(8160)(d), approx(1.0, rel=0.12)),
    # paper: 16000 "clearly much higher" on average
    ("average_16000_over_8160", None,
     lambda d: (d["curves"][16000].average_gbps
                / d["curves"][8160].average_gbps), gt(0.95)),
    # above every peer's theoretical maximum: GbE 1, Myrinet 2, QsNet 3.2
    ("peak_8160_over_peers_gbps", 4.11, peak(8160), gt(3.2)),
)

# --- Figs. 6 and 7: latency -------------------------------------------------
_rows(
    "fig6",
    ("b2b_base_us", 19.0, lambda d: d["b2b"].base_latency_us,
     approx(abs=1.5)),
    ("switch_base_us", 25.0, lambda d: d["switch"].base_latency_us,
     approx(abs=1.8)),
    ("b2b_growth_fraction", 0.2, lambda d: d["b2b"].growth_fraction,
     between(0.1, 0.45)),
    # stepwise-linear growth: no payload step falls by more than 0.2 µs
    ("b2b_step_drop_us", None, lambda d: _drops(d["b2b"].latencies_us),
     le(0.2)),
)
_rows(
    "fig7",
    ("off_base_us", 14.0, lambda d: d["off"].base_latency_us,
     approx(abs=1.5)),
    ("coalescing_saves_us", 5.0,
     lambda d: d["on"].base_latency_us - d["off"].base_latency_us,
     approx(abs=1.0)),
)

# --- Fig. 8 and the §3.5.1 worked example -----------------------------------
_rows(
    "fig8",
    ("mss_allowed_window_bytes", 17920,
     summary("mss_allowed_window (paper ~18KB)"), eq(17920)),
    ("efficiency", 0.69, summary("efficiency (paper ~0.69)"),
     approx(0.673, abs=0.01)),
    ("advertised_window_bytes", 26844,
     lambda d: d["mismatch"].advertised_window, eq(26844)),
    ("usable_window_bytes", 17920,
     lambda d: d["mismatch"].usable_window, eq(17920)),
    ("advertised_loss", 0.19, lambda d: d["mismatch"].advertised_loss,
     approx(abs=0.01)),
    # paper: "nearly 50%" below the socket memory
    ("usable_loss", 0.5, lambda d: d["mismatch"].usable_loss,
     approx(0.457, abs=0.01)),
)


# --- Table 1: single-loss recovery time -------------------------------------
def _recovery(path: str, mss: int) -> Callable[[Dict[str, Any]], float]:
    return lambda d: next(r["recovery_s"] for r in d["rows"]
                          if (r["path"], r["mss_bytes"]) == (path, mss))


_rows(
    "tab1",
    # paper: 1 hr 42 min
    ("geneva_chicago_1460_s", 102 * 60, _recovery("Geneva-Chicago", 1460),
     approx(102.7 * 60, rel=0.01)),
    # paper: 3 hr 51 min
    ("geneva_sunnyvale_1460_s", 3.85 * 3600,
     _recovery("Geneva-Sunnyvale", 1460), approx(rel=0.01)),
    ("geneva_sunnyvale_8960_s", None, _recovery("Geneva-Sunnyvale", 8960),
     approx(37.7 * 60, rel=0.02)),
    ("lan_1460_s", None, _recovery("LAN", 1460), lt(0.1)),
)

# --- §3.5.2: multi-flow symmetry, dual adapters, pktgen, STREAM -------------
_rows(
    "multiflow",
    # "statistically equal" RX and TX paths
    ("rx_tx_asymmetry", None,
     lambda d: (abs(d["rx"].aggregate_bps - d["tx"].aggregate_bps)
                / max(d["rx"].aggregate_bps, d["tx"].aggregate_bps)),
     lt(0.15)),
    # "statistically identical": a second adapter buys nothing
    ("dual_over_single", None,
     lambda d: d["dual"].aggregate_bps / d["rx"].aggregate_bps, lt(1.15)),
    ("rx_flows", None, lambda d: d["rx"].n_flows, ge(4)),
    ("rx_per_flow_bps", None, lambda d: list(d["rx"].per_flow_bps), gt(0)),
)
_rows(
    "pktgen",
    ("gbps", 5.5, summary("pktgen_gbps (paper 5.5)"), approx(rel=0.05)),
    ("pps", 84000, summary("pktgen_pps (paper ~84k)"), approx(rel=0.06)),
    ("tcp_fraction", 0.75, summary("tcp_fraction_of_pktgen (paper ~0.75)"),
     between(0.6, 0.9)),
)


def _stream(d: Dict[str, Any]) -> Dict[str, float]:
    return {r["host"]: r["stream_copy_gbps"] for r in d["rows"]}


_rows(
    "stream",
    ("pe4600_gbps", 12.8, lambda d: _stream(d)["PE4600"], approx(rel=0.01)),
    ("pe4600_over_pe2650", 1.5,
     lambda d: _stream(d)["PE4600"] / _stream(d)["PE2650"],
     approx(rel=0.05)),
    ("e7505_vs_pe2650", None,
     lambda d: (abs(_stream(d)["IntelE7505"] - _stream(d)["PE2650"])
                / _stream(d)["PE2650"]), lt(0.05)),
)

# --- §3.4: anecdotal systems ------------------------------------------------
_E7505 = "e7505_peak_gbps (paper 4.64)"
_ITANIUM = "itanium2_aggregate_gbps (paper 7.2)"
_rows(
    "anecdotal",
    ("e7505_gbps", 4.64, summary(_E7505), gt(3.8)),
    ("itanium2_over_e7505", 7.2 / 4.64,
     lambda d: d["summary"][_ITANIUM] / d["summary"][_E7505], gt(1.0)),
    ("itanium2_gbps", 7.2, summary(_ITANIUM), gt(5.5)),
)


# --- §3.5.4: 10GbE vs GbE, Myrinet and QsNet --------------------------------
def _advantage(*peers: str) -> Callable[[Dict[str, Any]], List[float]]:
    return lambda d: [d["comparison"].throughput_advantage(p) for p in peers]


def _latency_ratio(peer: str) -> Callable[[Dict[str, Any]], float]:
    return lambda d: d["comparison"].latency_ratio(peer)


_rows(
    "comparison",
    ("throughput_advantage", None,
     _advantage("GbE/TCP", "Myrinet/GM", "Myrinet/IP", "QsNet/Elan3",
                "QsNet/IP"), gt(0)),
    # margins ordered GbE > Myrinet/IP > QsNet/IP (paper >300/120/80%)
    ("advantage_margin_drops", None,
     lambda d: _drops(_advantage("GbE/TCP", "Myrinet/IP", "QsNet/IP")(d)),
     gt(0)),
    ("advantage_over_gbe", 3.0,
     lambda d: _advantage("GbE/TCP")(d)[0], gt(2.5)),
    ("latency_over_gbe", 0.6, _latency_ratio("GbE/TCP"), lt(1.0)),
    ("latency_over_myrinet_ip", 0.5, _latency_ratio("Myrinet/IP"),
     lt(0.75)),
    ("latency_over_qsnet_ip", 0.5, _latency_ratio("QsNet/IP"), lt(0.75)),
    ("latency_over_myrinet_gm", None, _latency_ratio("Myrinet/GM"),
     gt(1.5)),
    ("latency_over_qsnet_elan3", None, _latency_ratio("QsNet/Elan3"),
     gt(2.0)),
)

# --- Beyond the paper: the MTU sawtooth and FAST TCP ------------------------
def _mtu(mtu: int, col: str) -> Callable[[Dict[str, Any]], Any]:
    return lambda d: next(r[col] for r in d["rows"] if r["mtu"] == mtu)


def _goodput_ratio(a: int, b: int) -> Callable[[Dict[str, Any]], float]:
    return lambda d: (_mtu(a, "goodput_gbps")(d)
                      / _mtu(b, "goodput_gbps")(d))


_rows(
    "mtu_scan",
    ("goodput_8160_over_9000", 4.11 / 3.9, _goodput_ratio(8160, 9000),
     gt(1.0)),
    ("goodput_4050_over_4500", None, _goodput_ratio(4050, 4500), gt(1.0)),
    ("goodput_16000_over_1500", None, _goodput_ratio(16000, 1500),
     gt(1.5)),
    ("frame_block_8160", None, _mtu(8160, "frame_block"), eq(8192)),
    ("frame_block_9000", None, _mtu(9000, "frame_block"), eq(16384)),
)


def _fast(col: str) -> Callable[[Dict[str, Any]], list]:
    return lambda d: [row[col] for row in d["rows"]]


_rows(
    "fast_tcp",
    ("reno_losses", None, _fast("Reno losses"), ge(1)),
    ("reno_gbps", None, _fast("Reno Gb/s"), lt(2.3)),
    ("fast_losses", None, _fast("FAST losses"), eq(0)),
    ("fast_gbps", 2.38, _fast("FAST Gb/s"), approx(abs=0.02)),
)

# --- Cross-validation and the §5 stack profile ------------------------------
_rows(
    "validation",
    ("rank_agreement", None, lambda d: d["report"].rank_agreement(),
     eq(True)),
    ("mean_error", None, lambda d: d["report"].mean_error(), lt(0.20)),
)
_rows(
    "stackprofile",
    # §3.5.2: data movement is the largest single stage of the tuned flow
    ("largest_stage", None,
     lambda d: max(d["detail"].stages, key=lambda s: s.seconds).stage,
     eq("data movement (FSB + copy)")),
    ("predicted_gbps", 4.11,
     lambda d: d["detail"].predicted_goodput_bps() / 1e9,
     approx(4.1, rel=0.08)),
)


# --- §4: the WAN Land Speed Record ------------------------------------------
def _sweep(label: str) -> Callable[[Dict[str, Any]], Any]:
    return lambda d: next(o for o in d["sweep"] if o.label == label)


_rows(
    "wan",
    ("tuned_gbps", 2.38, summary("tuned_gbps (paper 2.38)"),
     approx(abs=0.02)),
    ("payload_efficiency", 0.99,
     summary("payload_efficiency (paper ~0.99)"), gt(0.98)),
    ("terabyte_minutes", None, summary("terabyte_minutes (paper <60)"),
     lt(60.0)),
    ("lsr_metric", 2.3888e16, summary("lsr_metric (paper 2.3888e16)"),
     approx(rel=0.01)),
    ("x_previous_record", 2.5, summary("x_previous_record (paper 2.5)"),
     gt(2.0)),
    ("des_crosscheck_gbps", 2.38, summary("des_crosscheck_gbps"),
     approx(rel=0.08)),
    ("des_losses", None, lambda d: d["des"].losses, eq(0)),
    ("multistream_8_gbps", 2.38,
     summary("multistream_8_gbps (LSR multi-stream category)"),
     approx(rel=0.05)),
    # BDP-sized buffers win; undersized starves; oversized loses packets
    ("bdp_buffer_is_best", None,
     lambda d: (_sweep("1x BDP buffer")(d).throughput_gbps
                == max(o.throughput_gbps for o in d["sweep"])), eq(True)),
    ("quarter_bdp_over_bdp", None,
     lambda d: (_sweep("0.25x BDP buffer")(d).throughput_gbps
                / _sweep("1x BDP buffer")(d).throughput_gbps), lt(0.5)),
    ("triple_bdp_losses", None, lambda d: _sweep("3x BDP buffer")(d).losses,
     ge(1)),
)
