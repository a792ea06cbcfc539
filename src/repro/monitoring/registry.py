"""The 518-metric profiling catalogue.

Section 3 of the paper: "In total, 518 metrics are profiled, i.e., 182
for the hypervisor and 182 for VMs by sysstat and 154 for performance
counters by perf".  This module reproduces that catalogue:

* :func:`sysstat_metrics` — the 182 sysstat fields (sar groups: CPU,
  tasks, interrupts, swapping, paging, I/O, memory, swap space, huge
  pages, inodes/files, load, TTY, per-device disk, network DEV/EDEV,
  NFS client/server, sockets, IP/EIP, ICMP/EICMP, TCP/ETCP, UDP, power
  management, IPv6 sockets/IP/UDP), instantiated once with the
  hypervisor source and once with the VM source;
* :func:`perf_metrics` — the 154 perf counters: 34 system-wide events
  plus 15 events on each of the 8 cores.

Every metric derives its value from the interval's raw counter deltas
(:class:`~repro.monitoring.metric.SampleInputs`) through a small
behavioural model — rates from byte counts, microarchitectural events
from cycle counts and an IPC model that degrades under virtualization
(cache/TLB pollution, shadow paging), idle floors from housekeeping.
The counts are enforced by assertions and unit tests.

Derivations take one interval or a block of intervals (array fields)
alike, so none branches on a counter value: clamps and caps go through
:func:`~repro.monitoring.metric.elem_min` and
:func:`~repro.monitoring.metric.elem_max`.  The only branches key on
``virtualized``, which is fixed per probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import MonitoringError, UnknownMetricError
from repro.monitoring.metric import (
    Metric,
    MetricKind,
    MetricSource,
    SampleInputs,
    elem_max,
    elem_min,
)
from repro.units import KB

#: Counts stated in the paper (Section 3).
SYSSTAT_METRIC_COUNT = 182
PERF_METRIC_COUNT = 154
TOTAL_METRIC_COUNT = 2 * SYSSTAT_METRIC_COUNT + PERF_METRIC_COUNT

# -- small derivation helpers -------------------------------------------------

_SECTOR_BYTES = 512.0
_AVG_IO_BYTES = 24.0 * KB
_AVG_PKT_BYTES = 900.0


def _per_s(amount_fn: Callable[[SampleInputs], float]) -> Callable:
    """Turn an interval amount into a per-second rate with jitter."""

    def derive(d: SampleInputs) -> float:
        return elem_max(amount_fn(d) / d.interval_s, 0.0) * d.jitter()

    return derive


def _const(value: float, noise: float = 0.0) -> Callable:
    def derive(d: SampleInputs) -> float:
        return value * (d.jitter(noise) if noise > 0 else 1.0)

    return derive


def _zero_rare(rate_per_s: float) -> Callable:
    """Error-class metrics: almost always zero, rare small counts."""

    def derive(d: SampleInputs) -> float:
        return d.poisson(rate_per_s * d.interval_s) / d.interval_s

    return derive


@dataclass(frozen=True)
class _Arch:
    """Microarchitectural ratios; virtualization degrades all of them."""

    ipc: float
    branch_per_instr: float
    branch_miss: float
    cache_ref_per_instr: float
    cache_miss: float
    l1d_per_instr: float
    l1d_miss: float
    llc_miss: float
    dtlb_miss: float
    itlb_miss: float

    @classmethod
    def for_inputs(cls, d: SampleInputs) -> "_Arch":
        # The ratios depend only on the virtualization flag, so the two
        # profiles are singletons; building a frozen dataclass per metric
        # evaluation was a measurable share of full-registry sampling.
        return _ARCH_VIRTUALIZED if d.virtualized else _ARCH_BARE_METAL


_ARCH_VIRTUALIZED = _Arch(
    ipc=0.85,
    branch_per_instr=0.20,
    branch_miss=0.028,
    cache_ref_per_instr=0.042,
    cache_miss=0.18,
    l1d_per_instr=0.28,
    l1d_miss=0.045,
    llc_miss=0.30,
    dtlb_miss=0.007,
    itlb_miss=0.002,
)

_ARCH_BARE_METAL = _Arch(
    ipc=1.30,
    branch_per_instr=0.20,
    branch_miss=0.022,
    cache_ref_per_instr=0.038,
    cache_miss=0.12,
    l1d_per_instr=0.28,
    l1d_miss=0.030,
    llc_miss=0.22,
    dtlb_miss=0.002,
    itlb_miss=0.0008,
)


def _instructions(d: SampleInputs) -> float:
    return d.cpu_cycles * _Arch.for_inputs(d).ipc


# -- sysstat catalogue ----------------------------------------------------------

def _sysstat_rows() -> List[Tuple[str, MetricKind, str, str, Callable]]:
    """(name, kind, unit, description, derive) for all 182 fields."""
    C, G = MetricKind.COUNTER, MetricKind.GAUGE
    rows: List[Tuple[str, MetricKind, str, str, Callable]] = []

    def add(name, kind, unit, description, derive):
        rows.append((name, kind, unit, description, derive))

    # CPU utilization (sar -u) — 6
    add("%user", C, "%", "CPU time in user space",
        lambda d: d.cpu_utilization * 100.0 * 0.72 * d.jitter())
    add("%nice", C, "%", "CPU time in niced user processes",
        _zero_rare(0.01))
    add("%system", C, "%", "CPU time in kernel space",
        lambda d: d.cpu_utilization * 100.0 * 0.22 * d.jitter())
    add("%iowait", C, "%", "CPU idle while waiting on I/O",
        lambda d: elem_min(25.0, (d.disk_bytes / d.interval_s) / (4e6)
                           * d.jitter()))
    add("%steal", C, "%", "involuntary wait on the hypervisor",
        lambda d: (0.4 * d.cpu_utilization * 100.0 * d.jitter()
                   if d.virtualized else 0.0))
    add("%idle", C, "%", "CPU idle time",
        lambda d: elem_max(0.0, 100.0 - d.cpu_utilization * 100.0 * d.jitter()))
    # Task creation and switching (sar -w) — 2
    add("proc/s", C, "1/s", "tasks created per second",
        lambda d: 0.8 + 0.02 * d.requests / d.interval_s * d.jitter())
    add("cswch/s", C, "1/s", "context switches per second",
        _per_s(lambda d: 40.0 * d.interval_s + 9.0 * d.requests))
    # Interrupts (sar -I SUM) — 1
    add("intr/s", C, "1/s", "hardware interrupts per second",
        _per_s(lambda d: 120.0 * d.interval_s
               + (d.net_bytes / _AVG_PKT_BYTES)
               + (d.disk_bytes / _AVG_IO_BYTES)))
    # Swapping (sar -W) — 2
    add("pswpin/s", C, "pages/s", "swap pages brought in", _zero_rare(0.002))
    add("pswpout/s", C, "pages/s", "swap pages written out", _zero_rare(0.002))
    # Paging (sar -B) — 9
    add("pgpgin/s", C, "KB/s", "KB paged in from disk",
        _per_s(lambda d: d.disk_read_bytes / KB))
    add("pgpgout/s", C, "KB/s", "KB paged out to disk",
        _per_s(lambda d: d.disk_write_bytes / KB))
    add("fault/s", C, "1/s", "page faults (minor+major)",
        _per_s(lambda d: 60.0 * d.interval_s + 25.0 * d.requests))
    add("majflt/s", C, "1/s", "major page faults",
        _zero_rare(0.05))
    add("pgfree/s", C, "pages/s", "pages placed on the free list",
        _per_s(lambda d: 200.0 * d.interval_s + 30.0 * d.requests))
    add("pgscank/s", C, "pages/s", "pages scanned by kswapd", _zero_rare(0.02))
    add("pgscand/s", C, "pages/s", "pages scanned directly", _zero_rare(0.01))
    add("pgsteal/s", C, "pages/s", "pages reclaimed from cache", _zero_rare(0.05))
    add("%vmeff", C, "%", "page reclaim efficiency", _const(0.0))
    # I/O and transfer rates (sar -b) — 5
    add("tps", C, "1/s", "I/O transfers per second",
        _per_s(lambda d: d.disk_bytes / _AVG_IO_BYTES))
    add("rtps", C, "1/s", "read transfers per second",
        _per_s(lambda d: d.disk_read_bytes / _AVG_IO_BYTES))
    add("wtps", C, "1/s", "write transfers per second",
        _per_s(lambda d: d.disk_write_bytes / _AVG_IO_BYTES))
    add("bread/s", C, "blocks/s", "blocks read per second",
        _per_s(lambda d: d.disk_read_bytes / _SECTOR_BYTES))
    add("bwrtn/s", C, "blocks/s", "blocks written per second",
        _per_s(lambda d: d.disk_write_bytes / _SECTOR_BYTES))
    # Memory utilization (sar -r) — 10
    add("kbmemfree", G, "KB", "free memory",
        lambda d: elem_max(0.0, (d.mem_total_bytes - d.mem_used_bytes) / KB))
    add("kbmemused", G, "KB", "used memory",
        lambda d: d.mem_used_bytes / KB)
    add("%memused", G, "%", "used memory percentage",
        lambda d: 100.0 * d.mem_used_bytes / elem_max(d.mem_total_bytes, 1.0))
    add("kbbuffers", G, "KB", "kernel buffer memory",
        lambda d: 0.035 * d.mem_used_bytes / KB * d.jitter())
    add("kbcached", G, "KB", "page cache memory",
        lambda d: 0.30 * d.mem_used_bytes / KB * d.jitter())
    add("kbcommit", G, "KB", "committed address space",
        lambda d: 1.25 * d.mem_used_bytes / KB)
    add("%commit", G, "%", "committed over total",
        lambda d: 125.0 * d.mem_used_bytes / elem_max(d.mem_total_bytes, 1.0))
    add("kbactive", G, "KB", "active memory",
        lambda d: 0.55 * d.mem_used_bytes / KB * d.jitter())
    add("kbinact", G, "KB", "inactive memory",
        lambda d: 0.25 * d.mem_used_bytes / KB * d.jitter())
    add("kbdirty", G, "KB", "dirty pages awaiting writeback",
        lambda d: (d.disk_write_bytes * 0.5) / KB * d.jitter(0.2))
    # Swap space (sar -S) — 5
    add("kbswpfree", G, "KB", "free swap", _const(4_194_304.0))
    add("kbswpused", G, "KB", "used swap", _const(0.0))
    add("%swpused", G, "%", "used swap percentage", _const(0.0))
    add("kbswpcad", G, "KB", "cached swap", _const(0.0))
    add("%swpcad", G, "%", "cached swap percentage", _const(0.0))
    # Huge pages (sar -H) — 3
    add("kbhugfree", G, "KB", "free huge pages", _const(0.0))
    add("kbhugused", G, "KB", "used huge pages", _const(0.0))
    add("%hugused", G, "%", "huge page usage", _const(0.0))
    # Inode/file tables (sar -v) — 4
    add("dentunusd", G, "entries", "unused directory cache entries",
        _const(52_000.0, noise=0.05))
    add("file-nr", G, "entries", "open file handles",
        lambda d: 1600.0 + 3.0 * d.requests / d.interval_s * d.jitter())
    add("inode-nr", G, "entries", "in-core inodes",
        _const(34_000.0, noise=0.03))
    add("pty-nr", G, "entries", "pseudo-terminals in use", _const(2.0))
    # Load and run queue (sar -q) — 6
    add("runq-sz", G, "tasks", "run-queue length",
        lambda d: d.cpu_utilization * 8.0 * d.jitter(0.2))
    add("plist-sz", G, "tasks", "task-list size",
        _const(210.0, noise=0.02))
    add("ldavg-1", G, "load", "1-minute load average",
        lambda d: d.cpu_utilization * 8.0 * d.jitter(0.1))
    add("ldavg-5", G, "load", "5-minute load average",
        lambda d: d.cpu_utilization * 8.0 * d.jitter(0.05))
    add("ldavg-15", G, "load", "15-minute load average",
        lambda d: d.cpu_utilization * 8.0 * d.jitter(0.03))
    add("blocked", G, "tasks", "tasks blocked on I/O",
        lambda d: elem_min(8.0, d.disk_bytes / (8e6) * d.jitter(0.3)))
    # TTY (sar -y) — 6
    for name, desc in (
        ("rcvin/s", "serial receive interrupts"),
        ("xmtin/s", "serial transmit interrupts"),
        ("framerr/s", "serial frame errors"),
        ("prtyerr/s", "serial parity errors"),
        ("brk/s", "serial breaks"),
        ("ovrun/s", "serial overruns"),
    ):
        add(name, C, "1/s", desc, _const(0.0))
    # Block device (sar -d, device sda) — 8
    add("dev-tps", C, "1/s", "device transfers per second",
        _per_s(lambda d: d.disk_bytes / _AVG_IO_BYTES))
    add("rd_sec/s", C, "sectors/s", "sectors read per second",
        _per_s(lambda d: d.disk_read_bytes / _SECTOR_BYTES))
    add("wr_sec/s", C, "sectors/s", "sectors written per second",
        _per_s(lambda d: d.disk_write_bytes / _SECTOR_BYTES))
    add("avgrq-sz", G, "sectors", "average request size",
        _const(_AVG_IO_BYTES / _SECTOR_BYTES, noise=0.1))
    add("avgqu-sz", G, "requests", "average device queue length",
        lambda d: elem_min(4.0, d.disk_bytes / (16e6) * d.jitter(0.3)))
    add("await", G, "ms", "average I/O latency",
        lambda d: 4.0 + elem_min(20.0, d.disk_bytes / (4e6)) * d.jitter(0.2))
    add("svctm", G, "ms", "average device service time",
        _const(3.5, noise=0.15))
    add("%util", C, "%", "device bandwidth utilization",
        lambda d: elem_min(100.0, 100.0 * d.disk_bytes
                           / (d.interval_s * 110e6)))
    # Network device (sar -n DEV, eth0) — 7
    add("rxpck/s", C, "pkts/s", "packets received",
        _per_s(lambda d: d.net_rx_bytes / _AVG_PKT_BYTES))
    add("txpck/s", C, "pkts/s", "packets transmitted",
        _per_s(lambda d: d.net_tx_bytes / _AVG_PKT_BYTES))
    add("rxkB/s", C, "KB/s", "KB received",
        _per_s(lambda d: d.net_rx_bytes / KB))
    add("txkB/s", C, "KB/s", "KB transmitted",
        _per_s(lambda d: d.net_tx_bytes / KB))
    add("rxcmp/s", C, "pkts/s", "compressed packets received", _const(0.0))
    add("txcmp/s", C, "pkts/s", "compressed packets transmitted", _const(0.0))
    add("rxmcst/s", C, "pkts/s", "multicast packets received",
        _zero_rare(0.2))
    # Network errors (sar -n EDEV) — 9
    for name, desc in (
        ("rxerr/s", "bad packets received"),
        ("txerr/s", "transmit errors"),
        ("coll/s", "collisions"),
        ("rxdrop/s", "receive drops"),
        ("txdrop/s", "transmit drops"),
        ("txcarr/s", "carrier errors"),
        ("rxfram/s", "frame alignment errors"),
        ("rxfifo/s", "receive FIFO overruns"),
        ("txfifo/s", "transmit FIFO overruns"),
    ):
        add(name, C, "1/s", desc, _zero_rare(0.005))
    # NFS client (sar -n NFS) — 6
    for name, desc in (
        ("call/s", "NFS client RPC calls"),
        ("retrans/s", "NFS client retransmissions"),
        ("read/s", "NFS client reads"),
        ("write/s", "NFS client writes"),
        ("access/s", "NFS client access calls"),
        ("getatt/s", "NFS client getattr calls"),
    ):
        add(name, C, "1/s", desc, _const(0.0))
    # NFS server (sar -n NFSD) — 11
    for name, desc in (
        ("scall/s", "NFS server RPC calls"),
        ("badcall/s", "NFS server bad calls"),
        ("packet/s", "NFS server packets"),
        ("udp/s", "NFS server UDP packets"),
        ("tcp/s", "NFS server TCP packets"),
        ("hit/s", "NFS server reply-cache hits"),
        ("miss/s", "NFS server reply-cache misses"),
        ("sread/s", "NFS server reads"),
        ("swrite/s", "NFS server writes"),
        ("saccess/s", "NFS server access calls"),
        ("sgetatt/s", "NFS server getattr calls"),
    ):
        add(name, C, "1/s", desc, _const(0.0))
    # Sockets (sar -n SOCK) — 6
    add("totsck", G, "sockets", "sockets in use",
        lambda d: 140.0 + 1.2 * d.requests / d.interval_s * d.jitter(0.05))
    add("tcpsck", G, "sockets", "TCP sockets in use",
        lambda d: 90.0 + 1.0 * d.requests / d.interval_s * d.jitter(0.05))
    add("udpsck", G, "sockets", "UDP sockets in use", _const(6.0))
    add("rawsck", G, "sockets", "raw sockets in use", _const(0.0))
    add("ip-frag", G, "fragments", "IP fragments queued", _const(0.0))
    add("tcp-tw", G, "sockets", "TCP sockets in TIME_WAIT",
        lambda d: 3.0 * d.requests / d.interval_s * d.jitter(0.15))
    # IP (sar -n IP) — 8
    add("irec/s", C, "dgm/s", "input datagrams",
        _per_s(lambda d: d.net_rx_bytes / _AVG_PKT_BYTES))
    add("fwddgm/s", C, "dgm/s", "forwarded datagrams",
        lambda d: (d.net_bytes / _AVG_PKT_BYTES / d.interval_s * d.jitter()
                   if d.virtualized else 0.0))
    add("idel/s", C, "dgm/s", "delivered datagrams",
        _per_s(lambda d: d.net_rx_bytes / _AVG_PKT_BYTES))
    add("orq/s", C, "dgm/s", "output datagram requests",
        _per_s(lambda d: d.net_tx_bytes / _AVG_PKT_BYTES))
    add("asmrq/s", C, "dgm/s", "fragments needing reassembly", _const(0.0))
    add("asmok/s", C, "dgm/s", "datagrams reassembled", _const(0.0))
    add("fragok/s", C, "dgm/s", "datagrams fragmented", _const(0.0))
    add("fragcrt/s", C, "dgm/s", "fragments created", _const(0.0))
    # IP errors (sar -n EIP) — 8
    for name, desc in (
        ("ihdrerr/s", "header errors"),
        ("iadrerr/s", "address errors"),
        ("iukwnpr/s", "unknown protocol"),
        ("idisc/s", "input discards"),
        ("odisc/s", "output discards"),
        ("onort/s", "no-route failures"),
        ("asmf/s", "reassembly failures"),
        ("fragf/s", "fragmentation failures"),
    ):
        add(name, C, "1/s", desc, _zero_rare(0.003))
    # ICMP (sar -n ICMP) — 14
    for name, desc in (
        ("imsg/s", "ICMP messages received"),
        ("omsg/s", "ICMP messages sent"),
        ("iech/s", "echo requests received"),
        ("iechr/s", "echo replies received"),
        ("oech/s", "echo requests sent"),
        ("oechr/s", "echo replies sent"),
        ("itm/s", "timestamps received"),
        ("itmr/s", "timestamp replies received"),
        ("otm/s", "timestamps sent"),
        ("otmr/s", "timestamp replies sent"),
        ("iadrmk/s", "address masks received"),
        ("iadrmkr/s", "address mask replies received"),
        ("oadrmk/s", "address masks sent"),
        ("oadrmkr/s", "address mask replies sent"),
    ):
        add(name, C, "1/s", desc, _zero_rare(0.01))
    # ICMP errors (sar -n EICMP) — 12
    for name, desc in (
        ("ierr/s", "ICMP input errors"),
        ("oerr/s", "ICMP output errors"),
        ("idstunr/s", "dest-unreachable received"),
        ("odstunr/s", "dest-unreachable sent"),
        ("itmex/s", "time-exceeded received"),
        ("otmex/s", "time-exceeded sent"),
        ("iparmpb/s", "parameter problems received"),
        ("oparmpb/s", "parameter problems sent"),
        ("isrcq/s", "source quench received"),
        ("osrcq/s", "source quench sent"),
        ("iredir/s", "redirects received"),
        ("oredir/s", "redirects sent"),
    ):
        add(name, C, "1/s", desc, _zero_rare(0.002))
    # TCP (sar -n TCP) — 4
    add("active/s", C, "conn/s", "active TCP opens",
        lambda d: 0.10 * d.requests / d.interval_s * d.jitter())
    add("passive/s", C, "conn/s", "passive TCP opens",
        lambda d: 0.35 * d.requests / d.interval_s * d.jitter())
    add("iseg/s", C, "seg/s", "TCP segments received",
        _per_s(lambda d: d.net_rx_bytes / _AVG_PKT_BYTES))
    add("oseg/s", C, "seg/s", "TCP segments sent",
        _per_s(lambda d: d.net_tx_bytes / _AVG_PKT_BYTES))
    # TCP errors (sar -n ETCP) — 5
    for name, desc in (
        ("atmptf/s", "failed connection attempts"),
        ("estres/s", "connection resets"),
        ("tcp-retrans/s", "segments retransmitted"),
        ("isegerr/s", "bad segments received"),
        ("orsts/s", "RST segments sent"),
    ):
        add(name, C, "1/s", desc, _zero_rare(0.02))
    # UDP (sar -n UDP) — 4
    add("idgm/s", C, "dgm/s", "UDP datagrams received", _zero_rare(0.5))
    add("odgm/s", C, "dgm/s", "UDP datagrams sent", _zero_rare(0.5))
    add("noport/s", C, "dgm/s", "UDP no-port datagrams", _zero_rare(0.01))
    add("idgmerr/s", C, "dgm/s", "UDP datagram errors", _zero_rare(0.005))
    # Power management (sar -m) — 3
    add("cpu-MHz", G, "MHz", "current CPU frequency", _const(2800.0, 0.002))
    add("fan-rpm", G, "rpm", "chassis fan speed", _const(5400.0, 0.01))
    add("temp-C", G, "degC", "device temperature",
        lambda d: 38.0 + 14.0 * d.cpu_utilization * d.jitter(0.05))
    # IPv6 sockets (sar -n SOCK6) — 4
    add("tcp6sck", G, "sockets", "TCPv6 sockets in use", _const(4.0))
    add("udp6sck", G, "sockets", "UDPv6 sockets in use", _const(2.0))
    add("raw6sck", G, "sockets", "raw IPv6 sockets in use", _const(0.0))
    add("ip6-frag", G, "fragments", "IPv6 fragments queued", _const(0.0))
    # IPv6 traffic (sar -n IP6) — 10
    for name, desc in (
        ("irec6/s", "IPv6 input datagrams"),
        ("fwddgm6/s", "IPv6 forwarded datagrams"),
        ("idel6/s", "IPv6 delivered datagrams"),
        ("orq6/s", "IPv6 output requests"),
        ("asmrq6/s", "IPv6 reassembly requests"),
        ("asmok6/s", "IPv6 reassembled datagrams"),
        ("imcpck6/s", "IPv6 multicast received"),
        ("omcpck6/s", "IPv6 multicast sent"),
        ("fragok6/s", "IPv6 datagrams fragmented"),
        ("fragcr6/s", "IPv6 fragments created"),
    ):
        add(name, C, "1/s", desc, _zero_rare(0.01))
    # IPv6 UDP (sar -n UDP6) — 4
    add("idgm6/s", C, "dgm/s", "UDPv6 datagrams received", _zero_rare(0.01))
    add("odgm6/s", C, "dgm/s", "UDPv6 datagrams sent", _zero_rare(0.01))
    add("noport6/s", C, "dgm/s", "UDPv6 no-port datagrams", _const(0.0))
    add("idgmer6/s", C, "dgm/s", "UDPv6 datagram errors", _const(0.0))

    assert len(rows) == SYSSTAT_METRIC_COUNT, (
        f"sysstat catalogue has {len(rows)} fields, expected "
        f"{SYSSTAT_METRIC_COUNT}"
    )
    return rows


def sysstat_metrics(source: MetricSource) -> List[Metric]:
    """The 182 sysstat metrics bound to one collector source."""
    return [
        Metric(name, source, kind, unit, description, derive)
        for name, kind, unit, description, derive in _sysstat_rows()
    ]


# -- perf catalogue ------------------------------------------------------------

def _perf_global_rows() -> List[Tuple[str, str, str, Callable]]:
    """(name, unit, description, derive) for the 34 system-wide events."""
    rows: List[Tuple[str, str, str, Callable]] = []

    def add(name, unit, description, derive):
        rows.append((name, unit, description, derive))

    def arch_rate(fn: Callable[[SampleInputs, _Arch], float]) -> Callable:
        def derive(d: SampleInputs) -> float:
            return elem_max(fn(d, _Arch.for_inputs(d)), 0.0) * d.jitter()

        return derive

    add("cycles", "cycles", "CPU cycles consumed",
        arch_rate(lambda d, a: d.cpu_cycles))
    add("instructions", "instr", "instructions retired",
        arch_rate(lambda d, a: d.cpu_cycles * a.ipc))
    add("branches", "branches", "branch instructions",
        arch_rate(lambda d, a: d.cpu_cycles * a.ipc * a.branch_per_instr))
    add("branch-misses", "misses", "mispredicted branches",
        arch_rate(lambda d, a: d.cpu_cycles * a.ipc * a.branch_per_instr
                  * a.branch_miss))
    add("bus-cycles", "cycles", "bus cycles",
        arch_rate(lambda d, a: d.cpu_cycles * 0.03))
    add("ref-cycles", "cycles", "reference cycles (unscaled TSC)",
        arch_rate(lambda d, a: d.cpu_cycles))
    add("stalled-cycles-frontend", "cycles", "frontend stall cycles",
        arch_rate(lambda d, a: d.cpu_cycles * (0.22 if d.virtualized else 0.14)))
    add("stalled-cycles-backend", "cycles", "backend stall cycles",
        arch_rate(lambda d, a: d.cpu_cycles * (0.35 if d.virtualized else 0.24)))
    add("cache-references", "refs", "last-level cache references",
        arch_rate(lambda d, a: d.cpu_cycles * a.ipc * a.cache_ref_per_instr))
    add("cache-misses", "misses", "last-level cache misses",
        arch_rate(lambda d, a: d.cpu_cycles * a.ipc * a.cache_ref_per_instr
                  * a.cache_miss))
    # L1 data cache — 6
    add("L1-dcache-loads", "loads", "L1D load accesses",
        arch_rate(lambda d, a: d.cpu_cycles * a.ipc * a.l1d_per_instr))
    add("L1-dcache-load-misses", "misses", "L1D load misses",
        arch_rate(lambda d, a: d.cpu_cycles * a.ipc * a.l1d_per_instr
                  * a.l1d_miss))
    add("L1-dcache-stores", "stores", "L1D store accesses",
        arch_rate(lambda d, a: d.cpu_cycles * a.ipc * a.l1d_per_instr * 0.45))
    add("L1-dcache-store-misses", "misses", "L1D store misses",
        arch_rate(lambda d, a: d.cpu_cycles * a.ipc * a.l1d_per_instr * 0.45
                  * a.l1d_miss))
    add("L1-dcache-prefetches", "prefetches", "L1D prefetches",
        arch_rate(lambda d, a: d.cpu_cycles * a.ipc * 0.01))
    add("L1-dcache-prefetch-misses", "misses", "L1D prefetch misses",
        arch_rate(lambda d, a: d.cpu_cycles * a.ipc * 0.01 * a.l1d_miss))
    # L1 instruction cache — 2
    add("L1-icache-loads", "loads", "L1I accesses",
        arch_rate(lambda d, a: d.cpu_cycles * a.ipc * 0.9))
    add("L1-icache-load-misses", "misses", "L1I misses",
        arch_rate(lambda d, a: d.cpu_cycles * a.ipc * 0.9
                  * (0.012 if d.virtualized else 0.007)))
    # Last-level cache — 6
    add("LLC-loads", "loads", "LLC load accesses",
        arch_rate(lambda d, a: d.cpu_cycles * a.ipc * a.cache_ref_per_instr
                  * 0.6))
    add("LLC-load-misses", "misses", "LLC load misses",
        arch_rate(lambda d, a: d.cpu_cycles * a.ipc * a.cache_ref_per_instr
                  * 0.6 * a.llc_miss))
    add("LLC-stores", "stores", "LLC store accesses",
        arch_rate(lambda d, a: d.cpu_cycles * a.ipc * a.cache_ref_per_instr
                  * 0.4))
    add("LLC-store-misses", "misses", "LLC store misses",
        arch_rate(lambda d, a: d.cpu_cycles * a.ipc * a.cache_ref_per_instr
                  * 0.4 * a.llc_miss))
    add("LLC-prefetches", "prefetches", "LLC prefetches",
        arch_rate(lambda d, a: d.cpu_cycles * a.ipc * 0.004))
    add("LLC-prefetch-misses", "misses", "LLC prefetch misses",
        arch_rate(lambda d, a: d.cpu_cycles * a.ipc * 0.004 * a.llc_miss))
    # TLBs — 6
    add("dTLB-loads", "loads", "data TLB accesses",
        arch_rate(lambda d, a: d.cpu_cycles * a.ipc * a.l1d_per_instr))
    add("dTLB-load-misses", "misses", "data TLB load misses",
        arch_rate(lambda d, a: d.cpu_cycles * a.ipc * a.l1d_per_instr
                  * a.dtlb_miss))
    add("dTLB-stores", "stores", "data TLB store accesses",
        arch_rate(lambda d, a: d.cpu_cycles * a.ipc * a.l1d_per_instr * 0.45))
    add("dTLB-store-misses", "misses", "data TLB store misses",
        arch_rate(lambda d, a: d.cpu_cycles * a.ipc * a.l1d_per_instr * 0.45
                  * a.dtlb_miss))
    add("iTLB-loads", "loads", "instruction TLB accesses",
        arch_rate(lambda d, a: d.cpu_cycles * a.ipc * 0.9))
    add("iTLB-load-misses", "misses", "instruction TLB misses",
        arch_rate(lambda d, a: d.cpu_cycles * a.ipc * 0.9 * a.itlb_miss))
    # Software events — 4
    add("task-clock", "ms", "task clock time",
        lambda d: d.cpu_utilization * d.interval_s * 1000.0 * d.jitter())
    add("page-faults", "faults", "page faults",
        lambda d: (60.0 * d.interval_s + 25.0 * d.requests) * d.jitter())
    add("context-switches", "switches", "context switches",
        lambda d: (40.0 * d.interval_s + 9.0 * d.requests) * d.jitter())
    add("cpu-migrations", "migrations", "task CPU migrations",
        lambda d: (0.8 * d.interval_s + 0.02 * d.requests) * d.jitter())

    assert len(rows) == 34, f"perf global catalogue has {len(rows)}, expected 34"
    return rows


#: The 15 events collected per core.
_PER_CORE_EVENTS: Tuple[str, ...] = (
    "cycles",
    "instructions",
    "cache-references",
    "cache-misses",
    "branches",
    "branch-misses",
    "L1-dcache-loads",
    "L1-dcache-load-misses",
    "LLC-loads",
    "LLC-load-misses",
    "dTLB-load-misses",
    "iTLB-load-misses",
    "stalled-cycles-frontend",
    "stalled-cycles-backend",
    "ref-cycles",
)

_CORE_COUNT = 8


def perf_metrics() -> List[Metric]:
    """The 154 perf counters: 34 global + 15 x 8 per-core events."""
    global_rows = _perf_global_rows()
    derive_by_name = {name: derive for name, _, _, derive in global_rows}
    metrics = [
        Metric(name, MetricSource.PERF, MetricKind.COUNTER, unit,
               description, derive)
        for name, unit, description, derive in global_rows
    ]
    for core in range(_CORE_COUNT):
        for event in _PER_CORE_EVENTS:
            base_derive = derive_by_name[event]
            metrics.append(
                Metric(
                    name=f"cpu{core}/{event}",
                    source=MetricSource.PERF,
                    kind=MetricKind.COUNTER,
                    unit="events",
                    description=f"{event} on core {core}",
                    # Cores share the load unevenly; each gets ~1/8 of the
                    # package total with imbalance noise.
                    derive=(
                        lambda d, fn=base_derive: fn(d) / _CORE_COUNT
                        * d.jitter(0.15)
                    ),
                )
            )
    assert len(metrics) == PERF_METRIC_COUNT, (
        f"perf catalogue has {len(metrics)}, expected {PERF_METRIC_COUNT}"
    )
    return metrics


# -- registry ---------------------------------------------------------------------

class MetricRegistry:
    """Lookup and bulk-evaluation over a metric collection."""

    def __init__(self, metrics: Sequence[Metric]) -> None:
        self._metrics = list(metrics)
        self._by_name: Dict[Tuple[MetricSource, str], Metric] = {}
        for metric in self._metrics:
            key = (metric.source, metric.name)
            if key in self._by_name:
                raise UnknownMetricError(
                    f"duplicate metric {metric.qualified_name!r}"
                )
            self._by_name[key] = metric
        self._compiled: Dict[
            Optional[MetricSource], Tuple[Tuple[str, str, Callable], ...]
        ] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def metrics(self, source: Optional[MetricSource] = None) -> List[Metric]:
        if source is None:
            return list(self._metrics)
        return [m for m in self._metrics if m.source is source]

    def lookup(self, source: MetricSource, name: str) -> Metric:
        key = (source, name)
        if key not in self._by_name:
            raise UnknownMetricError(f"unknown metric {source.value}/{name}")
        return self._by_name[key]

    def compiled(
        self, source: Optional[MetricSource] = None
    ) -> Tuple[Tuple[str, str, Callable], ...]:
        """Flat ``(qualified_name, name, derive)`` triples for one source.

        Built once per source and reused across sampling ticks, so bulk
        evaluation does no per-metric attribute or dict lookups.  Order
        matches :meth:`metrics`, which keeps noise-stream consumption
        (and therefore trace values) identical to per-metric evaluation.
        """
        cached = self._compiled.get(source)
        if cached is None:
            cached = tuple(
                (metric.qualified_name, metric.name, metric.derive)
                for metric in self.metrics(source)
            )
            self._compiled[source] = cached
        return cached

    def evaluate_all(
        self, inputs: SampleInputs, source: Optional[MetricSource] = None
    ) -> Dict[str, float]:
        """Evaluate every metric (optionally of one source) on one interval."""
        out: Dict[str, float] = {}
        for qualified_name, name, derive in self.compiled(source):
            value = float(derive(inputs))
            if not isfinite(value):
                raise MonitoringError(
                    f"metric {name!r} produced a non-finite value"
                )
            out[qualified_name] = value
        return out

    def counts_by_source(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for metric in self._metrics:
            counts[metric.source.value] = counts.get(metric.source.value, 0) + 1
        return counts


def build_registry() -> MetricRegistry:
    """The full 518-metric catalogue of the paper's Section 3."""
    metrics = (
        sysstat_metrics(MetricSource.SYSSTAT_HYPERVISOR)
        + sysstat_metrics(MetricSource.SYSSTAT_VM)
        + perf_metrics()
    )
    registry = MetricRegistry(metrics)
    assert len(registry) == TOTAL_METRIC_COUNT
    return registry


#: The curated sample the paper prints as Table 1.
TABLE1_ROWS: Tuple[Tuple[str, str], ...] = (
    ("sysstat-hypervisor", "%user"),
    ("sysstat-hypervisor", "%system"),
    ("sysstat-hypervisor", "%iowait"),
    ("sysstat-hypervisor", "%idle"),
    ("sysstat-hypervisor", "proc/s"),
    ("sysstat-hypervisor", "cswch/s"),
    ("sysstat-hypervisor", "kbmemused"),
    ("sysstat-hypervisor", "kbcached"),
    ("sysstat-hypervisor", "pgpgin/s"),
    ("sysstat-hypervisor", "pgpgout/s"),
    ("sysstat-hypervisor", "tps"),
    ("sysstat-hypervisor", "bread/s"),
    ("sysstat-hypervisor", "bwrtn/s"),
    ("sysstat-hypervisor", "rxkB/s"),
    ("sysstat-hypervisor", "txkB/s"),
    ("sysstat-vm", "%user"),
    ("sysstat-vm", "%steal"),
    ("sysstat-vm", "kbmemused"),
    ("sysstat-vm", "rxkB/s"),
    ("sysstat-vm", "txkB/s"),
    ("perf", "cycles"),
    ("perf", "instructions"),
    ("perf", "cache-references"),
    ("perf", "cache-misses"),
    ("perf", "dTLB-load-misses"),
)


def table1_sample(registry: Optional[MetricRegistry] = None) -> List[Metric]:
    """The Table 1 metric sample as descriptor objects."""
    registry = registry or build_registry()
    by_value = {source.value: source for source in MetricSource}
    return [
        registry.lookup(by_value[source_value], name)
        for source_value, name in TABLE1_ROWS
    ]
