"""Timing calibration: every constant is derived from a paper measurement.

The Grayskull simulator is *functionally* exact (bytes really move) but its
*timing* comes from a linear cost model whose parameters are backed out of
the paper's own tables.  Each constant below cites its derivation; the
arithmetic is reproduced in the docstrings and checked by
``tests/perfmodel/test_calibration.py`` so the provenance cannot silently
rot.

Derivation summary (problem size for Tables III–VII: 4096×4096 int32 =
67.11 MB read + 67.11 MB written; 16.78 M requests at 4-byte batches):

* ``read_issue``       Table III, 4 B no-sync read:  1.761 s / 16.78 M ≈ 105 ns
* ``read_latency``     Table III, 4 B sync read:    12.659 s / 16.78 M ≈ 754 ns
                       total per request, minus the 105 ns issue ⇒ 650 ns
                       of *exposed* completion latency
* ``write_issue``      Table III, 4 B no-sync write: 0.411 s / 16.78 M ≈ 24.5 ns
* ``write_latency``    Table III, 4 B sync write:    2.873 s / 16.78 M ≈ 171 ns
                       total per request, minus issue ⇒ 146 ns exposed
* ``noncontig_read``   Table IV vs III, 4 B no-sync: (1.969−1.761) s / 16.78 M ≈ 12 ns
* ``noncontig_write``  Table IV vs III, 64 B no-sync: (0.074−0.027) s / 1.05 M ≈ 45 ns
                       (the 4 B row suggests ≈18 ns; the 64 B row — the
                       size class the Jacobi writer actually uses — and
                       Table II's write-only throughput both point to
                       ≈45 ns, so we take the mid-size calibration)
* ``noc_link_bw``      Table III, 16384 B row: 67.11 MB / 0.011 s ≈ 6.1 GB/s
                       per data-mover direction (single-bank stream)
* ``noc_link_bw_interleaved``  Table VI repl-32, 32 K pages vs none:
                       0.079 s vs 0.162 s ⇒ ≈2× ⇒ ≈12.2 GB/s (bursts from
                       multiple banks overlap in the DMA engine)
* ``dram_bank_bw``     Table VII, ≥2 cores on one bank: 134.2 MB / 0.005 s
                       ≈ 26.8 GB/s ⇒ 25.6 GB/s nominal per bank
* ``noc_column_bw``    Table VIII, 108 cores over 12 grid columns:
                       22.06 GPt/s × 4 B/pt ≈ 88 GB/s / 12 ≈ 7.3 GB/s per
                       shared column uplink to the DRAM edge
* ``overlap_loss``     Table VIII, 1 core: 1.06 GPt/s measured vs the
                       1.387 GPt/s compute ceiling ⇒ the reader/compute/
                       writer pipeline loses ≈25 % of the non-critical
                       stage time to CB stalls
* ``replay_coalesce``  Table V, repl 32: 32 × 67.11 MB / 6.1 GB/s = 0.352 s
                       predicted vs 0.185 s measured ⇒ re-reads of recent
                       rows cost ×0.55 (DRAM row-buffer / burst coalescing)
* ``page_overhead_read/write``  Table VI repl-0, 1 K pages: 0.038 s vs
                       0.010 s ⇒ ≈470 ns extra per page-sized read burst,
                       ≈150 ns per write burst
* ``memcpy_rate``      Section V memcpy experiment: 67.11 MB / 0.106 s ≈ 633 MB/s
* ``memcpy_call``      Table II `memcpy only` 0.014 GPt/s ⇒ 18.7 ms/iter for
                       32768 strided 64-byte row copies ⇒ ≈450 ns/call + rate
* ``fpu_op``           Table II `compute only` 1.387 GPt/s ⇒ 738 ns/batch for
                       8 tile ops (4 math + 4 pack) after 135 ns skeleton ⇒ 75 ns
* ``core_loop_batch``  Table II all-off 7.574 GPt/s ⇒ 135 ns/batch pipelined
                       skeleton (CB handshakes + loop) per baby-core stage
* ``cb_op``            the compute stage of that skeleton performs ~16 CB
                       handshakes per batch (Listing 2) ⇒ 135 ns / 16 ≈ 8.5 ns
                       per reserve/push/wait/pop
* energy               Table VIII: e150 ≈50–55 W independent of active cores;
                       CPU 1657 J / 33.3 s ≈ 49.7 W single-core package,
                       588 J / 2.17 s ≈ 270 W at 24 cores ⇒ ≈45 W base +
                       ≈9.4 W per active core
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = ["CostModel", "DEFAULT_COSTS"]

NS = 1e-9
GB = 1e9
MB = 1e6


@dataclass(frozen=True)
class CostModel:
    """All timing/energy parameters of the simulated machine.

    Instances are immutable; use :meth:`with_overrides` for ablations.
    Units: seconds, bytes/second, watts.
    """

    # --- NoC / DMA request costs (data-mover core side) -----------------
    read_issue: float = 105 * NS        #: issue cost per noc_async_read
    read_latency: float = 650 * NS      #: completion latency exposed by a barrier
    write_issue: float = 24.5 * NS      #: issue cost per noc_async_write
    write_latency: float = 146 * NS     #: completion latency exposed by a barrier
    noncontig_read: float = 12 * NS     #: extra per non-contiguous read request
    noncontig_write: float = 45 * NS    #: extra per non-contiguous write request

    # --- bandwidths ------------------------------------------------------
    noc_link_bw: float = 6.1 * GB           #: per data-mover direction
    noc_link_bw_interleaved: float = 12.2 * GB  #: reads striped over banks
    dram_bank_bw: float = 25.6 * GB          #: per-bank service rate
    noc_column_bw: float = 7.3 * GB         #: shared per-grid-column uplink to DRAM
    noc_aggregate_bw: float = 204.8 * GB    #: all 8 banks (8 × 25.6 GB/s)
    overlap_loss: float = 0.25              #: pipeline imperfection: iter ≈ max + loss·(sum−max)

    # --- special-case request behaviour ----------------------------------
    replay_coalesce: float = 0.55       #: link-cost factor for re-read rows
    page_overhead_read: float = 470 * NS   #: per page-split read burst
    page_overhead_write: float = 150 * NS  #: per page-split write burst

    # --- baby-core software costs ----------------------------------------
    memcpy_rate: float = 633 * MB       #: bytes/s for SRAM→CB copies
    memcpy_call: float = 450 * NS       #: fixed overhead per memcpy call
    memcpy_misaligned_factor: float = 2.0  #: rate penalty for non-word-aligned copies
    dram_turnaround: float = 200 * NS   #: bank read↔write direction-flip stall
    fpu_op: float = 75 * NS             #: per tile math or pack operation
    core_loop_batch: float = 135 * NS   #: per-batch kernel skeleton (CB ops, loop)
    cb_op: float = 8.5 * NS             #: one CB handshake (reserve/push/wait/pop)
    semaphore_op: float = 50 * NS       #: semaphore set/inc/wait round

    # --- device geometry / clocks ----------------------------------------
    clock_hz: float = 1.2e9             #: Tensix core clock
    dram_alignment: int = 32            #: 256-bit DRAM access alignment (bytes)
    n_dram_banks: int = 8
    sram_bytes: int = 1 << 20           #: 1 MB per Tensix core
    dram_bytes: int = 8 << 30           #: 8 GiB per card
    grid_width: int = 12                #: Tensix grid columns (worker region)
    grid_height: int = 10               #: rows; 120 cores total
    n_worker_cores: int = 108           #: 12 of 120 are storage-only
    max_interleave_page: int = 64 << 10  #: tt-metal caps pages at 64 KB

    # --- host link ---------------------------------------------------------
    pcie_bw: float = 16.0 * GB          #: PCIe Gen4 x8 effective
    pcie_latency: float = 5e-6
    #: host-DRAM copy bandwidth for staging halo strips between per-card
    #: PCIe buffers (a single host core's streaming memcpy; the FFT halo
    #: work this follows stages card→host→card through exactly one such
    #: copy per face strip)
    host_memcpy_bw: float = 12.0 * GB
    host_memcpy_call: float = 1e-6      #: fixed overhead per host staging copy

    # --- card-to-card link -------------------------------------------------
    #: inter-card halo bandwidth; 0 = no link (the e150 has no remote
    #: memory, so its multi-card runs exchange no halos)
    card_link_bw: float = 0.0
    card_link_latency: float = 0.0      #: per halo message on the card link

    # --- energy ------------------------------------------------------------
    card_power_idle_w: float = 47.0     #: e150 at rest
    card_power_base_w: float = 50.0     #: e150 running, few cores
    card_power_span_w: float = 5.0      #: extra at all 108 workers (50→55 W)

    # --- misc -----------------------------------------------------------
    print_server_slowdown: float = 20.0  #: factor when the debug print server is on
    dprint_cost: float = 15e-6          #: per DPRINT message with the server attached
                                        #: (~20x slowdown when printing per batch,
                                        #: matching the paper's observation)

    def with_overrides(self, **kw) -> "CostModel":
        """A copy with some parameters replaced (for ablation studies)."""
        return replace(self, **kw)

    # -- derived helpers ---------------------------------------------------
    def card_power_w(self, active_cores: int) -> float:
        """TT-SMI-style power: roughly constant 50–55 W regardless of cores.

        The paper: "the power draw of the e150 is roughly constant, between
        50 and 55 Watts, regardless of the number of Tensix cores in use".
        """
        if active_cores <= 0:
            return self.card_power_idle_w
        frac = min(active_cores, self.n_worker_cores) / self.n_worker_cores
        return self.card_power_base_w + self.card_power_span_w * frac

    def read_request_time(self, nbytes: int, *, contiguous: bool = True,
                          sync: bool = False, replay: bool = False,
                          interleaved: bool = False, pages: int = 1) -> float:
        """Data-mover-side time for one read request of ``nbytes``.

        ``sync`` adds the exposed round-trip latency (barrier immediately
        after the request); ``replay`` applies row-buffer coalescing for
        re-reads; ``pages`` > 1 charges the per-page split overhead of an
        interleaved buffer.
        """
        bw = self.noc_link_bw_interleaved if interleaved else self.noc_link_bw
        t = self.read_issue + nbytes / bw
        if replay:
            t = self.read_issue + (nbytes / bw) * self.replay_coalesce
        if not contiguous:
            t += self.noncontig_read
        if pages > 1:
            t += (pages - 1) * self.page_overhead_read
        elif interleaved:
            t += self.page_overhead_read * 0.0  # single page: no split cost
        if sync:
            t += self.read_latency
        return t

    def write_request_time(self, nbytes: int, *, contiguous: bool = True,
                           sync: bool = False, interleaved: bool = False,
                           pages: int = 1) -> float:
        """Data-mover-side time for one write request of ``nbytes``."""
        t = self.write_issue + nbytes / self.noc_link_bw
        if not contiguous:
            t += self.noncontig_write
        if pages > 1:
            t += (pages - 1) * self.page_overhead_write
        if sync:
            t += self.write_latency
        return t

    def memcpy_time(self, nbytes: int, calls: int = 1,
                    misaligned: bool = False) -> float:
        """Baby-core software copy between SRAM regions / CBs.

        ``misaligned`` models non-word-aligned source/destination pointers
        (the unaligned-read slack leaves the payload at a 2-byte offset),
        which the RISC-V baby cores handle at roughly half rate.
        """
        rate = self.memcpy_rate
        if misaligned:
            rate /= self.memcpy_misaligned_factor
        return calls * self.memcpy_call + nbytes / rate


#: The calibrated model used everywhere unless an experiment overrides it.
DEFAULT_COSTS = CostModel()
