/**
 * @file
 * Calibrated PCIe interconnect parameters.
 *
 * Defaults reproduce Table 2 of the paper (measured on an Intel Mount
 * Evans IPU attached to an AMD Zen3 host) plus the secondary constants
 * those numbers imply. Every latency in the simulated transport stack
 * comes from this struct, so experiments can swap interconnects (e.g.
 * the §7.3.3 UPI emulation) by swapping configs.
 */
// wave-domain: pcie
#pragma once

#include "sim/time.h"

namespace wave::pcie {

using sim::DurationNs;

/** Interconnect latency/bandwidth model parameters. */
struct PcieConfig {
    // --- Host MMIO costs (Table 2 rows 1-2) ---

    /** Host 64-bit uncacheable MMIO read: full PCIe roundtrip. */
    DurationNs mmio_read_ns = 750;

    /** Host 64-bit uncacheable/posted MMIO write: CPU-side cost only. */
    DurationNs mmio_write_ns = 50;

    /** One-way delay until a posted host write is visible in NIC DRAM. */
    DurationNs posted_visibility_ns = 400;

    // --- Write-combining / caching refinements (§5.3.1-5.3.2) ---

    /** Per-64-bit store into the write-combining buffer. */
    DurationNs wc_store_ns = 2;

    /** sfence: drain the WC buffer onto PCIe. */
    DurationNs sfence_ns = 60;

    /** Host cache hit on a previously-fetched write-through line. */
    DurationNs cache_hit_ns = 2;

    /** clflush of one line from the host cache. */
    DurationNs clflush_ns = 40;

    // --- SmartNIC-side access to its own DRAM (§5.3.1) ---

    /** NIC 64-bit access when the region is mapped uncacheable. */
    DurationNs nic_uncached_access_ns = 95;

    /** NIC 64-bit access when mapped write-back (local coherent DRAM). */
    DurationNs nic_wb_access_ns = 5;

    // --- MSI-X (Table 2 rows 3-6) ---

    /** NIC-side MSI-X send via direct register write. */
    DurationNs msix_send_ns = 70;

    /** NIC-side MSI-X send through the kernel (ioctl + write). */
    DurationNs msix_send_ioctl_ns = 340;

    /** Host-side interrupt entry/dispatch cost. */
    DurationNs msix_receive_ns = 350;

    /** Send-initiation to handler-entry latency, including PCIe. */
    DurationNs msix_end_to_end_ns = 1600;

    // --- DMA engine (§5.2) ---

    /** Engine latency per transfer (descriptor fetch, setup). */
    DurationNs dma_setup_ns = 1000;

    /** Doorbell cost: MMIO writes needed to kick the engine from host. */
    int dma_doorbell_writes = 2;

    /** Sustained DMA bandwidth in bytes per nanosecond (~20 GB/s). */
    double dma_bytes_per_ns = 20.0;

    /**
     * Effective-bandwidth multiplier when buffers are NOT on the
     * recipient's local NUMA node (§5.1: Neugebauer et al. report a
     * 10-20% throughput difference; Floem writes to the local node).
     */
    double dma_remote_numa_factor = 0.85;

    // --- Interconnect semantics ---

    /**
     * True for coherent interconnects (CXL/UPI/NVLink, §7.3.3): remote
     * stores invalidate host-cached lines in hardware, so the software
     * clflush protocol is unnecessary, and cacheable mappings are legal.
     */
    bool coherent = false;

    /** Cache line size used by the WT cache and WC buffer models. */
    static constexpr std::size_t kLineSize = 64;

    /** Word size for MMIO cost accounting. */
    static constexpr std::size_t kWordSize = 8;

    /**
     * Coherent UPI-socket emulation preset (§7.3.3): the "SmartNIC" is
     * the other socket of a 2-socket host. Latencies drop by roughly
     * the PCIe-vs-UPI gap and coherence is handled in hardware.
     */
    static PcieConfig
    Upi()
    {
        PcieConfig cfg;
        cfg.mmio_read_ns = 220;
        cfg.mmio_write_ns = 25;
        cfg.posted_visibility_ns = 110;
        cfg.wc_store_ns = 2;
        cfg.sfence_ns = 40;
        cfg.cache_hit_ns = 2;
        cfg.clflush_ns = 0;
        cfg.nic_uncached_access_ns = 45;
        cfg.nic_wb_access_ns = 5;
        cfg.msix_send_ns = 60;
        cfg.msix_send_ioctl_ns = 200;
        cfg.msix_receive_ns = 350;
        cfg.msix_end_to_end_ns = 950;
        cfg.dma_setup_ns = 600;
        cfg.dma_bytes_per_ns = 30.0;
        cfg.coherent = true;
        return cfg;
    }
};

}  // namespace wave::pcie
