/**
 * @file
 * Composable datapath stages (wave::offload).
 *
 * A StageChain applies an ordered list of StageKinds to each packet,
 * charging the calibrated cost from offload/costs.h per application and
 * running the genuine kernel from offload/kernels.h on the packet's
 * bytes/metadata. The chain holds all kernel state (ACL table,
 * connection table, AES schedule, scanner automaton, sketches) in one
 * place so the pipeline can consolidate any stage subset onto any core
 * — the stage-placement axis the Meili/Mulan line of work sweeps.
 *
 * Only the firewall terminates a packet early (deny → the packet exits
 * the chain); every other stage annotates and passes through. With a
 * deny-free ACL, per-stage packet counts are invariant under chain
 * reordering — the property test in tests/offload_test.cc pins that.
 *
 * Construction allocates (tables, automaton, sketch arrays, connection
 * table reserve); Process()/RunStage() are allocation-free once the
 * connection table has seen the flow universe.
 */
// wave-domain: neutral
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "offload/costs.h"
#include "offload/kernels.h"
#include "offload/packet.h"
#include "sim/time.h"

namespace wave::offload {

/** The stage catalog (ROADMAP item 3, borrowed from Meili/Mulan). */
enum class StageKind : std::uint8_t {
    kFirewall,      ///< ACL first-match over the 5-tuple
    kLoadBalancer,  ///< connection table + Toeplitz backend pick
    kHttpParser,    ///< request-line and header scan
    kAesCtr,        ///< AES-128-CTR over payload bytes
    kSha256,        ///< SHA-256 over payload bytes
    kRegexScan,     ///< literal-automaton (Aho-Corasick) pre-filter
    kMonitor,       ///< count-min sketch + HyperLogLog update
};

inline constexpr std::array<StageKind, 7> kAllStages = {
    StageKind::kFirewall,  StageKind::kLoadBalancer,
    StageKind::kHttpParser, StageKind::kAesCtr,
    StageKind::kSha256,     StageKind::kRegexScan,
    StageKind::kMonitor,
};

const char* StageName(StageKind kind);

/** Per-stage counters (all stages count packets/bytes seen). */
struct StageStats {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    std::uint64_t denied = 0;        ///< firewall
    std::uint64_t parse_errors = 0;  ///< HTTP parser
    std::uint64_t scan_hits = 0;     ///< regex scan (total occurrences)
    std::uint64_t new_flows = 0;     ///< load balancer (table inserts)
    std::uint64_t sticky_hits = 0;   ///< load balancer (table hits)
};

/** Chain configuration: stage order and connection-table size. */
struct StageChainConfig {
    /** Stage order; duplicates are allowed (a stage can run twice). */
    std::vector<StageKind> stages{kAllStages.begin(), kAllStages.end()};

    /** Connection-table reserve (flows expected in steady state). */
    std::size_t expected_flows = 4096;
};

/** The default deny rules the built-in ACL ships with. */
std::vector<AclRule> BuildDefaultAcl();

/** The built-in signature set for the scan stage. */
std::vector<std::string> BuildDefaultSignatures();

/** An ordered, stateful application of the stage catalog. */
class StageChain {
  public:
    explicit StageChain(const StageChainConfig& config);

    /**
     * Runs stages [begin, end) of the configured order on @p p and
     * returns the summed reference-ns cost. Sets @p *alive false when
     * the firewall denied the packet (the packet exits the chain).
     */
    sim::DurationNs ProcessRange(Packet& p, std::size_t begin,
                                 std::size_t end, bool* alive);

    /** Full-chain convenience: ProcessRange over every stage. */
    sim::DurationNs
    Process(Packet& p, bool* alive)
    {
        return ProcessRange(p, 0, order_.size(), alive);
    }

    std::size_t NumStages() const { return order_.size(); }

    const StageStats& Stats(StageKind kind) const
    {
        return stats_[static_cast<std::size_t>(kind)];
    }

    std::size_t ConnectionCount() const { return connections_.size(); }

  private:
    /** Applies one stage; returns false when the packet is terminated. */
    bool RunStage(StageKind kind, Packet& p);

    StageStats& MutableStats(StageKind kind)
    {
        return stats_[static_cast<std::size_t>(kind)];
    }

    std::vector<StageKind> order_;

    AclTable acl_;
    ToeplitzKey rss_key_;
    // Flow key -> backend. Never iterated (W205); reserved up front so
    // steady-state lookups and warm-universe inserts stay rehash-free.
    std::unordered_map<std::uint64_t, std::uint16_t> connections_;
    Aes128 aes_;
    SignatureScanner scanner_;
    CountMinSketch cms_;
    HyperLogLog hll_;

    std::array<StageStats, 7> stats_{};
};

}  // namespace wave::offload
