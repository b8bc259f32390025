// wave-domain: neutral
#include "offload/stage.h"

#include "sim/logging.h"

namespace wave::offload {

namespace {

/** The fixed AES key/IV the encrypt stage uses (identity per chain). */
constexpr std::array<std::uint8_t, 16> kStageAesKey = {
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
    0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};

/** The calibrated per-stage costs. */
constexpr OffloadCosts kCosts{};

/** Load-balancer backend pool size. */
constexpr std::uint16_t kNumBackends = 8;

/** Firewall default action when no rule matches. */
constexpr bool kDefaultAllow = true;

}  // namespace

const char*
StageName(StageKind kind)
{
    switch (kind) {
      case StageKind::kFirewall:     return "firewall";
      case StageKind::kLoadBalancer: return "load_balancer";
      case StageKind::kHttpParser:   return "http_parser";
      case StageKind::kAesCtr:       return "aes_ctr";
      case StageKind::kSha256:       return "sha256";
      case StageKind::kRegexScan:    return "regex_scan";
      case StageKind::kMonitor:      return "monitor";
    }
    return "unknown";
}

std::vector<AclRule>
BuildDefaultAcl()
{
    // A plausible edge ACL: drop a blocklisted /16, drop telnet and a
    // debug port range, allow an allowlisted management /24 ahead of
    // the port denies, default-allow the rest.
    std::vector<AclRule> rules;
    rules.push_back(AclRule{.src_addr = 0x0a630000,  // allow 10.99.0.0/24
                            .src_mask = 0xffffff00,
                            .allow = true});
    rules.push_back(AclRule{.src_addr = 0xc6120000,  // deny 198.18.0.0/16
                            .src_mask = 0xffff0000,
                            .allow = false});
    rules.push_back(AclRule{.dst_port_lo = 23,  // deny telnet
                            .dst_port_hi = 23,
                            .allow = false});
    rules.push_back(AclRule{.dst_port_lo = 9000,  // deny debug range
                            .dst_port_hi = 9099,
                            .proto = 6,
                            .allow = false});
    return rules;
}

std::vector<std::string>
BuildDefaultSignatures()
{
    // IDS-style literal signatures: worm shellcode markers, traversal,
    // and scripting probes — the classic Snort literal pre-filter set.
    return {"/etc/passwd", "cmd.exe", "<script>", "../..",
            "SELECT *",    "\x90\x90\x90\x90"};
}

StageChain::StageChain(const StageChainConfig& config)
    : order_(config.stages),
      acl_(BuildDefaultAcl(), kDefaultAllow),
      rss_key_(DefaultRssKey()),
      aes_(kStageAesKey),
      scanner_(BuildDefaultSignatures()),
      cms_(/*width_log2=*/12, /*depth=*/4),
      hll_(/*precision_bits=*/10)
{
    WAVE_ASSERT(!order_.empty(), "stage chain with no stages");
    connections_.reserve(config.expected_flows);
}

// wave-hot: begin
namespace {

/** Calibrated cost entry for @p kind. */
const StageCost&
CostOf(StageKind kind)
{
    switch (kind) {
      case StageKind::kFirewall:     return kCosts.firewall;
      case StageKind::kLoadBalancer: return kCosts.load_balancer;
      case StageKind::kHttpParser:   return kCosts.http_parser;
      case StageKind::kAesCtr:       return kCosts.aes_ctr;
      case StageKind::kSha256:       return kCosts.sha256;
      case StageKind::kRegexScan:    return kCosts.regex_scan;
      case StageKind::kMonitor:      return kCosts.monitor;
    }
    return kCosts.firewall;
}

}  // namespace

sim::DurationNs
StageChain::ProcessRange(Packet& p, std::size_t begin, std::size_t end,
                         bool* alive)
{
    *alive = true;
    sim::DurationNs total = 0;
    for (std::size_t i = begin; i < end; ++i) {
        const StageKind kind = order_[i];
        total += StageCostNs(CostOf(kind), p.payload_len);
        if (!RunStage(kind, p)) {
            *alive = false;
            break;
        }
    }
    return total;
}

bool
StageChain::RunStage(StageKind kind, Packet& p)
{
    StageStats& st = MutableStats(kind);
    ++st.packets;
    st.bytes += p.payload_len;
    switch (kind) {
      case StageKind::kFirewall: {
        const AclTable::Verdict v = acl_.Lookup(p.tuple);
        p.acl_allowed = v.allow ? 1 : 0;
        if (!v.allow) {
            ++st.denied;
            return false;
        }
        return true;
      }
      case StageKind::kLoadBalancer: {
        const std::uint64_t key = FlowKey(p.tuple);
        const auto it = connections_.find(key);
        if (it != connections_.end()) {
            p.backend = it->second;  // flow stickiness
            ++st.sticky_hits;
        } else {
            const std::uint32_t h = ToeplitzHashTuple(rss_key_, p.tuple);
            p.backend = static_cast<std::uint16_t>(h % kNumBackends);
            connections_.emplace(key, p.backend);
            ++st.new_flows;
        }
        return true;
      }
      case StageKind::kHttpParser: {
        HttpRequest req;
        p.http_ok =
            ParseHttpRequest(p.payload.data(), p.payload_len, &req) ? 1 : 0;
        if (p.http_ok == 0) ++st.parse_errors;
        return true;
      }
      case StageKind::kAesCtr: {
        std::array<std::uint8_t, 16> ctr{};
        for (int b = 0; b < 8; ++b) {
            ctr[static_cast<std::size_t>(b)] =
                static_cast<std::uint8_t>(p.id >> (56 - 8 * b));
        }
        aes_.CtrCrypt(ctr, p.payload.data(), p.payload_len);
        return true;
      }
      case StageKind::kSha256: {
        const auto digest = Sha256::Digest(p.payload.data(), p.payload_len);
        p.digest = (static_cast<std::uint32_t>(digest[0]) << 24) |
                   (static_cast<std::uint32_t>(digest[1]) << 16) |
                   (static_cast<std::uint32_t>(digest[2]) << 8) |
                   static_cast<std::uint32_t>(digest[3]);
        return true;
      }
      case StageKind::kRegexScan: {
        const std::uint32_t hits =
            scanner_.Scan(p.payload.data(), p.payload_len);
        p.scan_hits =
            static_cast<std::uint16_t>(hits > 0xffff ? 0xffff : hits);
        st.scan_hits += hits;
        return true;
      }
      case StageKind::kMonitor: {
        const std::uint64_t key = FlowKey(p.tuple);
        cms_.Add(key);
        hll_.Add(Mix64(key));
        return true;
      }
    }
    return true;
}
// wave-hot: end

}  // namespace wave::offload
