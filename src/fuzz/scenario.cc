// wave-domain: harness
#include "fuzz/scenario.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <sstream>

#include "sim/random.h"

namespace wave::fuzz {

namespace {

using sim::inject::FaultKind;
using sim::inject::FaultKindName;
using sim::inject::FaultSpec;

/**
 * The scalar fields, in artifact order. Faults serialize separately.
 * A `nonzero` field cannot run at zero: no cores to schedule, no
 * arrivals, or a watchdog that never advances time.
 */
struct Field {
    const char* key;
    std::uint64_t Scenario::* member;
    bool nonzero = false;
};

constexpr Field kFields[] = {
    {"seed", &Scenario::seed},
    {"worker_cores", &Scenario::worker_cores, true},
    {"num_workers", &Scenario::num_workers, true},
    {"nic_speed_permille", &Scenario::nic_speed_permille},
    {"policy", &Scenario::policy},
    {"opt_bits", &Scenario::opt_bits},
    {"prestage", &Scenario::prestage},
    {"prestage_min_depth", &Scenario::prestage_min_depth},
    {"poll_mode", &Scenario::poll_mode},
    {"slice_us", &Scenario::slice_us},
    {"upi_fabric", &Scenario::upi_fabric},
    {"mmio_read_ns", &Scenario::mmio_read_ns},
    {"posted_visibility_ns", &Scenario::posted_visibility_ns},
    {"msix_end_to_end_ns", &Scenario::msix_end_to_end_ns},
    {"dma_setup_ns", &Scenario::dma_setup_ns},
    {"offered_rps", &Scenario::offered_rps, true},
    {"get_permille", &Scenario::get_permille},
    {"get_service_ns", &Scenario::get_service_ns},
    {"range_service_ns", &Scenario::range_service_ns},
    {"warmup_ns", &Scenario::warmup_ns},
    {"measure_ns", &Scenario::measure_ns},
    {"drain_ns", &Scenario::drain_ns},
    {"watchdog_timeout_ns", &Scenario::watchdog_timeout_ns},
    {"watchdog_check_ns", &Scenario::watchdog_check_ns, true},
    {"require_progress", &Scenario::require_progress},
};

constexpr FaultKind kAllKinds[] = {
    FaultKind::kAgentStall,    FaultKind::kAgentCrash,
    FaultKind::kMsixDelay,     FaultKind::kMsixDrop,
    FaultKind::kDmaDelay,      FaultKind::kMmioDelay,
    FaultKind::kCommitFailBurst, FaultKind::kNicSlowdown,
    FaultKind::kSwapDelay,     FaultKind::kDoubleCommitBug,
};

bool
ParseKind(const std::string& name, FaultKind* out)
{
    for (FaultKind kind : kAllKinds) {
        if (name == FaultKindName(kind)) {
            *out = kind;
            return true;
        }
    }
    return false;
}

/**
 * Parses a whole token as an unsigned decimal. Unlike `>>` into
 * uint64_t or std::stoull, a sign is an error rather than a wrap.
 */
bool
ParseCount(const std::string& token, std::uint64_t* out)
{
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, *out);
    return ec == std::errc() && ptr == end;
}

/** Inclusive uniform draw, as a plain helper over the xoshiro stream. */
std::uint64_t
Draw(sim::Rng& rng, std::uint64_t lo, std::uint64_t hi)
{
    return rng.NextInRange(lo, hi);
}

}  // namespace

Scenario
GenerateScenario(std::uint64_t seed, const GenLimits& limits)
{
    Scenario s;
    s.seed = seed;

    // Topology + workload shape come from the "scenario" stream; the
    // fault schedule from the "fault" stream. Same seed, different
    // max_faults -> identical deployment, different fault list.
    sim::Rng scen(sim::StreamSeed(seed, "scenario"));
    sim::Rng fault(sim::StreamSeed(seed, "fault"));

    s.worker_cores = Draw(scen, 2, 6);
    s.num_workers = s.worker_cores * Draw(scen, 2, 6);
    s.nic_speed_permille = Draw(scen, 400, 1000);
    s.policy = Draw(scen, 0, 2);
    s.opt_bits = Draw(scen, 0, 7);
    s.prestage = Draw(scen, 0, 1);
    s.prestage_min_depth = Draw(scen, 2, 12);
    s.poll_mode = Draw(scen, 0, 4) == 0 ? 1 : 0;  // poll is the rarer mode
    s.slice_us = Draw(scen, 20, 60);
    s.upi_fabric = Draw(scen, 0, 9) == 0 ? 1 : 0;

    // Perturb a subset of the PCIe constants around their Table 2
    // values; zero means "leave the baseline alone".
    if (Draw(scen, 0, 1) != 0u) s.mmio_read_ns = Draw(scen, 400, 1500);
    if (Draw(scen, 0, 1) != 0u) s.posted_visibility_ns = Draw(scen, 200, 900);
    if (Draw(scen, 0, 1) != 0u) s.msix_end_to_end_ns = Draw(scen, 900, 3200);
    if (Draw(scen, 0, 1) != 0u) s.dma_setup_ns = Draw(scen, 500, 2500);

    s.get_permille = Draw(scen, 850, 1000);
    s.get_service_ns = Draw(scen, 4'000, 20'000);
    s.range_service_ns = Draw(scen, 50'000, 400'000);

    // Offered load sits well below saturation so "everything completes
    // during the drain" is a property of a correct model, not of luck:
    // capacity ~= cores / mean_service, and we draw 20-60% of it.
    const std::uint64_t mean_service_ns =
        (s.get_permille * s.get_service_ns +
         (1000 - s.get_permille) * s.range_service_ns) / 1000;
    const std::uint64_t capacity_rps =
        s.worker_cores * 1'000'000'000ull / std::max<std::uint64_t>(
            mean_service_ns, 1);
    const std::uint64_t util_permille = Draw(scen, 200, 600);
    s.offered_rps =
        std::max<std::uint64_t>(capacity_rps * util_permille / 1000, 5'000);

    s.warmup_ns = Draw(scen, 1, 4) * 1'000'000ull;
    s.measure_ns = Draw(scen, 8, 16) * 1'000'000ull;
    s.watchdog_timeout_ns = Draw(scen, 3, 8) * 1'000'000ull;
    s.watchdog_check_ns = 500'000;
    // The drain must cover a watchdog expiry plus fallback catch-up on
    // the backlog a wedged agent accumulated.
    s.drain_ns = 4 * s.watchdog_timeout_ns + 20'000'000ull;
    s.require_progress = 1;

    const std::uint64_t nfaults =
        limits.max_faults == 0 ? 0 : Draw(fault, 0, limits.max_faults);
    const std::uint64_t lo = s.warmup_ns;
    const std::uint64_t hi = s.warmup_ns + (s.measure_ns * 3) / 4;
    bool crashed = false;
    for (std::uint64_t i = 0; i < nfaults; ++i) {
        FaultSpec f;
        // Weighted kind draw: fabric windows are common, deployment
        // actions rarer, the planted bug only when explicitly enabled.
        const std::uint64_t roll = Draw(fault, 0, 99);
        if (limits.enable_bug_faults && roll < 25) {
            f.kind = FaultKind::kDoubleCommitBug;
        } else if (roll < 40) {
            f.kind = FaultKind::kMmioDelay;
        } else if (roll < 55) {
            f.kind = FaultKind::kMsixDelay;
        } else if (roll < 65) {
            f.kind = FaultKind::kDmaDelay;
        } else if (roll < 75) {
            f.kind = FaultKind::kCommitFailBurst;
        } else if (roll < 83) {
            f.kind = FaultKind::kNicSlowdown;
        } else if (roll < 91) {
            f.kind = FaultKind::kAgentStall;
        } else if (roll < 96 && !crashed) {
            f.kind = FaultKind::kAgentCrash;
        } else if (s.poll_mode != 0u) {
            // Dropped interrupts are only recoverable when idle cores
            // poll; with sleeping cores a lost kick can strand work,
            // which would be a (true) model property, not a bug.
            f.kind = FaultKind::kMsixDrop;
        } else {
            f.kind = FaultKind::kMsixDelay;
        }

        f.at = static_cast<sim::TimeNs>(Draw(fault, lo, hi));
        switch (f.kind) {
          case FaultKind::kAgentCrash:
            f.duration = 0;
            f.param = 0;
            crashed = true;
            break;
          case FaultKind::kAgentStall:
            // Either a transient hiccup (watchdog survives) or a wedge
            // (watchdog must fire and fall back).
            f.duration = Draw(fault, 0, 1) != 0u
                             ? Draw(fault, 1, s.watchdog_timeout_ns / 3)
                             : 3 * s.watchdog_timeout_ns;
            f.param = 0;
            break;
          case FaultKind::kNicSlowdown:
            f.duration = Draw(fault, 200'000, 3'000'000);
            f.param = Draw(fault, 250, 800);  // permille of base speed
            break;
          case FaultKind::kCommitFailBurst:
            f.duration = Draw(fault, 50'000, 1'000'000);
            f.param = 0;
            break;
          case FaultKind::kMsixDrop:
            f.duration = Draw(fault, 50'000, 500'000);
            f.param = 0;
            break;
          case FaultKind::kDoubleCommitBug:
            f.duration = Draw(fault, 200'000, 2'000'000);
            f.param = 0;
            break;
          default:  // window delay kinds
            f.duration = Draw(fault, 50'000, 2'000'000);
            f.param = Draw(fault, 1'000, 20'000);
            break;
        }
        s.faults.push_back(f);
    }
    std::sort(s.faults.begin(), s.faults.end(),
              [](const FaultSpec& a, const FaultSpec& b) {
                  return a.at < b.at;
              });
    return s;
}

std::string
ScenarioToString(const Scenario& s)
{
    std::ostringstream out;
    out << "# wave_fuzz replay artifact\n";
    for (const Field& f : kFields) {
        out << f.key << ' ' << s.*(f.member) << '\n';
    }
    for (const FaultSpec& f : s.faults) {
        out << "fault " << FaultKindName(f.kind) << " at=" << f.at.ns()
            << " dur=" << f.duration.ns() << " param=" << f.param
            << '\n';
    }
    return out.str();
}

bool
ScenarioFromString(const std::string& text, Scenario* out,
                   std::string* error)
{
    Scenario s;
    std::istringstream in(text);
    std::string line;
    std::size_t lineno = 0;
    auto fail = [&](const std::string& what) {
        if (error != nullptr) {
            *error = "line " + std::to_string(lineno) + ": " + what;
        }
        return false;
    };
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#') continue;
        std::istringstream ls(line);
        std::string key;
        ls >> key;
        if (key == "fault") {
            std::string kind_name;
            ls >> kind_name;
            FaultSpec f;
            if (!ParseKind(kind_name, &f.kind)) {
                return fail("unknown fault kind '" + kind_name + "'");
            }
            std::string tok;
            while (ls >> tok) {
                const std::size_t eq = tok.find('=');
                if (eq == std::string::npos) {
                    return fail("malformed fault attribute '" + tok + "'");
                }
                const std::string attr = tok.substr(0, eq);
                std::uint64_t value = 0;
                if (!ParseCount(tok.substr(eq + 1), &value)) {
                    return fail("bad number in '" + tok + "'");
                }
                if (attr == "at") {
                    f.at = static_cast<sim::TimeNs>(value);
                } else if (attr == "dur") {
                    f.duration = static_cast<sim::DurationNs>(value);
                } else if (attr == "param") {
                    f.param = value;
                } else {
                    return fail("unknown fault attribute '" + attr + "'");
                }
            }
            s.faults.push_back(f);
            continue;
        }
        const Field* field = nullptr;
        for (const Field& candidate : kFields) {
            if (key == candidate.key) {
                field = &candidate;
                break;
            }
        }
        if (field == nullptr) return fail("unknown key '" + key + "'");
        std::string token;
        if (!(ls >> token)) return fail("missing value for '" + key + "'");
        std::uint64_t value = 0;
        if (!ParseCount(token, &value)) {
            return fail("bad value '" + token + "' for '" + key + "'");
        }
        if (field->nonzero && value == 0) {
            return fail("'" + key + "' must be nonzero");
        }
        s.*(field->member) = value;
    }
    *out = std::move(s);
    return true;
}

bool
SaveScenario(const Scenario& s, const std::string& path)
{
    std::ofstream out(path);
    if (!out) return false;
    out << ScenarioToString(s);
    return static_cast<bool>(out);
}

bool
LoadScenario(const std::string& path, Scenario* out, std::string* error)
{
    std::ifstream in(path);
    if (!in) {
        if (error != nullptr) *error = "cannot open " + path;
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return ScenarioFromString(buf.str(), out, error);
}

}  // namespace wave::fuzz
