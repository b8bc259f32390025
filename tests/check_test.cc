/**
 * @file
 * The wave::check correctness-tooling layer itself.
 *
 * Two kinds of properties are pinned down here:
 *
 *   1. The coherence checker finds seeded protocol bugs — a host that
 *      re-reads a write-through-cached line the NIC has since written,
 *      without the clflush the §5.3.2 software-coherence protocol
 *      requires — and reports exactly the offending access pair. Clean
 *      runs of the same flows (with the clflush) report nothing, and
 *      the full Wave runtime stack stays violation-free end to end.
 *
 *   2. The determinism auditor: the simulator's event-stream FNV
 *      fingerprint is reproducible, keyed same-timestamp events
 *      execute in key order regardless of insertion order, and the
 *      tie audit counts unkeyed same-timestamp insertions.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "check/coherence.h"
#include "check/fnv.h"
#include "pcie/config.h"
#include "pcie/dma.h"
#include "pcie/mmio.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace wave {
namespace {

using check::CoherenceChecker;
using check::Domain;
using check::ViolationKind;

struct Fabric {
    sim::Simulator sim;
    pcie::PcieConfig config;
    pcie::NicDram dram{sim, config, 4096};
    CoherenceChecker checker{sim};

    Fabric() { dram.AttachChecker(&checker); }
};

/** Runs a coroutine to completion on the fixture simulator. */
template <typename MakeTask>
void
RunToCompletion(sim::Simulator& sim, MakeTask make_task)
{
    sim.Spawn(make_task());
    sim.Run();
}

// --- Seeded coherence bugs -------------------------------------------

TEST(CoherenceChecker, MissingClflushAcrossDomainsIsReportedOnce)
{
    Fabric f;
    pcie::HostMmioMapping host(f.dram, pcie::PteType::kWriteThrough);
    pcie::NicLocalMapping nic(f.dram, pcie::PteType::kWriteBack);

    RunToCompletion(f.sim, [&]() -> sim::Task<> {
        std::uint64_t value = 0;

        // Host caches line 0.
        co_await host.Read(0, &value, sizeof(value));

        // NIC dirties the same line in its clock domain.
        const std::uint64_t fresh = 0xfeedULL;
        co_await nic.Write(0, &fresh, sizeof(fresh));

        // SEEDED BUG: the host re-reads the line with no clflush in
        // between — a cross-domain read of a line dirty in the other
        // domain. The data served is the stale cached copy.
        co_await host.Read(0, &value, sizeof(value));
        EXPECT_NE(value, fresh);  // the model really served stale bytes
    });

    ASSERT_EQ(f.checker.Violations().size(), 1u)
        << "expected exactly the seeded access pair";
    const check::Violation& violation = f.checker.Violations().front();
    EXPECT_EQ(violation.kind, ViolationKind::kStaleCachedRead);
    EXPECT_EQ(violation.line, 0u);
    // Both access sites are identified: the racing host read...
    EXPECT_EQ(violation.read.domain, Domain::kHost);
    EXPECT_STREQ(violation.read.label, "HostMmioMapping::ReadCachedWt");
    // ...and the conflicting NIC write.
    EXPECT_EQ(violation.write.domain, Domain::kNic);
    EXPECT_STREQ(violation.write.label, "NicLocalMapping::Write");
    EXPECT_EQ(violation.write.offset, 0u);
    EXPECT_FALSE(violation.Describe().empty());
}

TEST(CoherenceChecker, ClflushBeforeReadReportsNothing)
{
    Fabric f;
    pcie::HostMmioMapping host(f.dram, pcie::PteType::kWriteThrough);
    pcie::NicLocalMapping nic(f.dram, pcie::PteType::kWriteBack);

    RunToCompletion(f.sim, [&]() -> sim::Task<> {
        std::uint64_t value = 0;
        co_await host.Read(0, &value, sizeof(value));

        const std::uint64_t fresh = 0xfeedULL;
        co_await nic.Write(0, &fresh, sizeof(fresh));

        // Correct protocol: flush the line, then read fresh data.
        co_await host.Clflush(0, sizeof(value));
        co_await host.Read(0, &value, sizeof(value));
        EXPECT_EQ(value, fresh);
    });

    EXPECT_TRUE(f.checker.Violations().empty());
    EXPECT_GT(f.checker.Stats().cache_drops, 0u);
}

TEST(CoherenceChecker, RepeatedStaleReadsDeduplicateToOneReport)
{
    Fabric f;
    pcie::HostMmioMapping host(f.dram, pcie::PteType::kWriteThrough);
    pcie::NicLocalMapping nic(f.dram, pcie::PteType::kWriteBack);

    RunToCompletion(f.sim, [&]() -> sim::Task<> {
        std::uint64_t value = 0;
        co_await host.Read(0, &value, sizeof(value));
        const std::uint64_t fresh = 1;
        co_await nic.Write(0, &fresh, sizeof(fresh));
        // A polling loop hammering the same stale line must not flood
        // the report list with copies of one race.
        for (int i = 0; i < 100; ++i) {
            co_await host.Read(0, &value, sizeof(value));
        }
    });

    EXPECT_EQ(f.checker.Violations().size(), 1u);
}

TEST(CoherenceChecker, UnflushedWriteCombiningReadIsReported)
{
    Fabric f;
    pcie::HostMmioMapping host(f.dram, pcie::PteType::kWriteCombining);
    pcie::NicLocalMapping nic(f.dram, pcie::PteType::kWriteBack);

    RunToCompletion(f.sim, [&]() -> sim::Task<> {
        // Host parks a store in the write-combining buffer and never
        // fences; the NIC then consumes the line. On hardware this is
        // the classic lost-doorbell-payload bug.
        const std::uint64_t payload = 0xabcdULL;
        co_await host.Write(0, &payload, sizeof(payload));

        std::uint64_t seen = 0;
        co_await nic.Read(0, &seen, sizeof(seen));
        EXPECT_NE(seen, payload);  // the bytes really were not there
    });

    ASSERT_EQ(f.checker.Violations().size(), 1u);
    const check::Violation& violation = f.checker.Violations().front();
    EXPECT_EQ(violation.kind, ViolationKind::kUnflushedWcRead);
    EXPECT_EQ(violation.read.domain, Domain::kNic);
    EXPECT_STREQ(violation.write.label, "HostMmioMapping::Write[WC]");
}

TEST(CoherenceChecker, SfenceBeforeNicReadReportsNothing)
{
    Fabric f;
    pcie::HostMmioMapping host(f.dram, pcie::PteType::kWriteCombining);
    pcie::NicLocalMapping nic(f.dram, pcie::PteType::kWriteBack);

    RunToCompletion(f.sim, [&]() -> sim::Task<> {
        const std::uint64_t payload = 0xabcdULL;
        co_await host.Write(0, &payload, sizeof(payload));
        co_await host.Sfence();
        // Wait out posted-write visibility, then read on the NIC side.
        co_await f.sim.Delay(f.config.posted_visibility_ns + 1);
        std::uint64_t seen = 0;
        co_await nic.Read(0, &seen, sizeof(seen));
        EXPECT_EQ(seen, payload);
    });

    EXPECT_TRUE(f.checker.Violations().empty());
    EXPECT_GT(f.checker.Stats().wc_drains, 0u);
}

TEST(CoherenceChecker, DmaLandingMarksHostCachedLinesStale)
{
    Fabric f;
    pcie::DmaEngine dma(f.sim, f.config);
    dma.AttachChecker(&f.checker);
    pcie::HostMmioMapping host(f.dram, pcie::PteType::kWriteThrough);
    pcie::MemoryRegion host_buffer(4096);

    RunToCompletion(f.sim, [&]() -> sim::Task<> {
        std::uint64_t value = 0;
        co_await host.Read(0, &value, sizeof(value));

        // DMA lands a batch over the cached line (e.g. a page-table
        // batch from the host's own DRAM).
        co_await dma.Transfer(pcie::DmaInitiator::kNic, host_buffer, 0,
                              f.dram.Backing(), 0, 64);

        // SEEDED BUG: no clflush before trusting the cached copy.
        co_await host.Read(0, &value, sizeof(value));
    });

    ASSERT_EQ(f.checker.Violations().size(), 1u);
    EXPECT_EQ(f.checker.Violations().front().kind,
              ViolationKind::kStaleCachedRead);
    EXPECT_EQ(f.checker.Violations().front().write.domain, Domain::kDma);
    EXPECT_GE(f.checker.Stats().dma_writes, 1u);
}

TEST(CoherenceChecker, FailFastPanicsOnFirstViolation)
{
    Fabric f;
    f.checker.SetFailFast(true);
    pcie::HostMmioMapping host(f.dram, pcie::PteType::kWriteThrough);
    pcie::NicLocalMapping nic(f.dram, pcie::PteType::kWriteBack);

    EXPECT_DEATH(
        {
            RunToCompletion(f.sim, [&]() -> sim::Task<> {
                std::uint64_t value = 0;
                co_await host.Read(0, &value, sizeof(value));
                const std::uint64_t fresh = 1;
                co_await nic.Write(0, &fresh, sizeof(fresh));
                co_await host.Read(0, &value, sizeof(value));
            });
        },
        "coherence violation");
}

TEST(CoherenceChecker, CoherentInterconnectNeedsNoClflush)
{
    sim::Simulator sim;
    pcie::PcieConfig config = pcie::PcieConfig::Upi();
    pcie::NicDram dram(sim, config, 4096);
    CoherenceChecker checker(sim);
    dram.AttachChecker(&checker);
    pcie::HostMmioMapping host(dram, pcie::PteType::kWriteThrough);
    pcie::NicLocalMapping nic(dram, pcie::PteType::kWriteBack);

    RunToCompletion(sim, [&]() -> sim::Task<> {
        std::uint64_t value = 0;
        co_await host.Read(0, &value, sizeof(value));
        const std::uint64_t fresh = 0xfeedULL;
        co_await nic.Write(0, &fresh, sizeof(fresh));
        // Hardware invalidated the cached line; the re-read misses and
        // fetches fresh data — no software flush, no violation.
        co_await host.Read(0, &value, sizeof(value));
        EXPECT_EQ(value, fresh);
    });

    EXPECT_TRUE(checker.Violations().empty());
}

// --- Determinism auditor ---------------------------------------------

TEST(DeterminismAuditor, EventHashIsRunToRunReproducible)
{
    auto run = [] {
        sim::Simulator sim;
        int counter = 0;
        for (int i = 0; i < 64; ++i) {
            sim.Schedule(i * 10, [&counter] { ++counter; });
        }
        sim.Run();
        return sim.EventHash();
    };
    EXPECT_EQ(run(), run());
}

TEST(DeterminismAuditor, KeyedTiesExecuteInKeyOrderNotInsertionOrder)
{
    auto run = [](const std::vector<std::uint64_t>& insertion_order) {
        sim::Simulator sim;
        std::vector<std::uint64_t> executed;
        for (std::uint64_t key : insertion_order) {
            sim.ScheduleKeyed(100, key,
                              [&executed, key] { executed.push_back(key); });
        }
        sim.Run();
        return executed;
    };
    const std::vector<std::uint64_t> a = run({0, 1, 2, 3, 4});
    const std::vector<std::uint64_t> b = run({3, 1, 4, 0, 2});
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(DeterminismAuditor, TieAuditCountsUnkeyedSameTimestampInsertions)
{
    sim::Simulator sim;
    sim.EnableTieAudit();
    sim.Schedule(100, [] {});
    sim.Schedule(100, [] {});          // unkeyed collision: counted
    sim.ScheduleKeyed(100, 7, [] {});  // keyed: explicitly ordered, fine
    sim.Schedule(200, [] {});          // different timestamp: fine
    sim.Run();
    EXPECT_EQ(sim.UnkeyedTieInsertions(), 1u);
}


TEST(DeterminismAuditor, TieAuditCountsDelayResumesLikeClosures)
{
    // One schedule, run twice: an unkeyed closure pends at t=100, and
    // a second event lands on it from t=0 — a coroutine's Delay resume
    // in one run, a closure in the other. The audit counts both alike,
    // and the payload kind leaves the fingerprint untouched.
    auto run = [](bool as_resume) {
        sim::Simulator sim;
        sim.EnableTieAudit();
        sim.Schedule(100, [] {});
        if (as_resume) {
            sim.Spawn([](sim::Simulator& s) -> sim::Task<> {
                co_await s.Delay(100);
            }(sim));
        } else {
            sim.Schedule(0, [&sim] { sim.Schedule(100, [] {}); });
        }
        sim.Run();
        EXPECT_EQ(sim.Now(), sim::TimeNs{100});
        return std::pair(sim.UnkeyedTieInsertions(), sim.EventHash());
    };
    const auto resume = run(true);
    const auto closure = run(false);
    EXPECT_EQ(resume.first, 1u);
    EXPECT_EQ(resume, closure);
}

// --- FNV-1a word fold ------------------------------------------------

/** The bytewise FNV-1a fold FnvWord must reproduce, byte for byte. */
constexpr std::uint64_t
BytewiseFnvWord(std::uint64_t hash, std::uint64_t word)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (word >> (i * 8)) & 0xff;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

static_assert(check::FnvWord(check::kFnvOffsetBasis, 0x0000'00ff'0000'1234) ==
                  BytewiseFnvWord(check::kFnvOffsetBasis,
                                  0x0000'00ff'0000'1234),
              "FnvWord must stay constexpr and bytewise FNV-1a");

TEST(FnvWord, MatchesBytewiseFoldForEverySignificantLength)
{
    std::vector<std::uint64_t> words = {0, ~0ull, 0xff00'0000'0000'00ffULL,
                                        0x0100'0000'0000'0001ULL,
                                        0x0000'ff00'00ff'0000ULL};
    for (int bytes = 0; bytes <= 8; ++bytes) {
        // All low `bytes` bytes set: that many significant bytes.
        words.push_back(bytes == 8 ? ~0ull : (1ull << (8 * bytes)) - 1);
    }
    for (int pos = 0; pos < 8; ++pos) {
        // One set byte at each position: zeros below it and above it.
        for (std::uint64_t v : {0x01ull, 0x80ull, 0xffull}) {
            words.push_back(v << (8 * pos));
            words.push_back((v << (8 * pos)) | 1);
        }
    }
    const std::uint64_t hashes[] = {check::kFnvOffsetBasis, 0, ~0ull,
                                    0x1234'5678'9abc'def0ULL};
    for (std::uint64_t hash : hashes) {
        for (std::uint64_t word : words) {
            EXPECT_EQ(check::FnvWord(hash, word), BytewiseFnvWord(hash, word))
                << std::hex << "hash 0x" << hash << " word 0x" << word;
        }
    }
}

TEST(FnvWord, MatchesBytewiseFoldOnRandomWords)
{
    // splitmix64; the shift spreads the words over every length.
    std::uint64_t state = 0x9e37'79b9'7f4a'7c15ULL;
    auto next = [&state] {
        std::uint64_t z = (state += 0x9e37'79b9'7f4a'7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58'476d'1ce4'e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d0'49bb'1331'11ebULL;
        return z ^ (z >> 31);
    };
    for (int i = 0; i < 200'000; ++i) {
        const std::uint64_t hash = next();
        const std::uint64_t word = next() >> (next() % 64);
        ASSERT_EQ(check::FnvWord(hash, word), BytewiseFnvWord(hash, word))
            << std::hex << "hash 0x" << hash << " word 0x" << word;
    }
}

}  // namespace
}  // namespace wave
