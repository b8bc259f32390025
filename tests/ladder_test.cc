/**
 * @file
 * The saturation ladder runner (workload/ladder.h), driven by a fake
 * point function: at every width its answer and visited points equal
 * those of the width-1 walk, which is the serial search.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "workload/ladder.h"

namespace wave::workload {
namespace {

// The ladder 100, 200, ..., 800: eight points.
constexpr double kStart = 100;
constexpr double kEnd = 800;
constexpr double kStep = 100;
constexpr std::size_t kPoints = 8;

// Widths below, at and beyond the ladder's length.
constexpr unsigned kWidths[] = {1, 2, 3, kPoints, kPoints + 5};

/**
 * A fake search: point i achieves achieved[i] and passes when that is
 * within 97% of its offered load. Records which points ran; safe to
 * call from several threads at once.
 */
class FakeSearch {
  public:
    explicit FakeSearch(std::vector<double> achieved)
        : achieved_(std::move(achieved))
    {
    }

    LadderPointFn
    Fn()
    {
        return [this](double rps) {
            const auto i = static_cast<std::size_t>(rps / kStep) - 1;
            {
                std::lock_guard<std::mutex> lock(mu_);
                ran_.push_back(i);
            }
            const double achieved = achieved_.at(i);
            return LadderPoint{rps, achieved, achieved >= 0.97 * rps,
                               0x1000 + i};
        };
    }

    LadderWalk
    Walk(unsigned width)
    {
        return WalkLadder(kStart, kEnd, kStep, Fn(), width);
    }

    std::vector<std::size_t> Ran() const { return ran_; }

  private:
    std::vector<double> achieved_;
    std::mutex mu_;
    std::vector<std::size_t> ran_;
};

/** Checks every width against the width-1 walk; returns that walk. */
LadderWalk
ExpectSerialAtEveryWidth(const std::vector<double>& achieved)
{
    const LadderWalk serial = FakeSearch(achieved).Walk(1);
    for (unsigned width : kWidths) {
        SCOPED_TRACE(testing::Message() << "width " << width);
        FakeSearch search(achieved);
        const LadderWalk walk = search.Walk(width);
        EXPECT_EQ(walk.saturation_rps, serial.saturation_rps);
        EXPECT_EQ(walk.points.size(), serial.points.size());
        const std::size_t n = std::min(walk.points.size(), serial.points.size());
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(walk.points[i].offered_rps, serial.points[i].offered_rps);
            EXPECT_EQ(walk.points[i].achieved_rps,
                      serial.points[i].achieved_rps);
            EXPECT_EQ(walk.points[i].passed, serial.points[i].passed);
            EXPECT_EQ(walk.points[i].event_hash, serial.points[i].event_hash);
        }
        // Each point runs once; whole waves run, so at most width - 1
        // points past the last visited one are wasted.
        const std::vector<std::size_t> ran = search.Ran();
        EXPECT_EQ(std::set<std::size_t>(ran.begin(), ran.end()).size(),
                  ran.size());
        EXPECT_GE(ran.size(), walk.points.size());
        EXPECT_LE(ran.size(), walk.points.size() + width - 1);
    }
    return serial;
}

TEST(Ladder, KneeInsideAWave)
{
    // Passes through 400 and fails at 500: mid-wave at widths 3 and 8,
    // the first point of its wave at width 2.
    const LadderWalk walk = ExpectSerialAtEveryWidth(
        {100, 200, 300, 400, 420, 430, 440, 450});
    EXPECT_EQ(walk.saturation_rps, 400);
    EXPECT_EQ(walk.points.size(), 5u);
    EXPECT_FALSE(walk.points.back().passed);
}

TEST(Ladder, KneeOnAWavesLastPoint)
{
    // Fails first at 600: the last point of its wave at widths 2 and 3.
    const LadderWalk walk = ExpectSerialAtEveryWidth(
        {100, 200, 300, 400, 500, 510, 520, 530});
    EXPECT_EQ(walk.saturation_rps, 500);
    EXPECT_EQ(walk.points.size(), 6u);
}

TEST(Ladder, PointsBelowEfficiencyBeforeAnyPassKeepClimbing)
{
    // Nothing has passed at 100 and 200, so the walk climbs on; the
    // first failure after a pass ends it.
    const LadderWalk walk = ExpectSerialAtEveryWidth(
        {50, 150, 300, 395, 490, 450, 700, 800});
    EXPECT_EQ(walk.saturation_rps, 490);
    EXPECT_EQ(walk.points.size(), 6u);
    EXPECT_FALSE(walk.points[0].passed);
    EXPECT_FALSE(walk.points[1].passed);
}

TEST(Ladder, NoPointPasses)
{
    const LadderWalk walk =
        ExpectSerialAtEveryWidth({10, 20, 30, 40, 50, 60, 70, 80});
    EXPECT_EQ(walk.saturation_rps, 0);
    EXPECT_EQ(walk.points.size(), kPoints);
}

TEST(Ladder, EveryPointPasses)
{
    // The answer is the highest achieved rate, not the last one.
    const LadderWalk walk = ExpectSerialAtEveryWidth(
        {100, 200, 300, 400, 500, 600, 790, 780});
    EXPECT_EQ(walk.saturation_rps, 790);
    EXPECT_EQ(walk.points.size(), kPoints);
}

TEST(Ladder, AWaveRunsItsPointsAtOnceWithTheCallerRunningTheFirst)
{
    // Every point of the single wave waits until all have started, so
    // a runner that took them one at a time would time out here.
    std::mutex mu;
    std::condition_variable cv;
    std::size_t started = 0;
    std::vector<std::thread::id> ran_on(kPoints);
    const LadderPointFn fn = [&](double rps) {
        const auto i = static_cast<std::size_t>(rps / kStep) - 1;
        std::unique_lock<std::mutex> lock(mu);
        ran_on[i] = std::this_thread::get_id();
        ++started;
        cv.notify_all();
        const bool together = cv.wait_for(lock, std::chrono::seconds(10),
                                          [&] { return started == kPoints; });
        return LadderPoint{rps, 0, false, together ? 1u : 0u};
    };
    const LadderWalk walk = WalkLadder(kStart, kEnd, kStep, fn, kPoints);
    ASSERT_EQ(walk.points.size(), kPoints);
    for (const LadderPoint& point : walk.points) {
        EXPECT_EQ(point.event_hash, 1u) << point.offered_rps;
    }
    EXPECT_EQ(ran_on[0], std::this_thread::get_id());
    for (std::size_t i = 1; i < kPoints; ++i) {
        EXPECT_NE(ran_on[i], std::this_thread::get_id()) << i;
    }
}

TEST(Ladder, WorkerExceptionReachesTheCaller)
{
    const LadderPointFn fn = [](double rps) {
        if (rps == 300) throw std::runtime_error("point failed");
        return LadderPoint{rps, 0, false, 0};
    };
    EXPECT_THROW(WalkLadder(kStart, kEnd, kStep, fn, 4), std::runtime_error);
}

}  // namespace
}  // namespace wave::workload
