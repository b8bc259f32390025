/**
 * @file
 * CPU execution model.
 *
 * A Cpu is a serial execution resource with a clock domain. Work is
 * expressed in nanoseconds at the *reference speed* (defined as one host
 * x86 core at maximum turbo); a core's ClockDomain scales that into
 * simulated time. This is how the model captures both the ARM-vs-x86
 * per-cycle gap and turbo frequency changes (Figure 5) with one knob.
 */
// wave-domain: neutral
#pragma once

#include <coroutine>
#include <string>

#include "sim/simulator.h"

namespace wave::machine {

/**
 * A frequency/performance domain shared by a group of cores.
 *
 * speed() is a multiplier relative to the reference core: executing W
 * reference-nanoseconds of work takes W / speed() simulated nanoseconds.
 */
class ClockDomain {
  public:
    explicit ClockDomain(double speed = 1.0) : speed_(speed) {}

    double Speed() const { return speed_; }

    void
    SetSpeed(double speed)
    {
        WAVE_ASSERT(speed > 0.0);
        speed_ = speed;
    }

  private:
    double speed_;
};

/** A single hardware thread: runs one piece of work at a time. */
class Cpu {
  public:
    Cpu(sim::Simulator& sim, std::string name, ClockDomain* domain)
        : sim_(sim), name_(std::move(name)), domain_(domain)
    {
        WAVE_ASSERT(domain_ != nullptr);
    }

    Cpu(const Cpu&) = delete;
    Cpu& operator=(const Cpu&) = delete;

    /**
     * Awaitable: executes @p reference_ns of compute on this core.
     *
     * Scales by the clock domain's current speed (sampled at start).
     * Asserts that the core is not already executing something — each
     * core must host exactly one running activity at a time. Frame-free
     * (see sim/task.h): one event, no coroutine frame.
     */
    auto
    Work(sim::DurationNs reference_ns)
    {
        struct [[nodiscard]] Awaiter {
            Cpu& cpu;
            sim::DurationNs reference_ns;
            sim::DurationNs scaled{};

            bool await_ready() const { return false; }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                WAVE_ASSERT(!cpu.busy_, "core %s is already busy",
                            cpu.name_.c_str());
                cpu.busy_ = true;
                scaled = sim::DurationNs::FromDouble(
                    reference_ns.ToDouble() / cpu.domain_->Speed());
                cpu.sim_.ScheduleResume(scaled, h);
            }

            void
            await_resume()
            {
                cpu.busy_ns_ += scaled;
                ++cpu.work_segments_;
                cpu.busy_ = false;
            }
        };
        return Awaiter{*this, reference_ns};
    }

    /** Name for diagnostics, e.g. "host3" or "nic0". */
    const std::string& Name() const { return name_; }

    /** Total simulated time this core spent in Work(). */
    sim::DurationNs BusyNs() const { return busy_ns_; }

    /** Completed Work() calls (occupancy accounting, with BusyNs). */
    std::uint64_t WorkSegments() const { return work_segments_; }

    /**
     * Snapshot for windowed occupancy: diff two snapshots across a
     * measurement window and divide by its length (BusyFraction below)
     * to get the core's utilization in that window alone.
     */
    struct Occupancy {
        sim::DurationNs busy_ns = 0;
        std::uint64_t segments = 0;
    };

    Occupancy
    Snapshot() const
    {
        return Occupancy{busy_ns_, work_segments_};
    }

    ClockDomain& Domain() { return *domain_; }
    sim::Simulator& Sim() { return sim_; }

  private:
    sim::Simulator& sim_;
    std::string name_;
    ClockDomain* domain_;
    sim::DurationNs busy_ns_ = 0;
    std::uint64_t work_segments_ = 0;
    bool busy_ = false;
};

/** Busy fraction of the window [begin, end] between two snapshots. */
inline double
BusyFraction(const Cpu::Occupancy& begin, const Cpu::Occupancy& end,
             sim::DurationNs window)
{
    if (window.ns() == 0) return 0.0;
    return (end.busy_ns - begin.busy_ns).ToDouble() / window.ToDouble();
}

}  // namespace wave::machine
