/**
 * @file
 * Core clock frequencies.
 *
 * The testbed stitches together an x86 host socket and an ARM SmartNIC
 * SoC. Costs are charged in nanoseconds at a reference clock and scaled
 * by per-domain speed ratios (machine::ClockDomain); FreqGhz carries a
 * raw clock rate where one is needed, as in the turbo model's
 * frequency grants.
 */
// wave-domain: neutral
#pragma once

namespace wave::machine {

/**
 * A core clock frequency in GHz (== cycles per nanosecond).
 *
 * Strong wrapper over double so a frequency cannot be confused with a
 * speed *ratio* (machine::ClockDomain::Speed) or a plain scalar.
 */
class FreqGhz {
  public:
    constexpr FreqGhz() = default;
    constexpr explicit FreqGhz(double ghz) : ghz_(ghz) {}

    constexpr double ghz() const { return ghz_; }

    /** Ratio of two frequencies (e.g. turbo grant / nominal). */
    constexpr double
    RatioTo(FreqGhz base) const
    {
        return ghz_ / base.ghz_;
    }

    friend constexpr bool
    operator==(FreqGhz a, FreqGhz b)
    {
        return a.ghz_ == b.ghz_;
    }

    friend constexpr bool
    operator<(FreqGhz a, FreqGhz b)
    {
        return a.ghz_ < b.ghz_;
    }

    friend constexpr bool
    operator>(FreqGhz a, FreqGhz b)
    {
        return a.ghz_ > b.ghz_;
    }

  private:
    double ghz_ = 0.0;
};

}  // namespace wave::machine
