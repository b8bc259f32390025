/**
 * @file
 * Socket turbo-frequency model for the Figure 5 VM experiment.
 *
 * AMD's turbo governor grants higher frequencies when fewer cores are
 * active, and grants more when the idle cores sit in deep C-states. The
 * paper's Figure 5 turns on exactly this effect: eliding timer ticks
 * (possible when scheduling is offloaded to the SmartNIC) lets idle
 * vCPU cores reach deep C-states, boosting the active cores.
 *
 * The model is a pair of piecewise-linear curves — frequency vs. number
 * of active physical cores — one for "idle cores deeply sleeping" and
 * one for "idle cores kept shallow by 1 ms ticks". The default points
 * are calibrated so the reproduced Figure 5b endpoints match the paper
 * (+11.2% at 1 active vCPU, ~+9.7% at 31, +1.7% at 128).
 */
// wave-domain: neutral
#pragma once

#include <utility>
#include <vector>

#include "machine/cycles.h"

namespace wave::machine {

/** Piecewise-linear turbo curve set for one socket. */
class TurboModel {
  public:
    /** (active physical cores, GHz) knots, ascending in cores. */
    using Curve = std::vector<std::pair<int, double>>;

    struct Config {
        /** Frequency curve when idle cores reach deep C-states. */
        Curve deep_idle = {{1, 3.50}, {8, 3.50}, {16, 3.40},
                           {32, 3.20}, {48, 2.90}, {64, 2.60}};

        /** Frequency curve when ticks hold idle cores in shallow states. */
        Curve shallow_idle = {{1, 3.20}, {8, 3.20}, {16, 3.13},
                              {32, 2.95}, {48, 2.78}, {64, 2.60}};

        /** Nominal (non-turbo) frequency, the floor. */
        double base_ghz = 2.45;
    };

    TurboModel();
    explicit TurboModel(Config config);

    /**
     * Frequency granted to active cores.
     *
     * @param active_physical_cores cores with at least one busy sibling.
     * @param idle_cores_deep true when idle cores sleep deeply (no ticks).
     */
    FreqGhz Frequency(int active_physical_cores,
                      bool idle_cores_deep) const;

  private:
    static double Interpolate(const Curve& curve, int active);

    Config config_;
};

}  // namespace wave::machine
