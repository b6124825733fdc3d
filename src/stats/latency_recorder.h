#ifndef EBS_STATS_LATENCY_RECORDER_H
#define EBS_STATS_LATENCY_RECORDER_H

#include <array>
#include <cstddef>

#include "stats/module_kind.h"

namespace ebs::stats {

/**
 * Accumulates simulated wall-clock latency per module kind.
 *
 * One recorder lives per episode; modules charge their latency to it as they
 * run. The Fig. 2a per-step breakdown and the 70.2% LLM-share statistic are
 * computed from these totals.
 */
class LatencyRecorder
{
  public:
    /** Charge `seconds` of latency to the given module kind. */
    void
    record(ModuleKind kind, double seconds)
    {
        total_[static_cast<std::size_t>(kind)] += seconds;
        count_[static_cast<std::size_t>(kind)] += 1;
    }

    /** Total seconds charged to a kind. */
    double
    total(ModuleKind kind) const
    {
        return total_[static_cast<std::size_t>(kind)];
    }

    /** Number of charges to a kind. */
    std::size_t
    count(ModuleKind kind) const
    {
        return count_[static_cast<std::size_t>(kind)];
    }

    /** Sum across all kinds. */
    double
    grandTotal() const
    {
        double sum = 0.0;
        for (double v : total_)
            sum += v;
        return sum;
    }

    /** Fraction of the grand total charged to a kind (0 if nothing ran). */
    double
    fraction(ModuleKind kind) const
    {
        const double sum = grandTotal();
        return sum > 0.0 ? total(kind) / sum : 0.0;
    }

    /** Merge another recorder's totals into this one. */
    void
    merge(const LatencyRecorder &other)
    {
        for (std::size_t i = 0; i < kNumModuleKinds; ++i) {
            total_[i] += other.total_[i];
            count_[i] += other.count_[i];
        }
    }

    void
    reset()
    {
        total_.fill(0.0);
        count_.fill(0);
    }

  private:
    std::array<double, kNumModuleKinds> total_{};
    std::array<std::size_t, kNumModuleKinds> count_{};
};

} // namespace ebs::stats

#endif // EBS_STATS_LATENCY_RECORDER_H
