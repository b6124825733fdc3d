#ifndef EBS_SIM_RNG_H
#define EBS_SIM_RNG_H

#include <cstdint>
#include <vector>

namespace ebs::sim {

/**
 * Deterministic pseudo-random number generator (xoshiro256** seeded via
 * SplitMix64).
 *
 * Every stochastic decision in the simulator flows through an Rng instance so
 * that entire experiments are reproducible from a single seed. Substreams for
 * independent components (per agent, per module) are derived with fork() so
 * that adding draws in one component does not perturb another.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed; any value (including 0) is valid. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive. Requires lo <= hi. */
    int uniformInt(int lo, int hi);

    /** Bernoulli trial with success probability p (clamped to [0,1]). */
    bool bernoulli(double p);

    /** Standard normal via Box-Muller. */
    double normal();

    /** Normal with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /**
     * Log-normal sample parameterized by the mean and relative spread of the
     * *resulting* distribution (not of the underlying normal), which is the
     * natural way to express "about 3 s, +/- 30%" latency models.
     *
     * @param mean positive mean of the produced samples
     * @param cv   coefficient of variation (stddev / mean), >= 0
     */
    double lognormal(double mean, double cv);

    /** Uniformly pick an index in [0, n). Requires n > 0. */
    std::size_t pickIndex(std::size_t n);

    /** Uniformly pick an element of a non-empty vector. */
    template <typename T>
    const T &
    pick(const std::vector<T> &v)
    {
        return v[pickIndex(v.size())];
    }

    /**
     * Derive an independent substream. Deterministic: the same (parent seed,
     * stream id) pair always yields the same child stream.
     */
    Rng fork(std::uint64_t stream_id) const;

    /** The seed this instance was constructed from. */
    std::uint64_t seed() const { return seed_; }

    /** Same seed and same position in the stream. */
    bool operator==(const Rng &) const = default;

  private:
    std::uint64_t seed_;
    std::uint64_t s_[4];
    bool has_cached_normal_ = false;
    double cached_normal_ = 0.0;
};

} // namespace ebs::sim

#endif // EBS_SIM_RNG_H
