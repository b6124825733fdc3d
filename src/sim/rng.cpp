#include "sim/rng.h"

#include <cassert>
#include <cmath>

namespace ebs::sim {

namespace {

/** SplitMix64 step, used for seeding and stream derivation. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
    : seed_(seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitmix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

int
Rng::uniformInt(int lo, int hi)
{
    assert(lo <= hi);
    const std::uint64_t span = static_cast<std::uint64_t>(hi) - lo + 1;
    return lo + static_cast<int>(next() % span);
}

bool
Rng::bernoulli(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

double
Rng::normal()
{
    if (has_cached_normal_) {
        has_cached_normal_ = false;
        return cached_normal_;
    }
    // Box-Muller; u1 kept away from 0 so log() stays finite.
    double u1 = uniform();
    if (u1 < 1e-300)
        u1 = 1e-300;
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cached_normal_ = r * std::sin(theta);
    has_cached_normal_ = true;
    return r * std::cos(theta);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

double
Rng::lognormal(double mean, double cv)
{
    assert(mean > 0.0);
    if (cv <= 0.0)
        return mean;
    // Convert (mean, cv) of the log-normal into (mu, sigma) of the
    // underlying normal.
    const double sigma2 = std::log(1.0 + cv * cv);
    const double mu = std::log(mean) - 0.5 * sigma2;
    return std::exp(normal(mu, std::sqrt(sigma2)));
}

std::size_t
Rng::pickIndex(std::size_t n)
{
    assert(n > 0);
    return static_cast<std::size_t>(next() % n);
}

Rng
Rng::fork(std::uint64_t stream_id) const
{
    std::uint64_t sm = seed_ ^ (0xd1342543de82ef95ULL * (stream_id + 1));
    return Rng(splitmix64(sm));
}

} // namespace ebs::sim
