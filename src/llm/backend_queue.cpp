#include "llm/backend_queue.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace ebs::llm {

void
QueueConfig::validate() const
{
    if (slots <= 0)
        throw std::invalid_argument(
            "QueueConfig: slots must be >= 1 (got " +
            std::to_string(slots) + ")");
    if (!(kv_budget_tokens > 0.0))
        throw std::invalid_argument(
            "QueueConfig: kv_budget_tokens must be > 0 (got " +
            std::to_string(kv_budget_tokens) + ")");
    if (!(iteration_s > 0.0))
        throw std::invalid_argument(
            "QueueConfig: iteration_s must be > 0 (got " +
            std::to_string(iteration_s) + ")");
}

QueueConfig
defaultQueueConfig(const ModelProfile &profile)
{
    QueueConfig config;
    if (profile.remote) {
        // A pooled API endpoint: many replicas behind one name, so a
        // single tenant sees a deep slot pool and a large aggregate KV
        // budget. Queueing still bites once a fleet saturates it.
        config.slots = 16;
        config.kv_budget_tokens = 262144.0;
    } else {
        // One local GPU's continuous-batching server: a handful of
        // concurrent decode streams sharing a single card's KV cache.
        config.slots = 4;
        config.kv_budget_tokens = 32768.0;
    }
    return config;
}

double
QueueStats::occupancy(int slots) const
{
    const double horizon = last_complete_s - first_arrival_s;
    if (slots <= 0 || !(horizon > 0.0))
        return 0.0;
    return busy_slot_s / (static_cast<double>(slots) * horizon);
}

BackendQueue::BackendQueue(QueueConfig config) : config_(config)
{
    config_.validate();
}

double
BackendQueue::boundary(double t) const
{
    // First multiple of iteration_s at or after t. Pure double
    // arithmetic — deterministic on every platform we build for.
    const double steps = std::ceil(t / config_.iteration_s);
    const double at = steps * config_.iteration_s;
    return at < t ? at + config_.iteration_s : at;
}

QueueAdmission
BackendQueue::submit(double arrival_s, int requests, double kv_tokens,
                     double service_s)
{
    assert(requests > 0 && "empty groups are never flushed");
    assert(service_s >= 0.0);
    assert(arrival_s >= stats_.first_arrival_s ||
           stats_.requests == 0); // arrivals are nondecreasing (FIFO)

    stats_.first_arrival_s = std::min(stats_.first_arrival_s, arrival_s);
    ++stats_.groups;

    const double member_kv =
        std::max(0.0, kv_tokens / static_cast<double>(requests));

    QueueAdmission admission;
    // FIFO: this group can never start before the previous admission.
    double t = boundary(std::max(arrival_s, last_admit_s_));
    int admitted = 0;
    while (admitted < requests) {
        // Capacity at instant t: members admitted earlier and still
        // executing. Admissions are nondecreasing, so everything in
        // running_ was admitted at or before t; prune the completed.
        std::erase_if(running_, [t](const Running &r) {
            return r.complete_s <= t;
        });
        int used_slots = static_cast<int>(running_.size());
        double used_kv = 0.0;
        for (const Running &r : running_)
            used_kv += r.kv_tokens;

        int fit = config_.slots - used_slots;
        if (member_kv > 0.0) {
            const double kv_room = config_.kv_budget_tokens - used_kv;
            const int kv_fit =
                kv_room > 0.0
                    ? static_cast<int>(std::floor(kv_room / member_kv))
                    : 0;
            fit = std::min(fit, kv_fit);
        }
        // Oversized member (KV share alone exceeds the budget): admit it
        // solo on an idle backend rather than deadlocking the queue.
        if (fit <= 0 && running_.empty() &&
            member_kv > config_.kv_budget_tokens)
            fit = 1;

        if (fit <= 0) {
            // Wait for the next completion, then the next boundary.
            double next = std::numeric_limits<double>::infinity();
            for (const Running &r : running_)
                next = std::min(next, r.complete_s);
            assert(std::isfinite(next) &&
                   "no capacity with an empty running batch");
            t = boundary(next);
            continue;
        }

        const int batch = std::min(fit, requests - admitted);
        for (int i = 0; i < batch; ++i)
            running_.push_back({t + service_s, member_kv});
        stats_.peak_running = std::max(
            stats_.peak_running, static_cast<int>(running_.size()));
        stats_.requests += batch;
        stats_.queued += (t - arrival_s) > config_.iteration_s ? batch : 0;
        stats_.queue_delay_s +=
            static_cast<double>(batch) * (t - arrival_s);
        stats_.busy_slot_s += static_cast<double>(batch) * service_s;
        admitted += batch;
        last_admit_s_ = t;
        admission.admit_s = t;
        admission.complete_s = t + service_s;
        if (admitted < requests)
            t = boundary(t + service_s); // capacity frees at completion
    }

    stats_.last_complete_s =
        std::max(stats_.last_complete_s, admission.complete_s);
    // The episode waits for its whole group; the charge beyond the
    // open-loop joint batch time is the last member's late start.
    admission.queue_delay_s =
        std::max(0.0, admission.complete_s - (arrival_s + service_s));
    return admission;
}

void
BackendQueueModel::ensureBackend(BackendId backend,
                                 const ModelProfile &profile)
{
    if (queues_.find(backend) != queues_.end())
        return;
    queues_.emplace(backend, BackendQueue(defaultQueueConfig(profile)));
}

QueueAdmission
BackendQueueModel::submit(const BatchRecord &record)
{
    const auto it = queues_.find(record.backend);
    assert(it != queues_.end() && "submit() before ensureBackend()");
    if (it == queues_.end())
        return {record.sim_time_s, record.sim_time_s + record.batched_s,
                0.0};
    return it->second.submit(record.sim_time_s, record.requests,
                             record.kv_tokens, record.batched_s);
}

const BackendQueue *
BackendQueueModel::queue(BackendId backend) const
{
    const auto it = queues_.find(backend);
    return it != queues_.end() ? &it->second : nullptr;
}

} // namespace ebs::llm
