#include "llm/engine_service.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <tuple>
#include <utility>

#include "llm/backend_queue.h"
#include "obs/trace.h"

namespace ebs::llm {

namespace {

/** Modeled joint completion time of an assembled group: the shared
 * jointBatchTime() cost model (engine.h) applied to a BatchRecord. */
double
jointCompletionTime(const BatchRecord &record)
{
    return jointBatchTime(record.requests, record.prefill_s,
                          record.max_decode_s, record.remote,
                          record.rtt_mean_s, record.baseline_s);
}

/** Feed every ModelProfile field except the name to `field`, as a
 * double: a same-name, same-latency profile with e.g. a workload-tweaked
 * reflect_quality is a differently-calibrated model and must not join
 * another backend's batch groups. When ModelProfile gains a field,
 * extend this list (the size guard below fails loudly until you do). */
template <typename Fn>
void
forEachProfileField(const ModelProfile &p, Fn &&field)
{
    field(p.remote ? 1.0 : 0.0);
    field(p.api_rtt_mean_s);
    field(p.api_rtt_cv);
    field(p.prefill_tok_per_s);
    field(p.decode_tok_per_s);
    field(static_cast<double>(p.context_limit));
    field(p.plan_quality);
    field(p.comm_quality);
    field(p.reflect_quality);
    field(p.format_compliance);
    field(p.dilution_onset_tokens);
    field(p.dilution_scale_tokens);
}

#if defined(__GLIBCXX__) && defined(__x86_64__) && \
    defined(_GLIBCXX_USE_CXX11_ABI) && _GLIBCXX_USE_CXX11_ABI == 1
static_assert(sizeof(ModelProfile) == 128,
              "ModelProfile changed: extend forEachProfileField() (and "
              "this size) so backend identity keeps covering every field");
#endif

std::uint64_t
fnv1aBytes(std::uint64_t hash, const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 1099511628211ULL;
    }
    return hash;
}

std::uint64_t
fnv1aField(std::uint64_t hash, double value)
{
    // Normalize so profiles that compare equal field by field hash
    // alike: -0.0 must hash like +0.0. (NaN fields never occur in a
    // profile.)
    if (value == 0.0)
        value = 0.0;
    const auto bits = std::bit_cast<std::uint64_t>(value);
    return fnv1aBytes(hash, &bits, sizeof bits);
}

} // namespace

BackendId
backendId(const ModelProfile &p)
{
    std::uint64_t hash = 1469598103934665603ULL;
    hash = fnv1aBytes(hash, p.name.data(), p.name.size());
    hash = fnv1aBytes(hash, "\x1f", 1); // terminate the name bytes
    forEachProfileField(p, [&hash](double field) {
        hash = fnv1aField(hash, field);
    });
    return hash;
}

// ---------------------------------------------------------------- stats

void
BatchStats::add(const BatchRecord &record)
{
    ++batches;
    requests += record.requests;
    cross_agent_batches += record.requests > 1;
    baseline_s += record.baseline_s;
    batched_s += record.batched_s;
    queue_delay_s += record.queue_delay_s;
}

void
BatchStats::merge(const BatchStats &other)
{
    batches += other.batches;
    requests += other.requests;
    cross_agent_batches += other.cross_agent_batches;
    baseline_s += other.baseline_s;
    batched_s += other.batched_s;
    queue_delay_s += other.queue_delay_s;
}

// ---------------------------------------------------------------- handle

EngineHandle::EngineHandle(EngineSession &session, ModelProfile profile,
                           sim::Rng rng)
    : session_(&session), backend_(backendId(profile)),
      profile_(std::move(profile)), rng_(rng)
{
}

LlmResponse
EngineHandle::complete(const LlmRequest &request)
{
    const LlmResponse resp = sampleCompletion(profile_, request, rng_);
    usage_.add(resp);
    session_->note(backend_, profile_, resp);
    return resp;
}

// --------------------------------------------------------------- session

EngineSession::EngineSession(const ServiceConfig &config)
{
    if (config.queue)
        queue_ = std::make_unique<BackendQueueModel>();
}

EngineSession::~EngineSession() = default;

EngineHandle
EngineSession::handle(const ModelProfile &profile, sim::Rng stream)
{
    return EngineHandle(*this, profile, stream);
}

void
EngineSession::beginStep(int step)
{
    flush();
    step_ = step;
    phase_ = 0;
}

void
EngineSession::note(BackendId backend, const ModelProfile &profile,
                    const LlmResponse &resp)
{
    BatchRecord *record = nullptr;
    for (auto &open : open_)
        if (open.backend == backend)
            record = &open;
    if (record == nullptr) {
        BatchRecord fresh;
        fresh.step = step_;
        fresh.phase = phase_;
        fresh.backend = backend;
        fresh.remote = profile.remote;
        fresh.rtt_mean_s = profile.api_rtt_mean_s;
        open_.push_back(fresh);
        open_names_.push_back(profile.name);
        record = &open_.back();
        if (queue_ != nullptr)
            queue_->ensureBackend(backend, profile);
    }
    ++record->requests;
    record->prefill_s += resp.tokens_in / profile.prefill_tok_per_s;
    record->max_decode_s = std::max(
        record->max_decode_s, resp.tokens_out / profile.decode_tok_per_s);
    record->baseline_s += resp.latency_s;
    record->kv_tokens +=
        static_cast<double>(resp.tokens_in + resp.tokens_out);
}

void
EngineSession::flush()
{
    for (std::size_t i = 0; i < open_.size(); ++i) {
        BatchRecord &group = open_[i];
        group.batched_s = jointCompletionTime(group);
        group.sim_time_s = now_s_;
        QueueAdmission admission;
        if (queue_ != nullptr) {
            // Closed loop: the group arrives at the backend's finite
            // queue at the phase's sim instant; whatever the scheduled
            // completion adds beyond the open-loop joint time is
            // charged to the episode alongside it. Groups are submitted
            // in open-order (backend-first-touch within the phase), and
            // the episode clock only moves forward, so the per-backend
            // arrival sequence — and with it the whole admission
            // schedule — is deterministic at any EBS_JOBS.
            admission = queue_->submit(group);
            group.queue_delay_s = admission.queue_delay_s;
        }
        pending_charge_s_ += group.batched_s + group.queue_delay_s;
        if (trace_ != nullptr) {
            const std::string &backend = open_names_[i];
            trace_->instant(
                "llm", "batch " + backend, now_s_, -1,
                {{"requests", static_cast<double>(group.requests)},
                 {"kv_tokens", group.kv_tokens},
                 {"baseline_s", group.baseline_s},
                 {"batched_s", group.batched_s},
                 {"step", static_cast<double>(group.step)}});
            if (queue_ != nullptr) {
                const BackendQueue *bq = queue_->queue(group.backend);
                const QueueStats &qs = bq->stats();
                trace_->instant(
                    "queue", "admit " + backend, now_s_, -1,
                    {{"admit_s", admission.admit_s},
                     {"complete_s", admission.complete_s},
                     {"queue_delay_s", admission.queue_delay_s},
                     {"peak_running",
                      static_cast<double>(qs.peak_running)},
                     {"occupancy", qs.occupancy(bq->config().slots)}});
            }
        }
        log_.push_back(group);
    }
    open_.clear();
    open_names_.clear();
    ++phase_;
}

double
EngineSession::phaseBaseline() const
{
    double baseline = 0.0;
    for (const auto &group : open_)
        baseline += group.baseline_s;
    return baseline;
}

double
EngineSession::takePendingCharge()
{
    const double charge = pending_charge_s_;
    pending_charge_s_ = 0.0;
    return charge;
}

std::vector<BatchRecord>
EngineSession::takeLog()
{
    flush();
    std::vector<BatchRecord> out = std::move(log_);
    log_.clear();
    return out;
}

// --------------------------------------------------------------- service

const LlmEngineService &
LlmEngineService::shared()
{
    static const LlmEngineService instance;
    return instance;
}

// ----------------------------------------------------------------- folds

BatchStats
foldBatchLog(std::span<const BatchRecord> log)
{
    BatchStats stats;
    for (const auto &record : log)
        stats.add(record);
    return stats;
}

BatchStats
foldCrossEpisodeBatches(std::span<const std::vector<BatchRecord>> logs)
{
    return foldCrossEpisodeBatches(logs,
                                   std::numeric_limits<double>::infinity());
}

BatchStats
foldCrossEpisodeBatches(std::span<const std::vector<BatchRecord>> logs,
                        double window_s)
{
    // Merge per-episode batches keyed by (step, phase, backend): the same
    // pipeline stage of episodes advancing in lockstep shares one joint
    // inference. std::map keeps the fold order deterministic — backend
    // ids are stable profile hashes, so the key (and with it the float
    // summation order) never depends on registration order.
    //
    // The admission window makes the merge latency-aware: a record joins
    // an existing super-batch only when its arrival instant lies within
    // `window_s` of the arrival that opened the group; otherwise it opens a new
    // super-batch under the same key. With an infinite window every key
    // collapses to one group — the lockstep fold — and any finite window
    // is a partition refinement of it, so windowed savings never exceed
    // the lockstep estimate (summed subgroup joint times >= the merged
    // joint time, clamp included).
    struct Cluster
    {
        BatchRecord super;
        double anchor_s = 0.0; ///< arrival instant that opened the group
    };
    std::map<std::tuple<int, int, BackendId>, std::vector<Cluster>> merged;
    for (const auto &log : logs) {
        for (const auto &record : log) {
            const auto key = std::make_tuple(record.step, record.phase,
                                             record.backend);
            auto &clusters = merged[key];
            Cluster *home = nullptr;
            for (auto &cluster : clusters) {
                if (std::abs(record.sim_time_s - cluster.anchor_s) <=
                    window_s) {
                    home = &cluster;
                    break;
                }
            }
            if (home == nullptr) {
                clusters.push_back({record, record.sim_time_s});
                continue;
            }
            BatchRecord &super = home->super;
            super.requests += record.requests;
            super.remote = super.remote || record.remote;
            super.rtt_mean_s = std::max(super.rtt_mean_s, record.rtt_mean_s);
            super.prefill_s += record.prefill_s;
            super.max_decode_s =
                std::max(super.max_decode_s, record.max_decode_s);
            super.baseline_s += record.baseline_s;
            super.kv_tokens += record.kv_tokens;
            super.queue_delay_s += record.queue_delay_s;
        }
    }

    BatchStats stats;
    for (auto &[key, clusters] : merged) {
        (void)key;
        for (auto &cluster : clusters) {
            cluster.super.batched_s = jointCompletionTime(cluster.super);
            stats.add(cluster.super);
        }
    }
    return stats;
}

} // namespace ebs::llm
