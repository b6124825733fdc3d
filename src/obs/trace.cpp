#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "obs/json.h"

namespace ebs::obs {

namespace {

/** Unset, "", "0", "false", "off" and "no" are false; anything else is
 * true. */
bool
envTruthy(const char *value)
{
    if (value == nullptr)
        return false;
    const std::string v(value);
    return !(v.empty() || v == "0" || v == "false" || v == "off" ||
             v == "no");
}

std::atomic<bool> &
enabledFlag()
{
    // getenv here is init-once under the static guard; nothing in the
    // tree calls setenv concurrently (same stance as EBS_JOBS parsing).
    static std::atomic<bool> flag{
        envTruthy(std::getenv("EBS_TRACE"))}; // NOLINT(concurrency-mt-unsafe)
    return flag;
}

void
appendf(std::string &out, const char *fmt, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), fmt, value);
    out += buf;
}

/** Human-readable track label of one episode id (see nextBatchBase). */
std::string
episodeLabel(std::uint64_t id)
{
    constexpr std::uint64_t kSoloBit = 1ULL << 63;
    if ((id & kSoloBit) != 0)
        return "solo#" + std::to_string(id & ~kSoloBit);
    return "b" + std::to_string(id >> 32) + ".e" +
           std::to_string(id & 0xffffffffULL);
}

} // namespace

bool
traceEnabled()
{
    return enabledFlag().load(std::memory_order_relaxed);
}

void
setTraceEnabled(bool on)
{
    enabledFlag().store(on, std::memory_order_relaxed);
}

void
EpisodeTraceLog::beginSpan(const char *cat, std::string name, double sim_s,
                           double host_s, int agent)
{
    TraceEvent event;
    event.ph = 'B';
    event.cat = cat;
    event.name = std::move(name);
    event.sim_s = sim_s;
    event.host_s = host_s;
    event.agent = agent;
    event.seq = next_seq_++;
    events_.push_back(std::move(event));
    open_.push_back(host_s >= 0.0);
}

void
EpisodeTraceLog::endSpan(double sim_s, double host_s)
{
    if (open_.empty())
        return;
    TraceEvent event;
    event.ph = 'E';
    event.sim_s = sim_s;
    // Keep the host projection balanced: an E only carries a host stamp
    // when its matching B did.
    event.host_s = open_.back() ? host_s : -1.0;
    event.seq = next_seq_++;
    events_.push_back(std::move(event));
    open_.pop_back();
}

void
EpisodeTraceLog::instant(const char *cat, std::string name, double sim_s,
                         int agent,
                         std::vector<std::pair<const char *, double>> args)
{
    TraceEvent event;
    event.ph = 'i';
    event.cat = cat;
    event.name = std::move(name);
    event.sim_s = sim_s;
    event.agent = agent;
    event.seq = next_seq_++;
    event.args = std::move(args);
    events_.push_back(std::move(event));
}

void
EpisodeTraceLog::closeOpenSpans(double sim_s, double host_s)
{
    while (!open_.empty())
        endSpan(sim_s, host_s);
}

Tracer &
Tracer::shared()
{
    static Tracer instance;
    return instance;
}

std::uint64_t
Tracer::nextBatchBase()
{
    core::MutexLock lock(mu_);
    return ++batch_ordinal_ << 32;
}

std::uint64_t
Tracer::nextSoloId()
{
    core::MutexLock lock(mu_);
    return (1ULL << 63) | ++solo_ordinal_;
}

void
Tracer::adopt(EpisodeTraceLog &&log)
{
    core::MutexLock lock(mu_);
    episodes_.push_back(std::move(log));
}

Tracer::HostBuffer &
Tracer::threadBuffer()
{
    // The calling thread's buffer slot on the shared Tracer. hostTask
    // is only ever invoked on Tracer::shared() (the scheduler's
    // emission point), so a single thread_local slot is unambiguous;
    // the buffer is owned by the immortal tracer, so the pointer never
    // dangles even across scheduler rebuilds.
    static thread_local HostBuffer *slot = nullptr;
    if (slot == nullptr) {
        core::MutexLock lock(mu_);
        buffers_.push_back(std::make_unique<HostBuffer>());
        slot = buffers_.back().get();
    }
    return *slot;
}

void
Tracer::hostTask(const char *cat, std::string name, double begin_s,
                 double end_s, int worker)
{
    HostTaskEvent event;
    event.cat = cat;
    event.name = std::move(name);
    event.begin_s = begin_s;
    event.end_s = end_s;
    event.worker = worker;
    threadBuffer().events.push_back(std::move(event));
}

std::string
Tracer::simStream() const
{
    core::MutexLock lock(mu_);
    std::vector<const EpisodeTraceLog *> logs;
    logs.reserve(episodes_.size());
    for (const auto &log : episodes_)
        logs.push_back(&log);
    // Adoption order depends on episode completion order (thread
    // timing); the (episode id, sequence) sort restores the canonical
    // deterministic order — ids come from the serial submission point.
    std::sort(logs.begin(), logs.end(),
              [](const EpisodeTraceLog *a, const EpisodeTraceLog *b) {
                  return a->episodeId() < b->episodeId();
              });
    std::string out;
    for (const EpisodeTraceLog *log : logs) {
        for (const TraceEvent &event : log->events()) {
            out += "ep=" + std::to_string(log->episodeId());
            out += " seq=" + std::to_string(event.seq);
            out += " ph=";
            out += event.ph;
            out += " cat=";
            out += event.cat;
            out += " name=" + event.name;
            out += " agent=" + std::to_string(event.agent);
            appendf(out, " t=%.17g", event.sim_s);
            for (const auto &[key, value] : event.args) {
                out += ' ';
                out += key;
                appendf(out, "=%.17g", value);
            }
            out += '\n';
        }
    }
    return out;
}

std::vector<std::string>
Tracer::chromeLines(const std::string &process_label, int pid_base) const
{
    core::MutexLock lock(mu_);
    const int sim_pid = pid_base;
    const int host_pid = pid_base + 1;
    const int sched_pid = pid_base + 2;

    std::vector<const EpisodeTraceLog *> logs;
    logs.reserve(episodes_.size());
    for (const auto &log : episodes_)
        logs.push_back(&log);
    std::sort(logs.begin(), logs.end(),
              [](const EpisodeTraceLog *a, const EpisodeTraceLog *b) {
                  return a->episodeId() < b->episodeId();
              });

    // Host timestamps are absolute stats::hostNow() readings; rebase to
    // the earliest one so the host tracks start near t=0 in the viewer.
    double epoch = std::numeric_limits<double>::infinity();
    for (const EpisodeTraceLog *log : logs)
        for (const TraceEvent &event : log->events())
            if (event.host_s >= 0.0)
                epoch = std::min(epoch, event.host_s);
    for (const auto &buffer : buffers_)
        for (const HostTaskEvent &event : buffer->events)
            epoch = std::min(epoch, event.begin_s);
    if (epoch == std::numeric_limits<double>::infinity())
        epoch = 0.0;

    std::vector<std::string> lines;
    auto meta = [&](int pid, int tid, const char *kind,
                    const std::string &name) {
        std::string line = "{\"ph\":\"M\",\"pid\":" + std::to_string(pid);
        if (tid >= 0)
            line += ",\"tid\":" + std::to_string(tid);
        line += ",\"name\":\"";
        line += kind;
        line += "\",\"args\":{\"name\":";
        appendJsonString(line, name);
        line += "}}";
        lines.push_back(std::move(line));
    };
    auto argsTail = [](const TraceEvent &event) {
        std::string tail;
        if (event.agent >= 0 || !event.args.empty()) {
            tail += ",\"args\":{";
            bool first = true;
            if (event.agent >= 0) {
                tail += "\"agent\":" + std::to_string(event.agent);
                first = false;
            }
            for (const auto &[key, value] : event.args) {
                if (!first)
                    tail += ',';
                first = false;
                tail += '"';
                tail += key;
                tail += "\":";
                appendf(tail, "%.17g", value);
            }
            tail += '}';
        }
        return tail;
    };
    auto spanLine = [&](int pid, int tid, const TraceEvent &event,
                        double ts_s) {
        std::string line = "{\"ph\":\"";
        line += event.ph;
        line += "\"";
        if (event.ph == 'i')
            line += ",\"s\":\"t\"";
        line += ",\"pid\":" + std::to_string(pid);
        line += ",\"tid\":" + std::to_string(tid);
        appendf(line, ",\"ts\":%.3f", ts_s * 1e6);
        if (event.ph != 'E') {
            line += ",\"cat\":\"";
            line += event.cat;
            line += "\",\"name\":";
            appendJsonString(line, event.name);
            line += argsTail(event);
        }
        line += '}';
        lines.push_back(std::move(line));
    };

    bool named_processes = false;
    for (std::size_t t = 0; t < logs.size(); ++t) {
        const EpisodeTraceLog &log = *logs[t];
        if (log.events().empty())
            continue;
        if (!named_processes) {
            meta(sim_pid, -1, "process_name", process_label + " (sim)");
            meta(host_pid, -1, "process_name",
                 process_label + " phases (host)");
            named_processes = true;
        }
        const int tid = static_cast<int>(t);
        const std::string track = "ep " + episodeLabel(log.episodeId());
        meta(sim_pid, tid, "thread_name", track);

        // Sim timeline: recording order is already nondecreasing in sim
        // time (clocks only move forward and instants stamp the current
        // clock); the stable sort is a guard for future emission points
        // and keeps (seq) order within equal timestamps.
        std::vector<const TraceEvent *> ordered;
        ordered.reserve(log.events().size());
        for (const TraceEvent &event : log.events())
            ordered.push_back(&event);
        std::stable_sort(ordered.begin(), ordered.end(),
                         [](const TraceEvent *a, const TraceEvent *b) {
                             return a->sim_s < b->sim_s;
                         });
        for (const TraceEvent *event : ordered)
            spanLine(sim_pid, tid, *event, event->sim_s);

        // Host projection: the dual-clock view of the same spans (only
        // events that carried a host stamp; B/E pairs agree by
        // construction, see EpisodeTraceLog::endSpan).
        std::vector<const TraceEvent *> host;
        for (const TraceEvent &event : log.events())
            if (event.host_s >= 0.0)
                host.push_back(&event);
        if (!host.empty()) {
            meta(host_pid, tid, "thread_name", track);
            std::stable_sort(host.begin(), host.end(),
                             [](const TraceEvent *a, const TraceEvent *b) {
                                 return a->host_s < b->host_s;
                             });
            for (const TraceEvent *event : host)
                spanLine(host_pid, tid, *event, event->host_s - epoch);
        }
    }

    bool named_sched = false;
    for (std::size_t t = 0; t < buffers_.size(); ++t) {
        if (buffers_[t]->events.empty())
            continue;
        if (!named_sched) {
            meta(sched_pid, -1, "process_name",
                 process_label + " scheduler (host)");
            named_sched = true;
        }
        const int tid = static_cast<int>(t);
        meta(sched_pid, tid, "thread_name",
             "pool thread " + std::to_string(t));
        // Nested help-execution records the outer task after its inner
        // tasks finish, so recording order is end-ordered; re-sort by
        // begin. Nesting stays proper (inner spans lie inside the outer
        // call frame on the same thread).
        std::vector<const HostTaskEvent *> ordered;
        ordered.reserve(buffers_[t]->events.size());
        for (const HostTaskEvent &event : buffers_[t]->events)
            ordered.push_back(&event);
        std::stable_sort(
            ordered.begin(), ordered.end(),
            [](const HostTaskEvent *a, const HostTaskEvent *b) {
                return a->begin_s < b->begin_s;
            });
        for (const HostTaskEvent *event : ordered) {
            std::string line = "{\"ph\":\"X\",\"pid\":" +
                               std::to_string(sched_pid) +
                               ",\"tid\":" + std::to_string(tid);
            appendf(line, ",\"ts\":%.3f", (event->begin_s - epoch) * 1e6);
            appendf(line, ",\"dur\":%.3f",
                    std::max(0.0, event->end_s - event->begin_s) * 1e6);
            line += ",\"cat\":\"";
            line += event->cat;
            line += "\",\"name\":";
            appendJsonString(line, event->name);
            line += ",\"args\":{\"worker\":" +
                    std::to_string(event->worker) + "}}";
            lines.push_back(std::move(line));
        }
    }

    return lines;
}

bool
Tracer::writeChromeJson(const std::string &path,
                        const std::string &process_label,
                        int pid_base) const
{
    const std::vector<std::string> lines =
        chromeLines(process_label, pid_base);

    std::FILE *file = std::fopen(path.c_str(), "w");
    if (file == nullptr)
        return false;
    bool ok = std::fputs("{ \"traceEvents\": [\n", file) >= 0;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (!ok)
            break;
        ok = std::fputs(lines[i].c_str(), file) >= 0;
        if (ok && i + 1 < lines.size())
            ok = std::fputc(',', file) != EOF;
        if (ok)
            ok = std::fputc('\n', file) != EOF;
    }
    if (ok)
        ok = std::fputs("] }\n", file) >= 0;
    return std::fclose(file) == 0 && ok;
}

void
Tracer::clear()
{
    core::MutexLock lock(mu_);
    episodes_.clear();
    for (auto &buffer : buffers_)
        buffer->events.clear();
    batch_ordinal_ = 0;
    solo_ordinal_ = 0;
}

} // namespace ebs::obs
