#ifndef EBS_OBS_TRACE_H
#define EBS_OBS_TRACE_H

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/sync.h"
#include "core/thread_annotations.h"

namespace ebs::obs {

/**
 * Process-wide dual-clock tracing (spans + instants) for the episode
 * pipeline, exported as Chrome trace-event JSON (Perfetto-loadable).
 *
 * Two timelines, two very different contracts:
 *
 *  - **Sim-time events** (coordinator phases, step brackets, LLM batch
 *    flushes, queue admissions, speculative commit outcomes) are stamped
 *    from the episode's SimClock and recorded into an episode-confined
 *    EpisodeTraceLog on the episode's own thread, in the episode's own
 *    deterministic order. Logs are adopted into the shared Tracer after
 *    the episode finishes and merged in (episode id, sequence) order, so
 *    the sim-time span stream is **byte-identical at any EBS_JOBS** —
 *    the same contract every stdout metric honors.
 *
 *  - **Host-time events** (FleetScheduler task begin/end, and the host
 *    projection of phase spans) are diagnostic only. Scheduler tasks are
 *    recorded into per-thread buffers — registered once per thread
 *    against the immortal shared Tracer, appended to without any lock —
 *    and read only post-join. Host stamps always originate from the one
 *    sanctioned host-clock site, stats::hostNow(); nothing in src/obs/
 *    reads a clock itself (the ebs_lint host-clock rule pins this).
 *
 * Tracing is **off by default**: `EBS_TRACE` unset/0/false/off/no means
 * every emission point reduces to one predicted branch (a null trace
 * pointer on the episode path, one relaxed atomic load on the scheduler
 * path) and no memory is allocated — the zero-hot-path-cost contract.
 * Tracing never touches bench stdout and never feeds a paper metric.
 */

/** True when `EBS_TRACE` requests tracing (any value other than empty,
 * "0", "false", "off", "no").
 * Memoized at first call; setTraceEnabled() overrides it for tests. */
bool traceEnabled();

/** Test hook: force tracing on/off for the current process. */
void setTraceEnabled(bool on);

/** One recorded event. `ph` follows the Chrome trace-event phases an
 * episode log records: 'B'/'E' nested spans and 'i' instants. `host_s`
 * < 0 means the event has no host-time projection. */
struct TraceEvent
{
    char ph = 'i';
    const char *cat = ""; ///< static string (track grouping)
    std::string name;
    double sim_s = 0.0;     ///< sim-clock timestamp
    double host_s = -1.0;   ///< host-clock timestamp via stats::hostNow()
    int agent = -1;         ///< agent index; -1 = episode-level
    std::uint64_t seq = 0;  ///< per-episode recording sequence
    /** Numeric payload (token counts, delays, occupancy). Keys are
     * static strings; values print with full precision in simStream(). */
    std::vector<std::pair<const char *, double>> args;
};

/**
 * Span/instant log of one episode. Single-threaded by design: every
 * sim-relevant emission point of an episode (phase brackets, batch
 * flushes, commit outcomes) runs on the episode's own task thread, so
 * the log needs no lock and its sequence numbers are deterministic.
 * Adopt into Tracer::shared() once the episode completes.
 */
class EpisodeTraceLog
{
  public:
    explicit EpisodeTraceLog(std::uint64_t episode_id)
        : episode_id_(episode_id)
    {
    }

    std::uint64_t episodeId() const { return episode_id_; }

    /** Open a nested span. `host_s` < 0 records a sim-only span; the
     * matching endSpan() must then also omit its host stamp so the host
     * projection stays begin/end-balanced. */
    void beginSpan(const char *cat, std::string name, double sim_s,
                   double host_s = -1.0, int agent = -1);

    /** Close the innermost open span (no-op when none is open). */
    void endSpan(double sim_s, double host_s = -1.0);

    /** Record an instant event. */
    void instant(const char *cat, std::string name, double sim_s,
                 int agent = -1,
                 std::vector<std::pair<const char *, double>> args = {});

    /** Close every still-open span at the given instants — the episode
     * wrapper calls this instead of a bare endSpan() so the exported
     * stream is begin/end-balanced even on abnormal exits. */
    void closeOpenSpans(double sim_s, double host_s = -1.0);

    int openSpans() const { return static_cast<int>(open_.size()); }
    const std::vector<TraceEvent> &events() const { return events_; }

  private:
    std::uint64_t episode_id_;
    std::uint64_t next_seq_ = 0;
    /** Open-span stack: whether each open B carried a host stamp. */
    std::vector<bool> open_;
    std::vector<TraceEvent> events_;
};

/**
 * The process-wide trace sink. Collects adopted EpisodeTraceLogs (under
 * a mutex, once per episode) and lock-free per-thread buffers of
 * scheduler task spans, and merges both into one Chrome trace-event
 * JSON file — or, for the determinism test, into a text dump of the
 * sim-time events alone, sorted by (episode id, sequence).
 *
 * Reading (simStream / writeChromeJson / clear) requires quiescence: no
 * episode in flight, scheduler workers idle. Every caller satisfies
 * this structurally — run_all reads after the fleet graph drained, tests
 * read after EpisodeRunner::run() returned (task completion is published
 * through the scheduler mutex, so the buffers are safely visible).
 */
class Tracer
{
  public:
    /** Tracers are also directly constructible: run_all gives every
     * suite its own instance so episode-id streams and trace tracks stay
     * per-suite. Only the shared() instance may receive hostTask() — the
     * scheduler's emission point — because the per-thread buffer slot is
     * process-global (see threadBuffer()). */
    Tracer() = default;

    /** The process-wide instance: the scheduler's host-task sink and the
     * trace sink of episodes run without a tracer of their own. */
    static Tracer &shared();

    /**
     * Deterministic episode-id base for one EpisodeRunner batch:
     * (batch ordinal << 32), ordinals counted per-process from 1.
     * Batches are submitted serially (bench main threads), so ids are
     * reproducible run to run; clear() resets the ordinal so tests can
     * compare streams across runner configurations.
     */
    std::uint64_t nextBatchBase() EBS_EXCLUDES(mu_);

    /** Episode id for a direct runEpisode() call outside a runner batch
     * (top bit set, counted separately). Deterministic only when such
     * calls are serial — the byte-identity guarantee covers runner
     * batches, which always use nextBatchBase(). */
    std::uint64_t nextSoloId() EBS_EXCLUDES(mu_);

    /** Take ownership of one finished episode's log. */
    void adopt(EpisodeTraceLog &&log) EBS_EXCLUDES(mu_);

    /** Record one scheduler task span (host timeline) into the calling
     * thread's buffer. Both stamps are absolute stats::hostNow() values. */
    void hostTask(const char *cat, std::string name, double begin_s,
                  double end_s, int worker) EBS_EXCLUDES(mu_);

    /**
     * Deterministic text dump of every **sim-time** event, sorted by
     * (episode id, sequence) — host stamps excluded by construction.
     * This is the byte-identity surface of the EBS_JOBS 1-vs-8 test.
     */
    std::string simStream() const EBS_EXCLUDES(mu_);

    /**
     * Write Chrome trace-event JSON: one event object per line between
     * a `{ "traceEvents": [` header and a `] }` footer. Three process
     * tracks: `pid_base` = sim-time episodes, +1 = host-time phase
     * projection, +2 = host scheduler tasks; `process_label` names them. Per-track timestamps
     * are emitted sorted, and begin/end events balance — the invariants
     * tools/trace_summarize --validate checks. Returns false on I/O
     * failure.
     */
    bool writeChromeJson(const std::string &path,
                         const std::string &process_label,
                         int pid_base = 1) const EBS_EXCLUDES(mu_);

    /**
     * The body lines of writeChromeJson() without the header/footer or
     * any file I/O: one Chrome trace-event JSON object per element, in
     * emission order. run_all concatenates every suite tracer's lines
     * (distinct pid_base per suite) plus the shared tracer's scheduler
     * track into one merged BENCH_trace.json.
     */
    std::vector<std::string>
    chromeLines(const std::string &process_label,
                int pid_base = 1) const EBS_EXCLUDES(mu_);

    /** Drop every adopted log and buffered task span and reset the
     * episode-id counters (tests; requires quiescence). */
    void clear() EBS_EXCLUDES(mu_);

  private:
    struct HostTaskEvent
    {
        const char *cat = "";
        std::string name;
        double begin_s = 0.0;
        double end_s = 0.0;
        int worker = -1;
    };

    /** One thread's task-span buffer. Appended to only by its owning
     * thread (no lock — the "lock-free" half of the subsystem); read
     * only under quiescence. The registry slot is stable: buffers are
     * owned by the immortal shared Tracer and never reclaimed. */
    struct HostBuffer
    {
        std::vector<HostTaskEvent> events;
    };

    HostBuffer &threadBuffer() EBS_EXCLUDES(mu_);

    mutable core::Mutex mu_;
    std::vector<EpisodeTraceLog> episodes_ EBS_GUARDED_BY(mu_);
    std::vector<std::unique_ptr<HostBuffer>> buffers_ EBS_GUARDED_BY(mu_);
    std::uint64_t batch_ordinal_ EBS_GUARDED_BY(mu_) = 0;
    std::uint64_t solo_ordinal_ EBS_GUARDED_BY(mu_) = 0;
};

} // namespace ebs::obs

#endif // EBS_OBS_TRACE_H
