#ifndef EBS_TOOLS_TRACE_SUMMARIZE_CORE_H
#define EBS_TOOLS_TRACE_SUMMARIZE_CORE_H

#include <string>
#include <utility>
#include <vector>

/**
 * Core of the trace_summarize CLI (tools/trace_summarize): parse a
 * Chrome trace-event JSON file (the format obs::Tracer::writeChromeJson
 * emits and run_all merges into BENCH_trace.json), check the invariants
 * the writer promises, and print a flame-style per-phase/per-backend
 * rollup.
 *
 * Split out as a library (mirroring tools/ebs_lint) so tests can call
 * the parser/validator directly on Finding-level data instead of
 * scraping CLI output. The parser walks the file with obs::JsonReader,
 * the same strict reader the paper-metric diff uses, keeping only the
 * event fields below.
 */
namespace ebs::tracetool {

/** One trace event, with only the fields the tool consumes. */
struct Event
{
    std::string name;
    std::string cat;
    char ph = '?'; ///< B/E/X/i/M (first byte of the "ph" string)
    bool has_ts = false;
    double ts_us = 0.0; ///< Chrome trace timestamps are microseconds
    bool has_dur = false;
    double dur_us = 0.0;
    long long pid = 0;
    long long tid = 0;
    /** Numeric "args" entries (token counts, delays, occupancy...). */
    std::vector<std::pair<std::string, double>> num_args;
    /** String "args" entries (process_name metadata labels). */
    std::vector<std::pair<std::string, std::string>> str_args;
};

struct ParseResult
{
    bool ok = false;
    std::string error; ///< empty when ok
    std::vector<Event> events;
};

/** Parse trace JSON from a string: a top-level object with a
 * "traceEvents" array of event objects, whose "name", "cat", "ph" and
 * "s" must be strings and "ts", "dur", "pid" and "tid" numbers. Other
 * members are checked and dropped; "args" keeps its string and numeric
 * entries. */
ParseResult parseTraceText(const std::string &text);

/** Read and parse a trace file. */
ParseResult parseTraceFile(const std::string &path);

/**
 * Check the invariants obs::Tracer::writeChromeJson promises:
 *  - every timestamped event's ts is nondecreasing within its
 *    (pid, tid) track, in array order;
 *  - B/E events balance per track (no E without an open B, nothing
 *    left open at the end);
 *  - X events carry a nonnegative dur.
 * Returns one human-readable line per violation (empty = valid).
 */
std::vector<std::string> validate(const std::vector<Event> &events);

/**
 * Flame-style rollup: B/E spans aggregated by their full stack path
 * (count, total seconds), X spans aggregated by name with a trailing
 * `#<seed>` dropped (per-episode scheduler task labels roll up per
 * workload), instants by name with summed numeric args. Tracks are labeled with their process_name
 * metadata when present. Deterministic: every section is sorted.
 */
std::string summarize(const std::vector<Event> &events);

} // namespace ebs::tracetool

#endif // EBS_TOOLS_TRACE_SUMMARIZE_CORE_H
