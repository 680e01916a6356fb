// Chrome trace ("trace event format") export of a Tracer's timeline and
// of tail-sampled per-request flight records.
//
// The output is the JSON-array form of the format: one complete ("ph":
// "X") event per span with microsecond ts/dur, which chrome://tracing
// and Perfetto load directly. Nesting needs no explicit encoding — the
// viewers stack events on the same tid by ts/dur containment, which the
// RAII Span discipline guarantees.
//
// Request lanes: ToChromeRequestLanesJson gives every retained request its
// own pid, named by a process_name metadata event carrying the trace id,
// tenant, retention reason, final status, and latency as args — so one
// file shows each sampled request as its own lane, and `mgardp
// trace-report` re-reads the same args (the writer emits exactly one event
// per line to keep that parse trivial). Batch spans carry their span links
// (the trace ids of every request that joined the shared work) in
// args.links.

#ifndef MGARDP_OBS_TRACE_EXPORT_H_
#define MGARDP_OBS_TRACE_EXPORT_H_

#include <string>
#include <vector>

#include "obs/request_trace.h"
#include "util/status.h"

namespace mgardp {
namespace obs {

class Tracer;
struct TraceEvent;

// Renders events as a Chrome trace JSON array ("[]" when empty).
std::string ToChromeTraceJson(const std::vector<TraceEvent>& events);

// Snapshots `tracer`'s timeline and writes it to `path` (atomically, so a
// flush racing a reader never exposes a torn file).
Status WriteChromeTrace(const Tracer& tracer, const std::string& path);

// Renders retained flight-recorder records as per-request Chrome lanes,
// one event object per line (see the header comment).
std::string ToChromeRequestLanesJson(
    const std::vector<RequestTraceRecorder::Retained>& retained);

// Snapshots `recorder`'s retained records and writes the lanes to `path`.
Status WriteRequestTraces(const RequestTraceRecorder& recorder,
                          const std::string& path);

}  // namespace obs
}  // namespace mgardp

#endif  // MGARDP_OBS_TRACE_EXPORT_H_
