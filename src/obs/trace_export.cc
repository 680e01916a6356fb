#include "obs/trace_export.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "obs/tracer.h"
#include "util/io.h"

namespace mgardp {
namespace obs {

namespace {

// Stage names are string literals under our control, but escape anyway so
// a stray quote or backslash can never produce an unloadable trace.
void AppendEscaped(std::ostringstream* os, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      *os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      *os << buf;
    } else {
      *os << c;
    }
  }
}

std::string HexTraceId(std::uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(id));
  return buf;
}

// One "X" span line for a request lane (no trailing separator).
void AppendLaneSpan(std::ostringstream* os, int pid, const TraceEvent& ev) {
  *os << "{\"name\":\"";
  AppendEscaped(os, ev.name);
  *os << "\",\"cat\":\"";
  AppendEscaped(os, ev.category);
  *os << "\",\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << ev.tid;
  char buf[96];
  std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f", ev.ts_us,
                ev.dur_us);
  *os << buf << "}";
}

}  // namespace

std::string ToChromeTraceJson(const std::vector<TraceEvent>& events) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    if (i > 0) {
      os << ",\n";
    }
    os << "{\"name\":\"";
    AppendEscaped(&os, ev.name);
    os << "\",\"cat\":\"";
    AppendEscaped(&os, ev.category);
    os << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << ev.tid;
    char buf[96];
    std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f}", ev.ts_us,
                  ev.dur_us);
    os << buf;
  }
  os << "]\n";
  return os.str();
}

Status WriteChromeTrace(const Tracer& tracer, const std::string& path) {
  return WriteFileAtomic(path, ToChromeTraceJson(tracer.events()));
}

std::string ToChromeRequestLanesJson(
    const std::vector<RequestTraceRecorder::Retained>& retained) {
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (std::size_t i = 0; i < retained.size(); ++i) {
    const RequestTraceRecorder::Retained& r = retained[i];
    if (r.ctx == nullptr) {
      continue;
    }
    const int pid = static_cast<int>(i) + 1;
    const std::string trace = HexTraceId(r.ctx->trace_id());
    if (!first) {
      os << ",\n";
    }
    first = false;
    // The lane's metadata event doubles as the machine-readable request
    // summary: trace-report parses these args back out line by line.
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"args\":{\"name\":\"req " << trace << " ";
    AppendEscaped(&os, r.ctx->tenant().c_str());
    os << " [" << r.reason << "]\",\"trace\":\"" << trace
       << "\",\"tenant\":\"";
    AppendEscaped(&os, r.ctx->tenant().c_str());
    os << "\",\"reason\":\"" << r.reason << "\",\"status\":\"";
    AppendEscaped(&os, StatusCodeToString(r.code));
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "\",\"latency_ms\":%.3f,\"deadline_ms\":%.3f,"
                  "\"spans_dropped\":%llu",
                  r.latency_ms, r.ctx->deadline_ms(),
                  static_cast<unsigned long long>(r.ctx->spans_dropped()));
    os << buf;
    if (!r.ctx->baggage().empty()) {
      os << ",\"baggage\":\"";
      AppendEscaped(&os, r.ctx->baggage().c_str());
      os << "\"";
    }
    os << "}}";

    std::vector<TraceEvent> spans = r.ctx->spans();
    std::sort(spans.begin(), spans.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                return a.tid != b.tid ? a.tid < b.tid : a.ts_us < b.ts_us;
              });
    for (const TraceEvent& ev : spans) {
      os << ",\n";
      AppendLaneSpan(&os, pid, ev);
    }
  }
  os << "]\n";
  return os.str();
}

Status WriteRequestTraces(const RequestTraceRecorder& recorder,
                          const std::string& path) {
  return WriteFileAtomic(path, ToChromeRequestLanesJson(recorder.retained()));
}

}  // namespace obs
}  // namespace mgardp
