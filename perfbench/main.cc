// Benchmark driver: one workload per process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --workdir DIR [--trace-out FILE]
//
// --trace 0 sets up three times (set-up time is the median), runs the
// workload for S seconds with the library's own entry points, and prints
// the end-to-end metrics. --trace 1 sets up once with its layer calls
// timed, runs the self-checks, then splits S between an untraced phase, a
// traced phase and (ingest, retrieve) a traced single-thread phase, and
// prints the per-layer metrics; its spans go to --trace-out. Either way the
// last stdout line is one JSON object: correct, attempted, failed, metrics.
// Exit status: 0 when every check passed, 1 when a check failed or a
// library call failed during set-up, 2 on bad arguments.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "spans.h"
#include "util/parallel.h"
#include "workloads.h"

namespace perfbench {
namespace {

// The pool size every phase runs with except the single-thread one. The
// development machine has 4 logical CPUs but only about 1.6 cores of real
// throughput, so 2 threads keeps scaling honest.
constexpr int kPoolThreads = 2;
constexpr int kSetupRuns = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string workdir;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args->workload = value;
      } else if (key == "--seed") {
        args->seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        args->seconds = std::stod(value);
      } else if (key == "--trace") {
        args->trace = value == "1";
        if (value != "0" && value != "1") {
          return false;
        }
      } else if (key == "--workdir") {
        args->workdir = value;
      } else if (key == "--trace-out") {
        args->trace_out = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && have_seed &&
         args->seconds > 0.0 && !args->workdir.empty();
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The highest percentile with at least 10 samples beyond it: the value
// with exactly 10 larger-ranked samples. Falls back to the maximum when
// there are 10 samples or fewer.
double Tail(std::vector<double> v, double* percentile) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= 10) {
    *percentile = 100.0;
    return v.empty() ? 0.0 : v.back();
  }
  *percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return v[n - 11];
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// (name, (value, unit)) in output order.
using Metrics =
    std::vector<std::pair<std::string, std::pair<double, const char*>>>;

void Add(Metrics* m, const std::string& name, double value, const char* unit) {
  m->push_back({name, {value, unit}});
}

// ------------------------------------------------------------ per layer

struct Group {
  double dur_us = 0.0;
  double units = 0.0;
  double units2 = 0.0;
  std::int64_t calls = 0;
  std::vector<double> durs_us;
  std::vector<double> self_us;
};

std::map<std::string, Group> GroupSpans(const std::vector<Span>& spans) {
  std::map<std::int64_t, double> child_us;
  for (const Span& s : spans) {
    if (s.parent != 0) {
      child_us[s.parent] += s.dur_us;
    }
  }
  std::map<std::string, Group> groups;
  for (const Span& s : spans) {
    Group& g = groups[s.name];
    g.dur_us += s.dur_us;
    g.units += s.units;
    g.units2 += s.units2;
    g.calls += s.calls;
    g.durs_us.push_back(s.dur_us);
    auto it = child_us.find(s.id);
    g.self_us.push_back(s.dur_us - (it == child_us.end() ? 0.0 : it->second));
  }
  return groups;
}

// Share of operation wall time that no layer span covers: op time minus
// the self time of every layer span inside an op. service.service is the
// scheduler's own latency report, not a layer call, so inside a refine
// request everything but the decorated Gets and estimator calls (planning
// glue, cache, decode, recompose, audit) counts as unattributed.
double UnattributedFrac(const std::vector<Span>& spans) {
  std::map<std::int64_t, double> child_us;
  for (const Span& s : spans) {
    child_us[s.parent] += s.dur_us;
  }
  double op_us = 0.0, layer_us = 0.0;
  for (const Span& s : spans) {
    if (s.op == 0) {
      continue;
    }
    if (std::string(s.name) == "op") {
      op_us += s.dur_us;
    } else if (std::string(s.name) != "service.service") {
      layer_us += s.dur_us - child_us[s.id];
    }
  }
  return Ratio(op_us - layer_us, op_us);
}

double NsPerUnit(std::map<std::string, Group>& g, const char* name) {
  return Ratio(g[name].dur_us * 1e3, g[name].units);
}

void NsPerCoefMetrics(std::map<std::string, Group>& g, const char* suffix,
                      Metrics* m) {
  const std::string sfx = suffix;
  const double slice = NsPerUnit(g, "encode.slice");
  const double encode = NsPerUnit(g, "encode.encode");
  Add(m, "decompose.fwd_ns_per_coef" + sfx, NsPerUnit(g, "decompose.fwd"),
      "ns");
  Add(m, "decompose.inv_ns_per_coef" + sfx, NsPerUnit(g, "decompose.inv"),
      "ns");
  Add(m, "encode.slice_ns_per_coef" + sfx, slice, "ns");
  Add(m, "encode.errmat_ns_per_coef" + sfx,
      slice > 0.0 && encode > 0.0 ? encode - slice : 0.0, "ns");
  Add(m, "encode.decode_ns_per_coef" + sfx, NsPerUnit(g, "encode.decode"),
      "ns");
}

Metrics LayerMetrics(const std::vector<Span>& setup,
                     const std::vector<Span>& traced,
                     const std::vector<Span>& single, const RunStats& stats,
                     double overhead_frac) {
  std::map<std::string, Group> s = GroupSpans(setup);
  std::map<std::string, Group> g = GroupSpans(traced);
  std::map<std::string, Group> one = GroupSpans(single);
  const double ops = static_cast<double>(g["op"].durs_us.size());
  Metrics m;
  NsPerCoefMetrics(g, "", &m);
  Add(&m, "lossless.compress_mb_per_s",
      Ratio(g["lossless.compress"].units, g["lossless.compress"].dur_us),
      "MB/s");
  Add(&m, "lossless.ratio",
      Ratio(g["lossless.compress"].units, g["lossless.compress"].units2),
      "ratio");
  Add(&m, "lossless.decompress_mb_per_s",
      Ratio(g["lossless.decompress"].units2, g["lossless.decompress"].dur_us),
      "MB/s");
  Add(&m, "storage.write_mb_per_s",
      Ratio(g["storage.write"].units, g["storage.write"].dur_us), "MB/s");
  Add(&m, "storage.gets_per_op",
      Ratio(static_cast<double>(g["storage.get"].durs_us.size()), ops),
      "count");
  Add(&m, "storage.get_bytes_per_op", Ratio(g["storage.get"].units, ops),
      "B");
  Add(&m, "storage.get_us_p50", Median(g["storage.get"].durs_us), "us");
  Add(&m, "progressive.plan_ms_p50",
      Median(g["progressive.plan"].durs_us) * 1e-3, "ms");
  Add(&m, "progressive.audit_ms_p50",
      Median(g["progressive.audit"].durs_us) * 1e-3, "ms");
  Add(&m, "progressive.unattributed_frac", UnattributedFrac(traced),
      "fraction");
  Add(&m, "models.estimate_calls_per_op",
      Ratio(static_cast<double>(g["models.estimate"].calls), ops), "count");
  Add(&m, "models.estimate_us_mean",
      Ratio(g["models.estimate"].dur_us,
            static_cast<double>(g["models.estimate"].calls)),
      "us");
  Add(&m, "service.queue_wait_ms_p50",
      Median(g["service.queue_wait"].durs_us) * 1e-3, "ms");
  Add(&m, "service.service_ms_p50",
      Median(g["service.service"].durs_us) * 1e-3, "ms");
  const double planes = static_cast<double>(
      stats.planes_fetched + stats.planes_cached + stats.planes_reused);
  Add(&m, "service.cache_hit_frac",
      Ratio(static_cast<double>(stats.planes_cached),
            static_cast<double>(stats.planes_cached + stats.planes_fetched)),
      "fraction");
  Add(&m, "service.reuse_frac",
      Ratio(static_cast<double>(stats.planes_reused), planes), "fraction");
  Add(&m, "service.reconstruct_ms_p50",
      Median(g["service.service"].self_us) * 1e-3, "ms");
  Add(&m, "learning.train_s", s["learning.train"].dur_us * 1e-6, "s");
  Add(&m, "sim.generate_s", s["sim.generate"].dur_us * 1e-6, "s");
  Add(&m, "obs.trace_overhead_frac", overhead_frac, "fraction");
  NsPerCoefMetrics(one, "_1t", &m);
  return m;
}

// --------------------------------------------------------------- output

std::string MachineFacts(double field_bytes) {
  const long llc = std::max({sysconf(_SC_LEVEL3_CACHE_SIZE),
                             sysconf(_SC_LEVEL2_CACHE_SIZE), 0L});
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"nproc\": %ld, \"l1d_bytes\": %ld, \"l2_bytes\": %ld, "
      "\"l3_bytes\": %ld, \"pool_threads\": %d, \"field_bytes\": %.0f, "
      "\"field_over_llc_computed\": %.2f}",
      sysconf(_SC_NPROCESSORS_ONLN), sysconf(_SC_LEVEL1_DCACHE_SIZE),
      sysconf(_SC_LEVEL2_CACHE_SIZE), sysconf(_SC_LEVEL3_CACHE_SIZE),
      mgardp::GlobalThreadCount(), field_bytes,
      llc > 0 ? field_bytes / static_cast<double>(llc) : 0.0);
  return buf;
}

std::string MetricsJson(const Metrics& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].first.c_str(),
                  metrics[i].second.first, metrics[i].second.second);
    out += buf;
  }
  return out + "}";
}

void WriteTrace(const std::string& path, const Args& args,
                const std::string& machine, const Metrics& metrics,
                const std::vector<std::pair<const char*, std::vector<Span>*>>&
                    phases) {
  if (path.empty()) {
    return;
  }
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("cannot write " + path);
  }
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"machine\": %s,\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), machine.c_str());
  std::fprintf(f, "\"metrics\": %s,\n", MetricsJson(metrics).c_str());
  std::fprintf(f,
               "\"span_fields\": [\"name\", \"id\", \"parent\", \"op\", "
               "\"start_us\", \"dur_us\", \"calls\", \"units\", \"units2\"]");
  for (const auto& [phase, spans] : phases) {
    std::fprintf(f, ",\n\"%s\": [", phase);
    for (std::size_t i = 0; i < spans->size(); ++i) {
      const Span& s = (*spans)[i];
      std::fprintf(f,
                   "%s\n[\"%s\", %lld, %lld, %lld, %.3f, %.3f, %lld, %.0f, "
                   "%.0f]",
                   i == 0 ? "" : ",", s.name, static_cast<long long>(s.id),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.op), s.start_us, s.dur_us,
                   static_cast<long long>(s.calls), s.units, s.units2);
    }
    std::fprintf(f, "]");
  }
  std::fprintf(f, "}\n");
  if (std::fclose(f) != 0) {
    throw std::runtime_error("cannot write " + path);
  }
}

double MegaCoefsPerSecond(const RunStats& s) {
  return Ratio(s.coefs * 1e-6, s.busy_s);
}

int Main(const Args& args) {
  mgardp::SetGlobalThreadCount(kPoolThreads);
  const std::string workdir = args.workdir + "/" + args.workload + "-" +
                              std::to_string(static_cast<long>(getpid()));
  std::filesystem::remove_all(workdir);
  std::filesystem::create_directories(workdir);
  struct Cleanup {
    std::string dir;
    ~Cleanup() { std::filesystem::remove_all(dir); }
  } cleanup{workdir};

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  Checks checks;
  RunStats stats;
  Metrics metrics;
  std::unique_ptr<Workload> w;

  if (!args.trace) {
    std::vector<double> setup_s;
    for (int k = 0; k < kSetupRuns; ++k) {
      w.reset();
      w = MakeWorkload(args.workload, args.seed, workdir);
      const double start = NowUs();
      w->Setup();
      setup_s.push_back((NowUs() - start) * 1e-6);
    }
    w->Run(args.seconds, false, &stats, &checks);
    double pct = 0.0;
    const double tail = Tail(stats.op_ms, &pct);
    Add(&metrics, "setup_s", Median(setup_s), "s");
    Add(&metrics, "op_ms_p50", Median(stats.op_ms), "ms");
    Add(&metrics, "op_ms_tail", tail, "ms");
    Add(&metrics, "mcoef_per_s", MegaCoefsPerSecond(stats), "Mcoef/s");
    Add(&metrics, "session_ms_p50", Median(stats.cycle_ms), "ms");
    Add(&metrics, "bytes_read_frac",
        Ratio(stats.bytes_read, stats.bytes_stored), "fraction");
    Add(&metrics, "stored_bytes_frac",
        stats.raw > 0.0 ? stats.stored / stats.raw : w->setup_stored_frac(),
        "fraction");
    Add(&metrics, "bound_met_frac",
        1.0 - Ratio(static_cast<double>(stats.bound_missed),
                    static_cast<double>(stats.bound_checked)),
        "fraction");
    Add(&metrics, "peak_rss_mb", PeakRssMb(), "MB");
    std::printf("setup_s runs:");
    for (double s : setup_s) {
      std::printf(" %.3f", s);
    }
    std::printf("\nop_ms_tail is p%.1f of %zu ops; %zu cycles; bound misses "
                "%lld of %lld checked\n",
                pct, stats.op_ms.size(), stats.cycle_ms.size(),
                static_cast<long long>(stats.bound_missed),
                static_cast<long long>(stats.bound_checked));
  } else {
    w = MakeWorkload(args.workload, args.seed, workdir);
    Recorder().set_enabled(true);
    w->Setup();
    std::vector<Span> setup_spans = Recorder().Take();
    Recorder().set_enabled(false);
    w->SelfCheck(&checks);

    const bool single =
        args.workload == "ingest" || args.workload == "retrieve";
    const double phase_s = args.seconds / (single ? 3.0 : 2.0);
    RunStats untraced;
    w->Run(phase_s, false, &untraced, &checks);
    Recorder().set_enabled(true);
    w->Run(phase_s, true, &stats, &checks);
    std::vector<Span> traced_spans = Recorder().Take();
    std::vector<Span> single_spans;
    RunStats one;
    if (single) {
      mgardp::SetGlobalThreadCount(1);
      w->Run(phase_s, true, &one, &checks);
      single_spans = Recorder().Take();
      mgardp::SetGlobalThreadCount(kPoolThreads);
    }
    Recorder().set_enabled(false);
    const double overhead =
        1.0 - Ratio(MegaCoefsPerSecond(stats), MegaCoefsPerSecond(untraced));
    metrics = LayerMetrics(setup_spans, traced_spans, single_spans, stats,
                           overhead);
    stats.Merge(untraced);
    stats.Merge(one);
    WriteTrace(args.trace_out, args, MachineFacts(w->field_bytes()), metrics,
               {{"setup_spans", &setup_spans},
                {"spans", &traced_spans},
                {"spans_1t", &single_spans}});
    if (!args.trace_out.empty()) {
      std::printf("trace: %s (%zu spans)\n", args.trace_out.c_str(),
                  setup_spans.size() + traced_spans.size() +
                      single_spans.size());
    }
  }

  std::printf("machine: %s\n", MachineFacts(w->field_bytes()).c_str());
  const std::vector<std::string> failures = checks.failures();
  std::printf("checks: %lld run, %zu failed\n",
              static_cast<long long>(checks.count()), failures.size());
  for (const std::string& f : failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }
  const bool correct = failures.empty() && stats.failed == 0 &&
                       stats.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(stats.attempted),
              static_cast<long long>(stats.failed),
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args) ||
      perfbench::MakeWorkload(args.workload, 0, "") == nullptr) {
    std::fprintf(stderr,
                 "usage: perfbench --workload ingest|retrieve|refine|learned "
                 "--seed N --seconds S --trace 0|1 --workdir DIR "
                 "[--trace-out FILE]\n");
    return 2;
  }
  try {
    return perfbench::Main(args);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
