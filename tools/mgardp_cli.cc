// mgardp command-line tool: refactor, inspect, and progressively retrieve
// scalar fields from the shell.
//
// Subcommands:
//   generate  --app warpx|gray-scott --field <name> --dims NX[,NY[,NZ]]
//             --timestep T --out FILE.f64
//             Synthesizes one timestep of a simulation field as raw
//             little-endian float64 (z fastest).
//   refactor  --input FILE.f64 --dims NX[,NY[,NZ]] --out DIR
//             [--planes B] [--steps K] [--no-correction]
//             [--codec auto|pipeline|rice]
//             Refactors a raw field into a progressive artifact directory.
//             --codec picks the lossless coder per plane ("auto" gates on
//             plane statistics; retrieval reads any mix).
//   info      --dir DIR
//             Prints the artifact's levels, plane sizes, and error matrix
//             summary.
//   retrieve  --dir DIR (--rel-error R | --abs-error E | --psnr P)
//             --out FILE.f64 [--estimator theory|snorm]
//             Plans + reconstructs under the requested accuracy and writes
//             the result; prints bytes read vs the full artifact.
//   verify    --original FILE.f64 --reconstructed FILE.f64
//             Prints max error, RMSE, and PSNR between two raw fields.
//   verify    --dir DIR | --repo ROOT     (also available as `scrub`)
//             Walks an artifact directory (or every artifact of a field
//             repository) and verifies each stored segment against its
//             CRC-32C. Exits 3 naming the bad (level, plane)s if any
//             segment is corrupt, missing, or out of range.
//   train     --model dmgard|emgard --app warpx|gray-scott --field NAME
//             --dims NX[,NY[,NZ]] --timesteps T --out MODEL.bin
//             [--epochs E] [--bounds-per-decade N]
//             Runs the paper's offline stage end to end: simulate the
//             training timesteps (first half of T), collect compression
//             records, train the chosen model, and save it.
//   retrieve  also accepts --dmgard MODEL.bin (one-shot prefix prediction)
//             or --emgard MODEL.bin (learned estimator in the greedy
//             planner) instead of --estimator.
//
//   retrieve  also accepts --tolerant: retrieves through a RetrievalSession
//             over the artifact directory (retries + graceful degradation)
//             and prints the refinement summary instead of failing on a
//             damaged artifact.
//
//   serve-bench  --app warpx|gray-scott --field NAME --dims NX[,NY[,NZ]]
//             [--fields F] [--clients 1,8,64] [--rounds R] [--planes B]
//             [--cache-mb M] [--queue CAP] [--zipf S] [--seed S]
//             [--json FILE]
//             Drives the in-process retrieval service with N simulated
//             clients progressively tightening error bounds on a Zipf-
//             distributed set of fields through a shared segment cache and
//             the request scheduler; prints throughput, cache hit rate,
//             and latency percentiles per client count.
//
//   serve-bench  with --shards N switches to cluster chaos mode: the
//             corpus is sharded over N simulated nodes (consistent-hash
//             placement, --replicas copies), --requests refinements
//             arrive open-loop (Poisson at --rate req/s, 0 = full speed),
//             and --kill-node-at 50% kills a node mid-run. Reads fail
//             over along the ring; refinements that lose segments degrade
//             in their sessions and are counted as degraded; p50/p99/p999
//             latency and the failover/scrub counters land in --json.
//
//   scrub     --cluster [--shards N] [--replicas R] [--kill-node ID]
//             In-process repair drill: wipe one node of a simulated
//             cluster and scrub-repair it back to full replication.
//             Exits 0 when repaired, 3 when segments were lost (R=1).
//
//   serve-bench  with --retrain runs the online-retraining drill: serve a
//             Gray-Scott-trained model, shift the traffic to WarpX J_x
//             mid-run, and let the audit-fed drift trigger refit, shadow,
//             and promote a replacement without a restart. Emits the
//             per-phase violation rates (and a junk-candidate rejection
//             proof) to --json; --registry DIR persists the final
//             registry for `models list`.
//
//   models    <list|publish|pin|rollback> --dir REGISTRY_DIR
//             Administers the versioned model registry: list versions and
//             serving state, publish a trained blob (--blob MODEL.bin,
//             --serve to promote immediately), pin a specific version, or
//             roll back to the previously serving one. Exits 3 when any
//             stored blob or the index fails its CRC-32C.
//
//   retrieve and serve-bench accept --threads N (otherwise the
//   MGARDP_THREADS environment variable, then hardware concurrency).
//
// Exit status is 0 on success, 1 on usage errors, 2 on runtime failures,
// 3 when verify/scrub found corrupt segments.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_backend.h"
#include "learning/background_trainer.h"
#include "learning/model_registry.h"
#include "learning/serving.h"
#include "learning/shadow.h"
#include "learning/training_set.h"
#include "lossless/codec.h"
#include "models/dmgard.h"
#include "models/emgard.h"
#include "models/features.h"
#include "models/hybrid.h"
#include "obs/audit.h"
#include "obs/build_info.h"
#include "obs/prom_export.h"
#include "obs/request_trace.h"
#include "obs/slo.h"
#include "obs/trace_export.h"
#include "obs/tracer.h"
#include "progressive/reconstructor.h"
#include "progressive/refactorer.h"
#include "progressive/repository.h"
#include "service/retrieval_session.h"
#include "service/scheduler.h"
#include "service/segment_cache.h"
#include "sim/dataset.h"
#include "storage/storage_backend.h"
#include "util/io.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace mgardp;

// Set when a subcommand already wrote the --prom file itself (serve-bench's
// periodic flusher includes service metrics the generic exit-time writer
// does not have), so main() must not clobber it with an audit-only render.
bool g_prom_handled = false;

// ---- tiny flag parser ----------------------------------------------------

class Flags {
 public:
  Flags(int argc, char** argv, int start) {
    for (int i = start; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        error_ = "unexpected positional argument: " + arg;
        return;
      }
      arg = arg.substr(2);
      const std::size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc &&
                 std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[arg] = argv[++i];
      } else {
        values_[arg] = "";  // boolean flag
      }
    }
  }

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  bool Has(const std::string& name) const { return values_.count(name) > 0; }

  std::string GetString(const std::string& name,
                        const std::string& def = "") const {
    auto it = values_.find(name);
    return it == values_.end() ? def : it->second;
  }

  double GetDouble(const std::string& name, double def) const {
    auto it = values_.find(name);
    return it == values_.end() ? def : std::stod(it->second);
  }

  int GetInt(const std::string& name, int def) const {
    auto it = values_.find(name);
    return it == values_.end() ? def : std::stoi(it->second);
  }

 private:
  std::map<std::string, std::string> values_;
  std::string error_;
};

bool ParseDims(const std::string& spec, Dims3* dims) {
  std::vector<std::size_t> parts;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string tok =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (tok.empty()) {
      return false;
    }
    parts.push_back(std::stoull(tok));
    if (comma == std::string::npos) {
      break;
    }
    pos = comma + 1;
  }
  if (parts.empty() || parts.size() > 3) {
    return false;
  }
  parts.resize(3, 1);
  *dims = Dims3{parts[0], parts[1], parts[2]};
  return dims->size() > 0;
}

// ---- raw f64 file helpers --------------------------------------------------

Status WriteRawField(const std::string& path, const Array3Dd& data) {
  std::string bytes(reinterpret_cast<const char*>(data.data()),
                    data.size() * sizeof(double));
  return WriteFile(path, bytes);
}

Result<Array3Dd> ReadRawField(const std::string& path, Dims3 dims) {
  MGARDP_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  if (bytes.size() != dims.size() * sizeof(double)) {
    return Status::Invalid(path + " holds " + std::to_string(bytes.size()) +
                           " bytes but dims " + dims.ToString() + " need " +
                           std::to_string(dims.size() * sizeof(double)));
  }
  std::vector<double> values(dims.size());
  std::memcpy(values.data(), bytes.data(), bytes.size());
  return Array3Dd(dims, std::move(values));
}

// ---- subcommands ----------------------------------------------------------

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 2;
}

int Usage(const char* msg) {
  std::fprintf(stderr, "usage error: %s\n(run with no arguments for help)\n",
               msg);
  return 1;
}

// Applies --threads to the global pool. Returns 0, or a usage exit code.
int ApplyThreadsFlag(const Flags& flags) {
  if (!flags.Has("threads")) {
    return 0;
  }
  const int n = flags.GetInt("threads", 0);
  if (n <= 0) {
    return Usage("--threads must be a positive integer");
  }
  SetGlobalThreadCount(n);
  return 0;
}

int CmdGenerate(const Flags& flags) {
  Dims3 dims;
  if (!ParseDims(flags.GetString("dims", "33,33,33"), &dims)) {
    return Usage("bad --dims");
  }
  const std::string app = flags.GetString("app", "warpx");
  const std::string field = flags.GetString("field", "E_x");
  const int timestep = flags.GetInt("timestep", 0);
  const std::string out = flags.GetString("out");
  if (out.empty()) {
    return Usage("--out is required");
  }

  Array3Dd data(Dims3{1, 1, 1});
  if (app == "warpx") {
    WarpXField id;
    if (field == "B_x") {
      id = WarpXField::kBx;
    } else if (field == "E_x") {
      id = WarpXField::kEx;
    } else if (field == "J_x") {
      id = WarpXField::kJx;
    } else {
      return Usage("warpx fields: B_x | E_x | J_x");
    }
    WarpXSimulator sim(dims);
    data = sim.Field(id, timestep);
  } else if (app == "gray-scott") {
    GrayScottSimulator sim(dims);
    sim.Step(150 + 15 * timestep);
    if (field == "D_u") {
      data = sim.u();
    } else if (field == "D_v") {
      data = sim.v();
    } else {
      return Usage("gray-scott fields: D_u | D_v");
    }
  } else {
    return Usage("--app must be warpx or gray-scott");
  }

  Status st = WriteRawField(out, data);
  if (!st.ok()) {
    return Fail(st);
  }
  FieldSummary s = Summarize(data.vector());
  std::printf("wrote %s: %s/%s t=%d dims=%s range=[%.6g, %.6g]\n",
              out.c_str(), app.c_str(), field.c_str(), timestep,
              dims.ToString().c_str(), s.min, s.max);
  return 0;
}

int CmdRefactor(const Flags& flags) {
  Dims3 dims;
  if (!ParseDims(flags.GetString("dims"), &dims)) {
    return Usage("bad or missing --dims");
  }
  const std::string input = flags.GetString("input");
  const std::string out = flags.GetString("out");
  if (input.empty() || out.empty()) {
    return Usage("--input and --out are required");
  }
  auto data = ReadRawField(input, dims);
  if (!data.ok()) {
    return Fail(data.status());
  }
  RefactorOptions opts;
  opts.num_planes = flags.GetInt("planes", 32);
  opts.target_steps = flags.GetInt("steps", -1);
  opts.use_correction = !flags.Has("no-correction");
  opts.codec = flags.GetString("codec").empty() ? "auto"
                                                : flags.GetString("codec");
  Refactorer refactorer(opts);
  auto field = refactorer.Refactor(std::move(data).value());
  if (!field.ok()) {
    return Fail(field.status());
  }
  Status st = field.value().WriteToDirectory(out);
  if (!st.ok()) {
    return Fail(st);
  }
  const std::size_t stored = field.value().segments.TotalBytes();
  std::printf("refactored %s (%s) -> %s\n", input.c_str(),
              dims.ToString().c_str(), out.c_str());
  std::printf("  levels=%d planes=%d stored=%zu bytes (%.2fx of raw)\n",
              field.value().num_levels(), field.value().num_planes, stored,
              static_cast<double>(stored) /
                  static_cast<double>(dims.size() * sizeof(double)));
  return 0;
}

int CmdInfo(const Flags& flags) {
  const std::string dir = flags.GetString("dir");
  if (dir.empty()) {
    return Usage("--dir is required");
  }
  auto field = RefactoredField::LoadFromDirectory(dir);
  if (!field.ok()) {
    return Fail(field.status());
  }
  const RefactoredField& f = field.value();
  std::printf("artifact %s\n", dir.c_str());
  std::printf("  grid %s (original %s), %d levels x %d planes, "
              "correction=%s\n",
              f.hierarchy.dims().ToString().c_str(),
              f.original_dims.ToString().c_str(), f.num_levels(),
              f.num_planes, f.use_correction ? "on" : "off");
  SizeInterpreter sizes = MakeSizeInterpreter(f);
  std::printf("  %5s %10s %12s %10s %12s %12s\n", "level", "coeffs",
              "bytes", "exponent", "Err[0]", "Err[B]");
  for (int l = 0; l < f.num_levels(); ++l) {
    std::printf("  %5d %10zu %12zu %10d %12.4g %12.4g\n", l,
                f.hierarchy.LevelSize(l), sizes.LevelBytes(l, f.num_planes),
                f.level_exponents[l], f.level_errors[l].max_abs.front(),
                f.level_errors[l].max_abs.back());
  }
  // Lossless codec mix across the stored segments (the recorded per-segment
  // codec ids; legacy flags bytes all count as the pipeline codec).
  std::map<std::string, int> codec_mix;
  for (const auto& [level, plane] : f.segments.Keys()) {
    const char* name = lossless::CodecName(f.segments.CodecOf(level, plane));
    ++codec_mix[name != nullptr ? name : "unknown"];
  }
  std::printf("  codecs:");
  for (const auto& [name, count] : codec_mix) {
    std::printf(" %s=%d", name.c_str(), count);
  }
  std::printf("\n");
  std::printf("  total stored: %zu bytes\n", sizes.FullBytes());
  return 0;
}

int CmdRetrieve(const Flags& flags) {
  if (int rc = ApplyThreadsFlag(flags); rc != 0) {
    return rc;
  }
  const std::string dir = flags.GetString("dir");
  const std::string out = flags.GetString("out");
  if (dir.empty() || out.empty()) {
    return Usage("--dir and --out are required");
  }
  Result<RefactoredField> field = Status::Internal("unset");
  if (flags.Has("tolerant")) {
    // Metadata only: a full load verifies every segment and would refuse
    // the damaged artifacts the tolerant path exists to salvage.
    auto meta = ReadFileToString(dir + "/metadata.bin");
    if (!meta.ok()) {
      return Fail(meta.status());
    }
    field = RefactoredField::DeserializeMetadata(meta.value());
  } else {
    field = RefactoredField::LoadFromDirectory(dir);
  }
  if (!field.ok()) {
    return Fail(field.status());
  }
  const RefactoredField& f = field.value();

  const std::string estimator_name = flags.GetString("estimator", "theory");
  TheoryEstimator theory;
  SNormEstimator snorm;
  EMgardModel emgard;
  std::unique_ptr<LearnedConstantsEstimator> learned;
  const ErrorEstimator* estimator = nullptr;
  if (flags.Has("emgard")) {
    auto blob = ReadFileToString(flags.GetString("emgard"));
    if (!blob.ok()) {
      return Fail(blob.status());
    }
    auto model = EMgardModel::Deserialize(blob.value());
    if (!model.ok()) {
      return Fail(model.status());
    }
    emgard = std::move(model).value();
    learned = std::make_unique<LearnedConstantsEstimator>(&emgard);
    estimator = learned.get();
  } else if (estimator_name == "theory") {
    estimator = &theory;
  } else if (estimator_name == "snorm") {
    estimator = &snorm;
  } else {
    return Usage("--estimator must be theory or snorm");
  }

  if (flags.Has("budget")) {
    // Budget-constrained retrieval: best accuracy within a byte budget.
    const std::size_t budget =
        static_cast<std::size_t>(flags.GetDouble("budget", 0.0));
    Reconstructor rec(estimator);
    auto plan = rec.PlanWithinBudget(f, budget);
    if (!plan.ok()) {
      return Fail(plan.status());
    }
    auto data = rec.Reconstruct(f, plan.value());
    if (!data.ok()) {
      return Fail(data.status());
    }
    Status st = WriteRawField(out, data.value());
    if (!st.ok()) {
      return Fail(st);
    }
    std::printf("retrieved %s -> %s within %zu-byte budget\n", dir.c_str(),
                out.c_str(), budget);
    std::printf("  bytes read: %zu, estimated error: %.6g\n",
                plan.value().total_bytes, plan.value().estimated_error);
    return 0;
  }

  double bound = 0.0;
  if (flags.Has("abs-error")) {
    bound = flags.GetDouble("abs-error", 0.0);
  } else if (flags.Has("rel-error")) {
    bound = flags.GetDouble("rel-error", 0.0) * f.data_summary.range();
  } else if (flags.Has("psnr")) {
    if (estimator_name != "snorm") {
      return Usage("--psnr requires --estimator snorm");
    }
    bound = PsnrToRmsBound(f.data_summary.range(),
                           flags.GetDouble("psnr", 60.0));
  } else {
    return Usage(
        "one of --abs-error, --rel-error, --psnr, --budget is required");
  }
  if (!(bound > 0.0)) {
    return Usage("accuracy bound must be positive");
  }

  // Optional ground truth: audit records (and the summary line) carry the
  // actual achieved error instead of being estimate-only.
  std::optional<Array3Dd> truth;
  if (flags.Has("original")) {
    auto t = ReadRawField(flags.GetString("original"), f.original_dims);
    if (!t.ok()) {
      return Fail(t.status());
    }
    truth = std::move(t).value();
  }

  if (flags.Has("tolerant")) {
    if (flags.Has("dmgard")) {
      return Usage("--tolerant cannot be combined with --dmgard");
    }
    auto backend = DirectoryBackend::Open(dir);
    if (!backend.ok()) {
      return Fail(backend.status());
    }
    RetrievalSession session(dir, &f, &backend.value(), estimator);
    session.set_ground_truth(truth ? &*truth : nullptr);
    RetrievalSession::Refinement refinement;
    auto data = session.Refine(bound, &refinement);
    if (!data.ok()) {
      return Fail(data.status());
    }
    Status st = WriteRawField(out, *data.value());
    if (!st.ok()) {
      return Fail(st);
    }
    std::printf("retrieved %s -> %s (fault-tolerant, estimator=%s)\n%s\n",
                dir.c_str(), out.c_str(), estimator->name().c_str(),
                refinement.ToString().c_str());
    return 0;
  }

  Reconstructor rec(estimator);
  rec.set_ground_truth(truth ? &*truth : nullptr);
  RetrievalPlan plan;
  Result<Array3Dd> data = Status::Internal("unset");
  std::string mode = estimator->name();
  if (flags.Has("dmgard")) {
    auto blob = ReadFileToString(flags.GetString("dmgard"));
    if (!blob.ok()) {
      return Fail(blob.status());
    }
    auto model = DMgardModel::Deserialize(blob.value());
    if (!model.ok()) {
      return Fail(model.status());
    }
    if (flags.Has("emgard")) {
      // Hybrid: D-MGARD warm start corrected by the learned estimator.
      mode = "hybrid";
      auto hplan = PlanHybrid(f, bound, model.value(), *estimator);
      if (!hplan.ok()) {
        return Fail(hplan.status());
      }
      plan = std::move(hplan).value();
      data = rec.Reconstruct(f, plan);
      if (data.ok()) {
        AuditRetrieval(f, "hybrid", bound, plan, truth ? &*truth : nullptr,
                       &data.value());
      }
    } else {
      mode = "dmgard";
      auto prefix = model.value().Predict(
          ExtractDataFeatures(f.data_summary), f.level_sketches, bound);
      if (!prefix.ok()) {
        return Fail(prefix.status());
      }
      auto pplan = rec.PlanFromPrefix(f, prefix.value());
      if (!pplan.ok()) {
        return Fail(pplan.status());
      }
      plan = std::move(pplan).value();
      data = rec.Reconstruct(f, plan);
      if (data.ok()) {
        // D-MGARD's implicit claim is the bound it aimed its prediction
        // at, not the baseline estimator's value over that prefix.
        RetrievalPlan audited = plan;
        audited.estimated_error = bound;
        AuditRetrieval(f, "dmgard", bound, audited,
                       truth ? &*truth : nullptr, &data.value());
      }
    }
  } else {
    data = rec.Retrieve(f, bound, &plan);  // audits internally
  }
  if (!data.ok()) {
    return Fail(data.status());
  }
  Status st = WriteRawField(out, data.value());
  if (!st.ok()) {
    return Fail(st);
  }
  const std::size_t full = MakeSizeInterpreter(f).FullBytes();
  std::printf("retrieved %s -> %s\n", dir.c_str(), out.c_str());
  std::printf("  mode=%s bound=%.6g estimate=%.6g\n", mode.c_str(), bound,
              plan.estimated_error);
  if (truth && truth->vector().size() == data.value().vector().size()) {
    const double actual =
        MaxAbsError(truth->vector(), data.value().vector());
    std::printf("  actual error: %.6g (%s)\n", actual,
                actual <= bound ? "bound met" : "BOUND VIOLATED");
  }
  std::printf("  planes per level:");
  for (int b : plan.prefix) {
    std::printf(" %d", b);
  }
  std::printf("\n  bytes read: %zu of %zu (%.1f%%)\n", plan.total_bytes,
              full,
              100.0 * static_cast<double>(plan.total_bytes) /
                  static_cast<double>(full));
  return 0;
}

Result<FieldSeries> GenerateSeries(const std::string& app,
                                   const std::string& field, Dims3 dims,
                                   int timesteps) {
  if (app == "warpx") {
    WarpXDatasetOptions opts;
    opts.dims = dims;
    opts.num_timesteps = timesteps;
    if (field == "B_x") {
      return GenerateWarpX(opts, WarpXField::kBx);
    }
    if (field == "E_x") {
      return GenerateWarpX(opts, WarpXField::kEx);
    }
    if (field == "J_x") {
      return GenerateWarpX(opts, WarpXField::kJx);
    }
    return Status::Invalid("warpx fields: B_x | E_x | J_x");
  }
  if (app == "gray-scott") {
    GrayScottDatasetOptions opts;
    opts.dims = dims;
    opts.num_timesteps = timesteps;
    auto fields = GenerateGrayScott(opts);
    if (field == "D_u") {
      return std::move(fields[0]);
    }
    if (field == "D_v") {
      return std::move(fields[1]);
    }
    return Status::Invalid("gray-scott fields: D_u | D_v");
  }
  return Status::Invalid("--app must be warpx or gray-scott");
}

// ---- audit -----------------------------------------------------------------

// Replays a dataset (optionally through a field repository on disk)
// against every available model and prints the per-model error-control
// report: bound-violation rate, overfetch vs the matrix-oracle floor,
// estimator tightness, and per-level prefix drift.
int CmdAudit(const Flags& flags) {
  if (int rc = ApplyThreadsFlag(flags); rc != 0) {
    return rc;
  }
  Dims3 dims;
  if (!ParseDims(flags.GetString("dims", "33,33,33"), &dims)) {
    return Usage("bad --dims");
  }
  const std::string app = flags.GetString("app", "gray-scott");
  const std::string field_name = flags.GetString("field", "D_u");
  const int timesteps = flags.GetInt("timesteps", 4);
  const int planes = flags.GetInt("planes", 32);
  if (timesteps <= 0) {
    return Usage("--timesteps must be positive");
  }
  auto series = GenerateSeries(app, field_name, dims, timesteps);
  if (!series.ok()) {
    return Usage(series.status().message().c_str());
  }

  // Optional learned models; without them the audit covers the baseline
  // estimator only.
  std::unique_ptr<DMgardModel> dmgard;
  EMgardModel emgard_model;
  std::unique_ptr<LearnedConstantsEstimator> learned;
  if (flags.Has("dmgard")) {
    auto blob = ReadFileToString(flags.GetString("dmgard"));
    if (!blob.ok()) {
      return Fail(blob.status());
    }
    auto model = DMgardModel::Deserialize(blob.value());
    if (!model.ok()) {
      return Fail(model.status());
    }
    dmgard = std::make_unique<DMgardModel>(std::move(model).value());
  }
  if (flags.Has("emgard")) {
    auto blob = ReadFileToString(flags.GetString("emgard"));
    if (!blob.ok()) {
      return Fail(blob.status());
    }
    auto model = EMgardModel::Deserialize(blob.value());
    if (!model.ok()) {
      return Fail(model.status());
    }
    emgard_model = std::move(model).value();
    learned = std::make_unique<LearnedConstantsEstimator>(&emgard_model);
  }

  // Artifact source: load from (or populate) a repository when --repo is
  // given, refactor in memory otherwise.
  const std::string repo_root = flags.GetString("repo");
  std::optional<FieldRepository> repo;
  if (!repo_root.empty()) {
    auto r = FieldRepository::Open(repo_root);
    if (!r.ok()) {
      return Fail(r.status());
    }
    repo.emplace(std::move(r).value());
  }
  RefactorOptions ropts;
  ropts.num_planes = planes;
  Refactorer refactorer(ropts);
  std::vector<RefactoredField> fields;
  fields.reserve(timesteps);
  for (int t = 0; t < timesteps; ++t) {
    if (repo && repo->Contains(app, field_name, t)) {
      auto loaded = repo->Load(app, field_name, t);
      if (!loaded.ok()) {
        return Fail(loaded.status());
      }
      fields.push_back(std::move(loaded).value());
      continue;
    }
    auto artifact = refactorer.Refactor(series.value().frames[t]);
    if (!artifact.ok()) {
      return Fail(artifact.status());
    }
    if (repo) {
      Status st = repo->Store(app, field_name, t, artifact.value());
      if (!st.ok()) {
        return Fail(st);
      }
    }
    fields.push_back(std::move(artifact).value());
  }

  const std::vector<double> rel_bounds =
      SubsampledRelativeErrorBounds(flags.GetInt("bounds-per-decade", 2));

  obs::ErrorControlAuditor& auditor = obs::GlobalAuditor();
  auditor.Reset();
  TheoryEstimator theory;
  for (int t = 0; t < timesteps; ++t) {
    const RefactoredField& f = fields[t];
    const Array3Dd& truth = series.value().frames[t];
    for (const double rel : rel_bounds) {
      const double bound = rel * f.data_summary.range();
      if (!(bound > 0.0)) {
        continue;
      }
      {
        Reconstructor rec(&theory);
        rec.set_ground_truth(&truth);
        auto data = rec.Retrieve(f, bound);  // audits as "baseline"
        if (!data.ok()) {
          return Fail(data.status());
        }
      }
      if (learned != nullptr) {
        Reconstructor rec(learned.get());
        rec.set_ground_truth(&truth);
        auto data = rec.Retrieve(f, bound);  // audits as "emgard"
        if (!data.ok()) {
          return Fail(data.status());
        }
      }
      if (dmgard != nullptr) {
        auto prefix = dmgard->Predict(ExtractDataFeatures(f.data_summary),
                                      f.level_sketches, bound);
        if (!prefix.ok()) {
          return Fail(prefix.status());
        }
        Reconstructor rec(&theory);
        auto pplan = rec.PlanFromPrefix(f, prefix.value());
        if (!pplan.ok()) {
          return Fail(pplan.status());
        }
        auto data = rec.Reconstruct(f, pplan.value());
        if (!data.ok()) {
          return Fail(data.status());
        }
        RetrievalPlan audited = std::move(pplan).value();
        audited.estimated_error = bound;  // the model's implicit claim
        AuditRetrieval(f, "dmgard", bound, audited, &truth, &data.value());
      }
      if (dmgard != nullptr && learned != nullptr) {
        auto hplan = PlanHybrid(f, bound, *dmgard, *learned);
        if (!hplan.ok()) {
          return Fail(hplan.status());
        }
        auto data = ReconstructFromPrefix(f, hplan.value().prefix);
        if (!data.ok()) {
          return Fail(data.status());
        }
        AuditRetrieval(f, "hybrid", bound, hplan.value(), &truth,
                       &data.value());
      }
    }
  }

  const obs::ErrorControlAuditor::Snapshot snap = auditor.snapshot();
  std::printf("audit: %s/%s dims=%s timesteps=%d bounds=%zu\n", app.c_str(),
              field_name.c_str(), dims.ToString().c_str(), timesteps,
              rel_bounds.size());
  std::printf("  %-9s %8s %6s %10s %9s %9s %9s %9s %6s\n", "model",
              "records", "viol", "viol-rate", "overfetch", "ovf-p50",
              "tight", "tight-p50", "drift");
  for (const auto& m : snap.models) {
    std::printf("  %-9s %8llu %6llu %9.1f%% %9.2f %9.2f %9.2f %9.2f %6s\n",
                m.model.c_str(),
                static_cast<unsigned long long>(m.records),
                static_cast<unsigned long long>(m.violations),
                100.0 * m.violation_rate(), m.overfetch.mean,
                m.overfetch.p50, m.tightness.mean, m.tightness.p50,
                m.drift_alert() ? "ALERT" : "ok");
  }

  const std::string json_path = flags.GetString("json");
  if (!json_path.empty()) {
    std::ostringstream os;
    os << "{\"benchmark\":\"audit\",\"app\":\"" << app << "\",\"field\":\""
       << field_name << "\",\"dims\":\"" << dims.ToString()
       << "\",\"timesteps\":" << timesteps
       << ",\"bounds\":" << rel_bounds.size()
       << ",\"audit\":" << snap.ToJson() << "}\n";
    Status st = WriteFile(json_path, os.str());
    if (!st.ok()) {
      return Fail(st);
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

// ---- serve-bench -----------------------------------------------------------

// One measured service run: `num_clients` sessions over Zipf-assigned
// fields, `rounds` rounds of tightening bounds through the scheduler.
struct ServeBenchResult {
  int clients = 0;
  std::size_t requests = 0;
  std::size_t rejected = 0;
  std::size_t failed = 0;
  double seconds = 0.0;
  double throughput_rps = 0.0;
  ServiceMetrics::Snapshot metrics;
};

bool ParseIntList(const std::string& spec, std::vector<int>* out) {
  out->clear();
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string tok =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (tok.empty()) {
      return false;
    }
    const int v = std::stoi(tok);
    if (v <= 0) {
      return false;
    }
    out->push_back(v);
    if (comma == std::string::npos) {
      break;
    }
    pos = comma + 1;
  }
  return !out->empty();
}

// ---- cluster chaos bench ---------------------------------------------------

// --kill-node-at accepts a fraction of the request stream, "0.5" or "50%".
// Returns a negative value when the flag is absent (no kill).
double ParseKillFraction(const Flags& flags) {
  if (!flags.Has("kill-node-at")) {
    return -1.0;
  }
  std::string spec = flags.GetString("kill-node-at");
  if (spec.empty()) {
    return 0.5;
  }
  if (spec.back() == '%') {
    return std::stod(spec.substr(0, spec.size() - 1)) / 100.0;
  }
  return std::stod(spec);
}

// Open-loop chaos benchmark against the replicated cluster backend:
// `--requests` refinements arrive Poisson-spaced at `--rate` req/s (0 =
// back-to-back) from `--clients` sessions over fields sharded across
// `--shards` simulated nodes with `--replicas` copies each; at
// `--kill-node-at` of the stream one node is killed mid-run. Every session
// carries ground truth, so a reconstruction whose estimate claims the
// bound but whose actual error misses it counts as `incorrect`.
// Refinements that lose segments (e.g. --replicas 1 losing a segment with
// its node) degrade inside their sessions and count as honest
// degradations rather than crashes.
// ---- serve-bench observability (flight recorder + SLO) ---------------------

// Per-run request-tracing and SLO wiring shared by the serve-bench modes.
// The recorder only exists when --trace-requests=FILE asked for it; the
// SLO monitor always runs (it is a handful of counters) so every bench
// ends with a burn-rate report.
struct ServeObs {
  std::unique_ptr<obs::RequestTraceRecorder> recorder;
  std::unique_ptr<obs::SloMonitor> slo;
  std::string trace_path;
};

// `loose_bound_cut`: error bounds at or above it route to the "loose"
// latency tier (which promises --slo-latency-ms); tighter bounds get 4x
// the budget — a tight-bound refinement legitimately fetches more planes.
ServeObs MakeServeObs(const Flags& flags, double loose_bound_cut) {
  ServeObs o;
  o.trace_path = flags.GetString("trace-requests");
  if (!o.trace_path.empty()) {
    obs::RequestTraceRecorder::Options ro;
    ro.slow_threshold_ms = flags.GetDouble("slow-ms", 0.0);
    ro.head_sample_every = static_cast<std::uint64_t>(
        flags.GetInt("head-sample", 0));
    ro.max_retained = static_cast<std::size_t>(
        flags.GetInt("max-retained", 256));
    o.recorder = std::make_unique<obs::RequestTraceRecorder>(ro);
    obs::GlobalTracer().set_request_tracing(true);
  }
  const double slo_ms = flags.GetDouble("slo-latency-ms", 250.0);
  obs::SloMonitor::Options so;
  so.tiers.push_back({"loose", loose_bound_cut, slo_ms});
  so.tiers.push_back({"tight", 0.0, 4.0 * slo_ms});
  so.latency_objective = flags.GetDouble("slo-objective", 0.999);
  o.slo = std::make_unique<obs::SloMonitor>(so);
  return o;
}

void PrintSloReport(const obs::SloMonitor& slo) {
  if (!slo.has_data()) {
    return;
  }
  std::printf("  slo burn rates (fast 5m / slow 1h windows):\n");
  for (const obs::SloMonitor::ObjectiveSnapshot& o : slo.snapshot()) {
    const obs::SloTracker::Snapshot& s = o.slo;
    if (s.total == 0) {
      continue;
    }
    std::printf("    %-16s objective=%.4f events=%llu bad=%llu "
                "burn=%.2f/%.2f%s\n",
                o.name.c_str(), s.objective,
                static_cast<unsigned long long>(s.total),
                static_cast<unsigned long long>(s.bad), s.fast_burn,
                s.slow_burn, s.alerting ? "  ALERTING" : "");
  }
}

// Registers the monitor's audit sink on the global auditor for the
// enclosing scope, so audited bound violations feed the error_control
// objective. Declare AFTER the ServeObs so it unregisters first.
class AuditSinkGuard {
 public:
  explicit AuditSinkGuard(obs::AuditSink* sink) : sink_(sink) {
    obs::GlobalAuditor().AddSink(sink_);
  }
  ~AuditSinkGuard() { obs::GlobalAuditor().RemoveSink(sink_); }

  AuditSinkGuard(const AuditSinkGuard&) = delete;
  AuditSinkGuard& operator=(const AuditSinkGuard&) = delete;

 private:
  obs::AuditSink* sink_;
};

// Writes the retained lanes and prints the tail-sampling accounting.
// Returns non-OK only on write failure.
Status FinishRequestTraces(const ServeObs& o) {
  if (o.recorder == nullptr) {
    return Status::OK();
  }
  MGARDP_RETURN_NOT_OK(
      obs::WriteRequestTraces(*o.recorder, o.trace_path));
  const obs::RequestTraceRecorder::Stats s = o.recorder->stats();
  std::printf(
      "wrote %s (%zu lanes: %llu slow, %llu error, %llu degraded, "
      "%llu shed, %llu head; %llu finished, %llu evicted)\n",
      o.trace_path.c_str(), o.recorder->retained().size(),
      static_cast<unsigned long long>(s.kept_slow),
      static_cast<unsigned long long>(s.kept_error),
      static_cast<unsigned long long>(s.kept_degraded),
      static_cast<unsigned long long>(s.kept_shed),
      static_cast<unsigned long long>(s.kept_head),
      static_cast<unsigned long long>(s.finished),
      static_cast<unsigned long long>(s.evicted));
  return Status::OK();
}

// ---- trace-report ----------------------------------------------------------

// Minimal per-line field extractors for the one-event-per-line lanes file
// the exporter writes (NOT a general JSON parser). JsonStr unescapes
// backslash escapes; JsonNum skips string-valued occurrences of the key so
// `"dur":3` is found even when some other key holds "dur" in a string.
std::string JsonStr(const std::string& line, const std::string& key) {
  const std::string pat = "\"" + key + "\":\"";
  const std::size_t at = line.find(pat);
  if (at == std::string::npos) {
    return "";
  }
  std::string out;
  for (std::size_t i = at + pat.size(); i < line.size(); ++i) {
    const char c = line[i];
    if (c == '\\' && i + 1 < line.size()) {
      out += line[++i];
      continue;
    }
    if (c == '"') {
      break;
    }
    out += c;
  }
  return out;
}

double JsonNum(const std::string& line, const std::string& key,
               double fallback) {
  const std::string pat = "\"" + key + "\":";
  std::size_t at = line.find(pat);
  while (at != std::string::npos) {
    const std::size_t v = at + pat.size();
    if (v < line.size() && line[v] != '"') {
      return std::strtod(line.c_str() + v, nullptr);
    }
    at = line.find(pat, v);
  }
  return fallback;
}

int CmdTraceReport(const Flags& flags) {
  const std::string input = flags.GetString("input");
  if (input.empty()) {
    return Usage("trace-report needs --input=FILE (a --trace-requests lanes "
                 "file)");
  }
  const int top = flags.GetInt("top", 10);
  auto blob = ReadFileToString(input);
  if (!blob.ok()) {
    return Fail(blob.status());
  }

  struct StageAgg {
    double total_ms = 0.0;
    std::uint64_t count = 0;
  };
  struct Req {
    std::string trace;
    std::string tenant;
    std::string reason;
    std::string status;
    std::string baggage;
    double latency_ms = 0.0;
    double deadline_ms = 0.0;
    std::uint64_t spans_dropped = 0;
    std::vector<std::pair<std::string, StageAgg>> stages;  // insertion order
  };
  std::map<int, Req> lanes;  // keyed by pid

  // One event object per line; strip the array punctuation and dispatch on
  // the "ph" phase.
  std::istringstream in(blob.value());
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.front() == '[') {
      line.erase(0, 1);
    }
    if (line.empty() || line == "]") {
      continue;
    }
    const int pid = static_cast<int>(JsonNum(line, "pid", 0.0));
    if (pid <= 0) {
      continue;
    }
    const std::string ph = JsonStr(line, "ph");
    if (ph == "M") {
      Req& r = lanes[pid];
      r.trace = JsonStr(line, "trace");
      r.tenant = JsonStr(line, "tenant");
      r.reason = JsonStr(line, "reason");
      r.status = JsonStr(line, "status");
      r.baggage = JsonStr(line, "baggage");
      r.latency_ms = JsonNum(line, "latency_ms", 0.0);
      r.deadline_ms = JsonNum(line, "deadline_ms", 0.0);
      r.spans_dropped =
          static_cast<std::uint64_t>(JsonNum(line, "spans_dropped", 0.0));
    } else if (ph == "X") {
      Req& r = lanes[pid];
      const std::string name = JsonStr(line, "name");
      const double dur_ms = JsonNum(line, "dur", 0.0) / 1000.0;
      auto it = std::find_if(
          r.stages.begin(), r.stages.end(),
          [&name](const std::pair<std::string, StageAgg>& s) {
            return s.first == name;
          });
      if (it == r.stages.end()) {
        r.stages.push_back({name, {}});
        it = std::prev(r.stages.end());
      }
      it->second.total_ms += dur_ms;
      ++it->second.count;
    }
  }
  if (lanes.empty()) {
    std::printf("trace-report: no retained requests in %s\n", input.c_str());
    return 0;
  }

  std::vector<const Req*> ranked;
  ranked.reserve(lanes.size());
  for (const auto& [pid, r] : lanes) {
    (void)pid;
    ranked.push_back(&r);
  }
  std::sort(ranked.begin(), ranked.end(), [](const Req* a, const Req* b) {
    return a->latency_ms > b->latency_ms;
  });

  std::printf("trace-report: %zu retained requests in %s\n", ranked.size(),
              input.c_str());
  std::printf("%-4s %-18s %-10s %-9s %-14s %10s %10s\n", "rank", "trace",
              "tenant", "reason", "status", "latency_ms", "deadline");
  const std::size_t limit =
      top > 0 ? std::min(ranked.size(), static_cast<std::size_t>(top))
              : ranked.size();
  for (std::size_t i = 0; i < limit; ++i) {
    const Req& r = *ranked[i];
    std::printf("%-4zu %-18s %-10s %-9s %-14s %10.3f %10.1f\n", i + 1,
                r.trace.c_str(), r.tenant.c_str(), r.reason.c_str(),
                r.status.c_str(), r.latency_ms, r.deadline_ms);
    if (!r.stages.empty()) {
      // Per-stage breakdown, heaviest first.
      std::vector<std::pair<std::string, StageAgg>> by_time = r.stages;
      std::sort(by_time.begin(), by_time.end(),
                [](const auto& a, const auto& b) {
                  return a.second.total_ms > b.second.total_ms;
                });
      std::printf("     stages:");
      for (const auto& [name, agg] : by_time) {
        std::printf(" %s=%.3fms/%llu", name.c_str(), agg.total_ms,
                    static_cast<unsigned long long>(agg.count));
      }
      std::printf("\n");
    }
    if (r.spans_dropped > 0) {
      std::printf("     spans dropped: %llu\n",
                  static_cast<unsigned long long>(r.spans_dropped));
    }
    if (!r.baggage.empty()) {
      std::printf("     baggage: %s\n", r.baggage.c_str());
    }
  }

  // Fleet-wide attribution: where retained requests spent their time.
  std::vector<std::pair<std::string, StageAgg>> fleet;
  for (const Req* r : ranked) {
    for (const auto& [name, agg] : r->stages) {
      auto it = std::find_if(fleet.begin(), fleet.end(),
                             [&name](const auto& s) { return s.first == name; });
      if (it == fleet.end()) {
        fleet.push_back({name, {}});
        it = std::prev(fleet.end());
      }
      it->second.total_ms += agg.total_ms;
      it->second.count += agg.count;
    }
  }
  std::sort(fleet.begin(), fleet.end(), [](const auto& a, const auto& b) {
    return a.second.total_ms > b.second.total_ms;
  });
  if (!fleet.empty()) {
    std::printf("per-stage totals across retained requests:\n");
    for (const auto& [name, agg] : fleet) {
      std::printf("  %-28s %10.3f ms  %8llu spans\n", name.c_str(),
                  agg.total_ms, static_cast<unsigned long long>(agg.count));
    }
  }
  return 0;
}

int CmdServeBenchCluster(const Flags& flags) {
  if (int rc = ApplyThreadsFlag(flags); rc != 0) {
    return rc;
  }
  Dims3 dims;
  if (!ParseDims(flags.GetString("dims", "17,17,17"), &dims)) {
    return Usage("bad --dims");
  }
  const int shards = flags.GetInt("shards", 4);
  const int replicas = flags.GetInt("replicas", 2);
  const int num_fields = flags.GetInt("fields", 2);
  const int clients = flags.GetInt("clients", 8);
  const int requests = flags.GetInt("requests", 96);
  const int planes = flags.GetInt("planes", 32);
  const double rate = flags.GetDouble("rate", 0.0);
  const double zipf_s = flags.GetDouble("zipf", 1.1);
  // Cache off by default: a warm shared cache would serve reads that must
  // exercise failover for the chaos run to mean anything.
  const double cache_mb = flags.GetDouble("cache-mb", 0.0);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const double kill_at = ParseKillFraction(flags);
  const int kill_node = flags.GetInt("kill-node", shards - 1);
  if (shards <= 0 || replicas <= 0 || num_fields <= 0 || clients <= 0 ||
      requests <= 0) {
    return Usage("--shards, --replicas, --fields, --clients and --requests "
                 "must be positive");
  }
  if (kill_node < 0 || kill_node >= shards) {
    return Usage("--kill-node out of range");
  }

  auto series = GenerateSeries(flags.GetString("app", "gray-scott"),
                               flags.GetString("field", "D_u"), dims,
                               num_fields);
  if (!series.ok()) {
    return Usage(series.status().message().c_str());
  }
  RefactorOptions ropts;
  ropts.num_planes = planes;
  Refactorer refactorer(ropts);
  std::vector<RefactoredField> fields;
  fields.reserve(num_fields);
  for (int t = 0; t < num_fields; ++t) {
    auto artifact = refactorer.Refactor(series.value().frames[t]);
    if (!artifact.ok()) {
      return Fail(artifact.status());
    }
    fields.push_back(std::move(artifact).value());
  }

  ClusterOptions copts;
  copts.num_nodes = shards;
  copts.replication = replicas;
  ClusterBackend cluster(copts);
  ServiceMetrics metrics;
  cluster.set_metrics(&metrics);
  std::vector<std::unique_ptr<ClusterFieldView>> views;
  views.reserve(num_fields);
  for (int t = 0; t < num_fields; ++t) {
    const std::string field_id = "t" + std::to_string(t);
    for (const auto& key : fields[t].segments.Keys()) {
      auto payload = fields[t].segments.Get(key.first, key.second);
      if (!payload.ok()) {
        return Fail(payload.status());
      }
      Status st = cluster.PutSegment(field_id, key.first, key.second,
                                     std::move(payload).value());
      if (!st.ok()) {
        return Fail(st);
      }
    }
    views.push_back(std::make_unique<ClusterFieldView>(&cluster, field_id));
  }

  std::unique_ptr<SegmentCache> cache;
  if (cache_mb > 0.0) {
    SegmentCache::Options sc;
    sc.byte_budget = static_cast<std::size_t>(cache_mb * 1024.0 * 1024.0);
    cache = std::make_unique<SegmentCache>(sc, &metrics);
  }

  // Zipf CDF over fields, same law as the single-backend bench.
  std::vector<double> cdf(num_fields);
  double total = 0.0;
  for (int k = 0; k < num_fields; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), zipf_s);
    cdf[k] = total;
  }
  for (double& c : cdf) {
    c /= total;
  }

  TheoryEstimator estimator;
  std::vector<std::unique_ptr<RetrievalSession>> sessions;
  std::vector<int> field_of(clients);
  sessions.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    Rng rng(seed + 7919ULL * static_cast<std::uint64_t>(c));
    const double u = rng.NextDouble();
    int idx = 0;
    while (idx + 1 < num_fields && u > cdf[idx]) {
      ++idx;
    }
    field_of[c] = idx;
    sessions.push_back(std::make_unique<RetrievalSession>(
        "t" + std::to_string(idx), &fields[idx], views[idx].get(),
        &estimator, cache.get(), &metrics));
    sessions.back()->set_ground_truth(&series.value().frames[idx]);
  }

  // Loose/tight SLO tiers split at the midpoint (in log space) of the
  // bench's rel-bound ladder, scaled by the first field's range.
  ServeObs obs_run =
      MakeServeObs(flags, 3.16e-3 * fields[0].data_summary.range());
  AuditSinkGuard sink_guard(obs_run.slo->audit_sink());

  RetrievalScheduler::Options sopts;
  sopts.queue_capacity = static_cast<std::size_t>(flags.GetInt("queue", 4096));
  sopts.per_tenant_capacity =
      static_cast<std::size_t>(flags.GetInt("tenant-quota", 0));
  sopts.default_deadline_ms = flags.GetDouble("deadline-ms", 0.0);
  sopts.flight_recorder = obs_run.recorder.get();
  sopts.slo = obs_run.slo.get();
  RetrievalScheduler scheduler(&metrics, sopts);

  // Background scrub is opt-in for the bench: the periodic thread repairs
  // on wall-clock time, which makes its counters run-to-run noisy. The
  // deterministic repair pass below always runs after the chaos.
  const int scrub_ms = flags.GetInt("scrub-ms", 0);
  if (scrub_ms > 0) {
    cluster.StartBackgroundScrub(scrub_ms);
  }

  const int kill_request =
      kill_at < 0.0 ? -1
                    : static_cast<int>(kill_at * static_cast<double>(requests));
  std::printf("cluster-bench: %d shards r=%d, %d fields %s, %d clients, "
              "%d requests",
              shards, replicas, num_fields, dims.ToString().c_str(), clients,
              requests);
  if (kill_request >= 0) {
    std::printf(", killing node %d at request %d", kill_node, kill_request);
  }
  std::printf("\n");

  std::atomic<std::size_t> failed{0};
  std::atomic<std::size_t> incorrect{0};
  std::atomic<std::size_t> degraded{0};
  std::mutex report_mu;
  std::string last_degraded_report;  // guarded by report_mu
  std::size_t rejected = 0;
  Rng arrivals(seed ^ 0xA5A5A5A5ULL);
  bool killed = false;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < requests; ++i) {
    if (kill_request >= 0 && i >= kill_request && !killed) {
      cluster.KillNode(kill_node);
      killed = true;
    }
    const int c = i % clients;
    const int round = i / clients;
    // Each client's successive requests tighten the bound down a ladder
    // spanning 1e-1..1e-4 across the WHOLE run, so refinements keep
    // fetching new segments after the kill — otherwise the early rounds
    // would pull every plane in and the chaos would hit a no-op tail.
    const int total_rounds = (requests + clients - 1) / clients;
    const double step =
        total_rounds > 1
            ? static_cast<double>(round) / static_cast<double>(total_rounds - 1)
            : 1.0;
    const double rel = 0.1 * std::pow(10.0, -3.0 * step);
    Rng jitter(seed ^ (1000003ULL * static_cast<std::uint64_t>(c) +
                       static_cast<std::uint64_t>(round)));
    const double bound = rel * jitter.Uniform(0.7, 1.0) *
                         fields[field_of[c]].data_summary.range();
    const Status admitted = scheduler.Submit(
        {sessions[c].get(), bound, 0.0, "tenant" + std::to_string(c % 2),
         "client=" + std::to_string(c) + ";round=" + std::to_string(round)},
        [&, c, bound](const RetrievalScheduler::Response& resp) {
          if (!resp.status.ok()) {
            failed.fetch_add(1, std::memory_order_relaxed);
            return;
          }
          if (resp.refinement.degraded) {
            degraded.fetch_add(1, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(report_mu);
            last_degraded_report = resp.refinement.ToString();
          }
          if (resp.refinement.has_actual && resp.refinement.bound_met &&
              !resp.refinement.actual_bound_met) {
            incorrect.fetch_add(1, std::memory_order_relaxed);
          }
        });
    if (!admitted.ok()) {
      ++rejected;
    }
    if (rate > 0.0) {
      const double u = arrivals.NextDouble();
      std::this_thread::sleep_for(
          std::chrono::duration<double>(-std::log(1.0 - u) / rate));
    }
    if ((i + 1) % clients == 0 || i + 1 == requests) {
      scheduler.Drain();
    }
  }
  scheduler.Drain();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  cluster.StopBackgroundScrub();
  // One synchronous repair pass: everything the kill left under-replicated
  // is re-replicated onto the survivors, deterministically.
  const ClusterBackend::ScrubReport repair = cluster.ScrubRepair();

  const ClusterBackend::Stats cs = cluster.stats();
  const ServiceMetrics::Snapshot m = metrics.snapshot();
  const double throughput =
      seconds > 0.0 ? static_cast<double>(requests) / seconds : 0.0;
  std::printf(
      "  requests=%d rejected=%zu failed=%zu degraded=%zu incorrect=%zu "
      "%.3fs  %.1f req/s\n",
      requests, rejected, failed.load(), degraded.load(), incorrect.load(),
      seconds, throughput);
  std::printf(
      "  failovers=%llu retries=%llu replicas_lost=%llu "
      "under_replicated_writes=%llu evictions=%llu probes=%llu\n",
      static_cast<unsigned long long>(cs.failovers),
      static_cast<unsigned long long>(cs.retries),
      static_cast<unsigned long long>(cs.replicas_lost),
      static_cast<unsigned long long>(cs.under_replicated_writes),
      static_cast<unsigned long long>(cs.evictions),
      static_cast<unsigned long long>(cs.probes));
  std::printf(
      "  repair pass: %llu under-replicated -> %llu repaired, %llu lost\n",
      static_cast<unsigned long long>(repair.under_replicated),
      static_cast<unsigned long long>(repair.repaired),
      static_cast<unsigned long long>(repair.lost));
  std::printf("  p50=%.2fms p99=%.2fms p999=%.2fms\n", m.latency_p50_ms,
              m.latency_p99_ms, m.latency_p999_ms);
  if (!last_degraded_report.empty()) {
    std::printf("  last degraded refinement:\n  %s\n",
                last_degraded_report.c_str());
  }
  PrintSloReport(*obs_run.slo);
  if (const Status st = FinishRequestTraces(obs_run); !st.ok()) {
    return Fail(st);
  }

  const std::string json_path = flags.GetString("json");
  if (!json_path.empty()) {
    std::ostringstream os;
    os << "{\"benchmark\":\"serve-cluster\",\"app\":\""
       << flags.GetString("app", "gray-scott") << "\",\"field\":\""
       << flags.GetString("field", "D_u") << "\",\"dims\":\""
       << dims.ToString() << "\",\"shards\":" << shards
       << ",\"replicas\":" << replicas << ",\"fields\":" << num_fields
       << ",\"clients\":" << clients << ",\"requests\":" << requests
       << ",\"kill_node\":" << (kill_request >= 0 ? kill_node : -1)
       << ",\"kill_at_request\":" << kill_request
       << ",\"rate_rps\":" << rate << ",\"threads\":" << GlobalThreadCount()
       << ",\"seconds\":" << seconds << ",\"throughput_rps\":" << throughput
       << ",\"rejected\":" << rejected << ",\"failed\":" << failed.load()
       << ",\"degraded\":" << degraded.load()
       << ",\"incorrect\":" << incorrect.load()
       << ",\"failovers_total\":" << cs.failovers
       << ",\"retries_total\":" << cs.retries
       << ",\"replicas_lost\":" << cs.replicas_lost
       << ",\"under_replicated_writes\":" << cs.under_replicated_writes
       << ",\"evictions\":" << cs.evictions << ",\"probes\":" << cs.probes
       << ",\"recoveries\":" << cs.recoveries
       << ",\"scrub_under_replicated\":" << repair.under_replicated
       << ",\"scrub_repaired\":" << repair.repaired
       << ",\"scrub_lost\":" << repair.lost
       << ",\"latency_p50_ms\":" << m.latency_p50_ms
       << ",\"latency_p99_ms\":" << m.latency_p99_ms
       << ",\"latency_p999_ms\":" << m.latency_p999_ms
       << ",\"metrics\":"
       << metrics.SnapshotJson(nullptr, nullptr, obs_run.slo.get()) << "}\n";
    Status st = WriteFile(json_path, os.str());
    if (!st.ok()) {
      return Fail(st);
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return (failed.load() > 0 || incorrect.load() > 0) ? 2 : 0;
}

int CmdServeBenchRetrain(const Flags& flags);  // defined below

int CmdServeBench(const Flags& flags) {
  if (flags.Has("retrain")) {
    return CmdServeBenchRetrain(flags);
  }
  if (flags.Has("shards")) {
    return CmdServeBenchCluster(flags);
  }
  if (int rc = ApplyThreadsFlag(flags); rc != 0) {
    return rc;
  }
  Dims3 dims;
  if (!ParseDims(flags.GetString("dims", "33,33,33"), &dims)) {
    return Usage("bad --dims");
  }
  const int num_fields = flags.GetInt("fields", 4);
  const int rounds = flags.GetInt("rounds", 4);
  const int planes = flags.GetInt("planes", 32);
  const double zipf_s = flags.GetDouble("zipf", 1.1);
  const double cache_mb = flags.GetDouble("cache-mb", 64.0);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  if (num_fields <= 0 || rounds <= 0) {
    return Usage("--fields and --rounds must be positive");
  }
  std::vector<int> client_counts;
  if (!ParseIntList(flags.GetString("clients", "1,8,64"), &client_counts)) {
    return Usage("bad --clients (expected e.g. 1,8,64)");
  }

  // Build the serving corpus in memory: `num_fields` timesteps of one
  // simulated field, each refactored into its own artifact + backend.
  auto series = GenerateSeries(flags.GetString("app", "gray-scott"),
                               flags.GetString("field", "D_u"), dims,
                               num_fields);
  if (!series.ok()) {
    return Usage(series.status().message().c_str());
  }
  RefactorOptions ropts;
  ropts.num_planes = planes;
  Refactorer refactorer(ropts);
  std::vector<RefactoredField> fields;
  fields.reserve(num_fields);
  for (int t = 0; t < num_fields; ++t) {
    auto artifact = refactorer.Refactor(series.value().frames[t]);
    if (!artifact.ok()) {
      return Fail(artifact.status());
    }
    fields.push_back(std::move(artifact).value());
  }
  std::vector<std::unique_ptr<MemoryBackend>> backends;
  backends.reserve(num_fields);
  for (const RefactoredField& f : fields) {
    backends.push_back(std::make_unique<MemoryBackend>(&f.segments));
  }
  TheoryEstimator estimator;
  const bool with_truth = flags.Has("ground-truth");

  // Flight recorder + SLO monitor shared across every client count (the
  // lanes file and burn report cover the whole run). Declared before the
  // prom flusher so the flusher thread stops before they die.
  ServeObs obs_run =
      MakeServeObs(flags, 3.16e-3 * fields[0].data_summary.range());
  AuditSinkGuard sink_guard(obs_run.slo->audit_sink());

  // Live Prometheus export: a background flusher rewrites --prom=FILE
  // every second with the build-info, audit, and SLO families plus the
  // current run's service metrics; Stop() below guarantees one final flush
  // with the end state.
  const std::string prom_path = flags.GetString("prom");
  std::mutex prom_mu;
  ServiceMetrics* prom_metrics = nullptr;              // guarded by prom_mu
  std::optional<ServiceMetrics::Snapshot> prom_last;   // guarded by prom_mu
  std::unique_ptr<PeriodicFileWriter> prom_flusher;
  if (!prom_path.empty()) {
    prom_flusher = std::make_unique<PeriodicFileWriter>(
        prom_path, std::chrono::milliseconds(1000), [&] {
          obs::PromWriter writer;
          obs::AppendBuildInfoMetrics(&writer);
          AppendAuditMetrics(obs::GlobalAuditor(), &writer);
          if (obs_run.slo->has_data()) {
            obs::AppendSloMetrics(*obs_run.slo, &writer);
          }
          std::lock_guard<std::mutex> lock(prom_mu);
          if (prom_metrics != nullptr) {
            AppendServiceMetricsProm(prom_metrics->snapshot(), &writer);
          } else if (prom_last) {
            AppendServiceMetricsProm(*prom_last, &writer);
          }
          return writer.str();
        });
  }

  // Zipf CDF over fields: weight(k) = 1/(k+1)^s.
  std::vector<double> cdf(num_fields);
  double total = 0.0;
  for (int k = 0; k < num_fields; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), zipf_s);
    cdf[k] = total;
  }
  for (double& c : cdf) {
    c /= total;
  }

  std::printf("serve-bench: %d fields %s, %d rounds, cache %.0f MiB, "
              "%d threads\n",
              num_fields, dims.ToString().c_str(), rounds, cache_mb,
              GlobalThreadCount());

  std::vector<ServeBenchResult> results;
  for (const int num_clients : client_counts) {
    ServiceMetrics metrics;
    SegmentCache::Options copts;
    copts.byte_budget =
        static_cast<std::size_t>(cache_mb * 1024.0 * 1024.0);
    SegmentCache cache(copts, &metrics);

    RetrievalScheduler::Options sopts;
    sopts.queue_capacity =
        static_cast<std::size_t>(flags.GetInt("queue", 4096));
    sopts.default_deadline_ms = flags.GetDouble("deadline-ms", 0.0);
    sopts.flight_recorder = obs_run.recorder.get();
    sopts.slo = obs_run.slo.get();
    RetrievalScheduler scheduler(&metrics, sopts);
    if (prom_flusher != nullptr) {
      std::lock_guard<std::mutex> lock(prom_mu);
      prom_metrics = &metrics;
    }

    std::vector<std::unique_ptr<RetrievalSession>> sessions;
    std::vector<int> field_of(num_clients);
    sessions.reserve(num_clients);
    for (int c = 0; c < num_clients; ++c) {
      Rng rng(seed + 7919ULL * static_cast<std::uint64_t>(c));
      const double u = rng.NextDouble();
      int idx = 0;
      while (idx + 1 < num_fields && u > cdf[idx]) {
        ++idx;
      }
      field_of[c] = idx;
      sessions.push_back(std::make_unique<RetrievalSession>(
          "t" + std::to_string(idx), &fields[idx], backends[idx].get(),
          &estimator, &cache, &metrics));
      if (with_truth) {
        sessions.back()->set_ground_truth(&series.value().frames[idx]);
      }
    }

    ServeBenchResult r;
    r.clients = num_clients;
    std::atomic<std::size_t> failed{0};
    const auto t0 = std::chrono::steady_clock::now();
    for (int round = 0; round < rounds; ++round) {
      const double rel = 0.1 * std::pow(0.25, round);
      for (int c = 0; c < num_clients; ++c) {
        Rng jitter(seed ^ (1000003ULL * static_cast<std::uint64_t>(c) +
                           static_cast<std::uint64_t>(round)));
        const double bound = rel * jitter.Uniform(0.7, 1.0) *
                             fields[field_of[c]].data_summary.range();
        const Status admitted = scheduler.Submit(
            {sessions[c].get(), bound, 0.0, "",
             "client=" + std::to_string(c) + ";round=" +
                 std::to_string(round)},
            [&failed](const RetrievalScheduler::Response& resp) {
              if (!resp.status.ok()) {
                failed.fetch_add(1, std::memory_order_relaxed);
              }
            });
        if (admitted.ok()) {
          ++r.requests;
        } else {
          ++r.rejected;
        }
      }
      scheduler.Drain();
    }
    r.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    r.failed = failed.load();
    r.throughput_rps =
        r.seconds > 0.0 ? static_cast<double>(r.requests) / r.seconds : 0.0;
    r.metrics = metrics.snapshot();
    results.push_back(r);

    std::printf(
        "  clients=%-4d requests=%-5zu rejected=%zu failed=%zu "
        "%.3fs  %.1f req/s  hit-rate=%.3f  p50=%.2fms p99=%.2fms\n",
        r.clients, r.requests, r.rejected, r.failed, r.seconds,
        r.throughput_rps, r.metrics.cache_hit_rate(),
        r.metrics.latency_p50_ms, r.metrics.latency_p99_ms);
    // `metrics` dies with this iteration; the flusher must not touch it
    // afterwards. Its final snapshot keeps serving the export.
    if (prom_flusher != nullptr) {
      std::lock_guard<std::mutex> lock(prom_mu);
      prom_last = metrics.snapshot();
      prom_metrics = nullptr;
    }
    if (r.failed > 0) {
      std::fprintf(stderr, "error: %zu requests failed\n", r.failed);
      if (prom_flusher != nullptr) {
        prom_flusher->Stop();
        g_prom_handled = true;
      }
      return 2;
    }
  }

  if (prom_flusher != nullptr) {
    const Status st = prom_flusher->Stop();
    g_prom_handled = true;
    if (!st.ok()) {
      return Fail(st);
    }
    std::printf("wrote %s (%llu flushes)\n", prom_path.c_str(),
                static_cast<unsigned long long>(prom_flusher->flushes()));
  }
  PrintSloReport(*obs_run.slo);
  if (const Status st = FinishRequestTraces(obs_run); !st.ok()) {
    return Fail(st);
  }

  const std::string json_path = flags.GetString("json");
  if (!json_path.empty()) {
    std::ostringstream os;
    os << "{\"benchmark\":\"serve\",\"app\":\""
       << flags.GetString("app", "gray-scott") << "\",\"field\":\""
       << flags.GetString("field", "D_u") << "\",\"dims\":\""
       << dims.ToString() << "\",\"fields\":" << num_fields
       << ",\"rounds\":" << rounds << ",\"threads\":" << GlobalThreadCount()
       << ",\"cache_mb\":" << cache_mb << ",\"results\":[";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const ServeBenchResult& r = results[i];
      if (i > 0) {
        os << ",";
      }
      os << "{\"clients\":" << r.clients << ",\"requests\":" << r.requests
         << ",\"rejected\":" << r.rejected << ",\"seconds\":" << r.seconds
         << ",\"throughput_rps\":" << r.throughput_rps
         << ",\"cache_hit_rate\":" << r.metrics.cache_hit_rate()
         << ",\"metrics\":" << r.metrics.ToJson() << "}";
    }
    os << "]";
    // Whole-run per-stage profile (all client counts pooled) when tracing.
    if (obs::GlobalTracer().timeline_enabled()) {
      os << ",\"stages\":" << obs::GlobalTracer().SummaryJson();
    }
    if (obs_run.slo->has_data()) {
      os << ",\"slo\":" << obs_run.slo->ToJson();
    }
    os << "}\n";
    Status st = WriteFile(json_path, os.str());
    if (!st.ok()) {
      return Fail(st);
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

int CmdTrain(const Flags& flags) {
  Dims3 dims;
  if (!ParseDims(flags.GetString("dims", "33,33,33"), &dims)) {
    return Usage("bad --dims");
  }
  const std::string model_kind = flags.GetString("model");
  const std::string out = flags.GetString("out");
  if (out.empty() || (model_kind != "dmgard" && model_kind != "emgard")) {
    return Usage("--model dmgard|emgard and --out are required");
  }
  const int timesteps = flags.GetInt("timesteps", 16);
  auto series = GenerateSeries(flags.GetString("app", "warpx"),
                               flags.GetString("field", "E_x"), dims,
                               timesteps);
  if (!series.ok()) {
    return Usage(series.status().message().c_str());
  }
  std::vector<int> train_steps, test_steps;
  SplitTimesteps(timesteps, &train_steps, &test_steps);

  std::printf("collecting records on %zu timesteps...\n",
              train_steps.size());
  CollectOptions copts;
  copts.rel_bounds =
      SubsampledRelativeErrorBounds(flags.GetInt("bounds-per-decade", 4));
  auto records = CollectRecords(series.value(), train_steps, copts);
  if (!records.ok()) {
    return Fail(records.status());
  }
  std::printf("training %s on %zu records...\n", model_kind.c_str(),
              records.value().size());

  std::string blob;
  if (model_kind == "dmgard") {
    DMgardConfig config;
    config.train.epochs = flags.GetInt("epochs", 150);
    config.train.batch_size = 16;
    config.train.learning_rate = 1e-3;
    auto model = DMgardModel::TrainModel(records.value(), config);
    if (!model.ok()) {
      return Fail(model.status());
    }
    blob = model.value().Serialize();
  } else {
    EMgardConfig config;
    config.train.epochs = flags.GetInt("epochs", 150);
    config.train.learning_rate = 1e-3;
    auto model = EMgardModel::TrainModel(records.value(), config);
    if (!model.ok()) {
      return Fail(model.status());
    }
    blob = model.value().Serialize();
  }
  Status st = WriteFile(out, blob);
  if (!st.ok()) {
    return Fail(st);
  }
  std::printf("saved %s model to %s (%zu bytes)\n", model_kind.c_str(),
              out.c_str(), blob.size());
  return 0;
}

// ---- models: registry administration ---------------------------------------

// Corruption (checksum mismatches anywhere in the registry) exits 3, the
// same convention as verify/scrub; other failures exit 2.
int RegistryFail(const Status& status) {
  if (status.code() == StatusCode::kDataLoss) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 3;
  }
  return Fail(status);
}

int CmdModels(const std::string& action, const Flags& flags) {
  const std::string dir = flags.GetString("dir");
  if (dir.empty()) {
    return Usage("models needs --dir REGISTRY_DIR");
  }
  if (action != "list" && action != "publish" && action != "pin" &&
      action != "rollback") {
    return Usage("models actions: list | publish | pin | rollback");
  }

  learning::ModelRegistry registry;
  const bool exists = std::filesystem::exists(dir + "/registry.idx");
  if (exists) {
    if (const Status st = registry.LoadFromDirectory(dir); !st.ok()) {
      return RegistryFail(st);
    }
  } else if (action != "publish") {
    return Fail(Status::NotFound("no registry at " + dir));
  }

  if (action == "list") {
    const auto entries = registry.List();
    std::printf("%-12s %4s  %-7s %-9s %10s %10s\n", "model", "ver", "kind",
                "state", "crc32c", "bytes");
    for (const auto& e : entries) {
      std::printf("%-12s %4d  %-7s %-9s   %08x %10zu\n", e.model_id.c_str(),
                  e.version, learning::ModelKindName(e.kind),
                  learning::VersionStateName(e.state), e.crc32c,
                  e.blob_bytes);
    }
    std::printf("%zu version(s)\n", entries.size());
    return 0;
  }

  const std::string model = flags.GetString("model");
  if (model.empty()) {
    return Usage("models needs --model ID");
  }

  if (action == "publish") {
    const std::string blob_path = flags.GetString("blob");
    if (blob_path.empty()) {
      return Usage("models publish needs --blob MODEL.bin");
    }
    auto blob = ReadFileToString(blob_path);
    if (!blob.ok()) {
      return Fail(blob.status());
    }
    auto version = registry.Publish(model, std::move(blob).value());
    if (!version.ok()) {
      return Fail(version.status());
    }
    // --serve promotes the fresh version immediately (bootstrap a registry
    // from an offline-trained model); otherwise it stays a candidate.
    if (flags.Has("serve")) {
      if (const Status st = registry.Promote(model, version.value());
          !st.ok()) {
        return Fail(st);
      }
    }
    if (const Status st = registry.SaveToDirectory(dir); !st.ok()) {
      return Fail(st);
    }
    std::printf("published %s v%d%s in %s\n", model.c_str(), version.value(),
                flags.Has("serve") ? " (serving)" : "", dir.c_str());
    return 0;
  }

  if (action == "pin") {
    const int version = flags.GetInt("version", 0);
    if (version <= 0) {
      return Usage("models pin needs --version N");
    }
    if (const Status st = registry.Pin(model, version); !st.ok()) {
      return Fail(st);
    }
    if (const Status st = registry.SaveToDirectory(dir); !st.ok()) {
      return Fail(st);
    }
    std::printf("pinned %s v%d as serving\n", model.c_str(), version);
    return 0;
  }

  // rollback
  const int before = registry.serving_version(model);
  if (const Status st = registry.Rollback(model); !st.ok()) {
    return Fail(st);
  }
  if (const Status st = registry.SaveToDirectory(dir); !st.ok()) {
    return Fail(st);
  }
  std::printf("rolled back %s v%d -> v%d\n", model.c_str(), before,
              registry.serving_version(model));
  return 0;
}

// ---- serve-bench --retrain: drift injection + online recovery --------------

// One serving request of the retrain bench: plan with the registry's
// current serving version, reconstruct, audit (feeding the collector), and
// run the shadow/trainer machinery. Returns whether the bound was violated.
struct RetrainBenchLoop {
  learning::ModelRegistry* registry;
  learning::ServingHandle handle;
  obs::ErrorControlAuditor* auditor;
  learning::TrainingSetCollector* collector;
  learning::ShadowEvaluator* shadow;
  learning::BackgroundTrainer* trainer;

  Result<bool> Serve(const RefactoredField& field, const Array3Dd& truth,
                     double rel_bound) {
    const double bound = rel_bound * field.data_summary.range();
    auto version = handle.load();
    if (version == nullptr) {
      return Status::FailedPrecondition("retrain bench: nothing serving");
    }
    MGARDP_ASSIGN_OR_RETURN(
        RetrievalPlan plan,
        learning::PlanWithModelVersion(field, bound, *version));
    MGARDP_ASSIGN_OR_RETURN(Array3Dd data,
                            ReconstructFromPrefix(field, plan.prefix));
    AuditRetrieval(field, learning::VersionAuditId(*version), bound, plan,
                   &truth, &data, /*degraded=*/false, auditor);
    const double actual = MaxAbsError(truth.vector(), data.vector());
    const bool violation = actual > bound;

    using State = learning::ShadowEvaluator::State;
    if (shadow->state("dmgard") == State::kShadowing) {
      auto candidate = shadow->Candidate("dmgard");
      if (candidate != nullptr) {
        MGARDP_ASSIGN_OR_RETURN(
            RetrievalPlan cplan,
            learning::PlanWithModelVersion(field, bound, *candidate));
        MGARDP_ASSIGN_OR_RETURN(Array3Dd cdata,
                                ReconstructFromPrefix(field, cplan.prefix));
        const double cactual = MaxAbsError(truth.vector(), cdata.vector());
        shadow->ObservePair(
            "dmgard", learning::ShadowScore{true, violation, plan.total_bytes},
            learning::ShadowScore{true, cactual > bound, cplan.total_bytes});
      }
    } else if (shadow->state("dmgard") == State::kProbation) {
      shadow->ObserveServing(
          "dmgard", learning::ShadowScore{true, violation, plan.total_bytes});
    }
    MGARDP_RETURN_NOT_OK(trainer->RunOnce().status());
    return violation;
  }

  // Violation rate over `requests` against the corpus, cycling frames and
  // relative bounds.
  Result<double> Phase(const std::vector<RefactoredField>& fields,
                       const std::vector<Array3Dd>& truths, int requests,
                       const std::vector<double>& rel_bounds) {
    int violations = 0;
    for (int i = 0; i < requests; ++i) {
      const std::size_t f = i % fields.size();
      MGARDP_ASSIGN_OR_RETURN(
          const bool violated,
          Serve(fields[f], truths[f], rel_bounds[i % rel_bounds.size()]));
      violations += violated ? 1 : 0;
    }
    return static_cast<double>(violations) / requests;
  }
};

int CmdServeBenchRetrain(const Flags& flags) {
  if (int rc = ApplyThreadsFlag(flags); rc != 0) {
    return rc;
  }
  Dims3 dims;
  if (!ParseDims(flags.GetString("dims", "17,17,17"), &dims)) {
    return Usage("bad --dims");
  }
  const int frames = flags.GetInt("frames", 6);
  const int baseline_requests = flags.GetInt("baseline-requests", 48);
  const int drift_requests = flags.GetInt("drift-requests", 160);
  const int recovery_requests = flags.GetInt("recovery-requests", 96);
  const int epochs = flags.GetInt("epochs", 120);
  if (frames <= 0 || baseline_requests <= 0 || drift_requests <= 0 ||
      recovery_requests <= 0) {
    return Usage("--frames and per-phase request counts must be positive");
  }
  const std::vector<double> rel_bounds{1e-2, 3e-3, 1e-3, 3e-4};

  // Pre-shift traffic: Gray-Scott; the distribution shift: WarpX J_x.
  auto smooth = GenerateSeries("gray-scott", "D_u", dims, frames);
  if (!smooth.ok()) {
    return Fail(smooth.status());
  }
  auto shifted = GenerateSeries("warpx", "J_x", dims, frames);
  if (!shifted.ok()) {
    return Fail(shifted.status());
  }

  auto refactor_all = [](const FieldSeries& series,
                         std::vector<RefactoredField>* fields) -> Status {
    Refactorer refactorer;
    for (const Array3Dd& frame : series.frames) {
      MGARDP_ASSIGN_OR_RETURN(RefactoredField f, refactorer.Refactor(frame));
      fields->push_back(std::move(f));
    }
    return Status::OK();
  };
  std::vector<RefactoredField> smooth_fields, shifted_fields;
  if (const Status st = refactor_all(smooth.value(), &smooth_fields);
      !st.ok()) {
    return Fail(st);
  }
  if (const Status st = refactor_all(shifted.value(), &shifted_fields);
      !st.ok()) {
    return Fail(st);
  }

  // The incumbent: D-MGARD trained offline on the pre-shift distribution.
  std::printf("retrain-bench: training incumbent on gray-scott/D_u %s...\n",
              dims.ToString().c_str());
  CollectOptions copts;
  copts.rel_bounds = SubsampledRelativeErrorBounds(2);
  std::vector<int> all_steps(frames);
  for (int t = 0; t < frames; ++t) {
    all_steps[t] = t;
  }
  auto records = CollectRecords(smooth.value(), all_steps, copts);
  if (!records.ok()) {
    return Fail(records.status());
  }
  DMgardConfig train_config;
  train_config.train.epochs = epochs;
  train_config.train.batch_size = 32;
  train_config.train.learning_rate = 1e-3;
  auto incumbent = DMgardModel::TrainModel(records.value(), train_config);
  if (!incumbent.ok()) {
    return Fail(incumbent.status());
  }

  // The online loop: registry + collector + shadow + trainer.
  learning::ModelRegistry registry;
  ServiceMetrics metrics;
  obs::ErrorControlAuditor auditor(
      obs::ErrorControlAuditor::Options{.drift_window = 32,
                                        .drift_alert_planes = 2.0});
  learning::TrainingSetCollector collector;
  auditor.AddSink(&collector);

  learning::ShadowEvaluator::Options shadow_options;
  shadow_options.window = 16;
  shadow_options.probation_window = 16;
  shadow_options.overfetch_slack = 1.25;
  learning::ShadowEvaluator shadow(&registry, &metrics, shadow_options);

  learning::BackgroundTrainer::Options trainer_options;
  trainer_options.model_id = "dmgard";
  trainer_options.min_rows = 48;
  trainer_options.watermark = 0;  // drift-triggered only
  trainer_options.drift_cooldown_rows = 48;
  trainer_options.dmgard = train_config;
  trainer_options.log_fn = [](const std::string& line) {
    std::printf("  [trainer] %s\n", line.c_str());
  };
  learning::BackgroundTrainer trainer(&collector, &registry, &shadow,
                                      &auditor, &metrics, trainer_options);

  auto v1 = registry.Publish("dmgard", incumbent.value().Serialize());
  if (!v1.ok()) {
    return Fail(v1.status());
  }
  if (const Status st = registry.Promote("dmgard", v1.value()); !st.ok()) {
    return Fail(st);
  }

  RetrainBenchLoop loop{&registry, registry.Handle("dmgard"), &auditor,
                        &collector, &shadow, &trainer};

  auto run_phase = [&](const char* name,
                       const std::vector<RefactoredField>& fields,
                       const std::vector<Array3Dd>& truths,
                       int requests) -> Result<double> {
    MGARDP_ASSIGN_OR_RETURN(const double rate,
                            loop.Phase(fields, truths, requests, rel_bounds));
    std::printf("  phase %-10s %4d requests  violation-rate %5.1f%%  "
                "serving v%d  retrains %llu\n",
                name, requests, 100.0 * rate,
                registry.serving_version("dmgard"),
                static_cast<unsigned long long>(trainer.retrains()));
    return rate;
  };

  auto pre = run_phase("baseline", smooth_fields, smooth.value().frames,
                       baseline_requests);
  if (!pre.ok()) {
    return Fail(pre.status());
  }
  auto shift = run_phase("drift", shifted_fields, shifted.value().frames,
                         drift_requests);
  if (!shift.ok()) {
    return Fail(shift.status());
  }
  auto post = run_phase("recovered", shifted_fields, shifted.value().frames,
                        recovery_requests);
  if (!post.ok()) {
    return Fail(post.status());
  }

  // The other half of the promotion contract: a junk candidate (trained on
  // only the loosest bound, so it always under-fetches) must lose its
  // shadow run and never serve.
  CollectOptions junk_opts;
  junk_opts.rel_bounds = {0.5};
  junk_opts.ladder_points = 0;
  auto junk_records = CollectRecords(smooth.value(), {0, 1, 2}, junk_opts);
  if (!junk_records.ok()) {
    return Fail(junk_records.status());
  }
  DMgardConfig junk_config;
  junk_config.train.epochs = 2;
  auto junk = DMgardModel::TrainModel(junk_records.value(), junk_config);
  if (!junk.ok()) {
    return Fail(junk.status());
  }
  const int serving_before_junk = registry.serving_version("dmgard");
  const std::uint64_t rejections_before = shadow.stats().rejections;
  auto junk_version = registry.Publish("dmgard", junk.value().Serialize());
  if (!junk_version.ok()) {
    return Fail(junk_version.status());
  }
  bool junk_rejected = false;
  if (shadow.StartShadow("dmgard", junk_version.value()).ok()) {
    auto rate = loop.Phase(shifted_fields, shifted.value().frames,
                           2 * static_cast<int>(shadow_options.window),
                           {1e-4, 3e-5});
    if (!rate.ok()) {
      return Fail(rate.status());
    }
    junk_rejected = shadow.stats().rejections > rejections_before &&
                    registry.serving_version("dmgard") == serving_before_junk;
  }
  std::printf("  junk candidate v%d: %s\n", junk_version.value(),
              junk_rejected ? "rejected (never served)" : "NOT REJECTED");

  const double recovery_ratio =
      pre.value() > 0.0 ? post.value() / pre.value() : 0.0;
  std::printf("retrain-bench: violation rate %.1f%% -> %.1f%% -> %.1f%% "
              "(recovery ratio %.2f, no restart)\n",
              100.0 * pre.value(), 100.0 * shift.value(),
              100.0 * post.value(), recovery_ratio);

  // Persist the final registry so `mgardp models list --dir` can inspect
  // what the run produced.
  const std::string registry_dir = flags.GetString("registry");
  if (!registry_dir.empty()) {
    if (const Status st = registry.SaveToDirectory(registry_dir); !st.ok()) {
      return Fail(st);
    }
    std::printf("saved registry to %s\n", registry_dir.c_str());
  }

  const std::string json_path = flags.GetString("json");
  if (!json_path.empty()) {
    const learning::ShadowEvaluator::Stats sstats = shadow.stats();
    const ServiceMetrics::Snapshot msnap = metrics.snapshot();
    std::ostringstream os;
    os << "{\"benchmark\":\"retrain\",\"dims\":\"" << dims.ToString()
       << "\",\"frames\":" << frames
       << ",\"app_baseline\":\"gray-scott\",\"app_shift\":\"warpx\""
       << ",\"phases\":["
       << "{\"name\":\"baseline\",\"requests\":" << baseline_requests
       << ",\"violation_rate\":" << pre.value() << "},"
       << "{\"name\":\"drift\",\"requests\":" << drift_requests
       << ",\"violation_rate\":" << shift.value() << "},"
       << "{\"name\":\"recovered\",\"requests\":" << recovery_requests
       << ",\"violation_rate\":" << post.value() << "}]"
       << ",\"recovery_ratio\":" << recovery_ratio
       << ",\"serving_version\":" << registry.serving_version("dmgard")
       << ",\"retrains\":" << trainer.retrains()
       << ",\"shadow\":{\"pairs\":" << sstats.shadow_pairs
       << ",\"promotions\":" << sstats.promotions
       << ",\"rejections\":" << sstats.rejections
       << ",\"rollbacks\":" << sstats.rollbacks << "}"
       << ",\"junk_candidate\":{\"version\":" << junk_version.value()
       << ",\"promoted\":false,\"rejected\":"
       << (junk_rejected ? "true" : "false") << "}"
       << ",\"service_metrics\":" << msnap.ToJson()
       << ",\"audit\":" << auditor.ToJson() << "}\n";
    if (const Status st = WriteFile(json_path, os.str()); !st.ok()) {
      return Fail(st);
    }
    std::printf("wrote %s\n", json_path.c_str());
  }

  auditor.RemoveSink(&collector);
  // Recovery within 1.5x of the pre-shift rate (absolute floor 10%) and a
  // demonstrably unpromoted junk candidate are the bench's pass criteria.
  const bool recovered =
      post.value() <= std::max(1.5 * pre.value(), 0.10);
  if (!recovered || !junk_rejected) {
    std::fprintf(stderr, "retrain-bench: FAILED (%s)\n",
                 !recovered ? "violation rate did not recover"
                            : "junk candidate was not rejected");
    return 2;
  }
  return 0;
}

// Scrubs one artifact directory, printing one line per unhealthy segment.
// Returns the number of bad segments, or -1 when the container itself is
// unreadable (missing or unparseable index).
int ScrubOneDir(const std::string& dir, std::size_t* segments_seen) {
  auto health = SegmentStore::ScrubDirectory(dir);
  if (!health.ok()) {
    std::printf("%s: UNREADABLE: %s\n", dir.c_str(),
                health.status().ToString().c_str());
    return -1;
  }
  int bad = 0;
  bool checksummed = true;
  for (const SegmentStore::SegmentHealth& h : health.value()) {
    ++*segments_seen;
    checksummed = checksummed && h.has_checksum;
    if (!h.ok) {
      ++bad;
      std::printf("%s: BAD segment level=%d plane=%d size=%zu: %s\n",
                  dir.c_str(), h.level, h.plane, h.size, h.detail.c_str());
    }
  }
  std::printf("%s: %zu segments, %d bad%s\n", dir.c_str(),
              health.value().size(), bad,
              checksummed ? "" : " (legacy container, no checksums)");
  return bad;
}

// Reproduces FieldRepository's documented artifact layout,
// <root>/<application>/<field>/t<NNNNNN>.
std::string RepoArtifactDir(const std::string& root,
                            const FieldRepository::Entry& entry) {
  std::ostringstream os;
  os << root << "/" << entry.application << "/" << entry.field << "/t";
  os.width(6);
  os.fill('0');
  os << entry.timestep;
  return os.str();
}

// In-process cluster scrub drill: place a refactored field on a simulated
// cluster, wipe one node's disk (kill + revive empty), and let the scrubber
// detect and re-replicate. Exits 0 when every segment is back at full
// replication and readable, 3 when data was lost — e.g. --replicas 1,
// where the wiped node held the only copy.
int CmdScrubCluster(const Flags& flags) {
  Dims3 dims;
  if (!ParseDims(flags.GetString("dims", "17,17,17"), &dims)) {
    return Usage("bad --dims");
  }
  const int shards = flags.GetInt("shards", 4);
  const int replicas = flags.GetInt("replicas", 2);
  const int wipe_node = flags.GetInt("kill-node", 1);
  if (shards <= 0 || replicas <= 0) {
    return Usage("--shards and --replicas must be positive");
  }
  if (wipe_node < 0 || wipe_node >= shards) {
    return Usage("--kill-node out of range");
  }

  auto series = GenerateSeries(flags.GetString("app", "warpx"),
                               flags.GetString("field", "E_x"), dims, 1);
  if (!series.ok()) {
    return Usage(series.status().message().c_str());
  }
  RefactorOptions ropts;
  ropts.num_planes = flags.GetInt("planes", 32);
  auto artifact = Refactorer(ropts).Refactor(series.value().frames[0]);
  if (!artifact.ok()) {
    return Fail(artifact.status());
  }
  const RefactoredField& field = artifact.value();

  ClusterOptions copts;
  copts.num_nodes = shards;
  copts.replication = replicas;
  ClusterBackend cluster(copts);
  const auto keys = field.segments.Keys();
  for (const auto& key : keys) {
    auto payload = field.segments.Get(key.first, key.second);
    if (!payload.ok()) {
      return Fail(payload.status());
    }
    Status st = cluster.PutSegment("field", key.first, key.second,
                                   std::move(payload).value());
    if (!st.ok()) {
      return Fail(st);
    }
  }
  std::printf("cluster scrub: %d shards r=%d, %zu segments\n", shards,
              replicas, keys.size());

  // The drill: node loses its disk, comes back empty, scrub repairs.
  cluster.KillNode(wipe_node);
  cluster.ReviveNode(wipe_node, /*wipe_data=*/true);
  const ClusterBackend::ScrubReport repair = cluster.ScrubRepair();
  std::printf("  wiped node %d: %llu scanned, %llu under-replicated, "
              "%llu repaired, %llu LOST\n",
              wipe_node, static_cast<unsigned long long>(repair.segments),
              static_cast<unsigned long long>(repair.under_replicated),
              static_cast<unsigned long long>(repair.repaired),
              static_cast<unsigned long long>(repair.lost));

  // Verify: a second pass must find nothing left to do, and every segment
  // must still read back (checksum-verified) through the cluster.
  const ClusterBackend::ScrubReport check = cluster.ScrubRepair();
  std::size_t unreadable = 0;
  for (const auto& key : keys) {
    if (!cluster.GetSegment("field", key.first, key.second).ok()) {
      ++unreadable;
    }
  }
  std::printf("  after repair: %llu under-replicated, %llu lost, "
              "%zu unreadable\n",
              static_cast<unsigned long long>(check.under_replicated),
              static_cast<unsigned long long>(check.lost), unreadable);
  const bool bad = repair.lost > 0 || check.lost > 0 ||
                   check.under_replicated > 0 || unreadable > 0;
  return bad ? 3 : 0;
}

int CmdScrub(const Flags& flags) {
  if (flags.Has("cluster")) {
    return CmdScrubCluster(flags);
  }
  const std::string dir = flags.GetString("dir");
  const std::string repo = flags.GetString("repo");
  if (dir.empty() == repo.empty()) {
    return Usage("exactly one of --dir or --repo is required");
  }
  std::vector<std::string> dirs;
  if (!dir.empty()) {
    dirs.push_back(dir);
  } else {
    if (!std::filesystem::exists(repo + "/manifest.bin")) {
      return Fail(Status::NotFound(repo + " is not a field repository "
                                   "(no manifest.bin)"));
    }
    auto r = FieldRepository::Open(repo);
    if (!r.ok()) {
      return Fail(r.status());
    }
    for (const FieldRepository::Entry& entry : r.value().entries()) {
      dirs.push_back(RepoArtifactDir(repo, entry));
    }
  }
  std::size_t segments = 0;
  int bad = 0;
  int unreadable = 0;
  for (const std::string& d : dirs) {
    const int n = ScrubOneDir(d, &segments);
    if (n < 0) {
      ++unreadable;
    } else {
      bad += n;
    }
  }
  std::printf("scrub: %zu artifacts, %zu segments, %d bad, %d unreadable\n",
              dirs.size(), segments, bad, unreadable);
  return (bad > 0 || unreadable > 0) ? 3 : 0;
}

int CmdVerify(const Flags& flags) {
  if (flags.Has("dir") || flags.Has("repo")) {
    return CmdScrub(flags);
  }
  const std::string a_path = flags.GetString("original");
  const std::string b_path = flags.GetString("reconstructed");
  if (a_path.empty() || b_path.empty()) {
    return Usage("--original and --reconstructed are required");
  }
  auto a_bytes = ReadFileToString(a_path);
  auto b_bytes = ReadFileToString(b_path);
  if (!a_bytes.ok()) {
    return Fail(a_bytes.status());
  }
  if (!b_bytes.ok()) {
    return Fail(b_bytes.status());
  }
  if (a_bytes.value().size() != b_bytes.value().size() ||
      a_bytes.value().size() % sizeof(double) != 0) {
    return Fail(Status::Invalid("file sizes differ or are not f64"));
  }
  const std::size_t n = a_bytes.value().size() / sizeof(double);
  std::vector<double> a(n), b(n);
  std::memcpy(a.data(), a_bytes.value().data(), a_bytes.value().size());
  std::memcpy(b.data(), b_bytes.value().data(), b_bytes.value().size());
  std::printf("n=%zu max_abs_err=%.6g rmse=%.6g psnr=%.2f dB\n", n,
              MaxAbsError(a, b), RmsError(a, b), Psnr(a, b));
  return 0;
}

void PrintHelp() {
  std::printf(
      "mgardp: progressive refactoring and retrieval of scientific data\n\n"
      "subcommands:\n"
      "  generate  --app warpx|gray-scott --field NAME --dims NX[,NY[,NZ]]\n"
      "            [--timestep T] --out FILE.f64\n"
      "  refactor  --input FILE.f64 --dims NX[,NY[,NZ]] --out DIR\n"
      "            [--planes B] [--steps K] [--no-correction]\n"
      "            [--codec auto|pipeline|rice]\n"
      "  info      --dir DIR\n"
      "  retrieve  --dir DIR (--rel-error R | --abs-error E | --psnr P\n"
      "            | --budget BYTES)\n"
      "            --out FILE.f64 [--estimator theory|snorm]\n"
      "            [--dmgard MODEL.bin | --emgard MODEL.bin] [--tolerant]\n"
      "  train     --model dmgard|emgard --app APP --field NAME\n"
      "            --dims NX[,NY[,NZ]] [--timesteps T] [--epochs E]\n"
      "            --out MODEL.bin\n"
      "  verify    --original FILE.f64 --reconstructed FILE.f64\n"
      "  verify    --dir DIR | --repo ROOT   (checksum scrub; exits 3 on\n"
      "            corruption; `scrub` is an alias)\n"
      "  serve-bench  --app APP --field NAME --dims NX[,NY[,NZ]]\n"
      "            [--fields F] [--clients 1,8,64] [--rounds R]\n"
      "            [--cache-mb M] [--queue CAP] [--zipf S] [--seed S]\n"
      "            [--json FILE] [--ground-truth] [--prom FILE]\n"
      "            (in-process retrieval service benchmark; --prom keeps a\n"
      "            live Prometheus exposition refreshed every second)\n"
      "  serve-bench  --shards N [--replicas R] [--kill-node-at F|P%%]\n"
      "            [--kill-node ID] [--requests N] [--rate RPS]\n"
      "            [--clients C] [--fields F] [--tenant-quota Q]\n"
      "            [--scrub-ms MS] [--json FILE]\n"
      "            (cluster chaos mode: replicated sharded backend, open-\n"
      "            loop Poisson arrivals, one node killed mid-run; exits 2\n"
      "            on incorrect reconstructions or unrecovered failures)\n"
      "  scrub     --cluster [--shards N] [--replicas R] [--kill-node ID]\n"
      "            [--dims NX[,NY[,NZ]]] [--planes B]\n"
      "            (wipe-a-node repair drill on a simulated cluster; exits\n"
      "            0 once re-replicated, 3 when segments were lost)\n"
      "  serve-bench  --retrain [--dims NX[,NY[,NZ]]] [--frames F]\n"
      "            [--baseline-requests N] [--drift-requests N]\n"
      "            [--recovery-requests N] [--epochs E] [--json FILE]\n"
      "            [--registry DIR]\n"
      "            (online-retraining drill: inject a distribution shift\n"
      "            mid-run and show the bound-violation rate recovering via\n"
      "            drift-triggered refit + shadow promotion, no restart;\n"
      "            also proves a junk candidate is never promoted)\n"
      "  audit     --app APP --field NAME --dims NX[,NY[,NZ]]\n"
      "            [--timesteps T] [--repo ROOT] [--dmgard MODEL.bin]\n"
      "            [--emgard MODEL.bin] [--bounds-per-decade N]\n"
      "            [--planes B] [--json FILE]\n"
      "            (replay the dataset against every available model and\n"
      "            report bound-violation rate, overfetch vs the matrix-\n"
      "            oracle floor, estimator tightness, and prefix drift)\n"
      "  models <action> --dir REGISTRY_DIR\n"
      "            list                      show every version + state\n"
      "            publish --model ID --blob MODEL.bin [--serve]\n"
      "            pin     --model ID --version N\n"
      "            rollback --model ID\n"
      "            (versioned model registry admin; exits 3 when a stored\n"
      "            blob or the index fails its checksum)\n"
      "  trace-report --input LANES.json [--top N]\n"
      "            (rank a --trace-requests lanes file: slowest retained\n"
      "            requests and their per-stage time breakdown)\n"
      "\n"
      "retrieve also accepts --original FILE.f64: audit the retrieval\n"
      "against ground truth and print the actual achieved error.\n"
      "\n"
      "retrieve, serve-bench, and audit accept --threads N; effective\n"
      "thread count now: %d (override order: --threads, MGARDP_THREADS,\n"
      "hardware)\n"
      "\n"
      "every subcommand accepts --trace FILE (or --trace=FILE): record\n"
      "per-stage spans and keep a Chrome trace (chrome://tracing or\n"
      "Perfetto) refreshed in the background and flushed on exit;\n"
      "MGARDP_TRACE=FILE does the same for any run. serve-bench --json\n"
      "output gains a \"stages\" profile when tracing.\n"
      "serve-bench modes accept --trace-requests FILE: tail-sampled\n"
      "per-request flight recording (slow/errored/degraded/shed requests\n"
      "kept as their own Chrome-trace lanes; tune with --slow-ms,\n"
      "--head-sample, --max-retained), plus --slo-latency-ms and\n"
      "--slo-objective for the burn-rate report (also under \"slo\" in\n"
      "--json and as mgardp_slo_* in --prom).\n"
      "every subcommand accepts --prom FILE: write the error-control audit\n"
      "as a Prometheus text exposition on exit.\n",
      GlobalThreadCount());
}

}  // namespace

namespace {

int Dispatch(const std::string& cmd, const Flags& flags) {
  if (cmd == "generate") {
    return CmdGenerate(flags);
  }
  if (cmd == "refactor") {
    return CmdRefactor(flags);
  }
  if (cmd == "info") {
    return CmdInfo(flags);
  }
  if (cmd == "retrieve") {
    return CmdRetrieve(flags);
  }
  if (cmd == "verify") {
    return CmdVerify(flags);
  }
  if (cmd == "scrub") {
    return CmdScrub(flags);
  }
  if (cmd == "train") {
    return CmdTrain(flags);
  }
  if (cmd == "serve-bench") {
    return CmdServeBench(flags);
  }
  if (cmd == "audit") {
    return CmdAudit(flags);
  }
  if (cmd == "trace-report") {
    return CmdTraceReport(flags);
  }
  PrintHelp();
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintHelp();
    return 1;
  }
  const std::string cmd = argv[1];
  // `models` takes a positional action (list/publish/pin/rollback) before
  // its flags; everything else is pure --flag.
  int flags_from = 2;
  std::string models_action;
  if (cmd == "models") {
    if (argc < 3 || argv[2][0] == '-') {
      return Usage("models needs an action: list | publish | pin | rollback");
    }
    models_action = argv[2];
    flags_from = 3;
  }
  Flags flags(argc, argv, flags_from);
  if (!flags.ok()) {
    return Usage(flags.error().c_str());
  }
  const std::string trace_path = flags.GetString("trace");
  std::unique_ptr<PeriodicFileWriter> trace_flusher;
  if (flags.Has("trace")) {
    if (trace_path.empty()) {
      return Usage("--trace needs an output file path");
    }
    obs::GlobalTracer().set_enabled(true);
    // Background flush: the timeline is rewritten atomically every
    // second, so a long run killed mid-way still leaves a loadable trace
    // instead of nothing.
    trace_flusher = std::make_unique<PeriodicFileWriter>(
        trace_path, std::chrono::milliseconds(1000), [] {
          return obs::ToChromeTraceJson(obs::GlobalTracer().events());
        });
  }
  if (flags.Has("trace-requests")) {
    if (flags.GetString("trace-requests").empty()) {
      return Usage("--trace-requests needs an output file path");
    }
    // The flight recorder itself lives in the serving commands; the mode
    // bit is global so span capture starts before any recorder exists.
    obs::GlobalTracer().set_request_tracing(true);
  }
  const std::string prom_path = flags.GetString("prom");
  if (flags.Has("prom") && prom_path.empty()) {
    return Usage("--prom needs an output file path");
  }
  const int rc = cmd == "models" ? CmdModels(models_action, flags)
                                 : Dispatch(cmd, flags);
  if (!prom_path.empty() && !g_prom_handled) {
    const Status st = WriteFileAtomic(
        prom_path, obs::RenderAuditPrometheus(obs::GlobalAuditor()));
    if (!st.ok()) {
      std::fprintf(stderr, "error writing prom file: %s\n",
                   st.ToString().c_str());
      return rc != 0 ? rc : 2;
    }
    std::printf("wrote %s\n", prom_path.c_str());
  }
  if (trace_flusher != nullptr) {
    const Status st = trace_flusher->Stop();  // final flush included
    if (!st.ok()) {
      std::fprintf(stderr, "error writing trace: %s\n",
                   st.ToString().c_str());
      return rc != 0 ? rc : 2;
    }
    std::printf("wrote trace %s (%zu events, %llu dropped, %llu flushes)\n",
                trace_path.c_str(), obs::GlobalTracer().events().size(),
                static_cast<unsigned long long>(
                    obs::GlobalTracer().events_dropped()),
                static_cast<unsigned long long>(trace_flusher->flushes()));
  }
  return rc;
}
