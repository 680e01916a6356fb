#include "workloads.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <utility>

#include "decorators.h"
#include "models/emgard.h"
#include "models/training_data.h"
#include "pipeline.h"
#include "progressive/reconstructor.h"
#include "progressive/refactorer.h"
#include "service/retrieval_session.h"
#include "service/scheduler.h"
#include "service/segment_cache.h"
#include "sim/dataset.h"
#include "spans.h"
#include "storage/storage_backend.h"
#include "util/io.h"
#include "util/rng.h"
#include "util/stats.h"

namespace perfbench {

using mgardp::Array3Dd;
using mgardp::Dims3;
using mgardp::RefactoredField;
using mgardp::Result;
using mgardp::RetrievalPlan;
using mgardp::Status;

void RunStats::Merge(const RunStats& o) {
  op_ms.insert(op_ms.end(), o.op_ms.begin(), o.op_ms.end());
  cycle_ms.insert(cycle_ms.end(), o.cycle_ms.begin(), o.cycle_ms.end());
  coefs += o.coefs;
  busy_s += o.busy_s;
  bytes_read += o.bytes_read;
  bytes_stored += o.bytes_stored;
  stored += o.stored;
  raw += o.raw;
  attempted += o.attempted;
  failed += o.failed;
  bound_checked += o.bound_checked;
  bound_missed += o.bound_missed;
  planes_fetched += o.planes_fetched;
  planes_cached += o.planes_cached;
  planes_reused += o.planes_reused;
}

void Checks::Expect(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++count_;
  if (!ok && failures_.size() < 32) {
    failures_.push_back(what);
  }
}

bool Checks::ok() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_.empty();
}

std::int64_t Checks::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

std::vector<std::string> Checks::failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_;
}

namespace {

constexpr double kRetrieveBounds[] = {1e-2, 1e-4, 1e-6};
constexpr double kRefineLadder[] = {1e-1, 1e-2, 1e-4, 1e-6};
// Relative bound of the read-back retrieval that verifies each persisted
// ingest artifact.
constexpr double kIngestVerifyBound = 1e-4;

Dims3 Cube(std::size_t n) { return Dims3{n, n, n}; }

void OrThrow(const Status& status, const std::string& what) {
  if (!status.ok()) {
    throw std::runtime_error(what + ": " + status.ToString());
  }
}

template <typename T>
T OrThrow(Result<T> result, const std::string& what) {
  OrThrow(result.status(), what);
  return std::move(result).value();
}

double MsSince(double start_us) { return (NowUs() - start_us) * 1e-3; }

// One WarpX E_x timestep; `seed` draws the phases of the perturbation
// modes.
Array3Dd WarpXEx(std::size_t n, int timestep, std::uint64_t seed) {
  ScopedSpan span("sim.generate", static_cast<double>(n * n * n));
  mgardp::WarpXParams params;
  params.seed = seed;
  return mgardp::WarpXSimulator(Cube(n), params)
      .Field(mgardp::WarpXField::kEx, timestep);
}

// Gray-Scott D_u dumps: `warmup` steps, then one dump every `every` steps.
std::vector<Array3Dd> GrayScottDu(std::size_t n, std::uint64_t seed,
                                  int warmup, int every, int count) {
  ScopedSpan span("sim.generate", static_cast<double>(n * n * n * count));
  mgardp::GrayScottParams params;
  params.seed = seed;
  mgardp::GrayScottSimulator sim(Cube(n), params);
  sim.Step(warmup);
  std::vector<Array3Dd> dumps;
  for (int i = 0; i < count; ++i) {
    if (i > 0) {
      sim.Step(every);
    }
    dumps.push_back(sim.u());
  }
  return dumps;
}

// Runs op(i, stats), which returns the op's milliseconds, for i = 0, 1,
// ... until `seconds` of wall time have passed and the current round of
// `per_round` ops is complete, so every run measures whole rounds of the
// same op mix. Every `per_cycle` consecutive ops form one cycle. One
// untimed, untraced warm-up op runs first (pool threads, page faults,
// allocator).
void ClosedLoop(double seconds, int per_cycle, int per_round,
                const std::function<double(int, RunStats*)>& op,
                RunStats* stats) {
  {
    RunStats scratch;
    const bool traced = Recorder().enabled();
    Recorder().set_enabled(false);
    op(0, &scratch);
    Recorder().set_enabled(traced);
  }
  const double start = NowUs();
  double cycle_ms = 0.0;
  for (int i = 0; i % per_round != 0 || (NowUs() - start) * 1e-6 < seconds;
       ++i) {
    cycle_ms += op(i, stats);
    if (i % per_cycle == per_cycle - 1) {
      stats->cycle_ms.push_back(cycle_ms);
      cycle_ms = 0.0;
    }
  }
}

void CheckBound(const Array3Dd& truth, const Array3Dd& data, double bound,
                bool fatal, const std::string& what, RunStats* stats,
                Checks* checks) {
  const double err = mgardp::MaxAbsError(truth.vector(), data.vector());
  ++stats->bound_checked;
  if (err > bound) {
    ++stats->bound_missed;
  }
  if (fatal) {
    checks->Expect(err <= bound, what + ": max error " + std::to_string(err) +
                                     " exceeds bound " +
                                     std::to_string(bound));
  }
}

// ---------------------------------------------------------------- ingest

// Refactor + persist of 129^3 WarpX E_x and Gray-Scott D_u timesteps,
// alternating, one caller. Each persisted artifact is read back and
// compared byte for byte; the first lap over the inputs is also retrieved
// at 1e-4 and checked against the original.
class Ingest : public Workload {
 public:
  Ingest(std::uint64_t seed, std::string workdir)
      : seed_(seed), workdir_(std::move(workdir)) {}

  void Setup() override {
    mgardp::Rng rng(seed_);
    const int t0 = 9 + static_cast<int>(rng.NextBounded(2));
    const int warmup = 30 + static_cast<int>(rng.NextBounded(4));
    std::vector<Array3Dd> ex = {WarpXEx(kDims, t0, seed_),
                                WarpXEx(kDims, t0 + 2, seed_)};
    std::vector<Array3Dd> du = GrayScottDu(kDims, seed_, warmup, 10, 2);
    const bool du_first = rng.NextBounded(2) == 1;
    inputs_.clear();
    for (int i = 0; i < 2; ++i) {
      inputs_.push_back(std::move(du_first ? du[i] : ex[i]));
      inputs_.push_back(std::move(du_first ? ex[i] : du[i]));
    }
  }

  void SelfCheck(Checks* checks) override {
    for (const Array3Dd& input : inputs_) {
      RefactoredField lib =
          OrThrow(mgardp::Refactorer().Refactor(input), "refactor");
      RefactoredField rebuilt =
          OrThrow(TracedRefactor(input, nullptr), "rebuilt refactor");
      checks->Expect(SameField(lib, rebuilt),
                     "ingest: rebuilt refactor differs from "
                     "Refactorer::Refactor");
    }
  }

  void Run(double seconds, bool traced, RunStats* stats,
           Checks* checks) override {
    ClosedLoop(
        seconds, 2, static_cast<int>(inputs_.size()),
        [&](int i, RunStats* s) { return Op(i, traced, s, checks); }, stats);
  }

  double field_bytes() const override {
    return static_cast<double>(kDims * kDims * kDims * sizeof(double));
  }

 private:
  static constexpr std::size_t kDims = 129;

  double Op(int i, bool traced, RunStats* stats, Checks* checks) {
    const std::size_t which = static_cast<std::size_t>(i) % inputs_.size();
    const Array3Dd& input = inputs_[which];
    const std::string dir = workdir_ + "/op" + std::to_string(i);
    std::vector<std::vector<double>> levels;
    Result<RefactoredField> field = Status::Internal("not run");
    Status written = Status::OK();
    const double start = NowUs();
    if (traced) {
      OpScope op;
      field = TracedRefactor(input, &levels);
      if (field.ok()) {
        const RefactoredField& f = field.value();
        ScopedSpan span("storage.write",
                        static_cast<double>(f.segments.TotalBytes()));
        written = f.WriteToDirectory(dir);
      }
    } else {
      field = mgardp::Refactorer().Refactor(input);
      if (field.ok()) {
        written = field.value().WriteToDirectory(dir);
      }
    }
    const double ms = MsSince(start);
    ++stats->attempted;
    stats->op_ms.push_back(ms);
    stats->busy_s += ms * 1e-3;
    const Status status = field.ok() ? written : field.status();
    if (!status.ok()) {
      ++stats->failed;
      checks->Expect(false, "ingest: " + status.ToString());
      std::filesystem::remove_all(dir);
      return ms;
    }
    const RefactoredField& f = field.value();
    const double stored = static_cast<double>(f.segments.TotalBytes());
    stats->coefs += static_cast<double>(input.size());
    stats->stored += stored;
    stats->raw += static_cast<double>(input.size() * sizeof(double));
    if (traced) {
      ProbeSlice(levels);
    }

    Result<RefactoredField> loaded = RefactoredField::LoadFromDirectory(dir);
    checks->Expect(loaded.ok() && SameField(loaded.value(), f),
                   "ingest: persisted artifact does not read back "
                   "byte-identical");
    if (loaded.ok() && static_cast<std::size_t>(i) == which) {
      mgardp::TheoryEstimator theory;
      const double bound = kIngestVerifyBound * f.data_summary.range();
      RetrievalPlan plan;
      Result<Array3Dd> data =
          mgardp::Reconstructor(&theory).Retrieve(loaded.value(), bound, &plan);
      checks->Expect(data.ok(), "ingest: read-back retrieve failed");
      if (data.ok()) {
        CheckBound(input, data.value(), bound, true, "ingest read-back",
                   stats, checks);
        stats->bytes_read += static_cast<double>(plan.total_bytes);
        stats->bytes_stored += stored;
      }
    }
    std::filesystem::remove_all(dir);
    return ms;
  }

  std::uint64_t seed_;
  std::string workdir_;
  std::vector<Array3Dd> inputs_;
};

// --------------------------------------------------- retrieve / learned

// One-shot Reconstructor::Retrieve over fields held in memory: every
// cycle takes the next field and its bounds in a seed-drawn order.
class OneShotRetrieve : public Workload {
 public:
  OneShotRetrieve(std::uint64_t seed, bool misses_fatal)
      : seed_(seed), misses_fatal_(misses_fatal) {}

  void SelfCheck(Checks* checks) override {
    // The first and last field: one per application. Learned plans cost
    // hundreds of ms, so the check samples rather than covering every field.
    for (const Field* f : {&fields_.front(), &fields_.back()}) {
      for (double rel : kRetrieveBounds) {
        const double bound = rel * f->field.data_summary.range();
        mgardp::Reconstructor rec(f->estimator);
        RetrievalPlan lib_plan =
            OrThrow(rec.Plan(f->field, bound), "library plan");
        Array3Dd lib = OrThrow(rec.Reconstruct(f->field, lib_plan),
                               "library reconstruct");
        TimedEstimator timed(f->estimator);
        RetrievalPlan plan;
        Array3Dd rebuilt = OrThrow(
            TracedRetrieve(f->field, timed, bound, &plan), "rebuilt retrieve");
        checks->Expect(plan.prefix == lib_plan.prefix &&
                           plan.total_bytes == lib_plan.total_bytes &&
                           plan.estimated_error == lib_plan.estimated_error,
                       "retrieve: decorated estimator changed the plan");
        checks->Expect(SameArray(lib, rebuilt),
                       "retrieve: rebuilt reconstruction differs from "
                       "Reconstructor::Reconstruct");
      }
    }
  }

  void Run(double seconds, bool traced, RunStats* stats,
           Checks* checks) override {
    mgardp::Rng rng(seed_ ^ 0x5eedb0b0ULL);
    std::array<double, 3> order{};
    ClosedLoop(
        seconds, 3, static_cast<int>(3 * fields_.size()),
        [&](int i, RunStats* s) {
          if (i % 3 == 0) {
            std::copy(std::begin(kRetrieveBounds), std::end(kRetrieveBounds),
                      order.begin());
            for (int k = 2; k > 0; --k) {
              std::swap(order[k], order[rng.NextBounded(k + 1)]);
            }
          }
          const Field& f = fields_[(first_ + i / 3) % fields_.size()];
          return Op(f, order[i % 3], traced, s, checks);
        },
        stats);
  }

  double field_bytes() const override {
    return static_cast<double>(fields_.front().truth.size() * sizeof(double));
  }
  double setup_stored_frac() const override {
    double stored = 0.0, raw = 0.0;
    for (const Field& f : fields_) {
      stored += static_cast<double>(f.field.segments.TotalBytes());
      raw += static_cast<double>(f.truth.size() * sizeof(double));
    }
    return stored / raw;
  }

 protected:
  struct Field {
    std::string name;
    Array3Dd truth;
    RefactoredField field;
    const mgardp::ErrorEstimator* estimator = nullptr;
  };

  void AddField(std::string name, Array3Dd truth,
                const mgardp::ErrorEstimator* estimator) {
    RefactoredField field =
        OrThrow(mgardp::Refactorer().Refactor(truth), "refactor " + name);
    fields_.push_back(
        Field{std::move(name), std::move(truth), std::move(field), estimator});
  }

  std::uint64_t seed_;
  bool misses_fatal_;
  std::size_t first_ = 0;  // field the first cycle reads
  std::vector<Field> fields_;

 private:
  double Op(const Field& f, double rel, bool traced, RunStats* stats,
            Checks* checks) {
    const double bound = rel * f.field.data_summary.range();
    RetrievalPlan plan;
    Result<Array3Dd> data = Status::Internal("not run");
    TimedEstimator timed(f.estimator);
    const double start = NowUs();
    if (traced) {
      OpScope op;
      data = TracedRetrieve(f.field, timed, bound, &plan);
    } else {
      data = mgardp::Reconstructor(f.estimator).Retrieve(f.field, bound, &plan);
    }
    const double ms = MsSince(start);
    ++stats->attempted;
    stats->op_ms.push_back(ms);
    stats->busy_s += ms * 1e-3;
    if (!data.ok()) {
      ++stats->failed;
      checks->Expect(false, f.name + ": " + data.status().ToString());
      return ms;
    }
    stats->coefs += static_cast<double>(f.truth.size());
    stats->bytes_read += static_cast<double>(plan.total_bytes);
    stats->bytes_stored += static_cast<double>(f.field.segments.TotalBytes());
    CheckBound(f.truth, data.value(), bound, misses_fatal_, f.name, stats,
               checks);
    return ms;
  }
};

// 129^3 E_x and D_u, theory estimator: the read side of the refactor
// layers, where planning is cheap and the bound is guaranteed.
class Retrieve : public OneShotRetrieve {
 public:
  explicit Retrieve(std::uint64_t seed) : OneShotRetrieve(seed, true) {}

  void Setup() override {
    fields_.clear();
    mgardp::Rng rng(seed_);
    const int t = 9 + static_cast<int>(rng.NextBounded(2));
    const int warmup = 30 + static_cast<int>(rng.NextBounded(4));
    AddField("retrieve E_x t" + std::to_string(t), WarpXEx(kDims, t, seed_),
             &theory_);
    AddField("retrieve D_u", std::move(GrayScottDu(kDims, seed_, warmup, 0,
                                                   1)[0]),
             &theory_);
    first_ = rng.NextBounded(fields_.size());
  }

 private:
  static constexpr std::size_t kDims = 129;
  mgardp::TheoryEstimator theory_;
};

// E-MGARD planning on held-out 65^3 timesteps of both applications,
// trained at 33^3 on the first half of the timesteps with a fixed seed:
// inference dominates each request. Misses are counted, not fatal.
class Learned : public OneShotRetrieve {
 public:
  explicit Learned(std::uint64_t seed) : OneShotRetrieve(seed, false) {}

  void Setup() override {
    fields_.clear();
    models_.clear();
    estimators_.clear();
    std::vector<int> train, test;
    mgardp::SplitTimesteps(kTimesteps, &train, &test);

    // Training data do not depend on the workload seed, so every run
    // plans with the same models.
    std::vector<mgardp::FieldSeries> series;
    {
      ScopedSpan span("sim.generate");
      mgardp::WarpXDatasetOptions wopts;
      wopts.dims = Cube(kTrainDims);
      wopts.num_timesteps = kTimesteps;
      series.push_back(mgardp::GenerateWarpX(wopts, mgardp::WarpXField::kEx));
      mgardp::GrayScottDatasetOptions gopts;
      gopts.dims = Cube(kTrainDims);
      gopts.num_timesteps = kTimesteps;
      gopts.warmup_steps = kGsWarmup;
      gopts.steps_per_dump = kGsEvery;
      series.push_back(std::move(mgardp::GenerateGrayScott(gopts)[0]));
    }
    {
      ScopedSpan span("learning.train");
      for (const mgardp::FieldSeries& s : series) {
        mgardp::CollectOptions copts;
        copts.rel_bounds = mgardp::SubsampledRelativeErrorBounds(1);
        std::vector<mgardp::RetrievalRecord> records =
            OrThrow(mgardp::CollectRecords(s, train, copts), "collect");
        mgardp::EMgardConfig config;
        config.train.epochs = kEpochs;
        config.train.learning_rate = 1e-3;
        models_.push_back(std::make_unique<mgardp::EMgardModel>(
            OrThrow(mgardp::EMgardModel::TrainModel(records, config),
                    "train E-MGARD")));
        estimators_.push_back(
            std::make_unique<mgardp::LearnedConstantsEstimator>(
                models_.back().get()));
      }
    }

    // A fixed held-out test set, as the paper evaluates: which fields a run
    // plans on decides both its planning cost and which requests the
    // model misses, so the seed only orders the requests.
    mgardp::Rng rng(seed_);
    const std::vector<int> held_out = {test.front(), test.front() + 3};
    const std::uint64_t data_seed = mgardp::WarpXParams().seed;
    for (int t : held_out) {
      AddField("learned E_x t" + std::to_string(t),
               WarpXEx(kDims, t, data_seed), estimators_[0].get());
    }
    std::vector<Array3Dd> du =
        GrayScottDu(kDims, mgardp::GrayScottParams().seed,
                    kGsWarmup + kGsEvery * held_out[0],
                    kGsEvery * (held_out[1] - held_out[0]), 2);
    for (int i = 0; i < 2; ++i) {
      AddField("learned D_u t" + std::to_string(held_out[i]),
               std::move(du[i]), estimators_[1].get());
    }
    first_ = rng.NextBounded(fields_.size());
  }

 private:
  static constexpr std::size_t kDims = 65;
  static constexpr std::size_t kTrainDims = 33;
  static constexpr int kTimesteps = 12;
  static constexpr int kGsWarmup = 60;
  static constexpr int kGsEvery = 10;
  static constexpr int kEpochs = 40;
  std::vector<std::unique_ptr<mgardp::EMgardModel>> models_;
  std::vector<std::unique_ptr<mgardp::ErrorEstimator>> estimators_;
};

// ---------------------------------------------------------------- refine

// Four closed-loop clients on one RetrievalScheduler. Each opens a
// RetrievalSession on a Zipf(1.1)-drawn field of an 8-field 65^3 pool
// served from DirectoryBackend files, and refines it down a
// 1e-1 -> 1e-2 -> 1e-4 -> 1e-6 ladder, submitting each step from the
// previous step's callback. All sessions share one SegmentCache holding
// half the pool's bytes, so it both hits and evicts.
class Refine : public Workload {
 public:
  Refine(std::uint64_t seed, std::string workdir)
      : seed_(seed), workdir_(std::move(workdir)) {}

  void Setup() override {
    pool_.clear();
    mgardp::Rng rng(seed_);
    std::vector<Array3Dd> inputs;
    for (int t = 8; t < 8 + kPerApp; ++t) {
      inputs.push_back(WarpXEx(kDims, t, seed_));
    }
    for (Array3Dd& du :
         GrayScottDu(kDims, seed_, 60 + static_cast<int>(rng.NextBounded(4)),
                     10, kPerApp)) {
      inputs.push_back(std::move(du));
    }
    pool_stored_ = 0.0;
    pool_raw_ = 0.0;
    std::filesystem::remove_all(workdir_ + "/pool");
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      auto f = std::make_unique<PoolField>();
      f->id = "f" + std::to_string(i);
      const std::string dir = workdir_ + "/pool/" + f->id;
      f->full = OrThrow(mgardp::Refactorer().Refactor(inputs[i]), "refactor");
      OrThrow(f->full.WriteToDirectory(dir), "write " + dir);
      f->meta = OrThrow(RefactoredField::DeserializeMetadata(OrThrow(
                            mgardp::ReadFileToString(dir + "/metadata.bin"),
                            "read metadata")),
                        "parse metadata");
      f->backend = std::make_unique<mgardp::DirectoryBackend>(
          OrThrow(mgardp::DirectoryBackend::Open(dir), "open " + dir));
      f->truth = std::move(inputs[i]);
      f->stored = static_cast<double>(f->full.segments.TotalBytes());
      pool_stored_ += f->stored;
      pool_raw_ += static_cast<double>(f->truth.size() * sizeof(double));
      pool_.push_back(std::move(f));
    }
    // Popularity: Zipf rank r is field kRankOrder[r], alternating E_x and
    // D_u in timestep order (E_x fields are 0..3, D_u fields 4..7), so
    // which sizes are hot, and with it the cache hit rate, is the same for
    // every seed. Draws come from a shuffled deck holding each field
    // round(kDeck * p_r) times: the seed orders the draws, but a run's
    // field frequencies stay at the Zipf law instead of wandering by
    // several percent with the sampling noise of a few hundred draws.
    static constexpr int kRankOrder[] = {0, 4, 1, 5, 2, 6, 3, 7};
    double total = 0.0;
    for (int r = 1; r <= 2 * kPerApp; ++r) {
      total += std::pow(r, -kZipfExponent);
    }
    zipf_deck_.clear();
    for (int r = 1; r <= 2 * kPerApp; ++r) {
      const long copies = std::max(
          1L, std::lround(kDeck * std::pow(r, -kZipfExponent) / total));
      zipf_deck_.insert(zipf_deck_.end(), copies, kRankOrder[r - 1]);
    }
  }

  void SelfCheck(Checks* checks) override {
    // Decorated and undecorated sessions must plan, read and reconstruct
    // identically.
    const PoolField& f = *pool_.front();
    mgardp::RetrievalSession plain(f.id, &f.meta, f.backend.get(), &theory_);
    TimedBackend backend(f.backend.get());
    TimedEstimator estimator(&theory_);
    mgardp::RetrievalSession decorated(f.id, &f.meta, &backend, &estimator);
    for (double rel : kRefineLadder) {
      const double bound = rel * f.meta.data_summary.range();
      mgardp::RetrievalSession::Refinement a, b;
      const Array3Dd* x = OrThrow(plain.Refine(bound, &a), "refine");
      const Array3Dd* y = OrThrow(decorated.Refine(bound, &b), "refine");
      checks->Expect(a.prefix == b.prefix &&
                         a.fetched_bytes == b.fetched_bytes &&
                         SameArray(*x, *y),
                     "refine: decorated session differs from undecorated");
    }
  }

  void Run(double seconds, bool traced, RunStats* stats,
           Checks* checks) override {
    mgardp::SegmentCache::Options copts;
    copts.byte_budget = static_cast<std::size_t>(pool_stored_ * kCacheShare);
    mgardp::SegmentCache cache(copts);
    // The warm-up window fills the cache; its requests are not counted.
    RunStats warmup;
    Window(1.0, false, &cache, seed_ ^ 0xa11ULL, &warmup, checks);
    Window(seconds, traced, &cache, seed_, stats, checks);
  }

  double field_bytes() const override {
    return static_cast<double>(kDims * kDims * kDims * sizeof(double));
  }
  double setup_stored_frac() const override {
    return pool_stored_ / pool_raw_;
  }

 private:
  static constexpr std::size_t kDims = 65;
  static constexpr int kPerApp = 4;
  static constexpr int kClients = 4;
  static constexpr double kZipfExponent = 1.1;
  static constexpr int kDeck = 50;
  static constexpr double kCacheShare = 0.5;
  // Sampled refine results are re-derived with ReconstructFromPrefix.
  // Coprime with the ladder length, so samples land on every step.
  static constexpr int kSampleEvery = 7;
  static constexpr std::size_t kMaxSamples = 4;

  struct PoolField {
    std::string id;
    RefactoredField full;  // refactor output, for checks
    RefactoredField meta;  // metadata read back from the directory
    std::unique_ptr<mgardp::DirectoryBackend> backend;
    Array3Dd truth;
    double stored = 0.0;
  };

  // One session and the decorators it reads through.
  struct Session {
    std::size_t field = 0;
    std::unique_ptr<TimedBackend> backend;
    std::unique_ptr<TimedEstimator> estimator;
    std::unique_ptr<mgardp::RetrievalSession> session;
  };

  struct Sample {
    std::size_t field = 0;
    std::vector<int> prefix;
    Array3Dd data;
  };

  struct Client {
    explicit Client(std::uint64_t seed) : rng(seed) {}
    mgardp::Rng rng;
    std::vector<int> deck;  // shuffled Zipf draws, consumed in order
    std::size_t next_draw = 0;
    Session current;
    Session retired;  // kept until the scheduler is done with it
    int step = 0;
    std::int64_t requests = 0;
    double session_start_us = 0.0;
    double submit_us = 0.0;
    std::int64_t op_id = 0;
    std::int64_t service_id = 0;
    RunStats stats;
    std::vector<Sample> samples;
  };

  struct WindowState {
    mgardp::RetrievalScheduler* scheduler = nullptr;
    mgardp::SegmentCache* cache = nullptr;
    bool traced = false;
    double deadline_us = 0.0;
    Checks* checks = nullptr;
  };

  void Window(double seconds, bool traced, mgardp::SegmentCache* cache,
              std::uint64_t seed, RunStats* stats, Checks* checks) {
    mgardp::RetrievalScheduler scheduler(nullptr);
    WindowState w{&scheduler, cache, traced, 0.0, checks};
    std::vector<std::unique_ptr<Client>> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.push_back(std::make_unique<Client>(seed * kClients + c + 1));
    }
    const double start = NowUs();
    w.deadline_us = start + seconds * 1e6;
    for (auto& c : clients) {
      StartSession(&w, c.get());
    }
    scheduler.Drain();
    stats->busy_s += (NowUs() - start) * 1e-6;
    for (auto& c : clients) {
      stats->Merge(c->stats);
      for (const Sample& s : c->samples) {
        Result<Array3Dd> ref =
            mgardp::ReconstructFromPrefix(pool_[s.field]->full, s.prefix);
        checks->Expect(ref.ok() && SameArray(ref.value(), s.data),
                       "refine: session result differs from "
                       "ReconstructFromPrefix at the same prefix");
      }
    }
  }

  std::size_t DrawField(Client* c) const {
    if (c->next_draw == c->deck.size()) {
      c->deck = zipf_deck_;
      for (std::size_t i = c->deck.size() - 1; i > 0; --i) {
        std::swap(c->deck[i], c->deck[c->rng.NextBounded(i + 1)]);
      }
      c->next_draw = 0;
    }
    return static_cast<std::size_t>(c->deck[c->next_draw++]);
  }

  void StartSession(WindowState* w, Client* c) {
    c->retired = std::move(c->current);
    Session& s = c->current;
    s.field = DrawField(c);
    PoolField& f = *pool_[s.field];
    mgardp::StorageBackend* backend = f.backend.get();
    const mgardp::ErrorEstimator* estimator = &theory_;
    if (w->traced) {
      s.backend = std::make_unique<TimedBackend>(f.backend.get());
      s.estimator = std::make_unique<TimedEstimator>(&theory_);
      backend = s.backend.get();
      estimator = s.estimator.get();
    }
    s.session = std::make_unique<mgardp::RetrievalSession>(
        f.id, &f.meta, backend, estimator, w->cache);
    c->stats.bytes_stored += f.stored;
    c->step = 0;
    c->session_start_us = NowUs();
    Submit(w, c);
  }

  void Submit(WindowState* w, Client* c) {
    const PoolField& f = *pool_[c->current.field];
    mgardp::RetrievalScheduler::Request request;
    request.session = c->current.session.get();
    request.error_bound = kRefineLadder[c->step] * f.meta.data_summary.range();
    if (w->traced) {
      c->op_id = Recorder().NewId();
      c->service_id = Recorder().NewId();
      c->current.backend->set_context(c->op_id, c->service_id);
    }
    c->submit_us = NowUs();
    const Status admitted = w->scheduler->Submit(
        request, [this, w, c, bound = request.error_bound](
                     const mgardp::RetrievalScheduler::Response& r) {
          OnDone(w, c, bound, r);
        });
    if (!admitted.ok()) {
      ++c->stats.attempted;
      ++c->stats.failed;
      w->checks->Expect(false, "refine: request shed: " + admitted.ToString());
    }
  }

  void OnDone(WindowState* w, Client* c, double bound,
              const mgardp::RetrievalScheduler::Response& r) {
    const double now = NowUs();
    const double ms = (now - c->submit_us) * 1e-3;
    RunStats& s = c->stats;
    ++s.attempted;
    ++c->requests;
    s.op_ms.push_back(ms);
    if (!r.status.ok() || r.data == nullptr) {
      ++s.failed;
      w->checks->Expect(false, "refine: " + r.status.ToString());
      return;  // this client stops
    }
    const PoolField& f = *pool_[c->current.field];
    const mgardp::RetrievalSession::Refinement& ref = r.refinement;
    if (!ref.noop) {
      s.coefs += static_cast<double>(f.truth.size());
    }
    s.bytes_read += static_cast<double>(ref.fetched_bytes);
    s.planes_fetched += ref.planes_fetched;
    s.planes_cached += ref.planes_cached;
    s.planes_reused += ref.planes_reused;
    if (w->traced) {
      RecordRequest(*c, now, r.latency_ms);
    }
    CheckBound(f.truth, *r.data, bound, true, "refine " + f.id, &s,
               w->checks);
    if (c->requests % kSampleEvery == 1 && c->samples.size() < kMaxSamples) {
      c->samples.push_back(Sample{c->current.field, ref.prefix, *r.data});
    }
    if (++c->step == static_cast<int>(std::size(kRefineLadder))) {
      s.cycle_ms.push_back((now - c->session_start_us) * 1e-3);
      if (NowUs() < w->deadline_us) {
        StartSession(w, c);
      }
    } else if (NowUs() < w->deadline_us) {
      Submit(w, c);
    }
  }

  // Spans of one request: the op (Submit to callback) splits into queue
  // wait and service; service holds the decorated Gets (recorded by the
  // backend as they happen) and the estimator calls.
  void RecordRequest(const Client& c, double now, double latency_ms) {
    const double latency_us = latency_ms * 1e3;
    const double total_us = now - c.submit_us;
    Span op;
    op.name = "op";
    op.id = c.op_id;
    op.op = c.op_id;
    op.start_us = c.submit_us;
    op.dur_us = total_us;
    Recorder().Record(op);
    Span wait;
    wait.name = "service.queue_wait";
    wait.id = Recorder().NewId();
    wait.parent = c.op_id;
    wait.op = c.op_id;
    wait.start_us = c.submit_us;
    wait.dur_us = std::max(0.0, total_us - latency_us);
    Recorder().Record(wait);
    Span service;
    service.name = "service.service";
    service.id = c.service_id;
    service.parent = c.op_id;
    service.op = c.op_id;
    service.start_us = now - latency_us;
    service.dur_us = latency_us;
    Recorder().Record(service);
    const CallTotals calls = c.current.estimator->Take();
    RecordAggregate("models.estimate", c.op_id, c.service_id,
                    service.start_us, calls.calls, calls.us);
  }

  std::uint64_t seed_;
  std::string workdir_;
  mgardp::TheoryEstimator theory_;
  std::vector<std::unique_ptr<PoolField>> pool_;
  double pool_stored_ = 0.0;
  double pool_raw_ = 0.0;
  std::vector<int> zipf_deck_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed,
                                       const std::string& workdir) {
  if (name == "ingest") {
    return std::make_unique<Ingest>(seed, workdir);
  }
  if (name == "retrieve") {
    return std::make_unique<Retrieve>(seed);
  }
  if (name == "refine") {
    return std::make_unique<Refine>(seed, workdir);
  }
  if (name == "learned") {
    return std::make_unique<Learned>(seed);
  }
  return nullptr;
}

}  // namespace perfbench
