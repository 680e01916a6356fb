// The benchmark's four workloads. Each generates all of its inputs from
// the run's seed, sets up, runs closed-loop operations for a fixed time and
// checks every output it can afford to (see README.md for why each one
// exists and which layers it loads).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// What one measured phase did. Timings in milliseconds.
struct RunStats {
  std::vector<double> op_ms;
  std::vector<double> cycle_ms;  // one whole ladder / bound cycle / pair
  double coefs = 0.0;     // grid points refactored or reconstructed
  double busy_s = 0.0;    // wall seconds the operations ran
  double bytes_read = 0.0;    // compressed bytes read by retrievals ...
  double bytes_stored = 0.0;  // ... and stored for the fields they read
  double stored = 0.0;        // compressed bytes stored ...
  double raw = 0.0;           // ... for this many raw bytes
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t bound_checked = 0;  // ops checked against ground truth
  std::int64_t bound_missed = 0;
  // Refinement plane accounting (refine only).
  std::int64_t planes_fetched = 0;
  std::int64_t planes_cached = 0;
  std::int64_t planes_reused = 0;

  void Merge(const RunStats& other);
};

// Correctness verdicts; safe to use from several threads.
class Checks {
 public:
  void Expect(bool ok, const std::string& what);
  bool ok() const;
  std::int64_t count() const;
  std::vector<std::string> failures() const;

 private:
  mutable std::mutex mu_;
  std::int64_t count_ = 0;              // guarded by mu_
  std::vector<std::string> failures_;   // guarded by mu_
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Generates the inputs from the seed and prepares everything the
  // operations read: pre-refactored fields, persisted pools, trained
  // models. Throws std::runtime_error when a library call fails.
  virtual void Setup() = 0;

  // Traced runs only: proves the rebuilt pipelines and decorated objects
  // produce exactly what the library's own entry points produce.
  virtual void SelfCheck(Checks* checks) = 0;

  // Runs operations for `seconds`; traced runs use the rebuilt pipelines
  // and decorators so every layer call becomes a span.
  virtual void Run(double seconds, bool traced, RunStats* stats,
                   Checks* checks) = 0;

  // Bytes of one input field, for the machine-facts record.
  virtual double field_bytes() const = 0;
  // Compressed over raw bytes of the fields set-up stored (0 if none).
  virtual double setup_stored_frac() const { return 0.0; }
};

// Names: ingest, retrieve, refine, learned. `workdir` is a scratch
// directory inside the checkout, owned by the caller. Null for an unknown
// name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed,
                                       const std::string& workdir);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
