// Pluggable segment I/O behind the retrieval path.
//
// RetrievalSession fetches segments through this interface instead of
// touching a SegmentStore directly, so the same code serves in-memory
// stores, on-disk artifact directories, replicated clusters and (in tests)
// backends with injected faults. Layering convention, bottom to top:
//
//   MemoryBackend / DirectoryBackend   raw bytes (Directory verifies CRC)
//   FaultInjectingBackend              simulated media faults (tests)
//   VerifyingBackend                   CRC check against a checksum table
//
// A VerifyingBackend on top of a FaultInjectingBackend models the real
// deployment truthfully: corruption happens on the media, below the
// integrity check, and is caught by it. The service layer's SegmentCache
// fills from the session's backend, so only verified bytes are ever cached.
//
// Thread-safety: Get/Contains/Keys on the backends defined here are safe
// to call concurrently from any number of threads as long as no Put or
// Flush runs at the same time (they read immutable indices and perform
// per-call file reads). The retrieval service relies on this read-side
// contract; writers must be externally serialized against readers.

#ifndef MGARDP_STORAGE_STORAGE_BACKEND_H_
#define MGARDP_STORAGE_STORAGE_BACKEND_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "storage/container_format.h"
#include "storage/segment_store.h"
#include "util/status.h"

namespace mgardp {

class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  // Fetches the payload of (level, plane). NotFound if absent, DataLoss if
  // the backend verifies checksums and the payload fails, IOError for
  // (possibly transient) media failures.
  virtual Result<std::string> Get(int level, int plane) = 0;

  // Stores a payload. Backends that are read-only views return
  // FailedPrecondition.
  virtual Status Put(int level, int plane, std::string payload) = 0;

  virtual bool Contains(int level, int plane) const = 0;

  // All (level, plane) keys known to the backend, ascending.
  virtual std::vector<std::pair<int, int>> Keys() const = 0;

  virtual std::string name() const = 0;
};

// A backend over an in-memory SegmentStore: either an owned store (writable)
// or a borrowed read-only view of somebody else's (no copy).
class MemoryBackend : public StorageBackend {
 public:
  // Owning, starts empty (or from a moved-in store).
  MemoryBackend() : store_(&owned_) {}
  explicit MemoryBackend(SegmentStore store)
      : owned_(std::move(store)), store_(&owned_) {}
  // Borrowed read-only view; `store` must outlive the backend.
  explicit MemoryBackend(const SegmentStore* store) : store_(store) {}

  Result<std::string> Get(int level, int plane) override;
  Status Put(int level, int plane, std::string payload) override;
  bool Contains(int level, int plane) const override;
  std::vector<std::pair<int, int>> Keys() const override;
  std::string name() const override { return "memory"; }

  const SegmentStore& store() const { return *store_; }

 private:
  SegmentStore owned_;
  const SegmentStore* store_;  // == &owned_ when owning
};

// A backend over a segment directory (the WriteToDirectory layout). Get
// reads only the segment's byte range from the level file and verifies its
// checksum when the container records one (v2), so every read catches
// corruption at the source. Put stages in memory until Flush rewrites the
// directory.
class DirectoryBackend : public StorageBackend {
 public:
  // Opens an existing directory (v1 or v2 container) or, when no
  // segments.idx exists yet, an empty writable one.
  static Result<DirectoryBackend> Open(const std::string& dir);

  Result<std::string> Get(int level, int plane) override;
  Status Put(int level, int plane, std::string payload) override;
  bool Contains(int level, int plane) const override;
  std::vector<std::pair<int, int>> Keys() const override;
  std::string name() const override { return "directory"; }

  // Merges staged Puts with the on-disk segments and rewrites the
  // directory (always as v2). No-op when nothing is staged.
  Status Flush();

  const std::string& dir() const { return dir_; }

 private:
  explicit DirectoryBackend(std::string dir) : dir_(std::move(dir)) {}

  std::string dir_;
  std::map<std::pair<int, int>, container::IndexRecord> records_;
  SegmentStore staged_;
};

// Decorator that verifies every payload read through it against an
// expected-checksum table, turning silent corruption from the layers below
// into DataLoss. The table is captured at construction (typically from the
// SegmentStore that wrote the data, or from a trusted index).
class VerifyingBackend : public StorageBackend {
 public:
  // `inner` must outlive the backend.
  VerifyingBackend(StorageBackend* inner,
                   std::map<std::pair<int, int>, std::uint32_t> checksums)
      : inner_(inner), checksums_(std::move(checksums)) {}

  // Convenience: table taken from `store`'s segments.
  VerifyingBackend(StorageBackend* inner, const SegmentStore& store);

  Result<std::string> Get(int level, int plane) override;
  Status Put(int level, int plane, std::string payload) override;
  bool Contains(int level, int plane) const override {
    return inner_->Contains(level, plane);
  }
  std::vector<std::pair<int, int>> Keys() const override {
    return inner_->Keys();
  }
  std::string name() const override { return "verify+" + inner_->name(); }

 private:
  StorageBackend* inner_;
  std::map<std::pair<int, int>, std::uint32_t> checksums_;
};

}  // namespace mgardp

#endif  // MGARDP_STORAGE_STORAGE_BACKEND_H_
