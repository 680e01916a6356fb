// Binary serialization helpers.
//
// A tiny append-only writer / sequential reader pair over std::string
// buffers plus file load/store. All multi-byte values are little-endian
// native (the library targets a single host; files are not meant to be
// portable across endianness).

#ifndef MGARDP_UTIL_IO_H_
#define MGARDP_UTIL_IO_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/status.h"

namespace mgardp {

// Serializes POD values and vectors into a growing byte buffer.
class BinaryWriter {
 public:
  template <typename T>
  void Put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t off = buffer_.size();
    buffer_.resize(off + sizeof(T));
    std::memcpy(buffer_.data() + off, &value, sizeof(T));
  }

  template <typename T>
  void PutVector(const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>);
    Put<std::uint64_t>(values.size());
    const std::size_t off = buffer_.size();
    buffer_.resize(off + values.size() * sizeof(T));
    if (!values.empty()) {
      std::memcpy(buffer_.data() + off, values.data(),
                  values.size() * sizeof(T));
    }
  }

  void PutString(const std::string& s) {
    Put<std::uint64_t>(s.size());
    buffer_.append(s);
  }

  void PutBytes(const void* data, std::size_t n) {
    const std::size_t off = buffer_.size();
    buffer_.resize(off + n);
    if (n > 0) {
      std::memcpy(buffer_.data() + off, data, n);
    }
  }

  const std::string& buffer() const { return buffer_; }
  std::string TakeBuffer() { return std::move(buffer_); }

 private:
  std::string buffer_;
};

// Sequentially deserializes values written by BinaryWriter. All getters
// return Status so truncated/corrupt inputs surface as errors, not UB.
class BinaryReader {
 public:
  explicit BinaryReader(const std::string& buffer)
      : data_(buffer.data()), size_(buffer.size()) {}
  BinaryReader(const char* data, std::size_t size)
      : data_(data), size_(size) {}

  template <typename T>
  Status Get(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (pos_ + sizeof(T) > size_) {
      return Status::OutOfRange("BinaryReader: truncated input");
    }
    std::memcpy(out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::OK();
  }

  template <typename T>
  Status GetVector(std::vector<T>* out) {
    std::uint64_t n = 0;
    MGARDP_RETURN_NOT_OK(Get(&n));
    // Divide rather than multiply: n * sizeof(T) may wrap around.
    if (n > remaining() / sizeof(T)) {
      return Status::OutOfRange("BinaryReader: truncated vector");
    }
    out->resize(n);
    if (n > 0) {
      std::memcpy(out->data(), data_ + pos_, n * sizeof(T));
    }
    pos_ += n * sizeof(T);
    return Status::OK();
  }

  Status GetString(std::string* out) {
    std::uint64_t n = 0;
    MGARDP_RETURN_NOT_OK(Get(&n));
    if (n > remaining()) {
      return Status::OutOfRange("BinaryReader: truncated string");
    }
    out->assign(data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  Status GetBytes(void* out, std::size_t n) {
    if (n > remaining()) {
      return Status::OutOfRange("BinaryReader: truncated bytes");
    }
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ == size_; }

 private:
  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// Writes `contents` to `path`, replacing any existing file.
Status WriteFile(const std::string& path, const std::string& contents);

// Writes `contents` to `path` atomically (temp file + rename), so a
// concurrent reader never observes a half-written file.
Status WriteFileAtomic(const std::string& path, const std::string& contents);

// Keeps a file current for a long-running process (the CLI's --prom and
// --trace exports): a background thread rewrites `path` with `render()`
// via WriteFileAtomic every `interval`, and Stop() writes once more so the
// file ends on the final state. A crash loses at most one interval.
class PeriodicFileWriter {
 public:
  PeriodicFileWriter(std::string path, std::chrono::milliseconds interval,
                     std::function<std::string()> render);
  ~PeriodicFileWriter();

  PeriodicFileWriter(const PeriodicFileWriter&) = delete;
  PeriodicFileWriter& operator=(const PeriodicFileWriter&) = delete;

  // Idempotent: wakes the thread, joins it, and flushes one final time.
  // Returns the first write error observed (OK if none).
  Status Stop();

  std::uint64_t flushes() const;
  // First write error observed so far (OK if none).
  Status last_error() const;

 private:
  void Loop();
  // Writes the file and records the outcome.
  void Flush();

  const std::string path_;
  const std::chrono::milliseconds interval_;
  const std::function<std::string()> render_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::uint64_t flushes_ = 0;
  Status last_error_;
  std::thread thread_;
};

// Reads the entire file at `path`.
Result<std::string> ReadFileToString(const std::string& path);

// Reads exactly `size` bytes starting at `offset`. NotFound if the file
// does not exist, OutOfRange if the range extends past its end.
Result<std::string> ReadFileRange(const std::string& path,
                                  std::uint64_t offset, std::uint64_t size);

}  // namespace mgardp

#endif  // MGARDP_UTIL_IO_H_
