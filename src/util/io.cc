#include "util/io.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/logging.h"

namespace mgardp {

Status WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot open for writing: " + path);
  }
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  if (!out) {
    return Status::IOError("short write: " + path);
  }
  return Status::OK();
}

Status WriteFileAtomic(const std::string& path,
                       const std::string& contents) {
  const std::string tmp = path + ".tmp";
  MGARDP_RETURN_NOT_OK(WriteFile(tmp, contents));
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return Status::IOError("cannot rename " + tmp + " into " + path);
  }
  return Status::OK();
}

PeriodicFileWriter::PeriodicFileWriter(std::string path,
                                       std::chrono::milliseconds interval,
                                       std::function<std::string()> render)
    : path_(std::move(path)),
      interval_(interval),
      render_(std::move(render)) {
  MGARDP_CHECK(render_ != nullptr);
  thread_ = std::thread([this] { Loop(); });
}

PeriodicFileWriter::~PeriodicFileWriter() {
  const Status st = Stop();
  (void)st;
}

void PeriodicFileWriter::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!cv_.wait_for(lock, interval_, [this] { return stop_; })) {
    lock.unlock();
    Flush();
    lock.lock();
  }
}

void PeriodicFileWriter::Flush() {
  const Status st = WriteFileAtomic(path_, render_());
  std::lock_guard<std::mutex> lock(mu_);
  ++flushes_;
  if (!st.ok() && last_error_.ok()) {
    last_error_ = st;
  }
}

Status PeriodicFileWriter::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      return last_error_;
    }
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  Flush();
  return last_error();
}

std::uint64_t PeriodicFileWriter::flushes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flushes_;
}

Status PeriodicFileWriter::last_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_error_;
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open for reading: " + path);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return Status::IOError("read failure: " + path);
  }
  return ss.str();
}

Result<std::string> ReadFileRange(const std::string& path,
                                  std::uint64_t offset, std::uint64_t size) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) {
    return Status::NotFound("no such file: " + path);
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open for reading: " + path);
  }
  in.seekg(0, std::ios::end);
  const std::uint64_t file_size = static_cast<std::uint64_t>(in.tellg());
  if (size > file_size || offset > file_size - size) {
    return Status::OutOfRange("range [" + std::to_string(offset) + ", +" +
                              std::to_string(size) + ") past end of " + path);
  }
  in.seekg(static_cast<std::streamoff>(offset), std::ios::beg);
  std::string out(size, '\0');
  in.read(out.data(), static_cast<std::streamsize>(size));
  if (static_cast<std::uint64_t>(in.gcount()) != size) {
    return Status::IOError("short read: " + path);
  }
  return out;
}

}  // namespace mgardp
