#include "util/status.h"

namespace mgardp {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "Invalid argument";
    case StatusCode::kOutOfRange:
      return "Out of range";
    case StatusCode::kNotFound:
      return "Not found";
    case StatusCode::kIOError:
      return "IO error";
    case StatusCode::kFailedPrecondition:
      return "Failed precondition";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kDataLoss:
      return "Data loss";
    case StatusCode::kOverloaded:
      return "Overloaded";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) {
    return "OK";
  }
  std::string out = StatusCodeToString(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

void Status::Abort(const char* context) const {
  if (ok()) {
    return;
  }
  if (context != nullptr) {
    std::cerr << context << ": ";
  }
  std::cerr << ToString() << std::endl;
  std::abort();
}

}  // namespace mgardp
