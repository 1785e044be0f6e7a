#include "src/common/status.h"

namespace tfr {

std::string_view code_name(Code c) {
  switch (c) {
    case Code::kOk: return "Ok";
    case Code::kNotFound: return "NotFound";
    case Code::kAlreadyExists: return "AlreadyExists";
    case Code::kInvalidArgument: return "InvalidArgument";
    case Code::kUnavailable: return "Unavailable";
    case Code::kAborted: return "Aborted";
    case Code::kTimeout: return "Timeout";
    case Code::kClosed: return "Closed";
    case Code::kCorruption: return "Corruption";
    case Code::kInternal: return "Internal";
    case Code::kWrongEpoch: return "WrongEpoch";
    case Code::kServerDown: return "ServerDown";
  }
  return "Unknown";
}

std::string Status::to_string() const {
  if (is_ok()) return "Ok";
  std::string out(code_name(code_));
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace tfr
