// Spans for the traced run. The benchmark records them around its own calls
// into each layer's public functions; nothing inside the program is
// instrumented. Each worker thread owns one SpanLog, so recording takes no
// lock; the logs are read only after the workers have been joined.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace tfrbench {

enum class SpanName : std::uint8_t {
  kTxn,            // one transaction, begin to commit return
  kClientBegin,    // TxnClient::begin
  kClientGet,      // Transaction::get
  kClientScan,     // Transaction::scan
  kClientCommit,   // Transaction::commit
  kProbe,          // one read-chain probe, each call below on its own key
  kKvClientGet,    // KvClient::get
  kRegionServerGet,  // RegionServer::get
  kRegionGet,      // Region::get
  kRegionScan,     // Region::scan
  kCount,
};

inline const char* span_name(SpanName n) {
  static constexpr const char* kNames[] = {
      "txn",        "client.begin", "client.get",        "client.scan", "client.commit",
      "probe",      "kv_client.get", "region_server.get", "region.get",  "region.scan"};
  return kNames[static_cast<int>(n)];
}

/// The span a span of kind `n` nests under; kCount for the two roots.
inline SpanName span_parent(SpanName n) {
  switch (n) {
    case SpanName::kTxn:
    case SpanName::kProbe:
    case SpanName::kCount:
      return SpanName::kCount;
    case SpanName::kClientBegin:
    case SpanName::kClientGet:
    case SpanName::kClientScan:
    case SpanName::kClientCommit:
      return SpanName::kTxn;
    default:
      return SpanName::kProbe;
  }
}

struct Span {
  std::int64_t start_ns = 0;  // steady clock
  std::int64_t end_ns = 0;
  std::uint64_t request = 0;  // shared by a root and its children
  SpanName name = SpanName::kCount;
};

/// The spans one worker thread recorded, in memory until the run ends.
class SpanLog {
 public:
  void add(SpanName name, std::int64_t start_ns, std::int64_t end_ns, std::uint64_t request) {
    spans_.push_back(Span{start_ns, end_ns, request, name});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Durations in microseconds of every span named `name`.
inline std::vector<double> durations_us(const std::vector<const SpanLog*>& logs, SpanName name) {
  std::vector<double> out;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

/// Write every span as Chrome trace-event JSON, one thread track per log,
/// times relative to `origin_ns`. Perfetto (ui.perfetto.dev) and
/// chrome://tracing open the file. Returns false if it cannot be written.
inline bool write_chrome_trace(const std::string& path, const std::vector<const SpanLog*>& logs,
                               std::int64_t origin_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  bool first = true;
  for (std::size_t tid = 0; tid < logs.size(); ++tid) {
    for (const Span& s : logs[tid]->spans()) {
      const SpanName parent = span_parent(s.name);
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"request\":%llu,\"parent\":\"%s\"}}",
                   first ? "" : ",\n", span_name(s.name), tid,
                   static_cast<double>(s.start_ns - origin_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.request),
                   parent == SpanName::kCount ? "" : span_name(parent));
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace tfrbench
