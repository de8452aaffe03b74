#include "trace.h"

#include <cinttypes>
#include <cstdio>

namespace perfbench {

uint64_t Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns,
                        uint64_t parent, uint64_t req) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = spans_.size() + 1;
  spans_.push_back({name, start_ns, end_ns, id, parent, req});
  return id;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start_ns\": %" PRId64
                 ", \"end_ns\": %" PRId64 ", \"id\": %" PRIu64
                 ", \"parent\": %" PRIu64 ", \"req\": %" PRIu64 "}\n",
                 s.name, s.start_ns, s.end_ns, s.id, s.parent, s.req);
  }
  return std::fclose(f) == 0;
}

void PrintShares(const std::string& title,
                 const std::vector<LayerShare>& rows) {
  if (rows.empty()) return;
  const double root = rows.front().total_ms;
  std::printf("blocking path, %s (root %.4f ms):\n", title.c_str(), root);
  std::printf("  %-22s %12s %12s %8s\n", "layer", "total_ms", "self_ms",
              "share");
  for (const LayerShare& r : rows) {
    std::printf("  %-22s %12.4f %12.4f %7.1f%%\n", r.layer.c_str(),
                r.total_ms, r.self_ms,
                root > 0.0 ? 100.0 * r.self_ms / root : 0.0);
  }
  std::fflush(stdout);
}

}  // namespace perfbench
