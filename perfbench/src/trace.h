// In-memory span recorder for the traced (--trace 1) run.
//
// Spans are recorded by the benchmark around its calls into each
// layer's public entry point; nothing inside the library is
// instrumented. A span has a name, a start and an end (steady clock,
// ns), a parent span id (0 = root) and the request / batch id it
// belongs to. The layers are replayed one at a time over the same
// generated inputs, so a parent link joins a span to the layer above
// it by request id and layer order, not by time containment.
// Everything is written out at exit as one JSON object per line.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name;  // static string: "<layer>.<operation>"
  int64_t start_ns;
  int64_t end_ns;
  uint64_t id;
  uint64_t parent;
  uint64_t req;
};

class Tracer {
 public:
  // Returns the new span's id (never 0). Thread-safe.
  uint64_t Record(const char* name, int64_t start_ns, int64_t end_ns,
                  uint64_t parent = 0, uint64_t req = 0);
  size_t size() const;
  // Writes every span as one JSON object per line; false on I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// One row of the blocking-path report: a layer's time per request
// (or per epoch) and the part of it its child layers do not cover.
struct LayerShare {
  std::string layer;
  double total_ms;
  double self_ms;
};

// Prints the share table (self / root total) on stdout.
void PrintShares(const std::string& title, const std::vector<LayerShare>& rows);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
