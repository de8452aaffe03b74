// The serving side of the benchmark: seeded request schedules, the
// open-loop loopback TCP client, the output checks against a
// single-driver reference engine, and the layer-by-layer replay of the
// serving stack (socket -> wire -> front door -> engine -> scorer ->
// kernel) that the traced run reports.
#ifndef PERFBENCH_SERVE_STACK_H_
#define PERFBENCH_SERVE_STACK_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"
#include "data/dataset.h"
#include "serve/model_snapshot.h"
#include "serve/net_server.h"
#include "serve/serving_frontend.h"
#include "trace.h"

namespace perfbench {

namespace serve = bslrec::serve;

// The traffic mix of one workload.
struct Mix {
  double zipf_alpha = 0.0;  // 0 = users drawn uniformly
  double bulk_share = 0.0;  // share of bulk-lane, unfiltered deep requests
  uint32_t k_interactive = 20;
  uint32_t k_bulk = 100;
  uint32_t deadline_us = 0;  // DEADLINE_US on interactive requests (0 = none)
};

struct ServeRequest {
  uint32_t user = 0;
  uint32_t k = 10;
  bool filter_seen = true;
  serve::RequestLane lane = serve::RequestLane::kInteractive;
  uint32_t deadline_us = 0;
};

// A seeded open-loop schedule: request i is due at start + due_ns[i].
struct Schedule {
  std::string tag;  // ID prefix, unique per phase
  std::vector<int64_t> due_ns;
  std::vector<ServeRequest> reqs;
};

// Poisson arrivals at `rate` per second for `duration_s`, users and
// lanes drawn per `mix`; the same (seed, tag) gives the same schedule.
Schedule MakeSchedule(uint64_t seed, const std::string& tag, double rate,
                      double duration_s, const Mix& mix, uint32_t num_users);

std::string RequestLine(const ServeRequest& r, const std::string& id);
serve::TopKRequest ToTopK(const ServeRequest& r);
std::string RequestId(const Schedule& s, size_t i);

// Served snapshots by publication sequence number (seq 1 = initial).
class SnapshotLog {
 public:
  void Add(uint64_t seq, std::shared_ptr<const serve::ModelSnapshot> snap);
  std::shared_ptr<const serve::ModelSnapshot> Get(uint64_t seq) const;

 private:
  mutable std::mutex mu_;
  std::map<uint64_t, std::shared_ptr<const serve::ModelSnapshot>> by_seq_;
};

// What one open-loop phase observed, per request and in total.
struct PhaseResult {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t err = 0;         // ERR lines
  uint64_t unanswered = 0;  // no reply before the drain timeout
  uint64_t within_limit = 0;  // OK and latency <= limit
  uint64_t backlog_at_end = 0;  // unanswered when the last request went out
  bool backlog_grew = false;
  std::vector<double> latency_ms;  // OK replies, from the due time
  std::vector<double> lag_ms;      // send time - due time, every request
  std::vector<std::string> lines;  // reply per request ("" = none)
  std::vector<uint64_t> span_ids;  // traced runs: "net.request" span ids
  uint64_t failed() const { return err + unanswered; }
};

// Open-loop client over `conns` loopback TCP connections: one sender
// thread paces requests by the schedule, one receiver thread matches
// replies by their ID token.
class LoadClient {
 public:
  LoadClient(uint16_t port, size_t conns);
  ~LoadClient();
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  bool connected() const { return connected_; }
  // Sends `s` on schedule and waits for every reply (at most 10 s past
  // the last due time). With a tracer, records a "net.request" span per
  // answered request (due -> reply).
  PhaseResult Run(const Schedule& s, double limit_ms, Tracer* tracer = nullptr);

 private:
  std::vector<int> fds_;
  bool connected_ = false;
};

// Checks every reply of `phase` against the wire grammar and the
// request, and a seeded sample (at most `max_checked`) bitwise against
// a single-driver, uncached RankingEngine on the snapshot named by the
// reply's seq. Failures go to `report`; returns the number compared.
size_t CheckReplies(const Schedule& s, const PhaseResult& phase,
                    const bslrec::Dataset& data, const SnapshotLog& snaps,
                    const serve::ServeConfig& serve_config, uint64_t seed,
                    size_t max_checked, bool corrupt_reference,
                    Report& report);

// The serving stack of one workload: front door + socket server.
struct ServeStack {
  ServeStack(const bslrec::Dataset& data,
             std::shared_ptr<const serve::ModelSnapshot> initial,
             const serve::FrontEndConfig& config);
  SnapshotLog snapshots;
  serve::ServingFrontEnd frontend;
  serve::NetServer server;
};

// bslrec_served's front-door defaults, with the scorer pool at
// `scorer_threads` workers.
serve::FrontEndConfig ServedDefaults(size_t scorer_threads);

// Traced replay of the serving stack over `s` (which should be an
// unsaturated, nominal-rate schedule): socket untraced and traced, the
// in-process front door on the same schedule, then the engine, scorer,
// kernel and wire layers on the same requests. Emits every serve-side
// per-layer metric, prints the blocking-path share table and returns
// the traced socket phase's latencies (ms, from the due time).
std::vector<double> ReplayServeLayers(const std::string& workload, const Schedule& s,
                       ServeStack& stack, const bslrec::Dataset& data,
                       uint64_t seed, bool tiny, Tracer& tracer,
                       Report& report);

// Kernel, runtime and wire-independent probes at dimension `dim`:
// vec.dot_ns, vec.dotbatch_gmacs, vec.bytes_per_mac and
// runtime.parallel_for_us at `pool_threads` workers.
void ReplayKernelAndRuntime(size_t dim, size_t pool_threads, Tracer& tracer,
                            Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_STACK_H_
