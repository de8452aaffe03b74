// Shared plumbing of the repository benchmark: command-line arguments,
// clocks, order statistics, the correctness ledger and the one-line
// JSON result the benchmark prints last.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  // Small shapes for the self-test; the metric set is unchanged.
  bool tiny = false;
  // Self-test only: perturb the reference rankings so the correctness
  // check must trip.
  bool corrupt_reference = false;
};

// Monotonic clock in nanoseconds / seconds since an arbitrary epoch.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double NowS() { return static_cast<double>(NowNs()) * 1e-9; }

// Nearest-rank percentile (p in [0, 100]) of `v`; 0 for an empty sample.
double Percentile(std::vector<double> v, double p);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 50.0);
}
// p99 of each window of 1000 consecutive values (the fewest that leave
// ten values beyond the 99th percentile; one window when `v` is
// shorter), then the median over windows: a burst of CPU time taken
// from the machine moves the windows it hits, not the reported tail.
double WindowedP99(const std::vector<double>& v);

// Process high-water resident set (VmHWM), in MiB.
double PeakRssMb();

// Runs the calling load-generator thread ahead of the server's threads
// (SCHED_FIFO when permitted, else unchanged): client and server share
// the machine's cores, and a client that waits for a core would add its
// own delay to every latency it measures. Returns false if not permitted.
bool PrioritizeClientThread();

// Cumulative CPU time of the whole machine (all cores, /proc/stat
// ticks): total, and the part the hypervisor gave to other guests.
struct HostCpu {
  uint64_t total = 0;
  uint64_t steal = 0;
};
HostCpu ReadHostCpu();

// Number of hardware threads the benchmark may use.
size_t HardwareThreads();

// Collects the run's metrics, request counts and correctness failures,
// and renders the final result line.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  // Records a failed correctness check (the run then exits non-zero).
  void Fail(const std::string& what);
  // Requests (or training steps) attempted / failed across every phase.
  void Count(uint64_t attempted, uint64_t failed);
  // Human-readable line on stdout, before the result line.
  void Note(const char* format, ...) __attribute__((format(printf, 2, 3)));

  bool correct() const { return failures_.empty(); }
  // The last stdout line: {"correct", "attempted", "failed", "metrics"}.
  std::string ResultLine() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
