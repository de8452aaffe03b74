#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <thread>

#include <pthread.h>
#include <sched.h>

namespace perfbench {

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double WindowedP99(const std::vector<double>& v) {
  const size_t windows = std::max<size_t>(1, v.size() / 1000);
  std::vector<double> p99s;
  for (size_t w = 0; w < windows; ++w) {
    p99s.push_back(Percentile({v.begin() + w * v.size() / windows,
                               v.begin() + (w + 1) * v.size() / windows},
                              99));
  }
  return Median(p99s);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

bool PrioritizeClientThread() {
  sched_param param{};
  param.sched_priority = 10;
  return pthread_setschedparam(pthread_self(), SCHED_FIFO, &param) == 0;
}

HostCpu ReadHostCpu() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  HostCpu out;
  for (int field = 0; field < 10; ++field) {
    uint64_t ticks = 0;
    if (!(in >> ticks)) break;
    if (field < 8) out.total += ticks;  // guest time is already in user
    if (field == 7) out.steal = ticks;
  }
  return out;
}

size_t HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  failures_.push_back(what);
}

void Report::Count(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Note(const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
  std::printf("\n");
  std::fflush(stdout);
}

std::string Report::ResultLine() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<uint64_t>(1, attempted_));
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& m = metrics_[i];
    char value[64];
    // %.17g keeps every digit; JSON has no NaN/Inf, so those become null
    // and the driver rejects the run.
    if (std::isfinite(m.value)) {
      std::snprintf(value, sizeof(value), "%.17g", m.value);
    } else {
      std::snprintf(value, sizeof(value), "null");
    }
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
