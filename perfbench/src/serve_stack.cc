#include "serve_stack.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <deque>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "math/alias_table.h"
#include "math/rng.h"
#include "math/vec.h"
#include "runtime/thread_pool.h"
#include "serve/ranking_engine.h"
#include "serve/topk_scorer.h"
#include "serve/wire.h"

namespace perfbench {

namespace {

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void SleepUntilNs(int64_t t_ns) {
  const int64_t now = NowNs();
  if (t_ns <= now) return;
  std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now));
}

// Index of the request a reply answers, from its ID token
// ("<tag>-<index>"); -1 when the reply belongs to no request of `s`.
int64_t ReplyIndex(const std::string& line, const std::string& tag, size_t n) {
  const size_t sp = line.find(' ');
  if (sp == std::string::npos) return -1;
  const size_t id_begin = sp + 1;
  const size_t id_end = line.find(' ', id_begin);
  if (id_end == std::string::npos) return -1;
  if (id_end - id_begin <= tag.size() + 1 ||
      line.compare(id_begin, tag.size(), tag) != 0 ||
      line[id_begin + tag.size()] != '-') {
    return -1;
  }
  int64_t idx = 0;
  for (size_t p = id_begin + tag.size() + 1; p < id_end; ++p) {
    if (line[p] < '0' || line[p] > '9') return -1;
    idx = idx * 10 + (line[p] - '0');
    if (idx >= static_cast<int64_t>(n)) return -1;
  }
  return idx;
}

// The pacing thread runs prioritized with no timer slack (sleeps end
// when due) for the scope, and restores both afterwards.
class ClientThreadScope {
 public:
  ClientThreadScope() {
    pthread_getschedparam(pthread_self(), &policy_, &param_);
    slack_ = ::prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
    ::prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    PrioritizeClientThread();
  }
  ~ClientThreadScope() {
    pthread_setschedparam(pthread_self(), policy_, &param_);
    if (slack_ > 0) ::prctl(PR_SET_TIMERSLACK, slack_, 0, 0, 0);
  }
  ClientThreadScope(const ClientThreadScope&) = delete;
  ClientThreadScope& operator=(const ClientThreadScope&) = delete;

 private:
  int policy_ = SCHED_OTHER;
  sched_param param_{};
  int slack_ = 0;
};

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t w =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(w);
  }
  return true;
}

// The exclusion list and depth the engine asks its scorer for when it
// answers `r` (ranking_engine.h: default-filtered requests within the
// cache depth are scored at max_k and served as a prefix).
serve::ScoreQuery EngineQuery(const serve::ModelSnapshot& snap,
                              const bslrec::Dataset& data,
                              const serve::ServeConfig& cfg,
                              const ServeRequest& r) {
  const bool cached = cfg.cache_rankings && r.filter_seen && r.k <= cfg.max_k;
  serve::ScoreQuery q;
  q.q_hat = snap.UserVec(r.user);
  q.k = cached ? cfg.max_k : r.k;
  if (r.filter_seen) q.exclude = data.TrainItems(r.user);
  return q;
}

}  // namespace

Schedule MakeSchedule(uint64_t seed, const std::string& tag, double rate,
                      double duration_s, const Mix& mix, uint32_t num_users) {
  Schedule s;
  s.tag = tag;
  // Which users are hot is fixed per seed; the arrivals differ per phase.
  bslrec::Rng popularity_rng(Mix64(seed ^ 0x5eedULL));
  bslrec::Rng rng(Mix64(seed) ^ Fnv1a(tag));
  std::vector<uint32_t> perm;
  bslrec::AliasTable zipf;
  if (mix.zipf_alpha > 0.0) {
    perm.resize(num_users);
    std::iota(perm.begin(), perm.end(), 0u);
    popularity_rng.Shuffle(perm);
    zipf = bslrec::AliasTable(bslrec::ZipfWeights(num_users, mix.zipf_alpha));
  }
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= duration_s) break;
    ServeRequest r;
    r.user = mix.zipf_alpha > 0.0
                 ? perm[zipf.Sample(rng)]
                 : static_cast<uint32_t>(rng.NextIndex(num_users));
    if (mix.bulk_share > 0.0 && rng.NextDouble() < mix.bulk_share) {
      r.k = mix.k_bulk;
      r.filter_seen = false;
      r.lane = serve::RequestLane::kBulk;
    } else {
      r.k = mix.k_interactive;
      r.deadline_us = mix.deadline_us;
    }
    s.due_ns.push_back(static_cast<int64_t>(t * 1e9));
    s.reqs.push_back(r);
  }
  return s;
}

std::string RequestLine(const ServeRequest& r, const std::string& id) {
  std::string line =
      "TOPK " + std::to_string(r.user) + " " + std::to_string(r.k);
  if (!r.filter_seen) line += " FILTER=none";
  if (r.lane == serve::RequestLane::kBulk) line += " LANE=bulk";
  if (r.deadline_us > 0) line += " DEADLINE_US=" + std::to_string(r.deadline_us);
  line += " ID=" + id;
  return line;
}

serve::TopKRequest ToTopK(const ServeRequest& r) {
  serve::TopKRequest t;
  t.user = r.user;
  t.k = r.k;
  t.filter_seen = r.filter_seen;
  t.deadline_us = r.deadline_us;
  t.lane = r.lane;
  return t;
}

std::string RequestId(const Schedule& s, size_t i) {
  return s.tag + "-" + std::to_string(i);
}

void SnapshotLog::Add(uint64_t seq,
                      std::shared_ptr<const serve::ModelSnapshot> snap) {
  std::lock_guard<std::mutex> lock(mu_);
  by_seq_[seq] = std::move(snap);
}

std::shared_ptr<const serve::ModelSnapshot> SnapshotLog::Get(
    uint64_t seq) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_seq_.find(seq);
  return it == by_seq_.end() ? nullptr : it->second;
}

LoadClient::LoadClient(uint16_t port, size_t conns) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  connected_ = true;
  for (size_t c = 0; c < conns; ++c) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      connected_ = false;
      break;
    }
    fds_.push_back(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      connected_ = false;
      break;
    }
  }
}

LoadClient::~LoadClient() {
  for (int fd : fds_) ::close(fd);
}

PhaseResult LoadClient::Run(const Schedule& s, double limit_ms, Tracer* tracer) {
  const size_t n = s.reqs.size();
  PhaseResult r;
  r.lines.assign(n, "");
  r.span_ids.assign(n, 0);
  std::vector<int64_t> sent_ns(n, 0), recv_ns(n, 0);
  if (n == 0 || !connected_) return r;

  const int64_t start = NowNs() + 5'000'000;  // 5 ms to get going
  const int64_t give_up = start + s.due_ns.back() + 10'000'000'000;
  std::atomic<uint64_t> received{0};

  std::thread receiver([&] {
    PrioritizeClientThread();
    std::vector<pollfd> pfds(fds_.size());
    for (size_t c = 0; c < fds_.size(); ++c) pfds[c] = {fds_[c], POLLIN, 0};
    std::vector<std::string> bufs(fds_.size());
    char chunk[65536];
    while (received.load(std::memory_order_relaxed) < n && NowNs() < give_up) {
      if (::poll(pfds.data(), pfds.size(), 10) <= 0) continue;
      for (size_t c = 0; c < pfds.size(); ++c) {
        if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const ssize_t got = ::read(pfds[c].fd, chunk, sizeof(chunk));
        if (got <= 0) continue;
        const int64_t now = NowNs();
        std::string& buf = bufs[c];
        buf.append(chunk, static_cast<size_t>(got));
        size_t from = 0;
        for (size_t nl; (nl = buf.find('\n', from)) != std::string::npos;
             from = nl + 1) {
          std::string line = buf.substr(from, nl - from);
          if (!line.empty() && line.back() == '\r') line.pop_back();
          const int64_t idx = ReplyIndex(line, s.tag, n);
          if (idx < 0 || recv_ns[idx] != 0) continue;
          recv_ns[idx] = now;
          r.lines[idx] = std::move(line);
          received.fetch_add(1, std::memory_order_relaxed);
          if (tracer != nullptr) {
            r.span_ids[idx] = tracer->Record("net.request", start + s.due_ns[idx],
                                             now, 0, static_cast<uint64_t>(idx));
          }
        }
        buf.erase(0, from);
      }
    }
  });

  ClientThreadScope pacing;
  for (size_t i = 0; i < n; ++i) {
    SleepUntilNs(start + s.due_ns[i]);
    sent_ns[i] = NowNs();
    SendAll(fds_[i % fds_.size()], RequestLine(s.reqs[i], RequestId(s, i)) + "\n");
  }
  r.backlog_at_end = n - received.load();
  receiver.join();

  const double duration_s = static_cast<double>(s.due_ns.back()) * 1e-9;
  const double rate = duration_s > 0 ? static_cast<double>(n) / duration_s : 0;
  // Little's law: a queue that keeps up holds about rate x latency
  // requests; more than rate x limit still unanswered means it grew.
  r.backlog_grew = static_cast<double>(r.backlog_at_end) >
                   std::max(4.0, rate * limit_ms * 1e-3);
  for (size_t i = 0; i < n; ++i) {
    const int64_t due = start + s.due_ns[i];
    r.lag_ms.push_back(static_cast<double>(sent_ns[i] - due) * 1e-6);
    ++r.sent;
    if (recv_ns[i] == 0) {
      ++r.unanswered;
      continue;
    }
    if (r.lines[i].rfind("OK ", 0) == 0) {
      ++r.ok;
      const double lat = static_cast<double>(recv_ns[i] - due) * 1e-6;
      r.latency_ms.push_back(lat);
      if (lat <= limit_ms) ++r.within_limit;
    } else {
      ++r.err;
    }
  }
  return r;
}

size_t CheckReplies(const Schedule& s, const PhaseResult& phase,
                    const bslrec::Dataset& data, const SnapshotLog& snaps,
                    const serve::ServeConfig& serve_config, uint64_t seed,
                    size_t max_checked, bool corrupt_reference,
                    Report& report) {
  const size_t n = s.reqs.size();
  const uint64_t stride = std::max<uint64_t>(1, n / std::max<size_t>(1, max_checked));
  const uint64_t salt = Mix64(seed) ^ Fnv1a(s.tag);
  serve::ServeConfig ref_config = serve_config;
  ref_config.cache_rankings = false;
  bslrec::runtime::ThreadPool pool(HardwareThreads());
  std::vector<std::shared_ptr<const serve::ModelSnapshot>> keep;
  std::map<uint64_t, std::unique_ptr<serve::RankingEngine>> refs;

  size_t bad_wire = 0, bad_shape = 0, mismatched = 0, compared = 0;
  std::string first_problem;
  const auto note = [&](size_t& counter, const std::string& what) {
    if (counter++ == 0 && first_problem.empty()) first_problem = what;
  };
  for (size_t i = 0; i < n; ++i) {
    const std::string& line = phase.lines[i];
    if (line.empty()) continue;  // unanswered: counted as failed
    serve::wire::ParsedResponse p;
    const std::string id = RequestId(s, i);
    if (!serve::wire::ParseResponse(line, &p) || p.id != id) {
      note(bad_wire, "unparseable reply or wrong id: " + line.substr(0, 120));
      continue;
    }
    if (!p.ok) continue;  // ERR: counted as failed
    const ServeRequest& r = s.reqs[i];
    const size_t seen = r.filter_seen ? data.TrainItems(r.user).size() : 0;
    const size_t want = std::min<size_t>(r.k, data.num_items() - seen);
    if (p.topk.items.size() != want ||
        p.degrade_mode != serve::DegradeMode::kNone) {
      note(bad_shape, "reply " + id + " has " +
                          std::to_string(p.topk.items.size()) +
                          " items or a degraded tier");
      continue;
    }
    if (Mix64(salt + i) % stride != 0) continue;
    const auto snap = snaps.Get(p.snapshot_seq);
    if (snap == nullptr) {
      note(mismatched, "reply " + id + " names unknown snapshot seq " +
                           std::to_string(p.snapshot_seq));
      continue;
    }
    auto& engine = refs[p.snapshot_seq];
    if (engine == nullptr) {
      keep.push_back(snap);
      engine = std::make_unique<serve::RankingEngine>(data, *snap, pool,
                                                      ref_config);
    }
    serve::TopKResponse ref = engine->Handle(ToTopK(r));
    if (corrupt_reference && ref.items.size() >= 2) {
      std::swap(ref.items[0], ref.items[1]);
    }
    const std::string expect = serve::wire::FormatResponse(
        id, serve::DegradeMode::kNone, p.snapshot_seq, ref);
    ++compared;
    if (expect != line || p.topk.items != ref.items) {
      note(mismatched, "reply " + id + " differs from the reference engine:\n  got  " +
                           line.substr(0, 160) + "\n  want " + expect.substr(0, 160));
    }
  }
  if (bad_wire + bad_shape + mismatched > 0) {
    report.Fail(s.tag + ": " + std::to_string(bad_wire) + " bad wire, " +
                std::to_string(bad_shape) + " bad shape, " +
                std::to_string(mismatched) + " of " + std::to_string(compared) +
                " compared replies differ; first: " + first_problem);
  }
  return compared;
}

ServeStack::ServeStack(const bslrec::Dataset& data,
                       std::shared_ptr<const serve::ModelSnapshot> initial,
                       const serve::FrontEndConfig& config)
    : frontend(data, initial, config), server(frontend) {
  snapshots.Add(1, std::move(initial));
  if (!server.Start()) {
    throw std::runtime_error("NetServer::Start failed: " + server.last_error());
  }
}

serve::FrontEndConfig ServedDefaults(size_t scorer_threads) {
  serve::FrontEndConfig fe;
  fe.max_batch = 32;
  fe.flush_deadline_us = 200;
  fe.max_queue_depth = 0;
  fe.overflow = serve::OverflowPolicy::kBlock;
  fe.serve.max_k = 100;
  fe.serve.cache_rankings = true;
  fe.serve.runtime.num_threads = scorer_threads;
  return fe;
}

void ReplayKernelAndRuntime(size_t dim, size_t pool_threads, Tracer& tracer,
                            Report& report) {
  // An item block of 256 KiB stays in L2 across passes.
  const size_t rows = std::max<size_t>(64, (256 * 1024) / (dim * sizeof(float)));
  bslrec::Rng rng(0x6b65726eULL);
  std::vector<float> block(rows * dim), q(dim), out(rows);
  for (float& x : block) x = static_cast<float>(rng.NextDouble() - 0.5);
  for (float& x : q) x = static_cast<float>(rng.NextDouble() - 0.5);

  std::vector<double> dot_ns, batch_gmacs;
  volatile float sink = 0.0f;
  for (int rep = 0; rep < 300; ++rep) {
    const int64_t t0 = NowNs();
    float acc = 0.0f;
    for (size_t r = 0; r < rows; ++r) {
      acc += bslrec::vec::Dot(q.data(), block.data() + r * dim, dim);
    }
    const int64_t t1 = NowNs();
    bslrec::vec::DotBatch(q.data(), block.data(), rows, dim, out.data());
    const int64_t t2 = NowNs();
    sink = sink + acc + out[rep % rows];
    tracer.Record("vec.dot_block", t0, t1);
    tracer.Record("vec.dotbatch_block", t1, t2);
    dot_ns.push_back(static_cast<double>(t1 - t0) / static_cast<double>(rows));
    batch_gmacs.push_back(static_cast<double>(rows * dim) /
                          static_cast<double>(t2 - t1));
  }
  report.Metric("vec.dot_ns", Median(dot_ns), "ns");
  report.Metric("vec.dotbatch_gmacs", Median(batch_gmacs), "GMAC/s");
  // From sizes, not counters: DotBatch streams each fp32 row once per
  // `dim` multiply-adds and reads the query once per call.
  report.Metric("vec.bytes_per_mac",
                static_cast<double>((rows * dim + dim) * sizeof(float)) /
                    static_cast<double>(rows * dim),
                "B/MAC");

  bslrec::runtime::ThreadPool pool(pool_threads);
  std::vector<double> pf_us;
  for (int rep = 0; rep < 2000; ++rep) {
    const int64_t t0 = NowNs();
    bslrec::runtime::ParallelFor(pool, 0, pool.num_workers(), 1,
                                 [](size_t, size_t, size_t, size_t) {});
    const int64_t t1 = NowNs();
    pf_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    if (rep % 50 == 0) tracer.Record("runtime.parallel_for", t0, t1);
  }
  report.Metric("runtime.parallel_for_us", Median(pf_us), "us");
}

namespace {

struct FrontDoorReplay {
  std::vector<double> from_due_ms;      // ready - due
  std::vector<double> submit_ready_us;  // ready - submit
  std::vector<double> queue_us;
  uint64_t failed = 0;
  std::vector<uint64_t> span_ids;
};

// The schedule submitted in-process at its due times; one waiter per
// lane (each lane is FIFO inside the front door, so waiting in order
// per lane records every ready time without delay).
FrontDoorReplay ReplayFrontDoor(const Schedule& s,
                                serve::ServingFrontEnd& frontend,
                                const std::vector<uint64_t>& parents,
                                Tracer& tracer) {
  const size_t n = s.reqs.size();
  FrontDoorReplay out;
  std::vector<int64_t> submit(n, 0), ready(n, 0);
  std::vector<uint64_t> queue(n, 0);
  std::vector<uint8_t> ok(n, 0);
  struct Slot {
    size_t index;
    std::future<serve::ServedResponse> future;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Slot> lanes[serve::kNumLanes];
  bool done = false;
  const auto waiter = [&](size_t lane) {
    PrioritizeClientThread();
    while (true) {
      Slot slot;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !lanes[lane].empty(); });
        if (lanes[lane].empty()) return;
        slot = std::move(lanes[lane].front());
        lanes[lane].pop_front();
      }
      try {
        const serve::ServedResponse resp = slot.future.get();
        ready[slot.index] = NowNs();
        queue[slot.index] = resp.queue_us;
        ok[slot.index] = 1;
      } catch (const std::exception&) {
        ready[slot.index] = NowNs();
      }
    }
  };
  std::thread w0(waiter, 0), w1(waiter, 1);
  const int64_t start = NowNs() + 5'000'000;
  {
  ClientThreadScope pacing;
  for (size_t i = 0; i < n; ++i) {
    SleepUntilNs(start + s.due_ns[i]);
    submit[i] = NowNs();
    std::future<serve::ServedResponse> f = frontend.Submit(ToTopK(s.reqs[i]));
    {
      std::lock_guard<std::mutex> lock(mu);
      lanes[static_cast<size_t>(s.reqs[i].lane)].push_back({i, std::move(f)});
    }
    cv.notify_all();
  }
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  w0.join();
  w1.join();
  out.span_ids.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (!ok[i]) {
      ++out.failed;
      continue;
    }
    out.from_due_ms.push_back(static_cast<double>(ready[i] - start - s.due_ns[i]) * 1e-6);
    out.submit_ready_us.push_back(static_cast<double>(ready[i] - submit[i]) * 1e-3);
    out.queue_us.push_back(static_cast<double>(queue[i]));
    out.span_ids[i] = tracer.Record("frontend.request", submit[i], ready[i],
                                    i < parents.size() ? parents[i] : 0, i);
  }
  return out;
}

}  // namespace

std::vector<double> ReplayServeLayers(const std::string& workload, const Schedule& s,
                       ServeStack& stack, const bslrec::Dataset& data,
                       uint64_t seed, bool tiny, Tracer& tracer,
                       Report& report) {
  const size_t n = s.reqs.size();
  const size_t conns = std::min<size_t>(4, HardwareThreads());
  const serve::ServeConfig cfg = stack.frontend.config().serve;

  // Every phase starts from a fresh publication of the same snapshot,
  // so each sees the same cold ranking cache.
  const auto snap = stack.frontend.current_snapshot();
  std::vector<double> publish_ms;
  const auto republish = [&] {
    const int64_t t0 = NowNs();
    const uint64_t seq = stack.frontend.PublishSnapshot(snap);
    const int64_t t1 = NowNs();
    stack.snapshots.Add(seq, snap);
    tracer.Record("frontend.publish", t0, t1);
    publish_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
  };

  // --- socket, untraced then traced, on the same schedule ---
  const serve::NetServer::Stats net0 = stack.server.stats();
  LoadClient client(stack.server.port(), conns);
  if (!client.connected()) {
    report.Fail("cannot connect to the server");
    return {};
  }
  Schedule su = s;
  su.tag = s.tag + "u";
  republish();
  const PhaseResult untraced = client.Run(su, 1e9);
  republish();
  const PhaseResult traced = client.Run(s, 1e9, &tracer);
  const serve::NetServer::Stats net1 = stack.server.stats();
  CheckReplies(su, untraced, data, stack.snapshots, cfg, seed, 64, false, report);
  CheckReplies(s, traced, data, stack.snapshots, cfg, seed, 64, false, report);
  report.Count(untraced.sent + traced.sent, untraced.failed() + traced.failed());
  const std::vector<uint64_t>& socket_span = traced.span_ids;
  const double sock_p50 = Median(traced.latency_ms);
  const double sock_untraced_p50 = Median(untraced.latency_ms);
  std::vector<double> lags = untraced.lag_ms;
  lags.insert(lags.end(), traced.lag_ms.begin(), traced.lag_ms.end());

  // --- in-process front door on the same schedule ---
  republish();
  const serve::FrontEndStats fe0 = stack.frontend.stats();
  const FrontDoorReplay fd = ReplayFrontDoor(s, stack.frontend, socket_span, tracer);
  const serve::FrontEndStats fe1 = stack.frontend.stats();
  report.Count(n, fd.failed);
  const double batches = static_cast<double>(fe1.batches - fe0.batches);
  const double mean_batch =
      batches > 0 ? static_cast<double>(fe1.requests - fe0.requests) / batches : 1.0;
  const double fe_p50 = Median(fd.from_due_ms);

  // --- engine, per request (cache hits) and batched (timing) ---
  bslrec::runtime::ThreadPool pool(cfg.runtime.num_threads);
  const double pass_budget_s = tiny ? 0.3 : 1.5;
  std::vector<uint8_t> miss;
  {
    serve::RankingEngine e1(data, *snap, pool, cfg);
    const double t_end = NowS() + pass_budget_s;
    for (size_t i = 0; i < n && NowS() < t_end; ++i) {
      const uint64_t before = e1.scorer().stats().exact_shards;
      e1.Handle(ToTopK(s.reqs[i]));
      miss.push_back(e1.scorer().stats().exact_shards != before);
    }
  }
  const size_t replayed = miss.size();
  const size_t hits = replayed - static_cast<size_t>(std::count(miss.begin(), miss.end(), 1));
  const size_t m = std::max<size_t>(1, static_cast<size_t>(std::lround(mean_batch)));
  std::vector<double> engine_ms, scorer_ms;
  std::vector<serve::TopKResponse> responses;
  std::vector<uint64_t> engine_span;
  {
    serve::RankingEngine e2(data, *snap, pool, cfg);
    for (size_t b = 0; b < replayed; b += m) {
      std::vector<serve::TopKRequest> batch;
      for (size_t i = b; i < std::min(replayed, b + m); ++i) batch.push_back(ToTopK(s.reqs[i]));
      const int64_t t0 = NowNs();
      std::vector<serve::TopKResponse> got = e2.HandleBatch(batch);
      const int64_t t1 = NowNs();
      engine_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
      engine_span.push_back(tracer.Record("engine.batch", t0, t1,
                                          b < fd.span_ids.size() ? fd.span_ids[b] : 0, b / m));
      for (auto& r : got) responses.push_back(std::move(r));
    }
  }
  // --- scorer on exactly the queries the engine had to score ---
  serve::CatalogScorer scorer(*snap, pool, serve::ScorerOptionsFor(cfg));
  uint64_t scored_queries = 0;
  const uint64_t shards0 = scorer.stats().exact_shards;
  std::vector<double> scorer_nonzero_ms;
  for (size_t b = 0, bi = 0; b < replayed; b += m, ++bi) {
    std::vector<serve::ScoreQuery> qs;
    for (size_t i = b; i < std::min(replayed, b + m); ++i) {
      if (miss[i]) qs.push_back(EngineQuery(*snap, data, cfg, s.reqs[i]));
    }
    if (qs.empty()) {
      scorer_ms.push_back(0.0);
      continue;
    }
    const int64_t t0 = NowNs();
    scorer.BatchTopK(qs);
    const int64_t t1 = NowNs();
    scored_queries += qs.size();
    scorer_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    scorer_nonzero_ms.push_back(scorer_ms.back());
    tracer.Record("scorer.batch", t0, t1, engine_span[bi], bi);
  }
  const uint64_t shard_tasks = scorer.stats().exact_shards - shards0;

  // --- serial score / select / kernel for the scored queries ---
  const uint32_t items = snap->num_items();
  const size_t d = snap->dim();
  std::vector<float> buf(items), kbuf(items);
  std::vector<serve::ScoredItem> scratch, top;
  std::vector<double> score_ms, select_ms, kernel_ms;
  {
    const double t_end = NowS() + (tiny ? 0.2 : 1.0);
    for (size_t i = 0; i < replayed && NowS() < t_end; ++i) {
      if (!miss[i]) continue;
      const serve::ScoreQuery q = EngineQuery(*snap, data, cfg, s.reqs[i]);
      const int64_t t0 = NowNs();
      serve::ScoreItemRange(*snap, q.q_hat, 0, items, buf.data());
      const int64_t t1 = NowNs();
      serve::SelectTopKInto(buf.data(), 0, items, q.k, q.exclude, scratch, top);
      const int64_t t2 = NowNs();
      for (uint32_t it = 0; it < items; ++it) {
        kbuf[it] = bslrec::vec::Dot(q.q_hat, snap->ItemVec(it), d);
      }
      const int64_t t3 = NowNs();
      const uint64_t sid = tracer.Record("scorer.score", t0, t1, 0, i);
      tracer.Record("scorer.select", t1, t2, 0, i);
      tracer.Record("vec.kernel", t2, t3, sid, i);
      score_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
      select_ms.push_back(static_cast<double>(t2 - t1) * 1e-6);
      kernel_ms.push_back(static_cast<double>(t3 - t2) * 1e-6);
      if (kbuf != buf) report.Fail("vec::Dot over the catalog differs from ScoreItemRange");
    }
  }

  // --- wire: parse every request line, format every engine response ---
  std::vector<std::string> req_lines;
  for (size_t i = 0; i < n; ++i) req_lines.push_back(RequestLine(s.reqs[i], RequestId(s, i)));
  serve::wire::ParseOptions popt;
  popt.num_users = data.num_users();
  size_t parsed = 0, formatted = 0, parse_bad = 0;
  const int64_t p0 = NowNs();
  do {
    for (size_t i = 0; i < n; ++i) {
      serve::wire::ParsedRequest pr;
      const serve::ServeStatus st = serve::wire::ParseRequest(req_lines[i], popt, &pr);
      if (!st.ok() || pr.topk.user != s.reqs[i].user || pr.topk.k != s.reqs[i].k ||
          pr.topk.filter_seen != s.reqs[i].filter_seen || pr.topk.lane != s.reqs[i].lane) {
        ++parse_bad;
      }
    }
    parsed += n;
  } while (NowNs() - p0 < 200'000'000);
  const int64_t p1 = NowNs();
  size_t format_bytes = 0;
  do {
    for (size_t i = 0; i < responses.size(); ++i) {
      format_bytes += serve::wire::FormatResponse(RequestId(s, i), serve::DegradeMode::kNone, 1,
                                                  responses[i]).size();
    }
    formatted += responses.size();
  } while (!responses.empty() && NowNs() - p1 < 200'000'000);
  const int64_t p2 = NowNs();
  tracer.Record("wire.parse_all", p0, p1);
  tracer.Record("wire.format_all", p1, p2);
  if (parse_bad > 0) report.Fail("wire::ParseRequest disagrees with the generated request");
  const double parse_ns = static_cast<double>(p1 - p0) / static_cast<double>(std::max<size_t>(1, parsed));
  const double format_ns =
      static_cast<double>(p2 - p1) / static_cast<double>(std::max<size_t>(1, formatted));

  // --- more publications on the idle front door ---
  for (int rep = 0; rep < 4; ++rep) republish();

  // --- metrics ---
  const double engine_med = Median(engine_ms);
  const double sum_engine = std::accumulate(engine_ms.begin(), engine_ms.end(), 0.0);
  const double sum_scorer = std::accumulate(scorer_ms.begin(), scorer_ms.end(), 0.0);
  report.Metric("scorer.score_ms", Median(score_ms), "ms");
  report.Metric("scorer.select_ms", Median(select_ms), "ms");
  report.Metric("scorer.batch_topk_ms", Median(scorer_nonzero_ms), "ms");
  report.Metric("scorer.shard_tasks_per_req",
                scored_queries ? static_cast<double>(shard_tasks) / scored_queries : 0.0,
                "count");
  report.Metric("engine.handle_batch_ms", engine_med, "ms");
  report.Metric("engine.cache_hit_ratio",
                replayed ? static_cast<double>(hits) / replayed : 0.0, "ratio");
  report.Metric("engine.cache_lookups", static_cast<double>(replayed), "count");
  report.Metric("engine.over_scorer", sum_scorer > 0 ? sum_engine / sum_scorer : 0.0,
                "ratio");
  report.Metric("frontend.publish_ms", Median(publish_ms), "ms");
  report.Metric("frontend.queue_wait_p50_us", Median(fd.queue_us), "us");
  report.Metric("frontend.queue_wait_p99_us", Percentile(fd.queue_us, 99), "us");
  report.Metric("frontend.mean_batch", mean_batch, "count");
  report.Metric("frontend.deadline_flush_ratio",
                batches > 0 ? (fe1.deadline_flushes - fe0.deadline_flushes) / batches : 0.0,
                "ratio");
  report.Metric("frontend.size_flush_ratio",
                batches > 0 ? (fe1.size_flushes - fe0.size_flushes) / batches : 0.0,
                "ratio");
  report.Metric("frontend.submit_ready_p50_us", Median(fd.submit_ready_us), "us");
  report.Metric("frontend.over_engine", engine_med > 0 ? fe_p50 / engine_med : 0.0,
                "ratio");
  report.Metric("wire.parse_ns", parse_ns, "ns");
  report.Metric("wire.format_ns", format_ns, "ns");
  report.Metric("net.rtt_p50_us", (sock_p50 - fe_p50) * 1e3, "us");
  report.Metric("net.over_frontend", fe_p50 > 0 ? sock_p50 / fe_p50 : 0.0, "ratio");
  report.Metric("net.lines", static_cast<double>(net1.lines - net0.lines), "count");
  report.Metric("net.responses_ok",
                static_cast<double>(net1.responses_ok - net0.responses_ok), "count");
  report.Metric("net.responses_err",
                static_cast<double>(net1.responses_err - net0.responses_err), "count");
  report.Metric("gen.lag_p99_ms", Percentile(lags, 99), "ms");
  report.Metric("trace.overhead_ratio",
                sock_untraced_p50 > 0 ? sock_p50 / sock_untraced_p50 : 0.0, "ratio");
  const uint64_t sent = untraced.sent + traced.sent + n;
  const uint64_t failed = untraced.failed() + traced.failed() + fd.failed;
  report.Metric("harness.failed_ratio", sent ? static_cast<double>(failed) / sent : 0.0,
                "ratio");
  report.Note("%s trace: %zu requests/phase, socket p50 %.4f ms (untraced %.4f), "
              "front door p50 %.4f ms, mean batch %.2f, engine replay %zu requests "
              "(%zu hits), %zu scored queries",
              workload.c_str(), n, sock_p50, sock_untraced_p50, fe_p50, mean_batch,
              replayed, hits, static_cast<size_t>(scored_queries));

  // --- blocking path per request: each layer minus the layers below ---
  const double num_batches = static_cast<double>(std::max<size_t>(1, engine_ms.size()));
  const double e_mean = sum_engine / num_batches;
  const double sc_mean = sum_scorer / num_batches;
  const double misses_per_batch = static_cast<double>(scored_queries) / num_batches;
  // The scorer runs its serial work on the pool: the parallel part of a
  // batch is estimated as the serial per-query time x queries / workers.
  const double workers = static_cast<double>(pool.num_workers());
  const double score_eff = std::min(sc_mean, misses_per_batch * Median(score_ms) / workers);
  const double select_eff =
      std::min(sc_mean - score_eff, misses_per_batch * Median(select_ms) / workers);
  const double kernel_eff =
      Median(score_ms) > 0
          ? std::min(score_eff, score_eff * Median(kernel_ms) / Median(score_ms))
          : 0.0;
  const double wire_ms = (parse_ns + format_ns) * 1e-6;
  const auto self = [](double total, double children) {
    return std::max(0.0, total - children);
  };
  const std::vector<LayerShare> rows = {
      {"net (socket)", sock_p50, self(sock_p50, fe_p50 + wire_ms)},
      {"wire", wire_ms, wire_ms},
      {"frontend", fe_p50, self(fe_p50, e_mean)},
      {"engine", e_mean, self(e_mean, sc_mean)},
      {"scorer", sc_mean, self(sc_mean, score_eff + select_eff)},
      {"scorer.select", select_eff, select_eff},
      {"scorer.score", score_eff, self(score_eff, kernel_eff)},
      {"vec (kernel)", kernel_eff, kernel_eff},
  };
  PrintShares(workload + " (per request, p50 / batch means)", rows);
  const double root = std::max(1e-12, sock_p50);
  report.Note("%s shares: scorer+kernel %.1f%%, front door+wire+transport %.1f%%, engine %.1f%%",
              workload.c_str(), 100.0 * std::min(sc_mean, root) / root,
              100.0 * (rows[0].self_ms + rows[1].self_ms + rows[2].self_ms) / root,
              100.0 * rows[3].self_ms / root);
  return traced.latency_ms;
}

}  // namespace perfbench
