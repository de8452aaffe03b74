// Concurrent serving front door: bounded admission control, request
// queue, priority lanes, adaptive micro-batching, deadline
// enforcement, brownout degradation, and live snapshot hot-swap.
//
// `ServingFrontEnd` is the documented *concurrent* entry point to the
// serving stack — the queue the `InferenceService` docs always told
// callers to put in front. Any number of producer threads `Submit`
// requests; each submission returns a `std::future<ServedResponse>`
// that completes when the request has been scored — or fails with a
// typed error when admission control decided the request should not
// be scored at all (the overload state machine below).
//
// Pipeline
//   producers --> admission --> 2-lane MPMC queue --> micro-batcher
//                 control       (interactive/bulk)       |
//                                                        v
//                                     dispatcher-owned pool +
//                                     RankingEngine (exact or brownout)
//
//   * Admission control. With `max_queue_depth > 0` the queue is
//     bounded and `overflow` picks what happens at capacity:
//       - kBlock: the producer waits inside Submit until space frees
//         (classic backpressure; a request with a deadline stops
//         waiting at its deadline and fails with
//         DeadlineExceededError{kAdmission}).
//       - kShedNewest: the incoming request is refused — its future
//         fails with OverloadError (retriable; carries a
//         server-suggested backoff).
//       - kShedOldest: the oldest queued request is evicted to make
//         room (bulk lane first, then interactive — bulk is always the
//         first victim), its future failing with OverloadError, and
//         the incoming request is admitted.
//     `max_queue_depth == 0` keeps the historical unbounded queue.
//   * Priority lanes. Every request names a `RequestLane`
//     (TopKRequest::lane): interactive (default) or bulk. The
//     dispatcher drains the lanes weighted-fair —
//     `interactive_weight` requests from the interactive lane, then
//     `bulk_weight` from bulk, cycling until the batch fills — so a
//     bulk replay can never starve interactive traffic, and a busy
//     interactive lane still cannot fully starve bulk.
//   * Deadlines. A request's SLO is `TopKRequest::deadline_us`
//     (relative to Submit; 0 = `FrontEndConfig::default_deadline_us`,
//     which may itself be 0 = none). Deadlines are enforced at three
//     stages, each failing the future with DeadlineExceededError and
//     counting its own stat:
//       - admission (kBlock only): waited for queue space past the
//         deadline;
//       - queue: already expired when the dispatcher dequeued it — the
//         request fails fast instead of burning scorer cycles;
//       - batch: expired while its batch was being scored — the
//         ranking is discarded for that request only; the rest of the
//         batch is delivered normally. A deadline-missed request is
//         NEVER fulfilled with a ranking.
//   * Adaptive micro-batcher. The dispatcher opens a batch at the
//     oldest queued request (across both lanes) and flushes when
//     either `max_batch` requests are pending (size flush) or
//     `flush_deadline_us` has elapsed since that oldest request
//     arrived (deadline flush) — whichever fires first. Shutdown/drain
//     flushes immediately.
//   * Worker ownership (the TaskRunner pattern, task_runner.h). The
//     front end owns a *private* `runtime::ThreadPool`, and the single
//     dispatcher thread is its sole driver. Producers never touch the
//     pool; they only enqueue.
//
// Brownout degradation
//   * With `FrontEndConfig::brownout.enable`, the dispatcher watches
//     queue depth (and optionally observed batch latency) and trades
//     ranking exactness for bounded latency when the front door falls
//     behind: past the high-water mark it switches scoring to the
//     snapshot's IVF index at `brownout.nprobe` probes (fp32 lists) —
//     the only approximate tier; a snapshot without an index has no
//     cheaper tier, so brownout never engages on it and every response
//     is served undegraded — and recovers to the configured tier once
//     depth falls to the low-water mark (hysteresis, so the mode
//     cannot flap batch-to-batch). Every
//     response scored in brownout is marked `degraded` with the
//     `DegradeMode` used. `BrownoutModeFor` / `BrownoutServeConfigFor`
//     expose the exact tier selection so callers can construct the
//     bit-identical reference service for any response.
//   * Determinism contract under brownout: admission and brownout
//     decide *whether and at what tier* a request is served — never
//     the bits of a served ranking at a given tier. A response served
//     exact is bit-identical to `InferenceService::Handle` under the
//     configured `ServeConfig`; a degraded response is bit-identical
//     to `InferenceService::Handle` under
//     `BrownoutServeConfigFor(config, mode)` against the same
//     snapshot.
//
// Fault injection
//   * `FrontEndConfig::fault_injector` (fault_injector.h) is a
//     deterministic seam on the dispatcher: before each batch the
//     injector may stall the dispatcher (queue grows — drives
//     admission control), delay the batch (slow scorer — drives
//     deadline expiry and latency brownout), or fail the batch (drives
//     error propagation). Faults flow through the exact production
//     code paths; tests and the bench use this to prove shedding,
//     deadlines, and brownout engage and recover.
//
// Snapshot hot-swap
//   * The front end serves whatever `ModelSnapshot` was most recently
//     published. `PublishSnapshot` wraps an immutable snapshot in
//     fresh `RankingEngine`s (exact + brownout tier when available;
//     caches are engine-local, so they are keyed per snapshot and can
//     never mix generations) and publishes them by swapping one
//     `shared_ptr` under a small mutex. The new state is built before
//     the lock is taken and the old one is released after it is
//     dropped, so the lock only ever covers a pointer copy or swap:
//     publication never waits on scoring and scoring never waits on
//     engine construction. Batches in flight finish on the shared_ptr
//     they copied, the next batch copies the new one. Publications are
//     serialized internally; `snapshot_seq` in every response names the
//     publication that served it (monotone from 1).
//
// Errors
//   * Malformed requests (user out of range, k == 0, unsorted
//     extra_seen) fail their own future with std::invalid_argument;
//     the rest of the batch is served normally. Shed requests fail
//     with OverloadError (retriable — honor `retry_after_us`).
//     Deadline-missed requests fail with DeadlineExceededError naming
//     the stage that caught them. A scoring error fails every future
//     of the affected batch with a std::runtime_error carrying the
//     snapshot seq and lane context (so a CLI user sees which
//     generation failed); later batches proceed. The library's
//     no-exceptions rule stops at the future boundary: errors travel
//     through promises, never across the public API as throws —
//     except `HandleSync`/`HandleBatchSync`, which by definition
//     rethrow their future's error (HandleBatchSync rethrows the
//     first failing request's error, in request order).
//   * The destructor drains: every submitted request is served (or
//     failed) before the front end dies.
//
// Stats accounting invariant (tested; the bench's overload probe):
//   once the front end is idle (Drain() returned, no Submit running),
//     submitted == requests + shed_newest + shed_oldest
//                + expired_admission
//   where `requests` counts everything finalized by the dispatcher
//   (served, rejected-invalid, failed-by-scoring-error, expired at
//   queue or batch stage) and the other three count requests
//   finalized at admission, which never reach the dispatcher. With a
//   bounded queue, queue_depth_high_water <= max_queue_depth always.
#ifndef BSLREC_SERVE_SERVING_FRONTEND_H_
#define BSLREC_SERVE_SERVING_FRONTEND_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "models/model.h"
#include "runtime/thread_pool.h"
#include "serve/fault_injector.h"
#include "serve/model_snapshot.h"
#include "serve/ranking_engine.h"
#include "serve/wire.h"

namespace bslrec::serve {

// What a full bounded queue does to the overflowing request.
enum class OverflowPolicy : uint8_t {
  kBlock = 0,      // producer waits for space (backpressure)
  kShedNewest,     // refuse the incoming request
  kShedOldest,     // evict the oldest queued request (bulk lane first)
};

// Retriable load-shed failure: the server refused (or evicted) the
// request because the queue was full. `retry_after_us` is the
// server-suggested backoff before retrying. Derives from ServeError
// (wire.h) with code kOverload so transports switch on one enum.
class OverloadError : public ServeError {
 public:
  OverloadError(const std::string& what, uint32_t retry_after_us)
      : ServeError(what, ErrorCode::kOverload),
        retry_after_us_(retry_after_us) {}
  uint32_t retry_after_us() const { return retry_after_us_; }

 private:
  uint32_t retry_after_us_;
};

// The request's SLO passed before a ranking could be delivered. The
// request was not (or no longer) worth scoring; retrying is valid but
// the caller should reconsider its deadline. `code()` names the stage
// (kDeadlineAdmission / kDeadlineQueue / kDeadlineBatch — wire.h);
// `stage()` is the same fact as the DeadlineStage enum.
class DeadlineExceededError : public ServeError {
 public:
  DeadlineExceededError(const std::string& what, DeadlineStage stage)
      : ServeError(what, ErrorCodeForStage(stage)), stage_(stage) {}
  DeadlineStage stage() const { return stage_; }

 private:
  DeadlineStage stage_;
};

// The degraded tier a brownout would serve `snapshot` at: kIvf when
// the snapshot has an IVF index, else kNone (no cheaper tier available:
// brownout cannot engage).
DegradeMode BrownoutModeFor(const ModelSnapshot& snapshot);
// The ServeConfig of the brownout tier — build an InferenceService /
// RankingEngine from this to reproduce a degraded response bitwise.
ServeConfig BrownoutServeConfigFor(const ServeConfig& serve, DegradeMode mode,
                                   uint32_t brownout_nprobe);

struct BrownoutConfig {
  // Master switch. When off the front end never degrades.
  bool enable = false;
  // Enter brownout when total queued depth reaches this...
  size_t high_watermark = 64;
  // ...and recover only once it falls back to this (hysteresis; must
  // be < high_watermark).
  size_t low_watermark = 16;
  // Also enter brownout when the last batch took at least this long to
  // serve (microseconds; 0 = depth-only triggering).
  uint32_t latency_high_us = 0;
  // IVF probes while degraded (when the snapshot has an index).
  uint32_t nprobe = 2;
};

struct FrontEndConfig {
  // Flush a batch as soon as this many requests are pending.
  size_t max_batch = 64;
  // ... or when the oldest pending request has waited this long.
  uint32_t flush_deadline_us = 200;
  // Bounded admission: maximum queued (not yet dispatched) requests
  // across both lanes. 0 = unbounded (no admission control).
  size_t max_queue_depth = 0;
  // What happens to the overflowing request at capacity.
  OverflowPolicy overflow = OverflowPolicy::kBlock;
  // Backoff carried by OverloadError on shed (server-suggested).
  uint32_t shed_retry_us = 1000;
  // Default relative deadline for requests with deadline_us == 0
  // (microseconds from Submit; 0 = no deadline).
  uint32_t default_deadline_us = 0;
  // Weighted-fair lane drain: per batch-fill cycle, take up to
  // `interactive_weight` interactive requests, then up to
  // `bulk_weight` bulk requests. Both must be >= 1.
  uint32_t interactive_weight = 7;
  uint32_t bulk_weight = 1;
  // Brownout degradation (see the header note).
  BrownoutConfig brownout;
  // Deterministic fault-injection seam (fault_injector.h); null = no
  // faults. Called only from the dispatcher thread.
  std::shared_ptr<FaultInjector> fault_injector;
  // Scoring configuration (ServeConfig::runtime sizes the private
  // pool; exact = false requires published snapshots built with
  // SnapshotOptions::ivf.build).
  ServeConfig serve;
};

// One served request: the ranking, which snapshot publication produced
// it, and how admission treated it.
struct ServedResponse {
  TopKResponse topk;
  uint64_t snapshot_seq = 0;
  std::shared_ptr<const ModelSnapshot> snapshot;
  // True iff this response was scored at the brownout tier;
  // `degrade_mode` names it. The ranking is bit-identical to
  // InferenceService::Handle under BrownoutServeConfigFor(...) on
  // `snapshot`.
  bool degraded = false;
  DegradeMode degrade_mode = DegradeMode::kNone;
  // Time this request waited in the queue before its batch formed
  // (microseconds) — the bench's queue-wait percentile source.
  uint64_t queue_us = 0;
};

// Cumulative front-end counters (monotone; see stats() and the
// accounting invariant in the header note).
struct FrontEndStats {
  uint64_t requests = 0;          // finalized by the dispatcher
  uint64_t rejected = 0;          // failed validation (invalid_argument)
  uint64_t batches = 0;
  uint64_t size_flushes = 0;      // batch closed by max_batch
  uint64_t deadline_flushes = 0;  // batch closed by flush_deadline_us
  uint64_t drain_flushes = 0;     // batch closed by shutdown/drain
  uint64_t max_batch_served = 0;  // largest batch observed
  uint64_t snapshots_published = 0;  // including the initial snapshot
  // ---- admission control / overload ----
  uint64_t submitted = 0;         // every request entering Submit*
  uint64_t queue_depth_high_water = 0;  // max queued depth observed
  uint64_t blocked_submits = 0;   // producers that waited for space
  uint64_t shed_newest = 0;       // refused incoming (kShedNewest)
  uint64_t shed_oldest = 0;       // evicted queued (kShedOldest)
  uint64_t expired_admission = 0;  // deadline passed while blocked
  uint64_t expired_queue = 0;      // expired at dequeue — never scored
  uint64_t expired_batch = 0;      // expired during scoring — discarded
  uint64_t lane_submitted[kNumLanes] = {};  // by RequestLane
  uint64_t lane_served[kNumLanes] = {};     // fulfilled with rankings
  // ---- brownout ----
  uint64_t degraded_served = 0;   // responses scored at a degraded tier
  uint64_t brownout_entries = 0;
  uint64_t brownout_exits = 0;
  // Total time spent in brownout (microseconds). Accumulated at each
  // exit and at shutdown; a currently-active brownout span is not yet
  // included.
  uint64_t brownout_us = 0;
};

class ServingFrontEnd {
 public:
  // Serves `snapshot` (seq 1) until the next PublishSnapshot. `data`
  // provides seen-item lists and must outlive the front end.
  ServingFrontEnd(const Dataset& data,
                  std::shared_ptr<const ModelSnapshot> snapshot,
                  FrontEndConfig config = {});
  // Convenience: freezes `model` into the initial snapshot on the
  // front end's own pool (safe — the dispatcher has not started yet).
  // With brownout enabled the snapshot is additionally built with an
  // IVF index so the best degraded tier exists.
  ServingFrontEnd(const Dataset& data, const EmbeddingModel& model,
                  FrontEndConfig config = {});
  // Drains the queue (every request served or failed), then joins the
  // dispatcher.
  ~ServingFrontEnd();

  ServingFrontEnd(const ServingFrontEnd&) = delete;
  ServingFrontEnd& operator=(const ServingFrontEnd&) = delete;

  // Enqueues one request; thread-safe from any number of producers.
  // Copies `request.extra_seen` — the caller's span may be freed
  // immediately. The future completes with the served response or
  // fails with:
  //   std::invalid_argument   — malformed request
  //   OverloadError           — shed by the overflow policy
  //   DeadlineExceededError   — SLO passed before a ranking could be
  //                             delivered (any stage)
  //   std::runtime_error      — scoring failed (carries snapshot seq
  //                             and lane context)
  // Under OverflowPolicy::kBlock and a full queue, Submit *blocks*
  // until space frees, the request's deadline passes, or shutdown.
  std::future<ServedResponse> Submit(const TopKRequest& request);
  // Enqueues every request in order (admission applies per request);
  // result i belongs to requests[i]. The requests enter the queue under
  // one lock hold, so the dispatcher sees them together and batches them
  // up to max_batch however slowly the caller builds them; only a
  // kBlock wait for space lets other producers or the dispatcher in
  // between.
  std::vector<std::future<ServedResponse>> SubmitBatch(
      std::span<const TopKRequest> requests);

  // Submit + wait. From N threads this *is* the closed-loop load the
  // bench generates; the micro-batcher coalesces concurrent callers.
  // Rethrows the future's typed error (see Submit).
  ServedResponse HandleSync(const TopKRequest& request);
  std::vector<ServedResponse> HandleBatchSync(
      std::span<const TopKRequest> requests);

  // Atomically swaps the served snapshot (zero serving stalls; see the
  // header note). Returns the publication's snapshot_seq. Thread-safe;
  // concurrent publications are serialized, last one wins.
  uint64_t PublishSnapshot(std::shared_ptr<const ModelSnapshot> snapshot);

  // The currently served publication.
  std::shared_ptr<const ModelSnapshot> current_snapshot() const;
  uint64_t current_seq() const;
  // The degraded tier brownout would use for the current publication
  // (kNone = brownout disabled or no cheaper tier on this snapshot).
  DegradeMode current_brownout_mode() const;

  // Blocks until the front end is quiescent: both lanes empty and no
  // batch in flight. Post-condition: every future obtained from a
  // Submit/SubmitBatch call that *returned* before Drain() was entered
  // is ready (value or exception) — promises are fulfilled before the
  // dispatcher clears its in-flight count, and both are observed under
  // the same mutex (see the dispatcher note in serving_frontend.cc).
  // A producer still blocked inside Submit (kBlock backpressure) has
  // not returned a future yet, so it is NOT covered; concurrent
  // submitters can also re-fill the queue and extend the wait.
  void Drain();

  const FrontEndConfig& config() const { return config_; }
  FrontEndStats stats() const;

 private:
  // One publication: the snapshot plus the engine(s) bound to it. Only
  // the dispatcher calls HandleBatch (and thereby drives the pool /
  // mutates the caches); publishers only construct.
  struct State {
    State(const Dataset& data, std::shared_ptr<const ModelSnapshot> snap,
          runtime::ThreadPool& pool, const FrontEndConfig& config,
          uint64_t sequence);
    std::shared_ptr<const ModelSnapshot> snapshot;
    uint64_t seq;
    RankingEngine engine;  // the configured (primary) tier
    // Brownout tier for this snapshot; null when brownout is off or
    // the snapshot has no cheaper representation.
    DegradeMode brownout_mode = DegradeMode::kNone;
    std::unique_ptr<RankingEngine> brownout_engine;
  };

  // A queued request owning its exclusion list and its promise.
  struct Pending {
    TopKRequest req;
    std::vector<uint32_t> extra;  // backing store for req.extra_seen
    std::promise<ServedResponse> promise;
    std::chrono::steady_clock::time_point enqueued;
    // Absolute SLO (time_point::max() = none).
    std::chrono::steady_clock::time_point deadline;
    uint64_t queue_us = 0;  // filled at dequeue
  };

  // Shared tail of both constructors: validates config, publishes the
  // initial state, starts the dispatcher.
  void Init(std::shared_ptr<const ModelSnapshot> snapshot);
  void DispatchLoop();
  // Bounded-queue admission for one pending request; returns true to
  // enqueue, false when the request was finalized (shed / expired).
  // May release `lock` while blocking for space (kBlock).
  bool AdmitLocked(std::unique_lock<std::mutex>& lock, Pending& p);
  // Builds one pending from a request (deadline resolved, extra_seen
  // copied, submitted stats counted).
  Pending MakePending(const TopKRequest& request);
  // Enqueues pendings in order through admission under one lock hold;
  // shared by Submit paths.
  void Enqueue(std::span<Pending> pending);
  // Pops up to max_batch live requests weighted-fair across the lanes,
  // finalizing expired ones (DeadlineExceededError{kQueue}) inline.
  void FormBatchLocked(std::vector<Pending>& batch);
  // Enter/exit brownout from queue depth + last batch latency.
  void UpdateBrownoutLocked();
  size_t DepthLocked() const { return lanes_[0].size() + lanes_[1].size(); }
  // Scores one batch on the current state (at the degraded tier when
  // `degraded`) and fulfills its promises; `fault` is the injected
  // action for this batch (kDelay / kFail honored here).
  void ServeBatch(std::vector<Pending>& batch, bool degraded,
                  const FaultAction& fault);

  const Dataset& data_;
  FrontEndConfig config_;
  runtime::ThreadPool pool_;  // driven only by the dispatcher (+ Init)

  // Copies the published state pointer under state_mu_.
  std::shared_ptr<State> LoadState() const;

  // Hot-swap publication point. Publishers swap, the dispatcher copies
  // once per batch; state_mu_ guards only the pointer itself.
  // Non-const because the dispatcher mutates the engines (cache, scorer
  // scratch) — publishers only ever construct and swap.
  mutable std::mutex state_mu_;
  std::shared_ptr<State> state_;
  std::mutex publish_mu_;  // serializes seq assignment + swap
  uint64_t next_seq_ = 1;  // guarded by publish_mu_

  mutable std::mutex mu_;            // queue + stats + lifecycle
  std::condition_variable queue_cv_;  // wakes the dispatcher
  std::condition_variable space_cv_;  // wakes producers blocked on space
  std::condition_variable idle_cv_;   // wakes Drain
  std::deque<Pending> lanes_[kNumLanes];  // indexed by RequestLane
  size_t in_flight_ = 0;  // requests taken but not yet fulfilled
  bool shutdown_ = false;
  FrontEndStats stats_;
  // Brownout state machine (dispatcher-only mutation, under mu_).
  bool brownout_active_ = false;
  std::chrono::steady_clock::time_point brownout_entered_;
  uint64_t last_batch_us_ = 0;  // service time of the previous batch
  uint64_t injector_tick_ = 0;  // dispatcher decision counter

  std::thread dispatcher_;  // last member: starts after state is ready
};

}  // namespace bslrec::serve

#endif  // BSLREC_SERVE_SERVING_FRONTEND_H_
