#ifndef RESCQ_UTIL_PARALLEL_H_
#define RESCQ_UTIL_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rescq {

/// A fixed pool of workers draining an atomic index cursor — the
/// fan-out shape the workload batch engine always used, extracted so
/// the parallel exact solver and the incremental session share one
/// implementation. The pool spawns `threads - 1` std::threads up front
/// (the caller of Run is always the last worker), parks them on a
/// condition variable between jobs, and reuses them across Run calls on
/// the same pool. SolveMinHittingSet builds a new pool on every call, so
/// an IncrementalSession's per-epoch re-solve spawns its workers afresh.
///
/// Concurrency contract:
///  - Run(count, fn) calls fn(i) exactly once for every i in
///    [0, count), from an unspecified worker, in an unspecified order,
///    and returns only after every call finished. The Run caller's
///    writes before Run happen-before every fn(i); every fn(i)'s
///    writes happen-before Run returning (mutex + cv handoff both
///    ways), so callers need no extra synchronization for per-index
///    result slots.
///  - fn must synchronize any state shared *between* indices itself.
///  - Run is not reentrant: one Run at a time per pool, and fn must not
///    call Run on the same pool (workers would deadlock waiting for
///    themselves). Nested parallelism wants a second pool.
///  - fn must not throw (the library is exception-free; see check.h).
class WorkerPool {
 public:
  /// Per-worker utilization counters. tasks_run counts the indices the
  /// worker drained across every Run; idle_ns is the time it spent
  /// parked — for a spawned worker, waiting on the work signal between
  /// jobs; for the Run caller (slot 0), waiting for the spawned
  /// workers' in-flight items after its own drain finished.
  struct WorkerStats {
    uint64_t tasks_run = 0;
    uint64_t idle_ns = 0;
  };

  /// A pool that Run()s work across `threads` workers total; values
  /// below 1 are clamped to 1 (no spawned threads — Run degenerates to
  /// an inline loop, byte-identical to serial execution).
  explicit WorkerPool(int threads);

  /// Joins the workers and, when metrics are enabled, adds the pool's
  /// lifetime totals to the global registry (pool.runs, pool.tasks_run,
  /// pool.idle_ns, pool.workers).
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Total workers including the Run caller.
  int threads() const { return static_cast<int>(workers_.size()) + 1; }

  void Run(size_t count, const std::function<void(size_t)>& fn);

  /// Snapshot of the per-worker counters, slot 0 = the Run caller,
  /// slots 1.. = the spawned workers. Only call between Runs (Run's
  /// completion handoff is what makes the workers' counts visible).
  std::vector<WorkerStats> Stats() const;

 private:
  void WorkerMain(size_t slot);

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // signals a new generation (or stop)
  std::condition_variable done_cv_;  // signals running_ reaching zero
  // All guarded by mu_; cursor_ is the only cross-worker hot word.
  const std::function<void(size_t)>* job_ = nullptr;
  size_t count_ = 0;
  uint64_t generation_ = 0;
  uint64_t runs_ = 0;
  int running_ = 0;
  bool stop_ = false;
  std::atomic<size_t> cursor_{0};
  // stats_[slot] is written by its owning worker only (idle_ns under
  // mu_, tasks_run in the drain loop); Stats() copies between Runs.
  std::vector<WorkerStats> stats_;
  std::vector<std::thread> workers_;
};

/// One-shot fan-out: fn(i) for every i in [0, count) across `threads`
/// workers. threads <= 1 (or count <= 1) runs inline with no thread
/// machinery at all, so a serial configuration stays byte-identical to
/// a plain loop. Spawns and joins a transient WorkerPool otherwise —
/// callers with per-epoch or per-solve cadence should hold a WorkerPool
/// instead.
void ParallelFor(int threads, size_t count,
                 const std::function<void(size_t)>& fn);

/// max(1, std::thread::hardware_concurrency()) — the "use every core"
/// value for --solver-threads/--threads style flags.
int HardwareThreads();

}  // namespace rescq

#endif  // RESCQ_UTIL_PARALLEL_H_
