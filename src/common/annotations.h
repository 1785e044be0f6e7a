// Thread-safety annotations + ranked mutex wrappers — the enforcement
// layers for the locking discipline that protects the paper's invariants
// (TF = min_c TF(c), TP = min_s TP(s), the hook-gated region online rule).
//
// Layer 1 (compile time, clang): Clang thread-safety-analysis macros. Under
// clang with -Wthread-safety (cmake -DTFR_ANALYZE=ON) every TFR_GUARDED_BY /
// TFR_REQUIRES violation is a build error; under gcc they expand to nothing.
//
// Layer 2 (compile time, any compiler): ranked mutex types. Every mutex in
// src/ is a RankedMutex<LockRank::kX> / RankedSharedMutex<LockRank::kX>
// whose rank is a template parameter checked against the generated table in
// src/common/lock_ranks.h (scripts/gen_lock_ranks.py is the single source
// of truth). Where nesting is lexically visible, the scoped RankedMutexLock
// + AcquireToken pattern turns an out-of-order acquisition into a
// static_assert failure: the inner acquisition takes the outer lock's token
// and proves strict rank descent at compile time.
//
// Layer 3 (runtime): the lock-rank validator (cmake -DTFR_LOCK_RANK=ON, the
// default). Every tfr::Mutex carries a LockRank; a thread may only acquire a
// mutex whose rank is *strictly lower* than the lowest rank it already holds
// (locks are ranked outermost-highest, so acquisition order is strictly
// descending). Re-entrant or out-of-order acquisition aborts the process,
// printing the held-lock stack with acquire sites plus a backtrace of the
// offending acquisition — turning a once-in-a-soak deadlock into a
// deterministic one-line repro. The validator also rejects any rank value
// that is not in the generated table. See DESIGN.md "Lock ranks".
//
// Layer 4 (runtime): the blocking-under-lock hook. Blocking entry points
// (DFS I/O, RPC apply/get/scan, WAL/TM-log sync, sleeps) are marked with
// the TFR_BLOCKING attribute and call TFR_BLOCKING_POINT(...) on entry;
// the hook aborts — printing the held locks and a backtrace — when such a
// call runs while this thread holds any mutex whose rank's `may_block`
// policy (lock_ranks.h) forbids it. CondVar waits check the same policy
// against every *other* lock the waiting thread holds. Deliberate,
// documented exceptions use ScopedBlockingAllowed. The static half of this
// check lives in scripts/check_blocking.py (grep fallback) and
// scripts/blocking_under_lock.query (clang).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>

#include "src/common/lock_ranks.h"

// ---------------------------------------------------------------------------
// Clang thread-safety-analysis attribute macros (no-ops elsewhere).
// ---------------------------------------------------------------------------

#if defined(__clang__)
#define TFR_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define TFR_THREAD_ANNOTATION(x)
#endif

#define TFR_CAPABILITY(x) TFR_THREAD_ANNOTATION(capability(x))
#define TFR_SCOPED_CAPABILITY TFR_THREAD_ANNOTATION(scoped_lockable)
#define TFR_GUARDED_BY(x) TFR_THREAD_ANNOTATION(guarded_by(x))
#define TFR_PT_GUARDED_BY(x) TFR_THREAD_ANNOTATION(pt_guarded_by(x))
#define TFR_ACQUIRED_BEFORE(...) TFR_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define TFR_ACQUIRED_AFTER(...) TFR_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define TFR_REQUIRES(...) TFR_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define TFR_REQUIRES_SHARED(...) TFR_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define TFR_ACQUIRE(...) TFR_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define TFR_ACQUIRE_SHARED(...) TFR_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define TFR_RELEASE(...) TFR_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define TFR_RELEASE_SHARED(...) TFR_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define TFR_RELEASE_GENERIC(...) TFR_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))
#define TFR_TRY_ACQUIRE(...) TFR_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define TFR_EXCLUDES(...) TFR_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define TFR_ASSERT_CAPABILITY(x) TFR_THREAD_ANNOTATION(assert_capability(x))
#define TFR_RETURN_CAPABILITY(x) TFR_THREAD_ANNOTATION(lock_returned(x))
#define TFR_NO_THREAD_SAFETY_ANALYSIS TFR_THREAD_ANNOTATION(no_thread_safety_analysis)

// Marks a function that can block the calling thread on something other
// than a tfr::Mutex it is documented to take: DFS I/O, an RPC hop, a WAL or
// TM-log sync, a sleep, a semaphore/queue wait. The marker is consumed by
// the static blocking-under-lock detectors (scripts/check_blocking.py and,
// under clang, the `annotate` attribute for scripts/blocking_under_lock
// .query); the function's *implementation* additionally calls
// TFR_BLOCKING_POINT(...) so the runtime hook fires even where the static
// pass cannot see the call.
#if defined(__clang__)
#define TFR_BLOCKING __attribute__((annotate("tfr_blocking")))
#else
#define TFR_BLOCKING
#endif

// The runtime validator is compiled in when TFR_LOCK_RANK is defined non-zero
// (the cmake option of the same name, ON by default; benches can build with
// -DTFR_LOCK_RANK=OFF to shave the per-acquire bookkeeping).
#ifndef TFR_LOCK_RANK
#define TFR_LOCK_RANK 0
#endif

namespace tfr {

namespace lockrank {
#if TFR_LOCK_RANK
// Called with the mutex address *before* blocking on it, so an
// order-violating acquisition aborts before it can deadlock.
void on_acquire(const void* mu, int rank, const char* name, bool shared, const char* file,
                int line);
void on_release(const void* mu);

// Blocking-under-lock hook (annotations.h Layer 4): aborts with the held
// locks and a backtrace when the calling thread holds any mutex whose rank
// policy forbids blocking (lock_rank_may_block) and no ScopedBlockingAllowed
// is active. `what` names the blocking operation ("dfs.sync", "rpc.apply_batch").
void on_blocking_call(const char* what, const char* file, int line);

// Same policy check for a CondVar wait: every held lock *except* the one
// being waited on (which the wait releases) must permit blocking.
void on_cv_wait(const void* waited_mu, const char* file, int line);

// Observability for tests.
std::size_t held_lock_count();
#else
inline void on_blocking_call(const char*, const char*, int) {}
inline void on_cv_wait(const void*, const char*, int) {}
inline std::size_t held_lock_count() { return 0; }
#endif
}  // namespace lockrank

/// Fires the runtime blocking-under-lock check. Place at the entry of every
/// TFR_BLOCKING function's implementation, before it takes its own locks.
#define TFR_BLOCKING_POINT(what) ::tfr::lockrank::on_blocking_call(what, __FILE__, __LINE__)

/// RAII exception to the blocking-under-lock policy, for call sites where
/// holding a normally-forbidden lock across a blocking call is deliberate
/// and argued in a comment at the site. `why` must be a string literal.
/// Scope it as tightly as the blocking call.
class ScopedBlockingAllowed {
 public:
#if TFR_LOCK_RANK
  explicit ScopedBlockingAllowed(const char* why);
  ~ScopedBlockingAllowed();
#else
  explicit ScopedBlockingAllowed(const char* why) { (void)why; }
#endif
  ScopedBlockingAllowed(const ScopedBlockingAllowed&) = delete;
  ScopedBlockingAllowed& operator=(const ScopedBlockingAllowed&) = delete;
};

// ---------------------------------------------------------------------------
// Annotated, ranked wrappers. These are the only lock primitives the tree
// uses (scripts/lint.sh rejects raw std::mutex outside this header, and
// requires the RankedMutex forms — compile-time ranks — in src/).
// ---------------------------------------------------------------------------

class TFR_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank = LockRank::kLeaf, const char* name = "mutex") noexcept
      : rank_(static_cast<int>(rank)), name_(name) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock(const char* file = __builtin_FILE(), int line = __builtin_LINE()) TFR_ACQUIRE() {
    lock_impl(file, line);
  }
  void unlock() TFR_RELEASE() { unlock_impl(); }

 private:
  friend class MutexLock;
  friend class CondVar;

  void lock_impl(const char* file, int line) {
#if TFR_LOCK_RANK
    lockrank::on_acquire(this, rank_, name_, /*shared=*/false, file, line);
#else
    (void)file;
    (void)line;
#endif
    impl_.lock();
  }
  void unlock_impl() {
#if TFR_LOCK_RANK
    lockrank::on_release(this);
#endif
    impl_.unlock();
  }

  std::mutex impl_;
  const int rank_;
  const char* const name_;
};

/// A Mutex whose rank is part of its type. The rank must come from the
/// generated table (lock_ranks.h); an ad-hoc value is a compile error. This
/// is the declaration form every mutex in src/ uses — it feeds the
/// RankedMutexLock/AcquireToken static ordering check and documents the
/// rank at the declaration site.
template <LockRank R>
class TFR_CAPABILITY("mutex") RankedMutex : public Mutex {
  static_assert(lock_rank_known(static_cast<int>(R)),
                "RankedMutex rank must be a value from the generated lock-rank table "
                "(src/common/lock_ranks.h; edit scripts/gen_lock_ranks.py to add one)");

 public:
  static constexpr LockRank kRank = R;
  explicit RankedMutex(const char* name = "mutex") noexcept : Mutex(R, name) {}
};

class TFR_CAPABILITY("mutex") SharedMutex {
 public:
  explicit SharedMutex(LockRank rank = LockRank::kLeaf, const char* name = "shared_mutex") noexcept
      : rank_(static_cast<int>(rank)), name_(name) {}

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock(const char* file = __builtin_FILE(), int line = __builtin_LINE()) TFR_ACQUIRE() {
#if TFR_LOCK_RANK
    lockrank::on_acquire(this, rank_, name_, /*shared=*/false, file, line);
#else
    (void)file;
    (void)line;
#endif
    impl_.lock();
  }
  void unlock() TFR_RELEASE() {
#if TFR_LOCK_RANK
    lockrank::on_release(this);
#endif
    impl_.unlock();
  }
  void lock_shared(const char* file = __builtin_FILE(),
                   int line = __builtin_LINE()) TFR_ACQUIRE_SHARED() {
#if TFR_LOCK_RANK
    lockrank::on_acquire(this, rank_, name_, /*shared=*/true, file, line);
#else
    (void)file;
    (void)line;
#endif
    impl_.lock_shared();
  }
  void unlock_shared() TFR_RELEASE_SHARED() {
#if TFR_LOCK_RANK
    lockrank::on_release(this);
#endif
    impl_.unlock_shared();
  }

 private:
  std::shared_mutex impl_;
  const int rank_;
  const char* const name_;
};

/// SharedMutex with a compile-time rank; see RankedMutex.
template <LockRank R>
class TFR_CAPABILITY("mutex") RankedSharedMutex : public SharedMutex {
  static_assert(lock_rank_known(static_cast<int>(R)),
                "RankedSharedMutex rank must be a value from the generated lock-rank table "
                "(src/common/lock_ranks.h; edit scripts/gen_lock_ranks.py to add one)");

 public:
  static constexpr LockRank kRank = R;
  explicit RankedSharedMutex(const char* name = "shared_mutex") noexcept : SharedMutex(R, name) {}
};

/// std::unique_lock stand-in for tfr::Mutex: RAII acquire with manual
/// unlock()/lock() (used around callbacks that must run unlocked) and the
/// lock handle tfr::CondVar waits on.
class TFR_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu, const char* file = __builtin_FILE(),
                     int line = __builtin_LINE()) TFR_ACQUIRE(mu)
      : mu_(&mu), file_(file), line_(line) {
    mu_->lock_impl(file_, line_);
    held_ = true;
  }
  ~MutexLock() TFR_RELEASE() {
    if (held_) mu_->unlock_impl();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void unlock() TFR_RELEASE() {
    mu_->unlock_impl();
    held_ = false;
  }
  void lock() TFR_ACQUIRE() {
    mu_->lock_impl(file_, line_);
    held_ = true;
  }

 private:
  friend class CondVar;
  template <LockRank>
  friend class RankedMutexLock;
  Mutex* mu_;
  bool held_ = false;
  const char* file_;
  int line_;
};

/// Zero-size compile-time witness that a mutex of rank `R` is held. Minted
/// only by RankedMutexLock<R>::token(); a function that must run under a
/// specific lock can take one by value, which — unlike TFR_REQUIRES — is
/// enforced on every compiler, not just clang.
template <LockRank R>
class AcquireToken {
 public:
  static constexpr LockRank kRank = R;

 private:
  constexpr AcquireToken() = default;
  template <LockRank>
  friend class RankedMutexLock;
};

/// Scoped lock over a RankedMutex that carries the rank in its type. The
/// two-argument form is the compile-time ordering check: a lexically-nested
/// acquisition must pass the token of a lock this scope already holds, and
/// the rank descent is static_asserted — an inverted nesting no longer
/// compiles (see tests/lint_fixtures/static_rank_inversion.cpp). The
/// runtime validator still covers nesting that spans functions.
template <LockRank R>
class TFR_SCOPED_CAPABILITY RankedMutexLock {
 public:
  explicit RankedMutexLock(RankedMutex<R>& mu, const char* file = __builtin_FILE(),
                           int line = __builtin_LINE())
      TFR_ACQUIRE(mu) TFR_NO_THREAD_SAFETY_ANALYSIS : lock_(mu, file, line) {}

  /// Nested acquisition under an already-held outer lock: compiles only if
  /// this mutex's rank is strictly below the outer one's.
  template <LockRank Outer>
  RankedMutexLock(RankedMutex<R>& mu, AcquireToken<Outer> /*outer*/,
                  const char* file = __builtin_FILE(), int line = __builtin_LINE())
      TFR_ACQUIRE(mu) TFR_NO_THREAD_SAFETY_ANALYSIS : lock_(mu, file, line) {
    static_assert(static_cast<int>(R) < static_cast<int>(Outer),
                  "lock-rank inversion: a nested acquisition must take a mutex of "
                  "strictly lower rank than the lock whose token it was given "
                  "(see DESIGN.md 'Lock ranks')");
  }

  ~RankedMutexLock() TFR_RELEASE() = default;

  RankedMutexLock(const RankedMutexLock&) = delete;
  RankedMutexLock& operator=(const RankedMutexLock&) = delete;

  /// Witness for further nested acquisitions (or AcquireToken parameters).
  AcquireToken<R> token() const { return AcquireToken<R>{}; }

  /// Interop with CondVar::wait and the manual unlock()/lock() pattern.
  MutexLock& as_mutex_lock() { return lock_; }

 private:
  MutexLock lock_;
};

/// RAII exclusive lock on a SharedMutex.
class TFR_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu, const char* file = __builtin_FILE(),
                      int line = __builtin_LINE()) TFR_ACQUIRE(mu)
      : mu_(&mu) {
    mu_->lock(file, line);
  }
  ~WriterLock() TFR_RELEASE() { mu_->unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex* mu_;
};

/// RAII shared lock on a SharedMutex.
class TFR_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu, const char* file = __builtin_FILE(),
                      int line = __builtin_LINE()) TFR_ACQUIRE_SHARED(mu)
      : mu_(&mu) {
    mu_->lock_shared(file, line);
  }
  ~ReaderLock() TFR_RELEASE() { mu_->unlock_shared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex* mu_;
};

/// Condition variable bound to tfr::Mutex via MutexLock. Waits release and
/// re-acquire through the validator, so rank bookkeeping stays exact across
/// blocking. Thread-safety analysis treats a wait as lockset-neutral (the
/// lock is held again when it returns), which matches the explicit
/// `while (!cond) cv.wait(lock);` pattern used throughout the tree —
/// predicate lambdas would be analyzed as unlocked separate functions, so
/// the wrappers intentionally do not take predicates.
///
/// A wait is a blocking call: the blocking-under-lock hook checks every
/// *other* mutex the waiting thread holds against the rank blocking policy
/// (waiting on a queue's own CondVar is fine; parking while holding a
/// foreign no-blocking lock aborts).
class CondVar {
 public:
  void wait(MutexLock& lock, const char* file = __builtin_FILE(),
            int line = __builtin_LINE()) {
    lockrank::on_cv_wait(lock.mu_, file, line);
    Relocker r{&lock};
    cv_.wait(r);
  }

  /// Returns false if `deadline` passed without a notification.
  bool wait_until(MutexLock& lock, std::chrono::steady_clock::time_point deadline,
                  const char* file = __builtin_FILE(), int line = __builtin_LINE()) {
    lockrank::on_cv_wait(lock.mu_, file, line);
    Relocker r{&lock};
    return cv_.wait_until(r, deadline) == std::cv_status::no_timeout;
  }

  /// Returns false on timeout.
  bool wait_for(MutexLock& lock, std::int64_t timeout_micros,
                const char* file = __builtin_FILE(), int line = __builtin_LINE()) {
    return wait_until(
        lock, std::chrono::steady_clock::now() + std::chrono::microseconds(timeout_micros), file,
        line);
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  // BasicLockable adapter handed to condition_variable_any: forwards to the
  // un-annotated impl paths so the cv's internal unlock/relock neither trips
  // the static analysis nor escapes the runtime validator.
  struct Relocker {
    MutexLock* l;
    void lock() TFR_NO_THREAD_SAFETY_ANALYSIS {
      l->mu_->lock_impl(l->file_, l->line_);
      l->held_ = true;
    }
    void unlock() TFR_NO_THREAD_SAFETY_ANALYSIS {
      l->mu_->unlock_impl();
      l->held_ = false;
    }
  };
  std::condition_variable_any cv_;
};

}  // namespace tfr
