#ifndef EBS_CORE_SYNC_H
#define EBS_CORE_SYNC_H

#include <cassert>
#include <condition_variable>
#include <mutex>

#include "core/thread_annotations.h"

namespace ebs::core {

/**
 * std::mutex with a capability annotation.
 *
 * libstdc++ ships std::mutex without Clang capability attributes, so
 * `-Wthread-safety` sees straight through std::lock_guard code: guarded
 * fields could be touched lock-free without a diagnostic. Every mutex in
 * the library therefore is an ebs::core::Mutex, locked through MutexLock
 * below — that pair is what turns the EBS_GUARDED_BY annotations on
 * FleetScheduler, Tracer and PhaseWallClock state into compile-time
 * checks.
 * The wrapper adds no state and no behavior over std::mutex.
 */
class EBS_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() EBS_ACQUIRE() { mu_.lock(); }
    void unlock() EBS_RELEASE() { mu_.unlock(); }

  private:
    friend class CondVar;
    std::mutex mu_;
};

/**
 * Scoped lock over a Mutex (the std::unique_lock of this codebase).
 *
 * Relockable: CondVar::wait and FleetScheduler::runClaim drop and
 * re-take the mutex mid-scope via unlock()/lock(), which Clang's
 * analysis tracks for scoped capabilities. Always constructed locked.
 */
class EBS_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mu) EBS_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

    /** Re-acquire after an explicit unlock(). */
    void lock() EBS_ACQUIRE() { mu_.lock(); locked_ = true; }

    /** Drop the mutex before scope end (e.g. around a task body). */
    void unlock() EBS_RELEASE() { mu_.unlock(); locked_ = false; }

    ~MutexLock() EBS_RELEASE()
    {
        if (locked_)
            mu_.unlock();
    }

  private:
    friend class CondVar;
    Mutex &mu_;
    bool locked_ = true;
};

/**
 * Condition variable paired with Mutex/MutexLock.
 *
 * wait() has the usual contract: the caller holds `lock` (over `mu`),
 * the wait atomically releases it while sleeping and re-acquires it
 * before returning — so from the analysis' point of view the capability
 * is held across the call, which matches every caller's guarded-field
 * access pattern on wakeup. The mutex is passed alongside its lock
 * because Clang's analysis resolves EBS_REQUIRES against named call
 * arguments, not against the mutex a scoped lock happens to manage —
 * this is what lets `-Wthread-safety` reject a wait without the lock.
 * Implemented on std::condition_variable against the wrapped std::mutex
 * (no condition_variable_any overhead).
 */
class CondVar
{
  public:
    CondVar() = default;
    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    /** Sleep until notified; `lock` must hold `mu` (held again on
     * return). */
    void wait(Mutex &mu, MutexLock &lock) EBS_REQUIRES(mu)
    {
        assert(&lock.mu_ == &mu &&
               "CondVar::wait: lock does not manage the named mutex");
        // Adopt the already-locked mutex for the duration of the wait;
        // release() hands ownership back so the MutexLock destructor
        // stays the one true unlock site.
        std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
        cv_.wait(native);
        native.release();
        (void)lock;
    }

    void notifyAll() { cv_.notify_all(); }

  private:
    std::condition_variable cv_;
};

} // namespace ebs::core

#endif // EBS_CORE_SYNC_H
