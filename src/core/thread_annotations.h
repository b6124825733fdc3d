#ifndef EBS_CORE_THREAD_ANNOTATIONS_H
#define EBS_CORE_THREAD_ANNOTATIONS_H

/**
 * @file
 * Clang thread-safety annotation macros (no-ops on other compilers).
 *
 * The repo's load-bearing guarantee — paper metrics bit-identical at any
 * EBS_JOBS — rests on a small set of documented lock contracts: the
 * FleetScheduler's single mutex over all execution state, and the
 * Tracer's and PhaseWallClock's mutexes over their adopted logs and
 * host-time tallies. These
 * macros turn those prose contracts into compiler-checked properties:
 * the CI `static-analysis` job builds the tree with Clang's
 * `-Wthread-safety -Wthread-safety-beta -Werror`, so touching a guarded
 * field without its mutex (or calling a `EBS_REQUIRES` function without
 * the lock) is a hard build error, not a latent race for TSan to maybe
 * catch under one particular interleaving.
 *
 * The macro set mirrors the Clang documentation's canonical mutex.h:
 * annotate capabilities with EBS_CAPABILITY, guarded state with
 * EBS_GUARDED_BY, and lock contracts with EBS_REQUIRES / EBS_ACQUIRE /
 * EBS_RELEASE / EBS_EXCLUDES. Because libstdc++'s std::mutex carries no
 * capability attributes, the annotated wrapper types in core/sync.h are
 * what make the analysis bite — use ebs::core::Mutex / MutexLock /
 * CondVar for any lock the analysis should check.
 */

#if defined(__clang__) && (!defined(SWIG))
#define EBS_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define EBS_THREAD_ANNOTATION(x) // no-op on GCC/MSVC: contracts still
                                 // documented, checked by the Clang job
#endif

/** Marks a class as a lockable capability (e.g. a mutex wrapper). */
#define EBS_CAPABILITY(name) EBS_THREAD_ANNOTATION(capability(name))

/** Marks an RAII class whose lifetime acquires/releases a capability. */
#define EBS_SCOPED_CAPABILITY EBS_THREAD_ANNOTATION(scoped_lockable)

/** Field may only be touched while holding `mu`. */
#define EBS_GUARDED_BY(mu) EBS_THREAD_ANNOTATION(guarded_by(mu))

/** Pointer field whose *pointee* is guarded by `mu`. */
#define EBS_PT_GUARDED_BY(mu) EBS_THREAD_ANNOTATION(pt_guarded_by(mu))

/** Caller must hold every listed capability (and keeps holding it). */
#define EBS_REQUIRES(...) \
    EBS_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Function acquires the listed capabilities (held on return). */
#define EBS_ACQUIRE(...) \
    EBS_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function releases the listed capabilities (free on return). */
#define EBS_RELEASE(...) \
    EBS_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Caller must NOT hold the listed capabilities (deadlock guard). */
#define EBS_EXCLUDES(...) EBS_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Function returns a reference to a value guarded by `mu`. */
#define EBS_RETURN_CAPABILITY(mu) EBS_THREAD_ANNOTATION(lock_returned(mu))

/**
 * Opt a function body out of the analysis. Reserved for lock juggling
 * the analysis cannot express — e.g. FleetScheduler::runClaim, which
 * temporarily drops its *caller's* scoped lock around the task body.
 * The function's EBS_REQUIRES contract is still enforced at call sites.
 */
#define EBS_NO_THREAD_SAFETY_ANALYSIS \
    EBS_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif // EBS_CORE_THREAD_ANNOTATIONS_H
