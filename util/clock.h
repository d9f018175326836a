#ifndef TAILBENCH_UTIL_CLOCK_H_
#define TAILBENCH_UTIL_CLOCK_H_

/**
 * @file
 * Monotonic nanosecond clock, the open-loop generator's pacer, and the
 * one coarse sleep the harness needs.
 *
 * Everything in the harness timestamps with monotonicNs(): request
 * generation (arrival) time, service start, and completion. A single
 * clock source keeps sojourn = end - gen and service = end - start
 * directly comparable.
 *
 * Every timed wait in the measurement path goes through this file
 * (tb_lint's pacing-seam rule): a generator that sleeps by hand gets
 * the kernel's timer slack, described at Pacer, and silently sends
 * late.
 */

#include <cstdint>
#include <ctime>

namespace tb::util {

/** Nanoseconds from CLOCK_MONOTONIC; ~20 ns per call on Linux. */
inline int64_t
monotonicNs()
{
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000000ll + ts.tv_nsec;
}

/**
 * Paces the calling thread to absolute monotonic deadlines — the
 * open-loop generator's clock. Owned by one thread for a whole run;
 * construct and destroy it on that thread.
 *
 * Timer slack: Linux lets every timed sleep of a normal thread wake up
 * to its "timer slack" (default 50 us) after the deadline, so that
 * wakeups coalesce. On a 4-vCPU x86 host a clock_nanosleep of 5-80 us
 * woke a median 55-64 us late with the default slack, which put the
 * generator ~44 us behind every scheduled send it slept for even
 * behind a 20 us spin window. The pacer sets the thread's slack to
 * 1 ns while it lives (PR_SET_TIMERSLACK; the saved value is restored
 * on destruction), which brings the same sleep's lateness down to
 * 4-14 us.
 *
 * Learned spin window: what lateness remains depends on the host, so
 * waitUntil() sleeps to (deadline - overshootNs()), measures how late
 * that sleep actually woke, folds the measurement into a clamped
 * running average, and spins the rest on the clock. No window
 * constant to tune: the pacer spins only as long as its own sleeps
 * turn out to need.
 */
class Pacer {
  public:
    /** Bounds of the learned overshoot estimate: one wild wakeup (a
     * preemption) moves it at most a bounded step, and a host whose
     * slack cannot be lowered still gets a usable spin window. */
    static constexpr int64_t kMinOvershootNs = 1000;
    static constexpr int64_t kMaxOvershootNs = 50000;

    Pacer();
    ~Pacer();
    Pacer(const Pacer&) = delete;
    Pacer& operator=(const Pacer&) = delete;

    /**
     * Returns at the monotonic deadline @p targetNs: a slack-free
     * sleep to overshootNs() before it, then a spin. Returns at once
     * if the deadline has passed (the generator's timestamps still
     * use the *scheduled* time, so a tardy generator shows up as
     * queueing, never as omitted load).
     */
    void waitUntil(int64_t targetNs);

    /** The current learned sleep overshoot (the spin window). */
    int64_t overshootNs() const { return overshoot_ns_; }

  private:
    int saved_slack_ns_ = -1;
    int64_t overshoot_ns_ = kMinOvershootNs;
};

/**
 * Sleeps about @p ns (relative, at the thread's own timer slack): the
 * coarse nap of a consumer that polls on a timer instead of being
 * woken per item. Not for pacing — use Pacer.
 */
void sleepForNs(int64_t ns);

}  // namespace tb::util

#endif  // TAILBENCH_UTIL_CLOCK_H_
