#include "util/clock.h"

#include <sys/prctl.h>

#include <algorithm>

namespace tb::util {

namespace {

timespec
toTimespec(int64_t ns)
{
    timespec ts;
    ts.tv_sec = static_cast<time_t>(ns / 1000000000ll);
    ts.tv_nsec = static_cast<long>(ns % 1000000000ll);
    return ts;
}

}  // namespace

Pacer::Pacer()
{
    // PR_GET_TIMERSLACK returns the slack itself; 0 is not settable
    // (it means "reset to the default"), so 1 ns is the floor.
    saved_slack_ns_ = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
    if (saved_slack_ns_ > 0)
        prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
}

Pacer::~Pacer()
{
    if (saved_slack_ns_ > 0)
        prctl(PR_SET_TIMERSLACK,
              static_cast<unsigned long>(saved_slack_ns_), 0, 0, 0);
}

void
Pacer::waitUntil(int64_t targetNs)
{
    const int64_t wake = targetNs - overshoot_ns_;
    if (monotonicNs() < wake) {
        const timespec ts = toTimespec(wake);
        clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr);
        const int64_t late = std::clamp(monotonicNs() - wake,
                                        kMinOvershootNs,
                                        kMaxOvershootNs);
        // Running average with weight 1/8: settles within a few dozen
        // sleeps, and one outlier moves it at most kMax/8.
        overshoot_ns_ += (late - overshoot_ns_) / 8;
    }
    while (monotonicNs() < targetNs) {
        // spin
    }
}

void
sleepForNs(int64_t ns)
{
    const timespec ts = toTimespec(ns);
    clock_nanosleep(CLOCK_MONOTONIC, 0, &ts, nullptr);
}

}  // namespace tb::util
