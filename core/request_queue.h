#ifndef TAILBENCH_CORE_REQUEST_QUEUE_H_
#define TAILBENCH_CORE_REQUEST_QUEUE_H_

/**
 * @file
 * The unbounded MPMC blocking queue the in-process transport is built
 * from: requests flow client -> service, responses flow service ->
 * client, both over the same primitive.
 *
 * Unbounded on purpose: a bounded queue would push back on the
 * generator and reintroduce the closed-loop coordination the open-loop
 * methodology exists to avoid. Memory is bounded in practice by run
 * length (measuredRequests).
 *
 * Hot-path shape (the PR-9 fast path):
 *
 *   storage   one std::vector plus a consumed-prefix index (head_)
 *             instead of std::deque — a deque allocates a node every
 *             few elements, which alone breaks the zero-allocation
 *             steady state. The vector's capacity is retained across
 *             drain cycles (clear-on-empty), and a long-lived consumed
 *             prefix is compacted amortized-O(1) on the push side.
 *   notify    gated on the waiter count, not fired per push: a
 *             condvar notify with nobody waiting is a wasted futex
 *             syscall on every single request at load. waiters_ counts
 *             threads inside a cv wait; pushes notify only when it is
 *             nonzero. This is strictly safer than the naive
 *             "notify on empty->nonempty transition", which strands a
 *             second waiter when two pushes race one wakeup (the
 *             regression test in tests/test_queue.cc pins this down).
 *   batching  pushBatch moves N items under one lock acquisition and
 *             fires at most one notify; popAll swaps the entire
 *             backlog out in O(1) when the consumed prefix is empty,
 *             and tryPopAll does the same without ever becoming a
 *             waiter (the in-process response collector drains on a
 *             timer through it, so workers never notify it).
 *
 * Lock invariant (compile-checked under -Wthread-safety, see
 * util/thread_annotations.h): queue_, head_, waiters_ and closed_ are
 * readable and writable only with mu_ held; cv_ signals "pending item
 * or closed", and every wait is the explicit re-check loop over
 * exactly that predicate with waiters_ bumped around the wait.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/alloc_probe.h"
#include "util/arena.h"
#include "util/mutex.h"

namespace tb::core {

/** Outcome of a timed pop (BlockingQueue::popFor). */
enum class PopResult {
    kItem,     // an item was delivered
    kTimeout,  // queue stayed empty for the whole wait (not closed)
    kClosed,   // closed and drained — the consumer is done
};

/** One in-flight request. genNs is the scheduled generation time —
 * assigned by the open-loop generator before the send, never after.
 * The payload is a util::PayloadRef: arena-backed on the reactor hot
 * path, an owning string everywhere else (string assignment keeps
 * working — the in-process and threads backends are unchanged). */
struct Request {
    uint64_t id = 0;
    util::PayloadRef payload;
    int64_t genNs = 0;
    /**
     * Transport-private routing context, echoed verbatim into the
     * response by the service loop. Clients never set or read it; a
     * server-side transport uses it to route the response back to the
     * connection the request arrived on (ids alone cannot — separate
     * clients of one server generate overlapping ids). 0 for
     * transports with nothing to route (in-process).
     */
    uint64_t ctx = 0;
};

template <typename T>
class BlockingQueue {
  public:
    BlockingQueue() = default;
    BlockingQueue(const BlockingQueue&) = delete;
    BlockingQueue& operator=(const BlockingQueue&) = delete;

    /** Never blocks (unbounded). */
    void
    push(T&& item)
    {
        bool wake;
        {
            util::MutexLock lock(mu_);
            compactLocked();
            queue_.push_back(std::move(item));
            wake = waiters_ > 0;
        }
        if (wake)
            notifyOne();
    }

    /**
     * Moves @p n items into the queue under ONE lock acquisition with
     * at most one notify — the producer-side half of the batched hand-
     * off (a reactor read event delivers its whole frame batch here).
     */
    void
    pushBatch(T* items, size_t n)
    {
        if (n == 0)
            return;
        size_t waiting;
        {
            util::MutexLock lock(mu_);
            compactLocked();
            queue_.reserve(queue_.size() + n);
            for (size_t i = 0; i < n; i++)
                queue_.push_back(std::move(items[i]));
            waiting = waiters_;
        }
        if (waiting == 0)
            return;
        // With several consumers parked and several items landed, one
        // wake would leave work sitting next to idle consumers; a
        // single item (or single waiter) needs only one.
        if (n == 1 || waiting == 1)
            notifyOne();
        else
            notifyAll();
    }

    /** pushBatch from a vector; the vector is emptied (elements moved
     * out), with its capacity retained for the caller's reuse. */
    void
    pushBatch(std::vector<T>& items)
    {
        pushBatch(items.data(), items.size());
        items.clear();
    }

    /**
     * Blocks until an item is available or the queue is closed.
     * Returns false only when closed AND drained — consumers exit then.
     */
    bool
    pop(T& out)
    {
        util::MutexLock lock(mu_);
        while (pendingLocked() == 0 && !closed_) {
            waiters_++;
            cv_.wait(lock);
            waiters_--;
        }
        if (pendingLocked() == 0)
            return false;
        takeFrontLocked(out);
        return true;
    }

    /**
     * Timed pop: blocks up to @p d for an item. kTimeout keeps the
     * consumer's hands free to look elsewhere (work stealing) without
     * giving up on this queue.
     */
    PopResult
    popFor(T& out, std::chrono::nanoseconds d)
    {
        const auto deadline = std::chrono::steady_clock::now() + d;
        util::MutexLock lock(mu_);
        while (pendingLocked() == 0 && !closed_) {
            waiters_++;
            const std::cv_status st = cv_.waitUntil(lock, deadline);
            waiters_--;
            if (st == std::cv_status::timeout)
                break;
        }
        if (pendingLocked() != 0) {
            takeFrontLocked(out);
            return PopResult::kItem;
        }
        return closed_ ? PopResult::kClosed : PopResult::kTimeout;
    }

    /**
     * Blocking batched pop: waits like pop(), then moves up to @p max
     * items under the one lock acquisition — consumers amortize the
     * wake/lock cost when a backlog exists. Appends to @p out and
     * returns the count appended; 0 only when closed AND drained.
     */
    size_t
    popBatch(std::vector<T>& out, size_t max)
    {
        if (max == 0)
            return 0;
        util::MutexLock lock(mu_);
        while (pendingLocked() == 0 && !closed_) {
            waiters_++;
            cv_.wait(lock);
            waiters_--;
        }
        const size_t n = std::min(max, pendingLocked());
        out.reserve(out.size() + n);
        for (size_t i = 0; i < n; i++) {
            out.push_back(std::move(queue_[head_]));
            head_++;
        }
        resetIfDrainedLocked();
        return n;
    }

    /**
     * Blocking whole-backlog pop: waits like pop(), then takes
     * EVERYTHING — by an O(1) vector swap when the consumed prefix is
     * empty (the steady state: @p out comes back empty each round, so
     * the two vectors' capacities ping-pong with zero allocation).
     * @p out is cleared first. Returns the count; 0 only when closed
     * AND drained.
     */
    size_t
    popAll(std::vector<T>& out)
    {
        out.clear();
        util::MutexLock lock(mu_);
        while (pendingLocked() == 0 && !closed_) {
            waiters_++;
            cv_.wait(lock);
            waiters_--;
        }
        return takeAllLocked(out);
    }

    /**
     * Non-blocking whole-backlog pop: popAll without the wait, so a
     * consumer that polls on its own timer is never a waiter and
     * producers never pay a notify for it. @p closed reports, under
     * the same lock, whether the queue was closed — a 0 return with
     * @p closed set means closed AND drained.
     */
    size_t
    tryPopAll(std::vector<T>& out, bool& closed)
    {
        out.clear();
        util::MutexLock lock(mu_);
        closed = closed_;
        return takeAllLocked(out);
    }

    /** Non-blocking pop: false when the queue is currently empty
     * (says nothing about closed state). */
    bool
    tryPop(T& out)
    {
        util::MutexLock lock(mu_);
        if (pendingLocked() == 0)
            return false;
        takeFrontLocked(out);
        return true;
    }

    /** Non-blocking batched pop: appends up to @p max items to @p out,
     * returns the count appended (0 when currently empty). */
    size_t
    tryPopBatch(std::vector<T>& out, size_t max)
    {
        util::MutexLock lock(mu_);
        const size_t n = std::min(max, pendingLocked());
        if (n == 0)
            return 0;
        out.reserve(out.size() + n);
        for (size_t i = 0; i < n; i++) {
            out.push_back(std::move(queue_[head_]));
            head_++;
        }
        resetIfDrainedLocked();
        return n;
    }

    /** After close(), pop() drains the backlog then returns false. */
    void
    close()
    {
        {
            util::MutexLock lock(mu_);
            closed_ = true;
        }
        // Shutdown path, not the hot path: wake everyone
        // unconditionally (and don't count it as a hot-path notify).
        cv_.notifyAll();
    }

    size_t
    size() const
    {
        util::MutexLock lock(mu_);
        return pendingLocked();
    }

  private:
    size_t
    pendingLocked() const TB_REQUIRES(mu_)
    {
        return queue_.size() - head_;
    }

    /** Moves the whole backlog into the (empty) @p out: an O(1) swap
     * when the consumed prefix is empty, so capacities ping-pong
     * between the two vectors with zero allocation. */
    size_t
    takeAllLocked(std::vector<T>& out) TB_REQUIRES(mu_)
    {
        const size_t n = pendingLocked();
        if (n == 0)
            return 0;
        if (head_ == 0) {
            queue_.swap(out);
        } else {
            out.reserve(n);
            for (size_t i = head_; i < queue_.size(); i++)
                out.push_back(std::move(queue_[i]));
            queue_.clear();
            head_ = 0;
        }
        return n;
    }

    void
    takeFrontLocked(T& out) TB_REQUIRES(mu_)
    {
        out = std::move(queue_[head_]);
        head_++;
        resetIfDrainedLocked();
    }

    /** Drained: drop every (already moved-from) element but keep the
     * vector's capacity for the next burst. */
    void
    resetIfDrainedLocked() TB_REQUIRES(mu_)
    {
        if (head_ == queue_.size()) {
            queue_.clear();
            head_ = 0;
        }
    }

    /**
     * Amortized compaction of a long-lived consumed prefix (a queue
     * that never fully drains would otherwise grow without bound).
     * The half-size trigger makes the erase cost O(1) amortized per
     * element pushed.
     */
    void
    compactLocked() TB_REQUIRES(mu_)
    {
        if (head_ > kCompactMin && head_ * 2 >= queue_.size()) {
            queue_.erase(queue_.begin(),
                         queue_.begin() +
                             static_cast<ptrdiff_t>(head_));
            head_ = 0;
        }
    }

    void
    notifyOne()
    {
        util::probe::add(util::probe::kQueueNotifies);
        cv_.notifyOne();
    }

    void
    notifyAll()
    {
        util::probe::add(util::probe::kQueueNotifies);
        cv_.notifyAll();
    }

    static constexpr size_t kCompactMin = 1024;

    mutable util::Mutex mu_;
    util::CondVar cv_;
    std::vector<T> queue_ TB_GUARDED_BY(mu_);
    size_t head_ TB_GUARDED_BY(mu_) = 0;
    size_t waiters_ TB_GUARDED_BY(mu_) = 0;
    bool closed_ TB_GUARDED_BY(mu_) = false;
};

/** The generator -> worker request channel of the in-process
 * transport (and the server-side dispatch queue of the TCP server). */
using RequestQueue = BlockingQueue<Request>;

}  // namespace tb::core

#endif  // TAILBENCH_CORE_REQUEST_QUEUE_H_
