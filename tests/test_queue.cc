/** Unit tests: core/request_queue.h FIFO order, close semantics,
 * multi-producer/multi-consumer delivery, batched push/pop, and the
 * waiter-gated-notify regression (two blocked consumers must both be
 * woken by back-to-back pushes — the "notify only on empty->nonempty"
 * optimization this queue deliberately does NOT use strands one). */

#include "core/request_queue.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "tests/test_util.h"

using tb::core::Request;
using tb::core::RequestQueue;

int
main()
{
    // FIFO order, single-threaded.
    {
        RequestQueue q;
        for (uint64_t i = 0; i < 100; i++) {
            Request r;
            r.id = i;
            r.payload = "p" + std::to_string(i);
            r.genNs = static_cast<int64_t>(i * 10);
            q.push(std::move(r));
        }
        CHECK_EQ(q.size(), static_cast<size_t>(100));
        Request out;
        for (uint64_t i = 0; i < 100; i++) {
            CHECK(q.pop(out));
            CHECK_EQ(out.id, i);
            CHECK(out.payload == "p" + std::to_string(i));
        }
        CHECK_EQ(q.size(), static_cast<size_t>(0));
    }

    // close() lets consumers drain the backlog, then pop() returns
    // false.
    {
        RequestQueue q;
        Request r;
        r.id = 7;
        q.push(std::move(r));
        q.close();
        Request out;
        CHECK(q.pop(out));
        CHECK_EQ(out.id, static_cast<uint64_t>(7));
        CHECK(!q.pop(out));
        CHECK(!q.pop(out));  // stays closed
    }

    // close() wakes a blocked consumer.
    {
        RequestQueue q;
        std::atomic<bool> returned{false};
        std::thread consumer([&] {
            Request out;
            const bool got = q.pop(out);
            CHECK(!got);
            returned = true;
        });
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        q.close();
        consumer.join();
        CHECK(returned);
    }

    // 2 producers x 2 consumers: every id delivered exactly once.
    {
        RequestQueue q;
        constexpr uint64_t kPerProducer = 5000;
        std::vector<std::thread> producers;
        for (int p = 0; p < 2; p++) {
            producers.emplace_back([&q, p] {
                for (uint64_t i = 0; i < kPerProducer; i++) {
                    Request r;
                    r.id = static_cast<uint64_t>(p) * kPerProducer + i;
                    q.push(std::move(r));
                }
            });
        }
        std::mutex seen_mu;
        std::set<uint64_t> seen;
        std::vector<std::thread> consumers;
        for (int c = 0; c < 2; c++) {
            consumers.emplace_back([&] {
                Request out;
                while (q.pop(out)) {
                    std::lock_guard<std::mutex> lock(seen_mu);
                    const bool inserted =
                        seen.insert(out.id).second;
                    CHECK(inserted);  // no duplicate delivery
                }
            });
        }
        for (auto& t : producers)
            t.join();
        q.close();
        for (auto& t : consumers)
            t.join();
        CHECK_EQ(seen.size(), static_cast<size_t>(2 * kPerProducer));
    }

    // pushBatch preserves FIFO order and popAll drains the whole
    // backlog in one call.
    {
        RequestQueue q;
        std::vector<Request> batch;
        for (uint64_t i = 0; i < 50; i++) {
            Request r;
            r.id = i;
            r.payload = "b" + std::to_string(i);
            batch.push_back(std::move(r));
        }
        q.pushBatch(batch);
        CHECK(batch.empty());  // emptied, capacity retained
        CHECK_EQ(q.size(), static_cast<size_t>(50));
        std::vector<Request> out;
        CHECK_EQ(q.popAll(out), static_cast<size_t>(50));
        for (uint64_t i = 0; i < 50; i++) {
            CHECK_EQ(out[i].id, i);
            CHECK(out[i].payload == "b" + std::to_string(i));
        }
        CHECK_EQ(q.size(), static_cast<size_t>(0));
    }

    // popBatch caps at max, preserves order across calls.
    {
        RequestQueue q;
        for (uint64_t i = 0; i < 10; i++) {
            Request r;
            r.id = i;
            q.push(std::move(r));
        }
        std::vector<Request> out;
        CHECK_EQ(q.popBatch(out, 4), static_cast<size_t>(4));
        CHECK_EQ(q.tryPopBatch(out, 100), static_cast<size_t>(6));
        for (uint64_t i = 0; i < 10; i++)
            CHECK_EQ(out[i].id, i);
    }

    // popAll on a closed, drained queue returns 0 (consumer exit
    // path), but drains any backlog first.
    {
        RequestQueue q;
        Request r;
        r.id = 3;
        q.push(std::move(r));
        q.close();
        std::vector<Request> out;
        CHECK_EQ(q.popAll(out), static_cast<size_t>(1));
        CHECK_EQ(out[0].id, static_cast<uint64_t>(3));
        CHECK_EQ(q.popAll(out), static_cast<size_t>(0));
    }

    // tryPopAll never waits: 0 on an open empty queue, the whole
    // backlog in order, and the closed state read under the same lock
    // — (0, closed) only once the backlog is drained.
    {
        RequestQueue q;
        std::vector<Request> out;
        bool closed = true;
        CHECK_EQ(q.tryPopAll(out, closed), static_cast<size_t>(0));
        CHECK(!closed);
        for (uint64_t i = 0; i < 5; i++) {
            Request r;
            r.id = i;
            q.push(std::move(r));
        }
        CHECK_EQ(q.tryPopAll(out, closed), static_cast<size_t>(5));
        CHECK(!closed);
        for (uint64_t i = 0; i < 5; i++)
            CHECK_EQ(out[i].id, i);
        Request r;
        r.id = 9;
        q.push(std::move(r));
        q.close();
        CHECK_EQ(q.tryPopAll(out, closed), static_cast<size_t>(1));
        CHECK(closed);
        CHECK_EQ(out.size(), static_cast<size_t>(1));
        CHECK_EQ(out[0].id, static_cast<uint64_t>(9));
        CHECK_EQ(q.tryPopAll(out, closed), static_cast<size_t>(0));
        CHECK(closed);
        CHECK(out.empty());
    }

    // Regression: waiter-gated notify must not strand a waiting
    // consumer. Park TWO consumers, then deliver two items — once as
    // back-to-back push() calls, once as a single pushBatch(2). An
    // empty->nonempty-transition notify scheme wakes only one
    // consumer in the first shape (the second push sees a nonempty
    // queue and stays silent), deadlocking the other until close().
    // Both consumers must return with an item while the queue is
    // still open.
    for (int shape = 0; shape < 2; shape++) {
        RequestQueue q;
        std::atomic<int> got{0};
        std::vector<std::thread> consumers;
        for (int c = 0; c < 2; c++) {
            consumers.emplace_back([&] {
                Request out;
                if (q.pop(out))
                    got++;
            });
        }
        // Let both consumers reach the cv wait.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        if (shape == 0) {
            Request a, b;
            a.id = 1;
            b.id = 2;
            q.push(std::move(a));
            q.push(std::move(b));
        } else {
            std::vector<Request> batch(2);
            batch[0].id = 1;
            batch[1].id = 2;
            q.pushBatch(batch);
        }
        // Both must complete WITHOUT close() — that is the point.
        for (auto& t : consumers)
            t.join();
        CHECK_EQ(got.load(), 2);
        q.close();
    }

    // pushBatch + popAll under contention: every id exactly once.
    {
        RequestQueue q;
        constexpr uint64_t kBatches = 400;
        constexpr uint64_t kPerBatch = 16;
        std::vector<std::thread> producers;
        for (int p = 0; p < 2; p++) {
            producers.emplace_back([&q, p] {
                std::vector<Request> batch;
                for (uint64_t b = 0; b < kBatches; b++) {
                    for (uint64_t i = 0; i < kPerBatch; i++) {
                        Request r;
                        r.id = static_cast<uint64_t>(p) * kBatches *
                                kPerBatch +
                            b * kPerBatch + i;
                        batch.push_back(std::move(r));
                    }
                    q.pushBatch(batch);
                }
            });
        }
        std::mutex seen_mu;
        std::set<uint64_t> seen;
        std::vector<std::thread> consumers;
        for (int c = 0; c < 2; c++) {
            consumers.emplace_back([&] {
                std::vector<Request> out;
                while (q.popAll(out) > 0) {
                    std::lock_guard<std::mutex> lock(seen_mu);
                    for (const Request& r : out)
                        CHECK(seen.insert(r.id).second);
                }
            });
        }
        for (auto& t : producers)
            t.join();
        q.close();
        for (auto& t : consumers)
            t.join();
        CHECK_EQ(seen.size(),
                 static_cast<size_t>(2 * kBatches * kPerBatch));
    }

    return TEST_MAIN_RESULT();
}
