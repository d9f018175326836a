/** Unit tests: core/service.cc shutdown ordering under many workers —
 * closeResponses must fire exactly once, after every response of a
 * racy drain has been sent, for the single-queue and both sharded
 * ports. Also covers worker CPU pinning accounting and the in-process
 * transport's timer-drained response collector. */

#include "core/service.h"

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/sharded_port.h"
#include "core/transport.h"
#include "util/alloc_probe.h"
#include "util/clock.h"

#include "tests/test_util.h"

using tb::core::BlockingQueue;
using tb::core::InProcessTransport;
using tb::core::PortOptions;
using tb::core::QueuePolicy;
using tb::core::Request;
using tb::core::RequestPool;
using tb::core::Response;
using tb::core::ServiceLoop;
using tb::core::ServiceOptions;

namespace {

/** Near-zero-cost app: the stress below is about queue/shutdown
 * races, not workload compute. */
class NopApp final : public tb::apps::App {
  public:
    const std::string& name() const override { return name_; }
    void init(const tb::apps::AppConfig&) override {}
    std::string genRequest(tb::util::Rng&) override { return "x"; }
    uint64_t process(std::string_view request) override
    {
        return request.size();
    }
    int64_t serviceNsFor(std::string_view) const override
    {
        return 1;
    }
    tb::apps::AppProfile profile() const override { return {}; }

  private:
    std::string name_ = "nop";
};

/** ServerPort over a RequestPool that counts closeResponses calls
 * and collects every response. */
class CountingPort final : public tb::core::ServerPort {
  public:
    explicit CountingPort(const PortOptions& opts) : pool_(opts) {}

    bool
    recvReq(Request& out) override
    {
        return pool_.pop(out);
    }

    size_t
    recvReqBatch(std::vector<Request>& out, size_t max) override
    {
        return pool_.popBatch(out, max);
    }

    void
    bindWorker(unsigned worker) override
    {
        pool_.bind(worker);
    }

    void
    sendResp(Response&& resp) override
    {
        responses_.push(std::move(resp));
    }

    void
    closeResponses() override
    {
        closes_.fetch_add(1);
        responses_.close();
    }

    RequestPool pool_;
    BlockingQueue<Response> responses_;
    std::atomic<unsigned> closes_{0};
};

/**
 * One racy drain: start @p workers workers, push requests concurrently
 * with their consumption (mixed affinity/round-robin placement), close
 * mid-flight, and verify every request was answered exactly once
 * before the single closeResponses.
 */
void
stressShutdown(QueuePolicy policy, unsigned workers, uint64_t requests)
{
    PortOptions opts;
    opts.policy = policy;
    opts.shards = workers;
    opts.batchMax = 8;
    CountingPort port(opts);
    NopApp app;
    ServiceLoop service(port, app, workers);

    // Collector first: responses stream while requests still flow.
    std::set<uint64_t> seen;
    std::thread collector([&] {
        Response resp;
        while (port.responses_.pop(resp)) {
            CHECK(seen.insert(resp.id).second);
        }
    });

    service.start();
    for (uint64_t i = 0; i < requests; i++) {
        Request r;
        r.id = i;
        // Mix placements: some connection-affine, some round-robin.
        r.ctx = i % 3 == 0 ? 0 : i;
        r.payload = "x";
        port.pool_.push(std::move(r));
        if (i == requests / 2)
            std::this_thread::yield();  // let the drain race the feed
    }
    port.pool_.close();
    service.join();
    collector.join();

    CHECK_EQ(port.closes_.load(), 1u);
    // A closeResponses racing ahead of a straggler's sendResp would
    // end the collector early and lose that response — full delivery
    // IS the ordering check.
    CHECK_EQ(seen.size(), static_cast<size_t>(requests));
}

/**
 * One race against the in-process collector, which drains on a timer
 * instead of waiting on the queue: @p producers threads push
 * responses in batches, and the last one to finish calls
 * closeResponses right behind its final pushBatch. Every response
 * must arrive exactly once before recvResponse reports the end.
 * Returns the time from the close to that false return.
 */
int64_t
lazyCollectorRace(unsigned producers, uint64_t perProducer)
{
    InProcessTransport transport;
    tb::core::ServerPort& port = transport.serverPort();
    std::atomic<unsigned> live{producers};
    int64_t close_ns = 0;
    std::vector<std::thread> threads;
    for (unsigned p = 0; p < producers; p++) {
        threads.emplace_back([&, p] {
            std::vector<Response> batch;
            for (uint64_t i = 0; i < perProducer; i++) {
                Response r;
                r.id = p * perProducer + i;
                batch.push_back(r);
                if (batch.size() == 7 || i + 1 == perProducer)
                    port.sendRespBatch(batch);  // clears batch
            }
            if (live.fetch_sub(1) == 1) {
                close_ns = tb::util::monotonicNs();
                port.closeResponses();
            }
        });
    }
    std::vector<unsigned> seen(producers * perProducer, 0);
    bool in_range = true;
    Response resp;
    while (transport.recvResponse(resp)) {
        if (resp.id < seen.size())
            seen[resp.id]++;
        else
            in_range = false;
    }
    const int64_t end_ns = tb::util::monotonicNs();
    for (std::thread& t : threads)
        t.join();
    CHECK(in_range);
    CHECK(std::all_of(seen.begin(), seen.end(),
                      [](unsigned n) { return n == 1; }));
    return end_ns - close_ns;
}

void
testLazyCollector()
{
    // The collector is never a queue waiter, so no response push may
    // pay a notify.
    tb::util::probe::setEnabled(true);
    tb::util::probe::reset();
    std::vector<int64_t> close_to_end;
    for (int iter = 0; iter < 20; iter++)
        close_to_end.push_back(lazyCollectorRace(4, iter % 5 == 0
                                                        ? 0
                                                        : 500));
    CHECK_EQ(tb::util::probe::value(tb::util::probe::kQueueNotifies),
             0u);
    tb::util::probe::setEnabled(false);
    // The end is seen within a few drain periods of the close: the
    // median race, with room for a shared host's wakeup delays, so a
    // few preempted collectors cannot fail the check.
    std::sort(close_to_end.begin(), close_to_end.end());
    CHECK(close_to_end[close_to_end.size() / 2] <
          10 * InProcessTransport::kCollectPeriodNs);
}

}  // namespace

int
main()
{
    testLazyCollector();

    const QueuePolicy policies[] = {QueuePolicy::kSingleQueue,
                                    QueuePolicy::kSharded,
                                    QueuePolicy::kShardedSteal};
    // Several iterations per policy: the interesting interleavings
    // (last worker racing the drain, stealers racing close) are
    // probabilistic.
    for (QueuePolicy policy : policies) {
        for (int iter = 0; iter < 5; iter++)
            stressShutdown(policy, 8, 4000);
    }

    // Empty run: close with nothing queued still fires closeResponses
    // exactly once.
    for (QueuePolicy policy : policies)
        stressShutdown(policy, 8, 0);

    // Pinning accounting: on Linux every worker pin succeeds and is
    // reported; with the flag off the count stays 0.
    {
        PortOptions opts;
        opts.policy = QueuePolicy::kSharded;
        opts.shards = 4;
        CountingPort port(opts);
        NopApp app;
        ServiceOptions sopts;
        sopts.pinWorkers = true;
        ServiceLoop service(port, app, 4, sopts);
        service.start();
        port.pool_.close();
        service.join();
        CHECK_EQ(service.workers(), 4u);
#if defined(__linux__)
        CHECK_EQ(service.pinnedWorkers(), 4u);
#else
        CHECK_EQ(service.pinnedWorkers(), 0u);
#endif
        Response resp;
        while (port.responses_.pop(resp)) {
        }
    }
    {
        PortOptions opts;
        CountingPort port(opts);
        NopApp app;
        ServiceLoop service(port, app, 2);
        service.start();
        port.pool_.close();
        service.join();
        CHECK_EQ(service.pinnedWorkers(), 0u);
        Response resp;
        while (port.responses_.pop(resp)) {
        }
    }

    return TEST_MAIN_RESULT();
}
