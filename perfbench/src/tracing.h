#ifndef TB_PERFBENCH_TRACING_H_
#define TB_PERFBENCH_TRACING_H_

/**
 * @file
 * Decorators the benchmark wraps around the repository's public seams
 * (apps::App, core::Transport, core::ServerPort). Every layer is timed
 * from outside, at the boundary the benchmark itself calls through;
 * nothing inside the program is instrumented.
 *
 *   LoadClient -> [TracedTransport] -> CheckingTransport -> [DropOne] -> real
 *   ServiceLoop -> TracedPort -> real port;  workers -> TracedApp -> app
 *
 * CheckingTransport is always on: it is the correctness gate (every
 * measured request answered exactly once, genNs <= startNs <= endNs).
 * The Traced* decorators exist only in a traced run. They stamp into
 * arrays preallocated per request id, so recording allocates nothing.
 * The App decorator cannot see request ids, so it keys its spans by a
 * payload hash; the Transport decorator records each id's payload hash
 * and writeSpans() joins the two.
 */

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/common/app.h"
#include "core/transport.h"

namespace tb::perfbench {

/** Every stamp of one traced fixed-rate point, indexed by request id
 * (the App and port spans by arrival order, joined later). */
struct TraceStore {
    explicit TraceStore(size_t requests, uint64_t warmup);

    uint64_t warmup;
    // Generator thread: App::genRequest and Transport::sendRequest.
    std::vector<int64_t> genStart, genEnd, sendEntry, sendExit;
    std::vector<uint64_t> payloadHash;
    // Collector thread: Transport::recvResponse.
    std::vector<int64_t> recvStart, recvEnd;
    std::vector<core::RequestTiming> timing;
    std::vector<uint8_t> received;
    // Service workers: App::process, keyed by payload hash.
    struct ProcessSpan {
        uint64_t hash = 0;
        int64_t start = 0, end = 0, modelNs = 0;
    };
    std::vector<ProcessSpan> process;
    std::atomic<size_t> processCount{0};
    // Service workers: ServerPort::recvReqBatch calls.
    struct BatchSpan {
        int64_t start = 0, end = 0;
        uint32_t size = 0;
    };
    std::vector<BatchSpan> batches;
    std::atomic<size_t> batchCount{0};
};

/** FNV-1a of a payload: the key joining App spans to request ids. */
uint64_t payloadHash(std::string_view payload);

class TracedApp final : public apps::App {
  public:
    TracedApp(apps::App& inner, TraceStore& store)
        : inner_(inner), store_(store)
    {
    }

    const std::string& name() const override { return inner_.name(); }
    void init(const apps::AppConfig& cfg) override { inner_.init(cfg); }
    std::string genRequest(util::Rng& rng) override;
    uint64_t process(std::string_view request) override;
    int64_t serviceNsFor(std::string_view request) const override
    {
        return inner_.serviceNsFor(request);
    }
    apps::RequestCost costFor(std::string_view request) const override
    {
        return inner_.costFor(request);
    }
    apps::AppProfile profile() const override { return inner_.profile(); }

  private:
    apps::App& inner_;
    TraceStore& store_;
    // LoadClient calls genRequest exactly once per id, in id order.
    uint64_t next_id_ = 0;
};

class TracedTransport final : public core::Transport {
  public:
    TracedTransport(core::Transport& inner, TraceStore& store)
        : inner_(inner), store_(store)
    {
    }

    void sendRequest(core::Request&& req) override;
    bool recvResponse(core::Response& out) override;
    void finishSend() override { inner_.finishSend(); }

  private:
    core::Transport& inner_;
    TraceStore& store_;
};

class TracedPort final : public core::ServerPort {
  public:
    TracedPort(core::ServerPort& inner, TraceStore& store)
        : inner_(inner), store_(store)
    {
    }

    bool recvReq(core::Request& out) override { return inner_.recvReq(out); }
    size_t recvReqBatch(std::vector<core::Request>& out,
                        size_t max) override;
    void bindWorker(unsigned worker) override { inner_.bindWorker(worker); }
    void sendResp(core::Response&& resp) override
    {
        inner_.sendResp(std::move(resp));
    }
    void sendRespBatch(std::vector<core::Response>& resps) override
    {
        inner_.sendRespBatch(resps);
    }
    void closeResponses() override { inner_.closeResponses(); }

  private:
    core::ServerPort& inner_;
    TraceStore& store_;
};

/** The correctness gate on the client side of every real-time point. */
class CheckingTransport final : public core::Transport {
  public:
    CheckingTransport(core::Transport& inner, uint64_t warmup,
                      uint64_t total);

    void sendRequest(core::Request&& req) override;
    bool recvResponse(core::Response& out) override;
    void finishSend() override { inner_.finishSend(); }

    /** Scheduled time of the first request sent (0 before any). */
    int64_t firstGenNs() const { return first_gen_ns_; }

    /** Measured requests not answered exactly once, plus measured
     * responses whose stamps are out of order. Call after the run. */
    uint64_t failures() const;

  private:
    core::Transport& inner_;
    const uint64_t warmup_;
    std::vector<uint8_t> seen_;
    int64_t first_gen_ns_ = 0;
    uint64_t unknown_ids_ = 0;
    uint64_t misordered_ = 0;
};

/** Test-only fault: swallows the first measured response, so the
 * self-test can prove the gate notices a lost answer. */
class DropOneTransport final : public core::Transport {
  public:
    DropOneTransport(core::Transport& inner, uint64_t victim)
        : inner_(inner), victim_(victim)
    {
    }

    void sendRequest(core::Request&& req) override
    {
        inner_.sendRequest(std::move(req));
    }
    bool recvResponse(core::Response& out) override;
    void finishSend() override { inner_.finishSend(); }

  private:
    core::Transport& inner_;
    const uint64_t victim_;
    bool dropped_ = false;
};

/**
 * Writes one point's spans as tab-separated rows
 * `name start_ns end_ns parent id value`, measured requests only:
 *
 *   req             genNs .. endNs (the sojourn the harness reports)
 *   apps.gen        App::genRequest             parent -
 *   client.send     Transport::sendRequest      parent req
 *   server.service  startNs .. process end      parent req
 *   apps.process    App::process                parent server.service,
 *                                               value = serviceNsFor
 *   client.recv     Transport::recvResponse     parent -
 *   port.recv_batch ServerPort::recvReqBatch    id -1, value = batch size
 *
 * value is 0 where no column note says otherwise.
 *
 * Returns the number of measured requests whose process span could not
 * be joined (0 in a healthy run).
 */
uint64_t writeSpans(const TraceStore& store, const std::string& path);

}  // namespace tb::perfbench

#endif  // TB_PERFBENCH_TRACING_H_
