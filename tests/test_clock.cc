/** Unit tests: util/clock.h's Pacer — timer slack lowered for exactly
 * the generator's run, no sleep on a passed deadline, on-time wakeups,
 * a learned overshoot that stays inside its clamp — and the healthy
 * integrated run the pacer exists for, whose typical send must leave
 * on schedule. */

#include "util/clock.h"

#include <sys/prctl.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/request_queue.h"
#include "core/service.h"
#include "core/transport.h"

#include "tests/test_util.h"

using tb::util::monotonicNs;
using tb::util::Pacer;

namespace {

int
timerSlackNs()
{
    return prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
}

void
setTimerSlackNs(int ns)
{
    prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(ns), 0, 0, 0);
}

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

/** Echo transport that records the timer slack of the thread calling
 * sendRequest — the generator thread, which owns the run's Pacer. */
class SlackProbeTransport final : public tb::core::Transport {
  public:
    void
    sendRequest(tb::core::Request&& req) override
    {
        const int slack = timerSlackNs();
        min_slack_ = std::min(min_slack_, slack);
        max_slack_ = std::max(max_slack_, slack);
        tb::core::Response resp;
        resp.id = req.id;
        resp.timing.genNs = req.genNs;
        resp.timing.startNs = monotonicNs();
        resp.timing.endNs = resp.timing.startNs;
        responses_.push(std::move(resp));
    }

    bool
    recvResponse(tb::core::Response& out) override
    {
        return responses_.pop(out);
    }

    void finishSend() override { responses_.close(); }

    int min_slack_ = 1 << 30;
    int max_slack_ = -1;

  private:
    tb::core::BlockingQueue<tb::core::Response> responses_;
};

void
testRunLowersSlackAndRestoresIt()
{
    const int original = timerSlackNs();
    // A caller value distinct from the kernel default, so "restored"
    // cannot pass by accident.
    setTimerSlackNs(37000);
    NopApp app;
    tb::core::HarnessConfig cfg;
    cfg.qps = 20000.0;
    cfg.warmupRequests = 10;
    cfg.measuredRequests = 200;
    cfg.seed = 3;
    SlackProbeTransport transport;
    tb::core::LoadClient client;
    const tb::core::RunResult r = client.run(app, cfg, transport);
    CHECK_EQ(r.latency.sojourn.count, 200u);
    CHECK_EQ(transport.min_slack_, 1);
    CHECK_EQ(transport.max_slack_, 1);
    CHECK_EQ(timerSlackNs(), 37000);
    setTimerSlackNs(original);
}

void
testPassedDeadlineReturnsAtOnce()
{
    Pacer pacer;
    const int64_t before = pacer.overshootNs();
    int64_t elapsed = 0;
    for (int i = 0; i < 100; i++) {
        const int64_t t0 = monotonicNs();
        // A second in the past: a sleep here would wake a second
        // "late" and drag the estimate to its ceiling.
        pacer.waitUntil(t0 - 1000000000);
        elapsed += monotonicNs() - t0;
    }
    CHECK_EQ(pacer.overshootNs(), before);
    // 100 returns without sleeping: far below even one timer tick.
    CHECK(elapsed < 10000000);
}

/** Median lateness of 1000 waits spaced 30-150 us apart; also checks
 * the learned estimate after every wait against its clamp. */
int64_t
medianLatenessNs(Pacer& pacer, uint64_t seed, bool& clamped)
{
    std::vector<int64_t> late;
    late.reserve(1000);
    uint64_t x = seed;
    int64_t t = monotonicNs();
    for (int i = 0; i < 1000; i++) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        t += 30000 + static_cast<int64_t>((x >> 33) % 120001);
        pacer.waitUntil(t);
        late.push_back(monotonicNs() - t);
        clamped = clamped &&
            pacer.overshootNs() >= Pacer::kMinOvershootNs &&
            pacer.overshootNs() <= Pacer::kMaxOvershootNs;
        // Restart the schedule if a preemption left it behind, so
        // every wait really is 30-150 us ahead.
        t = std::max(t, monotonicNs());
    }
    std::nth_element(late.begin(), late.begin() + 500, late.end());
    return late[500];
}

void
testWakesOnTimeAndStaysInClamp()
{
    // With the default 50 us slack the median was ~44 us behind, every
    // time. Best of 3 rounds: a round that a noisy shared host stalls
    // for milliseconds at a time cannot fail the check.
    Pacer pacer;
    bool clamped = true;
    int64_t best = INT64_MAX;
    for (uint64_t round = 0; round < 3 && best >= 20000; round++)
        best = std::min(best, medianLatenessNs(pacer, 12345 + round,
                                               clamped));
    CHECK(clamped);
    CHECK(best < 20000);
    if (best >= 20000)
        std::fprintf(stderr, "median lateness %lld ns\n",
                     static_cast<long long>(best));
}

void
testEstimateCeiling()
{
    const int original = timerSlackNs();
    Pacer pacer;
    // Re-raise the slack behind the pacer's back: every sleep now
    // wakes up to 3 ms late, which must saturate the estimate at its
    // ceiling, never past it.
    setTimerSlackNs(3000000);
    int64_t t = monotonicNs();
    bool clamped = true;
    for (int i = 0; i < 40; i++) {
        t = std::max(t, monotonicNs()) + 200000;
        pacer.waitUntil(t);
        clamped = clamped &&
            pacer.overshootNs() <= Pacer::kMaxOvershootNs &&
            pacer.overshootNs() >= Pacer::kMinOvershootNs;
    }
    CHECK(clamped);
    CHECK(pacer.overshootNs() > Pacer::kMaxOvershootNs / 2);
    setTimerSlackNs(original);
}

/** Decorator recording each send's wake lag: how long after its
 * scheduled time (genNs) the generator reached sendRequest. */
class WakeLagTransport final : public tb::core::Transport {
  public:
    explicit WakeLagTransport(tb::core::Transport& inner) : inner_(inner) {}

    void
    sendRequest(tb::core::Request&& req) override
    {
        lags_.push_back(monotonicNs() - req.genNs);
        inner_.sendRequest(std::move(req));
    }

    bool
    recvResponse(tb::core::Response& out) override
    {
        return inner_.recvResponse(out);
    }

    void finishSend() override { inner_.finishSend(); }

    std::vector<int64_t> lags_;

  private:
    tb::core::Transport& inner_;
};

void
testHealthyIntegratedRunIsOnTime()
{
    // The healthy control for test_arrival's stalled-generator run: a
    // near-free app (silo at the smallest size, ~0.4 us of service)
    // through the real integrated stack at 35k qps, whose 28.6 us mean
    // gap sits below the ~35-44 us a slack-bound sleep woke late. The
    // typical send must leave within a few microseconds of its
    // schedule. The check is on the median send, not on the run's
    // coordinated-omission verdict: on a shared virtualized host a
    // vCPU descheduled for milliseconds makes a quarter or more of an
    // on-time generator's sends late in a noisy stretch, while its
    // median send stays at 0.2-4 us (20-53 us with the default slack).
    // Best of 5 reps, for the same reason; a slack-bound generator
    // misses in every rep.
    auto app = tb::apps::makeApp("silo");
    tb::apps::AppConfig acfg;
    acfg.sizeFactor = 0.01;
    app->init(acfg);
    tb::core::HarnessConfig cfg;
    cfg.qps = 35000.0;
    cfg.warmupRequests = 200;
    cfg.measuredRequests = 3000;
    int64_t best = INT64_MAX;
    for (uint64_t rep = 0; rep < 5 && best >= 10000; rep++) {
        tb::core::InProcessTransport transport;
        tb::core::ServiceLoop service(transport.serverPort(), *app, 1);
        service.start();
        WakeLagTransport probe(transport);
        cfg.seed = 100 + rep;
        tb::core::LoadClient client;
        const tb::core::RunResult r = client.run(*app, cfg, probe);
        service.join();
        CHECK_EQ(r.latency.sojourn.count, 3000u);
        std::vector<int64_t>& lags = probe.lags_;
        std::nth_element(lags.begin(), lags.begin() + lags.size() / 2,
                         lags.end());
        best = std::min(best, lags[lags.size() / 2]);
    }
    CHECK(best < 10000);
    if (best >= 10000)
        std::fprintf(stderr, "median wake lag %lld ns\n",
                     static_cast<long long>(best));
}

}  // namespace

int
main()
{
    testRunLowersSlackAndRestoresIt();
    testPassedDeadlineReturnsAtOnce();
    testWakesOnTimeAndStaysInClamp();
    testEstimateCeiling();
    testHealthyIntegratedRunIsOnTime();
    return TEST_MAIN_RESULT();
}
