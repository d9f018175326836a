#include "phases.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "core/client.h"
#include "core/service.h"
#include "core/sharded_port.h"
#include "core/transport.h"
#include "net/reactor.h"
#include "net/server_harness.h"
#include "util/clock.h"

namespace tb::perfbench {

namespace {

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
        1e6;
}

core::PortOptions
pinnedPort()
{
    core::PortOptions port;
    port.policy = core::QueuePolicy::kSharded;
    return core::resolveShards(port, Pinned::kWorkers);
}

/** One live serving stack: the service side started, the client side
 * connected. */
class Stack {
  public:
    Stack(Path path, apps::App& app, TraceStore* trace)
    {
        if (path == Path::kIntegrated) {
            const int64_t t0 = util::monotonicNs();
            inproc_ = std::make_unique<core::InProcessTransport>(
                pinnedPort());
            connectSeconds_ =
                static_cast<double>(util::monotonicNs() - t0) / 1e9;
            core::ServerPort* port = &inproc_->serverPort();
            if (trace != nullptr) {
                traced_port_ = std::make_unique<TracedPort>(*port, *trace);
                port = traced_port_.get();
            }
            loop_ = std::make_unique<core::ServiceLoop>(
                *port, app, Pinned::kWorkers);
            loop_->start();
            transport_ = inproc_.get();
            return;
        }
        net::IoOptions io;
        io.mode = net::IoMode::kReactor;
        io.reactors = Pinned::kReactors;
        server_ = std::make_unique<net::TcpServer>(
            app, Pinned::kWorkers, 0, true, pinnedPort(),
            core::ServiceOptions{}, io);
        if (!server_->listening())
            return;
        server_->start();
        const int64_t t0 = util::monotonicNs();
        tcp_ = std::make_unique<net::MultiConnTcpTransport>(
            "127.0.0.1", server_->port(), Pinned::kConnections);
        connectSeconds_ =
            static_cast<double>(util::monotonicNs() - t0) / 1e9;
        if (tcp_->connected())
            transport_ = tcp_.get();
    }

    ~Stack() { stop(); }

    Stack(const Stack&) = delete;
    Stack& operator=(const Stack&) = delete;

    /** Null when the stack could not be built. */
    core::Transport* transport() { return transport_; }
    double connectSeconds() const { return connectSeconds_; }

    /** Waits for the service side to drain and stop. */
    void
    stop()
    {
        if (loop_)
            loop_->join();
        if (server_)
            server_->stop();
    }

  private:
    std::unique_ptr<core::InProcessTransport> inproc_;
    std::unique_ptr<TracedPort> traced_port_;
    std::unique_ptr<core::ServiceLoop> loop_;
    std::unique_ptr<net::TcpServer> server_;
    std::unique_ptr<net::MultiConnTcpTransport> tcp_;
    core::Transport* transport_ = nullptr;
    double connectSeconds_ = 0.0;
};

}  // namespace

double
ladderQps(int rung)
{
    return std::round(Pinned::kLadderBase *
                      std::pow(Pinned::kLadderStep, rung));
}

std::unique_ptr<apps::App>
makePinnedApp(uint64_t seed)
{
    std::unique_ptr<apps::App> app = apps::makeApp(Pinned::kApp);
    apps::AppConfig cfg;
    cfg.seed = seed;
    cfg.sizeFactor = Pinned::kSize;
    app->init(cfg);
    return app;
}

PointResult
runPoint(Path path, apps::App& app, const PointSpec& spec,
         TraceStore* trace, const Faults& faults)
{
    core::HarnessConfig cfg;
    cfg.qps = spec.qps;
    cfg.workerThreads = Pinned::kWorkers;
    cfg.warmupRequests = static_cast<uint64_t>(
        std::llround(spec.qps * spec.warmupSeconds));
    cfg.measuredRequests = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::llround(spec.qps * spec.seconds)));
    cfg.seed = spec.seed;
    cfg.keepSamples = spec.keepSamples;
    cfg.sloTargetNs = Pinned::kSloNs;
    cfg.windows = static_cast<unsigned>(std::max<double>(
        1.0, static_cast<double>(cfg.measuredRequests) /
            Pinned::kWindowRequests));

    PointResult out;
    out.sent = cfg.warmupRequests + cfg.measuredRequests;
    out.measured = cfg.measuredRequests;

    std::optional<TracedApp> traced_app;
    if (trace != nullptr)
        traced_app.emplace(app, *trace);
    apps::App& use = traced_app ? *traced_app : app;

    Stack stack(path, use, trace);
    out.connectSeconds = stack.connectSeconds();
    if (stack.transport() == nullptr) {
        out.failures = out.measured;
        return out;
    }
    // Client-side chain, outermost first:
    //   [Traced] -> Checking -> [DropOne] -> real transport
    core::Transport* t = stack.transport();
    std::optional<DropOneTransport> drop;
    if (faults.dropOneResponse) {
        drop.emplace(*t, cfg.warmupRequests);
        t = &*drop;
    }
    CheckingTransport check(*t, cfg.warmupRequests, out.sent);
    t = &check;
    std::optional<TracedTransport> traced_transport;
    if (trace != nullptr) {
        traced_transport.emplace(*t, *trace);
        t = &*traced_transport;
    }

    const double cpu0 = cpuSeconds();
    core::LoadClient client;
    out.run = client.run(use, cfg, *t);
    stack.stop();
    out.cpuSeconds = cpuSeconds() - cpu0;
    out.failures = check.failures();
    out.firstGenNs = check.firstGenNs();
    return out;
}

SetupSample
measureSetup(Path path, uint64_t seed, const Faults& faults,
             std::unique_ptr<apps::App>& app)
{
    SetupSample s;
    const int64_t t0 = util::monotonicNs();
    app = makePinnedApp(seed);
    s.initSeconds = static_cast<double>(util::monotonicNs() - t0) / 1e9;
    PointSpec probe;
    probe.qps = Pinned::kLowQps;
    probe.seconds = 0.005;
    probe.seed = seed;
    s.probe = runPoint(path, *app, probe, nullptr, faults);
    s.connectSeconds = s.probe.connectSeconds;
    s.seconds = s.probe.firstGenNs > t0
        ? static_cast<double>(s.probe.firstGenNs - t0) / 1e9
        : 0.0;
    return s;
}

double
medianWindowP99(const core::RunResult& r)
{
    std::vector<int64_t> v;
    for (const core::WindowStats& w : r.windows)
        if (w.count > 0)
            v.push_back(w.sojournP99Ns);
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return static_cast<double>(v[(v.size() - 1) / 2]);
}

CapacitySearch::CapacitySearch(Path path, apps::App& app,
                               double trialSeconds, uint64_t seed,
                               const Faults& faults)
    : path_(path),
      app_(app),
      trial_seconds_(trialSeconds),
      seed_(seed),
      faults_(faults)
{
}

bool
CapacitySearch::passes(int rung)
{
    PointSpec spec;
    spec.qps = ladderQps(rung);
    spec.seconds = trial_seconds_;
    spec.warmupSeconds = trial_seconds_ / 4.0;
    spec.seed = seed_ * 1000003 + static_cast<uint64_t>(trials_);
    const PointResult r = runPoint(path_, app_, spec, nullptr, faults_);
    trials_++;
    measured_ += r.measured;
    failures_ += r.failures;
    const double p99 = medianWindowP99(r.run);
    const bool ok = r.failures == 0 &&
        p99 <= static_cast<double>(Pinned::kSloNs) &&
        r.run.achievedQps >= Pinned::kMinAchieved * spec.qps;
    char line[192];
    std::snprintf(line, sizeof(line),
                  "rung %+d offered %.0f achieved %.0f median-window p99 "
                  "%.1f us n %llu -> %s",
                  rung, spec.qps, r.run.achievedQps, p99 / 1e3,
                  static_cast<unsigned long long>(
                      r.run.latency.sojourn.count),
                  ok ? "pass" : "fail");
    log_.emplace_back(line);
    return ok;
}

void
CapacitySearch::round()
{
    // Binary search over the whole ladder, from the ladder base.
    // Invariant: lo passes (or is below the ladder), hi fails (or is
    // above it). Rounds are independent, so a round misled by a noisy
    // trial does not steer the others.
    int lo = Pinned::kLadderMin - 1;
    int hi = Pinned::kLadderMax + 1;
    int mid = 0;
    while (hi - lo > 1) {
        if (passes(mid))
            lo = mid;
        else
            hi = mid;
        mid = lo + (hi - lo) / 2;
    }
    estimates_.push_back(lo);
}

int
CapacitySearch::medianRung() const
{
    if (estimates_.empty())
        return Pinned::kLadderMin - 1;
    std::vector<int> v = estimates_;
    std::sort(v.begin(), v.end());
    return v[(v.size() - 1) / 2];
}

double
CapacitySearch::qps() const
{
    const int rung = medianRung();
    return rung >= Pinned::kLadderMin ? ladderQps(rung) : 0.0;
}

}  // namespace tb::perfbench
