#include "virtual_time.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/harness.h"
#include "queueing/mgn_sim.h"
#include "sim/sim_harness.h"
#include "sim/trace_gen.h"
#include "tracing.h"

namespace tb::perfbench {

namespace {

// Fixed inputs. The app set spans short (silo, masstree), long
// (xapian) and heavy-tailed (moses) service distributions.
const char* const kSimApps[] = {"silo", "masstree", "xapian", "moses"};
constexpr unsigned kSimCores = 4;
constexpr double kSimLoad = 0.6;  // of 4 cores' nominal service rate
constexpr uint64_t kSimWarmup = 5000;
constexpr uint64_t kSimMeasured = 50000;
constexpr uint64_t kTraceWarmupKi = 4000;
constexpr uint64_t kTraceMeasuredKi = 4000;
// The repository's own structural-MPKI acceptance (tests/
// test_trace_gen.cc): within 25% of the Table I target, or within
// 0.15 MPKI for targets so small that a few misses swing the ratio.
constexpr double kMpkiTolerance = 0.25;
constexpr double kMpkiFloor = 0.15;

/**
 * Digest of the golden outputs at kDefaultSeed. Any change to what
 * the simulator, the M/G/n model, result building or the structural
 * MPKI pass compute for these inputs changes it; a deliberate model
 * change re-records it (run with --seed 42 and copy the digest the
 * report prints).
 */
constexpr uint64_t kGoldenDigest = 0x997ffc66e08aa38bull;

/** CPU time of the calling thread (see the file comment). */
int64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double
secondsSince(int64_t t0)
{
    return static_cast<double>(threadCpuNs() - t0) / 1e9;
}

// Keeps the reference computation from being optimized away.
volatile uint64_t g_reference_sink = 0;

}  // namespace

double
referenceSeconds()
{
    static std::vector<uint64_t> buf(size_t{1} << 20);
    uint64_t x = 0x9e3779b97f4a7c15ull;
    uint64_t acc = 0;
    const int64_t t0 = threadCpuNs();
    for (int i = 0; i < 1500000; i++) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        uint64_t& v = buf[(x >> 11) & (buf.size() - 1)];
        v = v * 0x100000001b3ull + x;
        acc += v >> 3;
    }
    g_reference_sink = g_reference_sink ^ acc;
    return secondsSince(t0);
}

namespace {

/** Accumulates a canonical text rendering of outputs into a digest. */
class Digest {
  public:
    void
    add(const char* key, double v)
    {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "%s=%.17g;", key, v);
        mix(buf);
    }
    void
    add(const char* key, uint64_t v)
    {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "%s=%llu;", key,
                      static_cast<unsigned long long>(v));
        mix(buf);
    }
    void
    add(const char* key, const core::LatencySummary& s)
    {
        std::string k(key);
        add((k + ".mean").c_str(), s.meanNs);
        add((k + ".p50").c_str(), static_cast<uint64_t>(s.p50Ns));
        add((k + ".p95").c_str(), static_cast<uint64_t>(s.p95Ns));
        add((k + ".p99").c_str(), static_cast<uint64_t>(s.p99Ns));
        add((k + ".n").c_str(), s.count);
    }
    uint64_t value() const { return h_; }

  private:
    void
    mix(const char* s)
    {
        h_ = (h_ ^ payloadHash(s)) * 0x100000001b3ull;
    }
    uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace

VirtualTime::VirtualTime(uint64_t seed) : seed_(seed)
{
    for (const char* name : kSimApps) {
        sim_apps_.push_back(apps::makeApp(name));
        apps::AppConfig cfg;
        cfg.seed = seed;
        sim_apps_.back()->init(cfg);
    }
    // measureTraceMpki reads only the static profile: no init needed.
    for (const std::string& name : apps::appNames())
        all_apps_.push_back(apps::makeApp(name));
}

SimSample
VirtualTime::simulate(size_t index) const
{
    apps::App& app = *sim_apps_.at(index);
    const std::string& name = app.name();
    SimSample out;
    core::HarnessConfig cfg;
    cfg.workerThreads = kSimCores;
    cfg.qps = kSimLoad * kSimCores * 1e6 /
        (app.profile().meanServiceUs * apps::AppConfig{}.sizeFactor);
    cfg.warmupRequests = kSimWarmup;
    cfg.measuredRequests = kSimMeasured;
    cfg.seed = seed_;
    cfg.keepSamples = true;

    sim::SimHarness harness;
    int64_t t0 = threadCpuNs();
    const core::RunResult sim = harness.run(app, cfg);
    out.simSeconds = secondsSince(t0);
    out.requests = kSimWarmup + kSimMeasured;

    std::vector<int64_t> service;
    service.reserve(sim.samples.size());
    for (const core::RequestTiming& t : sim.samples)
        service.push_back(t.serviceNs());
    queueing::MgnConfig mcfg;
    mcfg.lambda = cfg.qps;
    mcfg.servers = kSimCores;
    mcfg.warmup = kSimWarmup;
    mcfg.measured = kSimMeasured;
    mcfg.seed = seed_;
    t0 = threadCpuNs();
    const queueing::MgnResult mgn = queueing::simulateMgn(service, mcfg);
    out.mgnSeconds = secondsSince(t0);

    std::vector<core::RequestTiming> timings = sim.samples;
    core::ResultOptions ropts;
    ropts.sloTargetNs = 1000000;
    ropts.scheduledMeanGapNs = 1e9 / cfg.qps;
    out.buildRequests = timings.size();
    t0 = threadCpuNs();
    const core::RunResult rebuilt =
        core::buildRunResult(std::move(timings), ropts);
    out.buildSeconds = secondsSince(t0);

    Digest digest;
    const std::string k = "sim." + name;
    digest.add((k + ".qps").c_str(), sim.achievedQps);
    digest.add((k + ".sojourn").c_str(), sim.latency.sojourn);
    digest.add((k + ".queueing").c_str(), sim.latency.queueing);
    digest.add((k + ".service").c_str(), sim.latency.service);
    const sim::MachineStats& ms = harness.lastStats();
    digest.add((k + ".instr").c_str(), ms.instructions);
    digest.add((k + ".cycles").c_str(), ms.cycles);
    digest.add((k + ".l3miss").c_str(), ms.l3Misses);
    digest.add(("mgn." + name + ".qps").c_str(), mgn.achievedQps);
    digest.add(("mgn." + name + ".sojourn").c_str(), mgn.sojourn);
    digest.add(("build." + name + ".slo").c_str(), rebuilt.sloAttainment);
    digest.add(("build." + name + ".windows").c_str(),
               static_cast<uint64_t>(rebuilt.windows.size()));
    digest.add(("build." + name + ".sojourn").c_str(),
               rebuilt.latency.sojourn);
    out.digest = digest.value();

    const double want = cfg.qps;
    out.checks.expect(
        sim.latency.sojourn.count == kSimMeasured &&
            std::fabs(sim.achievedQps - want) <= 0.1 * want &&
            sim.latency.sojourn.p50Ns <= sim.latency.sojourn.p99Ns,
        k + ": count/achieved/percentile order");
    out.checks.expect(mgn.sojourn.count == kSimMeasured &&
                          std::fabs(mgn.achievedQps - want) <= 0.1 * want &&
                          mgn.sojourn.p50Ns <= mgn.sojourn.p99Ns,
                      "mgn." + name + ": count/achieved/percentile order");
    out.checks.expect(
        rebuilt.latency.sojourn.p99Ns == sim.latency.sojourn.p99Ns &&
            rebuilt.latency.sojourn.count == kSimMeasured,
        "build." + name + ": rebuilt result matches the harness");
    return out;
}

TraceSample
VirtualTime::trace(size_t index) const
{
    const apps::App& app = *all_apps_.at(index);
    const apps::AppProfile p = app.profile();
    TraceSample out;
    const int64_t t0 = threadCpuNs();
    const sim::MeasuredMpki m =
        sim::measureTraceMpki(p, seed_, kTraceWarmupKi, kTraceMeasuredKi);
    out.seconds = secondsSince(t0);
    out.kinstr = kTraceWarmupKi + kTraceMeasuredKi;
    out.iterations = m.iterations;

    Digest digest;
    const std::string k = "mpki." + app.name();
    digest.add((k + ".l1i").c_str(), m.l1i);
    digest.add((k + ".l1d").c_str(), m.l1d);
    digest.add((k + ".l2").c_str(), m.l2);
    digest.add((k + ".l3").c_str(), m.l3);
    digest.add((k + ".instr").c_str(), m.instructions);
    digest.add((k + ".iters").c_str(), static_cast<uint64_t>(m.iterations));
    out.digest = digest.value();

    const double measured[4] = {m.l1i, m.l1d, m.l2, m.l3};
    const double target[4] = {p.l1iMpki, p.l1dMpki, p.l2Mpki, p.l3MpkiFull};
    const char* level[4] = {"l1i", "l1d", "l2", "l3"};
    for (int i = 0; i < 4; i++) {
        char what[160];
        std::snprintf(what, sizeof(what),
                      "%s.%s: measured %.3f vs target %.3f", k.c_str(),
                      level[i], measured[i], target[i]);
        out.checks.expect(std::fabs(measured[i] - target[i]) <=
                              std::max(kMpkiTolerance * target[i], kMpkiFloor),
                          what);
    }
    return out;
}

uint64_t
VirtualTime::combine(const std::vector<uint64_t>& simDigests,
                     const std::vector<uint64_t>& traceDigests)
{
    Digest digest;
    for (uint64_t d : simDigests)
        digest.add("sim", d);
    for (uint64_t d : traceDigests)
        digest.add("trace", d);
    return digest.value();
}

void
VirtualTime::checkGolden(uint64_t digest, Checks& checks) const
{
    if (seed_ != kDefaultSeed)
        return;
    char what[96];
    std::snprintf(what, sizeof(what), "digest %016llx != golden %016llx",
                  static_cast<unsigned long long>(digest),
                  static_cast<unsigned long long>(kGoldenDigest));
    checks.expect(digest == kGoldenDigest, what);
}

}  // namespace tb::perfbench
